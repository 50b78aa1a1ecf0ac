"""Transceiver state at the public boundary of the objective and the solver,
whose kernels run on the beams W = coefficient * V and the combiners U."""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .stacked import frobenius_sq


@dataclass(eq=False)
class BeamformingState:
    """Precoders, combiners, and scalar power coefficients of every user.

    Each field is one dense array with axes (cell, user, rows, streams) for
    the matrices and (cell, user) for the coefficients, matching the
    ChannelStack of module `stacked`; `dl_precoders[g][k]` is a view that
    can be read or written in place.  The transmitted signal of downlink
    user (g, k) is alpha[g, k] * dl_precoders[g, k] @ symbols, and likewise
    gamma[g, k] * ul_precoders[g, k] for uplink users.  Precoder matrices are
    kept apart from their scalar coefficients as in the paper's model; the
    solver keeps the coefficients at their initial values and works on the
    beams alone.  A coefficient of 0 silences its user.
    """

    dl_precoders: np.ndarray      # (G, K_d, N_bs, b_d) complex
    dl_combiners: np.ndarray      # (G, K_d, M_ue, b_d) complex
    dl_coefficients: np.ndarray   # (G, K_d) float
    ul_precoders: np.ndarray      # (G, K_u, N_ue, b_u) complex
    ul_combiners: np.ndarray      # (G, K_u, M_bs, b_u) complex
    ul_coefficients: np.ndarray   # (G, K_u) float

    def copy(self) -> "BeamformingState":
        """A state of C-contiguous arrays that share no memory with this one."""
        return BeamformingState(*(getattr(self, f.name).copy() for f in fields(self)))

    def beams(self) -> tuple[np.ndarray, np.ndarray]:
        """(W_dl, W_ul): the transmitted beams coefficient * precoder of every user."""
        return (self.dl_coefficients[..., None, None] * self.dl_precoders,
                self.ul_coefficients[..., None, None] * self.ul_precoders)

    def with_beams(self, beams) -> "BeamformingState":
        """This state with precoders V = W / coefficient for the beams
        (W_dl, W_ul); a silenced user (coefficient 0) keeps its old V."""
        def precoders(w, coefficient, old):
            on = (coefficient > 0.0)[..., None, None]
            return np.where(on, w / np.where(on, coefficient[..., None, None], 1.0), old)

        return replace(self,
                       dl_precoders=precoders(beams[0], self.dl_coefficients, self.dl_precoders),
                       ul_precoders=precoders(beams[1], self.ul_coefficients, self.ul_precoders))

    def zero_silenced(self, pair) -> tuple[np.ndarray, np.ndarray]:
        """The (downlink, uplink) arrays `pair`, laid out as the precoders,
        with the entries of this state's silenced users set to 0."""
        return tuple(x * (c > 0.0)[..., None, None]
                     for x, c in zip(pair, (self.dl_coefficients, self.ul_coefficients)))

    def dl_cell_powers(self) -> np.ndarray:
        """(G,) transmit power of each BS before distortion, sum_k alpha^2 ||V||_F^2."""
        return (self.dl_coefficients ** 2 * frobenius_sq(self.dl_precoders)).sum(axis=-1)

    def ul_powers(self) -> np.ndarray:
        """(G, K_u) transmit power of each uplink user before distortion."""
        return self.ul_coefficients ** 2 * frobenius_sq(self.ul_precoders)

    def dl_cell_power(self, g: int) -> float:
        """Transmit power of BS g before distortion."""
        return float(self.dl_cell_powers()[g])

    def ul_power(self, g: int, k: int) -> float:
        """Transmit power of uplink user (g, k) before distortion."""
        return float(self.ul_powers()[g, k])
