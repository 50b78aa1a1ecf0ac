"""Transceiver state shared by the objective and the solver."""

from __future__ import annotations

from dataclasses import dataclass, fields

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
    solver keeps the coefficients at their initial values, and a coefficient
    of 0 silences its user.
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
