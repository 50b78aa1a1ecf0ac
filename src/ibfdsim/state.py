"""Transceiver state at the public boundary of the objective and the solver:
the transmitted beams W and the combiners U that the kernels run on."""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .stacked import frobenius_sq


@dataclass(eq=False)
class BeamformingState:
    """Transmitted beams and combiners of every user.

    Each field is one dense array with axes (cell, user, rows, streams),
    matching the ChannelStack of module `stacked`; `dl_beams[g][k]` is a view
    that can be read or written in place.  The transmitted signal of
    downlink user (g, k) is dl_beams[g, k] @ symbols, and likewise
    ul_beams[g, k] for uplink users, so a beam carries its power: it is the
    paper's precoder times its scalar amplitude.
    """

    dl_beams: np.ndarray          # (G, K_d, N_bs, b_d) complex
    dl_combiners: np.ndarray      # (G, K_d, M_ue, b_d) complex
    ul_beams: np.ndarray          # (G, K_u, N_ue, b_u) complex
    ul_combiners: np.ndarray      # (G, K_u, M_bs, b_u) complex

    def copy(self) -> "BeamformingState":
        """A state of C-contiguous arrays that share no memory with this one."""
        return BeamformingState(*(getattr(self, f.name).copy() for f in fields(self)))

    def dl_cell_powers(self) -> np.ndarray:
        """(G,) transmit power of each BS before distortion, sum_k ||W||_F^2."""
        return frobenius_sq(self.dl_beams).sum(axis=-1)

    def ul_powers(self) -> np.ndarray:
        """(G, K_u) transmit power of each uplink user before distortion."""
        return frobenius_sq(self.ul_beams)

    def dl_cell_power(self, g: int) -> float:
        """Transmit power of BS g before distortion."""
        return float(self.dl_cell_powers()[g])

    def ul_power(self, g: int, k: int) -> float:
        """Transmit power of uplink user (g, k) before distortion."""
        return float(self.ul_powers()[g, k])
