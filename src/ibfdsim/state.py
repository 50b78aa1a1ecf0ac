"""Transceiver state shared by the objective and the solver."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(eq=False)
class BeamformingState:
    """Per-user precoders, combiners, and scalar power coefficients.

    Downlink entities are indexed [cell][user]; the transmitted signal of
    downlink user (g, k) is alpha[g][k] * dl_precoders[g][k] @ symbols, and
    likewise gamma[g][k] * ul_precoders[g][k] for uplink users.  Precoder
    matrices are kept separate from their scalar coefficients because the
    solver alternates between the two.
    """

    dl_precoders: list        # [g][k] -> (N_bs, b_d) complex
    dl_combiners: list        # [g][k] -> (M_ue, b_d) complex
    dl_coefficients: list     # [g] -> float array (K_d,)
    ul_precoders: list        # [g][k] -> (N_ue, b_u) complex
    ul_combiners: list        # [g][k] -> (M_bs, b_u) complex
    ul_coefficients: list     # [g] -> float array (K_u,)

    def copy(self) -> "BeamformingState":
        return BeamformingState(
            dl_precoders=[[v.copy() for v in cell] for cell in self.dl_precoders],
            dl_combiners=[[u.copy() for u in cell] for cell in self.dl_combiners],
            dl_coefficients=[a.copy() for a in self.dl_coefficients],
            ul_precoders=[[v.copy() for v in cell] for cell in self.ul_precoders],
            ul_combiners=[[u.copy() for u in cell] for cell in self.ul_combiners],
            ul_coefficients=[a.copy() for a in self.ul_coefficients],
        )

    def dl_cell_power(self, g: int) -> float:
        """Transmit power of BS g before distortion, sum_k alpha^2 ||V||_F^2."""
        return float(sum(
            self.dl_coefficients[g][k] ** 2 * np.linalg.norm(self.dl_precoders[g][k]) ** 2
            for k in range(len(self.dl_precoders[g]))))

    def ul_power(self, g: int, k: int) -> float:
        """Transmit power of uplink user (g, k) before distortion."""
        return float(self.ul_coefficients[g][k] ** 2
                     * np.linalg.norm(self.ul_precoders[g][k]) ** 2)
