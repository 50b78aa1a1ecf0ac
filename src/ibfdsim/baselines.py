"""Reference schemes the full-duplex solver is compared against."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import covariance, jpaim, objective
from .model import Realization, bs_node, restrict_to_downlink, restrict_to_uplink
from .stacked import hermitian, stack_channels
from .state import BeamformingState


def nsp_project(beams: np.ndarray, h_si: np.ndarray, kappa_bs: float,
                subspace_dim: int) -> np.ndarray:
    """Project downlink beams onto the weakest SI directions.

    Null-space projection picks the `subspace_dim` eigenvectors of the
    distortion-aware transmit-side SI Gram matrix H^H H + kappa diag(H^H H)
    with the smallest eigenvalues and projects the beam columns onto their
    span.  subspace_dim equal to the full transmit dimension is the identity
    map.  Leading axes broadcast: beams (..., N, b) against SI channels
    (..., M, N).
    """
    n = h_si.shape[-1]
    if not 1 <= subspace_dim <= n:
        raise ValueError(f"subspace_dim must lie in [1, {n}], got {subspace_dim}")
    if beams.shape[-2] != n:
        raise ValueError("beam rows do not match the SI channel's transmit dimension")
    gram = hermitian(h_si) @ h_si
    m = gram + kappa_bs * (gram * np.eye(n))    # kappa times the diagonal of gram
    _, vecs = np.linalg.eigh(m)          # ascending eigenvalues
    basis = vecs[..., :subspace_dim]
    return basis @ (hermitian(basis) @ beams)


def project_state(realization: Realization, state: BeamformingState,
                  subspace_dim: int) -> BeamformingState:
    """Apply nsp_project to the downlink beams of a solved state, with one
    projection per cell for all of its users."""
    si = np.stack([realization.link(bs_node(g), bs_node(g)).est
                   for g in range(realization.cell_count)])[:, None]    # (G, 1, M_bs, N_bs)
    projected = nsp_project(state.dl_beams, si, realization.hardware.kappa_bs, subspace_dim)
    return replace(state, dl_beams=projected).copy()


def run_nsp(realization: Realization, trace: jpaim.RunTrace, subspace_dim: int,
            ) -> tuple[objective.ObjectiveReport, BeamformingState]:
    """Project the downlink beams of a finished jpaim.run of `realization`,
    refresh the combiners, and score the projected state.

    Projection only ever shrinks the transmitted power, so the power
    constraints stay satisfied; one combiner refresh lets the receivers react
    to the projected beams before the state is scored with the solve's nu.
    One covariance assembly serves the refresh and the score, which is
    objective.evaluate of the returned state.  Returns (report, projected
    state).
    """
    projected = project_state(realization, trace.final_state, subspace_dim)
    ch, hw = stack_channels(realization), realization.hardware
    cov = covariance.covariances(ch, hw, (projected.dl_beams, projected.ul_beams))
    # the report scores the state's C-contiguous copies, which round as evaluate's do
    dl, ul = (u.copy() for u in objective.mmse_combiners(cov))
    projected = replace(projected, dl_combiners=dl, ul_combiners=ul)
    return objective.report(ch, hw, (dl, ul), cov, np.asarray(trace.nu), True), projected


def run_half_duplex(realization: Realization, config: jpaim.SolverConfig,
                    ) -> tuple[objective.ObjectiveReport, jpaim.RunTrace, jpaim.RunTrace]:
    """Run the solver on downlink-only and uplink-only halves of the network.

    The BS never transmits and receives at once, so there is no SI: the RSI
    penalty is dropped, the report's RSI is 0 and its ASIC depth nan in every
    cell.  Cross-cell interference within each phase is kept.  Each phase
    gets half the airtime, so the rates are halved; each direction's MSE
    comes from its own phase, and the loss is the sum of the phase losses.
    Returns (report, downlink trace, uplink trace).
    """
    hd_config = replace(config, nu=0.0)
    dl_trace = jpaim.run(restrict_to_downlink(realization), hd_config, collect_metrics=False)
    ul_trace = jpaim.run(restrict_to_uplink(realization), hd_config, collect_metrics=False)
    dl, ul = dl_trace.final_report, ul_trace.final_report
    cells = realization.cell_count
    report = objective.ObjectiveReport(
        sum_mse_dl=dl.sum_mse_dl, sum_mse_ul=ul.sum_mse_ul,
        rsi_watts=(0.0,) * cells, asic_depth_db=(float("nan"),) * cells,
        loss=dl.loss + ul.loss, sum_rate=0.5 * (dl.sum_rate + ul.sum_rate),
        sum_rate_dl=0.5 * dl.sum_rate_dl, sum_rate_ul=0.5 * ul.sum_rate_ul)
    return report, dl_trace, ul_trace
