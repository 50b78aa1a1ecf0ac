"""Reference schemes the full-duplex solver is compared against: null-space
projection, scored by objective.score on the realization's Channels (module
`stacked`), whose SI channels it reads, and the half-duplex time split."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import jpaim, objective
from .model import Realization, restrict_to_downlink, restrict_to_uplink
from .stacked import BeamformingState, add_scaled_diag, hermitian


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
    # the Gram matrix's eigenvectors, by ascending eigenvalue
    _, vecs = np.linalg.eigh(add_scaled_diag(hermitian(h_si) @ h_si, kappa_bs))
    basis = vecs[..., :subspace_dim]
    return basis @ (hermitian(basis) @ beams)


def run_nsp(realization: Realization, trace: jpaim.RunTrace, subspace_dim: int | None = None,
            ) -> tuple[objective.ObjectiveReport, BeamformingState]:
    """Project the downlink beams of a finished jpaim.run of `realization`
    onto `subspace_dim` SI directions (half the BS antennas, at least one,
    by default), refresh the combiners, and score the projected state.

    Projection only ever shrinks the transmitted power, so the power
    constraints stay satisfied; one combiner refresh lets the receivers react
    to the projected beams before the state is scored with the solve's nu.
    The realization's Channels holds the SI channels that serve the
    projection, and one objective.score, with one covariance
    assembly and one MMSE solve, serves the refresh and the report, which is
    objective.evaluate of the returned state.  Returns (report, projected
    state).
    """
    ch, hw = realization.channels, realization.hardware
    final = trace.final_state
    dim = max(1, ch.n_bs // 2) if subspace_dim is None else subspace_dim
    dl_beams = nsp_project(final.dl_beams, ch.si[:, None], hw.kappa_bs, dim)
    (dl, ul), _, report = objective.score(ch, hw, (dl_beams, final.ul_beams),
                                          np.asarray(trace.nu), with_rates=True)
    return report, BeamformingState(dl_beams, dl, final.ul_beams.copy(), ul)


def run_half_duplex(realization: Realization, config: jpaim.SolverConfig,
                    ) -> tuple[objective.ObjectiveReport, jpaim.RunTrace, jpaim.RunTrace]:
    """Run the solver on downlink-only and uplink-only halves of the network.

    The BS never transmits and receives at once, so there is no SI: the RSI
    penalty is dropped, the report's RSI is 0 and its ASIC depth nan in every
    cell.  Cross-cell interference within each phase is kept.  Each phase
    gets half the airtime, so the report halves the rates, not the traces'
    records; each direction's MSE comes from its own phase, and the loss is
    the sum of the phase losses.  Returns (report, downlink trace, uplink trace).
    """
    hd_config = replace(config, nu=0.0)
    dl_trace = jpaim.run(restrict_to_downlink(realization), hd_config)
    ul_trace = jpaim.run(restrict_to_uplink(realization), hd_config)
    dl, ul = dl_trace.final_report, ul_trace.final_report
    cells = realization.cell_count
    report = objective.ObjectiveReport(
        sum_mse_dl=dl.sum_mse_dl, sum_mse_ul=ul.sum_mse_ul,
        rsi_watts=(0.0,) * cells, asic_depth_db=(float("nan"),) * cells,
        loss=dl.loss + ul.loss, sum_rate_dl=0.5 * dl.sum_rate_dl, sum_rate_ul=0.5 * ul.sum_rate_ul)
    return report, dl_trace, ul_trace
