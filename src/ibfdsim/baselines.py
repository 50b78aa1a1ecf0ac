"""Reference schemes the full-duplex solver is compared against."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import jpaim, objective
from .model import Realization, restrict_to_downlink, restrict_to_uplink
from .stacked import hermitian
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
    cells = np.arange(realization.cell_count)
    si = realization.channels.bs_bs[cells, cells][:, None]    # (G, 1, M_bs, N_bs)
    projected = nsp_project(state.dl_beams, si, realization.hardware.kappa_bs, subspace_dim)
    return replace(state, dl_beams=projected).copy()


def run_nsp(realization: Realization, config: jpaim.SolverConfig, subspace_dim: int,
            trace: jpaim.RunTrace | None = None,
            ) -> tuple[jpaim.RunTrace, BeamformingState, objective.ObjectiveReport]:
    """Solve, project the downlink beams, refresh combiners, re-evaluate.

    Projection only ever shrinks the transmitted power, so the power
    constraints stay satisfied; one combiner refresh lets the receivers react
    to the projected beams before the state is scored.  `trace` is a
    finished jpaim.run of the same realization and config, if the caller has
    one; the solve is skipped then.
    """
    if trace is None:
        trace = jpaim.run(realization, config, collect_metrics=False)
    projected = project_state(realization, trace.final_state, subspace_dim)
    projected = jpaim.update_combiners(realization, projected)
    report = objective.evaluate(realization, projected, jpaim.resolve_nu(realization, config))
    return trace, projected, report


@dataclass(frozen=True)
class HalfDuplexResult:
    """Time-split reference: each phase gets half the airtime."""

    sum_rate: float
    sum_rate_dl: float
    sum_rate_ul: float
    loss: float                 # sum of the two phases' final losses
    iterations: int             # total over both phases
    converged: bool
    dl_trace: jpaim.RunTrace
    ul_trace: jpaim.RunTrace


def run_half_duplex(realization: Realization, config: jpaim.SolverConfig) -> HalfDuplexResult:
    """Run the solver on downlink-only and uplink-only halves of the network.

    The BS never transmits and receives at once, so there is no SI and the
    RSI penalty is dropped; cross-cell interference within each phase is
    kept.  Rates are halved to account for the time split.
    """
    hd_config = replace(config, nu=0.0)
    dl_trace = jpaim.run(restrict_to_downlink(realization), hd_config, collect_metrics=False)
    ul_trace = jpaim.run(restrict_to_uplink(realization), hd_config, collect_metrics=False)
    dl_rep, ul_rep = dl_trace.final_report, ul_trace.final_report
    return HalfDuplexResult(
        sum_rate=0.5 * (dl_rep.sum_rate + ul_rep.sum_rate),
        sum_rate_dl=0.5 * dl_rep.sum_rate_dl,
        sum_rate_ul=0.5 * ul_rep.sum_rate_ul,
        loss=dl_rep.loss + ul_rep.loss,
        iterations=dl_trace.iterations + ul_trace.iterations,
        converged=dl_trace.converged and ul_trace.converged,
        dl_trace=dl_trace,
        ul_trace=ul_trace,
    )
