"""Joint power-allocation and interference-management (JPAIM) solver.

Alternating block-coordinate minimization of the penalized sum MSE: linear
MMSE combiners, then downlink/uplink precoder directions through a single
eigendecomposition per transmitter with a power multiplier, then the scalar
power coefficients with their own multipliers (closed form on the uplink,
a search against the cell budget on the downlink).  Every block solves its
subproblem exactly for the same penalized loss, RSI penalty included.

Every multiplier search solves a secular equation sum_i g_i/(d_i+w)^2 = P
for the smallest feasible w >= 0; one vectorized, safeguarded Newton solve
(secular_multiplier) serves every cell and uplink user at once.

Near its fixed point the plain alternation contracts slowly, so each
iteration also tries an extrapolated point V* + beta (V* - V_prev) beyond the
exact precoder result V*, scaled back into the power budgets.  A safeguard
keeps it only if, after its combiner update, the loss lies at least the
stopping threshold below the iteration's snapshot.  The tracked loss is
therefore non-increasing, and the loop stops once the per-iteration
improvement drops below the threshold.

`run` stacks the channels once per call and then works on the stacked
layout (module `stacked`) throughout: each block is a handful of batched
numpy kernels over all cells and users.  The public block updates below
take and return a BeamformingState and are thin adapters over the same
kernels.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import covariance, objective
from .model import HardwareProfile, Realization
from .stacked import (ChannelStack, StackedState, columns, frobenius_sq, hermitian, re_inner,
                      row_powers, stack_channels, uncolumns)
from .state import BeamformingState


@dataclass(frozen=True)
class SolverConfig:
    """Solver knobs; nu=None derives the RSI penalty from the cell's SI gain."""

    nu: object = None                 # scalar, per-cell sequence, or None
    threshold: float = 1e-4           # stop once the loss decrease falls below this
    max_iterations: int = 100
    bisection_rel_tol: float = 1e-8   # relative power error at the budget
    bisection_max_steps: int = 200    # most power evaluations one multiplier search may take
    init_seed: int = 0                # seeds the random initial precoders

    def __post_init__(self):
        if not 0.0 < self.threshold <= 1e-3:
            raise ValueError("threshold must lie in (0, 1e-3]")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be >= 0")
        if not 0.0 < self.bisection_rel_tol <= 1e-6:
            raise ValueError("bisection_rel_tol must lie in (0, 1e-6]")
        if self.bisection_max_steps < 1:
            raise ValueError("bisection_max_steps must be >= 1")


@dataclass
class IterationRecord:
    """One solver iteration: loss after the combiner step, then that
    iteration's multipliers and post-update powers."""

    iteration: int
    loss: float
    sum_mse: float
    rsi_watts: tuple
    sum_rate: float               # nan when metric collection is off
    elapsed_ms: float
    dl_cell_power: tuple          # per cell, after the full iteration
    ul_user_power: tuple          # flattened over (cell, user)
    dl_precoder_multipliers: tuple    # per cell
    ul_precoder_multipliers: tuple    # flattened over (cell, user)
    dl_power_multipliers: tuple       # per cell
    ul_power_multipliers: tuple       # flattened over (cell, user)
    multiplier_evaluations: int = 0   # power evaluations over the iteration's searches


@dataclass
class RunTrace:
    """Full solver run: per-iteration records plus the final state and report.

    records[0] is the initial state before any update; record t holds the
    loss measured right after iteration t's combiner update, which is the
    quantity the stopping rule watches.
    """

    records: list
    final_state: BeamformingState
    final_report: objective.ObjectiveReport
    converged: bool
    iterations: int
    nu: tuple

    @property
    def losses(self) -> np.ndarray:
        return np.array([r.loss for r in self.records])


@dataclass
class PrecoderUpdate:
    state: BeamformingState
    dl_multipliers: tuple         # per cell
    ul_multipliers: tuple         # flattened over (cell, user)
    dl_scalar_power: tuple        # per cell, from the eigen-domain expression
    dl_matrix_power: tuple        # per cell, from the assembled precoders
    ul_scalar_power: tuple
    ul_matrix_power: tuple
    quadratic: tuple = None       # quadratic_terms: (BS (G, N, N), uplink (G, K_u, n, n))
    dl_evaluations: tuple = ()    # power evaluations of each cell's multiplier search
    ul_evaluations: tuple = ()    # flattened over (cell, user)


@dataclass
class PowerUpdate:
    state: BeamformingState
    dl_multipliers: tuple         # per cell
    ul_multipliers: tuple         # flattened over (cell, user)
    dl_evaluations: tuple = ()    # power evaluations of each cell's multiplier search


def resolve_nu(realization: Realization, config: SolverConfig) -> np.ndarray:
    """Per-cell RSI penalty weights; the default ties them to the SI gain.

    A cell whose analog stage leaves gain l_g gets nu_g = l_g^2, which equals
    10**(-l_db/5) for a cancellation depth of l_db decibels.
    """
    if config.nu is None:
        return np.array([l * l for l in realization.hardware.si_gain])
    return objective._nu_per_cell(realization, config.nu)


def initialize(realization: Realization, config: SolverConfig,
               rng: np.random.Generator | None = None) -> BeamformingState:
    """Random unit-column precoders, zero combiners, budget-splitting coefficients.

    alpha = sqrt(P_bs / (b_d K_d)) shares the cell budget over users and
    streams; gamma = sqrt(P_ue / b_u).  With unit-norm precoder columns the
    initial state meets the power budgets exactly.
    """
    if rng is None:
        rng = np.random.default_rng([config.init_seed, realization.seed])
    ant = realization.antennas
    hw = realization.hardware
    topo = realization.topology

    def unit_matrix(rows, cols):
        m = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        return m / np.linalg.norm(m, axis=0, keepdims=True)

    dl_pre, dl_comb, dl_coef = [], [], []
    ul_pre, ul_comb, ul_coef = [], [], []
    for g in range(topo.cell_count):
        k_d = topo.dl_counts[g]
        dl_pre.append([unit_matrix(ant.bs_tx, ant.dl_streams) for _ in range(k_d)])
        dl_comb.append([np.zeros((ant.ue_rx, ant.dl_streams), dtype=complex)
                        for _ in range(k_d)])
        alpha = math.sqrt(hw.p_bs_w / (ant.dl_streams * k_d)) if k_d else 0.0
        dl_coef.append(np.full(k_d, alpha))
    for g in range(topo.cell_count):
        k_u = topo.ul_counts[g]
        ul_pre.append([unit_matrix(ant.ue_tx, ant.ul_streams) for _ in range(k_u)])
        ul_comb.append([np.zeros((ant.bs_rx, ant.ul_streams), dtype=complex)
                        for _ in range(k_u)])
        ul_coef.append(np.full(k_u, math.sqrt(hw.p_ue_w / ant.ul_streams)))
    return BeamformingState(dl_pre, dl_comb, dl_coef, ul_pre, ul_comb, ul_coef)




# ---------------------------------------------------------------------------
# the multiplier search
# ---------------------------------------------------------------------------


def secular_multiplier(g, d, budget, rel_tol: float, max_steps: int):
    """Smallest w >= 0 with P(w) = sum_i g_i / (d_i + w)^2 <= budget, every row at once.

    g and d have shape (..., n) with g, d >= 0; budget is positive and
    broadcasts to the rows (...).  Terms with g_i = 0 carry no power at any
    w.  A row within its budget at w = 0 gets w = 0.  Any other row aims at
    the target budget (1 - rel_tol) with a safeguarded Newton method on
    phi(w) = P(w)^(-1/2), which is concave and increasing (the
    secular-equation step of More & Sorensen, SIAM J. Sci. Stat. Comput.
    1983).  It starts from the one-term lower bound
    max_i(sqrt(g_i / target) - d_i) on the root, and every step lands on a
    lower bound again (see _bound_step), so the iterates rise monotonically
    and a row stops at the first with P(w) <= budget: feasible, and binding
    to within rel_tol.

    Returns (w, P(w), evaluations of P), each with the rows' shape.
    """
    g = np.asarray(g, dtype=float)
    shape, n = g.shape[:-1], g.shape[-1]
    g = g.reshape(math.prod(shape), n)
    d = np.where(g > 0.0, np.reshape(d, g.shape), 1.0)   # an empty term stays finite at any w
    # decreasing d, for the bounds of _bound_step
    order = np.argsort(-d, axis=-1)
    rows = np.arange(g.shape[0])[:, None]
    g, d = g[rows, order], d[rows, order]
    budget = np.broadcast_to(np.asarray(budget, dtype=float), shape).reshape(-1)
    target = budget * (1.0 - rel_tol)
    w = (np.sqrt(g / target[:, None]) - d).max(axis=-1, initial=0.0)
    evaluations = np.zeros(g.shape[0], dtype=int)
    searching = np.ones(g.shape[0], dtype=bool)
    while True:
        # rows already done keep their w, so their power repeats exactly
        den = d + w[:, None]
        terms = g / (den * den)
        power = terms.sum(axis=-1)
        evaluations += searching
        searching &= power > budget
        if not searching.any():
            return w.reshape(shape), power.reshape(shape), evaluations.reshape(shape)
        if evaluations.max() >= max_steps:
            raise RuntimeError(f"power multiplier search: no feasible multiplier after "
                               f"{max_steps} evaluations")
        w = np.where(searching, w + _bound_step(terms, den, target), w)


def _bound_step(terms, den, target):
    """How far the root lies at least beyond w, from the terms t_i = g_i / den_i^2
    at a point w left of it, with den_i = d_i + w sorted in decreasing order.

    Dropping the other terms and Jensen's inequality give, for any set S of
    terms and s >= 0, P(w + s) >= P_S (1 + s Q_S / P_S)^-2, where
    P_S = sum_S t_i and Q_S = sum_S t_i / den_i.  So the root lies at least
    (P_S / Q_S)(sqrt(P_S / target) - 1) beyond w.  The set of all terms
    gives Newton's step on phi; taking the best over the prefixes of the
    sorted terms also steps past a term that has a near-zero d but carries
    little power, where Newton crawls.
    """
    p_s = terms.cumsum(axis=-1)
    q_s = (terms / den).cumsum(axis=-1)
    # an empty prefix has p_s = q_s = 0; flooring q_s only shortens the step
    ratio = p_s / np.maximum(q_s, np.finfo(float).tiny)
    return (ratio * (np.sqrt(p_s / target[:, None]) - 1.0)).max(axis=-1, initial=0.0)


# ---------------------------------------------------------------------------
# stacked block kernels
# ---------------------------------------------------------------------------


def _combiner_step(ch: ChannelStack, s: StackedState,
                   cov: covariance.Covariances) -> StackedState:
    """U = coefficient * C^-1 H V for every user; a BS solves once for all
    the uplink users it decodes."""
    try:
        dl = np.linalg.solve(cov.dl_rx, ch.dl_own @ s.dl_precoders)
        ul = np.linalg.solve(cov.bs_rx, columns(ch.ul_own @ s.ul_precoders))
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"singular received covariance ({exc}); check the noise configuration") from exc
    ul = uncolumns(ul, s.ul_combiners.shape[-1])
    return replace(s, dl_combiners=s.dl_coefficients[..., None, None] * dl,
                   ul_combiners=s.ul_coefficients[..., None, None] * ul)


def _quadratic(ch: ChannelStack, hw: HardwareProfile, s: StackedState, nu: np.ndarray):
    """Omega of every transmitter plus nu_g S_g at BS g (see quadratic_terms)."""
    omega_bs, omega_ul = covariance.transmit_grams(ch, hw, s)
    return omega_bs + nu[:, None, None] * ch.si_gram, omega_ul


@dataclass(eq=False)
class _PrecoderStep:
    state: StackedState
    dl_multipliers: np.ndarray    # (G,)
    ul_multipliers: np.ndarray    # (G, K_u)
    dl_scalar_power: np.ndarray
    ul_scalar_power: np.ndarray
    dl_evaluations: np.ndarray
    ul_evaluations: np.ndarray
    quadratic: tuple


def _precoder_step(ch: ChannelStack, hw: HardwareProfile, s: StackedState,
                   nu: np.ndarray, config: SolverConfig) -> _PrecoderStep:
    """V = (1/coefficient) Q (D + w I)^-1 Q^H H^H U per user, with Q D Q^H the
    transmitter's quadratic-term matrix and w its power multiplier."""
    m_bs, m_ul = _quadratic(ch, hw, s, nu)
    d_bs, q_bs = np.linalg.eigh(m_bs)
    d_ul, q_ul = np.linalg.eigh(m_ul)
    d_bs, d_ul = np.maximum(d_bs, 0.0), np.maximum(d_ul, 0.0)   # PSD up to rounding
    b_dl = hermitian(q_bs)[:, None] @ (ch.dl_own_h @ s.dl_combiners)
    b_ul = hermitian(q_ul) @ (ch.ul_own_h @ s.ul_combiners)
    # silenced users (coefficient 0) take no part and keep their precoders
    dl_on = s.dl_coefficients > 0.0
    ul_on = s.ul_coefficients > 0.0
    g_dl = (row_powers(b_dl) * dl_on[..., None]).sum(axis=1)
    g_ul = row_powers(b_ul) * ul_on[..., None]

    # one search over every cell and uplink user, shorter rows padded with empty terms
    cells, k_u, n_ue = g_ul.shape
    width = max(g_dl.shape[1], n_ue)
    g = np.zeros((cells + cells * k_u, width))
    d = np.zeros_like(g)
    g[:cells, :g_dl.shape[1]], d[:cells, :g_dl.shape[1]] = g_dl, d_bs
    g[cells:, :n_ue], d[cells:, :n_ue] = g_ul.reshape(-1, n_ue), d_ul.reshape(-1, n_ue)
    budget = np.repeat([hw.p_bs_w, hw.p_ue_w], [cells, cells * k_u])
    w, power, evaluations = secular_multiplier(g, d, budget, config.bisection_rel_tol,
                                               config.bisection_max_steps)
    w_dl, w_ul = w[:cells], w[cells:].reshape(cells, k_u)

    def assemble(q, b, den, coefficient, on, old):
        positive = den > 0.0
        scaled = np.where(positive[..., None], b / np.where(positive, den, 1.0)[..., None], 0.0)
        safe = np.where(on, coefficient, 1.0)[..., None, None]
        return np.where(on[..., None, None], (q @ scaled) / safe, old)

    new = replace(
        s,
        dl_precoders=assemble(q_bs[:, None], b_dl, (d_bs + w_dl[:, None])[:, None],
                              s.dl_coefficients, dl_on, s.dl_precoders),
        ul_precoders=assemble(q_ul, b_ul, d_ul + w_ul[..., None], s.ul_coefficients, ul_on,
                              s.ul_precoders))
    return _PrecoderStep(new, w_dl, w_ul, power[:cells], power[cells:].reshape(cells, k_u),
                         evaluations[:cells], evaluations[cells:].reshape(cells, k_u),
                         (m_bs, m_ul))


@dataclass(eq=False)
class _PowerStep:
    state: StackedState
    dl_multipliers: np.ndarray    # (G,)
    ul_multipliers: np.ndarray    # (G, K_u)
    dl_evaluations: np.ndarray


def _power_step(ch: ChannelStack, hw: HardwareProfile, s: StackedState, quadratic,
                config: SolverConfig) -> _PowerStep:
    """Penalized-MSE-optimal coefficients numer / (curvature + lambda ||V||^2).

    numer = Re tr(U^H H V) on the user's own estimated link, clamped at zero
    (a user whose combiner points away from its signal is silenced);
    curvature = tr(V^H M V) with M the user's quadratic_terms matrix.  The
    downlink power sum_k numer_k^2 / ||V_k||^2 / (curvature_k / ||V_k||^2 +
    lambda)^2 is a secular function of the cell multiplier; the uplink
    multiplier has a closed form.
    """
    m_bs, m_ul = quadratic

    def terms(v, m, hv, u):
        return re_inner(u, hv), re_inner(v, m @ v), frobenius_sq(v)

    numer, chi, vpow = terms(s.dl_precoders, m_bs[:, None], ch.dl_own @ s.dl_precoders,
                             s.dl_combiners)
    chi = np.maximum(chi, 0.0)             # tr(V^H M V) of a PSD M, up to rounding
    on = (numer > 0.0) & (vpow > 0.0)
    vsafe = np.where(on, vpow, 1.0)
    lam, _, evaluations = secular_multiplier(np.where(on, numer ** 2 / vsafe, 0.0),
                                             np.where(on, chi / vsafe, 0.0), hw.p_bs_w,
                                             config.bisection_rel_tol,
                                             config.bisection_max_steps)
    den = chi + lam[:, None] * vsafe
    alpha = np.where(on & (den > 0.0), numer / np.where(den > 0.0, den, 1.0), 0.0)

    numer, chi, vpow = terms(s.ul_precoders, m_ul, ch.ul_own @ s.ul_precoders, s.ul_combiners)
    on = (numer > 0.0) & (vpow > 0.0)
    vsafe = np.where(on, vpow, 1.0)
    # sqrt factors kept apart: vpow * p_ue underflows for a collapsed user
    lam_ul = np.where(on, np.maximum(0.0, -chi / vsafe + numer / (np.sqrt(vsafe)
                                                                 * math.sqrt(hw.p_ue_w))), 0.0)
    den = chi + lam_ul * vsafe
    gamma = np.where(on & (den > 0.0), numer / np.where(den > 0.0, den, 1.0), 0.0)
    return _PowerStep(replace(s, dl_coefficients=alpha, ul_coefficients=gamma), lam, lam_ul,
                      evaluations)


def _extrapolate(hw: HardwareProfile, s: StackedState, prev: StackedState,
                 weight: float) -> StackedState:
    """Trial point W + weight (W - W_prev) on every transmitted beamformer (see extrapolate)."""
    def move(coefficient, precoder, prev_coefficient, prev_precoder, budget, per_cell):
        on = coefficient > 0.0
        beams = np.where(on[..., None, None],
                         (1.0 + weight) * coefficient[..., None, None] * precoder
                         - weight * prev_coefficient[..., None, None] * prev_precoder, 0.0)
        power = frobenius_sq(beams)
        if per_cell:
            power = power.sum(axis=-1, keepdims=True)
        scale = np.sqrt(budget / np.maximum(power, budget))    # 1 within the budget
        safe = np.where(on, coefficient, 1.0)
        return np.where(on[..., None, None],
                        (scale / safe)[..., None, None] * beams, precoder)

    return replace(
        s,
        dl_precoders=move(s.dl_coefficients, s.dl_precoders, prev.dl_coefficients,
                          prev.dl_precoders, hw.p_bs_w, True),
        ul_precoders=move(s.ul_coefficients, s.ul_precoders, prev.ul_coefficients,
                          prev.ul_precoders, hw.p_ue_w, False))


# ---------------------------------------------------------------------------
# block updates on a BeamformingState
# ---------------------------------------------------------------------------


def _stacked(realization: Realization, *states: BeamformingState):
    return (stack_channels(realization),
            *(StackedState.from_state(realization, st) for st in states))


def update_combiners(realization: Realization, state: BeamformingState) -> BeamformingState:
    """Linear MMSE combiners U = coef * C^-1 H V for every user."""
    ch, s = _stacked(realization, state)
    return _combiner_step(ch, s, covariance.covariances(ch, realization.hardware, s)).to_state()


def compute_omegas(realization: Realization, state: BeamformingState):
    """Interference-plus-distortion matrices seen from each transmitter.

    For BS g this aggregates, over every receiver in the network, the f1 form
    of the estimated channel from g and that receiver's combiner (the SI link
    contributes through its true matrix, stored as its estimate).  The uplink
    variant does the same from each uplink user's antennas.  Returns arrays
    indexed [g] and [g][k].
    """
    ch, s = _stacked(realization, state)
    return covariance.transmit_grams(ch, realization.hardware, s)


def quadratic_terms(realization: Realization, state: BeamformingState, nu):
    """Matrices M with tr(V^H M V) the quadratic term of each precoder in the
    penalized loss at fixed combiners.

    That is the transmitter's omega, plus nu_g S_g at BS g, where
    S_g = H^H H + kappa diag(H^H H) is the distortion-aware Gram matrix of its
    true SI channel.  Returns (BS matrices [g], uplink matrices [g][k]).
    """
    ch, s = _stacked(realization, state)
    return _quadratic(ch, realization.hardware, s, np.asarray(nu, dtype=float))


def update_precoders(realization: Realization, state: BeamformingState,
                     config: SolverConfig) -> PrecoderUpdate:
    """Penalized-MSE-optimal precoder directions at fixed combiners and coefficients.

    Downlink: per cell, V_k = (1/alpha_k) (Omega_g + nu_g S_g + w_g I)^-1 H^H U_k
    with S_g the distortion-aware SI Gram matrix and w_g >= 0 the smallest
    multiplier keeping the cell inside its power budget.  Uplink: the same
    form per user against P_ue without any SI term.
    """
    ch, s = _stacked(realization, state)
    step = _precoder_step(ch, realization.hardware, s, resolve_nu(realization, config), config)
    return PrecoderUpdate(
        state=step.state.to_state(),
        dl_multipliers=tuple(step.dl_multipliers.tolist()),
        ul_multipliers=tuple(step.ul_multipliers.ravel().tolist()),
        dl_scalar_power=tuple(step.dl_scalar_power.tolist()),
        dl_matrix_power=tuple(step.state.dl_cell_powers().tolist()),
        ul_scalar_power=tuple(step.ul_scalar_power.ravel().tolist()),
        ul_matrix_power=tuple(step.state.ul_powers().ravel().tolist()),
        quadratic=step.quadratic,
        dl_evaluations=tuple(step.dl_evaluations.tolist()),
        ul_evaluations=tuple(step.ul_evaluations.ravel().tolist()))


def update_power_coefficients(realization: Realization, state: BeamformingState,
                              config: SolverConfig, quadratic=None) -> PowerUpdate:
    """Penalized-MSE-optimal scalar coefficients under the power constraints.

    Each coefficient is numer / (curvature + lambda * ||V||_F^2) with numer
    clamped at zero (a user whose combiner points away from its signal is
    silenced).  The uplink multiplier has a closed form; the downlink cells
    share one multiplier each, from secular_multiplier.  `quadratic` is
    quadratic_terms(realization, state, nu) if the caller has it (the
    precoder step computes it from the same combiners); it is computed
    afresh otherwise.
    """
    ch, s = _stacked(realization, state)
    hw = realization.hardware
    if quadratic is None:
        quadratic = _quadratic(ch, hw, s, resolve_nu(realization, config))
    step = _power_step(ch, hw, s, tuple(np.asarray(m) for m in quadratic), config)
    return PowerUpdate(state=step.state.to_state(),
                       dl_multipliers=tuple(step.dl_multipliers.tolist()),
                       ul_multipliers=tuple(step.ul_multipliers.ravel().tolist()),
                       dl_evaluations=tuple(step.dl_evaluations.tolist()))


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


EXTRAPOLATION = 4.0    # weight beta of the extrapolated trial point


def extrapolate(realization: Realization, state: BeamformingState,
                previous: BeamformingState, weight: float) -> BeamformingState:
    """Trial point W + weight (W - W_prev) on every transmitted beamformer.

    W = coefficient * precoder is what the loss sees.  The trial keeps the
    coefficients of `state` and moves its precoders; a cell or uplink user
    pushed over its budget is scaled back onto it.  Silenced users stay as
    they are.  Combiners are carried over unchanged.
    """
    _, s, prev = _stacked(realization, state, previous)
    return _extrapolate(realization.hardware, s, prev, weight).to_state()


def run(realization: Realization, config: SolverConfig,
        rng: np.random.Generator | None = None, collect_metrics: bool = True) -> RunTrace:
    """Run the alternating solver until the loss decrease falls below threshold.

    Per iteration: combiners, loss snapshot, precoders, power coefficients,
    then a safeguarded extrapolation (block coordinate descent with
    extrapolation, Xu & Yin 2013).  The trial point extrapolate(V*, V_prev,
    EXTRAPOLATION) from the exact block result V* gets its own combiner
    update; it replaces V* only if its loss then lies below the iteration's
    snapshot by at least the threshold, and its combiners and report serve
    as the next iteration's.  Otherwise V* is kept.  Either way the snapshot
    sequence is non-increasing, and an accepted trial never looks converged.
    The first iteration tries no trial, since its V_prev is the random
    initial point and V* - V_prev no descent direction.  Neither does the
    last (converged or at max_iterations), so the final state is always an
    exact block result.  Non-convergence within max_iterations is reported
    in the trace, not raised.

    The channels are stacked once per call; every iteration then runs on
    arrays, and the covariances of a combiner update also serve the
    evaluation after it.
    """
    nu = resolve_nu(realization, config)
    hw = realization.hardware
    ch = stack_channels(realization)
    state = StackedState.from_state(realization, initialize(realization, config, rng))
    cells, k_u = state.ul_coefficients.shape
    no_dl, no_ul = (0.0,) * cells, (0.0,) * (cells * k_u)

    def refresh(s):
        """Combiner update plus the report that shares its covariances."""
        cov = covariance.covariances(ch, hw, s)
        s = _combiner_step(ch, s, cov)
        return s, objective.report(ch, hw, s, cov, nu, collect_metrics)

    def snapshot(iteration, rep, elapsed_ms, pre=None, pw=None):
        return IterationRecord(
            iteration=iteration,
            loss=rep.loss,
            sum_mse=rep.sum_mse,
            rsi_watts=rep.rsi_watts,
            sum_rate=rep.sum_rate,
            elapsed_ms=elapsed_ms,
            dl_cell_power=tuple(state.dl_cell_powers().tolist()),
            ul_user_power=tuple(state.ul_powers().ravel().tolist()),
            dl_precoder_multipliers=tuple(pre.dl_multipliers.tolist()) if pre else no_dl,
            ul_precoder_multipliers=tuple(pre.ul_multipliers.ravel().tolist()) if pre else no_ul,
            dl_power_multipliers=tuple(pw.dl_multipliers.tolist()) if pw else no_dl,
            ul_power_multipliers=tuple(pw.ul_multipliers.ravel().tolist()) if pw else no_ul,
            multiplier_evaluations=int(pre.dl_evaluations.sum() + pre.ul_evaluations.sum()
                                       + pw.dl_evaluations.sum()) if pre else 0,
        )

    t0 = time.perf_counter()
    rep = objective.report(ch, hw, state, covariance.covariances(ch, hw, state), nu,
                           collect_metrics)
    records = [snapshot(0, rep, (time.perf_counter() - t0) * 1e3)]

    converged = False
    iterations = 0
    prev_loss = rep.loss
    accepted = None          # (state, report) of the trial the last iteration kept
    for t in range(1, config.max_iterations + 1):
        t0 = time.perf_counter()
        if accepted is None:
            state, rep = refresh(state)
        else:
            state, rep = accepted
            accepted = None
        pre = _precoder_step(ch, hw, state, nu, config)
        pw = _power_step(ch, hw, pre.state, pre.quadratic, config)
        iterations = t
        converged = prev_loss - rep.loss < config.threshold
        if not converged and 1 < t < config.max_iterations:
            trial, trial_rep = refresh(_extrapolate(hw, pw.state, state, EXTRAPOLATION))
            if trial_rep.loss < rep.loss - config.threshold:
                accepted = (trial, trial_rep)
        state = accepted[0] if accepted else pw.state
        records.append(snapshot(t, rep, (time.perf_counter() - t0) * 1e3, pre, pw))
        if converged:
            break
        prev_loss = rep.loss

    final_report = objective.report(ch, hw, state, covariance.covariances(ch, hw, state), nu,
                                    True)
    return RunTrace(records=records, final_state=state.to_state(), final_report=final_report,
                    converged=converged, iterations=iterations, nu=tuple(nu))
