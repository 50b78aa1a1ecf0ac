"""Joint power-allocation and interference-management (JPAIM) solver.

Alternating two-block minimization of the penalized sum MSE, in the WMMSE
family (Shi, Razaviyayn, Luo & He, IEEE TSP 2011): linear MMSE combiners,
then the downlink/uplink precoders through a single eigendecomposition per
transmitter with a power multiplier.  Both blocks solve their subproblem
exactly for the same penalized loss, RSI penalty and CSI error included:
the precoder's quadratic form carries the CSI-error floor each
transmitter's beams put on every receiver, (1 + kappa_t) sum_r err[r, t]
||U_r||_F^2 times the identity (covariance.transmit_grams).

The precoder step minimizes over the transmitted beams W under the power
budgets, so it also allocates the power.  The paper splits each beam into
a precoder and a scalar amplitude; a separate block for the amplitudes
would have nothing left to improve, so the state holds the beams alone.

Every multiplier search solves a secular equation sum_i g_i/(d_i+w)^2 = P
for the smallest feasible w >= 0; one vectorized, safeguarded Newton solve
(_search) serves every sending BS and uplink user of an iteration at once.

Near its fixed point the plain alternation contracts slowly, so each
iteration also tries an extrapolated point W* + beta (W* - W_prev) beyond the
exact precoder result W*, scaled back into the power budgets.  A safeguard
keeps it only if, after its combiner update, the loss lies at least the
stopping threshold below the iteration's snapshot.  The tracked loss is
therefore non-increasing, up to the rounding of ill-conditioned BS
covariances (ROADMAP item 17), and the loop stops once the per-iteration
improvement drops below the threshold.

`run` reads the realization's Channels (module `stacked`) and its derived
views, builds the precoder step's constants (the SI
penalties and the search budgets) once per call and iterates on the
beams W and the combiners U, (downlink, uplink) pairs of arrays in the same
layout: each block is a few batched numpy kernels over all cells and users,
and each combiner update and loss is objective.score, as in every other
caller.  A BeamformingState holds them only at the ends
of a solve: the start that `initialize` draws and the final state.

A direction without users (the other one of a half-duplex phase, or of a
network without downlink or uplink users) runs no kernel: its transmitters
get no eigendecomposition, beam, extrapolated move, search row or record
entry, and their beams stay empty.  A BS thus sends when the network has
downlink users, and has an SI link when it also has a receive chain.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import covariance, objective
from .model import HardwareProfile, Realization, check_integer_fields
from .stacked import (BeamformingState, Channels, add_scaled_diag, frobenius_sq, hermitian,
                      row_powers)

EXTRAPOLATION = 4.0            # weight beta of the extrapolated trial point
SEARCH_REL_TOL = 1e-8          # a multiplier search stops this far, relatively, below the budget
SEARCH_MAX_EVALUATIONS = 200   # most power evaluations one multiplier search may take


@dataclass(frozen=True)
class SolverConfig:
    """Solver knobs; nu=None derives the RSI penalty from the cell's SI gain."""

    nu: float | None = None           # one weight for every cell, or None
    threshold: float = 1e-4           # stop once the loss decrease falls below this
    max_iterations: int = 100

    def __post_init__(self):
        check_integer_fields(self)
        if self.nu is not None:
            object.__setattr__(self, "nu", objective.checked_nu(self.nu))
        if not 0.0 < self.threshold <= 1e-3:
            raise ValueError("threshold must lie in (0, 1e-3]")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be >= 0")


@dataclass
class RunTrace:
    """Full solver run: per-iteration records plus the final state and report.

    `records` holds one row per record, as a numpy recarray: records[0] is
    the initial state before any update, and row t holds the loss measured
    right after iteration t's combiner update, which is the quantity the
    stopping rule watches, then that iteration's multipliers, search
    evaluations, post-update powers and wall times.  Each field is a column
    over the records, records.loss of shape (T+1,), and records[t].loss is
    one row's.  Per row:

    - loss, sum_mse, sum_rate (rated after the loop from each record's b x b
      objective.signal_gains, outside every row's wall time);
    - rsi_watts, per SI link, and dl_cell_power and dl_precoder_multipliers,
      per sending BS: (G,) or (0,);
    - ul_user_power and ul_precoder_multipliers, per uplink user over
      (cell, user) (G K_u,);
    - multiplier_evaluations, the power evaluations of the row's search,
      summed over every sending BS and uplink user (not a count per multiplier);
    - elapsed_ms, the iteration's wall time, and its parts: combiner_ms, the
      combiner update (0.0 when the previous iteration's accepted trial
      supplied it), precoder_ms, the precoder step, and trial_ms, the
      extrapolated trial with its combiner update (0.0 when the iteration
      tries none).

    A traced campaign writes every field of every row to its iteration CSV.

    Record 0 has no search and no block times: they read 0.
    """

    records: np.recarray
    final_state: BeamformingState
    final_report: objective.ObjectiveReport
    converged: bool
    nu: tuple

    @property
    def iterations(self) -> int:
        return len(self.records) - 1


def initialize(realization: Realization) -> BeamformingState:
    """Random beams that meet the power budgets exactly, and zero combiners.

    Every beam is a random matrix with unit-norm columns, scaled by
    alpha = sqrt(P_bs / (b_d K_d)) in the downlink, which shares the cell
    budget over users and streams, and by gamma = sqrt(P_ue / b_u) in the
    uplink.  The draws come from default_rng([0, realization.seed]).
    """
    rng = np.random.default_rng([0, realization.seed])
    ch, hw = realization.channels, realization.hardware
    cells, k_d, k_u = ch.cells, ch.k_d, ch.k_u
    b_d, b_u = realization.dl_streams, realization.ul_streams

    def unit_matrices(count, rows, cols):
        # drawn user by user, real part then imaginary part
        re, im = np.moveaxis(rng.standard_normal((cells, count, 2, rows, cols)), 2, 0)
        m = re + 1j * im
        return m / np.linalg.norm(m, axis=-2, keepdims=True)

    alpha = math.sqrt(hw.p_bs_w / (b_d * k_d)) if k_d else 0.0
    gamma = math.sqrt(hw.p_ue_w / b_u)
    # every downlink user draws before the first uplink user
    dl_beams = alpha * unit_matrices(k_d, ch.n_bs, b_d)
    return BeamformingState(
        dl_beams=dl_beams,
        dl_combiners=np.zeros((cells, k_d, ch.m_ue, b_d), dtype=complex),
        ul_beams=gamma * unit_matrices(k_u, ch.n_ue, b_u),
        ul_combiners=np.zeros((cells, k_u, ch.m_bs, b_u), dtype=complex),
    )


# ---------------------------------------------------------------------------
# the multiplier search
# ---------------------------------------------------------------------------


_TINY = np.finfo(float).tiny


def _search(g, d, budget, target):
    """Smallest w >= 0 with P(w) = sum_i g_i / (d_i + w)^2 <= budget, every row at once.

    g and d are float rows of shape (rows, n) with g, d >= 0, `budget` is
    each row's budget (rows,) and `target` its target as a column (rows, 1),
    the budget times (1 - SEARCH_REL_TOL).  Terms with g_i = 0 carry no
    power at any w.  A row within its budget at w = 0 gets w = 0.  Any other
    row aims at its target with a safeguarded Newton method on
    phi(w) = P(w)^(-1/2), which is concave and increasing (the
    secular-equation step of More & Sorensen, SIAM J. Sci. Stat. Comput.
    1983).  It starts from the one-term
    lower bound max_i(sqrt(g_i / target) - d_i) on the root, and every step
    lands on a lower bound again (see _bound_step), so the iterates rise
    monotonically and a row stops at the first with P(w) <= budget:
    feasible, and binding to within SEARCH_REL_TOL.  A row still over its
    budget after SEARCH_MAX_EVALUATIONS evaluations raises RuntimeError.

    Returns (w, P(w), evaluations of P), each of shape (rows,).
    """
    d = np.where(g > 0.0, d, 1.0)    # an empty term stays finite at any w
    # decreasing d, for the bounds of _bound_step
    order = np.argsort(-d, axis=-1)
    rows = np.arange(g.shape[0])[:, None]
    g, d = g[rows, order], d[rows, order]
    w = np.maximum.reduce(np.sqrt(g / target) - d, axis=-1, initial=0.0)
    evaluations = np.zeros(g.shape[0], dtype=int)
    searching = np.ones(g.shape[0], dtype=bool)
    passes = 0    # the most evaluations of any row: one still searching had all of them
    while True:
        # rows already done keep their w, so their power repeats exactly
        den = d + w[:, None]
        terms = g / (den * den)
        power = np.add.reduce(terms, axis=-1)
        evaluations += searching
        passes += 1
        searching &= power > budget
        if not np.logical_or.reduce(searching):
            return w, power, evaluations
        if passes >= SEARCH_MAX_EVALUATIONS:
            raise RuntimeError(f"power multiplier search: no feasible multiplier after "
                               f"{SEARCH_MAX_EVALUATIONS} evaluations")
        np.add(w, _bound_step(terms, den, target), out=w, where=searching)


def _bound_step(terms, den, target):
    """How far the root lies at least beyond w, from the terms t_i = g_i / den_i^2
    at a point w left of it, with den_i = d_i + w sorted in decreasing order,
    and each row's target as a column.

    Dropping the other terms and Jensen's inequality give, for any set S of
    terms and s >= 0, P(w + s) >= P_S (1 + s Q_S / P_S)^-2, where
    P_S = sum_S t_i and Q_S = sum_S t_i / den_i.  So the root lies at least
    (P_S / Q_S)(sqrt(P_S / target) - 1) beyond w.  The set of all terms
    gives Newton's step on phi; taking the best over the prefixes of the
    sorted terms also steps past a term that has a near-zero d but carries
    little power, where Newton crawls.
    """
    p_s = np.add.accumulate(terms, axis=-1)
    q_s = np.add.accumulate(terms / den, axis=-1)
    # an empty prefix has p_s = q_s = 0; flooring q_s only shortens the step
    ratio = p_s / np.maximum(q_s, _TINY)
    return np.maximum.reduce(ratio * (np.sqrt(p_s / target) - 1.0), axis=-1, initial=0.0)


# ---------------------------------------------------------------------------
# stacked block kernels
# ---------------------------------------------------------------------------


def _precoder_constants(ch: Channels, hw: HardwareProfile, nu: np.ndarray):
    """What the precoder step reads that no iterate changes: the SI penalty
    nu_g S_g of every cell, with S_g = H^H H + kappa_bs diag(H^H H) from its
    SI channel H, and the budget of every search row (each sending BS, then
    each uplink user) with its target (1 - SEARCH_REL_TOL) budget as a column."""
    budget = np.repeat([hw.p_bs_w, hw.p_ue_w], [ch.cells if ch.k_d else 0, ch.cells * ch.k_u])
    return (nu[:, None, None] * add_scaled_diag(hermitian(ch.si) @ ch.si, hw.kappa_bs), budget,
            (budget * (1.0 - SEARCH_REL_TOL))[:, None])


def _precoder_step(ch: Channels, grams, combiners, constants):
    """W = Q (D + w I)^-1 Q^H H^H U per user, with w the power multiplier and
    Q D Q^H the transmitter's quadratic-term matrix: its omega from `grams`,
    plus nu_g S_g at BS g, where S_g = H^H H + kappa diag(H^H H) is the
    distortion-aware Gram matrix of its true SI channel.  `constants` are
    _precoder_constants'.  Returns the beams and the (w, power, evaluations)
    of the search, sending BSs first."""
    omega_bs, m_ul = grams
    penalty, budget, target = constants
    cells, k_d, n_bs, k_u, n_ue = ch.cells, ch.k_d, ch.n_bs, ch.k_u, ch.n_ue
    if k_d:
        d_bs, q_bs = np.linalg.eigh(omega_bs + penalty)
        d_bs = np.maximum(d_bs, 0.0)     # PSD up to rounding
        b_dl = hermitian(q_bs)[:, None] @ (ch.dl_own_h @ combiners[0])
    if k_u:
        d_ul, q_ul = np.linalg.eigh(m_ul)
        d_ul = np.maximum(d_ul, 0.0)
        b_ul = hermitian(q_ul) @ (ch.ul_own_h @ combiners[1])
    # one search over every sending BS and uplink user, shorter rows padded with empty terms
    bs = len(budget) - cells * k_u    # the sending BSs: every cell's, or none
    g = np.zeros((len(budget), max(n_bs, n_ue)))
    d = np.zeros_like(g)
    if k_d:
        g[:bs, :n_bs], d[:bs, :n_bs] = np.add.reduce(row_powers(b_dl), axis=1), d_bs
    if k_u:
        g[bs:, :n_ue] = row_powers(b_ul).reshape(-1, n_ue)
        d[bs:, :n_ue] = d_ul.reshape(-1, n_ue)
    search = _search(g, d, budget, target)
    w_dl, w_ul = search[0][:bs], search[0][bs:].reshape(cells, k_u)

    def beam(q, b, den):
        positive = den > 0.0
        return q @ np.where(positive[..., None], b / np.where(positive, den, 1.0)[..., None], 0.0)

    # a transmitter kind without users keeps empty beams
    dl = (beam(q_bs[:, None], b_dl, (d_bs + w_dl[:, None])[:, None]) if k_d
          else np.zeros((cells, 0, n_bs, combiners[0].shape[-1]), complex))
    ul = (beam(q_ul, b_ul, d_ul + w_ul[..., None]) if k_u
          else np.zeros((cells, 0, n_ue, combiners[1].shape[-1]), complex))
    return (dl, ul), search


def _extrapolate(hw: HardwareProfile, beams, previous):
    """Trial point W + beta (W - W_prev), with beta = EXTRAPOLATION, on the
    beam pairs W = `beams` and W_prev = `previous`; a cell or uplink user
    pushed over its budget is scaled back onto it."""
    def move(w, w_prev, budget, shared):
        if not w.size:
            return w
        moved = (1.0 + EXTRAPOLATION) * w - EXTRAPOLATION * w_prev
        power = frobenius_sq(moved)
        if shared:    # a cell's users share its budget
            power = np.add.reduce(power, axis=-1, keepdims=True)
        scale = np.sqrt(budget / np.maximum(power, budget))    # 1 within the budget
        return scale[..., None, None] * moved

    return (move(beams[0], previous[0], hw.p_bs_w, True),
            move(beams[1], previous[1], hw.p_ue_w, False))


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def run(realization: Realization, config: SolverConfig, collect_metrics=None) -> RunTrace:
    """Run the alternating solver until the loss decrease falls below threshold.

    Per iteration: combiners, loss snapshot, precoders, then a safeguarded
    extrapolation (block coordinate descent with extrapolation, Xu & Yin
    2013).  The trial point _extrapolate(W*, W_prev) from the exact block
    result W* gets its own combiner update; it replaces W* only
    if its loss then lies below the iteration's snapshot by at least the
    threshold, and its combiners and report serve as the next iteration's.
    Otherwise W* is kept.  Either way the snapshot
    sequence is non-increasing, and an accepted trial never looks converged.
    The first iteration tries no trial, since its W_prev is the random
    initial point and W* - W_prev no descent direction.  Neither does the
    last (converged or at max_iterations), so the final state is always an
    exact block result.  Non-convergence within max_iterations is reported
    in the trace, not raised.

    The loop runs on the beams W of `initialize`'s state, and the final
    state holds the very beams and combiners that the final report scores.
    The covariances of a combiner update also serve the evaluation after it.
    Each iteration writes its loss, sum MSE, RSI, rate, times, multipliers,
    search evaluations and the powers of the beams it ends on into its row
    of a table of max_iterations + 1 rows, and the trace gets the rows
    used, so the last record's powers are those of the final state.  The
    records keep only what they report: no report, no search power and no
    beams.

    Rates are computed only for what is reported, and none inside the loop.
    Each record keeps the b x b objective.signal_gains (HW)^H U of its own
    combiner update, formed after its wall time is taken (record 0's from
    the MMSE solve of the initial covariances, an accepted trial's when it
    becomes the next iteration's record; a rejected trial keeps none), and
    one objective.sum_rates call over the stack of them rates every record
    after the loop, bit for bit as a call per record would, so a singular
    error matrix logs its warning once per solve.  The final report gets a
    call of its own.  collect_metrics is accepted and not read.
    """
    nu = objective.resolve_nu(realization, config.nu)
    ch, hw = realization.channels, realization.hardware
    constants = _precoder_constants(ch, hw, nu)
    start = initialize(realization)
    beams = (start.dl_beams, start.ul_beams)
    users = ch.cells * ch.k_u
    bs = len(constants[1]) - users    # the sending BSs
    links = bs if ch.m_bs else 0      # SI links: sending BSs with a receive chain
    records = np.zeros(config.max_iterations + 1, [
        ("loss", float), ("sum_mse", float), ("rsi_watts", float, (links,)), ("sum_rate", float),
        ("elapsed_ms", float), ("dl_cell_power", float, (bs,)),
        ("ul_user_power", float, (users,)), ("dl_precoder_multipliers", float, (bs,)),
        ("ul_precoder_multipliers", float, (users,)), ("multiplier_evaluations", int),
        ("combiner_ms", float), ("precoder_ms", float), ("trial_ms", float)])

    def record(t, rep, t0, beams, w, evaluations=0, block_ms=(0.0, 0.0, 0.0)):
        # a direction without users runs no power kernel and has no entry;
        # the rate reads nan until the pass after the loop
        ms = (time.perf_counter() - t0) * 1e3
        dl, ul = beams
        records[t] = (rep.loss, rep.sum_mse, rep.rsi_watts[:links], rep.sum_rate, ms,
                      np.add.reduce(frobenius_sq(dl), axis=-1) if dl.size else 0.0,
                      frobenius_sq(ul).reshape(-1) if ul.size else 0.0,
                      w[:bs], w[bs:], evaluations, *block_ms)

    t0 = time.perf_counter()
    combiners, cov, rep = objective.score(ch, hw, beams, nu,
                                          (start.dl_combiners, start.ul_combiners))
    record(0, rep, t0, beams, np.zeros(len(constants[1])))    # no search yet
    # each record's signal gains, rated in one pass after the loop
    gains = [objective.signal_gains(cov.signal, objective.mmse_combiners(cov))]

    converged = False
    accepted = None          # (beams, combiners, covariances, report) of the kept trial
    t = 0
    for t in range(1, config.max_iterations + 1):
        t0 = time.perf_counter()
        reused = accepted is not None
        combiners, cov, rep = accepted[1:] if reused else objective.score(ch, hw, beams, nu)
        accepted = None
        t1 = time.perf_counter()
        exact, search = _precoder_step(ch, covariance.transmit_grams(ch, hw, combiners),
                                       combiners, constants)
        t2 = time.perf_counter()
        converged = records[t - 1]["loss"] - rep.loss < config.threshold
        tried = not converged and 1 < t < config.max_iterations
        if tried:
            trial = _extrapolate(hw, exact, beams)
            trial_combiners, trial_cov, trial_rep = objective.score(ch, hw, trial, nu)
            if trial_rep.loss < rep.loss - config.threshold:
                accepted = (trial, trial_combiners, trial_cov, trial_rep)
        t3 = time.perf_counter()
        beams = accepted[0] if accepted else exact
        block_ms = (0.0 if reused else (t1 - t0) * 1e3, (t2 - t1) * 1e3,
                    (t3 - t2) * 1e3 if tried else 0.0)
        record(t, rep, t0, beams, search[0], search[2].sum(), block_ms)
        gains.append(objective.signal_gains(cov.signal, combiners))
        if converged:
            break

    rate_dl, rate_ul = objective.sum_rates(tuple(map(np.stack, zip(*gains))))
    records["sum_rate"][:t + 1] = np.add(rate_dl, rate_ul)

    final_report = objective.score(ch, hw, beams, nu, combiners, with_rates=True)[2]
    final_state = BeamformingState(dl_beams=beams[0], dl_combiners=combiners[0],
                                   ul_beams=beams[1], ul_combiners=combiners[1])
    return RunTrace(records=records[:t + 1].view(np.recarray), final_state=final_state.copy(),
                    final_report=final_report, converged=converged, nu=tuple(nu))
