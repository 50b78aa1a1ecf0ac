"""Shared test utilities: small scenarios, random states, and independent oracles.

The Monte-Carlo estimator here simulates the physical signal chain (symbols,
transmit distortion, channel-estimate errors, noise, receive distortion)
without touching the analytic covariance code, so it can serve as an
independent oracle for it.
"""

import math
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np

import regimes
from ibfdsim import covariance, harness, jpaim, objective
from ibfdsim.model import Realization, ScenarioConfig, build_realization
from ibfdsim.stacked import (BeamformingState, add_scaled_diag, columns, hermitian, row_powers,
                             uncolumns)


def cn(rng, shape):
    """i.i.d. circularly symmetric complex normal draws, unit variance."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)


def small_config(**overrides) -> ScenarioConfig:
    """A desk-scale scenario used where antenna counts do not matter."""
    return ScenarioConfig(**{**regimes.SMALL, **overrides})


def regime_configs() -> list:
    """(ScenarioConfig, SolverConfig) of every regime of regimes.settings(),
    in sweep order, parsed as a campaign parses its config file."""
    parsed = [harness.parse_config("".join(f"{key} = {value}\n" for key, value in regime))
              for regime in regimes.settings()]
    return [(config.scenario, config.solver) for config in parsed]


# node keys: ("bs", g), ("dl", g, k), ("ul", g, k)
def bs_node(g: int) -> tuple:
    return ("bs", g)


def dl_node(g: int, k: int) -> tuple:
    return ("dl", g, k)


def ul_node(g: int, k: int) -> tuple:
    return ("ul", g, k)


def dl_users(realization: Realization):
    """(g, k) of every downlink user, cell by cell."""
    return np.ndindex(realization.channels.cells, realization.channels.k_d)


def losses(trace: jpaim.RunTrace) -> np.ndarray:
    """The loss of every record of a solve, the initial state's first."""
    return trace.records.loss


def link(realization: Realization, rx: tuple, tx: tuple) -> SimpleNamespace:
    """The link rx <- tx as views of the realization's stored arrays: `est`
    and `true` are its blocks of x and x_true (the SI link's truth is its
    estimate), `err_var` its 0-d entry of err.  They are read-only, except
    on the draft that `edited` hands its edit.  Raises KeyError for a node
    outside the topology."""
    ch = realization.channels
    r, rows = _side((("dl", ch.k_d, ch.m_ue), ("bs", 1, ch.m_bs)), ch.cells)[rx]
    t, cols = _side((("bs", 1, ch.n_bs), ("ul", ch.k_u, ch.n_ue)), ch.cells)[tx]
    est = ch.x[rows, cols]
    return SimpleNamespace(true=est if rx == tx else ch.x_true[rows, cols], est=est,
                           err_var=ch.err[r, t, ...])


def _side(kinds, cells: int) -> dict:
    """{node: (entry, antenna slice)} of one side of X, whose node kinds
    `kinds` lists in order as (kind, nodes per cell, antennas per node)."""
    nodes = [(bs_node(g) if kind == "bs" else (kind, g, k), antennas)
             for kind, per_cell, antennas in kinds for g in range(cells) for k in range(per_cell)]
    first = np.cumsum([0] + [antennas for _, antennas in nodes])
    return {node: (n, slice(first[n], first[n + 1])) for n, (node, _) in enumerate(nodes)}


def edited(realization: Realization, edit) -> Realization:
    """`realization` with its links edited: `edit(draft)` edits in place,
    through `link(draft, ...)` or whole, the stored arrays of a draft whose
    channels hold writable copies of them, and the copies then replace them.
    A realization never changes, so this is how a test edits a link."""
    ch = realization.channels
    arrays = {name: getattr(ch, name).copy() for name in ("x", "x_true", "err")}
    sizes = {f.name: getattr(ch, f.name) for f in fields(ch) if f.type == "int"}
    edit(replace(realization, channels=SimpleNamespace(**sizes, **arrays)))
    return replace(realization, channels=replace(ch, **arrays))


def links(realization: Realization) -> list:
    """Every (receiver, transmitter) node pair of a realization, sorted by key."""
    bs = [bs_node(g) for g in range(realization.cell_count)]
    return sorted((rx, tx) for rx in bs + [dl_node(g, k) for g, k in dl_users(realization)]
                  for tx in bs + [ul_node(g, k) for g, k in realization.ul_users()])


def random_small_realization(rng, **overrides) -> Realization:
    """Random small instance: sizes, SI gain, and seed drawn from `rng`."""
    cfg = small_config(
        cells=int(rng.integers(1, 3)),
        dl_users=int(rng.integers(1, 3)),
        ul_users=int(rng.integers(1, 3)),
        asic_db=float(rng.choice([0.0, 40.0, 120.0])),
        **overrides,
    )
    return build_realization(cfg, int(rng.integers(0, 2 ** 31)))


def with_nu(realization: Realization, nu) -> Realization:
    """The realization with SI gains l_g = sqrt(nu_g), so that the solver's
    default nu=None weights cell g's RSI by nu_g; the channels stay as drawn."""
    gains = tuple(math.sqrt(v) for v in nu)
    return replace(realization, hardware=replace(realization.hardware, si_gain=gains))


def random_state(realization: Realization, seed: int, beam_scale=1.0) -> BeamformingState:
    """Arbitrary dense state (nonzero combiners) for algebraic identity tests.

    Each beam is a random matrix times a random per-user amplitude up to
    beam_scale times the one that splits the power budget evenly."""
    rng = np.random.default_rng(seed)
    ch, hw = realization.channels, realization.hardware
    k_d, k_u, b_d, b_u = ch.k_d, ch.k_u, realization.dl_streams, realization.ul_streams

    def block(rows, cols, count):
        return np.array([cn(rng, (rows, cols)) for _ in range(count)],
                        dtype=complex).reshape(count, rows, cols)

    def amplitudes(budget, count):
        return (beam_scale * budget * rng.uniform(0.3, 1.0, size=count))[:, None, None]

    dl_beams, dl_comb, ul_beams, ul_comb = [], [], [], []
    for g in range(ch.cells):
        dl_pre = block(ch.n_bs, b_d, k_d)
        dl_comb.append(block(ch.m_ue, b_d, k_d))
        dl_beams.append(amplitudes(math.sqrt(hw.p_bs_w / max(b_d * k_d, 1)), k_d) * dl_pre)
        ul_pre = block(ch.n_ue, b_u, k_u)
        ul_comb.append(block(ch.m_bs, b_u, k_u))
        ul_beams.append(amplitudes(math.sqrt(hw.p_ue_w / b_u), k_u) * ul_pre)
    return BeamformingState(*map(np.stack, (dl_beams, dl_comb, ul_beams, ul_comb)))


def solved_state(realization: Realization, iterations=3, nu=None) -> BeamformingState:
    """State after a few solver iterations: realistic scales, nonzero combiners."""
    cfg = jpaim.SolverConfig(nu=nu, max_iterations=iterations, threshold=1e-3)
    return jpaim.run(realization, cfg).final_state


def best_asic_depth_db(realization: Realization, g: int) -> float:
    """The deepest cancellation any precoder of BS g can reach, in dB.

    From the SI link alone: with S = H^H H + kappa diag(H^H H) the
    distortion-aware SI Gram matrix, any beams W give the RSI
    tr(W^H S W) >= lambda_min(S) ||W||_F^2 and the transmit power
    tr(T) = (1 + kappa) ||W||_F^2, so the depth 10 log10(l tr(T) / rsi) is at
    most 10 log10(l (1 + kappa) / lambda_min(S)): all power on the weakest
    eigen-direction of S.
    """
    h = link(realization, bs_node(g), bs_node(g)).true
    kappa = realization.hardware.kappa_bs
    gram = h.conj().T @ h
    weakest = np.linalg.eigvalsh(gram + kappa * np.diag(np.diag(gram)))[0]
    return 10.0 * math.log10(realization.hardware.si_gain[g] * (1.0 + kappa) / weakest)


# ---------------------------------------------------------------------------
# per-node reference forms for the stacked kernels
# ---------------------------------------------------------------------------


def tx_gram(beams: np.ndarray, kappa: float) -> np.ndarray:
    """Transmit covariance W W^H + kappa diag(W W^H) of beamformers W."""
    return add_scaled_diag(beams @ hermitian(beams), kappa)


def f1(y: np.ndarray, x: np.ndarray, sigma_t: float, sigma_r: float) -> np.ndarray:
    """Matrix form Y X X^H Y^H with transmit/receive distortion diagonals:
    sigma_t is the distortion factor of the node transmitting through the
    channel inside Y, sigma_r that of the receiving node represented by X."""
    yx = y @ x
    return covariance.distortion_gram(yx, hermitian(yx), y, hermitian(y), sigma_r * row_powers(x),
                                      sigma_t, np.zeros(yx.shape[:-2]))


def state_covariances(realization: Realization,
                      state: BeamformingState) -> covariance.Covariances:
    """The covariances of the beams of `state` on the channels of `realization`."""
    return covariance.covariances(realization.channels, realization.hardware,
                                  (state.dl_beams, state.ul_beams))


def user_mse(realization: Realization, state: BeamformingState, direction: str,
             k: int, g: int) -> float:
    """Stream-recovery MSE of user (k, g) of `direction` ("dl" or "ul") under
    its current combiner; an uplink user is decoded at BS g."""
    cov = state_covariances(realization, state)
    if direction == "dl":
        args = cov.dl_rx[g, k], cov.signal[0][g, k], state.dl_combiners[g, k]
    else:
        args = cov.bs_rx[g], cov.signal[1][g, k], state.ul_combiners[g, k]
    return float(objective._mse(*args))


# ---------------------------------------------------------------------------
# the solver's blocks on a BeamformingState, through the kernels `run` calls
# ---------------------------------------------------------------------------


def refresh_combiners(realization: Realization, state: BeamformingState) -> BeamformingState:
    """`state` with the MMSE combiners U = C^-1 H W of its beams, every array
    a C-contiguous copy."""
    dl, ul = objective.mmse_combiners(state_covariances(realization, state))
    return replace(state, dl_combiners=dl, ul_combiners=ul).copy()


def precoder_step(realization: Realization, state: BeamformingState,
                  config: jpaim.SolverConfig):
    """One precoder step from the combiners of `state`: the penalized-MSE-optimal
    beams under the power budgets, with the constants `run` forms per solve.

    Returns (new state, multipliers, scalar powers, evaluations), the last
    three (downlink, uplink) pairs with the uplink flattened over (cell,
    user): each search's multiplier, its power from the eigen-domain
    expression, and its number of power evaluations.  The downlink holds one
    entry per BS that sends, so none without downlink users.  The new
    state's arrays are C-contiguous copies.
    """
    ch, hw = realization.channels, realization.hardware
    combiners = (state.dl_combiners, state.ul_combiners)
    constants = jpaim._precoder_constants(ch, hw, objective.resolve_nu(realization, config.nu))
    beams, search = jpaim._precoder_step(ch, covariance.transmit_grams(ch, hw, combiners),
                                         combiners, constants)
    bs = len(constants[1]) - ch.cells * ch.k_u    # the sending BSs
    new = replace(state, dl_beams=beams[0], ul_beams=beams[1]).copy()
    return (new, *((a[:bs], a[bs:]) for a in search))


def secular_multiplier(g, d, budget):
    """The multiplier search on rows of any shape: jpaim._search with g and d
    of shape (..., n), a budget that broadcasts to the rows (...), and the
    target budget (1 - jpaim.SEARCH_REL_TOL).  Returns (w, P(w), evaluations),
    each with the rows' shape."""
    g = np.asarray(g, dtype=float)
    shape = g.shape[:-1]
    g = g.reshape(math.prod(shape), g.shape[-1])
    budget = np.broadcast_to(np.asarray(budget, dtype=float), shape).reshape(-1)
    w, power, evaluations = jpaim._search(g, np.reshape(d, g.shape), budget,
                                          (budget * (1.0 - jpaim.SEARCH_REL_TOL))[:, None])
    return w.reshape(shape), power.reshape(shape), evaluations.reshape(shape)


# ---------------------------------------------------------------------------
# Monte-Carlo oracle for receive covariances and stream MSEs
# ---------------------------------------------------------------------------


def mc_estimates(realization: Realization, state: BeamformingState, draws: int, seed: int):
    """Sample receive covariances and MSEs from the simulated signal chain.

    Per draw: unit-power symbols, transmit distortion with per-antenna variance
    kappa * diag of the undistorted transmit covariance, true channels redrawn
    as estimate + error at the stored per-element error variance, thermal
    noise, and receive distortion whose per-antenna variance is beta times the
    empirical undistorted receive power.  Returns ({node: C_hat}, {user: mse}).
    """
    rng = np.random.default_rng(seed)
    hw, ch = realization.hardware, realization.channels

    tx, sym = {}, {}
    for g in range(realization.cell_count):
        x = np.zeros((draws, ch.n_bs), dtype=complex)
        dvar = np.zeros(ch.n_bs)
        for k in range(ch.k_d):
            w = state.dl_beams[g][k]
            s = cn(rng, (draws, w.shape[1]))
            sym[("dl", g, k)] = s
            x += s @ w.T
            dvar += np.sum(np.abs(w) ** 2, axis=1)
        x += cn(rng, (draws, ch.n_bs)) * np.sqrt(hw.kappa_bs * dvar)
        tx[bs_node(g)] = x
    for g, k in realization.ul_users():
        w = state.ul_beams[g][k]
        s = cn(rng, (draws, w.shape[1]))
        sym[("ul", g, k)] = s
        x = s @ w.T
        dvar = hw.kappa_ue * np.sum(np.abs(w) ** 2, axis=1)
        tx[ul_node(g, k)] = x + cn(rng, (draws, w.shape[0])) * np.sqrt(dvar)

    def receive(rx, rows, beta, noise_w):
        y = cn(rng, (draws, rows)) * math.sqrt(noise_w)
        for r, t in links(realization):
            if r != rx:
                continue
            view = link(realization, r, t)
            y = y + tx[t] @ view.est.T
            if view.err_var > 0.0:
                delta = cn(rng, (draws,) + view.est.shape) * math.sqrt(view.err_var)
                y = y + np.einsum("dij,dj->di", delta, tx[t])
        dvar = beta * np.mean(np.abs(y) ** 2, axis=0)
        return y + cn(rng, (draws, rows)) * np.sqrt(dvar)

    cov, mse = {}, {}
    for g, k in dl_users(realization):
        y = receive(dl_node(g, k), ch.m_ue, hw.beta_ue, hw.noise_ue_w)
        cov[dl_node(g, k)] = np.einsum("di,dj->ij", y, y.conj()) / draws
        err = y @ state.dl_combiners[g][k].conj() - sym[("dl", g, k)]
        mse[("dl", g, k)] = float(np.mean(np.sum(np.abs(err) ** 2, axis=1)))
    for g in range(realization.cell_count):
        y = receive(bs_node(g), ch.m_bs, hw.beta_bs, hw.noise_bs_w)
        cov[bs_node(g)] = np.einsum("di,dj->ij", y, y.conj()) / draws
        for k in range(ch.k_u):
            err = y @ state.ul_combiners[g][k].conj() - sym[("ul", g, k)]
            mse[("ul", g, k)] = float(np.mean(np.sum(np.abs(err) ** 2, axis=1)))
    return cov, mse


# ---------------------------------------------------------------------------
# finite-difference stationarity of the block updates
# ---------------------------------------------------------------------------


def _fd_ratio(fun, mats):
    """Central-difference gradient of `fun` over the real/imag parts of `mats`,
    reported as ||grad|| * ||block|| / |fun| (dimensionless).

    Each block Lagrangian is a quadratic polynomial in its variables, so the
    central difference has no truncation error at any step size and the step
    only needs to beat the roundoff floor of evaluating the loss (which on
    SI-dominated instances is assembled from large canceling terms).  A
    generous step tied to the block-wide scale keeps the difference well
    above that floor; a per-matrix step would shrink to nothing on a nearly
    zero user's matrix and report pure cancellation noise."""
    block_norm = math.sqrt(sum(float(np.sum(np.abs(m) ** 2)) for m in mats))
    sizes = sum(m.size for m in mats)
    block_rms = block_norm / math.sqrt(sizes) if sizes else 0.0
    base = abs(fun())
    grad_sq = 0.0
    for m in mats:
        rms = float(np.sqrt(np.mean(np.abs(m) ** 2)))
        h = 1e-3 * max(rms, block_rms, 1e-9)
        flat = m.reshape(-1)
        # a copy (reshape of a non-contiguous view) would never reach the loss
        assert np.shares_memory(flat, m), "perturbed block is a copy of the state"
        for i in range(flat.size):
            for step in (h, 1j * h) if np.iscomplexobj(m) else (h,):
                orig = flat[i]
                flat[i] = orig + step
                up = fun()
                flat[i] = orig - step
                down = fun()
                flat[i] = orig
                grad_sq += ((up - down) / (2.0 * h)) ** 2
    return math.sqrt(grad_sq) * block_norm / max(base, 1e-30)


def combiner_stationarity(realization, state, nu) -> float:
    mats = [u for cell in state.dl_combiners for u in cell]
    mats += [u for cell in state.ul_combiners for u in cell]
    return _fd_ratio(lambda: objective.evaluate(realization, state, nu).loss, mats)


def _precoder_lagrangian(realization, state, nu, multipliers) -> float:
    """The penalized loss (sum MSE plus the nu-weighted RSI) with the power
    budgets' (downlink, uplink) multipliers of precoder_step."""
    hw = realization.hardware
    val = objective.evaluate(realization, state, nu).loss
    for g, w in enumerate(multipliers[0]):    # the sending BSs
        val += w * (state.dl_cell_power(g) - hw.p_bs_w)
    for i, (g, k) in enumerate(realization.ul_users()):
        val += multipliers[1][i] * (state.ul_power(g, k) - hw.p_ue_w)
    return val


def precoder_stationarity(realization, state, nu, multipliers) -> float:
    mats = [w for cell in state.dl_beams for w in cell]
    mats += [w for cell in state.ul_beams for w in cell]
    return _fd_ratio(lambda: _precoder_lagrangian(realization, state, nu, multipliers), mats)


def beam_scale_stationarity(realization, state, nu, multipliers) -> float:
    """The precoder step's Lagrangian differentiated in one real scale s per
    user, W -> s W, at s = 1: the derivative in the paper's power amplitude
    of that user, times the amplitude."""
    scales = (np.ones(state.dl_beams.shape[:2]), np.ones(state.ul_beams.shape[:2]))

    def lagrangian():
        scaled = BeamformingState(scales[0][..., None, None] * state.dl_beams,
                                  state.dl_combiners,
                                  scales[1][..., None, None] * state.ul_beams,
                                  state.ul_combiners)
        return _precoder_lagrangian(realization, scaled, nu, multipliers)

    return _fd_ratio(lagrangian, scales)


def _per_call_gram(yx, y, weights, sigma):
    """distortion_gram with Y^H conjugated on every call and its diagonal
    scaled through einsum."""
    total = yx @ hermitian(yx) + (y * weights) @ hermitian(y)
    np.einsum("...ii->...i", total)[...] *= 1.0 + np.asarray(sigma)[..., None]
    return total


def per_call_covariances(ch, hw, beams) -> covariance.Covariances:
    """covariance.covariances as written before the channels stored X^H: each
    call conjugates the rows of X it needs.  An oracle for the stored form,
    which must give the same bits."""
    cells, k_d, _, b_d = beams[0].shape
    k_u, n_ue, b_u = beams[1].shape[1:]
    w_bs = columns(beams[0])
    w_ul = beams[1].reshape(cells * k_u, n_ue, b_u)
    cell_load, ul_load = row_powers(w_bs), row_powers(w_ul)
    weights = np.concatenate([hw.kappa_bs * cell_load, hw.kappa_ue * ul_load], axis=None)
    cell_power = (1.0 + hw.kappa_bs) * cell_load.sum(axis=-1)
    csi = ch.err @ np.concatenate([cell_power, (1.0 + hw.kappa_ue) * ul_load.sum(axis=-1)])
    received = np.concatenate([columns(ch.from_bs @ w_bs), columns(ch.from_ul @ w_ul)],
                              axis=-1)
    m_ue, m_bs, width = ch.dl.shape[2], ch.bs.shape[1], received.shape[1]
    r_dl = received[:cells * k_d * m_ue].reshape(cells, k_d, m_ue, width)
    r_bs = received[cells * k_d * m_ue:].reshape(cells, m_bs, width)
    dl_rx = _per_call_gram(r_dl, ch.dl, weights, hw.beta_ue)
    bs_rx = _per_call_gram(r_bs, ch.bs, weights, hw.beta_bs)
    for rx, floor in ((dl_rx, hw.noise_ue_w + csi[:cells * k_d].reshape(cells, k_d)),
                      (bs_rx, hw.noise_bs_w + csi[cells * k_d:])):
        np.einsum("...ii->...i", rx)[...] += floor[..., None]
    diag, users, dl_cols = np.arange(cells), np.arange(k_d), cells * k_d * b_d
    signal_dl = r_dl[..., :dl_cols].reshape(cells, k_d, m_ue, cells, k_d, b_d)[
        diag[:, None], users, :, diag[:, None], users]
    si_signal = r_bs[..., :dl_cols].reshape(cells, m_bs, cells, k_d * b_d)[diag, :, diag]
    signal_ul = r_bs[..., dl_cols:].reshape(cells, m_bs, cells, k_u * b_u)[diag, :, diag]
    return covariance.Covariances(dl_rx=dl_rx, bs_rx=bs_rx,
                                  signal=(signal_dl, uncolumns(signal_ul, b_u)),
                                  si_signal=si_signal, cell_load=cell_load,
                                  cell_power=cell_power)


def per_call_transmit_grams(ch, hw, combiners):
    """covariance.transmit_grams as written before the channels stored X^H:
    each call forms the weighted X_t^T and conjugates it in place."""
    u_dl, u_ul = combiners
    cells, k_d, m_ue, b_d = u_dl.shape
    k_u, m_bs, b_u = u_ul.shape[1:]
    dl_rows = cells * k_d * m_ue
    bs_u = columns(u_ul)
    dl_uh, bs_uh = hermitian(u_dl.reshape(cells * k_d, m_ue, b_d)), hermitian(bs_u)
    powers = row_powers(u_dl), row_powers(bs_u)
    weights = np.concatenate([hw.beta_ue * powers[0], hw.beta_bs * powers[1]], axis=None)
    # each transmitter's CSI-error floor: sum_r err[r, t] ||U_r||_F^2
    csi = np.concatenate([power.sum(axis=-1) for power in powers], axis=None) @ ch.err

    def summed_f1(x, kappa, floor):
        count, _, n = x.shape
        z = np.concatenate(
            [(dl_uh @ x[:, :dl_rows].reshape(count, cells * k_d, m_ue, n)).reshape(
                count, cells * k_d * b_d, n),
             (bs_uh @ x[:, dl_rows:].reshape(count, cells, m_bs, n)).reshape(
                count, cells * k_u * b_u, n)], axis=1)
        weighted = np.swapaxes(x, -1, -2) * weights
        total = hermitian(z) @ z + np.conjugate(weighted, out=weighted) @ x
        np.einsum("...ii->...i", total)[...] *= 1.0 + kappa
        np.einsum("...ii->...i", total)[...] += ((1.0 + kappa) * floor)[:, None]
        return total

    omega_ul = summed_f1(ch.from_ul, hw.kappa_ue, csi[cells:])
    return (summed_f1(ch.from_bs, hw.kappa_bs, csi[:cells]),
            omega_ul.reshape(cells, k_u, *omega_ul.shape[-2:]))
