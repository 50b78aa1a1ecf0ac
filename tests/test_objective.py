"""Penalized-MSE objective, RSI metrics, and rate reporting."""

import math
from dataclasses import fields

import numpy as np
import pytest

import helpers
from helpers import bs_node, dl_node, ul_node
from ibfdsim import jpaim, objective
from ibfdsim.model import ScenarioConfig, build_realization
from ibfdsim.objective import ASIC_DEPTH_CAP_DB, evaluate
from ibfdsim.stacked import columns


def _unpenalized(real, state):
    return evaluate(real, state, 0.0)


def test_nu_per_cell_validation():
    # nu is None, which weights each cell by its own l_g^2, or one number for
    # every cell; a sequence is refused like any other non-number
    real = helpers.with_nu(build_realization(helpers.small_config(), 0), (0.1, 0.2))
    np.testing.assert_allclose(objective.resolve_nu(real, None), [0.1, 0.2], rtol=1e-15)
    np.testing.assert_allclose(objective.resolve_nu(real, 0.5), [0.5, 0.5])
    state = helpers.random_state(real, 1)
    for bad in ((0.1, 0.2), [0.1, 0.2], np.array([0.1, 0.2]), (0.5,), "0.5"):
        with pytest.raises(ValueError, match="nu must be one number"):
            objective.resolve_nu(real, bad)
        with pytest.raises(ValueError, match="nu must be one number"):
            objective.evaluate(real, state, bad)
    with pytest.raises(ValueError):
        objective.resolve_nu(real, -1.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            objective.resolve_nu(real, bad)
        with pytest.raises(ValueError, match="finite"):
            objective.evaluate(real, state, bad)


def test_evaluate_takes_the_solver_default_nu():
    # evaluate resolves nu as the solver does, so SolverConfig's default None
    # scores a solve as the per-cell weights the solve used, here unequal
    real = helpers.with_nu(build_realization(ScenarioConfig(), 3), (2.0 ** -20, 2.0 ** -18))
    trace = jpaim.run(real, jpaim.SolverConfig())
    assert trace.nu == (2.0 ** -20, 2.0 ** -18)
    got = evaluate(real, trace.final_state, None)
    for field in fields(got):
        assert getattr(got, field.name) == getattr(trace.final_report, field.name), field.name


def test_mse_zero_combiner_equals_streams():
    real = build_realization(ScenarioConfig(), 1)
    state = helpers.random_state(real, 2)
    for cell in state.dl_combiners:
        for u in cell:
            u[:] = 0.0
    for cell in state.ul_combiners:
        for u in cell:
            u[:] = 0.0
    for g, k in helpers.dl_users(real):
        assert helpers.user_mse(real, state, "dl", k, g) == pytest.approx(2.0)
    for g, k in real.ul_users():
        assert helpers.user_mse(real, state, "ul", k, g) == pytest.approx(2.0)


def test_mse_formula_against_covariance():
    real = build_realization(helpers.small_config(), 3)
    state = helpers.random_state(real, 4)
    g, k = 1, 0
    c = helpers.state_covariances(real, state).dl_rx[g, k]
    u = state.dl_combiners[g][k]
    h = helpers.link(real, dl_node(g, k), bs_node(g)).est
    w = state.dl_beams[g][k]
    expected = (np.trace(u.conj().T @ c @ u).real
                - 2.0 * np.trace(u.conj().T @ h @ w).real
                + real.dl_streams)
    assert helpers.user_mse(real, state, "dl", k, g) == pytest.approx(expected, rel=1e-12)


def test_mse_positive_at_mmse_combiner():
    real = build_realization(helpers.small_config(), 5)
    state = helpers.refresh_combiners(real, helpers.random_state(real, 6, beam_scale=0.5))
    for g, k in helpers.dl_users(real):
        assert 0.0 < helpers.user_mse(real, state, "dl", k, g) < real.dl_streams
    for g, k in real.ul_users():
        assert 0.0 < helpers.user_mse(real, state, "ul", k, g) < real.ul_streams


def test_rsi_power_matches_tx_covariance_form():
    real = build_realization(helpers.small_config(asic_db=20.0), 7)
    state = helpers.random_state(real, 8)
    rsi = _unpenalized(real, state).rsi_watts
    for g in range(real.cell_count):
        h = helpers.link(real, bs_node(g), bs_node(g)).true
        t = helpers.tx_gram(columns(state.dl_beams[g]), real.hardware.kappa_bs)
        expected = np.trace(h @ t @ h.conj().T).real
        assert rsi[g] == pytest.approx(expected, rel=1e-11)


def test_rsi_power_ignores_combiners_and_uplink():
    real = build_realization(helpers.small_config(asic_db=10.0), 9)
    state = helpers.random_state(real, 10)
    before = _unpenalized(real, state).rsi_watts
    rng = np.random.default_rng(11)
    for cell in (*state.dl_combiners, *state.ul_combiners):
        for u in cell:
            u[:] = helpers.cn(rng, u.shape)
    for cell in state.ul_beams:
        for w in cell:
            w[:] = 0.1 * helpers.cn(rng, w.shape)
    after = _unpenalized(real, state).rsi_watts
    np.testing.assert_allclose(after, before, rtol=0.0)


def test_rsi_power_scales_with_si_gain():
    # same draws, 20 dB deeper cancellation: RSI drops by exactly 100x
    a = build_realization(ScenarioConfig(asic_db=20.0), 12)
    b = build_realization(ScenarioConfig(asic_db=40.0), 12)
    state = helpers.random_state(a, 13)
    rsi_a, rsi_b = _unpenalized(a, state).rsi_watts, _unpenalized(b, state).rsi_watts
    for g in range(a.cell_count):
        assert rsi_a[g] / rsi_b[g] == pytest.approx(100.0, rel=1e-9)


def test_asic_depth_properties():
    real = build_realization(helpers.small_config(cells=1, asic_db=0.0), 14)
    state = helpers.random_state(real, 15)
    rep = _unpenalized(real, state)
    depth = rep.asic_depth_db[0]
    t = helpers.tx_gram(columns(state.dl_beams[0]), real.hardware.kappa_bs)
    expected = 10.0 * math.log10(real.hardware.si_gain[0] * np.trace(t).real
                                 / rep.rsi_watts[0])
    assert depth == pytest.approx(expected, rel=1e-9)

    # invariant to a common scaling of the transmitted beams
    scaled = state.copy()
    scaled.dl_beams = scaled.dl_beams * 3.7
    assert _unpenalized(real, scaled).asic_depth_db[0] == pytest.approx(depth, rel=1e-9)

    # silent cell reports zero depth
    silent = state.copy()
    silent.dl_beams = silent.dl_beams * 0.0
    assert _unpenalized(real, silent).asic_depth_db[0] == 0.0


def test_asic_depth_cap_on_vanished_residual():
    real = build_realization(helpers.small_config(cells=1), 16)
    state = helpers.random_state(real, 17)

    def silence(draft):
        link = helpers.link(draft, bs_node(0), bs_node(0))
        link.true[:] = 0.0

    silent = helpers.edited(real, silence)
    assert _unpenalized(silent, state).asic_depth_db[0] == ASIC_DEPTH_CAP_DB


def test_asic_depth_cap_under_ideal_cancellation():
    # asic_db = inf leaves the analog stage no SI gain (l_g = 0) and no
    # residual: a transmitting cell reports the cap, not a silent cell's 0
    scenario = ScenarioConfig(cells=1, asic_db=math.inf, adc_bits=math.inf)
    real = build_realization(scenario, 3)
    rep = jpaim.run(real, jpaim.SolverConfig()).final_report
    assert real.hardware.si_gain == (0.0,)
    assert rep.rsi_watts == (0.0,)
    assert rep.asic_depth_db == (ASIC_DEPTH_CAP_DB,)


def test_asic_depth_cap_when_the_residual_underflows():
    # a transmitting cell so quiet that 1e-30 of l_g tr(T_g) underflows to 0,
    # with no residual left, reads the cap and divides by no zero
    assert objective._depth_db(1.0, 1e-300, 0.0) == ASIC_DEPTH_CAP_DB
    assert objective._depth_db(1.0, 1e-300, 1e-310) == pytest.approx(100.0, abs=0.01)


def test_loss_composition():
    # cell g's RSI weighs its own nu_g = l_g^2 under the default nu
    nu = (0.3, 0.7)
    real = helpers.with_nu(build_realization(helpers.small_config(asic_db=30.0), 18), nu)
    state = helpers.random_state(real, 19)
    rsi = _unpenalized(real, state).rsi_watts
    expected = sum(helpers.user_mse(real, state, "dl", k, g) for g, k in helpers.dl_users(real))
    expected += sum(helpers.user_mse(real, state, "ul", k, g) for g, k in real.ul_users())
    expected += sum(nu[g] * rsi[g] for g in range(2))
    assert evaluate(real, state, None).loss == pytest.approx(expected, rel=1e-12)


def test_rate_bits_closed_form():
    # C = Q + S with known parts: rate = log2 det(I + S Q^-1)
    rng = np.random.default_rng(20)
    q = helpers.cn(rng, (3, 3))
    q = q @ q.conj().T + np.eye(3)
    a = helpers.cn(rng, (3, 2))
    s = a @ a.conj().T
    expected = math.log2(np.linalg.det(np.eye(3) + s @ np.linalg.inv(q)).real)
    gain, = objective.signal_gains((a,), (np.linalg.solve(q + s, a),))
    assert objective._rate_bits(gain) == pytest.approx(expected, rel=1e-10)


def test_rate_bits_regularizes_singular_noise():
    # C = I and S = diag(0, 1): C - S = diag(1, 0) is exactly singular, and
    # so is the error matrix E = 1 - A^H C^-1 A = 0
    a = np.array([[0.0], [1.0]], dtype=complex)
    c = np.diag([1.0, 1.0]).astype(complex)
    out = objective._rate_bits(*objective.signal_gains((a,), (np.linalg.solve(c, a),)))
    assert np.isfinite(out) and out > 0.0


def test_sum_rates_of_a_stack_equal_each_states_own_call():
    # each entry of a stacked call carries its state's one-state rates bit
    # for bit, and a state whose error matrix is singular leaves the others'
    real = build_realization(ScenarioConfig(), 22)
    pairs = []
    for seed in (23, 24):
        cov = helpers.state_covariances(real, helpers.random_state(real, seed))
        pairs.append((cov.signal, objective.mmse_combiners(cov)))
    # the singular example of test_rate_bits_regularizes_singular_noise, as
    # the one downlink and the one uplink user of a one-cell network
    a = np.array([[[[0.0], [1.0]]]], dtype=complex)
    regular = np.array([[[[0.6], [0.0]]]], dtype=complex)
    singular = ((a, a), (a, a))
    nonsingular = ((regular, regular), (regular, regular))
    for first, second in (pairs, (nonsingular, singular)):
        gains = [objective.signal_gains(*pair) for pair in (first, second)]
        single = [objective.sum_rates(gain) for gain in gains]
        assert all(type(rate) is float for rates in single for rate in rates)
        rate_dl, rate_ul = objective.sum_rates(tuple(map(np.stack, zip(*gains))))
        assert [repr(r) for r in rate_dl] == [repr(r[0]) for r in single]
        assert [repr(r) for r in rate_ul] == [repr(r[1]) for r in single]
    assert all(np.isfinite(single[1])) and single[1][0] > 0.0


def _explicit_rate_bits(c, signal):
    """log2 det(C) - log2 det(C - A A^H) of one user, straight from the definition."""
    _, logdet_c = np.linalg.slogdet(c)
    _, logdet_q = np.linalg.slogdet(c - signal @ signal.conj().T)
    return (logdet_c - logdet_q) / math.log(2.0)


@pytest.mark.parametrize("scenario", [
    ScenarioConfig(), helpers.small_config(ul_users=3),
], ids=["default", "three_ul_users"])
def test_rates_match_explicit_log_det(scenario):
    # every downlink user, and every uplink user of a cell against the one
    # covariance of its BS
    for seed in range(3):
        real = build_realization(scenario, seed)
        state = helpers.random_state(real, 30 + seed)
        cov = helpers.state_covariances(real, state)
        gains = objective.signal_gains(cov.signal, objective.mmse_combiners(cov))
        bits_dl, bits_ul = map(objective._rate_bits, gains)
        w_dl, w_ul = state.dl_beams, state.ul_beams
        for g, k in helpers.dl_users(real):
            h = helpers.link(real, dl_node(g, k), bs_node(g)).est
            expected = _explicit_rate_bits(cov.dl_rx[g, k], h @ w_dl[g, k])
            assert bits_dl[g, k] == pytest.approx(expected, rel=1e-9), (seed, g, k)
        for g, k in real.ul_users():
            h = helpers.link(real, bs_node(g), ul_node(g, k)).est
            expected = _explicit_rate_bits(cov.bs_rx[g], h @ w_ul[g, k])
            assert bits_ul[g, k] == pytest.approx(expected, rel=1e-9), (seed, g, k)
        rep = evaluate(real, state, 0.0)
        assert rep.sum_rate_dl == pytest.approx(float(bits_dl.sum()), rel=1e-12)
        assert rep.sum_rate_ul == pytest.approx(float(bits_ul.sum()), rel=1e-12)


def test_evaluate_consistency():
    real = build_realization(helpers.small_config(asic_db=30.0), 21)
    state = helpers.solved_state(real, iterations=2)
    nu = 0.5
    rep = evaluate(real, state, nu)
    # the solver's loop scores without rates: the same loss, and nan rates
    lean = objective.score(real.channels, real.hardware, (state.dl_beams, state.ul_beams),
                           objective.resolve_nu(real, nu),
                           (state.dl_combiners, state.ul_combiners))[2]
    assert rep.sum_mse == pytest.approx(rep.sum_mse_dl + rep.sum_mse_ul, rel=1e-12)
    assert rep.sum_rate == pytest.approx(rep.sum_rate_dl + rep.sum_rate_ul, rel=1e-12)
    unpenalized = _unpenalized(real, state)
    np.testing.assert_allclose(rep.rsi_watts, unpenalized.rsi_watts, rtol=1e-12)
    np.testing.assert_allclose(rep.asic_depth_db, unpenalized.asic_depth_db, rtol=1e-9)

    assert lean.loss == rep.loss
    assert math.isnan(lean.sum_rate)


def test_rates_positive_on_solved_state():
    real = build_realization(ScenarioConfig(), 22)
    state = helpers.solved_state(real, iterations=5)
    rep = evaluate(real, state, nu=1e-24)
    assert rep.sum_rate_dl > 0.0
    assert rep.sum_rate_ul > 0.0
