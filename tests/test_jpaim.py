"""Alternating solver: initialization, block updates, and the full loop."""

import math

import numpy as np
import pytest

import helpers
from ibfdsim import covariance, jpaim, objective
from ibfdsim.jpaim import SolverConfig, initialize, resolve_nu, run, update_combiners
from ibfdsim.model import ScenarioConfig, bs_node, build_realization, dl_node, ul_node


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(threshold=0.0)
    with pytest.raises(ValueError):
        SolverConfig(threshold=1e-2)
    with pytest.raises(ValueError):
        SolverConfig(max_iterations=-1)
    with pytest.raises(ValueError):
        SolverConfig(bisection_rel_tol=1e-5)
    with pytest.raises(ValueError):
        SolverConfig(bisection_max_steps=0)
    SolverConfig(nu=(1.0, 2.0))


def test_resolve_nu_default_tracks_si_gain():
    real = build_realization(ScenarioConfig(asic_db=30.0), 0)
    np.testing.assert_allclose(resolve_nu(real, SolverConfig()), [1e-6, 1e-6],
                               rtol=1e-12)
    np.testing.assert_allclose(resolve_nu(real, SolverConfig(nu=0.5)), [0.5, 0.5])
    np.testing.assert_allclose(resolve_nu(real, SolverConfig(nu=(0.1, 0.2))),
                               [0.1, 0.2])
    # default matches the dB rule at every depth
    for l_db in (0.0, 30.0, 120.0):
        real = build_realization(ScenarioConfig(asic_db=l_db, cells=1), 0)
        assert resolve_nu(real, SolverConfig())[0] == pytest.approx(
            objective.nu_from_asic(l_db), rel=1e-9)


def test_initialize_meets_budgets_exactly():
    real = build_realization(ScenarioConfig(), 7)
    state = initialize(real, SolverConfig())
    hw = real.hardware
    assert state.dl_coefficients[0][0] == pytest.approx(0.2505936168136361, rel=1e-13)
    for g in range(real.cell_count):
        assert state.dl_cell_power(g) == pytest.approx(hw.p_bs_w, rel=1e-12)
    for g, k in real.ul_users():
        assert state.ul_power(g, k) == pytest.approx(hw.p_ue_w, rel=1e-12)
    for cell in state.dl_combiners + state.ul_combiners:
        for u in cell:
            assert np.all(u == 0.0)
    for cell in state.dl_precoders + state.ul_precoders:
        for v in cell:
            np.testing.assert_allclose(np.linalg.norm(v, axis=0), 1.0, rtol=1e-12)


def test_initialize_deterministic_and_seeded():
    real = build_realization(ScenarioConfig(), 7)
    a = initialize(real, SolverConfig())
    b = initialize(real, SolverConfig())
    np.testing.assert_array_equal(a.dl_precoders[0][0], b.dl_precoders[0][0])
    c = initialize(real, SolverConfig(init_seed=1))
    assert not np.allclose(a.dl_precoders[0][0], c.dl_precoders[0][0])
    rng = np.random.default_rng(99)
    d = initialize(real, SolverConfig(), rng=rng)
    assert not np.allclose(a.dl_precoders[0][0], d.dl_precoders[0][0])


def test_update_combiners_solves_mmse_system():
    real = build_realization(helpers.small_config(), 1)
    state = update_combiners(real, helpers.random_state(real, 2, coef_scale=0.7))
    for g, k in real.dl_users():
        c = covariance.rx_covariance_dl(real, state, k, g)
        rhs = (state.dl_coefficients[g][k]
               * real.channels.est(dl_node(g, k), bs_node(g)) @ state.dl_precoders[g][k])
        np.testing.assert_allclose(c @ state.dl_combiners[g][k], rhs, rtol=1e-9)
    for g, k in real.ul_users():
        c = covariance.rx_covariance_ul(real, state, g)
        rhs = (state.ul_coefficients[g][k]
               * real.channels.est(bs_node(g), ul_node(g, k)) @ state.ul_precoders[g][k])
        np.testing.assert_allclose(c @ state.ul_combiners[g][k], rhs, rtol=1e-9)


def test_update_combiners_never_increases_loss():
    rng = np.random.default_rng(3)
    for _ in range(5):
        real = helpers.random_small_realization(rng)
        nu = resolve_nu(real, SolverConfig())
        state = helpers.solved_state(real, iterations=1)
        before = objective.loss(real, state, nu)
        after = objective.loss(real, update_combiners(real, state), nu)
        assert after <= before * (1.0 + 1e-12)


def test_update_precoders_respects_budgets():
    rng = np.random.default_rng(4)
    for _ in range(5):
        real = helpers.random_small_realization(rng)
        cfg = SolverConfig()
        state = update_combiners(real, initialize(real, cfg))
        pre = jpaim.update_precoders(real, state, cfg)
        hw = real.hardware
        for g in range(real.cell_count):
            assert pre.dl_matrix_power[g] <= hw.p_bs_w * (1.0 + 1e-7)
            assert pre.dl_multipliers[g] >= 0.0
        for i, (g, k) in enumerate(real.ul_users()):
            assert pre.ul_matrix_power[i] <= hw.p_ue_w * (1.0 + 1e-7)
            assert pre.ul_multipliers[i] >= 0.0


def test_update_precoders_scalar_matches_matrix_power():
    rng = np.random.default_rng(5)
    for _ in range(10):
        real = helpers.random_small_realization(rng)
        cfg = SolverConfig()
        state = update_combiners(real, initialize(real, cfg))
        pre = jpaim.update_precoders(real, state, cfg)
        for a, b in zip(pre.dl_scalar_power, pre.dl_matrix_power):
            assert a == pytest.approx(b, rel=1e-10, abs=1e-30)
        for a, b in zip(pre.ul_scalar_power, pre.ul_matrix_power):
            assert a == pytest.approx(b, rel=1e-10, abs=1e-30)


def test_update_precoders_stationary_for_its_lagrangian():
    real = build_realization(helpers.small_config(), 6)
    cfg = SolverConfig()
    nu = resolve_nu(real, cfg)
    state = helpers.solved_state(real, iterations=2)
    state = update_combiners(real, state)
    pre = jpaim.update_precoders(real, state, cfg)
    assert helpers.precoder_stationarity(real, pre.state, nu, pre) < 1e-5


def test_update_precoders_keeps_a_silenced_cell_silent():
    real = build_realization(ScenarioConfig(), 16)
    cfg = SolverConfig()
    state = update_combiners(real, initialize(real, cfg))
    state.dl_coefficients[0][:] = 0.0
    pre = jpaim.update_precoders(real, state, cfg)
    assert pre.dl_multipliers[0] == 0.0
    assert pre.dl_scalar_power[0] == pre.dl_matrix_power[0] == 0.0
    np.testing.assert_array_equal(pre.state.dl_precoders[0][0], state.dl_precoders[0][0])


def test_update_power_coefficients_feasible_and_slack():
    rng = np.random.default_rng(7)
    for _ in range(5):
        real = helpers.random_small_realization(rng)
        cfg = SolverConfig()
        state = update_combiners(real, initialize(real, cfg))
        state = jpaim.update_precoders(real, state, cfg).state
        pw = jpaim.update_power_coefficients(real, state, cfg)
        hw = real.hardware
        for g in range(real.cell_count):
            power = pw.state.dl_cell_power(g)
            assert power <= hw.p_bs_w * (1.0 + 1e-6)
            if pw.dl_multipliers[g] > 0.0:
                assert power == pytest.approx(hw.p_bs_w, rel=1e-6)
        for i, (g, k) in enumerate(real.ul_users()):
            power = pw.state.ul_power(g, k)
            assert power <= hw.p_ue_w * (1.0 + 1e-6)
            if pw.ul_multipliers[i] > 0.0:
                assert power == pytest.approx(hw.p_ue_w, rel=1e-6)
        assert all(a >= 0.0 for cell in pw.state.dl_coefficients for a in cell)


def test_extrapolate_moves_beamformers_within_budgets():
    real = build_realization(ScenarioConfig(), 15)
    cfg = SolverConfig()
    hw = real.hardware
    previous = update_combiners(real, initialize(real, cfg))
    state = jpaim.update_precoders(real, previous, cfg).state
    assert jpaim.extrapolate(real, state, previous, 0.0).dl_precoders[0][0] == \
        pytest.approx(state.dl_precoders[0][0], rel=1e-15)
    trial = jpaim.extrapolate(real, state, previous, 4.0)
    for g in range(real.cell_count):
        assert trial.dl_cell_power(g) <= hw.p_bs_w * (1.0 + 1e-12)
    for g, k in real.ul_users():
        assert trial.ul_power(g, k) <= hw.p_ue_w * (1.0 + 1e-12)
        np.testing.assert_array_equal(trial.ul_coefficients[g], state.ul_coefficients[g])
    # inside the budget the move is exactly W + 4 (W - W_prev) per user
    w = state.ul_coefficients[0][0] * state.ul_precoders[0][0]
    w_prev = previous.ul_coefficients[0][0] * previous.ul_precoders[0][0]
    moved = 5.0 * w - 4.0 * w_prev
    scale = min(1.0, math.sqrt(hw.p_ue_w) / np.linalg.norm(moved))
    np.testing.assert_allclose(trial.ul_coefficients[0][0] * trial.ul_precoders[0][0],
                               scale * moved, rtol=1e-12)


def test_run_monotone_and_recorded():
    real = build_realization(helpers.small_config(), 8)
    cfg = SolverConfig(max_iterations=30)
    trace = run(real, cfg)
    losses = trace.losses
    assert len(trace.records) == trace.iterations + 1
    assert np.all(np.diff(losses) <= 1e-8 * np.maximum(np.abs(losses[:-1]), 1.0))
    # initial loss: zero combiners leave exactly one unit of MSE per stream
    streams = sum(real.topology.dl_counts) + sum(real.topology.ul_counts)
    assert losses[0] == pytest.approx(streams, rel=1e-6)
    rec = trace.records[-1]
    assert len(rec.dl_cell_power) == real.cell_count
    assert len(rec.ul_user_power) == len(list(real.ul_users()))
    assert len(rec.dl_precoder_multipliers) == real.cell_count
    assert trace.nu == tuple(resolve_nu(real, cfg))
    assert trace.final_report.loss == pytest.approx(losses[-1], abs=2e-4)


def test_run_monotone_under_heavy_rsi_penalty():
    # unit SI gain with nu = 1 makes the RSI term dominate the loss; every
    # block, the power step included, must still minimize the penalized loss,
    # so the tracked loss stays within criterion 1's slack on every seed
    cfg = SolverConfig(nu=1.0)
    for seed in range(20):
        trace = run(build_realization(ScenarioConfig(asic_db=0.0), seed), cfg,
                    collect_metrics=False)
        losses = trace.losses
        slack = 1e-8 * np.maximum(np.abs(losses[:-1]), 1.0)
        assert np.all(np.diff(losses) <= slack), f"seed {seed}"


def test_run_convergence_flag_semantics():
    real = build_realization(helpers.small_config(), 9)
    full = run(real, SolverConfig(max_iterations=100))
    assert full.converged
    drops = np.diff(full.losses)
    assert -drops[-1] < 1e-4  # the stopping decrease is below the threshold
    short = run(real, SolverConfig(max_iterations=2))
    assert not short.converged
    assert short.iterations == 2


def test_run_zero_iterations_returns_initial_state():
    real = build_realization(helpers.small_config(), 10)
    trace = run(real, SolverConfig(max_iterations=0))
    assert trace.iterations == 0
    assert not trace.converged
    assert len(trace.records) == 1
    streams = sum(real.topology.dl_counts) + sum(real.topology.ul_counts)
    assert trace.records[0].loss == pytest.approx(streams, rel=1e-6)


def test_run_deterministic():
    real = build_realization(helpers.small_config(), 11)
    a = run(real, SolverConfig(max_iterations=20))
    b = run(real, SolverConfig(max_iterations=20))
    np.testing.assert_array_equal(a.losses, b.losses)
    np.testing.assert_array_equal(a.final_state.dl_precoders[0][0],
                                  b.final_state.dl_precoders[0][0])


def test_run_feasible_at_every_iteration():
    real = build_realization(helpers.small_config(), 12)
    trace = run(real, SolverConfig(max_iterations=15))
    hw = real.hardware
    for rec in trace.records[1:]:
        for p in rec.dl_cell_power:
            assert p <= hw.p_bs_w * (1.0 + 1e-6)
        for p in rec.ul_user_power:
            assert p <= hw.p_ue_w * (1.0 + 1e-6)


def test_run_metrics_toggle():
    real = build_realization(helpers.small_config(), 13)
    lean = run(real, SolverConfig(max_iterations=5), collect_metrics=False)
    rich = run(real, SolverConfig(max_iterations=5))
    assert math.isnan(lean.records[1].sum_rate)
    assert rich.records[1].sum_rate > 0.0
    np.testing.assert_array_equal(lean.losses, rich.losses)
    # the final report always carries rates
    assert lean.final_report.sum_rate == pytest.approx(rich.final_report.sum_rate,
                                                       rel=1e-12)


def test_uplink_only_and_downlink_only_networks():
    # solver handles empty directions (used by the half-duplex baseline)
    for kwargs in (dict(dl_users=0), dict(ul_users=0)):
        real = build_realization(helpers.small_config(**kwargs), 14)
        trace = run(real, SolverConfig(max_iterations=20, nu=0.0))
        assert np.all(np.diff(trace.losses) <= 1e-10)
        assert trace.final_report.loss < trace.losses[0]


# ---------------------------------------------------------------------------
# the multiplier search
# ---------------------------------------------------------------------------


def test_secular_multiplier_single_term_in_one_evaluation():
    # 4 / (1 + w)^2 = budget: the one-term lower bound is the root itself
    tol = SolverConfig().bisection_rel_tol
    w, power, evaluations = jpaim.secular_multiplier([[4.0]], [[1.0]], 1.0, tol, 200)
    assert evaluations[0] == 1
    assert w[0] == pytest.approx(1.0, rel=1e-8)
    assert 1.0 - tol <= power[0] * (1.0 + 1e-15) and power[0] <= 1.0


def test_secular_multiplier_zero_eigenvalue_and_empty_rows():
    tol = SolverConfig().bisection_rel_tol
    g = np.array([[1.0, 2.0, 0.0],        # d = 0 with g > 0: infinite power at w = 0
                  [0.0, 0.0, 0.0],        # nothing excited: w = 0, power 0
                  [1e-3, 1e-3, 0.0]])     # within the budget at w = 0
    d = np.array([[0.0, 3.0, 0.0],
                  [0.0, 1.0, 2.0],
                  [1.0, 2.0, 0.0]])
    w, power, evaluations = jpaim.secular_multiplier(g, d, 0.5, tol, 200)
    assert w[0] > 0.0 and 0.5 * (1.0 - tol) <= power[0] <= 0.5
    assert w[1] == 0.0 and power[1] == 0.0 and evaluations[1] == 1
    assert w[2] == 0.0 and power[2] == pytest.approx(1e-3 + 1e-3 / 4.0, rel=1e-15)
    assert evaluations[2] == 1


def test_secular_multiplier_iterates_rise_to_the_root():
    rng = np.random.default_rng(30)
    tol = SolverConfig().bisection_rel_tol
    for _ in range(200):
        n = int(rng.integers(1, 17))
        g = rng.exponential(size=(1, n)) * (rng.random((1, n)) < 0.8)
        d = rng.exponential(size=(1, n)) * (rng.random((1, n)) < 0.7)
        budget = float(rng.exponential()) * 0.1
        if not np.any(g > 0.0):
            continue
        target = np.array([budget * (1.0 - tol)])
        order = np.argsort(-np.where(g > 0.0, d, 1.0), axis=-1)
        g_s = np.take_along_axis(g, order, -1)
        d_s = np.take_along_axis(np.where(g > 0.0, d, 1.0), order, -1)

        def power(w):
            return float(np.sum(g_s / (d_s + w) ** 2))

        w = np.max(np.sqrt(g_s / target) - d_s, axis=-1, initial=0.0)
        while power(w[0]) > budget:
            # every iterate lies left of the root (P >= target) and moves
            # right, at least as far as Newton's step on P^(-1/2)
            p = power(w[0])
            assert p >= target[0] * (1.0 - 1e-12)
            newton = w[0] + p / float(np.sum(g_s / (d_s + w[0]) ** 3)) * (
                math.sqrt(p / target[0]) - 1.0)
            den = d_s + w[:, None]
            step = w + jpaim._bound_step(g_s / den ** 2, den, target)
            assert step[0] >= newton * (1.0 - 1e-15) and step[0] > w[0]
            w = step
        solved = jpaim.secular_multiplier(g, d, budget, tol, 200)
        assert solved[0][0] == pytest.approx(w[0], rel=1e-14)


def test_secular_multiplier_binds_within_tolerance_in_few_evaluations():
    # many random rows at once, zero curvatures and empty terms included
    rng = np.random.default_rng(31)
    tol = SolverConfig().bisection_rel_tol
    rows, n = 5000, 16
    g = rng.exponential(size=(rows, n)) ** 3 * (rng.random((rows, n)) < 0.7)
    d = rng.exponential(size=(rows, n)) ** 3 * (rng.random((rows, n)) < 0.8)
    budget = 10.0 ** rng.uniform(-3, 1, size=rows)
    w, power, evaluations = jpaim.secular_multiplier(g, d, budget, tol, 200)
    searched = w > 0.0
    assert searched.sum() > rows // 2
    assert np.all(power <= budget)
    assert np.all(power[searched] >= budget[searched] * (1.0 - tol) * (1.0 - 1e-12))
    assert evaluations.max() <= 8
    np.testing.assert_allclose(power, np.sum(g / (d + w[:, None]) ** 2, axis=1), rtol=1e-12)


def test_secular_multiplier_step_cap():
    with pytest.raises(RuntimeError):
        jpaim.secular_multiplier([[1.0, 1.0]], [[0.0, 1.0]], 1.0, 1e-8, 1)


def test_multiplier_searches_stay_within_eight_evaluations():
    # acceptance criterion 3's instances: every search of every block update
    rng = np.random.default_rng(20240203)
    cfg = SolverConfig()
    worst = 0
    for _ in range(20):
        real = helpers.random_small_realization(rng)
        state = jpaim.initialize(real, cfg)
        for _ in range(6):
            state = jpaim.update_combiners(real, state)
            pre = jpaim.update_precoders(real, state, cfg)
            pw = jpaim.update_power_coefficients(real, pre.state, cfg)
            state = pw.state
            worst = max(worst, *pre.dl_evaluations, *pre.ul_evaluations, *pw.dl_evaluations)
    assert 1 <= worst <= 8
    trace = run(build_realization(ScenarioConfig(), 3), cfg, collect_metrics=False)
    assert trace.records[0].multiplier_evaluations == 0
    assert all(r.multiplier_evaluations >= 3 for r in trace.records[1:])


# Recorded with the per-link solver and its bisection multiplier searches
# (the code before the stacked layout): (iterations, final loss) per seed.
GOLDEN_DEFAULT = [(56, 4.648553458822719), (23, 1.952392760408255), (35, 1.0426166644234505),
                  (44, 1.1467380751850134), (15, 5.18456041509331), (46, 1.281788046799273),
                  (26, 1.6647181316612965), (40, 3.1582969596002624), (34, 2.264731910350466),
                  (42, 2.2100729900956972)]
GOLDEN_STRONG_SI = [(100, 7.546007950711318), (47, 8.587932204478848), (48, 7.02304816422896),
                    (77, 7.7213196028593245), (48, 9.75273993284477), (41, 7.851377450061863),
                    (44, 8.540821184741082), (19, 8.438798515310092), (34, 9.683096256234201),
                    (32, 9.00515946481209)]


@pytest.mark.parametrize("scenario, config, golden", [
    (ScenarioConfig(), SolverConfig(), GOLDEN_DEFAULT),
    (ScenarioConfig(asic_db=0.0), SolverConfig(nu=1.0), GOLDEN_STRONG_SI),
], ids=["default", "strong_si"])
def test_run_matches_per_link_goldens(scenario, config, golden):
    for seed, (iterations, final_loss) in enumerate(golden):
        trace = run(build_realization(scenario, seed), config, collect_metrics=False)
        assert trace.iterations == iterations, f"seed {seed}"
        assert trace.final_report.loss == pytest.approx(final_loss, rel=1e-6), f"seed {seed}"
