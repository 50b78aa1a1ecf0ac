"""Alternating solver: initialization, block updates, and the full loop."""

import json
import math
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import helpers
from helpers import bs_node, dl_node, ul_node
from ibfdsim import baselines, jpaim, objective
from ibfdsim.jpaim import SolverConfig, initialize, run
from ibfdsim.model import (ScenarioConfig, build_realization, restrict_to_downlink,
                           restrict_to_uplink)
from ibfdsim.objective import resolve_nu
from ibfdsim.stacked import BeamformingState, hermitian, uncolumns


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(threshold=0.0)
    with pytest.raises(ValueError):
        SolverConfig(threshold=1e-2)
    with pytest.raises(ValueError):
        SolverConfig(max_iterations=-1)
    # nu is None or one number: a per-cell sequence is refused like a string
    for nu in (-1.0, math.nan, math.inf, (0.1, 0.2), (1.0,), [0.5], np.array([0.1, 0.2]), (),
               "abc", "0.5"):
        with pytest.raises(ValueError, match="nu"):
            SolverConfig(nu=nu)
    assert SolverConfig(nu=0).nu == 0.0 and type(SolverConfig(nu=np.float64(0.5)).nu) is float
    for value in (2.5, 2.0, False):
        with pytest.raises(ValueError, match="^max_iterations must be an integer"):
            SolverConfig(max_iterations=value)
    SolverConfig(max_iterations=np.int64(5))


def test_resolve_nu_default_tracks_si_gain():
    real = build_realization(ScenarioConfig(asic_db=30.0), 0)
    np.testing.assert_allclose(resolve_nu(real, SolverConfig().nu), [1e-6, 1e-6],
                               rtol=1e-12)
    np.testing.assert_allclose(resolve_nu(real, SolverConfig(nu=0.5).nu), [0.5, 0.5])
    # each cell's own SI gain, when the cells' gains differ
    np.testing.assert_allclose(resolve_nu(helpers.with_nu(real, (0.1, 0.2)), SolverConfig().nu),
                               [0.1, 0.2], rtol=1e-15)
    # default matches the dB rule at every depth
    for l_db in (0.0, 17.0, 30.0, 60.0, 120.0):
        real = build_realization(ScenarioConfig(asic_db=l_db, cells=1), 0)
        assert resolve_nu(real, SolverConfig().nu)[0] == pytest.approx(
            10 ** (-l_db / 5), rel=1e-9)


def test_initialize_meets_budgets_exactly():
    real = build_realization(ScenarioConfig(), 7)
    state = initialize(real)
    hw = real.hardware
    for g in range(real.cell_count):
        assert state.dl_cell_power(g) == pytest.approx(hw.p_bs_w, rel=1e-12)
    for g, k in real.ul_users():
        assert state.ul_power(g, k) == pytest.approx(hw.p_ue_w, rel=1e-12)
    for cell in (*state.dl_combiners, *state.ul_combiners):
        for u in cell:
            assert np.all(u == 0.0)
    # every column carries the same share of its budget
    gamma = math.sqrt(hw.p_ue_w / real.ul_streams)
    for beams, norm in ((state.dl_beams, 0.2505936168136361), (state.ul_beams, gamma)):
        for cell in beams:
            for w in cell:
                np.testing.assert_allclose(np.linalg.norm(w, axis=0), norm, rtol=1e-12)


def test_initialize_deterministic_and_seeded():
    real = build_realization(ScenarioConfig(), 7)
    a = initialize(real)
    b = initialize(real)
    np.testing.assert_array_equal(a.dl_beams[0][0], b.dl_beams[0][0])
    c = initialize(replace(real, seed=8))
    assert not np.allclose(a.dl_beams[0][0], c.dl_beams[0][0])


def test_initialize_draws_user_by_user():
    # reference: one unit-column matrix per user, real part then imaginary
    # part, every downlink user before the first uplink user, times the
    # amplitude that splits the budget
    for scenario in (ScenarioConfig(), helpers.small_config(cells=3, dl_users=2)):
        real = build_realization(scenario, 4)
        state = initialize(real)
        rng = np.random.default_rng([0, real.seed])
        ch, hw = real.channels, real.hardware
        alpha = math.sqrt(hw.p_bs_w / (real.dl_streams * ch.k_d))
        gamma = math.sqrt(hw.p_ue_w / real.ul_streams)
        for beams, rows, cols, amplitude in (
                (state.dl_beams, ch.n_bs, real.dl_streams, alpha),
                (state.ul_beams, ch.n_ue, real.ul_streams, gamma)):
            for cell in beams:
                for w in cell:
                    m = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
                    np.testing.assert_array_equal(
                        w, amplitude * (m / np.linalg.norm(m, axis=0, keepdims=True)))


def test_update_combiners_solves_mmse_system():
    real = build_realization(helpers.small_config(), 1)
    state = helpers.refresh_combiners(real, helpers.random_state(real, 2, beam_scale=0.7))
    cov = helpers.state_covariances(real, state)
    for g, k in helpers.dl_users(real):
        c = cov.dl_rx[g, k]
        rhs = helpers.link(real, dl_node(g, k), bs_node(g)).est @ state.dl_beams[g][k]
        np.testing.assert_allclose(c @ state.dl_combiners[g][k], rhs, rtol=1e-9)
    for g, k in real.ul_users():
        c = cov.bs_rx[g]
        rhs = helpers.link(real, bs_node(g), ul_node(g, k)).est @ state.ul_beams[g][k]
        np.testing.assert_allclose(c @ state.ul_combiners[g][k], rhs, rtol=1e-9)


def test_update_combiners_never_increases_loss():
    rng = np.random.default_rng(3)
    for _ in range(5):
        real = helpers.random_small_realization(rng)
        nu = SolverConfig().nu
        state = helpers.solved_state(real, iterations=1)
        before = objective.evaluate(real, state, nu).loss
        after = objective.evaluate(real, helpers.refresh_combiners(real, state), nu).loss
        assert after <= before * (1.0 + 1e-12)


def test_update_precoders_respects_budgets():
    rng = np.random.default_rng(4)
    for _ in range(5):
        real = helpers.random_small_realization(rng)
        cfg = SolverConfig()
        state = helpers.refresh_combiners(real, initialize(real))
        state, multipliers, _, _ = helpers.precoder_step(real, state, cfg)
        hw = real.hardware
        for g in range(real.cell_count):
            assert state.dl_cell_power(g) <= hw.p_bs_w * (1.0 + 1e-7)
            assert multipliers[0][g] >= 0.0
        for i, (g, k) in enumerate(real.ul_users()):
            assert state.ul_power(g, k) <= hw.p_ue_w * (1.0 + 1e-7)
            assert multipliers[1][i] >= 0.0


def test_update_precoders_stationary_for_its_lagrangian():
    real = build_realization(helpers.small_config(), 6)
    cfg = SolverConfig()
    state = helpers.solved_state(real, iterations=2)
    state = helpers.refresh_combiners(real, state)
    state, multipliers, _, _ = helpers.precoder_step(real, state, cfg)
    assert helpers.precoder_stationarity(real, state, cfg.nu, multipliers) < 1e-5


def test_precoder_step_is_exact_under_csi_error():
    # criterion 2's 25 instances with csi_error_factor 1e-2: the precoder
    # step must still land on its block's optimum
    rng = np.random.default_rng(20240201)
    cfg = SolverConfig()
    for _ in range(25):
        real = helpers.random_small_realization(rng, csi_error_factor=1e-2)
        state = helpers.refresh_combiners(real, helpers.solved_state(real, iterations=2))
        state, multipliers, _, _ = helpers.precoder_step(real, state, cfg)
        assert helpers.precoder_stationarity(real, state, cfg.nu, multipliers) < 1e-5


def test_cell_and_user_relabelling_permutes_every_output():
    # relabel the cells of a 3-cell realization as [2, 0, 1], and swap the
    # downlink and the uplink users of one cell, through helpers.link: every
    # per-cell and per-user output must come out relabelled the same way,
    # and every scalar unchanged.  Only the order of the sums differs, which
    # moves one precoder step by about 1e-9 relative.
    real = build_realization(helpers.small_config(
        cells=3, dl_users=2, ul_users=2, dl_streams=2, ul_streams=2, csi_error_factor=1e-2,
        asic_db=40.0), 21)
    cells, users = np.array([2, 0, 1]), np.array([[1, 0], [0, 1], [0, 1]])
    at = (cells[:, None], users)     # new (g, k) is old (cells[g], users[g, k])

    def old(node):
        kind, g, *k = node
        return (kind, int(cells[g]), *(int(users[g, i]) for i in k))

    def relabelled(draft):
        ch = draft.channels
        ch.x[...], ch.x_true[...], ch.err[...] = 0.0, 0.0, 0.0
        for rx, tx in helpers.links(draft):
            new, was = helpers.link(draft, rx, tx), helpers.link(real, old(rx), old(tx))
            new.true[...], new.est[...], new.err_var[...] = was.true, was.est, was.err_var

    moved = helpers.edited(replace(real, hardware=replace(real.hardware, si_gain=tuple(
        np.array(real.hardware.si_gain)[cells].tolist()))), relabelled)

    def relabel(state):
        return BeamformingState(*(getattr(state, f.name)[at] for f in fields(state)))

    def close(got, expected):
        got, expected = np.asarray(got), np.asarray(expected)
        assert got.shape == expected.shape
        assert np.linalg.norm(got - expected) <= 1e-7 * np.linalg.norm(expected)

    state = helpers.refresh_combiners(real, helpers.solved_state(real, iterations=2))
    cov, cov_moved = (helpers.state_covariances(r, s)
                      for r, s in ((real, state), (moved, relabel(state))))
    close(cov_moved.dl_rx, cov.dl_rx[at])
    for name in ("bs_rx", "cell_load", "cell_power"):
        close(getattr(cov_moved, name), getattr(cov, name)[cells])
    # the CSI-error floors alone: the SI buries them in bs_rx at cells 0 and 1
    # (about 1e-10 of it), but with every channel matrix zeroed and the error
    # variances kept each receive covariance is its noise plus CSI-error power
    # times I, at least 1.7e-2 of the noise here
    floors, floors_moved = (helpers.state_covariances(helpers.edited(
        r, lambda draft: draft.channels.x.fill(0.0)), s)
        for r, s in ((real, state), (moved, relabel(state))))
    close(floors_moved.dl_rx, floors.dl_rx[at])
    close(floors_moved.bs_rx, floors.bs_rx[cells])
    for got, expected in zip(cov_moved.signal, cov.signal):
        close(got, expected[at])
    b_d = real.dl_streams
    close(uncolumns(cov_moved.si_signal, b_d), uncolumns(cov.si_signal, b_d)[at])
    for got, expected in zip(objective.mmse_combiners(cov_moved), objective.mmse_combiners(cov)):
        close(got, expected[at])

    # unequal per-cell weights nu_g = l_g^2 under the default nu, relabelled too
    nu = np.array([1.0, 0.5, 0.25])
    real, moved = helpers.with_nu(real, nu), helpers.with_nu(moved, nu[cells])
    rep = objective.evaluate(real, state, None)
    rep_moved = objective.evaluate(moved, relabel(state), None)
    for f in fields(rep):
        expected = getattr(rep, f.name)
        close(getattr(rep_moved, f.name),
              np.array(expected)[cells] if isinstance(expected, tuple) else expected)

    step, (dl_mult, ul_mult), _, _ = helpers.precoder_step(real, state, SolverConfig())
    step_moved, (dl_moved, ul_moved), _, _ = helpers.precoder_step(
        moved, relabel(state), SolverConfig())
    close(step_moved.dl_beams, step.dl_beams[at])
    close(step_moved.ul_beams, step.ul_beams[at])
    close(dl_moved, dl_mult[cells])
    close(ul_moved.reshape(users.shape), ul_mult.reshape(users.shape)[at])


def test_stream_rotation_leaves_every_figure_and_rotates_the_step():
    # W -> W Q and U -> U Q with a unitary b x b Q per user leave every MSE,
    # the loss and the rates unchanged, and the precoder step from the
    # rotated combiners returns the rotated beams W*(U) Q.  The coarse ADC
    # and the CSI error make the per-antenna distortion terms matter, so a
    # transmit-side weight taken per stream instead of per antenna shows.
    real = build_realization(ScenarioConfig(adc_bits=4.0, csi_error_factor=1e-3), 13)
    state = helpers.solved_state(real, iterations=3, nu=1.0)
    rng = np.random.default_rng(14)
    q_dl, q_ul = (np.linalg.qr(helpers.cn(rng, w.shape[:2] + (w.shape[-1],) * 2))[0]
                  for w in (state.dl_beams, state.ul_beams))
    rotated = BeamformingState(state.dl_beams @ q_dl, state.dl_combiners @ q_dl,
                               state.ul_beams @ q_ul, state.ul_combiners @ q_ul)

    def close(got, expected):
        got, expected = np.asarray(got), np.asarray(expected)
        assert np.all(np.abs(got - expected) <= 1e-10 * np.abs(expected))

    rep, rep_rotated = (objective.evaluate(real, s, 1.0) for s in (state, rotated))
    for f in fields(rep):
        close(getattr(rep_rotated, f.name), getattr(rep, f.name))
    cfg = SolverConfig(nu=1.0)
    step, multipliers, _, _ = helpers.precoder_step(real, state, cfg)
    step_rotated, multipliers_rotated, _, _ = helpers.precoder_step(real, rotated, cfg)
    for got, expected in ((step_rotated.dl_beams, step.dl_beams @ q_dl),
                          (step_rotated.ul_beams, step.ul_beams @ q_ul)):
        assert np.linalg.norm(got - expected) <= 1e-10 * np.linalg.norm(expected)
    for got, expected in zip(multipliers_rotated, multipliers):
        close(got, expected)


def test_update_precoders_keeps_a_silenced_cell_silent():
    # zero beams give zero combiners and stay zero: cell 0 sends nothing,
    # so its users' combiners come out exactly 0, the precoder step has no
    # linear term for them, and its multiplier search has nothing to bound
    real = build_realization(ScenarioConfig(), 16)
    cfg = SolverConfig()
    state = initialize(real)
    state.dl_beams[0] = 0.0
    state = helpers.refresh_combiners(real, state)
    assert np.all(state.dl_combiners[0] == 0.0)
    state, multipliers, scalar_power, _ = helpers.precoder_step(real, state, cfg)
    assert multipliers[0][0] == 0.0
    assert scalar_power[0][0] == state.dl_cell_powers()[0] == 0.0
    assert np.all(state.dl_beams[0] == 0.0)
    assert helpers.precoder_stationarity(real, state, cfg.nu, multipliers) < 1e-5


def test_extrapolate_moves_beamformers_within_budgets(monkeypatch):
    real = build_realization(ScenarioConfig(), 15)
    cfg = SolverConfig()
    hw = real.hardware
    previous = helpers.refresh_combiners(real, initialize(real))
    state = helpers.precoder_step(real, previous, cfg)[0]
    beams = (state.dl_beams, state.ul_beams)
    previous_beams = (previous.dl_beams, previous.ul_beams)
    with monkeypatch.context() as patch:
        patch.setattr(jpaim, "EXTRAPOLATION", 0.0)
        np.testing.assert_array_equal(jpaim._extrapolate(hw, beams, previous_beams)[0],
                                      state.dl_beams)
    assert jpaim.EXTRAPOLATION == 4.0
    trial_dl, trial_ul = jpaim._extrapolate(hw, beams, previous_beams)
    trial = BeamformingState(trial_dl, state.dl_combiners, trial_ul, state.ul_combiners)
    for g in range(real.cell_count):
        assert trial.dl_cell_power(g) <= hw.p_bs_w * (1.0 + 1e-12)
    for g, k in real.ul_users():
        assert trial.ul_power(g, k) <= hw.p_ue_w * (1.0 + 1e-12)
    # inside the budget the move is exactly W + 4 (W - W_prev) per user
    moved = 5.0 * state.ul_beams[0][0] - 4.0 * previous.ul_beams[0][0]
    scale = min(1.0, math.sqrt(hw.p_ue_w) / np.linalg.norm(moved))
    np.testing.assert_allclose(trial.ul_beams[0][0], scale * moved, rtol=1e-12)


def test_returned_states_are_c_contiguous_and_share_no_memory():
    # the kernels return views and non-C-contiguous layouts (the uplink
    # combiners come out of a swapaxes), and carry unchanged fields over from
    # their input; the public functions hand out arrays of their own
    real = build_realization(ScenarioConfig(), 5)
    cfg = SolverConfig(max_iterations=3)
    trace = run(real, cfg)
    state = trace.final_state
    saved = state.copy()
    results = {
        "initialize": initialize(real),
        "run": run(real, cfg).final_state,
        "run_nsp": baselines.run_nsp(real, trace, 4)[1],
    }
    for name, out in results.items():
        for field in fields(out):
            array = getattr(out, field.name)
            assert array.flags.c_contiguous, (name, field.name)
            array[...] = 7.0
    for field in fields(saved):
        np.testing.assert_array_equal(getattr(state, field.name), getattr(saved, field.name),
                                      err_msg=field.name)


def test_stationarity_check_refuses_a_copied_block():
    # reshaping a non-contiguous matrix copies it, so a perturbation of the
    # copy would never reach the loss and the gradient would read 0
    real = build_realization(helpers.small_config(dl_streams=2), 1)
    state = helpers.random_state(real, 2)
    state.dl_combiners = np.swapaxes(np.swapaxes(state.dl_combiners, -1, -2).copy(), -1, -2)
    with pytest.raises(AssertionError, match="copy"):
        helpers.combiner_stationarity(real, state, 0.0)


def test_run_monotone_and_recorded():
    real = build_realization(helpers.small_config(), 8)
    cfg = SolverConfig(max_iterations=30)
    trace = run(real, cfg)
    losses = helpers.losses(trace)
    assert len(trace.records) == trace.iterations + 1
    assert np.all(np.diff(losses) <= 1e-8 * np.maximum(np.abs(losses[:-1]), 1.0))
    # initial loss: zero combiners leave exactly one unit of MSE per stream
    streams = real.cell_count * (real.channels.k_d + real.channels.k_u)
    assert losses[0] == pytest.approx(streams, rel=1e-6)
    # one column per field over the records, per cell or per uplink user
    rows, cells, users = len(trace.records), real.cell_count, len(list(real.ul_users()))
    shapes = {name: (rows,) for name in ("loss", "sum_mse", "sum_rate", "elapsed_ms",
                                         "multiplier_evaluations", "combiner_ms",
                                         "precoder_ms", "trial_ms")}
    shapes.update(rsi_watts=(rows, cells), dl_cell_power=(rows, cells),
                  dl_precoder_multipliers=(rows, cells), ul_user_power=(rows, users),
                  ul_precoder_multipliers=(rows, users))
    assert {name: getattr(trace.records, name).shape
            for name in trace.records.dtype.names} == shapes
    assert trace.records.loss.tolist() == [r.loss for r in trace.records]
    assert trace.nu == tuple(resolve_nu(real, cfg.nu))
    assert trace.final_report.loss == pytest.approx(losses[-1], abs=2e-4)


def test_run_monotone_under_heavy_rsi_penalty():
    # unit SI gain with nu = 1 makes the RSI term dominate the loss; both
    # blocks and the extrapolation safeguard must still minimize the
    # penalized loss, so the tracked loss stays within criterion 1's slack on
    # every seed
    cfg = SolverConfig(nu=1.0)
    for seed in range(20):
        trace = run(build_realization(ScenarioConfig(asic_db=0.0), seed), cfg)
        losses = helpers.losses(trace)
        slack = 1e-8 * np.maximum(np.abs(losses[:-1]), 1.0)
        assert np.all(np.diff(losses) <= slack), f"seed {seed}"


def test_run_records_block_times():
    real = build_realization(ScenarioConfig(), 3)
    trace = run(real, SolverConfig())
    assert trace.iterations > 3
    first = trace.records[0]
    assert first.combiner_ms == first.precoder_ms == first.trial_ms == 0.0
    for rec in trace.records[1:]:
        blocks = (rec.combiner_ms, rec.precoder_ms, rec.trial_ms)
        assert min(blocks) >= 0.0
        assert sum(blocks) <= rec.elapsed_ms
        assert rec.precoder_ms > 0.0
    # the first iteration and the last one try no trial; an iteration after
    # an accepted trial reuses that trial's combiner update
    assert trace.records[1].trial_ms == trace.records[-1].trial_ms == 0.0
    assert any(rec.trial_ms > 0.0 for rec in trace.records[2:-1])
    assert trace.records[1].combiner_ms > 0.0
    assert any(rec.combiner_ms == 0.0 for rec in trace.records[2:])


def test_run_convergence_flag_semantics():
    real = build_realization(helpers.small_config(), 9)
    full = run(real, SolverConfig(max_iterations=100))
    assert full.converged
    drops = np.diff(helpers.losses(full))
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
    streams = real.cell_count * (real.channels.k_d + real.channels.k_u)
    assert trace.records[0].loss == pytest.approx(streams, rel=1e-6)


@pytest.mark.parametrize("scenario, config, restrict", [
    (ScenarioConfig(), SolverConfig(), None),
    (ScenarioConfig(asic_db=0.0), SolverConfig(nu=1.0), None),
    (ScenarioConfig(), SolverConfig(nu=0.0), restrict_to_downlink),
    (ScenarioConfig(), SolverConfig(nu=0.0), restrict_to_uplink),
], ids=["default", "strong_si", "downlink_phase", "uplink_phase"])
def test_last_record_powers_are_the_final_states(scenario, config, restrict):
    # however many iterations ran, the last record's powers are the final
    # state's, bit for bit
    real = build_realization(scenario, 4)
    real = restrict(real) if restrict else real
    for max_iterations in range(7):
        trace = run(real, replace(config, max_iterations=max_iterations))
        last, state = trace.records[-1], trace.final_state
        # a BS has a power entry only when it sends, so only with downlink users
        dl_powers = state.dl_cell_powers().tolist() if real.channels.k_d else []
        assert last.dl_cell_power.tolist() == dl_powers, max_iterations
        assert last.ul_user_power.tolist() == state.ul_powers().ravel().tolist(), max_iterations


def test_run_deterministic():
    real = build_realization(helpers.small_config(), 11)
    a = run(real, SolverConfig(max_iterations=20))
    b = run(real, SolverConfig(max_iterations=20))
    np.testing.assert_array_equal(helpers.losses(a), helpers.losses(b))
    np.testing.assert_array_equal(a.final_state.dl_beams[0][0],
                                  b.final_state.dl_beams[0][0])


@pytest.mark.parametrize("scenario, config", [
    (ScenarioConfig(), SolverConfig()),
    (ScenarioConfig(asic_db=0.0), SolverConfig(nu=1.0)),
], ids=["default", "strong_si"])
def test_run_final_state_reproduces_the_final_report(scenario, config):
    # the final state holds the very beams and combiners the report scored
    for seed in range(4):
        real = build_realization(scenario, seed)
        trace = run(real, config)
        again = objective.evaluate(real, trace.final_state, config.nu)
        for field in fields(again):
            got, want = getattr(again, field.name), getattr(trace.final_report, field.name)
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0,
                                       err_msg=f"seed {seed} {field.name}")


def test_run_final_report_is_evaluate_of_the_final_state():
    # the solve, like evaluate, scores through objective.score, and the final
    # state holds the very arrays it scored, so the figures agree bit for bit
    for seed in range(10):
        real = build_realization(ScenarioConfig(), seed)
        trace = run(real, SolverConfig())
        again = objective.evaluate(real, trace.final_state, None)
        for field in fields(again):
            assert getattr(again, field.name) == getattr(trace.final_report, field.name), (
                f"seed {seed} {field.name}")


@pytest.mark.parametrize("scenario, config", [
    (ScenarioConfig(), SolverConfig(max_iterations=1)),
    (ScenarioConfig(asic_db=0.0), SolverConfig(nu=1.0, max_iterations=1)),
], ids=["default", "strong_si"])
def test_run_iteration_matches_public_block_updates(scenario, config):
    # run forms its precoder constants once per solve; the block oracles of
    # tests/helpers.py derive them per call on a state, and both give the
    # same bits
    for seed in range(3):
        real = build_realization(scenario, seed)
        trace = run(real, config)
        state, multipliers, _, evaluations = helpers.precoder_step(
            real, helpers.refresh_combiners(real, initialize(real)), config)
        for name in ("dl_beams", "dl_combiners", "ul_beams", "ul_combiners"):
            np.testing.assert_array_equal(getattr(trace.final_state, name),
                                          getattr(state, name),
                                          err_msg=f"seed {seed} {name}")
        record = trace.records[1]
        assert record.dl_cell_power.tolist() == state.dl_cell_powers().tolist()
        assert record.ul_user_power.tolist() == state.ul_powers().ravel().tolist()
        assert record.dl_precoder_multipliers.tolist() == multipliers[0].tolist()
        assert record.ul_precoder_multipliers.tolist() == multipliers[1].tolist()
        assert record.multiplier_evaluations == evaluations[0].sum() + evaluations[1].sum()


def test_run_feasible_at_every_iteration():
    real = build_realization(helpers.small_config(), 12)
    trace = run(real, SolverConfig(max_iterations=15))
    hw = real.hardware
    for rec in trace.records[1:]:
        for p in rec.dl_cell_power:
            assert p <= hw.p_bs_w * (1.0 + 1e-6)
        for p in rec.ul_user_power:
            assert p <= hw.p_ue_w * (1.0 + 1e-6)


# Recorded with the M x M log-det rate form log2 det(C) - log2 det(C - S),
# before rates came from the MMSE error matrices: records[t].sum_rate of
# run(...) and the final report's (sum_rate_dl,
# sum_rate_ul), for seeds 0-2.  The strong-SI seed 0 entry was re-recorded
# when the covariances moved to the one receive-side matrix X (R R^H +
# X diag(t) X^H): that run stops at max_iterations and carries the changed
# rounding of ill-conditioned BS covariances (record 0 moved 6.2e-10
# relative, records 55 on past 1e-8, at most 2.0e-7).  The three strong-SI
# entries were re-recorded when the precoder step gained the CSI-error
# floor's dependence on the beams (covariance.transmit_grams): seed 0 moved
# at most 3.07e-7 relative, seeds 1 and 2 at most 4.2e-10 and 4.7e-9, each
# with its record count unchanged.
RATE_GOLDENS = json.loads((Path(__file__).parent / "rate_goldens.json").read_text())


@pytest.mark.parametrize("scenario, config, key", [
    (ScenarioConfig(), SolverConfig(), "default"),
    (ScenarioConfig(asic_db=0.0), SolverConfig(nu=1.0), "strong_si"),
], ids=["default", "strong_si"])
def test_run_rates_match_goldens(scenario, config, key):
    for seed, golden in enumerate(RATE_GOLDENS[key]):
        trace = run(build_realization(scenario, seed), config)
        got = [r.sum_rate for r in trace.records]
        assert len(got) == len(golden["records"]), f"seed {seed}"
        assert got == pytest.approx(golden["records"], rel=1e-8, abs=1e-9), f"seed {seed}"
        final = [trace.final_report.sum_rate_dl, trace.final_report.sum_rate_ul]
        assert final == pytest.approx(golden["final"], rel=1e-8, abs=1e-9), f"seed {seed}"


def test_run_computes_rates_once_per_record(monkeypatch):
    # one stacked rate evaluation with one entry per record, and one for the
    # final report; a rejected trial costs none, an accepted one only when it
    # becomes a record
    stacks = []    # the leading axis of each call, () for one state
    kernel = objective.sum_rates

    def counted(gains):
        stacks.append(gains[0].shape[:-4])
        return kernel(gains)

    monkeypatch.setattr(objective, "sum_rates", counted)
    real = build_realization(helpers.small_config(), 13)
    trace = run(real, SolverConfig(max_iterations=20))
    tried = sum(r.trial_ms > 0.0 for r in trace.records)
    accepted = sum(r.combiner_ms == 0.0 for r in trace.records[2:])
    assert 0 < accepted < tried
    assert stacks == [(len(trace.records),), ()]


def test_records_keep_no_signals():
    # a record keeps its b x b signal gains, not the desired signals and
    # combiners of its 64-antenna BSs, which would add about 33 KB a record
    # to the peak
    real = build_realization(ScenarioConfig(bs_tx_antennas=64, bs_rx_antennas=64, asic_db=0.0), 0)
    peaks = []
    for iterations in (10, 60):
        tracemalloc.start()
        try:
            trace = run(real, SolverConfig(nu=1.0, max_iterations=iterations))
            peaks.append((tracemalloc.get_traced_memory()[1], len(trace.records)))
        finally:
            tracemalloc.stop()
    (low, low_records), (high, high_records) = peaks
    assert (low_records, high_records) == (11, 61)
    assert high - low <= 4096 * (high_records - low_records)


def _rated_updates(monkeypatch) -> list:
    """Every combiner update of the solves that follow, as (channels, loss,
    rate): the channels it scored, its loss, and the one-state sum_rates of
    its desired signals and MMSE combiners.  The initial report scores given combiners, so its MMSE
    combiners are solved here; the final report rates itself."""
    updates = []
    kernel = objective.score

    def captured(ch, hw, beams, nu, combiners=None, with_rates=False):
        scored, cov, rep = kernel(ch, hw, beams, nu, combiners, with_rates)
        if not with_rates:
            mmse = scored if combiners is None else objective.mmse_combiners(cov)
            rate_dl, rate_ul = objective.sum_rates(objective.signal_gains(cov.signal, mmse))
            updates.append((ch, rep.loss, rate_dl + rate_ul))
        return scored, cov, rep

    monkeypatch.setattr(objective, "score", captured)
    return updates


@pytest.mark.parametrize("scenario, config, phase", [
    (ScenarioConfig(), SolverConfig(), None),
    (ScenarioConfig(asic_db=0.0), SolverConfig(nu=1.0), None),
    (helpers.small_config(ul_users=0), SolverConfig(), None),
    (helpers.small_config(dl_users=0), SolverConfig(), None),
    (ScenarioConfig(), SolverConfig(max_iterations=0), None),
    (ScenarioConfig(), SolverConfig(max_iterations=1), None),
    (ScenarioConfig(), SolverConfig(), 1),
    (ScenarioConfig(), SolverConfig(), 2),
], ids=["default", "strong_si", "downlink_only", "uplink_only", "max_iterations_0",
        "max_iterations_1", "half_duplex_dl", "half_duplex_ul"])
def test_record_rates_are_their_own_updates_rates(monkeypatch, scenario, config, phase):
    # the pass after the loop gives each record, bit for bit, the rate of the
    # combiner update whose loss it holds: record 0's initial report, an
    # iteration's own update, or the accepted trial's that it reuses; so do
    # the traces of run_half_duplex's two phases (phase 1 and 2 of its result)
    updates = _rated_updates(monkeypatch)
    real = build_realization(scenario, 0)
    if phase is None:
        trace = run(real, config)
    else:
        trace = baselines.run_half_duplex(real, config)[phase]
        # the other phase starts at the same loss, one per stream with zero combiners
        updates = [u for u in updates if (u[0].k_d, u[0].k_u)[phase - 1]]
    if config == SolverConfig(nu=1.0):
        assert not trace.converged and trace.iterations == config.max_iterations
    for t, r in enumerate(trace.records):
        rates = {repr(rate) for _, loss, rate in updates if loss == r.loss}
        assert rates == {repr(float(r.sum_rate))}, f"record {t}"


def test_uplink_only_and_downlink_only_networks():
    # solver handles empty directions (used by the half-duplex baseline)
    for kwargs in (dict(dl_users=0), dict(ul_users=0)):
        real = build_realization(helpers.small_config(**kwargs), 14)
        trace = run(real, SolverConfig(max_iterations=20, nu=0.0))
        assert np.all(np.diff(helpers.losses(trace)) <= 1e-10)
        assert trace.final_report.loss < helpers.losses(trace)[0]


# ---------------------------------------------------------------------------
# the multiplier search
# ---------------------------------------------------------------------------


def test_secular_multiplier_single_term_in_one_evaluation():
    # 4 / (1 + w)^2 = budget: the one-term lower bound is the root itself
    tol = jpaim.SEARCH_REL_TOL
    w, power, evaluations = helpers.secular_multiplier([[4.0]], [[1.0]], 1.0)
    assert evaluations[0] == 1
    assert w[0] == pytest.approx(1.0, rel=1e-8)
    assert 1.0 - tol <= power[0] * (1.0 + 1e-15) and power[0] <= 1.0


def test_secular_multiplier_zero_eigenvalue_and_empty_rows():
    tol = jpaim.SEARCH_REL_TOL
    g = np.array([[1.0, 2.0, 0.0],        # d = 0 with g > 0: infinite power at w = 0
                  [0.0, 0.0, 0.0],        # nothing excited: w = 0, power 0
                  [1e-3, 1e-3, 0.0]])     # within the budget at w = 0
    d = np.array([[0.0, 3.0, 0.0],
                  [0.0, 1.0, 2.0],
                  [1.0, 2.0, 0.0]])
    w, power, evaluations = helpers.secular_multiplier(g, d, 0.5)
    assert w[0] > 0.0 and 0.5 * (1.0 - tol) <= power[0] <= 0.5
    assert w[1] == 0.0 and power[1] == 0.0 and evaluations[1] == 1
    assert w[2] == 0.0 and power[2] == pytest.approx(1e-3 + 1e-3 / 4.0, rel=1e-15)
    assert evaluations[2] == 1


def test_secular_multiplier_iterates_rise_to_the_root():
    rng = np.random.default_rng(30)
    tol = jpaim.SEARCH_REL_TOL
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
        solved = helpers.secular_multiplier(g, d, budget)
        assert solved[0][0] == pytest.approx(w[0], rel=1e-14)


def test_secular_multiplier_binds_within_tolerance_in_few_evaluations():
    # many random rows at once, zero curvatures and empty terms included
    rng = np.random.default_rng(31)
    tol = jpaim.SEARCH_REL_TOL
    rows, n = 5000, 16
    g = rng.exponential(size=(rows, n)) ** 3 * (rng.random((rows, n)) < 0.7)
    d = rng.exponential(size=(rows, n)) ** 3 * (rng.random((rows, n)) < 0.8)
    budget = 10.0 ** rng.uniform(-3, 1, size=rows)
    w, power, evaluations = helpers.secular_multiplier(g, d, budget)
    searched = w > 0.0
    assert searched.sum() > rows // 2
    assert np.all(power <= budget)
    assert np.all(power[searched] >= budget[searched] * (1.0 - tol) * (1.0 - 1e-12))
    assert evaluations.max() <= 8
    np.testing.assert_allclose(power, np.sum(g / (d + w[:, None]) ** 2, axis=1), rtol=1e-12)


@pytest.mark.parametrize("scenario", [
    ScenarioConfig(),
    ScenarioConfig(cells=3, ue_tx_antennas=4, ue_rx_antennas=4),
    ScenarioConfig(bs_tx_antennas=64, bs_rx_antennas=64),
], ids=["default", "three_cells_four_antenna_ues", "64_bs_antennas"])
def test_search_rows_are_independent(scenario, monkeypatch):
    # a row's multiplier, power and evaluation count depend on its own terms
    # and budget alone, bit for bit: a table may drop rows or gather rows of
    # several solves without moving any other row
    search, tables = jpaim._search, []

    def recorded(*table):
        tables.append(table)
        return search(*table)

    monkeypatch.setattr(jpaim, "_search", recorded)
    run(build_realization(scenario, 0), SolverConfig())
    assert len(tables) > 10
    rng = np.random.default_rng(41)
    for g, d, budget, target in tables:
        whole = search(g, d, budget, target)
        rows = len(budget)
        subsets = [[i] for i in range(rows)] + [rows - 1 - np.arange(rows)]
        subsets += [rng.choice(rows, rng.integers(2, rows), replace=False) for _ in range(3)]
        for subset in subsets:
            part = search(g[subset], d[subset], budget[subset], target[subset])
            for got, want in zip(part, whole):
                assert got.tolist() == want[subset].tolist(), subset


def test_secular_multiplier_step_cap(monkeypatch):
    monkeypatch.setattr(jpaim, "SEARCH_MAX_EVALUATIONS", 1)
    with pytest.raises(RuntimeError, match="after 1 evaluations"):
        helpers.secular_multiplier([[1.0, 1.0]], [[0.0, 1.0]], 1.0)


def test_multiplier_searches_stay_within_eight_evaluations():
    # acceptance criterion 3's instances: every search of every block update
    rng = np.random.default_rng(20240203)
    cfg = SolverConfig()
    worst = 0
    for _ in range(20):
        real = helpers.random_small_realization(rng)
        state = jpaim.initialize(real)
        for _ in range(6):
            state = helpers.refresh_combiners(real, state)
            state, _, _, evaluations = helpers.precoder_step(real, state, cfg)
            worst = max(worst, *evaluations[0], *evaluations[1])
    assert 1 <= worst <= 8
    trace = run(build_realization(ScenarioConfig(), 3), cfg)
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
        trace = run(build_realization(scenario, seed), config)
        assert trace.iterations == iterations, f"seed {seed}"
        assert trace.final_report.loss == pytest.approx(final_loss, rel=1e-6), f"seed {seed}"


# ---------------------------------------------------------------------------
# the solver's promises over the accepted regimes
# ---------------------------------------------------------------------------


_REGIMES = helpers.regime_configs()


@pytest.mark.parametrize("index", range(len(_REGIMES)))
def test_promises_hold_over_the_accepted_regimes(index):
    # every algorithm runs; every final state and the projected state keep
    # their power budgets; every solve's final_report is evaluate of its
    # final state bit for bit, and the half-duplex phases' that of their
    # restricted realizations without the RSI penalty
    scenario, config = _REGIMES[index]
    real = build_realization(scenario, index)
    trace = run(real, config)
    nsp_report, projected = baselines.run_nsp(real, trace,
                                              max(1, scenario.bs_tx_antennas // 2))
    _, dl_trace, ul_trace = baselines.run_half_duplex(real, config)
    scored = [(real, trace.final_state, config.nu, trace.final_report),
              (real, projected, config.nu, nsp_report),
              (restrict_to_downlink(real), dl_trace.final_state, 0.0, dl_trace.final_report),
              (restrict_to_uplink(real), ul_trace.final_state, 0.0, ul_trace.final_report)]
    hw = real.hardware
    for r, state, nu, report in scored:
        assert np.all(state.dl_cell_powers() <= hw.p_bs_w * (1.0 + 1e-6))
        assert np.all(state.ul_powers() <= hw.p_ue_w * (1.0 + 1e-6))
        again = objective.evaluate(r, state, nu)
        for f in fields(again):
            np.testing.assert_array_equal(getattr(again, f.name), getattr(report, f.name),
                                          err_msg=f.name)


@pytest.mark.parametrize("index", range(len(_REGIMES)))
def test_no_solve_ends_on_a_rise_over_the_accepted_regimes(index):
    # the loss of every record of the jpaim solve and of both half-duplex
    # phases rises by at most criterion 1's slack, 1e-8 max(|loss|, 1)
    scenario, config = _REGIMES[index]
    real = build_realization(scenario, index)
    _, dl_trace, ul_trace = baselines.run_half_duplex(real, config)
    for name, trace in (("jpaim", run(real, config)),
                        ("downlink phase", dl_trace), ("uplink phase", ul_trace)):
        losses = helpers.losses(trace)
        rises = np.diff(losses) - 1e-8 * np.maximum(np.abs(losses[:-1]), 1.0)
        assert np.all(rises <= 0.0), name


def _scaled(realization, k: int, family: str):
    """`realization` scaled by c = 2^k in one family of `_FAMILIES`: both
    noise powers by c^2, and for "budgets" both power budgets by c^2, else
    every channel, estimate and truth, by c and the CSI-error variances by
    c^2, with the SI gains by 1/c for "channels, default nu"."""
    c = 2.0 ** k
    hw = realization.hardware
    hw = replace(hw, noise_bs_w=hw.noise_bs_w * c * c, noise_ue_w=hw.noise_ue_w * c * c)
    if family == "budgets":
        return replace(realization, hardware=replace(hw, p_bs_w=hw.p_bs_w * c * c,
                                                     p_ue_w=hw.p_ue_w * c * c))

    def scale(draft):
        draft.channels.x *= c
        draft.channels.x_true *= c
        draft.channels.err *= c * c

    if family == "channels, default nu":
        hw = replace(hw, si_gain=tuple(l / c for l in hw.si_gain))
    return replace(helpers.edited(realization, scale), hardware=hw)


# family: (beam factor as a power of c, ASIC depth shift in dB per k)
_FAMILIES = {"channels": (0, -20.0 * math.log10(2.0)),
             "channels, default nu": (0, -30.0 * math.log10(2.0)),
             "budgets": (1, 0.0)}


@pytest.mark.parametrize("k", [4, -6])
def test_power_of_two_scale_equivariance(k):
    """Two families of scalings by c = 2^k leave every solve of the sweep's
    configs as it was, bit for bit, apart from exact factors.

    "channels": the channels by c, the error variances and noise powers by
    c^2 and a numeric nu by c^-2.  Every covariance scales by c^2, the MMSE
    combiners by 1/c and the RSI by c^2, and each U^H H, each omega, each
    search row and each MSE is unchanged.  Under the default nu = l^2 the SI
    gains l go by 1/c as well ("channels, default nu"), so nu goes by c^-2
    there too.  "budgets": both power budgets and both noise powers by c^2
    and a numeric nu by c^-2, the channels and error variances unchanged.
    The beams then scale by c, every covariance by c^2, the combiners by
    1/c and the RSI by c^2.

    Every product by a power of two is exact, so each report field, every
    record's loss and the iteration count must match bit for bit, with the
    beams, the combiners and the RSI off by exactly their factors.  The
    ASIC depth 10 log10(l tr(T) / rsi) shifts by -20 k log10(2) dB in the
    channel family, by -30 k log10(2) dB under the default nu, and not at
    all for the budgets, to rounding only; 0 (a silent cell) and the cap
    stay, and a depth the shift would carry past the cap reads the cap.

    A unit slip or an absolute constant in a kernel breaks this.  The
    constants that could are the floor _TINY on the prefix sums in
    jpaim._bound_step, the 1e-30 guard of objective._depth_db and the 1e-15
    shift of a singular error matrix in objective._rate_bits; none of them
    fires on these configs.
    """
    c = 2.0 ** k
    for index, (scenario, config) in enumerate(_REGIMES):
        real = build_realization(scenario, index)
        base = run(real, config)
        nu = None if config.nu is None else config.nu / (c * c)
        for family in (("channels", "budgets") if nu is not None
                       else ("channels, default nu",)):
            beam, shift = _FAMILIES[family]
            trace = run(_scaled(real, k, family), replace(config, nu=nu))
            label = f"regime {index}, {family}, k = {k}"
            assert trace.iterations == base.iterations, label
            np.testing.assert_array_equal(helpers.losses(trace), helpers.losses(base), label)
            got, want = trace.final_report, base.final_report
            for name in ("sum_mse_dl", "sum_mse_ul", "loss", "sum_rate_dl", "sum_rate_ul"):
                assert repr(getattr(got, name)) == repr(getattr(want, name)), f"{label}: {name}"
            assert got.rsi_watts == tuple(r * c * c for r in want.rsi_watts), label
            for depth, before in zip(got.asic_depth_db, want.asic_depth_db):
                if before in (0.0, objective.ASIC_DEPTH_CAP_DB):    # a silent cell, or the cap
                    assert depth == before, label
                else:
                    assert depth == pytest.approx(min(before + shift * k,
                                                      objective.ASIC_DEPTH_CAP_DB),
                                                  rel=0, abs=1e-12), label
            a, b = trace.final_state, base.final_state
            np.testing.assert_array_equal(a.dl_beams, b.dl_beams * c ** beam, label)
            np.testing.assert_array_equal(a.ul_beams, b.ul_beams * c ** beam, label)
            np.testing.assert_array_equal(a.dl_combiners, b.dl_combiners / c, label)
            np.testing.assert_array_equal(a.ul_combiners, b.ul_combiners / c, label)


# ---------------------------------------------------------------------------
# the solver against a known global optimum
# ---------------------------------------------------------------------------

# one cell and one user of either direction and none of the other, with ideal
# converters, ideal cancellation and perfect CSI: no distortion, no RSI and no
# error floor
_IDEAL = dict(cells=1, adc_bits=math.inf, asic_db=math.inf, csi_error_factor=0.0)
SINGLE_USER = {"dl": ScenarioConfig(dl_users=1, ul_users=0, dl_streams=2, **_IDEAL),
               "ul": ScenarioConfig(dl_users=0, ul_users=1, ul_streams=2, **_IDEAL)}


def _water_filling(realization, direction: str):
    """The minimum sum MSE of a single-user realization of `direction` and a
    state that reaches it: MMSE water-filling over the eigenmodes lambda_i
    of H^H H / sigma^2 of the user's link, whose sum MSE is
    sum_i 1 / (1 + p_i lambda_i) (Sampath, Stoica & Paulraj 2001; Palomar,
    Cioffi & Lagunas 2003).  The powers p_i = (mu / sqrt(lambda_i) -
    1 / lambda_i)^+ spend the whole budget P, and the combiners are the
    MMSE ones."""
    hw, state = realization.hardware, initialize(realization)
    if direction == "dl":
        rx, tx, noise, budget = dl_node(0, 0), bs_node(0), hw.noise_ue_w, hw.p_bs_w
        streams, beams, combiners = realization.dl_streams, state.dl_beams, state.dl_combiners
    else:
        rx, tx, noise, budget = bs_node(0), ul_node(0, 0), hw.noise_bs_w, hw.p_ue_w
        streams, beams, combiners = realization.ul_streams, state.ul_beams, state.ul_combiners
    h = helpers.link(realization, rx, tx).est
    lam, vectors = np.linalg.eigh(hermitian(h) @ h / noise)
    lam, vectors = lam[::-1][:streams], vectors[:, ::-1][:, :streams]
    for active in range(streams, 0, -1):    # drop the weakest mode while its power is negative
        mu = (budget + np.sum(1.0 / lam[:active])) / np.sum(lam[:active] ** -0.5)
        power = np.maximum(mu / np.sqrt(lam) - 1.0 / lam, 0.0)
        if np.all(power[:active] > 0.0):
            break
    beam = vectors * np.sqrt(power)
    received = h @ beam
    combiner = np.linalg.solve(received @ hermitian(received) + noise * np.eye(len(h)), received)
    beams[0, 0], combiners[0, 0] = beam, combiner
    return float(np.sum(1.0 / (1.0 + power * lam))), state


@pytest.mark.parametrize("direction", ["dl", "ul"])
def test_solver_never_beats_the_single_user_water_filling_optimum(direction):
    # evaluate scores the water-filling state at the closed-form optimum, and
    # no solve ends below it beyond rounding: this guards the loss and the
    # oracle together.  How far above it the default stop ends is a measured
    # figure in the README, not a gate here.
    for seed in range(20):
        real = build_realization(SINGLE_USER[direction], seed)
        optimum, state = _water_filling(real, direction)
        budget = real.hardware.p_bs_w if direction == "dl" else real.hardware.p_ue_w
        power = state.dl_cell_powers().sum() + state.ul_powers().sum()
        assert power == pytest.approx(budget, rel=1e-12)
        assert objective.evaluate(real, state, None).loss == pytest.approx(optimum, rel=1e-9)
        loss = run(real, SolverConfig()).final_report.loss
        assert loss >= optimum * (1.0 - 1e-9), f"seed {seed}: {loss} below {optimum}"
