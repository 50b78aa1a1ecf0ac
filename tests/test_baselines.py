"""Null-space projection and half-duplex reference schemes."""

import importlib.util
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import helpers
from ibfdsim import baselines, covariance, jpaim, objective, stacked
from ibfdsim.baselines import nsp_project, run_half_duplex, run_nsp
from ibfdsim.jpaim import SolverConfig
from ibfdsim.model import (ScenarioConfig, build_realization, realization_digest,
                           restrict_to_downlink, restrict_to_uplink)
from ibfdsim.stacked import BeamformingState


def test_nsp_full_dimension_is_identity():
    rng = np.random.default_rng(0)
    for _ in range(5):
        h = helpers.cn(rng, (4, 6))
        v = helpers.cn(rng, (6, 2))
        out = nsp_project(v, h, kappa_bs=0.1, subspace_dim=6)
        np.testing.assert_allclose(out, v, rtol=0.0, atol=1e-12)


def test_nsp_idempotent_and_contractive():
    rng = np.random.default_rng(1)
    for dim in (1, 3, 5):
        h = helpers.cn(rng, (6, 6))
        v = helpers.cn(rng, (6, 2))
        once = nsp_project(v, h, 0.2, dim)
        twice = nsp_project(once, h, 0.2, dim)
        np.testing.assert_allclose(twice, once, atol=1e-12)
        assert np.linalg.norm(once) <= np.linalg.norm(v) + 1e-12


def test_nsp_rayleigh_quotient_bound():
    # projected precoders never leave more SI than the D-th smallest
    # eigenvalue of the distortion-aware Gram matrix allows
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        h = helpers.cn(rng, (n, n))
        v = helpers.cn(rng, (n, 2))
        kappa = float(rng.uniform(0.0, 0.3))
        dim = int(rng.integers(1, n + 1))
        out = nsp_project(v, h, kappa, dim)
        gram = h.conj().T @ h
        m = gram + kappa * np.diag(np.diag(gram))
        lam = np.linalg.eigvalsh(m)[dim - 1]
        quad = np.trace(out.conj().T @ m @ out).real
        assert quad <= lam * np.trace(out.conj().T @ out).real * (1.0 + 1e-9) + 1e-30


def test_nsp_exact_null_space():
    # rank-deficient SI channel: projecting into its null space kills the RSI
    rng = np.random.default_rng(3)
    h = helpers.cn(rng, (2, 4))  # null space of dimension >= 2
    v = helpers.cn(rng, (4, 2))
    out = nsp_project(v, h, 0.0, 2)
    np.testing.assert_allclose(h @ out, 0.0, atol=1e-12)


def test_nsp_validation():
    rng = np.random.default_rng(4)
    h = helpers.cn(rng, (4, 4))
    v = helpers.cn(rng, (4, 1))
    with pytest.raises(ValueError):
        nsp_project(v, h, 0.1, 0)
    with pytest.raises(ValueError):
        nsp_project(v, h, 0.1, 5)
    with pytest.raises(ValueError):
        nsp_project(helpers.cn(rng, (3, 1)), h, 0.1, 2)


def test_run_nsp_projects_only_the_downlink_beams():
    real = build_realization(helpers.small_config(asic_db=0.0), 5)
    trace = jpaim.run(real, SolverConfig(max_iterations=2, threshold=1e-3))
    state = trace.final_state
    report, projected = run_nsp(real, trace, subspace_dim=2)
    np.testing.assert_array_equal(projected.ul_beams, state.ul_beams)
    assert not np.allclose(projected.dl_beams[0][0], state.dl_beams[0][0])
    # each cell's beams are projected with its own SI channel, as nsp_project
    # gives them on the realization's SI channels
    si = real.channels.si[:, None]
    np.testing.assert_array_equal(
        projected.dl_beams, nsp_project(state.dl_beams, si, real.hardware.kappa_bs, 2))
    # projection reduces RSI on this strongly coupled instance
    before = objective.evaluate(real, state, 0.0).rsi_watts
    for g in range(real.cell_count):
        assert report.rsi_watts[g] <= before[g] * (1.0 + 1e-9)


def test_run_nsp_full_dimension_matches_plain_solver():
    real = build_realization(helpers.small_config(), 6)
    cfg = SolverConfig(max_iterations=10)
    plain = jpaim.run(real, cfg)
    report, projected = run_nsp(real, plain, subspace_dim=real.channels.n_bs)
    # identity projection, then one extra combiner refresh
    refreshed = helpers.refresh_combiners(real, plain.final_state)
    np.testing.assert_allclose(projected.dl_beams[0][0],
                               refreshed.dl_beams[0][0], atol=1e-12)
    assert report.loss == pytest.approx(
        objective.evaluate(real, refreshed, cfg.nu).loss, rel=1e-10)


def test_run_nsp_assembles_once_and_reports_evaluate(monkeypatch):
    # the SI channels the solve derived serve the projection, and one
    # covariance assembly and one MMSE solve serve the combiner refresh and
    # the score, rates included; no SI channel is read again link by link,
    # and the score is evaluate's on the returned state
    real = build_realization(ScenarioConfig(), 3)
    trace = jpaim.run(real, SolverConfig())
    calls = {"covariances": 0, "mmse_combiners": 0, "link": 0}

    def counted(name, kernel):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return kernel(*args, **kwargs)
        return wrapper

    # wherever a module binds the name, so no call path escapes the count
    for name in calls:
        for owner in (stacked, covariance, objective, jpaim, baselines, stacked.Channels):
            if hasattr(owner, name):
                monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    report, projected = run_nsp(real, trace, subspace_dim=8)
    assert calls == {"covariances": 1, "mmse_combiners": 1, "link": 0}
    monkeypatch.undo()
    want = objective.evaluate(real, projected, None)
    for field in fields(want):
        assert getattr(report, field.name) == getattr(want, field.name), field.name


def test_a_realization_derives_its_channel_views_once(monkeypatch):
    # a realization's Channels derives its views once, when it is built:
    # hashing, the solve and the projection build none, and each
    # half-duplex phase builds its own restricted one
    builds = []
    derive = stacked.Channels.__post_init__

    def counted(channels):
        builds.append(channels)
        derive(channels)

    monkeypatch.setattr(stacked.Channels, "__post_init__", counted)
    real = build_realization(ScenarioConfig(), 3)
    assert len(builds) == 1
    realization_digest(real)
    assert len(builds) == 1
    cfg = SolverConfig(max_iterations=3)
    run_nsp(real, jpaim.run(real, cfg), subspace_dim=8)
    assert len(builds) == 1
    run_half_duplex(real, cfg)
    assert len(builds) == 3


def test_run_nsp_keeps_power_feasible():
    real = build_realization(helpers.small_config(asic_db=0.0), 7)
    trace = jpaim.run(real, SolverConfig(max_iterations=10))
    _, projected = run_nsp(real, trace, subspace_dim=1)
    hw = real.hardware
    for g in range(real.cell_count):
        assert projected.dl_cell_power(g) <= hw.p_bs_w * (1.0 + 1e-9)


def test_half_duplex_structure():
    real = build_realization(helpers.small_config(), 8)
    cfg = SolverConfig(max_iterations=40)
    result, dl_trace, ul_trace = run_half_duplex(real, cfg)
    dl_rep = dl_trace.final_report
    ul_rep = ul_trace.final_report
    assert result.sum_rate == pytest.approx(0.5 * (dl_rep.sum_rate + ul_rep.sum_rate),
                                            rel=1e-12)
    assert result.sum_rate_dl == pytest.approx(0.5 * dl_rep.sum_rate_dl, rel=1e-12)
    assert result.sum_rate_ul == pytest.approx(0.5 * ul_rep.sum_rate_ul, rel=1e-12)
    # each direction's MSE comes from its own phase; the losses add
    assert (result.sum_mse_dl, result.sum_mse_ul) == (dl_rep.sum_mse_dl, ul_rep.sum_mse_ul)
    assert result.loss == dl_rep.loss + ul_rep.loss
    # each phase sees only its own direction
    assert dl_rep.sum_rate_ul == 0.0
    assert ul_rep.sum_rate_dl == 0.0
    assert run_half_duplex(real, cfg)[0].sum_rate == pytest.approx(result.sum_rate)


@pytest.mark.parametrize("scenario", [
    ScenarioConfig(), helpers.small_config(cells=3, dl_users=2, csi_error_factor=1e-2),
], ids=["default", "three_cells_csi_error"])
def test_half_duplex_split_of_the_full_duplex_objective(scenario):
    # with the cross-direction blocks of X and err zeroed (downlink
    # users from uplink users, BSs from BSs, SI included) and nu = 0, the
    # full-duplex network is the two half-duplex phases side by side: its
    # objective on their beams and combiners equals theirs, bit for bit
    real = build_realization(scenario, 4)
    _, dl_trace, ul_trace = run_half_duplex(real, SolverConfig(max_iterations=5))
    ch = real.channels
    dl_rows, bs_cols, dl_users = ch.cells * ch.k_d * ch.m_ue, ch.cells * ch.n_bs, ch.cells * ch.k_d
    x, err = ch.x.copy(), ch.err.copy()
    x[:dl_rows, bs_cols:] = 0.0
    x[dl_rows:, :bs_cols] = 0.0
    err[:dl_users, ch.cells:] = 0.0
    err[dl_users:, :ch.cells] = 0.0
    split = replace(real, channels=replace(ch, x=x, err=err))
    dl, ul = dl_trace.final_state, ul_trace.final_state
    got = objective.evaluate(split, BeamformingState(dl.dl_beams, dl.dl_combiners,
                                                     ul.ul_beams, ul.ul_combiners), 0.0)
    dl_rep = objective.evaluate(restrict_to_downlink(real), dl, 0.0)
    ul_rep = objective.evaluate(restrict_to_uplink(real), ul, 0.0)
    assert got.loss == dl_rep.loss + ul_rep.loss
    assert (got.sum_mse_dl, got.sum_mse_ul) == (dl_rep.sum_mse_dl, ul_rep.sum_mse_ul)
    assert (got.sum_rate_dl, got.sum_rate_ul) == (dl_rep.sum_rate_dl, ul_rep.sum_rate_ul)


def test_half_duplex_has_no_self_interference_penalty():
    # neither phase has an SI link, so the downlink phase solution must not
    # depend on the SI gain at all
    base = dict(cells=1, dl_users=1, ul_users=1)
    weak = build_realization(ScenarioConfig(**base, asic_db=120.0), 9)
    strong = build_realization(ScenarioConfig(**base, asic_db=0.0), 9)
    cfg = SolverConfig(max_iterations=30)
    a = run_half_duplex(weak, cfg)[0]
    b = run_half_duplex(strong, cfg)[0]
    assert a.sum_rate_dl == pytest.approx(b.sum_rate_dl, rel=1e-9)


@pytest.mark.parametrize("scenario", [ScenarioConfig(), ScenarioConfig(asic_db=0.0)],
                         ids=["default", "strong_si"])
def test_half_duplex_does_not_depend_on_nu(scenario):
    # neither phase has an SI link, so the caller's nu, by default, zero or
    # one, weighs nothing: the same report, records and final states, bit
    # for bit (wall times aside)
    real = build_realization(scenario, 3)

    def solved(nu):
        report, *phases = run_half_duplex(real, SolverConfig(nu=nu))
        return repr(report), [
            ([trace.records[name].tobytes() for name in trace.records.dtype.names
              if not name.endswith("_ms")],
             [getattr(trace.final_state, f.name).tobytes() for f in fields(BeamformingState)])
            for trace in phases]

    assert solved(None) == solved(0.0) == solved(1.0)


def test_half_duplex_phases_stay_feasible():
    real = build_realization(helpers.small_config(), 10)
    _, dl_trace, ul_trace = run_half_duplex(real, SolverConfig(max_iterations=5))
    ul_state = ul_trace.final_state
    powers = ul_state.ul_powers().ravel().tolist()
    assert all(p <= real.hardware.p_ue_w * (1.0 + 1e-6) for p in powers)
    assert max(powers) > 0.0
    dl_state = dl_trace.final_state
    for g in range(real.cell_count):
        assert dl_state.dl_cell_power(g) <= real.hardware.p_bs_w * (1.0 + 1e-6)


def test_no_solver_kernel_runs_on_an_empty_block(monkeypatch):
    # a direction without users costs no eigh, solve, slogdet, row power or
    # record power, and its empty load is neither summed nor scaled (no empty
    # piece reaches a concatenate): neither a half-duplex phase, whose other
    # direction has zero-size axes, nor a full-duplex network without
    # downlink or without uplink users
    full, *one_way = (build_realization(ScenarioConfig(**users), 11)
                      for users in ({}, dict(dl_users=0), dict(ul_users=0)))
    operands = []

    def recorded(kernel, joined=False):
        def wrapper(*args, **kwargs):
            operands.extend(np.shape(a) for a in (args[0] if joined else args))
            return kernel(*args, **kwargs)
        return wrapper

    for owner, name in ((np.linalg, "eigh"), (np.linalg, "solve"), (np.linalg, "slogdet"),
                        (covariance, "row_powers"), (jpaim, "frobenius_sq")):
        monkeypatch.setattr(owner, name, recorded(getattr(owner, name)))
    # covariance's own numpy, whose concatenate records the pieces it joins
    monkeypatch.setattr(covariance, "np", SimpleNamespace(
        **{**vars(np), "concatenate": recorded(np.concatenate, joined=True)}))
    config = SolverConfig(max_iterations=3)
    run_half_duplex(full, config)
    for real in one_way:
        jpaim.run(real, config)
    assert operands
    assert [shape for shape in operands if 0 in shape] == []


@pytest.mark.parametrize("empty, kept", [("dl", "ul"), ("ul", "dl")])
def test_half_duplex_with_the_users_of_one_direction(empty, kept):
    # one phase has no users at all; with no BS both sending and receiving,
    # the other phase solves the full-duplex network without the RSI penalty
    real = build_realization(ScenarioConfig(**{f"{empty}_users": 0}), 12)
    report, dl_trace, ul_trace = run_half_duplex(real, SolverConfig())
    phases = {"dl": dl_trace, "ul": ul_trace}
    assert phases[empty].converged and phases[empty].final_report.loss == 0.0
    assert getattr(report, f"sum_mse_{empty}") == 0.0 == getattr(report, f"sum_rate_{empty}")
    full = jpaim.run(real, SolverConfig(nu=0.0))
    assert phases[kept].iterations == full.iterations
    for name in ("loss", f"sum_mse_{kept}"):
        assert getattr(report, name) == pytest.approx(getattr(full.final_report, name),
                                                      rel=1e-12)
    assert report.sum_rate == pytest.approx(0.5 * full.final_report.sum_rate, rel=1e-12)


# Recorded before the solver kernels took beams: (iterations, converged,
# loss, sum_rate) per seed 0-4, for run_half_duplex (the restricted
# realizations, with user axes of length 0) and for run_nsp at subspace_dim 8
# (the public adapter chain after the solve).
GOLDEN_HALF_DUPLEX = [(80, True, 0.27836157918322635, 65.44642659125043),
                      (31, True, 0.41965335815523686, 55.930210717213654),
                      (33, True, 0.17247920376000248, 72.97126335473497),
                      (63, True, 0.27702072137310996, 63.70217004525104),
                      (43, True, 0.790680763462732, 44.1701379349356)]
GOLDEN_NSP_DEFAULT = [(56, True, 5.535181843021187, 69.805431193213),
                      (23, True, 4.246002950306863, 39.12701532403955),
                      (35, True, 3.4141149715331793, 60.00100360248213),
                      (44, True, 4.247492506612422, 52.92138497103291),
                      (15, True, 7.016271673808155, 30.818310907878086)]
GOLDEN_NSP_STRONG_SI = [(100, False, 8.091342722272275, 36.122502085160534),
                        (47, True, 8.794907484397532, 36.668505300512685),
                        (48, True, 8.147687824631914, 24.91832173812829),
                        (77, True, 9.423118241663289, 17.730059527187073),
                        (48, True, 10.560619479330803, 19.18772018877321)]


@pytest.mark.parametrize("scenario, config, half_duplex, nsp", [
    (ScenarioConfig(), SolverConfig(), GOLDEN_HALF_DUPLEX, GOLDEN_NSP_DEFAULT),
    (ScenarioConfig(asic_db=0.0), SolverConfig(nu=1.0), GOLDEN_HALF_DUPLEX,
     GOLDEN_NSP_STRONG_SI),
], ids=["default", "strong_si"])
def test_baselines_match_goldens(scenario, config, half_duplex, nsp):
    for seed in range(5):
        real = build_realization(scenario, seed)
        hd, dl, ul = run_half_duplex(real, config)
        trace = jpaim.run(real, config)
        report, _ = run_nsp(real, trace, subspace_dim=8)
        for got, want in (((dl.iterations + ul.iterations, dl.converged and ul.converged,
                            hd.loss, hd.sum_rate), half_duplex[seed]),
                          ((trace.iterations, trace.converged, report.loss, report.sum_rate),
                           nsp[seed])):
            assert got[:2] == want[:2], f"seed {seed}"
            assert got[2:] == pytest.approx(want[2:], rel=1e-6), f"seed {seed}"


def test_solves_serve_what_the_benchmark_reads():
    # bench/checks.py reads each solve's records row by row (r.loss and
    # r.elapsed_ms) and the powers of each final state; one default
    # realization through jpaim, both half-duplex phases and nsp-jpaim
    spec = importlib.util.spec_from_file_location(
        "bench_checks", Path(__file__).resolve().parents[1] / "bench" / "checks.py")
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    real, config, log = build_realization(ScenarioConfig(), 0), SolverConfig(), checks.RunLog()
    trace = jpaim.run(real, config)
    log.after_solve((real, config), {}, trace)
    enter, leave = log.hooks()["baselines.run_half_duplex"]
    enter((real, config), {})
    result = run_half_duplex(real, config)
    for phase, trace_of_phase in zip((restrict_to_downlink(real), restrict_to_uplink(real)),
                                     result[1:]):
        log.after_solve((phase, config), {}, trace_of_phase)
    leave((real, config), {}, result)
    log.check_powers(real, run_nsp(real, trace, real.channels.n_bs // 2)[1], "nsp-jpaim")
    assert log.failures == {} and log.integrity == []
    assert len(log.iteration_ms) == trace.iterations
