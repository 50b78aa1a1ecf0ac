"""Acceptance suite: one test per shipping criterion, one printed verdict line each.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines inline.
Criteria that measure campaign-level physics report the measured numbers in
their verdict line so a failing bound is auditable."""

import filecmp
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

import helpers
from helpers import bs_node, dl_node
from ibfdsim import baselines, harness, jpaim
from ibfdsim.jpaim import SolverConfig
from ibfdsim.model import ScenarioConfig, build_realization


def _verdict(criterion, ok, detail):
    print(f"\ncriterion {criterion} {'PASS' if ok else 'FAIL'}: {detail}")
    return detail


def test_criterion_01_monotone_convergence():
    # default scenario, 200 seeds: loss non-increasing everywhere within 1e-8
    # relative slack; >= 99% of seeds reach a decrease below 1e-4 within 100
    # iterations; wall time under 3 minutes
    t0 = time.perf_counter()
    config = SolverConfig()
    violations = 0
    converged = 0
    iterations = []
    seeds = 200
    for seed in range(seeds):
        real = build_realization(ScenarioConfig(), seed)
        trace = jpaim.run(real, config, collect_metrics=False)
        losses = helpers.losses(trace)
        slack = 1e-8 * np.maximum(np.abs(losses[:-1]), 1.0)
        violations += int(np.any(np.diff(losses) > slack))
        converged += int(trace.converged)
        iterations.append(trace.iterations)
    elapsed = time.perf_counter() - t0
    fraction = converged / seeds
    p50, p99 = np.percentile(iterations, [50, 99])
    ok = violations == 0 and fraction >= 0.99 and elapsed < 180.0
    detail = (f"monotone violations {violations}/{seeds}, converged fraction "
              f"{fraction:.3f} (need >= 0.99), elapsed {elapsed:.0f}s (limit 180s); "
              f"iterations p50 {p50:.0f}, p99 {p99:.0f}, max {max(iterations)}")
    assert ok, _verdict(1, ok, detail)
    _verdict(1, ok, detail)


def test_criterion_02_block_stationarity():
    # 25 random instances: finite-difference gradient of each block's
    # Lagrangian right after that block's update, relative norm < 1e-5
    rng = np.random.default_rng(20240201)
    cfg = SolverConfig()
    worst = {"combiners": 0.0, "precoders": 0.0, "beam scales": 0.0}
    for _ in range(25):
        real = helpers.random_small_realization(rng)
        nu = cfg.nu
        state = helpers.solved_state(real, iterations=2)
        state = helpers.refresh_combiners(real, state)
        worst["combiners"] = max(worst["combiners"],
                                 helpers.combiner_stationarity(real, state, nu))
        state, multipliers, _, _ = helpers.precoder_step(real, state, cfg)
        worst["precoders"] = max(worst["precoders"],
                                 helpers.precoder_stationarity(real, state, nu, multipliers))
        # the precoder step optimizes the beams W, power included, so its
        # result is stationary in a real scale s_k of each user's W_k too,
        # with the same multipliers
        worst["beam scales"] = max(worst["beam scales"], helpers.beam_scale_stationarity(
            real, state, nu, multipliers))
    ok = all(v < 1e-5 for v in worst.values())
    detail = ("worst relative gradient norms: "
              + ", ".join(f"{k} {v:.2e}" for k, v in worst.items())
              + " (need < 1e-5)")
    assert ok, _verdict(2, ok, detail)
    _verdict(2, ok, detail)


def test_criterion_03_feasibility_and_slackness():
    # after every full iteration both power constraints hold within 1e-6
    # relative, and every strictly positive multiplier binds its constraint
    rng = np.random.default_rng(20240203)
    cfg = SolverConfig()
    checked = worst_excess = worst_slack = 0.0
    for _ in range(20):
        real = helpers.random_small_realization(rng)
        hw = real.hardware
        state = jpaim.initialize(real)
        for _ in range(6):
            state = helpers.refresh_combiners(real, state)
            state, multipliers, _, _ = helpers.precoder_step(real, state, cfg)
            for g in range(real.cell_count):
                if real.channels.k_d == 0:
                    continue
                worst_excess = max(worst_excess,
                                   state.dl_cell_power(g) / hw.p_bs_w - 1.0)
                if multipliers[0][g] > 0.0:
                    worst_slack = max(worst_slack,
                                      abs(state.dl_cell_power(g) / hw.p_bs_w - 1.0))
            for i, (g, k) in enumerate(real.ul_users()):
                worst_excess = max(worst_excess,
                                   state.ul_power(g, k) / hw.p_ue_w - 1.0)
                if multipliers[1][i] > 0.0:
                    worst_slack = max(worst_slack,
                                      abs(state.ul_power(g, k) / hw.p_ue_w - 1.0))
            checked += 1
    ok = worst_excess <= 1e-6 and worst_slack <= 1e-6
    detail = (f"{int(checked)} iterations checked; worst constraint excess "
              f"{worst_excess:.2e}, worst binding gap {worst_slack:.2e} "
              "(both need <= 1e-6)")
    assert ok, _verdict(3, ok, detail)
    _verdict(3, ok, detail)


def test_criterion_04_scalar_matrix_power_equivalence():
    # the bisection's eigen-domain power expression equals the assembled
    # precoder's transmit power to 1e-10 relative on 100 random instances
    rng = np.random.default_rng(20240204)
    cfg = SolverConfig()
    worst = 0.0
    for _ in range(100):
        real = helpers.random_small_realization(rng)
        state = helpers.refresh_combiners(real, jpaim.initialize(real))
        state, _, scalar_power, _ = helpers.precoder_step(real, state, cfg)
        for a, b in zip((*scalar_power[0], *scalar_power[1]),
                        (*state.dl_cell_powers(), *state.ul_powers().reshape(-1))):
            if max(a, b) > 0.0:
                worst = max(worst, abs(a - b) / max(a, b))
    ok = worst <= 1e-10
    detail = f"worst relative scalar-vs-matrix power gap {worst:.2e} (need <= 1e-10)"
    assert ok, _verdict(4, ok, detail)
    _verdict(4, ok, detail)


def test_criterion_05_monte_carlo_oracles():
    # analytic receive covariances and MSEs match 1e5-draw signal-chain
    # Monte Carlo within 2% on 10 random instances with inflated distortion;
    # the estimation-error trace identity holds at its stated tolerances
    rng = np.random.default_rng(20240205)
    worst_cov = worst_mse = 0.0
    for i in range(10):
        real = helpers.random_small_realization(rng, adc_bits=4.0,
                                                csi_error_factor=1e-2)
        state = helpers.solved_state(real, iterations=2)
        cov_hat, mse_hat = helpers.mc_estimates(real, state, draws=100_000,
                                                seed=1000 + i)
        cov = helpers.state_covariances(real, state)
        for g, k in helpers.dl_users(real):
            c = cov.dl_rx[g, k]
            worst_cov = max(worst_cov, np.linalg.norm(cov_hat[dl_node(g, k)] - c)
                            / np.linalg.norm(c))
            m = helpers.user_mse(real, state, "dl", k, g)
            worst_mse = max(worst_mse, abs(mse_hat[("dl", g, k)] - m) / m)
        for g in range(real.cell_count):
            c = cov.bs_rx[g]
            worst_cov = max(worst_cov, np.linalg.norm(cov_hat[bs_node(g)] - c)
                            / np.linalg.norm(c))
        for g, k in real.ul_users():
            m = helpers.user_mse(real, state, "ul", k, g)
            worst_mse = max(worst_mse, abs(mse_hat[("ul", g, k)] - m) / m)

    # E{Delta T Delta^H} = err_var tr(T) I
    worst_diag = worst_off = 0.0
    for i in range(5):
        rows = int(rng.integers(2, 5))
        cols = int(rng.integers(2, 5))
        t = helpers.cn(rng, (cols, cols))
        t = t @ t.conj().T
        err_var = float(rng.uniform(0.1, 2.0))
        total = np.zeros((rows, rows), dtype=complex)
        draws, chunk = 500_000, 100_000
        for _ in range(draws // chunk):
            delta = helpers.cn(rng, (chunk, rows, cols)) * math.sqrt(err_var)
            total += np.einsum("dik,kl,djl->ij", delta, t, delta.conj())
        sample = total / draws
        target = err_var * float(np.trace(t).real)
        worst_diag = max(worst_diag, float(np.max(np.abs(
            np.diag(sample).real / target - 1.0))))
        off = sample - np.diag(np.diag(sample))
        worst_off = max(worst_off, float(np.max(np.abs(off)) / target))

    ok = worst_cov < 0.02 and worst_mse < 0.02 and worst_diag < 0.02 and worst_off < 0.005
    detail = (f"worst covariance error {worst_cov:.4f}, worst MSE error "
              f"{worst_mse:.4f} (need < 0.02); trace identity: diagonal error "
              f"{worst_diag:.4f} (< 0.02), off-diagonal leakage {worst_off:.4f} "
              "(< 0.005)")
    assert ok, _verdict(5, ok, detail)
    _verdict(5, ok, detail)


def test_criterion_06_asic_capability_trend():
    # single cell, 1 DL + 1 UL user, unit SI gain, nu = 1: mean precoder
    # cancellation depth over 100 seeds >= 30 dB at 16 transmit antennas and
    # non-decreasing over 8 -> 16 -> 32 antennas.  The verdict also prints
    # the mean of the deepest cancellation any precoder could reach on the
    # same SI channels (helpers.best_asic_depth_db), which tells a short
    # solver from an unreachable target.
    cfg = SolverConfig(nu=1.0)
    means, bounds = {}, {}
    for n in (8, 16, 32):
        sc = ScenarioConfig(cells=1, dl_users=1, ul_users=1, bs_tx_antennas=n,
                            bs_rx_antennas=n, asic_db=0.0)
        depths, best = [], []
        for seed in range(100):
            real = build_realization(sc, seed)
            trace = jpaim.run(real, cfg, collect_metrics=False)
            depths.append(trace.final_report.asic_depth_db[0])
            best.append(helpers.best_asic_depth_db(real, 0))
        means[n], bounds[n] = float(np.mean(depths)), float(np.mean(best))
    ok = means[16] >= 30.0 and means[8] <= means[16] <= means[32]
    detail = ("mean depth dB: " + ", ".join(f"N={n}: {m:.2f}" for n, m in means.items())
              + " (need >= 30 at N=16 and non-decreasing); best any precoder reaches: "
              + ", ".join(f"N={n}: {m:.1f}" for n, m in bounds.items()))
    assert ok, _verdict(6, ok, detail)
    _verdict(6, ok, detail)


def test_criterion_07_nu_tradeoff():
    # paired seeds at unit SI gain: nu = 1 leaves >= 20 dB less RSI than
    # nu = 1e-24, and the mean downlink sum-rate ordering is reversed.  The
    # verdict also prints both figures over the seeds where both runs
    # converged, leaving out runs stopped at max_iterations, whose end points
    # move with last-bit rounding
    heavy, light = SolverConfig(nu=1.0), SolverConfig(nu=1e-24)
    rsi_heavy, rsi_light, dl_heavy, dl_light, both_converged = [], [], [], [], []
    for seed in range(40):
        real = build_realization(ScenarioConfig(asic_db=0.0), seed)
        run_h = jpaim.run(real, heavy, collect_metrics=False)
        run_l = jpaim.run(real, light, collect_metrics=False)
        rep_h, rep_l = run_h.final_report, run_l.final_report
        rsi_heavy.append(sum(rep_h.rsi_watts))
        rsi_light.append(sum(rep_l.rsi_watts))
        dl_heavy.append(rep_h.sum_rate_dl)
        dl_light.append(rep_l.sum_rate_dl)
        both_converged.append(run_h.converged and run_l.converged)

    def figures(keep):
        # RSI gap in dB and the mean DL rates at nu=1 and nu=1e-24 over the kept seeds
        r_h, r_l, d_h, d_l = (np.compress(keep, v) for v in (rsi_heavy, rsi_light,
                                                             dl_heavy, dl_light))
        return 10.0 * math.log10(np.mean(r_l) / np.mean(r_h)), np.mean(d_h), np.mean(d_l)

    gap_db, mean_heavy, mean_light = figures([True] * len(dl_heavy))
    reversed_ok = mean_light > mean_heavy
    ok = gap_db >= 20.0 and reversed_ok
    detail = (f"RSI gap {gap_db:.1f} dB (need >= 20); mean DL rate "
              f"{mean_heavy:.2f} at nu=1 vs {mean_light:.2f} at "
              f"nu=1e-24 (ordering reversed: {reversed_ok})")
    if any(both_converged):
        detail += ("; over the {} of {} seeds where both runs converged: RSI gap {:.1f} dB, "
                   "mean DL rate {:.2f} vs {:.2f}").format(
                       sum(both_converged), len(both_converged), *figures(both_converged))
    assert ok, _verdict(7, ok, detail)
    _verdict(7, ok, detail)


def test_criterion_08_nsp_properties():
    rng = np.random.default_rng(20240208)
    # full dimension is the identity map (machine precision), idempotence,
    # and the Rayleigh-quotient bound, over 100 random matrix instances
    worst_id = worst_idem = worst_bound = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        rows = int(rng.integers(2, 9))
        h = helpers.cn(rng, (rows, n))
        v = helpers.cn(rng, (n, int(rng.integers(1, 3))))
        kappa = float(rng.uniform(0.0, 0.3))
        dim = int(rng.integers(1, n + 1))
        worst_id = max(worst_id, float(np.max(np.abs(
            baselines.nsp_project(v, h, kappa, n) - v))))
        once = baselines.nsp_project(v, h, kappa, dim)
        twice = baselines.nsp_project(once, h, kappa, dim)
        worst_idem = max(worst_idem, float(np.max(np.abs(twice - once))))
        gram = h.conj().T @ h
        m = gram + kappa * np.diag(np.diag(gram))
        lam = np.linalg.eigvalsh(m)[dim - 1]
        quad = float(np.trace(once.conj().T @ m @ once).real)
        bound = lam * float(np.trace(once.conj().T @ once).real)
        if bound > 0.0:
            worst_bound = max(worst_bound, quad / bound - 1.0)

    # mean RSI is non-increasing as the projection dimension shrinks
    cfg = SolverConfig(max_iterations=20)
    dims = (4, 3, 2, 1)
    rsi_by_dim = {d: [] for d in dims}
    for seed in range(30):
        real = build_realization(helpers.small_config(cells=1, asic_db=0.0), seed)
        trace = jpaim.run(real, cfg, collect_metrics=False)
        for d in dims:
            rsi_by_dim[d].append(baselines.run_nsp(real, trace, d)[0].rsi_watts[0])
    means = [float(np.mean(rsi_by_dim[d])) for d in dims]
    monotone = all(a >= b * (1.0 - 1e-12) for a, b in zip(means, means[1:]))

    ok = (worst_id < 1e-12 and worst_idem < 1e-12 and worst_bound < 1e-9
          and monotone)
    detail = (f"identity residual {worst_id:.1e}, idempotence residual "
              f"{worst_idem:.1e}, bound violation {worst_bound:.1e}; mean RSI by "
              "dim " + ", ".join(f"{d}: {m:.2e}" for d, m in zip(dims, means)))
    assert ok, _verdict(8, ok, detail)
    _verdict(8, ok, detail)


def test_criterion_09_ibfd_gain_over_half_duplex():
    # 30 dB analog cancellation, combiners doing the digital part: mean IBFD
    # sum rate over 200 paired seeds should exceed the half-duplex reference
    # by at least 20%; the verdict also prints the downlink and uplink ratios,
    # to show which direction falls short
    cfg = SolverConfig()
    sc = ScenarioConfig(asic_db=30.0)
    ibfd, hd = [], []
    ibfd_dl, ibfd_ul, hd_dl, hd_ul = [], [], [], []
    for seed in range(200):
        real = build_realization(sc, seed)
        rep = jpaim.run(real, cfg, collect_metrics=False).final_report
        half = baselines.run_half_duplex(real, cfg)[0]
        ibfd.append(rep.sum_rate)
        hd.append(half.sum_rate)
        ibfd_dl.append(rep.sum_rate_dl)
        ibfd_ul.append(rep.sum_rate_ul)
        hd_dl.append(half.sum_rate_dl)
        hd_ul.append(half.sum_rate_ul)
    ratio = float(np.mean(ibfd) / np.mean(hd))
    ok = ratio >= 1.2
    detail = (f"mean IBFD rate {np.mean(ibfd):.2f} vs half-duplex {np.mean(hd):.2f} "
              f"bits/s/Hz, ratio {ratio:.3f} (need >= 1.2); downlink "
              f"{np.mean(ibfd_dl):.2f} vs {np.mean(hd_dl):.2f}, ratio "
              f"{np.mean(ibfd_dl) / np.mean(hd_dl):.3f}; uplink {np.mean(ibfd_ul):.2f} vs "
              f"{np.mean(hd_ul):.2f}, ratio {np.mean(ibfd_ul) / np.mean(hd_ul):.3f}")
    assert ok, _verdict(9, ok, detail)
    _verdict(9, ok, detail)


def test_criterion_10_complexity_goldens():
    golden = {
        (1, 1, 1, 1, 1): (21, 24, 45),
        (2, 2, 16, 2, 2): (71008, 49376, 120384),
        (4, 10, 16, 1, 1): (610488, 413928, 1024416),
    }
    results = {}
    for args, expected in golden.items():
        est = harness.complexity_estimate(*args)
        results[args] = (est.precoder_multiplications, est.power_multiplications,
                         est.total)
    ok = results == golden
    detail = "; ".join(f"{args} -> {got}" for args, got in results.items())
    assert ok, _verdict(10, ok, detail)
    _verdict(10, ok, detail)


def test_criterion_11_campaign_determinism(tmp_path):
    text = """
scenario.cells = 2
scenario.dl_users = 1
scenario.ul_users = 1
scenario.bs_tx_antennas = 8
scenario.bs_rx_antennas = 8
solver.max_iterations = 10
campaign.realizations = 6
campaign.algorithms = jpaim, nsp-jpaim, half-duplex
campaign.trace = true
campaign.workers = 2
"""
    outs = []
    for run in ("a", "b"):
        cfg = replace(harness.parse_config(text), output_dir=str(tmp_path / run))
        harness.run_campaign(cfg)
        outs.append(sorted(p.name for p in (tmp_path / run).iterdir()))
    assert outs[0] == outs[1]
    identical = all(
        filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name, shallow=False)
        for name in outs[0])
    ok = identical and "realizations.csv" in outs[0]
    detail = (f"{len(outs[0])} files compared byte-for-byte across two runs "
              f"({', '.join(outs[0])})")
    assert ok, _verdict(11, ok, detail)
    _verdict(11, ok, detail)
