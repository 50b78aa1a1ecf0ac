"""Transmit/receive covariance assembly and the distortion-aware quadratic forms."""

import numpy as np
import pytest

import helpers
from ibfdsim import covariance
from ibfdsim.model import ScenarioConfig, bs_node, build_realization, dl_node, ul_node


def test_tx_covariance_hand_case():
    v = np.array([[1.0 + 0j], [2.0j]])
    t = covariance.tx_covariance_dl(0.5, v, kappa=0.1)
    gram = v @ v.conj().T
    expected = 0.25 * (gram + 0.1 * np.diag(np.diag(gram)))
    np.testing.assert_allclose(t, expected)
    np.testing.assert_allclose(np.trace(t).real, 0.25 * 5.0 * 1.1)
    # uplink variant shares the form
    np.testing.assert_allclose(covariance.tx_covariance_ul(0.5, v, 0.1), expected)


def test_cell_tx_covariance_sums_users():
    real = build_realization(helpers.small_config(), 1)
    state = helpers.random_state(real, 2)
    kappa = real.hardware.kappa_bs
    for g in range(real.cell_count):
        expected = sum(
            covariance.tx_covariance_dl(state.dl_coefficients[g][k],
                                        state.dl_precoders[g][k], kappa)
            for k in range(real.topology.dl_counts[g]))
        np.testing.assert_allclose(covariance.cell_tx_covariance(real, state, g),
                                   expected, rtol=1e-12)


def test_csi_error_variance_hand_sum():
    real = build_realization(helpers.small_config(csi_error_factor=1e-2), 4)
    state = helpers.random_state(real, 5)
    rx = dl_node(0, 0)
    expected = 0.0
    for g in range(real.cell_count):
        t = covariance.cell_tx_covariance(real, state, g)
        expected += real.channels.err_var(rx, bs_node(g)) * np.trace(t).real
    for g, k in real.ul_users():
        t = covariance.tx_covariance_ul(state.ul_coefficients[g][k],
                                        state.ul_precoders[g][k],
                                        real.hardware.kappa_ue)
        expected += real.channels.err_var(rx, ul_node(g, k)) * np.trace(t).real
    assert covariance.csi_error_variance(real, state, rx) == pytest.approx(
        expected, rel=1e-12)


def test_rx_covariance_explicit_assembly():
    real = build_realization(helpers.small_config(csi_error_factor=1e-3), 8)
    state = helpers.random_state(real, 9)
    hw = real.hardware

    def manual(rx, m, beta, noise_w):
        base = np.zeros((m, m), dtype=complex)
        sig_hat = 0.0
        for g in range(real.cell_count):
            t = covariance.cell_tx_covariance(real, state, g)
            h = real.channels.est(rx, bs_node(g))
            base += h @ t @ h.conj().T
            sig_hat += real.channels.err_var(rx, bs_node(g)) * np.trace(t).real
        for g, k in real.ul_users():
            t = covariance.tx_covariance_ul(state.ul_coefficients[g][k],
                                            state.ul_precoders[g][k], hw.kappa_ue)
            h = real.channels.est(rx, ul_node(g, k))
            base += h @ t @ h.conj().T
            sig_hat += real.channels.err_var(rx, ul_node(g, k)) * np.trace(t).real
        return (base + beta * np.diag(np.diag(base))
                + (noise_w + sig_hat) * np.eye(m))

    for g, k in real.dl_users():
        got = covariance.rx_covariance_dl(real, state, k, g)
        np.testing.assert_allclose(
            got, manual(dl_node(g, k), real.antennas.ue_rx, hw.beta_ue, hw.noise_ue_w),
            rtol=1e-11)
        assert np.allclose(got, got.conj().T)
        assert np.all(np.linalg.eigvalsh(got) > 0)
    for g in range(real.cell_count):
        got = covariance.rx_covariance_ul(real, state, g)
        np.testing.assert_allclose(
            got, manual(bs_node(g), real.antennas.bs_rx, hw.beta_bs, hw.noise_bs_w),
            rtol=1e-11)


def test_rx_covariance_uses_true_si_channel():
    # the SI link stores truth as its estimate, so the BS covariance must
    # move one-for-one with a manual edit of that stored matrix
    real = build_realization(helpers.small_config(cells=1, asic_db=0.0), 3)
    state = helpers.random_state(real, 4)
    before = covariance.rx_covariance_ul(real, state, 0)
    link = real.channels.links[(bs_node(0), bs_node(0))]
    link.true *= 2.0
    after = covariance.rx_covariance_ul(real, state, 0)
    t = covariance.cell_tx_covariance(real, state, 0)
    h = link.true / 2.0
    delta = 3.0 * (h @ t @ h.conj().T)
    np.testing.assert_allclose(after - before,
                               delta + real.hardware.beta_bs * np.diag(np.diag(delta)),
                               rtol=1e-9)


def test_f1_transmit_side_duality():
    # v^H f1(h^H, u, st, sr) v equals the receive-side quadratic
    # tr(u^H (h T h^H + sr diag(h T h^H)) u) with T = vv^H + st diag(vv^H)
    rng = np.random.default_rng(10)
    for _ in range(20):
        m, n, b = rng.integers(1, 5, size=3)
        h = helpers.cn(rng, (m, n))
        u = helpers.cn(rng, (m, b))
        v = helpers.cn(rng, (n, 1))
        st, sr = rng.uniform(0.0, 0.5, size=2)
        t = v @ v.conj().T + st * np.diag(np.diag(v @ v.conj().T))
        inner = h @ t @ h.conj().T
        expected = np.trace(u.conj().T @ (inner + sr * np.diag(np.diag(inner))) @ u)
        quad = (v.conj().T @ covariance.f1(h.conj().T, u, st, sr) @ v)[0, 0]
        assert quad.real == pytest.approx(expected.real, rel=1e-11)


def test_f1_is_hermitian_psd():
    rng = np.random.default_rng(11)
    y = helpers.cn(rng, (3, 4))
    x = helpers.cn(rng, (4, 2))
    out = covariance.f1(y, x, 0.2, 0.3)
    np.testing.assert_allclose(out, out.conj().T, atol=1e-14)
    assert np.all(np.linalg.eigvalsh(out) >= -1e-12)


def test_f2_matches_f1_contraction():
    rng = np.random.default_rng(12)
    for _ in range(20):
        a, b, c = rng.integers(1, 5, size=3)
        z = helpers.cn(rng, (a, b))
        y = helpers.cn(rng, (a, c))
        x = helpers.cn(rng, (c, 2))
        st, sr = rng.uniform(0.0, 0.5, size=2)
        got = covariance.f2(z, y, x, st, sr)
        expected = np.trace(x.conj().T @ covariance.f1(y.conj().T, z, st, sr) @ x)
        assert got == pytest.approx(expected.real, rel=1e-11)


def test_estimation_error_trace_identity_monte_carlo():
    # E{Delta T Delta^H} = err_var tr(T) I for i.i.d. complex normal errors
    rng = np.random.default_rng(13)
    rows, cols = 3, 4
    t = helpers.cn(rng, (cols, cols))
    t = t @ t.conj().T
    err_var = 0.7
    draws, total = 200_000, np.zeros((rows, rows), dtype=complex)
    for _ in range(10):
        delta = helpers.cn(rng, (draws // 10, rows, cols)) * np.sqrt(err_var)
        total += np.einsum("dik,kl,djl->ij", delta, t, delta.conj())
    sample = total / draws
    target = err_var * np.trace(t).real
    np.testing.assert_allclose(np.diag(sample).real, target, rtol=0.03)
    off = sample - np.diag(np.diag(sample))
    assert np.max(np.abs(off)) < 0.01 * target


def test_rx_covariance_against_signal_chain():
    # quick Monte-Carlo cross-check; the acceptance suite runs the full-size one
    cfg = helpers.small_config(cells=1, adc_bits=4.0, csi_error_factor=1e-2,
                               asic_db=40.0)
    real = build_realization(cfg, 21)
    state = helpers.solved_state(real, iterations=2)
    cov_hat, mse_hat = helpers.mc_estimates(real, state, draws=40_000, seed=22)
    c = covariance.rx_covariance_ul(real, state, 0)
    assert np.linalg.norm(cov_hat[bs_node(0)] - c) / np.linalg.norm(c) < 0.05
    c = covariance.rx_covariance_dl(real, state, 0, 0)
    assert np.linalg.norm(cov_hat[dl_node(0, 0)] - c) / np.linalg.norm(c) < 0.05


def test_transmit_grams_match_per_link_f1_sums():
    # reference: the per-link loop the stacked kernel replaced, over every
    # receiver in the network, for each BS and each uplink user; distinct
    # distortion factors so that a swapped one shows
    from dataclasses import replace

    from ibfdsim import jpaim
    for seed, overrides in ((23, {}), (24, dict(cells=3, dl_users=2, ul_users=1))):
        real = build_realization(helpers.small_config(asic_db=10.0, **overrides), seed)
        real = replace(real, hardware=replace(real.hardware, kappa_bs=0.01, kappa_ue=0.02,
                                              beta_bs=0.03, beta_ue=0.04))
        state = helpers.random_state(real, seed + 1)
        hw, links = real.hardware, real.channels
        omega_bs, omega_ul = jpaim.compute_omegas(real, state)

        def summed(tx, kappa):
            total = 0.0
            for j, i in real.dl_users():
                h = links.est(dl_node(j, i), tx)
                total = total + covariance.f1(h.conj().T, state.dl_combiners[j][i], kappa,
                                              hw.beta_ue)
            for j, i in real.ul_users():
                h = links.est(bs_node(j), tx)
                total = total + covariance.f1(h.conj().T, state.ul_combiners[j][i], kappa,
                                              hw.beta_bs)
            return total

        for g in range(real.cell_count):
            np.testing.assert_allclose(omega_bs[g], summed(bs_node(g), hw.kappa_bs),
                                       rtol=1e-11, atol=1e-11 * np.abs(omega_bs[g]).max())
        for g, k in real.ul_users():
            np.testing.assert_allclose(omega_ul[g][k], summed(ul_node(g, k), hw.kappa_ue),
                                       rtol=1e-11, atol=1e-11 * np.abs(omega_ul[g][k]).max())
