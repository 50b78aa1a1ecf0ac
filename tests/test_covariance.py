"""Transmit/receive covariance assembly and the distortion-aware quadratic forms."""

import numpy as np
import pytest

import helpers
from helpers import bs_node, dl_node, ul_node
from ibfdsim import covariance
from ibfdsim.model import (ScenarioConfig, build_realization, restrict_to_downlink,
                           restrict_to_uplink)
from ibfdsim.stacked import columns


def test_tx_covariance_hand_case():
    v = np.array([[1.0 + 0j], [2.0j]])
    t = helpers.tx_gram(0.5 * v, kappa=0.1)
    gram = v @ v.conj().T
    expected = 0.25 * (gram + 0.1 * np.diag(np.diag(gram)))
    np.testing.assert_allclose(t, expected)
    np.testing.assert_allclose(np.trace(t).real, 0.25 * 5.0 * 1.1)


def test_cell_tx_covariance_sums_users():
    real = build_realization(helpers.small_config(), 1)
    state = helpers.random_state(real, 2)
    kappa = real.hardware.kappa_bs
    cov = helpers.state_covariances(real, state)
    for g in range(real.cell_count):
        expected = sum(
            helpers.tx_gram(state.dl_beams[g][k], kappa)
            for k in range(real.channels.k_d))
        np.testing.assert_allclose(helpers.tx_gram(columns(state.dl_beams[g]), kappa),
                                   expected, rtol=1e-12)
        assert cov.cell_power[g] == pytest.approx(np.trace(expected).real, rel=1e-12)


def test_csi_error_variance_hand_sum():
    real = build_realization(helpers.small_config(csi_error_factor=1e-2), 4)
    state = helpers.random_state(real, 5)
    rx = dl_node(0, 0)
    expected = 0.0
    for g in range(real.cell_count):
        t = helpers.tx_gram(columns(state.dl_beams[g]), real.hardware.kappa_bs)
        expected += helpers.link(real, rx, bs_node(g)).err_var * np.trace(t).real
    for g, k in real.ul_users():
        t = helpers.tx_gram(state.ul_beams[g][k], real.hardware.kappa_ue)
        expected += helpers.link(real, rx, ul_node(g, k)).err_var * np.trace(t).real
    # the floor is what the error variances add to the receive covariance: the
    # same covariance with them zeroed differs by the CSI-error power times I
    no_error = helpers.edited(real, lambda draft: draft.channels.err.fill(0.0))
    floor = (helpers.state_covariances(real, state).dl_rx[0, 0]
             - helpers.state_covariances(no_error, state).dl_rx[0, 0])
    np.testing.assert_array_equal(floor - np.diag(np.diag(floor)), 0.0)
    assert np.diag(floor).real == pytest.approx(np.full(len(floor), expected), rel=1e-12)


def test_rx_covariance_explicit_assembly():
    real = build_realization(helpers.small_config(csi_error_factor=1e-3), 8)
    state = helpers.random_state(real, 9)
    hw = real.hardware

    def manual(rx, m, beta, noise_w):
        base = np.zeros((m, m), dtype=complex)
        sig_hat = 0.0
        for g in range(real.cell_count):
            t = helpers.tx_gram(columns(state.dl_beams[g]), hw.kappa_bs)
            h = helpers.link(real, rx, bs_node(g)).est
            base += h @ t @ h.conj().T
            sig_hat += helpers.link(real, rx, bs_node(g)).err_var * np.trace(t).real
        for g, k in real.ul_users():
            t = helpers.tx_gram(state.ul_beams[g][k], hw.kappa_ue)
            h = helpers.link(real, rx, ul_node(g, k)).est
            base += h @ t @ h.conj().T
            sig_hat += helpers.link(real, rx, ul_node(g, k)).err_var * np.trace(t).real
        return (base + beta * np.diag(np.diag(base))
                + (noise_w + sig_hat) * np.eye(m))

    cov = helpers.state_covariances(real, state)
    for g, k in helpers.dl_users(real):
        got = cov.dl_rx[g, k]
        np.testing.assert_allclose(
            got, manual(dl_node(g, k), real.channels.m_ue, hw.beta_ue, hw.noise_ue_w),
            rtol=1e-11)
        assert np.allclose(got, got.conj().T)
        assert np.all(np.linalg.eigvalsh(got) > 0)
    for g in range(real.cell_count):
        got = cov.bs_rx[g]
        np.testing.assert_allclose(
            got, manual(bs_node(g), real.channels.m_bs, hw.beta_bs, hw.noise_bs_w),
            rtol=1e-11)


def test_rx_covariance_uses_true_si_channel():
    # the SI link stores truth as its estimate, so the BS covariance must
    # move one-for-one with a manual edit of that stored matrix
    real = build_realization(helpers.small_config(cells=1, asic_db=0.0), 3)
    state = helpers.random_state(real, 4)
    before = helpers.state_covariances(real, state).bs_rx[0]

    def double(draft):
        link = helpers.link(draft, bs_node(0), bs_node(0))
        link.est *= 2.0

    after = helpers.state_covariances(helpers.edited(real, double), state).bs_rx[0]
    t = helpers.tx_gram(columns(state.dl_beams[0]), real.hardware.kappa_bs)
    h = helpers.link(real, bs_node(0), bs_node(0)).est
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
        quad = (v.conj().T @ helpers.f1(h.conj().T, u, st, sr) @ v)[0, 0]
        assert quad.real == pytest.approx(expected.real, rel=1e-11)


def test_f1_is_hermitian_psd():
    rng = np.random.default_rng(11)
    y = helpers.cn(rng, (3, 4))
    x = helpers.cn(rng, (4, 2))
    out = helpers.f1(y, x, 0.2, 0.3)
    np.testing.assert_allclose(out, out.conj().T, atol=1e-14)
    assert np.all(np.linalg.eigvalsh(out) >= -1e-12)


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
    cov = helpers.state_covariances(real, state)
    c = cov.bs_rx[0]
    assert np.linalg.norm(cov_hat[bs_node(0)] - c) / np.linalg.norm(c) < 0.05
    c = cov.dl_rx[0, 0]
    assert np.linalg.norm(cov_hat[dl_node(0, 0)] - c) / np.linalg.norm(c) < 0.05


def test_transmit_grams_match_per_link_f1_sums():
    # reference: the per-link loop the stacked kernel replaced, over every
    # receiver in the network, for each BS and each uplink user; distinct
    # distortion factors so that a swapped one shows
    from dataclasses import replace

    for seed, overrides in ((23, {}), (24, dict(cells=3, dl_users=2, ul_users=1))):
        real = build_realization(helpers.small_config(asic_db=10.0, **overrides), seed)
        real = replace(real, hardware=replace(real.hardware, kappa_bs=0.01, kappa_ue=0.02,
                                              beta_bs=0.03, beta_ue=0.04))
        state = helpers.random_state(real, seed + 1)
        hw = real.hardware
        omega_bs, omega_ul = covariance.transmit_grams(real.channels, hw,
                                                     (state.dl_combiners, state.ul_combiners))

        def summed(tx, kappa):
            total = 0.0
            for j, i in helpers.dl_users(real):
                h = helpers.link(real, dl_node(j, i), tx).est
                total = total + helpers.f1(h.conj().T, state.dl_combiners[j][i], kappa,
                                           hw.beta_ue)
            for j, i in real.ul_users():
                h = helpers.link(real, bs_node(j), tx).est
                total = total + helpers.f1(h.conj().T, state.ul_combiners[j][i], kappa,
                                           hw.beta_bs)
            return total

        for g in range(real.cell_count):
            np.testing.assert_allclose(omega_bs[g], summed(bs_node(g), hw.kappa_bs),
                                       rtol=1e-11, atol=1e-11 * np.abs(omega_bs[g]).max())
        for g, k in real.ul_users():
            np.testing.assert_allclose(omega_ul[g][k], summed(ul_node(g, k), hw.kappa_ue),
                                       rtol=1e-11, atol=1e-11 * np.abs(omega_ul[g][k]).max())


def test_diagonal_is_a_view_of_a_c_contiguous_stack_only():
    # stacked.diagonal reads the diagonal as a strided view of the flat
    # matrices, which only a C-contiguous stack lays out as it assumes
    from ibfdsim.stacked import diagonal
    stack = np.arange(2 * 3 * 3, dtype=float).reshape(2, 3, 3)
    view = diagonal(stack)
    np.testing.assert_array_equal(view, np.diagonal(stack, axis1=-2, axis2=-1))
    assert np.shares_memory(view, stack)
    for strided in (stack.swapaxes(-2, -1), stack[:, :2, :2], stack[:, :, ::-1],
                    np.asfortranarray(stack)):
        with pytest.raises(ValueError, match="^diagonal needs a C-contiguous stack"):
            diagonal(strided)


@pytest.mark.parametrize("case", ["random_small", "one_antenna_users", "downlink_phase",
                                  "uplink_phase"])
def test_stored_conjugate_matches_per_call_hermitian(case):
    # the channels store X^H once; its blocks, and the kernels that read them,
    # give the same bits as conjugating X on every call
    from dataclasses import fields

    from ibfdsim.stacked import hermitian
    rng = np.random.default_rng(40)
    overrides = dict(ue_rx_antennas=1, ue_tx_antennas=1) if case == "one_antenna_users" else {}
    real = helpers.random_small_realization(rng, **overrides)
    real = {"downlink_phase": restrict_to_downlink,
            "uplink_phase": restrict_to_uplink}.get(case, lambda r: r)(real)
    ch, hw = real.channels, real.hardware
    buffers = []
    for stored, block in ((ch.dl_h, ch.dl), (ch.bs_h, ch.bs),
                          (ch.from_bs_h, ch.from_bs), (ch.from_ul_h, ch.from_ul)):
        np.testing.assert_array_equal(stored, hermitian(block))
        buffers += [stored.base] if stored.size else []
    # the four views are blocks of one buffer, a C-contiguous conj(X), not copies
    assert all(buffer is buffers[0] for buffer in buffers)
    assert buffers[0].flags.c_contiguous
    np.testing.assert_array_equal(buffers[0], ch.x.conj())
    state = helpers.random_state(real, 41)
    beams = (state.dl_beams, state.ul_beams)
    got, want = covariance.covariances(ch, hw, beams), helpers.per_call_covariances(ch, hw, beams)
    for field in fields(got):
        a, b = getattr(got, field.name), getattr(want, field.name)
        pairs = zip(a, b) if field.name == "signal" else [(a, b)]    # signal: (H W_dl, H W_ul)
        for a, b in pairs:
            np.testing.assert_array_equal(a, b, err_msg=field.name)
    combiners = (state.dl_combiners, state.ul_combiners)
    for a, b in zip(covariance.transmit_grams(ch, hw, combiners),
                    helpers.per_call_transmit_grams(ch, hw, combiners)):
        np.testing.assert_array_equal(a, b)


_SCENARIOS = {
    "default": lambda: build_realization(ScenarioConfig(), 1),
    "three_cells_csi": lambda: build_realization(
        ScenarioConfig(cells=3, dl_users=3, ul_users=1, csi_error_factor=1e-2), 2),
    "strong_si": lambda: build_realization(ScenarioConfig(asic_db=0.0), 3),
    "wide_array": lambda: build_realization(
        ScenarioConfig(bs_tx_antennas=64, bs_rx_antennas=64), 4),
    "downlink_phase": lambda: restrict_to_downlink(build_realization(ScenarioConfig(), 5)),
    "uplink_phase": lambda: restrict_to_uplink(build_realization(ScenarioConfig(), 6)),
}


@pytest.mark.parametrize("case", sorted(_SCENARIOS))
def test_covariances_match_per_link_sums(case):
    # every field of the stacked assembly against the explicit per-link sums
    # sum_tx H T H^H with T = tx_gram(W) per transmitter; distinct distortion
    # factors, so that a swapped one shows
    from dataclasses import replace

    from ibfdsim.objective import score
    real = _SCENARIOS[case]()
    real = replace(real, hardware=replace(real.hardware, kappa_bs=0.01, kappa_ue=0.02,
                                          beta_bs=0.03, beta_ue=0.04))
    hw = real.hardware
    state = helpers.random_state(real, 7)
    w_dl, w_ul = state.dl_beams, state.ul_beams
    ch = real.channels
    cov = covariance.covariances(ch, hw, (w_dl, w_ul))
    tx = {bs_node(g): sum((helpers.tx_gram(w, hw.kappa_bs) for w in w_dl[g]),
                          np.zeros((real.channels.n_bs,) * 2, dtype=complex))
          for g in range(real.cell_count)}
    tx.update({ul_node(g, k): helpers.tx_gram(w_ul[g, k], hw.kappa_ue)
               for g, k in real.ul_users()})

    def close(got, expected):
        assert got.shape == expected.shape
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)

    def check(rx, got_rx, beta, noise_w):
        m = got_rx.shape[-1]
        base, csi = np.zeros((m, m), dtype=complex), 0.0
        for node, t in tx.items():
            link = helpers.link(real, rx, node)
            base += link.est @ t @ link.est.conj().T
            csi += link.err_var * np.trace(t).real
        close(got_rx, base + beta * np.diag(np.diag(base)) + (noise_w + csi) * np.eye(m))

    for g, k in helpers.dl_users(real):
        check(dl_node(g, k), cov.dl_rx[g, k], hw.beta_ue, hw.noise_ue_w)
        close(cov.signal[0][g, k], helpers.link(real, dl_node(g, k), bs_node(g)).est @ w_dl[g, k])
    for g in range(real.cell_count):
        check(bs_node(g), cov.bs_rx[g], hw.beta_bs, hw.noise_bs_w)
    for g, k in real.ul_users():
        close(cov.signal[1][g, k], helpers.link(real, bs_node(g), ul_node(g, k)).est @ w_ul[g, k])
    assert cov.signal[0].shape == w_dl.shape[:2] + (real.channels.m_ue, w_dl.shape[-1])
    assert cov.signal[1].shape == w_ul.shape[:2] + (real.channels.m_bs, w_ul.shape[-1])

    # RSI and transmit power, as the report reads them from the beams
    cells = real.cell_count
    rep = score(ch, hw, (w_dl, w_ul), np.ones(cells),
                (np.zeros_like(cov.signal[0]), np.zeros_like(cov.signal[1])))[2]
    for g in range(cells):
        si = helpers.link(real, bs_node(g), bs_node(g)).est
        rsi = np.trace(si @ tx[bs_node(g)] @ si.conj().T).real
        power = np.trace(tx[bs_node(g)]).real
        close(np.asarray(rep.rsi_watts[g]), np.asarray(rsi))
        close(cov.cell_power[g], np.asarray(power))
        close(cov.cell_load[g], np.diag(tx[bs_node(g)]).real / (1.0 + hw.kappa_bs))
        if rsi > 0.0:
            assert rep.asic_depth_db[g] == pytest.approx(
                10.0 * np.log10(hw.si_gain[g] * power / rsi), rel=1e-12)
