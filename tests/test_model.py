"""Scenario construction: units, geometry, channel statistics, serialization."""

import math

import numpy as np
import pytest

import helpers
from ibfdsim import model
from ibfdsim.model import (ScenarioConfig, apply_uncertainty, bs_node, build_realization,
                           dl_node, generate_channel, generate_topology, load_realization,
                           los_probability, pathloss_umi, realization_digest,
                           restrict_to_downlink, restrict_to_uplink, save_realization,
                           serialize_realization, ul_node)


def test_unit_conversions():
    assert model.dbm_to_watts(24.0) == pytest.approx(0.25118864315095796, rel=1e-14)
    assert model.dbm_to_watts(23.0) == pytest.approx(0.1995262314968879, rel=1e-14)
    assert model.dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-14)
    assert model.db_to_linear(0.0) == 1.0
    assert model.db_to_linear(-30.0) == pytest.approx(1e-3, rel=1e-12)


def test_noise_variance_values():
    # -174 dBm/Hz over 10 MHz is -104 dBm; noise figure adds straight dB
    assert model.noise_variance(-174.0, 1e7, 13.0) == pytest.approx(
        7.943282347242822e-13, rel=1e-12)
    assert model.noise_variance(-174.0, 1e7, 9.0) == pytest.approx(
        3.1622776601683797e-13, rel=1e-12)
    assert model.noise_variance(-174.0, 1.0, 0.0) == pytest.approx(
        3.981071705534985e-21, rel=1e-12)


def test_distortion_factor_curve():
    # additive quantization noise factor (pi sqrt(3) / 2) 4^-bits
    assert model.distortion_factor_from_bits(12.0) == pytest.approx(
        1.6216630019851485e-07, rel=1e-12)
    assert model.distortion_factor_from_bits(6.0) == pytest.approx(
        0.0006642331656131168, rel=1e-12)
    # each extra bit cuts the factor by 4
    assert model.distortion_factor_from_bits(5.0) / model.distortion_factor_from_bits(
        6.0) == pytest.approx(4.0, rel=1e-12)


def test_los_probability_shape():
    assert los_probability(5.0) == pytest.approx(1.0)
    assert los_probability(18.0) == pytest.approx(1.0)
    vals = [los_probability(d) for d in (20.0, 50.0, 100.0, 300.0)]
    assert all(0.0 < v < 1.0 for v in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_pathloss_umi_values():
    # LOS at 100 m, 2.5 GHz: 32.4 + 21 log10(100) + 20 log10(2.5) dB
    assert -10.0 * math.log10(pathloss_umi(100.0, 2.5, True)) == pytest.approx(
        82.35880017344076, abs=1e-10)
    assert -10.0 * math.log10(pathloss_umi(10.0, 2.5, True)) == pytest.approx(
        61.35880017344075, abs=1e-10)
    # NLOS is never stronger than LOS and decays faster
    for d in (10.0, 50.0, 200.0):
        assert pathloss_umi(d, 2.5, False) <= pathloss_umi(d, 2.5, True)
    # sub-metre separations clamp to the 1 m loss
    assert pathloss_umi(0.2, 2.5, True) == pathloss_umi(1.0, 2.5, True)


def test_topology_geometry():
    rng = np.random.default_rng(0)
    topo = generate_topology(7, 4, 3, isd=200.0, min_dist=10.0, rng=rng)
    assert topo.bs_xy.shape == (7, 2)
    # first ring sits exactly one inter-site distance away
    d01 = np.linalg.norm(topo.bs_xy[1] - topo.bs_xy[0])
    assert d01 == pytest.approx(200.0)
    circumradius = 200.0 / math.sqrt(3.0)
    for g in range(7):
        for xy in (topo.dl_xy[g], topo.ul_xy[g]):
            dist = np.linalg.norm(xy - topo.bs_xy[g], axis=1)
            assert np.all(dist >= 10.0 - 1e-9)
            assert np.all(dist <= circumradius + 1e-9)


def test_topology_rejects_bad_geometry():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        generate_topology(1, 1, 1, isd=10.0, min_dist=10.0, rng=rng)


def test_generate_channel_statistics():
    rng = np.random.default_rng(1)
    gain = 0.01
    h = generate_channel(gain, 10.0, False, 2000, 4, rng)
    assert np.mean(np.abs(h) ** 2) == pytest.approx(gain, rel=0.05)
    # Rician square: identity deterministic part plus scattered power
    hr = generate_channel(gain, 10.0, True, 2000, 2000, rng)
    k = 10.0
    diag_mean = np.mean(np.diag(hr).real)
    assert diag_mean == pytest.approx(math.sqrt(gain * k / (k + 1.0)), rel=0.05)
    off = hr - np.diag(np.diag(hr))
    assert np.sum(np.abs(off) ** 2) / (2000 * 1999) == pytest.approx(
        gain / (k + 1.0), rel=0.05)
    # Rician rectangular: all-ones deterministic part keeps per-element power
    hrr = generate_channel(gain, 10.0, True, 500, 400, rng)
    assert np.mean(np.abs(hrr) ** 2) == pytest.approx(gain, rel=0.05)


def test_generate_channel_rician_rectangular():
    rng = np.random.default_rng(2)
    h = generate_channel(1.0, 1e9, True, 3, 5, rng)
    # huge K-factor: essentially the all-ones deterministic part
    np.testing.assert_allclose(h, np.ones((3, 5)), atol=1e-3)


def test_apply_uncertainty_split():
    rng = np.random.default_rng(3)
    h = helpers.cn(rng, (6, 4))
    est, err_var = apply_uncertainty(h, 0.01, rng)
    assert err_var == pytest.approx(0.01 * np.linalg.norm(h) ** 2 / 24.0, rel=1e-12)
    assert est.shape == h.shape
    assert not np.allclose(est, h)
    # error draws at that variance should average to err_var
    draws = [apply_uncertainty(h, 0.01, rng)[0] - h for _ in range(4000)]
    assert np.mean(np.abs(np.array(draws)) ** 2) == pytest.approx(err_var, rel=0.05)

    same, zero = apply_uncertainty(h, 0.0, rng)
    assert same is h and zero == 0.0
    with pytest.raises(ValueError):
        apply_uncertainty(h, -1e-3, rng)


def test_scenario_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(cells=0)
    with pytest.raises(ValueError):
        ScenarioConfig(dl_streams=3)            # exceeds ue_rx_antennas
    with pytest.raises(ValueError):
        ScenarioConfig(ul_streams=0)
    with pytest.raises(ValueError):
        ScenarioConfig(csi_error_factor=-1.0)
    ScenarioConfig(dl_users=0)                  # uplink-only scenarios are legal


def test_build_realization_structure():
    cfg = ScenarioConfig()
    real = build_realization(cfg, 42)
    assert real.cell_count == 2
    assert list(real.dl_users()) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert list(real.ul_users()) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    # every receiver sees every transmitter: (4 dl + 2 bs) x (2 bs + 4 ul)
    assert len(real.channels.links) == 6 * 6
    h = real.channels.true(dl_node(0, 0), bs_node(1))
    assert h.shape == (2, 16)
    h_ul = real.channels.est(bs_node(0), ul_node(1, 1))
    assert h_ul.shape == (16, 2)
    # hardware derived from the table entries
    assert real.hardware.p_bs_w == pytest.approx(0.25118864315095796, rel=1e-14)
    assert real.hardware.p_ue_w == pytest.approx(0.1995262314968879, rel=1e-14)
    assert real.hardware.si_gain == (1e-12, 1e-12)


def test_self_interference_link_properties():
    real = build_realization(ScenarioConfig(asic_db=30.0, cells=1), 5)
    link = real.channels.links[(bs_node(0), bs_node(0))]
    assert link.err_var == 0.0
    np.testing.assert_array_equal(link.true, link.est)
    # scattered draw at the residual gain: average element power ~ 1e-3
    assert np.mean(np.abs(link.true) ** 2) == pytest.approx(1e-3, rel=0.35)


def test_si_channel_power_tracks_asic_depth():
    strong = build_realization(ScenarioConfig(asic_db=20.0, cells=1), 9)
    weak = build_realization(ScenarioConfig(asic_db=40.0, cells=1), 9)
    p_strong = np.mean(np.abs(strong.channels.true(bs_node(0), bs_node(0))) ** 2)
    p_weak = np.mean(np.abs(weak.channels.true(bs_node(0), bs_node(0))) ** 2)
    assert p_strong / p_weak == pytest.approx(100.0, rel=1e-9)


def test_estimate_error_variance_consistency():
    real = build_realization(ScenarioConfig(csi_error_factor=1e-2), 6)
    for (rx, tx), link in real.channels.links.items():
        if rx == tx:
            continue  # self-interference carries perfect estimates
        expected = 1e-2 * np.linalg.norm(link.true) ** 2 / link.true.size
        assert link.err_var == pytest.approx(expected, rel=1e-12)
        np.testing.assert_allclose(link.est + (link.true - link.est), link.true)


def test_fading_rule_and_swap_flag():
    # near drop forced by tiny cells: LOS probability 1 - Rayleigh under the
    # stated rule, Rician (higher mean magnitude at the deterministic part)
    # under the swapped conventional mapping
    base = dict(cells=1, dl_users=1, ul_users=1, inter_site_distance_m=30.0,
                min_bs_user_distance_m=2.0, rician_k_db=30.0)
    plain = build_realization(ScenarioConfig(**base), 3)
    swapped = build_realization(ScenarioConfig(**base, swap_los_fading=True), 3)
    h_plain = plain.channels.true(dl_node(0, 0), bs_node(0))
    h_swap = swapped.channels.true(dl_node(0, 0), bs_node(0))
    gain = np.mean(np.abs(h_swap) ** 2)
    # K = 1000: swapped draw is almost deterministic (all-ones scaled)
    spread_swap = np.std(np.abs(h_swap)) / np.sqrt(gain)
    spread_plain = np.std(np.abs(h_plain)) / np.sqrt(np.mean(np.abs(h_plain) ** 2))
    assert spread_swap < 0.2 < spread_plain


def test_build_realization_deterministic():
    cfg = ScenarioConfig(cells=3, dl_users=2, ul_users=1)
    a = build_realization(cfg, 123)
    b = build_realization(cfg, 123)
    assert realization_digest(a) == realization_digest(b)
    for key in a.channels.links:
        np.testing.assert_array_equal(a.channels.links[key].true,
                                      b.channels.links[key].true)
    c = build_realization(cfg, 124)
    assert realization_digest(a) != realization_digest(c)


def test_si_gain_change_leaves_other_draws_alone():
    a = build_realization(ScenarioConfig(asic_db=120.0), 77)
    b = build_realization(ScenarioConfig(asic_db=30.0), 77)
    np.testing.assert_array_equal(a.channels.true(dl_node(1, 1), bs_node(0)),
                                  b.channels.true(dl_node(1, 1), bs_node(0)))
    np.testing.assert_array_equal(a.topology.dl_xy[0], b.topology.dl_xy[0])


def test_restrict_to_single_direction():
    real = build_realization(ScenarioConfig(), 11)
    dl = restrict_to_downlink(real)
    assert list(dl.ul_users()) == []
    assert list(dl.dl_users()) == list(real.dl_users())
    # no link touches an uplink user, SI links survive
    assert all(key[0][0] != "ul" and key[1][0] != "ul" for key in dl.channels.links)
    assert (bs_node(0), bs_node(0)) in dl.channels.links

    ul = restrict_to_uplink(real)
    assert list(ul.dl_users()) == []
    assert all(key[0][0] != "dl" and key[1][0] != "dl" for key in ul.channels.links)
    np.testing.assert_array_equal(ul.channels.true(bs_node(1), ul_node(0, 0)),
                                  real.channels.true(bs_node(1), ul_node(0, 0)))


def test_serialization_roundtrip(tmp_path):
    real = build_realization(ScenarioConfig(cells=2, dl_users=1, ul_users=2,
                                            csi_error_factor=1e-2), 31)
    path = tmp_path / "real.bin"
    save_realization(real, path)
    back = load_realization(path)
    assert realization_digest(back) == realization_digest(real)
    assert back.seed == real.seed
    assert back.topology.dl_counts == real.topology.dl_counts
    assert back.hardware == real.hardware
    assert back.antennas == real.antennas
    for key, link in real.channels.links.items():
        np.testing.assert_array_equal(back.channels.links[key].true, link.true)
        np.testing.assert_array_equal(back.channels.links[key].est, link.est)
        assert back.channels.links[key].err_var == link.err_var
    np.testing.assert_array_equal(back.topology.bs_xy, real.topology.bs_xy)


def test_serialization_rejects_garbage(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"not a realization")
    with pytest.raises(ValueError):
        load_realization(path)


def test_load_realization_rejects_cut_and_padded_files(tmp_path):
    real = build_realization(ScenarioConfig(cells=1, dl_users=1, ul_users=1), 3)
    blob = serialize_realization(real)
    head_len = int.from_bytes(blob[12:20], "little")
    path = tmp_path / "real.bin"
    # inside the magic, the version, the header length, the header, the arrays
    for cut in (0, 5, 10, 16, 20 + head_len // 2, 20 + head_len + 3, len(blob) - 1):
        path.write_bytes(blob[:cut])
        with pytest.raises(ValueError, match="truncated"):
            load_realization(path)
    path.write_bytes(blob + b"\0")
    with pytest.raises(ValueError, match="trailing bytes"):
        load_realization(path)
    path.write_bytes(blob)
    assert realization_digest(load_realization(path)) == realization_digest(real)


def test_digest_is_stable_hex():
    real = build_realization(ScenarioConfig(cells=1, dl_users=1, ul_users=1), 0)
    digest = realization_digest(real)
    assert len(digest) == 64
    int(digest, 16)
    assert serialize_realization(real)[:8] == b"IBFDREAL"
