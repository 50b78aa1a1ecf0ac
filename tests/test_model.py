"""Scenario construction: units, geometry, channel statistics, serialization."""

import math
import re

import numpy as np
import pytest

import helpers
from helpers import bs_node, dl_node, ul_node
from ibfdsim import model
from ibfdsim.model import (ScenarioConfig, apply_uncertainty, build_realization,
                           generate_channel, generate_topology, load_realization,
                           los_probability, pathloss_umi, realization_digest,
                           restrict_to_downlink, restrict_to_uplink, save_realization,
                           serialize_realization)


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


def _normals(rng, *shape):
    """Pre-drawn normals for links of the given (..., rows, cols) shape:
    each link's real and imaginary parts, (..., 2, rows, cols)."""
    return rng.standard_normal((*shape[:-2], 2, *shape[-2:]))


def test_generate_channel_statistics():
    rng = np.random.default_rng(1)
    gain, k = np.array([0.01, 0.04]), 10.0
    h = generate_channel(gain, k, np.zeros(2, bool), _normals(rng, 2, 2000, 4),
                         np.empty((2, 2000, 4), complex))
    assert np.mean(np.abs(h) ** 2, axis=(1, 2)) == pytest.approx(gain, rel=0.05)
    # Rician square: identity deterministic part plus scattered power
    hr = generate_channel(gain[:1], k, np.ones(1, bool), _normals(rng, 1, 1000, 1000),
                          np.empty((1, 1000, 1000), complex))[0]
    diag_mean = np.mean(np.diag(hr).real)
    assert diag_mean == pytest.approx(math.sqrt(gain[0] * k / (k + 1.0)), rel=0.05)
    off = hr - np.diag(np.diag(hr))
    assert np.sum(np.abs(off) ** 2) / (1000 * 999) == pytest.approx(gain[0] / (k + 1.0), rel=0.05)
    # Rician rectangular: all-ones deterministic part keeps per-element power
    hrr = generate_channel(gain[0], k, np.array(True), _normals(rng, 500, 400),
                           np.empty((500, 400), complex))
    assert np.mean(np.abs(hrr) ** 2) == pytest.approx(gain[0], rel=0.05)


def test_generate_channel_rician_rectangular():
    rng = np.random.default_rng(2)
    h = generate_channel(np.array(1.0), 1e9, np.array(True), _normals(rng, 3, 5),
                         np.empty((3, 5), complex))
    # huge K-factor: essentially the all-ones deterministic part
    np.testing.assert_allclose(h, np.ones((3, 5)), atol=1e-3)


def test_channel_draws_batch_bit_for_bit():
    # a leading link axis only batches: each link of one call has the bits
    # that a call on that link alone gives
    rng = np.random.default_rng(4)
    gain, rician = rng.uniform(1e-9, 1e-3, (3, 2)), np.array([[True, False]] * 3)
    normals = _normals(rng, 3, 2, 5, 4)
    h = generate_channel(gain, 10.0, rician, normals, np.empty((3, 2, 5, 4), complex))
    err_var = apply_uncertainty(h.copy(), 1e-2, _normals(rng, 3, 2, 5, 4))
    for r, t in np.ndindex(gain.shape):
        one = generate_channel(gain[r, t], 10.0, rician[r, t], normals[r, t],
                               np.empty((5, 4), complex))
        assert one.tobytes() == h[r, t].tobytes()
        assert err_var[r, t] == 1e-2 * np.linalg.norm(one) ** 2 / 20


def test_apply_uncertainty_split():
    rng = np.random.default_rng(3)
    h = helpers.cn(rng, (6, 4))
    # the estimate replaces the truth in place
    est = h.copy()
    err_var = apply_uncertainty(est, 0.01, _normals(rng, 6, 4))
    assert err_var == pytest.approx(0.01 * np.linalg.norm(h) ** 2 / 24.0, rel=1e-12)
    assert not np.allclose(est, h)
    # error draws at that variance, 4000 links of that channel, should average to err_var
    ests = np.broadcast_to(h, (4000, 6, 4)).copy()
    err_vars = apply_uncertainty(ests, 0.01, _normals(rng, 4000, 6, 4))
    assert (err_vars == err_var).all()
    assert np.mean(np.abs(ests - h) ** 2) == pytest.approx(err_var, rel=0.05)

    same = h.copy()
    zero = apply_uncertainty(same, 0.0, None)     # reads no normals
    assert same.tobytes() == h.tobytes() and zero == 0.0
    with pytest.raises(ValueError):
        apply_uncertainty(h, -1e-3, _normals(rng, 6, 4))


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
    ScenarioConfig(adc_bits=math.inf)           # ideal converters
    ScenarioConfig(inter_site_distance_m=17.33)  # radius 10.006 m, just past the keep-out
    # a float or bool count once constructed, and the draw then raised a TypeError
    for value in (2.5, 2.0, True, "2"):
        with pytest.raises(ValueError, match="cells must be an integer"):
            ScenarioConfig(cells=value)
    with pytest.raises(ValueError, match="bs_tx_antennas must be an integer, got 16.0"):
        ScenarioConfig(bs_tx_antennas=16.0)
    assert ScenarioConfig(cells=np.int64(3), dl_users=np.int32(1)).cells == 3


def test_build_realization_structure():
    cfg = ScenarioConfig()
    real = build_realization(cfg, 42)
    assert real.cell_count == 2
    assert list(helpers.dl_users(real)) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert list(real.ul_users()) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    # every receiver sees every transmitter: (4 dl + 2 bs) x (2 bs + 4 ul)
    assert len(helpers.links(real)) == 6 * 6
    h = helpers.link(real, dl_node(0, 0), bs_node(1)).est
    assert h.shape == (2, 16)
    h_ul = helpers.link(real, bs_node(0), ul_node(1, 1)).est
    assert h_ul.shape == (16, 2)
    # hardware derived from the table entries
    assert real.hardware.p_bs_w == pytest.approx(0.25118864315095796, rel=1e-14)
    assert real.hardware.p_ue_w == pytest.approx(0.1995262314968879, rel=1e-14)
    assert real.hardware.si_gain == (1e-12, 1e-12)


def test_self_interference_link_properties():
    real = build_realization(ScenarioConfig(asic_db=30.0, cells=1), 5)
    link = helpers.link(real, bs_node(0), bs_node(0))
    assert link.err_var == 0.0
    # scattered draw at the residual gain: average element power ~ 1e-3
    assert np.mean(np.abs(link.est) ** 2) == pytest.approx(1e-3, rel=0.35)


def test_si_channel_power_tracks_asic_depth():
    strong = build_realization(ScenarioConfig(asic_db=20.0, cells=1), 9)
    weak = build_realization(ScenarioConfig(asic_db=40.0, cells=1), 9)
    p_strong = np.mean(np.abs(helpers.link(strong, bs_node(0), bs_node(0)).est) ** 2)
    p_weak = np.mean(np.abs(helpers.link(weak, bs_node(0), bs_node(0)).est) ** 2)
    assert p_strong / p_weak == pytest.approx(100.0, rel=1e-9)


def test_fading_rule_and_swap_flag():
    # near drop forced by tiny cells: LOS probability 1 - Rayleigh under the
    # stated rule, Rician (higher mean magnitude at the deterministic part)
    # under the swapped conventional mapping
    base = dict(cells=1, dl_users=1, ul_users=1, inter_site_distance_m=30.0,
                min_bs_user_distance_m=2.0, rician_k_db=30.0)
    plain = build_realization(ScenarioConfig(**base), 3)
    swapped = build_realization(ScenarioConfig(**base, swap_los_fading=True), 3)
    h_plain = helpers.link(plain, dl_node(0, 0), bs_node(0)).est
    h_swap = helpers.link(swapped, dl_node(0, 0), bs_node(0)).est
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
    for key in helpers.links(a):
        np.testing.assert_array_equal(helpers.link(a, *key).est, helpers.link(b, *key).est)
    c = build_realization(cfg, 124)
    assert realization_digest(a) != realization_digest(c)


@pytest.mark.parametrize("field, values", [("asic_db", (120.0, 30.0)),
                                           ("csi_error_factor", (1e-2, 4e-2))],
                         ids=["si_gain", "csi_error"])
def test_si_gain_change_leaves_other_draws_alone(field, values):
    # a field that only rescales channels moves no other draw: every
    # position keeps its bits, and so does every stored entry the field does
    # not scale.  The SI gain scales only the SI blocks of x; the CSI error
    # factor scales every error variance, and each SI block of x, which
    # draws no error, keeps its truth
    a, b = (build_realization(ScenarioConfig(**{field: value}), 77) for value in values)
    for name in ("bs_xy", "dl_xy", "ul_xy"):
        np.testing.assert_array_equal(getattr(a.topology, name), getattr(b.topology, name))

    def off_si(real):
        def silence(draft):
            for g in range(real.cell_count):
                helpers.link(draft, bs_node(g), bs_node(g)).est[...] = 0.0
        return helpers.edited(real, silence).channels.x

    if field == "asic_db":
        assert off_si(a).tobytes() == off_si(b).tobytes()
        assert a.channels.err.tobytes() == b.channels.err.tobytes()
        assert not np.array_equal(a.channels.si, b.channels.si)
    else:
        assert b.channels.err.tobytes() == (4.0 * a.channels.err).tobytes()
        assert a.channels.si.tobytes() == b.channels.si.tobytes()
        assert a.channels.err.any() and not np.array_equal(off_si(a), off_si(b))


def test_restrict_to_single_direction():
    real = build_realization(ScenarioConfig(), 11)
    dl = restrict_to_downlink(real)
    assert list(dl.ul_users()) == []
    assert list(helpers.dl_users(dl)) == list(helpers.dl_users(real))
    # no link touches an uplink user, SI links survive
    assert all(key[0][0] != "ul" and key[1][0] != "ul" for key in helpers.links(dl))
    assert (bs_node(0), bs_node(0)) in helpers.links(dl)

    ul = restrict_to_uplink(real)
    assert list(helpers.dl_users(ul)) == []
    assert all(key[0][0] != "dl" and key[1][0] != "dl" for key in helpers.links(ul))
    np.testing.assert_array_equal(helpers.link(ul, bs_node(1), ul_node(0, 0)).est,
                                  helpers.link(real, bs_node(1), ul_node(0, 0)).est)

    # a phase switches off the BS chain it does not use: the downlink phase
    # keeps no BS receive rows, the uplink phase no BS transmit columns
    ch = real.channels
    assert (dl.channels.m_bs, dl.channels.n_bs) == (0, ch.n_bs)
    assert (ul.channels.n_bs, ul.channels.m_bs) == (0, ch.m_bs)
    for part in (dl, ul):
        for rx, tx in helpers.links(part):
            kept, full = helpers.link(part, rx, tx), helpers.link(real, rx, tx)
            rows = 0 if part is dl and rx[0] == "bs" else full.est.shape[0]
            cols = 0 if part is ul and tx[0] == "bs" else full.est.shape[1]
            assert kept.est.shape == (rows, cols)
            # each kept link is a view of the full realization's arrays, a
            # non-empty one at the same start
            for a, b in ((kept.est, full.est), (kept.err_var, full.err_var)):
                assert a.base is not None
                assert a.size == 0 or (a.__array_interface__["data"][0]
                                       == b.__array_interface__["data"][0])
                assert a.size == 0 or np.shares_memory(a, b)


def test_link_views_edit_the_stored_arrays():
    def edit(draft):
        cross = helpers.link(draft, dl_node(1, 0), ul_node(0, 1))
        cross.est[:] = 0.0
        cross.err_var[...] = 0.5

    real = helpers.edited(build_realization(ScenarioConfig(csi_error_factor=1e-2), 12), edit)
    # rows of DL user (1, 0), columns of UL user (0, 1); err row 1*K_d + 0, column G + 1
    ch = real.channels
    rows, cols = slice(2 * ch.m_ue, 3 * ch.m_ue), ch.cells * ch.n_bs + ch.n_ue
    assert not ch.x[rows, cols:cols + ch.n_ue].any()
    assert ch.err[2, ch.cells + 1] == 0.5
    assert helpers.link(real, dl_node(1, 0), ul_node(0, 1)).err_var == 0.5
    # a restriction slices the same storage
    ul_link = helpers.link(restrict_to_uplink(real), bs_node(0), ul_node(1, 0))
    assert np.shares_memory(ul_link.est, ch.x)


# unequal sizes everywhere, so that a swapped size or offset shows
_UNEVEN = ScenarioConfig(cells=3, dl_users=2, ul_users=3, bs_tx_antennas=5, bs_rx_antennas=4,
                         ue_tx_antennas=3, ue_rx_antennas=2, dl_streams=1, ul_streams=1,
                         csi_error_factor=1e-2)


def test_link_views_tile_the_stored_arrays():
    # helpers.link, the oracle of the per-link tests: a distinct value
    # through every link reads back from its own link, and the non-empty
    # links cover x and err exactly once
    def fill(draft):
        ch = draft.channels
        ch.x[...], ch.err[...] = 0.0, 0.0
        for n, key in enumerate(helpers.links(draft), start=1):
            link = helpers.link(draft, *key)
            link.est[...], link.err_var[...] = n + 1j * n, n

    for real in (build_realization(_UNEVEN, 13),
                 restrict_to_downlink(build_realization(_UNEVEN, 14)),
                 restrict_to_uplink(build_realization(_UNEVEN, 15))):
        real = helpers.edited(real, fill)
        ch, links = real.channels, helpers.links(real)
        for n, key in enumerate(links, start=1):
            link = helpers.link(real, *key)
            assert (link.est == n + 1j * n).all() and link.err_var == n
        assert sum(helpers.link(real, *key).est.size for key in links) == ch.x.size
        assert ch.x.all() and ch.err.all() and len(links) == ch.err.size


def test_link_rejects_nodes_outside_the_topology():
    # helpers.link finds only the nodes of the topology, so no test reads a
    # neighbour's block by mistake
    real = build_realization(_UNEVEN, 16)
    cells, k_d, k_u = 3, 2, 3
    inside = helpers.link(real, dl_node(cells - 1, k_d - 1), ul_node(cells - 1, k_u - 1))
    assert inside.est.shape == (2, 3)
    for rx, tx in [(dl_node(0, k_d), bs_node(0)),     # not user (1, 0) of the next cell
                   (dl_node(cells, 0), bs_node(0)), (dl_node(-1, 0), bs_node(0)),
                   (dl_node(0, -1), bs_node(0)), (bs_node(cells), bs_node(0)),
                   (bs_node(-1), bs_node(0)), (bs_node(0), bs_node(cells)),
                   (bs_node(0), ul_node(0, k_u)), (bs_node(0), ul_node(cells, 0)),
                   (bs_node(0), ul_node(-1, 0)), (ul_node(0, 0), bs_node(0)),
                   (bs_node(0), dl_node(0, 0))]:
        with pytest.raises(KeyError):
            helpers.link(real, rx, tx)
    # a restriction drops the other direction's users
    with pytest.raises(KeyError):
        helpers.link(restrict_to_downlink(real), bs_node(0), ul_node(0, 0))
    with pytest.raises(KeyError):
        helpers.link(restrict_to_uplink(real), dl_node(0, 0), bs_node(0))


def test_restriction_keeps_one_block_of_each_stored_array():
    real = build_realization(_UNEVEN, 17)
    full, cells = real.channels, 3
    dl_rows, bs_cols = cells * 2 * 2, cells * 5         # G K_d M_ue, G N_bs

    def same_view(part, whole):
        assert part.shape == whole.shape and part.strides == whole.strides
        assert part.__array_interface__["data"][0] == whole.__array_interface__["data"][0]

    dl, ul = restrict_to_downlink(real).channels, restrict_to_uplink(real).channels
    same_view(dl.x, full.x[:dl_rows, :bs_cols])
    same_view(ul.x, full.x[dl_rows:, bs_cols:])
    same_view(dl.err, full.err[:, :cells])
    same_view(ul.err, full.err[cells * 2:, :])
    assert (dl.m_bs, dl.k_u, ul.k_d, ul.n_bs) == (0, 0, 0, 0)


def test_stored_and_derived_channel_arrays_are_read_only(tmp_path):
    # a realization never changes: a write into any array of its channels,
    # stored or derived from x on construction, raises, so the derived fields
    # always match x; an edit goes through copies (helpers.edited)
    from dataclasses import fields
    real = build_realization(_UNEVEN, 18)
    save_realization(real, tmp_path / "real.bin")
    derived = {f.name for f in fields(real.channels) if not f.init}
    for part in (real, load_realization(tmp_path / "real.bin"), restrict_to_downlink(real),
                 restrict_to_uplink(real), helpers.edited(real, lambda draft: None)):
        ch = part.channels
        assert derived <= vars(ch).keys()
        for view in (ch.dl, ch.bs, ch.from_bs, ch.from_ul):
            assert view.size == 0 or np.shares_memory(view, ch.x)
        arrays = [a for f in fields(ch) if f.type != "int"
                  for a in (getattr(ch, f.name) if f.type == "tuple" else [getattr(ch, f.name)])]
        assert len(arrays) == 17
        for a in arrays + [helpers.link(part, *helpers.links(part)[0]).est]:
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0

    def silence(draft):
        helpers.link(draft, bs_node(1), bs_node(1)).est[...] = 0.0

    np.testing.assert_array_equal(real.channels.si[1],
                                  helpers.link(real, bs_node(1), bs_node(1)).est)
    edited = helpers.edited(real, silence).channels
    assert not edited.si[1].any() and edited.si[0].any() and real.channels.si[1].any()


def _sizes(real):
    """Every size a realization records: its channels' counts and its streams."""
    ch = real.channels
    return (ch.cells, ch.k_d, ch.m_ue, ch.m_bs, ch.n_bs, ch.k_u, ch.n_ue,
            real.dl_streams, real.ul_streams)


def _record(real):
    """What a realization file must carry bit for bit: every stored array,
    every size, the hardware, the seed and the geometry distances."""
    topo, ch = real.topology, real.channels
    arrays = (topo.bs_xy, topo.dl_xy, topo.ul_xy, ch.x, ch.err)
    return ([(a.dtype, a.shape, a.tobytes()) for a in arrays], _sizes(real), real.hardware,
            real.seed, topo.inter_site_distance_m, topo.min_bs_user_distance_m)


def test_serialization_roundtrip(tmp_path):
    real = build_realization(ScenarioConfig(cells=2, dl_users=1, ul_users=2,
                                            csi_error_factor=1e-2), 31)
    path = tmp_path / "real.bin"
    save_realization(real, path)
    back = load_realization(path)
    assert realization_digest(back) == realization_digest(real)
    assert _record(back) == _record(real)


@pytest.mark.parametrize("restrict", [restrict_to_downlink, restrict_to_uplink])
def test_serialization_roundtrip_of_a_single_direction(tmp_path, restrict):
    # a switched-off BS chain (0 antennas) survives the file format
    real = restrict(build_realization(ScenarioConfig(cells=2, csi_error_factor=1e-2), 32))
    save_realization(real, tmp_path / "real.bin")
    back = load_realization(tmp_path / "real.bin")
    assert _record(back) == _record(real)
    assert realization_digest(back) == realization_digest(real)


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


def test_load_realization_refuses_format_version_1(tmp_path):
    # formats 1 and 2 also stored the true matrices (format 2 as `x_true`);
    # a file of either is refused by its version alone
    blob = serialize_realization(build_realization(ScenarioConfig(cells=1), 3))
    path = tmp_path / "real.bin"
    for version in (1, 2):
        path.write_bytes(blob[:8] + version.to_bytes(4, "little") + blob[12:])
        with pytest.raises(ValueError,
                           match=f"^unsupported realization format version {version}$"):
            load_realization(path)


def _save_edited(real, path, monkeypatch, edit):
    """Save `real` after `edit(meta, arrays)` has changed its file payload;
    the header's array shapes follow the edited arrays."""
    meta, arrays = model._payload(real)
    edit(meta, arrays)
    if "arrays" in meta:
        meta["arrays"] = {name: list(a.shape) for name, a in arrays.items()}
    with monkeypatch.context() as patch:
        patch.setattr(model, "_payload", lambda _: (meta, arrays))
        save_realization(real, path)


def _rejects(real, tmp_path, monkeypatch, edit, match):
    _save_edited(real, tmp_path / "real.bin", monkeypatch, edit)
    with pytest.raises(ValueError, match=match):
        load_realization(tmp_path / "real.bin")


def test_load_realization_rejects_a_missing_link(tmp_path, monkeypatch):
    # x without the columns of uplink user (0, 0)
    real = build_realization(ScenarioConfig(cells=1, dl_users=1, ul_users=1), 3)

    def drop(meta, arrays):
        arrays["x"] = arrays["x"][:, :16]

    _rejects(real, tmp_path, monkeypatch, drop,
             re.escape("x has shape [18, 16], the sizes give [18, 18]"))


def test_load_realization_rejects_an_extra_link(tmp_path, monkeypatch):
    # no uplink user, but x still holds the columns of one
    real = build_realization(ScenarioConfig(cells=1, dl_users=1, ul_users=1), 3)

    def no_uplink_users(meta, arrays):
        meta["sizes"]["k_u"] = 0
        arrays["ul_xy"] = arrays["ul_xy"][:, :0]

    _rejects(real, tmp_path, monkeypatch, no_uplink_users,
             re.escape("x has shape [18, 18], the sizes give [18, 16]"))


def test_load_realization_rejects_a_shape_the_antennas_contradict(tmp_path, monkeypatch):
    real = build_realization(ScenarioConfig(cells=1, dl_users=1, ul_users=1), 3)

    def fewer_bs_antennas(meta, arrays):
        meta["sizes"]["m_bs"] = 15

    _rejects(real, tmp_path, monkeypatch, fewer_bs_antennas,
             re.escape("x has shape [18, 18], the sizes give [17, 18]"))


_STORED = ["bs_xy", "dl_xy", "ul_xy", "x", "err"]


@pytest.mark.parametrize("name", _STORED)
def test_load_realization_rejects_a_missing_array(tmp_path, monkeypatch, name):
    real = build_realization(ScenarioConfig(cells=2, dl_users=2, ul_users=1), 3)
    _rejects(real, tmp_path, monkeypatch, lambda meta, arrays: arrays.pop(name),
             re.escape(f"arrays keys: missing ['{name}'], extra []"))


@pytest.mark.parametrize("name, shape", zip(_STORED, [(3, 2), (2, 3, 2), (2, 1, 3),
                                                      (40, 35), (4, 6)]), ids=_STORED)
def test_load_realization_rejects_an_array_of_the_wrong_shape(tmp_path, monkeypatch, name,
                                                                 shape):
    # G = 2 cells, K_d = 2 and K_u = 1 users per cell: x is (40, 36), err (6, 4)
    real = build_realization(ScenarioConfig(cells=2, dl_users=2, ul_users=1), 3)
    _rejects(real, tmp_path, monkeypatch,
             lambda meta, arrays: arrays.update({name: np.zeros(shape)}),
             re.escape(f"file: {name} has shape {list(shape)}, the sizes give"))


def _set(name, index, value):
    def edit(meta, arrays):
        arrays[name] = arrays[name].copy()
        arrays[name][index] = value
    return edit


# err of one cell with one user each way: rows DL user 0, BS; columns BS, UL user 0
@pytest.mark.parametrize("edit, match", [
    (lambda meta, _: meta["hardware"].update(noise_bs_w=math.nan), "noise_bs_w must be finite"),
    (lambda meta, _: meta["hardware"].update(p_bs_w=math.inf), "p_bs_w must be finite"),
    (lambda meta, _: meta["hardware"].update(kappa_bs=math.nan), "kappa_bs must be finite"),
    (lambda meta, _: meta["hardware"].update(si_gain=[math.nan]), "si_gain must be finite"),
    (_set("err", (0, 0), -1e-3), r"err\[0, 0\] = -0\.001, not a finite number >= 0"),
    (_set("err", (1, 1), math.nan), r"err\[1, 1\] = nan, not a finite number >= 0"),
    (_set("err", (0, 1), math.inf), r"err\[0, 1\] = inf, not a finite number >= 0"),
    (_set("x", (2, 5), complex(math.nan, 0.0)), r"x\[2, 5\] = \(nan\+0j\), not a finite"),
    (_set("bs_xy", (0, 1), math.nan), r"bs_xy\[0, 1\] = nan, not a finite number$"),
    (_set("dl_xy", (0, 0, 1), -math.inf), r"dl_xy\[0, 0, 1\] = -inf, not a finite number$"),
    (_set("ul_xy", (0, 0, 0), math.inf), r"ul_xy\[0, 0, 0\] = inf, not a finite number$"),
    (lambda meta, _: meta["sizes"].update(dl_streams=0), "dl_streams must be >= 1, got 0"),
    (lambda meta, _: meta["sizes"].update(ul_streams=3), "ul_streams = 3 exceeds 2"),
    (lambda meta, _: meta["sizes"].update(spare=1), re.escape("sizes keys: missing [], "
                                                              "extra ['spare']")),
    (lambda meta, _: (meta["sizes"].update(cells=0), meta["hardware"].update(si_gain=[])),
     "cells = 0, not an integer >= 1"),
    (lambda meta, _: meta["sizes"].update(m_ue=2.0), "m_ue = 2.0, not an integer"),
    (lambda meta, _: meta["sizes"].update(dl_streams="2"), "dl_streams = '2', not an integer"),
    (lambda meta, _: meta["sizes"].update(k_d=1.0), "k_d = 1.0, not an integer"),
], ids=["nan_noise", "inf_budget", "nan_kappa", "nan_si_gain", "negative_err_var",
        "nan_err_var", "inf_err_var", "nan_channel", "nan_bs_position",
        "inf_dl_position", "inf_ul_position", "no_streams", "more_streams_than_antennas",
        "extra_antenna_key", "no_cells", "float_antennas", "string_streams",
        "float_user_count"])
def test_load_realization_rejects_corrupt_values(tmp_path, monkeypatch, edit, match):
    # each of these once loaded, and every solve on it then failed or
    # quietly scored a meaningless loss
    real = build_realization(ScenarioConfig(cells=1, dl_users=1, ul_users=1), 3)
    _rejects(real, tmp_path, monkeypatch, edit, match)


@pytest.mark.parametrize("edit, match", [
    (lambda meta, _: meta.pop("seed"), r"header keys: missing \['seed'\], extra \[\]"),
    (lambda meta, _: meta.pop("arrays"), r"header keys: missing \['arrays'\]"),
    (lambda meta, _: meta.pop("min_bs_user_distance_m"), r"missing \['min_bs_user_distance_m'\]"),
    (lambda meta, _: meta.update(spare=0), r"header keys: missing \[\], extra \['spare'\]"),
    (lambda meta, _: meta["sizes"].pop("k_u"), r"sizes keys: missing \['k_u'\], extra \[\]"),
    (lambda meta, _: meta.update(sizes=[1]), r"sizes is \[1\], not an object"),
    (lambda meta, _: meta["hardware"].pop("p_ue_w"), r"hardware keys: missing \['p_ue_w'\]"),
    (lambda meta, _: meta["hardware"].update(spare=1.0), r"hardware keys: .* extra \['spare'\]"),
    (lambda meta, _: meta["hardware"].update(kappa_bs="x"),
     "hardware kappa_bs = 'x', not a number"),
    (lambda meta, _: meta["hardware"].update(si_gain=1e-12),
     "hardware si_gain = 1e-12, not a list of numbers"),
    (lambda meta, _: meta["hardware"].update(si_gain=["x"]), r"si_gain = \['x'\], not a list"),
    (lambda meta, _: meta.update(seed="x"), "seed = 'x', not an integer"),
    (lambda meta, _: meta.update(seed=3.0), "seed = 3.0, not an integer"),
    (lambda meta, _: meta.update(inter_site_distance_m="x"),
     "inter_site_distance_m = 'x', not a finite number > 0"),
    (lambda meta, _: meta.update(inter_site_distance_m=math.inf),
     "inter_site_distance_m = inf, not a finite number > 0"),
    (lambda meta, _: meta.update(min_bs_user_distance_m=math.nan),
     "min_bs_user_distance_m = nan, not a finite number > 0"),
    (lambda meta, _: meta.update(min_bs_user_distance_m=0),
     "min_bs_user_distance_m = 0, not a finite number > 0"),
], ids=["missing_seed", "missing_arrays", "missing_distance", "extra_key", "missing_size",
        "sizes_not_an_object", "missing_hardware_key", "extra_hardware_key",
        "string_hardware_value", "scalar_si_gain", "string_si_gain", "string_seed",
        "float_seed", "string_distance", "inf_distance", "nan_distance", "zero_distance"])
def test_load_realization_rejects_a_malformed_header(tmp_path, monkeypatch, edit, match):
    # each raised a KeyError or TypeError, or loaded without complaint, in
    # format 1; a corrupt header is a ValueError that names its key
    real = build_realization(ScenarioConfig(cells=1, dl_users=1, ul_users=1), 3)
    _rejects(real, tmp_path, monkeypatch, edit, match)


def test_load_realization_rejects_an_si_link_with_two_matrices(tmp_path, monkeypatch):
    # SI CSI is perfect: the SI block of x is the channel and its err entry
    # is zero, since an error variance would split it into an estimate and
    # a truth.  err rows: DL users, then BSs; columns: BSs, then UL users
    for cells, entry, bs in ((1, (1, 0), 0), (2, (3, 1), 1)):
        real = build_realization(ScenarioConfig(cells=cells, dl_users=1, ul_users=1), 3)
        _rejects(real, tmp_path, monkeypatch, _set("err", entry, 1e-9),
                 f"the SI link of BS {bs} has an error variance")


@pytest.mark.parametrize("gains", [1, 3])
def test_load_realization_rejects_an_si_gain_count_other_than_the_cells(
        tmp_path, monkeypatch, gains):
    real = build_realization(ScenarioConfig(cells=2, dl_users=1, ul_users=1), 3)
    _rejects(real, tmp_path, monkeypatch,
             lambda meta, _: meta["hardware"].update(si_gain=[1e-6] * gains),
             f"{gains} SI gains for 2 cells")


def test_digest_is_stable_hex():
    real = build_realization(ScenarioConfig(cells=1, dl_users=1, ul_users=1), 0)
    digest = realization_digest(real)
    assert len(digest) == 64
    int(digest, 16)
    assert serialize_realization(real)[:8] == b"IBFDREAL"


# sha256 of serialize_realization for fixed (config, seed) pairs.  They pin
# the draw order, the stored bits and the on-disk format (version 3) at
# once, so any change to how a realization is drawn or stored must leave
# them unchanged or re-record them with a check that the stored arrays kept
# their bits.  The two single-direction ones also pin which BS chain a phase
# switches off; the next five pin the draw paths of unequal sizes, the
# swapped fading rule, no users in one direction, and full CSI error with
# ideal converters and ideal SI cancellation; the last two pin the SI
# links' undrawn errors of a single BS and of seven.
_DIGEST_GOLDENS = {
    "default": "24eb3a0cad02793f9355b6ce3c2a79e0327572040cbb2efc9758c700ea8f4d7e",
    "three_cells": "8f9580c205c65ee312ef562b508f28296e4d9a364aadd172c2875ad5533784b5",
    "perfect_csi": "c675bbf076764c6879fa3bd1ea0b3b3e81a6813eb00df3dadfc3138d3e7871b6",
    "downlink_only": "d0768b9e8a7b93971c2853a916b522526c1927c32af6bdbffc85de8d728340e0",
    "uplink_only": "7fa00f4331863d86e60b1af8a4ec22d2efa7169f28afc7da6fa9a8aa0ad88b93",
    "uneven": "13617ba3a2bdc886e64307a4895865f2432d8aa7581f7ba3a90eecc435093e6e",
    "swap_los_fading": "2699ab369511d90354415c47e5b287f946550e268965e095989e005399905487",
    "no_downlink_users": "c6fbe52545e26eff9834b5ac01f544b7e1861f3dbe9fdc6518ff51732e36757e",
    "no_uplink_users": "5e53db5d9a1e2bc9a48c07c7c45b0a99fc4e01065f0cd10ff7f31f70a8b27e69",
    "full_csi_error_ideal_hardware":
        "e429b898d55f5444231c5e91070c57dca44dfc2f51ecb4512926677fac1ce8b3",
    "one_cell": "8e943a20d068723416ca0e27dc39ad54266c2f01c037da511107cc665ad3b23f",
    "seven_cells": "7a3348203a78e8378e3cb6d8e99eabda8dc4623b32753c65188e110037619e93",
}


@pytest.mark.parametrize("case", sorted(_DIGEST_GOLDENS))
def test_digest_goldens(case):
    real = {
        "default": lambda: build_realization(ScenarioConfig(), 7),
        "three_cells": lambda: build_realization(
            ScenarioConfig(cells=3, dl_users=2, ul_users=1, csi_error_factor=1e-2), 5),
        "perfect_csi": lambda: build_realization(ScenarioConfig(csi_error_factor=0.0), 9),
        "downlink_only": lambda: restrict_to_downlink(build_realization(ScenarioConfig(), 11)),
        "uplink_only": lambda: restrict_to_uplink(build_realization(ScenarioConfig(), 11)),
        "uneven": lambda: build_realization(_UNEVEN, 19),
        "swap_los_fading": lambda: build_realization(ScenarioConfig(swap_los_fading=True), 8),
        "no_downlink_users": lambda: build_realization(ScenarioConfig(dl_users=0), 4),
        "no_uplink_users": lambda: build_realization(ScenarioConfig(ul_users=0), 4),
        "full_csi_error_ideal_hardware": lambda: build_realization(
            ScenarioConfig(csi_error_factor=1.0, asic_db=math.inf, adc_bits=math.inf), 6),
        "one_cell": lambda: build_realization(ScenarioConfig(cells=1), 3),
        "seven_cells": lambda: build_realization(
            ScenarioConfig(cells=7, csi_error_factor=1e-2), 2),
    }[case]()
    assert realization_digest(real) == _DIGEST_GOLDENS[case]
