"""Network geometry, propagation, and hardware model.

Builds reproducible multi-cell scenarios for an in-band full-duplex (IBFD)
deployment: base stations on a hexagonal lattice serve downlink users while
simultaneously receiving from uplink users, so every realization carries
user-to-user and BS-to-BS cross links in addition to the usual serving links,
plus a self-interference (SI) channel at each BS.

All channels are stored both as the true matrix and as an estimated copy with
a known per-element error variance; SI channels are assumed perfectly known.
A realization keeps them in one matrix X (module `stacked`), which the
solver kernels read directly; `Realization.link` views one link's blocks.
The Channels holding X are also the one record of the realization's sizes
(cells, users per cell, antennas per node); the realization adds only the
geometry, the hardware, and the two stream counts.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass, fields, replace

import numpy as np

from .stacked import Channels, LinkView

# ---------------------------------------------------------------------------
# unit helpers
# ---------------------------------------------------------------------------


def dbm_to_watts(power_dbm: float) -> float:
    """Convert a dBm figure to watts."""
    return 10.0 ** (power_dbm / 10.0) * 1e-3


def db_to_linear(value_db: float) -> float:
    return 10.0 ** (value_db / 10.0)


def noise_variance(density_dbm_hz: float, bandwidth_hz: float, noise_figure_db: float) -> float:
    """Thermal noise power in watts over the given bandwidth, including noise figure."""
    if bandwidth_hz <= 0:
        raise ValueError("bandwidth_hz must be positive")
    total_dbm = density_dbm_hz + 10.0 * math.log10(bandwidth_hz) + noise_figure_db
    return dbm_to_watts(total_dbm)


def distortion_factor_from_bits(bits: float) -> float:
    """Additive-quantization-noise-model distortion factor for a b-bit converter.

    Maps converter resolution to the relative distortion power injected at
    each antenna: (pi*sqrt(3)/2) * 4**(-b).  Returns 0 for infinite bits.
    """
    if bits <= 0:
        raise ValueError("bits must be positive")
    if math.isinf(bits):
        return 0.0
    return (math.pi * math.sqrt(3.0) / 2.0) * 4.0 ** (-bits)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioConfig:
    """Physical-layer scenario description (defaults follow a dense urban-micro setup)."""

    cells: int = 2
    dl_users: int = 2                      # downlink users per cell
    ul_users: int = 2                      # uplink users per cell
    bs_tx_antennas: int = 16
    bs_rx_antennas: int = 16
    ue_tx_antennas: int = 2
    ue_rx_antennas: int = 2
    dl_streams: int = 2
    ul_streams: int = 2
    inter_site_distance_m: float = 200.0
    min_bs_user_distance_m: float = 10.0
    carrier_ghz: float = 2.5
    bandwidth_hz: float = 1e7
    bs_power_dbm: float = 24.0
    ue_power_dbm: float = 23.0
    noise_density_dbm_hz: float = -174.0
    bs_noise_figure_db: float = 13.0
    ue_noise_figure_db: float = 9.0
    adc_bits: float = 12.0
    csi_error_factor: float = 1e-12        # varrho, relative CSI error power (-120 dB)
    rician_k_db: float = 10.0
    asic_db: float = 120.0                 # analog/passive SI cancellation depth l_g
    swap_los_fading: bool = False          # use the conventional LOS->Rician mapping

    def __post_init__(self):
        for name in ("cells", "dl_users", "ul_users"):
            if getattr(self, name) < (1 if name == "cells" else 0):
                raise ValueError(f"{name} out of range: {getattr(self, name)}")
        for name in ("bs_tx_antennas", "bs_rx_antennas", "ue_tx_antennas",
                     "ue_rx_antennas", "dl_streams", "ul_streams"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.dl_streams > min(self.bs_tx_antennas, self.ue_rx_antennas):
            raise ValueError("dl_streams exceeds min(bs_tx_antennas, ue_rx_antennas)")
        if self.ul_streams > min(self.ue_tx_antennas, self.bs_rx_antennas):
            raise ValueError("ul_streams exceeds min(ue_tx_antennas, bs_rx_antennas)")
        ideal = ("adc_bits", "asic_db")      # inf: an ideal converter, ideal SI cancellation
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not (math.isfinite(value) or f.name in ideal and value > 0):
                raise ValueError(f"{f.name} must be a finite number, got {value}")
        for name in ("carrier_ghz", "bandwidth_hz", "adc_bits"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.csi_error_factor < 0:
            raise ValueError("csi_error_factor must be >= 0")
        if not 0 < self.min_bs_user_distance_m:
            raise ValueError("min_bs_user_distance_m must be positive")
        radius = self.inter_site_distance_m / math.sqrt(3.0)
        if self.min_bs_user_distance_m >= radius:
            raise ValueError(f"min_bs_user_distance_m {self.min_bs_user_distance_m} m leaves "
                             f"no room in a cell of radius inter_site_distance_m/sqrt(3) = "
                             f"{radius:.3f} m")


@dataclass(frozen=True)
class HardwareProfile:
    """Impairment factors, noise floors, and power budgets (all linear units)."""

    kappa_bs: float          # BS transmit distortion factor
    kappa_ue: float          # UE transmit distortion factor
    beta_bs: float           # BS receive distortion factor
    beta_ue: float           # UE receive distortion factor
    noise_bs_w: float        # receiver noise power at the BS, W
    noise_ue_w: float        # receiver noise power at a UE, W
    p_bs_w: float            # per-cell downlink power budget, W
    p_ue_w: float            # per-user uplink power budget, W
    si_gain: tuple[float, ...]   # residual SI path gain l_g per cell (linear, <= 1)

    def __post_init__(self):
        for name in ("kappa_bs", "kappa_ue", "beta_bs", "beta_ue"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        for name in ("noise_bs_w", "noise_ue_w", "p_bs_w", "p_ue_w"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if any(g < 0 for g in self.si_gain):
            raise ValueError("si_gain entries must be >= 0")
        for f in fields(self):
            if not np.all(np.isfinite(getattr(self, f.name))):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

# unit normals toward the 6 lattice neighbours; the cell is the Voronoi hexagon
_HEX_NORMALS = np.array(
    [[math.cos(a), math.sin(a)] for a in np.arange(6) * (math.pi / 3.0)]
)

_AXIAL_DIRS = [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)]


def _hex_lattice(count: int, isd: float) -> np.ndarray:
    """First `count` sites of a hexagonal lattice spiral, centre first."""
    sites = [(0, 0)]
    ring = 1
    while len(sites) < count:
        q, r = ring, 0  # start of the ring, then walk its 6 edges
        for dq, dr in (_AXIAL_DIRS[2], _AXIAL_DIRS[3], _AXIAL_DIRS[4],
                       _AXIAL_DIRS[5], _AXIAL_DIRS[0], _AXIAL_DIRS[1]):
            for _ in range(ring):
                sites.append((q, r))
                q, r = q + dq, r + dr
        ring += 1
    xy = np.empty((count, 2))
    for n, (q, r) in enumerate(sites[:count]):
        xy[n] = (isd * (q + 0.5 * r), isd * (math.sqrt(3.0) / 2.0) * r)
    return xy


def _in_hexagon(offset: np.ndarray, isd: float) -> bool:
    # inside the Voronoi cell iff no neighbour's half-plane is crossed
    return bool(np.all(_HEX_NORMALS @ offset <= isd / 2.0 + 1e-12))


@dataclass(frozen=True, eq=False)
class Topology:
    """Node placement for one scenario: BS sites plus per-cell user drops."""

    bs_xy: np.ndarray                  # (G, 2) metres
    dl_xy: tuple[np.ndarray, ...]      # per cell (K_d, 2)
    ul_xy: tuple[np.ndarray, ...]      # per cell (K_u, 2)
    inter_site_distance_m: float
    min_bs_user_distance_m: float


def generate_topology(cells: int, dl_users: int, ul_users: int,
                      isd: float, min_dist: float, rng: np.random.Generator) -> Topology:
    """Drop BSs on a hex lattice and users uniformly inside their serving cell.

    Users are rejection-sampled inside the Voronoi hexagon of their BS with a
    keep-out disc of `min_dist` around the BS.
    """
    circumradius = isd / math.sqrt(3.0)
    if min_dist >= circumradius:
        raise ValueError(
            f"infeasible geometry: min_dist {min_dist} m >= cell radius {circumradius:.3f} m")
    bs_xy = _hex_lattice(cells, isd)

    def drop(count: int) -> np.ndarray:
        out = np.empty((count, 2))
        for n in range(count):
            for _ in range(100000):
                p = rng.uniform(-circumradius, circumradius, size=2)
                if np.hypot(*p) >= min_dist and _in_hexagon(p, isd):
                    out[n] = p
                    break
            else:  # pragma: no cover - bounded rejection region
                raise RuntimeError("user placement did not terminate")
        return out

    dl_xy, ul_xy = [], []
    for g in range(cells):
        dl_xy.append(bs_xy[g] + drop(dl_users))
        ul_xy.append(bs_xy[g] + drop(ul_users))
    return Topology(
        bs_xy=bs_xy,
        dl_xy=tuple(dl_xy),
        ul_xy=tuple(ul_xy),
        inter_site_distance_m=isd,
        min_bs_user_distance_m=min_dist,
    )


# ---------------------------------------------------------------------------
# propagation
# ---------------------------------------------------------------------------


def los_probability(distance_m: float) -> float:
    """Line-of-sight probability of the urban-micro street-canyon model."""
    d = max(distance_m, 1e-9)
    return min(18.0 / d, 1.0) * (1.0 - math.exp(-d / 36.0)) + math.exp(-d / 36.0)


def pathloss_umi(distance_m: float, carrier_ghz: float, is_los: bool) -> float:
    """Urban-micro pathloss as a linear power gain (<= 1 in practice).

    Single-slope variants, no shadowing; distances are clamped to 1 m to keep
    the log argument sane for co-located drops.
    """
    d = max(distance_m, 1.0)  # avoid log of tiny separations
    pl_los = 32.4 + 21.0 * math.log10(d) + 20.0 * math.log10(carrier_ghz)
    if is_los:
        pl_db = pl_los
    else:
        pl_nlos = 22.4 + 35.3 * math.log10(d) + 21.3 * math.log10(carrier_ghz)
        pl_db = max(pl_los, pl_nlos)
    return db_to_linear(-pl_db)


def generate_channel(gain: float, rician_k: float, use_rician: bool,
                     rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Draw one channel matrix with average per-element power `gain`.

    Rayleigh: sqrt(gain) * N with N i.i.d. CN(0, 1).  Rician: deterministic
    component (identity when square, all-ones otherwise) blended with the same
    scattered part at K-factor `rician_k` (linear).
    """
    scatter = (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols)))
    scatter /= math.sqrt(2.0)
    if not use_rician:
        return math.sqrt(gain) * scatter
    det = np.eye(rows, cols, dtype=complex) if rows == cols else np.ones((rows, cols), dtype=complex)
    k = rician_k
    return math.sqrt(gain) * (math.sqrt(k / (k + 1.0)) * det + math.sqrt(1.0 / (k + 1.0)) * scatter)


def apply_uncertainty(channel: np.ndarray, varrho: float,
                      rng: np.random.Generator) -> tuple[np.ndarray, float]:
    """Split a true channel into an estimate and a known error variance.

    The per-element error variance is varrho * ||H||_F^2 / (rows*cols); the
    estimate is H minus one error draw, so estimate + error = truth holds
    exactly.  varrho = 0 returns the channel unchanged.
    """
    if varrho < 0:
        raise ValueError("varrho must be >= 0")
    if varrho == 0.0:
        return channel, 0.0
    rows, cols = channel.shape
    err_var = varrho * float(np.linalg.norm(channel) ** 2) / (rows * cols)
    delta = (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols)))
    delta *= math.sqrt(err_var / 2.0)
    return channel - delta, err_var


# ---------------------------------------------------------------------------
# channel container
# ---------------------------------------------------------------------------

# node keys: ("bs", g), ("dl", g, k), ("ul", g, k)
Node = tuple


def bs_node(g: int) -> Node:
    return ("bs", g)


def dl_node(g: int, k: int) -> Node:
    return ("dl", g, k)


def ul_node(g: int, k: int) -> Node:
    return ("ul", g, k)


@dataclass(eq=False)
class Realization:
    """One drawn network: geometry, hardware, channels, and stream counts.

    `channels` is the one record of the network's sizes: its cell, user and
    antenna counts (see Channels).  Each stream count is at least 1 and at
    most the smaller antenna count of its link; a BS chain of 0 antennas is
    switched off, as in a half-duplex phase, and bounds no stream count.
    """

    topology: Topology
    hardware: HardwareProfile
    channels: Channels
    dl_streams: int          # b_d, streams per downlink user
    ul_streams: int          # b_u, streams per uplink user
    seed: int

    def __post_init__(self):
        ch = self.channels
        for name, streams, bs, ue in (("dl_streams", self.dl_streams, ch.n_bs, ch.m_ue),
                                      ("ul_streams", self.ul_streams, ch.m_bs, ch.n_ue)):
            if streams < 1:
                raise ValueError(f"{name} must be >= 1, got {streams}")
            if bs and streams > min(bs, ue):
                raise ValueError(f"{name} = {streams} exceeds {min(bs, ue)}, the smaller "
                                 f"antenna count of its link")

    def dl_users(self):
        for g in range(self.channels.cells):
            for k in range(self.channels.k_d):
                yield g, k

    def ul_users(self):
        for g in range(self.channels.cells):
            for k in range(self.channels.k_u):
                yield g, k

    @property
    def cell_count(self) -> int:
        return self.channels.cells

    def links(self) -> list:
        """Every (receiver, transmitter) node pair, sorted by key."""
        bs = [bs_node(g) for g in range(self.cell_count)]
        return sorted((rx, tx) for rx in bs + [dl_node(g, k) for g, k in self.dl_users()]
                      for tx in bs + [ul_node(g, k) for g, k in self.ul_users()])

    def link(self, rx: Node, tx: Node) -> LinkView:
        """The link rx <- tx as views of the stored arrays (see Channels.link), so
        an in-place edit of them edits the realization."""
        return self.channels.link(rx, tx)


def build_realization(config: ScenarioConfig, seed: int) -> Realization:
    """Draw a full network realization from a scenario config and a seed.

    The draw order is fixed so that identical (config, seed) pairs are
    bit-reproducible and so that scenario fields which only rescale channels
    (e.g. the SI gain) do not perturb unrelated draws: the geometry first,
    then one link per (receiver, transmitter) pair, receivers in the outer
    loop (every downlink user, cell by cell, then every BS) and transmitters
    in the inner one (every BS, then every uplink user, cell by cell).  Each
    link draws its matrix, then its estimation error.  This is not the order
    of serialization, which sorts the links by key.
    """
    rng = np.random.default_rng(seed)
    topo = generate_topology(config.cells, config.dl_users, config.ul_users,
                             config.inter_site_distance_m, config.min_bs_user_distance_m, rng)
    hw = HardwareProfile(
        kappa_bs=distortion_factor_from_bits(config.adc_bits),
        kappa_ue=distortion_factor_from_bits(config.adc_bits),
        beta_bs=distortion_factor_from_bits(config.adc_bits),
        beta_ue=distortion_factor_from_bits(config.adc_bits),
        noise_bs_w=noise_variance(config.noise_density_dbm_hz, config.bandwidth_hz,
                                  config.bs_noise_figure_db),
        noise_ue_w=noise_variance(config.noise_density_dbm_hz, config.bandwidth_hz,
                                  config.ue_noise_figure_db),
        p_bs_w=dbm_to_watts(config.bs_power_dbm),
        p_ue_w=dbm_to_watts(config.ue_power_dbm),
        si_gain=(db_to_linear(-config.asic_db),) * config.cells,
    )
    rician_k = db_to_linear(config.rician_k_db)

    real = Realization(topology=topo, hardware=hw, seed=seed,
                       dl_streams=config.dl_streams, ul_streams=config.ul_streams,
                       channels=Channels.zeros(config.cells, config.dl_users,
                                               config.ue_rx_antennas, config.bs_rx_antennas,
                                               config.bs_tx_antennas, config.ul_users,
                                               config.ue_tx_antennas))
    cells = range(config.cells)
    dl = [(dl_node(g, k), topo.dl_xy[g][k]) for g in cells for k in range(config.dl_users)]
    bs = [(bs_node(g), topo.bs_xy[g]) for g in cells]
    ul = [(ul_node(g, k), topo.ul_xy[g][k]) for g in cells for k in range(config.ul_users)]
    for rx, rx_xy in dl + bs:
        for tx, tx_xy in bs + ul:
            link = real.link(rx, tx)
            rows, cols = link.est.shape
            if rx == tx:
                # self-interference: Rayleigh at the residual gain, perfect CSI
                link.est[...] = generate_channel(hw.si_gain[rx[1]], rician_k, False,
                                                 rows, cols, rng)
                continue
            d = float(np.linalg.norm(rx_xy - tx_xy))
            los = los_probability(d) >= 0.5
            gain = pathloss_umi(d, config.carrier_ghz, los)
            # stated fading rule pairs LOS geometry with Rayleigh draws; the
            # swap flag restores the conventional LOS -> Rician mapping
            use_rician = (not los) if not config.swap_los_fading else los
            h = generate_channel(gain, rician_k, use_rician, rows, cols, rng)
            link.true[...] = h
            link.est[...], link.err_var[...] = apply_uncertainty(h, config.csi_error_factor, rng)
    return real


# ---------------------------------------------------------------------------
# single-link-direction restrictions (used by half-duplex baselines)
# ---------------------------------------------------------------------------


def _restrict(realization: Realization, keep_dl: bool) -> Realization:
    """The realization with one direction's users dropped and the BS radio
    that direction needs switched off: a downlink phase keeps no BS receive
    rows, an uplink phase no BS transmit columns.  Each stored array of the
    result is one block of the full realization's."""
    topo, ch = realization.topology, realization.channels
    nowhere = tuple(np.empty((0, 2)) for _ in range(ch.cells))
    new_topo = replace(topo, dl_xy=topo.dl_xy if keep_dl else nowhere,
                       ul_xy=nowhere if keep_dl else topo.ul_xy)
    dl_rows, bs_cols = ch.cells * ch.k_d * ch.m_ue, ch.cells * ch.n_bs
    cut = np.s_[:dl_rows, :bs_cols] if keep_dl else np.s_[dl_rows:, bs_cols:]
    err = ch.err[:, :ch.cells] if keep_dl else ch.err[ch.cells * ch.k_d:]
    off = dict(m_bs=0, k_u=0) if keep_dl else dict(k_d=0, n_bs=0)
    channels = replace(ch, x=ch.x[cut], x_true=ch.x_true[cut], err=err, **off)
    return replace(realization, topology=new_topo, channels=channels)


def restrict_to_downlink(realization: Realization) -> Realization:
    """Drop all uplink users and the BS receive chains (half-duplex downlink phase)."""
    return _restrict(realization, keep_dl=True)


def restrict_to_uplink(realization: Realization) -> Realization:
    """Drop all downlink users and the BS transmit chains (half-duplex uplink phase)."""
    return _restrict(realization, keep_dl=False)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

_FORMAT_MAGIC = b"IBFDREAL"
_FORMAT_VERSION = 1
_ANTENNA_KEYS = ("bs_tx", "bs_rx", "ue_tx", "ue_rx", "dl_streams", "ul_streams")


def _node_name(node: Node) -> str:
    return ":".join(str(part) for part in node)


def _link_name(rx: Node, tx: Node) -> str:
    return f"{_node_name(rx)}<{_node_name(tx)}"


def _payload(realization: Realization):
    """Canonical (metadata, arrays) pair; array order follows the metadata manifest."""
    topo, ch, hw = realization.topology, realization.channels, realization.hardware
    arrays: list[tuple[str, np.ndarray]] = [("topology/bs_xy", topo.bs_xy)]
    for g in range(ch.cells):
        arrays.append((f"topology/dl_xy/{g}", topo.dl_xy[g]))
        arrays.append((f"topology/ul_xy/{g}", topo.ul_xy[g]))
    link_meta = []
    for rx, tx in realization.links():
        link = realization.link(rx, tx)
        name = _link_name(rx, tx)
        arrays.append((f"channel/{name}/true", link.true))
        arrays.append((f"channel/{name}/est", link.est))
        link_meta.append({"rx": _node_name(rx), "tx": _node_name(tx),
                          "err_var": float(link.err_var)})
    meta = {
        "version": _FORMAT_VERSION,
        "seed": realization.seed,
        "topology": {
            "cell_count": ch.cells,
            "dl_counts": [ch.k_d] * ch.cells,
            "ul_counts": [ch.k_u] * ch.cells,
            "inter_site_distance_m": topo.inter_site_distance_m,
            "min_bs_user_distance_m": topo.min_bs_user_distance_m,
        },
        "antennas": dict(zip(_ANTENNA_KEYS, (ch.n_bs, ch.m_bs, ch.n_ue, ch.m_ue,
                                             realization.dl_streams, realization.ul_streams))),
        "hardware": {f.name: (list(v) if isinstance(v := getattr(hw, f.name), tuple) else v)
                     for f in fields(hw)},
        "links": link_meta,
        "arrays": [{"name": name, "dtype": "<c16" if np.iscomplexobj(a) else "<f8",
                    "shape": list(a.shape)} for name, a in arrays],
    }
    return meta, arrays


def serialize_realization(realization: Realization) -> bytes:
    meta, arrays = _payload(realization)
    head = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()
    blob = bytearray()
    blob += _FORMAT_MAGIC
    blob += _FORMAT_VERSION.to_bytes(4, "little")
    blob += len(head).to_bytes(8, "little")
    blob += head
    for (_, a), spec in zip(arrays, meta["arrays"]):
        blob += np.ascontiguousarray(a.astype(spec["dtype"], copy=False)).tobytes()
    return bytes(blob)


def realization_digest(realization: Realization) -> str:
    """Hex digest identifying the exact realization bytes."""
    return hashlib.sha256(serialize_realization(realization)).hexdigest()


def save_realization(realization: Realization, path) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize_realization(realization))


def load_realization(path) -> Realization:
    """Read a file written by save_realization.

    Raises ValueError for a foreign file, an unsupported version, a blob
    whose length disagrees with its own header (cut short or padded), user
    counts that differ between cells, antenna keys other than the six it
    writes, a stream count below 1 or above the antennas of its link, a
    hardware value that is out of range or not finite, a missing position
    array or one whose shape disagrees with the user counts, a link set
    other than the one the topology implies, an SI gain count other than
    the cell count, a matrix whose shape disagrees with the antennas, an SI
    link whose truth differs from its estimate, or an error variance that
    is negative or not finite.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    fixed = len(_FORMAT_MAGIC) + 12          # magic, version, header length
    if len(blob) < len(_FORMAT_MAGIC) and _FORMAT_MAGIC.startswith(blob):
        raise ValueError(f"truncated realization file: {len(blob)} bytes, inside the magic")
    if blob[:8] != _FORMAT_MAGIC:
        raise ValueError("not a realization file (bad magic)")
    if len(blob) < fixed:
        raise ValueError(f"truncated realization file: {len(blob)} bytes, "
                         f"shorter than its {fixed}-byte preamble")
    version = int.from_bytes(blob[8:12], "little")
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported realization format version {version}")
    head_len = int.from_bytes(blob[12:20], "little")
    if len(blob) < fixed + head_len:
        raise ValueError(f"truncated realization file: the header needs {head_len} bytes, "
                         f"{len(blob) - fixed} remain")
    meta = json.loads(blob[fixed:fixed + head_len].decode())
    sizes = [(int(np.prod(spec["shape"])) if spec["shape"] else 1)
             * np.dtype(spec["dtype"]).itemsize for spec in meta["arrays"]]
    expected = fixed + head_len + sum(sizes)
    if len(blob) < expected:
        raise ValueError(f"truncated realization file: {len(blob)} bytes, "
                         f"the header describes {expected}")
    if len(blob) > expected:
        raise ValueError(f"realization file has {len(blob) - expected} trailing bytes "
                         f"after the {expected} its header describes")
    offset = fixed + head_len
    data = {}
    for spec, size in zip(meta["arrays"], sizes):
        a = np.frombuffer(blob[offset:offset + size], dtype=spec["dtype"])
        data[spec["name"]] = a.reshape(spec["shape"]).copy()
        offset += size

    tm, am = meta["topology"], meta["antennas"]
    if any(len(counts) != tm["cell_count"] or len(set(counts)) > 1
           for counts in (tm["dl_counts"], tm["ul_counts"])):
        raise ValueError(f"realization file needs one user count for every cell, got "
                         f"downlink {tm['dl_counts']}, uplink {tm['ul_counts']}")
    if sorted(am) != sorted(_ANTENNA_KEYS):
        raise ValueError(f"realization file has antenna keys {sorted(am)}, "
                         f"not {sorted(_ANTENNA_KEYS)}")
    cells = range(tm["cell_count"])
    topo = Topology(
        bs_xy=data.get("topology/bs_xy"),
        dl_xy=tuple(data.get(f"topology/dl_xy/{g}") for g in cells),
        ul_xy=tuple(data.get(f"topology/ul_xy/{g}") for g in cells),
        inter_site_distance_m=tm["inter_site_distance_m"],
        min_bs_user_distance_m=tm["min_bs_user_distance_m"],
    )
    hwm = dict(meta["hardware"])
    hwm["si_gain"] = tuple(hwm["si_gain"])
    if len(hwm["si_gain"]) != tm["cell_count"]:
        raise ValueError(f"realization file has {len(hwm['si_gain'])} SI gains for "
                         f"{tm['cell_count']} cells")
    hw = HardwareProfile(**hwm)
    real = Realization(topology=topo, hardware=hw, seed=meta["seed"],
                       dl_streams=am["dl_streams"], ul_streams=am["ul_streams"],
                       channels=Channels.zeros(tm["cell_count"], tm["dl_counts"][0], am["ue_rx"],
                                               am["bs_rx"], am["bs_tx"], tm["ul_counts"][0],
                                               am["ue_tx"]))
    names = [f"{lm['rx']}<{lm['tx']}" for lm in meta["links"]]
    found, wanted = Counter(names), Counter(_link_name(rx, tx) for rx, tx in real.links())
    if found != wanted:
        raise ValueError(f"realization file's links do not fit its topology: "
                         f"missing {sorted(wanted - found)}, "
                         f"extra or repeated {sorted(found - wanted)}")
    err_var = dict(zip(names, (lm["err_var"] for lm in meta["links"])))
    for rx, tx in real.links():
        link, name = real.link(rx, tx), _link_name(rx, tx)
        true, est = data.get(f"channel/{name}/true"), data.get(f"channel/{name}/est")
        shapes = [getattr(a, "shape", None) for a in (true, est)]
        if shapes != [link.est.shape] * 2:
            raise ValueError(f"realization file: link {name} has true and est shapes "
                             f"{shapes}, the antennas give {link.est.shape}")
        if rx == tx and not np.array_equal(true, est):
            raise ValueError(f"realization file: the SI link {name} has an estimate "
                             f"that differs from its truth")
        if not 0.0 <= err_var[name] < math.inf:
            raise ValueError(f"realization file: link {name} has the error variance "
                             f"{err_var[name]}, not a finite number >= 0")
        link.true[...], link.est[...], link.err_var[...] = true, est, err_var[name]
    ch = real.channels
    rows = {"bs_xy": ch.cells, **{f"dl_xy/{g}": ch.k_d for g in cells},
            **{f"ul_xy/{g}": ch.k_u for g in cells}}
    for name, count in rows.items():
        xy = data.get(f"topology/{name}")
        if xy is None:
            raise ValueError(f"realization file lacks topology/{name}")
        if xy.shape != (count, 2):
            raise ValueError(f"realization file: topology/{name} has shape {xy.shape}, "
                             f"the topology gives {(count, 2)}")
    return real
