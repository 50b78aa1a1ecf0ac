"""Network geometry, propagation, and hardware model.

Builds reproducible multi-cell scenarios for an in-band full-duplex (IBFD)
deployment: base stations on a hexagonal lattice serve downlink users while
simultaneously receiving from uplink users, so every realization carries
user-to-user and BS-to-BS cross links in addition to the usual serving links,
plus a self-interference (SI) channel at each BS.

Every channel is stored as its estimate with a known per-element error
variance, the model the solver's expected loss reads, and no true matrix is
kept; SI channels are perfectly known.  A realization keeps the estimates
in one matrix X (module `stacked`), drawn block by block and read by the
solver kernels as whole arrays.  The Channels holding X are also the one
record of the realization's sizes (cells, users per cell, antennas per
node); the realization adds only the hardware, the two stream counts and
the seed.  Node positions only set the path losses while a realization is
drawn and are not kept: (scenario, seed) gives them again.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .stacked import Channels

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


def check_integer_fields(config, error=ValueError) -> None:
    """Raise `error` naming the first field of the dataclass `config` that is
    annotated int but holds no integer: a float such as 2.0 and a bool are
    refused, a numpy integer passes."""
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type == "int" and (isinstance(value, bool)
                                or not isinstance(value, (int, np.integer))):
            raise error(f"{f.name} must be an integer, got {value!r}")


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
        check_integer_fields(self)
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
        linear_units(self)   # refused here, not once per seed by build_realization


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


def linear_units(config: ScenarioConfig) -> tuple[HardwareProfile, float]:
    """The scenario's hardware profile and Rician K factor in linear units.  A
    quantity that overflows raises a ValueError naming it, and HardwareProfile
    refuses a noise power or budget that underflows to 0 W."""
    def linear(name, to_linear, *args):
        try:
            return to_linear(*args)
        except OverflowError:
            raise ValueError(f"{name} overflows in linear units") from None

    distortion = distortion_factor_from_bits(config.adc_bits)
    noise = config.noise_density_dbm_hz, config.bandwidth_hz
    hw = HardwareProfile(
        kappa_bs=distortion, kappa_ue=distortion, beta_bs=distortion, beta_ue=distortion,
        noise_bs_w=linear("noise_bs_w", noise_variance, *noise, config.bs_noise_figure_db),
        noise_ue_w=linear("noise_ue_w", noise_variance, *noise, config.ue_noise_figure_db),
        p_bs_w=linear("p_bs_w", dbm_to_watts, config.bs_power_dbm),
        p_ue_w=linear("p_ue_w", dbm_to_watts, config.ue_power_dbm),
        si_gain=(linear("si_gain", db_to_linear, -config.asic_db),) * config.cells)
    return hw, linear("rician_k", db_to_linear, config.rician_k_db)


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


def generate_topology(config: ScenarioConfig, rng: np.random.Generator
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Drop the scenario's BSs on a hex lattice and its users uniformly inside
    their serving cell, as (bs_xy, dl_xy, ul_xy) in metres: (G, 2), (G, K_d, 2), (G, K_u, 2).

    Users are rejection-sampled inside the Voronoi hexagon of their BS with a
    keep-out disc of min_bs_user_distance_m around the BS.
    """
    isd, min_dist = config.inter_site_distance_m, config.min_bs_user_distance_m
    circumradius = isd / math.sqrt(3.0)
    bs_xy = _hex_lattice(config.cells, isd)

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

    dl_xy, ul_xy = (np.empty((config.cells, k, 2)) for k in (config.dl_users, config.ul_users))
    for g in range(config.cells):
        dl_xy[g] = bs_xy[g] + drop(config.dl_users)
        ul_xy[g] = bs_xy[g] + drop(config.ul_users)
    return bs_xy, dl_xy, ul_xy


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


def generate_channel(gain: np.ndarray, rician_k: float, use_rician: np.ndarray,
                     normals: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Channel matrices with average per-element power `gain`, one per link,
    written into `out` (links..., rows, cols) complex, which it returns.

    `normals` (links..., 2, rows, cols) holds the real and imaginary parts of
    each link's N, i.i.d. CN(0, 1); `gain` and `use_rician` are (links...).
    Rayleigh: sqrt(gain) * N.  Rician: deterministic component (identity
    when square, all-ones otherwise) blended with the same scattered part at
    K-factor `rician_k` (linear).
    """
    scatter = 1j * normals[..., 1, :, :]
    scatter += normals[..., 0, :, :]
    scatter /= math.sqrt(2.0)
    rows, cols = scatter.shape[-2:]
    det = np.eye(rows, cols, dtype=complex) if rows == cols else np.ones((rows, cols), dtype=complex)
    los, scattered = math.sqrt(rician_k / (rician_k + 1.0)), math.sqrt(1.0 / (rician_k + 1.0))
    scatter[use_rician] = los * det + scattered * scatter[use_rician]
    return np.multiply(np.sqrt(gain)[..., None, None], scatter, out=out)


def apply_uncertainty(channel: np.ndarray, varrho: float,
                      normals: np.ndarray) -> np.ndarray:
    """Replace true channels (links..., rows, cols) in place by their
    estimates and return each link's known error variance, with `normals`
    (links..., 2, rows, cols) the real and imaginary parts of each link's
    error draw.

    A link's per-element error variance is varrho * ||H||_F^2 / (rows*cols);
    its estimate is H minus the error, so estimate + error = truth holds
    exactly.  varrho = 0 leaves the channels as they are, gives zero
    variances, and reads no normals.
    """
    if varrho < 0:
        raise ValueError("varrho must be >= 0")
    *links, rows, cols = channel.shape
    if varrho == 0.0:
        return np.zeros(links)
    # one norm per link: a batched norm rounds differently
    err_var = np.array([varrho * float(np.linalg.norm(h) ** 2) / (rows * cols)
                        for h in channel.reshape(-1, rows, cols)]).reshape(links)
    delta = 1j * normals[..., 1, :, :]
    delta += normals[..., 0, :, :]
    delta *= np.sqrt(err_var / 2.0)[..., None, None]
    channel -= delta
    return err_var


# ---------------------------------------------------------------------------
# channel container
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class Realization:
    """One drawn network: hardware, channels, and stream counts, all a solve
    reads, and the seed it was drawn from.

    `channels` is the one record of the network's sizes: its cell, user and
    antenna counts (see Channels).  Each stream count is at least 1 and at
    most the smaller antenna count of its link; a BS chain of 0 antennas is
    switched off, as in a half-duplex phase, and bounds no stream count.
    """

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

    def ul_users(self):
        return np.ndindex(self.channels.cells, self.channels.k_u)

    @property
    def cell_count(self) -> int:
        return self.channels.cells


def build_realization(config: ScenarioConfig, seed: int) -> Realization:
    """Draw a full network realization from a scenario config and a seed.

    The draw order is fixed so that identical (config, seed) pairs are
    bit-reproducible and so that scenario fields which only rescale channels
    (e.g. the SI gain) do not perturb unrelated draws: the geometry first,
    then one stream of standard normals for every downlink user (cell by
    cell) and then every BS.  The stream runs over the receivers, a
    receiver's over its transmitters (every BS, then every uplink user,
    cell by cell), and a link's are the real and imaginary parts of its
    matrix, then of its estimation error.  The SI link draws no error (its
    CSI is perfect), and no link does at csi_error_factor 0.  Each link's
    truth is drawn into its block of X and replaced there by its estimate.
    The positions serve only the path losses and are not kept;
    generate_topology(config, default_rng(seed)) gives them again.
    """
    rng = np.random.default_rng(seed)
    bs_xy, dl_xy, ul_xy = generate_topology(config, rng)
    (hw, rician_k), varrho = linear_units(config), config.csi_error_factor
    sizes = (config.cells, config.dl_users, config.ue_rx_antennas, config.bs_rx_antennas,
             config.bs_tx_antennas, config.ul_users, config.ue_tx_antennas)
    cells, k_d, m_ue, m_bs, n_bs, k_u, n_ue = sizes
    shape, err_shape = Channels.shapes(*sizes)
    x, err = np.zeros(shape, complex), np.zeros(err_shape)
    draws, si = (4 if varrho else 2), np.arange(cells)   # a link's matrix, then its error
    # per node kind: positions, antennas, its rows or columns of X, of err
    dl_rows, bs_cols = cells * k_d * m_ue, cells * n_bs
    receivers = ((dl_xy.reshape(-1, 2), m_ue, np.s_[:dl_rows], np.s_[:cells * k_d]),
                 (bs_xy, m_bs, np.s_[dl_rows:], np.s_[cells * k_d:]))
    senders = ((bs_xy, n_bs, np.s_[:bs_cols], np.s_[:cells]),
               (ul_xy.reshape(-1, 2), n_ue, np.s_[bs_cols:], np.s_[cells:]))
    for rx_xy, m, rows, rx_err in receivers:
        # one row of numbers per receiver, (transmitter, draw, m, n) per
        # transmitter kind; one stream fills it in memory order through a
        # mask that leaves the SI links' error slots at zero
        widths = [len(tx_xy) * draws * m * n for tx_xy, n, *_ in senders]
        mask = np.ones((len(rx_xy), sum(widths)), bool)
        if rx_xy is bs_xy:
            mask[:, :widths[0]].reshape(cells, cells, draws, m, n_bs)[si, si, 2:] = False
        numbers = np.zeros(mask.shape)
        numbers[mask] = rng.standard_normal(np.count_nonzero(mask))
        for (tx_xy, n, cols, tx_err), drawn in zip(senders, np.split(numbers, widths[:1], axis=1)):
            links = (len(rx_xy), len(tx_xy))
            part = drawn.reshape(*links, draws, m, n)
            gain, rician = np.empty(links), np.empty(links, bool)
            # one scalar norm, LOS test and path loss per link: their batched
            # numpy forms round some links differently, which moves every digest
            for r, t in np.ndindex(links):
                d = float(np.linalg.norm(rx_xy[r] - tx_xy[t]))
                los = los_probability(d) >= 0.5
                gain[r, t] = pathloss_umi(d, config.carrier_ghz, los)
                # stated fading rule pairs LOS geometry with Rayleigh draws; the
                # swap flag restores the conventional LOS -> Rician mapping
                rician[r, t] = los == config.swap_los_fading
            if rx_xy is tx_xy:   # BSs <- BSs, SI links on the diagonal: Rayleigh, residual gain
                gain[si, si], rician[si, si] = hw.si_gain, False
            h = x[rows, cols].reshape(links[0], m, links[1], n).swapaxes(1, 2)
            generate_channel(gain, rician_k, rician, part[:, :, :2], out=h)
            err[rx_err, tx_err] = apply_uncertainty(h, varrho, part[:, :, 2:])
            if rx_xy is tx_xy:   # perfect SI CSI: zero error draws, so x keeps its truth
                err[rx_err, tx_err][si, si] = 0
    return Realization(hardware=hw, seed=seed, dl_streams=config.dl_streams,
                       ul_streams=config.ul_streams, channels=Channels(x, err, *sizes))


# ---------------------------------------------------------------------------
# single-link-direction restrictions (used by half-duplex baselines)
# ---------------------------------------------------------------------------


def _restrict(realization: Realization, keep_dl: bool) -> Realization:
    """The realization with one direction's users dropped and the BS radio
    that direction needs switched off: a downlink phase keeps no BS receive
    rows, an uplink phase no BS transmit columns.  Each stored array of the
    result is one block of the full realization's."""
    ch = realization.channels
    dl_rows, bs_cols = ch.cells * ch.k_d * ch.m_ue, ch.cells * ch.n_bs
    cut = np.s_[:dl_rows, :bs_cols] if keep_dl else np.s_[dl_rows:, bs_cols:]
    err = ch.err[:, :ch.cells] if keep_dl else ch.err[ch.cells * ch.k_d:]
    off = dict(m_bs=0, k_u=0) if keep_dl else dict(k_d=0, n_bs=0)
    channels = replace(ch, x=ch.x[cut], err=err, **off)
    return replace(realization, channels=channels)


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
_FORMAT_VERSION = 4
# the stored arrays in file order, with their dtypes
_ARRAYS = {"x": "<c16", "err": "<f8"}
# the header's keys; "sizes" holds the Channels size fields and both stream counts
_HEADER = ("seed", "hardware", "sizes", "arrays")
_CHANNEL_SIZES = tuple(f.name for f in fields(Channels) if f.type == "int")
_SIZES = (*_CHANNEL_SIZES, "dl_streams", "ul_streams")


def _payload(realization: Realization):
    """Canonical (header, arrays) pair; the arrays by name, in file order."""
    ch = realization.channels
    arrays = {"x": ch.x, "err": ch.err}
    meta = {
        "seed": realization.seed,
        "hardware": asdict(realization.hardware),
        "sizes": {**{name: getattr(ch, name) for name in _CHANNEL_SIZES},
                  "dl_streams": realization.dl_streams, "ul_streams": realization.ul_streams},
        "arrays": {name: list(a.shape) for name, a in arrays.items()},
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
    for name, a in arrays.items():
        blob += np.ascontiguousarray(a, dtype=_ARRAYS[name]).tobytes()
    return bytes(blob)


def realization_digest(realization: Realization) -> str:
    """Hex digest identifying the exact realization bytes."""
    return hashlib.sha256(serialize_realization(realization)).hexdigest()


def save_realization(realization: Realization, path) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize_realization(realization))


def _checked(obj, keys, what: str) -> dict:
    """`obj` if it is a JSON object with exactly the given keys."""
    if not isinstance(obj, dict):
        raise ValueError(f"realization file: {what} is {obj!r}, not an object")
    missing, extra = sorted(set(keys) - obj.keys()), sorted(obj.keys() - set(keys))
    if missing or extra:
        raise ValueError(f"realization file: {what} keys: missing {missing}, extra {extra}")
    return obj


def _is_number(value) -> bool:
    return type(value) in (int, float)


def load_realization(path) -> Realization:
    """Read a file written by save_realization.

    Raises ValueError for a foreign file, an unsupported version, a blob
    whose length disagrees with its own header (cut short or padded), a
    header, `sizes`, `hardware` or `arrays` object with a key missing or
    extra, a seed that is not an integer, a size that is not an integer, a
    cell count below 1 or another size below 0, a stream count below 1 or
    above the antennas of its link, a hardware value that is not a number,
    out of range or not finite, an SI gain count other than the cell count,
    an array whose shape disagrees with the sizes, an array entry that is
    not finite (a channel entry or an error variance), an error variance
    that is negative, or an SI link with an error variance other than zero:
    SI CSI is perfect.  Formats 1 and 2, which also stored the true
    matrices, and format 3, which also stored the node positions, are
    refused as unsupported versions.
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
    meta = _checked(json.loads(blob[fixed:fixed + head_len].decode()), _HEADER, "header")
    sizes = _checked(meta["sizes"], _SIZES, "sizes")
    for key, value in sizes.items():
        least = 1 if key == "cells" else 0
        if type(value) is not int or value < least:
            raise ValueError(f"realization file has {key} = {value!r}, not an integer "
                             f">= {least}")
    if type(meta["seed"]) is not int:
        raise ValueError(f"realization file has seed = {meta['seed']!r}, not an integer")
    hwm = _checked(meta["hardware"], [f.name for f in fields(HardwareProfile)], "hardware")
    for key, value in hwm.items():
        numbers = value if key == "si_gain" else [value]
        if type(numbers) is not list or not all(map(_is_number, numbers)):
            raise ValueError(f"realization file has hardware {key} = {value!r}, not "
                             f"{'a list of numbers' if key == 'si_gain' else 'a number'}")
    cells = sizes["cells"]
    if len(hwm["si_gain"]) != cells:
        raise ValueError(f"realization file has {len(hwm['si_gain'])} SI gains for "
                         f"{cells} cells")
    hardware = HardwareProfile(**{**hwm, "si_gain": tuple(hwm["si_gain"])})
    channel_sizes = {key: sizes[key] for key in _CHANNEL_SIZES}
    shapes = dict(zip(_ARRAYS, Channels.shapes(**channel_sizes)))
    stated = _checked(meta["arrays"], _ARRAYS, "arrays")
    for name, shape in shapes.items():
        if stated[name] != list(shape):
            raise ValueError(f"realization file: {name} has shape {stated[name]}, the sizes "
                             f"give {list(shape)}")
    nbytes = [math.prod(shape) * np.dtype(dtype).itemsize
              for shape, dtype in zip(shapes.values(), _ARRAYS.values())]
    expected = fixed + head_len + sum(nbytes)
    if len(blob) < expected:
        raise ValueError(f"truncated realization file: {len(blob)} bytes, "
                         f"the header describes {expected}")
    if len(blob) > expected:
        raise ValueError(f"realization file has {len(blob) - expected} trailing bytes "
                         f"after the {expected} its header describes")
    offset, data = fixed + head_len, {}
    for (name, dtype), size in zip(_ARRAYS.items(), nbytes):
        a = np.frombuffer(blob[offset:offset + size], dtype=dtype).reshape(shapes[name]).copy()
        bad = np.argwhere(~(np.isfinite(a) & (a >= 0) if name == "err" else np.isfinite(a)))
        if bad.size:
            index = bad[0].tolist()
            raise ValueError(f"realization file: {name}{index} = {a[tuple(index)]}, not a finite "
                             f"number{' >= 0' if name == 'err' else ''}")
        data[name] = a
        offset += size

    # SI CSI is perfect: each BS's SI link, a diagonal entry of the BS block of err
    si_err = data["err"][cells * sizes["k_d"]:, :cells].diagonal()
    if si_err.any():
        raise ValueError(f"realization file: the SI link of BS {np.flatnonzero(si_err)[0]} has "
                         f"an error variance; SI CSI is perfect")
    return Realization(hardware=hardware,
                       channels=Channels(data["x"], data["err"], **channel_sizes),
                       dl_streams=sizes["dl_streams"], ul_streams=sizes["ul_streams"],
                       seed=meta["seed"])
