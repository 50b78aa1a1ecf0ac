"""Campaign orchestration: config files, seed fan-out, CSV outputs, summaries.

Config files are flat `section.key = value` lines.  A campaign derives one
seed per realization index from the base seed, builds a single realization
per seed that every algorithm consumes (checksummed to prove it), and writes
deterministic CSVs: rerunning the same config reproduces the files byte for
byte.  Measured wall-clock times are therefore kept out of the CSVs unless
explicitly requested via campaign.measure_timing.
"""

from __future__ import annotations

import csv
import functools
import logging
import math
import multiprocessing
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import baselines, jpaim, objective
from .jpaim import SolverConfig
from .model import Realization, ScenarioConfig, build_realization, realization_digest

log = logging.getLogger(__name__)

KNOWN_ALGORITHMS = ("jpaim", "nsp-jpaim", "half-duplex")

_REALIZATIONS_SCHEMA = "ibfdsim-realizations-v1"
_ITERATIONS_SCHEMA = "ibfdsim-iterations-v1"


class ConfigError(ValueError):
    """Raised for malformed or inconsistent configuration input."""


@dataclass(frozen=True)
class CampaignConfig:
    """Scenario + solver + campaign controls for one simulation run."""

    scenario: ScenarioConfig = ScenarioConfig()
    solver: SolverConfig = SolverConfig()
    realizations: int = 200
    base_seed: int = 12345
    algorithms: tuple = ("jpaim",)
    workers: int = 1
    output_dir: str = "out"
    nsp_subspace_dim: int | None = None      # None -> half the BS transmit antennas
    measure_timing: bool = False             # real elapsed_ms breaks byte determinism
    trace: bool = False                      # also write per-iteration CSVs

    def __post_init__(self):
        if self.realizations < 1:
            raise ConfigError(f"campaign.realizations must be >= 1, got {self.realizations}")
        if self.workers < 1:
            raise ConfigError(f"campaign.workers must be >= 1, got {self.workers}")
        if self.base_seed < 0:
            raise ConfigError("campaign.base_seed must be >= 0")
        if not self.algorithms:
            raise ConfigError("campaign.algorithms must name at least one algorithm")
        for name in self.algorithms:
            if name not in KNOWN_ALGORITHMS:
                raise ConfigError(f"unknown algorithm {name!r}; choose from {KNOWN_ALGORITHMS}")
        if self.nsp_subspace_dim is not None and not (
                1 <= self.nsp_subspace_dim <= self.scenario.bs_tx_antennas):
            raise ConfigError("nsp.subspace_dim must lie in [1, bs_tx_antennas]")


# ---------------------------------------------------------------------------
# config file parsing
# ---------------------------------------------------------------------------

_SOLVER_KEYS = {"nu", "threshold", "max_iterations", "bisection_rel_tol",
                "bisection_max_steps", "init_seed"}
_CAMPAIGN_KEYS = {"realizations", "base_seed", "algorithms", "workers", "output_dir",
                  "measure_timing", "trace"}


def _parse_bool(raw: str, key: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ConfigError(f"key {key}: expected a boolean, got {raw!r}")


def _parse_typed(raw: str, typ, key: str):
    try:
        if typ is bool:
            return _parse_bool(raw, key)
        if typ is int:
            return int(raw)
        if typ is float:
            return float(raw)
    except ValueError as exc:
        raise ConfigError(f"key {key}: {exc}") from exc
    return raw


def _parse_nu(raw: str):
    if raw.strip().lower() == "auto":
        return None
    parts = [p for p in raw.split(",") if p.strip()]
    values = tuple(float(p) for p in parts)
    return values[0] if len(values) == 1 else values


def parse_config(text: str) -> CampaignConfig:
    """Parse flat `section.key = value` lines into a CampaignConfig."""
    scenario_types = {f.name: f.type for f in fields(ScenarioConfig)}
    scenario_kwargs, solver_kwargs, campaign_kwargs = {}, {}, {}
    nsp_dim = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value, got {stripped!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if "." not in key:
            raise ConfigError(f"line {lineno}: key {key!r} lacks a section prefix")
        section, name = key.split(".", 1)
        if section == "scenario":
            if name not in scenario_types:
                raise ConfigError(f"unknown key scenario.{name}")
            typ = {"int": int, "float": float, "bool": bool}[scenario_types[name]]
            scenario_kwargs[name] = _parse_typed(raw, typ, key)
        elif section == "solver":
            if name not in _SOLVER_KEYS:
                raise ConfigError(f"unknown key solver.{name}")
            if name == "nu":
                solver_kwargs[name] = _parse_nu(raw)
            elif name in ("max_iterations", "bisection_max_steps", "init_seed"):
                solver_kwargs[name] = _parse_typed(raw, int, key)
            else:
                solver_kwargs[name] = _parse_typed(raw, float, key)
        elif section == "campaign":
            if name not in _CAMPAIGN_KEYS:
                raise ConfigError(f"unknown key campaign.{name}")
            if name == "algorithms":
                campaign_kwargs[name] = tuple(p.strip() for p in raw.split(",") if p.strip())
            elif name == "output_dir":
                campaign_kwargs[name] = raw
            elif name in ("measure_timing", "trace"):
                campaign_kwargs[name] = _parse_bool(raw, key)
            else:
                campaign_kwargs[name] = _parse_typed(raw, int, key)
        elif section == "nsp":
            if name != "subspace_dim":
                raise ConfigError(f"unknown key nsp.{name}")
            nsp_dim = None if raw.strip().lower() == "auto" else _parse_typed(raw, int, key)
        else:
            raise ConfigError(f"unknown section {section!r} in key {key}")
    try:
        return CampaignConfig(scenario=ScenarioConfig(**scenario_kwargs),
                              solver=SolverConfig(**solver_kwargs),
                              nsp_subspace_dim=nsp_dim, **campaign_kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path) -> CampaignConfig:
    """Load a campaign config file; an empty file yields all defaults."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    return parse_config(p.read_text())


def save_config(config: CampaignConfig, path) -> None:
    """Write every key back out; load_config(save_config(c)) == c."""
    lines = []
    for f in fields(ScenarioConfig):
        lines.append(f"scenario.{f.name} = {getattr(config.scenario, f.name)}")
    for f in fields(SolverConfig):
        value = getattr(config.solver, f.name)
        if f.name == "nu":
            value = "auto" if value is None else (
                ",".join(repr(v) for v in value) if isinstance(value, tuple) else repr(value))
        lines.append(f"solver.{f.name} = {value}")
    nsp = "auto" if config.nsp_subspace_dim is None else config.nsp_subspace_dim
    lines.append(f"nsp.subspace_dim = {nsp}")
    lines.append(f"campaign.realizations = {config.realizations}")
    lines.append(f"campaign.base_seed = {config.base_seed}")
    lines.append(f"campaign.algorithms = {','.join(config.algorithms)}")
    lines.append(f"campaign.workers = {config.workers}")
    lines.append(f"campaign.output_dir = {config.output_dir}")
    lines.append(f"campaign.measure_timing = {config.measure_timing}")
    lines.append(f"campaign.trace = {config.trace}")
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# seed derivation
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1


def derive_seed(base_seed: int, index: int) -> int:
    """Stateless splitmix64 stream: extending a campaign never reshuffles seeds."""
    x = (base_seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


# ---------------------------------------------------------------------------
# campaign execution
# ---------------------------------------------------------------------------


def _format_value(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, bool):
        return "1" if value else "0"
    return str(value)


def _iteration_rows(seed: int, trace: jpaim.RunTrace, measure_timing: bool):
    rows = []
    for rec in trace.records:
        rows.append([seed, rec.iteration, rec.loss, rec.sum_mse,
                     *rec.rsi_watts, rec.sum_rate,
                     rec.elapsed_ms if measure_timing else 0.0])
    return rows


def _run_seed(args):
    """Worker body: build one realization, run every algorithm on it.

    A failed draw is recorded once per configured algorithm; a failed run
    only for its own algorithm.  Either way the campaign goes on.
    """
    config, index = args
    seed = derive_seed(config.base_seed, index)
    try:
        realization = build_realization(config.scenario, seed)
        digest = realization_digest(realization)
    except Exception as exc:  # a failed draw is recorded, not fatal
        message = f"{type(exc).__name__}: {exc}"
        return index, [], {}, [(seed, algo, message) for algo in config.algorithms]
    nsp_dim = config.nsp_subspace_dim or config.scenario.bs_tx_antennas // 2
    cells = config.scenario.cells

    # the jpaim solve, run once however many algorithms use it
    solve = functools.cache(
        lambda: jpaim.run(realization, config.solver, collect_metrics=config.trace))

    rows = []
    traces = {}
    errors = []
    for algo in config.algorithms:
        t0 = time.perf_counter()
        try:
            _run_algorithm(config, realization, algo, nsp_dim, cells, traces, rows,
                           seed, digest, t0, solve)
        except Exception as exc:  # a failed run is recorded, not fatal
            errors.append((seed, algo, f"{type(exc).__name__}: {exc}"))
    trace_rows = {name: _iteration_rows(seed, tr, config.measure_timing)
                  for name, tr in traces.items()}
    return index, rows, trace_rows, errors


def _run_algorithm(config, realization, algo, nsp_dim, cells, traces, rows,
                   seed, digest, t0, solve):
    if algo == "jpaim":
        trace = solve()
        rep, converged, iters = trace.final_report, trace.converged, trace.iterations
        rsi, asic = rep.rsi_watts, rep.asic_depth_db
        if config.trace:
            traces["jpaim"] = trace
    elif algo == "nsp-jpaim":
        # the projection starts from jpaim's own solution: reuse it if jpaim runs too
        shared = solve() if "jpaim" in config.algorithms else None
        trace, _, rep = baselines.run_nsp(realization, config.solver, nsp_dim, trace=shared)
        converged, iters = trace.converged, trace.iterations
        rsi, asic = rep.rsi_watts, rep.asic_depth_db
        if config.trace:
            traces["nsp_jpaim"] = trace
    else:  # half-duplex: no simultaneous transmit/receive, so no RSI
        result = baselines.run_half_duplex(realization, config.solver)
        rep, converged, iters = result, result.converged, result.iterations
        rsi = (0.0,) * cells
        asic = (float("nan"),) * cells
        if config.trace:
            traces["half_duplex_dl"] = result.dl_trace
            traces["half_duplex_ul"] = result.ul_trace
    elapsed_ms = (time.perf_counter() - t0) * 1e3
    rows.append({
        "seed": seed, "algorithm": algo, "digest": digest,
        "converged": converged, "iterations": iters,
        "loss": rep.loss,
        "sum_mse_dl": getattr(rep, "sum_mse_dl", float("nan")),
        "sum_mse_ul": getattr(rep, "sum_mse_ul", float("nan")),
        "sum_rate": rep.sum_rate, "sum_rate_dl": rep.sum_rate_dl,
        "sum_rate_ul": rep.sum_rate_ul,
        "rsi": rsi, "asic": asic, "elapsed_ms": elapsed_ms,
    })


def _realization_columns(cells: int):
    return (["seed", "algorithm", "digest", "converged", "iterations", "loss",
             "sum_mse_dl", "sum_mse_ul", "sum_rate", "sum_rate_dl", "sum_rate_ul",
             "sum_rate_delta"]
            + [f"rsi_w_{g}" for g in range(cells)]
            + [f"asic_db_{g}" for g in range(cells)]
            + ["elapsed_ms"])


def run_campaign(config: CampaignConfig):
    """Run all configured algorithms over all seeds and write the CSVs.

    Returns the CampaignSummary computed from the same rows that were
    written.  Output is ordered by (seed index, algorithm) no matter how many
    workers executed, so identical configs give identical bytes.
    """
    outdir = Path(config.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    tasks = [(config, i) for i in range(config.realizations)]
    if config.workers > 1:
        with multiprocessing.get_context("spawn").Pool(config.workers) as pool:
            results = pool.map(_run_seed, tasks)
    else:
        results = [_run_seed(task) for task in tasks]
    results.sort(key=lambda item: item[0])

    cells = config.scenario.cells
    columns = _realization_columns(cells)
    lines = [f"# schema: {_REALIZATIONS_SCHEMA}", ",".join(columns)]
    flat_rows = []
    all_errors = [err for _, _, _, errs in results for err in errs]
    if all_errors:
        elines = [f"{seed},{algo},{msg}" for seed, algo, msg in all_errors]
        (outdir / "errors.log").write_text("\n".join(elines) + "\n")
        log.warning("%d solver run(s) failed; see errors.log", len(all_errors))
    for _, rows, _tr, _errs in results:
        if not rows:
            continue
        base_rate = rows[0]["sum_rate"]
        for row in rows:
            row = dict(row)
            row["sum_rate_delta"] = row["sum_rate"] - base_rate
            if not config.measure_timing:
                row["elapsed_ms"] = 0.0
            flat_rows.append(row)
            values = ([row["seed"], row["algorithm"], row["digest"],
                       row["converged"], row["iterations"], row["loss"],
                       row["sum_mse_dl"], row["sum_mse_ul"], row["sum_rate"],
                       row["sum_rate_dl"], row["sum_rate_ul"], row["sum_rate_delta"]]
                      + list(row["rsi"]) + list(row["asic"]) + [row["elapsed_ms"]])
            lines.append(",".join(_format_value(v) for v in values))
    (outdir / "realizations.csv").write_text("\n".join(lines) + "\n")

    if config.trace:
        names = sorted({name for _, _, tr, _ in results for name in tr})
        for name in names:
            header = (["seed", "iter", "loss", "sum_mse"]
                      + [f"rsi_w_{g}" for g in range(cells)]
                      + ["sum_rate", "elapsed_ms"])
            tlines = [f"# schema: {_ITERATIONS_SCHEMA}", ",".join(header)]
            for _, _, tr, _ in results:
                for vals in tr.get(name, []):
                    tlines.append(",".join(_format_value(v) for v in vals))
            (outdir / f"iterations_{name}.csv").write_text("\n".join(tlines) + "\n")

    return _summarize_rows(flat_rows)


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MetricSummary:
    mean: float
    std: float
    ci95_low: float
    ci95_high: float


@dataclass(frozen=True)
class AlgorithmSummary:
    algorithm: str
    realizations: int
    converged_fraction: float
    metrics: dict   # name -> MetricSummary


@dataclass(frozen=True)
class CampaignSummary:
    algorithms: tuple

    def table(self) -> str:
        widths = "{:<12} {:>6} {:>9}"
        out = [widths.format("algorithm", "n", "conv") + "  metric summaries (mean, std, 95% ci)"]
        for a in self.algorithms:
            out.append(widths.format(a.algorithm, a.realizations, f"{a.converged_fraction:.3f}"))
            for name, m in a.metrics.items():
                out.append(f"    {name:<14} mean={m.mean:.6g} std={m.std:.3g} "
                           f"ci95=[{m.ci95_low:.6g}, {m.ci95_high:.6g}]")
        return "\n".join(out)


_SUMMARY_METRICS = ("sum_rate", "loss", "rsi_total_w", "asic_mean_db",
                    "iterations", "elapsed_ms")


def _metric_summary(values: np.ndarray) -> MetricSummary:
    mean = float(np.mean(values))
    std = float(np.std(values))    # population convention: one sample -> 0
    half = 1.96 * std / math.sqrt(len(values))
    return MetricSummary(mean=mean, std=std, ci95_low=mean - half, ci95_high=mean + half)


def _summarize_rows(rows) -> CampaignSummary:
    if not rows:
        raise ValueError("no data to summarize")
    algos = sorted({row["algorithm"] for row in rows})
    summaries = []
    for algo in algos:
        mine = sorted((row for row in rows if row["algorithm"] == algo),
                      key=lambda row: row["seed"])
        n = len(mine)
        values = {
            "sum_rate": np.array([row["sum_rate"] for row in mine]),
            "loss": np.array([row["loss"] for row in mine]),
            "rsi_total_w": np.array([float(np.sum(row["rsi"])) for row in mine]),
            "asic_mean_db": np.array([float(np.mean(row["asic"])) for row in mine]),
            "iterations": np.array([row["iterations"] for row in mine], dtype=float),
            "elapsed_ms": np.array([row["elapsed_ms"] for row in mine]),
        }
        summaries.append(AlgorithmSummary(
            algorithm=algo,
            realizations=n,
            converged_fraction=float(np.mean([bool(row["converged"]) for row in mine])),
            metrics={name: _metric_summary(values[name]) for name in _SUMMARY_METRICS},
        ))
    return CampaignSummary(algorithms=tuple(summaries))


def summarize(path) -> CampaignSummary:
    """Aggregate a written campaign (directory or realizations.csv path)."""
    p = Path(path)
    if p.is_dir():
        p = p / "realizations.csv"
    if not p.is_file():
        raise ValueError(f"no data to summarize: {p} does not exist")
    with open(p, newline="") as fh:
        first = fh.readline().strip()
        if first != f"# schema: {_REALIZATIONS_SCHEMA}":
            raise ValueError(f"unrecognized schema line {first!r} in {p}")
        reader = csv.DictReader(fh)
        rows = []
        for rec in reader:
            rsi = [float(v) for k, v in rec.items() if k.startswith("rsi_w_")]
            asic = [float(v) for k, v in rec.items() if k.startswith("asic_db_")]
            rows.append({
                "seed": int(rec["seed"]), "algorithm": rec["algorithm"],
                "converged": rec["converged"] == "1",
                "iterations": int(rec["iterations"]), "loss": float(rec["loss"]),
                "sum_rate": float(rec["sum_rate"]), "rsi": rsi, "asic": asic,
                "elapsed_ms": float(rec["elapsed_ms"]),
            })
    return _summarize_rows(rows)


# ---------------------------------------------------------------------------
# complexity accounting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComplexityEstimate:
    """Per-iteration complex multiplication counts of the two matrix updates."""

    precoder_multiplications: int
    power_multiplications: int
    total: int
    order: str
    note: str


def complexity_estimate(cells: int, users: int, bs_antennas: int,
                        ue_antennas: int, streams: int) -> ComplexityEstimate:
    """Multiplication counts for one solver iteration at symmetric loading.

    `users` is the per-cell count on each link direction and `streams` the
    per-user stream count; the dominant term scales with cells * users *
    bs_antennas^3.
    """
    for name, value in (("cells", cells), ("users", users), ("bs_antennas", bs_antennas),
                        ("ue_antennas", ue_antennas), ("streams", streams)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1")
    g, k, a_b, a_u, n_s = cells, users, bs_antennas, ue_antennas, streams
    m_v = g * k * (3 * a_b ** 3 + a_b ** 2 * (2 * a_u + 3 * n_s + 6)
                   + a_b * (a_u ** 2 + 2 * a_u * n_s) + a_u ** 2 * n_s) \
        + a_b ** 3 + a_b ** 2 * a_u + a_b * a_u * n_s
    m_alpha = g * k * (2 * a_b ** 3 + a_b ** 2 * (a_u + 5 * n_s + 2)
                       + a_b * (a_u ** 2 + 4 * a_u * n_s + n_s ** 2)
                       + a_u ** 2 * n_s + 2 * a_u * n_s + 2 * n_s ** 2) \
        + a_b ** 2 * n_s + a_b * (a_u * n_s + n_s ** 2)
    return ComplexityEstimate(
        precoder_multiplications=m_v,
        power_multiplications=m_alpha,
        total=m_v + m_alpha,
        order="O(G K A_b^3)",
        note="plus one O(A_b^3) eigendecomposition or inverse per cell per iteration",
    )
