"""Campaign orchestration: config files, seed fan-out, CSV outputs, summaries.

Config files are flat `section.key = value` lines.  A campaign derives one
seed per realization index from the base seed, builds a single realization
per seed that every algorithm consumes (checksummed to prove it), and writes
deterministic CSVs: rerunning the same config reproduces the files byte for
byte.  Measured wall-clock times are therefore kept out of the CSVs unless
explicitly requested via campaign.measure_timing.  With campaign.trace, each
solve kind also gets an iteration CSV, the table of every field of its
solves' records, whose header this module derives from the records' dtype,
and a state CSV, every entry of the beams and combiners its solves end on.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import logging
import math
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import baselines, jpaim
from .jpaim import SolverConfig
from .model import ScenarioConfig, build_realization, check_integer_fields, realization_digest

log = logging.getLogger(__name__)

KNOWN_ALGORITHMS = ("jpaim", "nsp-jpaim", "half-duplex")

_REALIZATIONS_SCHEMA = "ibfdsim-realizations-v2"
_ITERATIONS_SCHEMA = "ibfdsim-iterations-v3"
_STATES_SCHEMA = "ibfdsim-states-v1"
# the solve kinds a traced campaign writes an iteration and a state CSV for
_SOLVES = ("jpaim", "half_duplex_dl", "half_duplex_ul")
# the files a campaign writes only sometimes, besides realizations.csv, and
# iterations_nsp_jpaim.csv, which earlier versions wrote
_OPTIONAL_OUTPUTS = frozenset({"errors.log", "iterations_nsp_jpaim.csv",
                               *(f"{kind}_{name}.csv" for kind in ("iterations", "state")
                                 for name in _SOLVES)})


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
    measure_timing: bool = False             # real elapsed_ms breaks byte determinism
    trace: bool = False                      # also write per-iteration CSVs

    def __post_init__(self):
        check_integer_fields(self, ConfigError)
        if self.realizations < 1:
            raise ConfigError(f"campaign.realizations must be >= 1, got {self.realizations}")
        if self.workers < 1:
            raise ConfigError(f"campaign.workers must be >= 1, got {self.workers}")
        if not self.output_dir:
            raise ConfigError("campaign.output_dir must not be empty")
        if self.base_seed < 0:
            raise ConfigError("campaign.base_seed must be >= 0")
        if not self.algorithms:
            raise ConfigError("campaign.algorithms must name at least one algorithm")
        for name in self.algorithms:
            if name not in KNOWN_ALGORITHMS:
                raise ConfigError(f"unknown algorithm {name!r}; choose from {KNOWN_ALGORITHMS}")
        if len(set(self.algorithms)) != len(self.algorithms):
            raise ConfigError(f"campaign.algorithms repeats a name: {self.algorithms}")


# ---------------------------------------------------------------------------
# config file parsing
# ---------------------------------------------------------------------------


def _split_list(raw: str) -> list:
    """Comma-separated items, none of them empty."""
    items = [item.strip() for item in raw.split(",")]
    if not all(items):
        raise ValueError(f"empty item in {raw!r}")
    return items


def _parse_flag(raw: str) -> bool:
    lowered = raw.lower()
    if lowered not in ("true", "1", "yes", "false", "0", "no"):
        raise ValueError(f"expected a boolean, got {raw!r}")
    return lowered in ("true", "1", "yes")


# field annotation -> parser of a config value; a ValueError names the defect
_PARSERS = {
    "int": int,
    "float": float,
    "bool": _parse_flag,
    "str": str,
    "tuple": lambda raw: tuple(_split_list(raw)),
    # solver.nu: `auto` is None
    "float | None": lambda raw: None if raw.lower() == "auto" else float(raw),
}

# every config key, in the order save_config writes them -> (section, field);
# section None marks a CampaignConfig field
_KEYS = {
    **{f"scenario.{f.name}": ("scenario", f) for f in fields(ScenarioConfig)},
    **{f"solver.{f.name}": ("solver", f) for f in fields(SolverConfig)},
    **{f"campaign.{f.name}": (None, f) for f in fields(CampaignConfig)
       if f.name not in ("scenario", "solver")},
}


def parse_config(text: str) -> CampaignConfig:
    """Parse flat `section.key = value` lines into a CampaignConfig."""
    kwargs = {"scenario": {}, "solver": {}, None: {}}
    seen = {}    # key -> the line that set it
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value, got {stripped!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: key {key} repeats line {seen[key]}")
        seen[key] = lineno
        section, f = _KEYS[key]
        try:
            kwargs[section][f.name] = _PARSERS[f.type](raw)
        except ValueError as exc:
            raise ConfigError(f"key {key}: {exc}") from exc
    try:
        solver = SolverConfig(**kwargs["solver"])
    except ValueError as exc:
        # every SolverConfig message starts with the field name
        raise ConfigError(f"solver.{exc}") from exc
    try:
        return CampaignConfig(scenario=ScenarioConfig(**kwargs["scenario"]), solver=solver,
                              **kwargs[None])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path) -> CampaignConfig:
    """Load a campaign config file; an empty file yields all defaults."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    return parse_config(p.read_text())


def _format_setting(value) -> str:
    if value is None:
        return "auto"
    if isinstance(value, tuple):
        return ",".join(map(str, value))
    return str(value)


def save_config(config: CampaignConfig, path) -> None:
    """Write every key back out; load_config(save_config(c)) == c."""
    lines = []
    for key, (section, f) in _KEYS.items():
        owner = config if section is None else getattr(config, section)
        lines.append(f"{key} = {_format_setting(getattr(owner, f.name))}")
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


def _csv_line(values) -> str:
    """Floats as repr, which reads back exactly; booleans as 1/0."""
    return ",".join(repr(v) if isinstance(v, float) else str(int(v)) if isinstance(v, bool)
                    else str(v) for v in values)


def _iteration_table(seed: int, records, measure_timing: bool) -> tuple:
    """(header lines, lines) of one solve's iteration CSV: the schema line,
    then columns seed, iter and every record field in dtype order, one
    column <field>_<i> per entry of a per-BS or per-user field.  A cell is
    the repr of a Python float or int from tolist (an np.float64's repr
    reads np.float64(...)), written column by column; the wall times, the
    fields ending in _ms, read 0.0 unless measure_timing."""
    n = len(records)
    header, columns = ["seed", "iter"], [[str(seed)] * n, map(str, range(n))]
    for name in records.dtype.names:
        values = records[name]
        if name.endswith("_ms") and not measure_timing:
            values = np.zeros_like(values)
        if values.ndim == 1:
            header.append(name)
            columns.append(map(repr, values.tolist()))
        else:
            header += [f"{name}_{i}" for i in range(values.shape[1])]
            columns += [map(repr, column) for column in values.T.tolist()]
    return ([f"# schema: {_ITERATIONS_SCHEMA}", ",".join(header)],
            [",".join(cells) for cells in zip(*columns)])


def _state_lines(seed: int, state) -> list:
    """A final state's lines of its state CSV (seed, array, index, real,
    imag): one per entry of each BeamformingState array, in field order, by
    its flattened index; a float is its repr, so it reads back bit for bit."""
    return [f"{seed},{f.name},{index},{z.real!r},{z.imag!r}" for f in fields(state)
            for index, z in enumerate(getattr(state, f.name).ravel().tolist())]


def _realizations_header(cells: int) -> list:
    return [f"# schema: {_REALIZATIONS_SCHEMA}",
            ",".join(["seed", "algorithm", "digest", "converged", "iterations", "loss",
                      "sum_mse_dl", "sum_mse_ul", "sum_rate", "sum_rate_dl", "sum_rate_ul",
                      *(f"rsi_w_{g}" for g in range(cells)),
                      *(f"asic_db_{g}" for g in range(cells)), "elapsed_ms"])]


def _run_seed(args):
    """Worker body: build one realization, run every algorithm on it, and
    return its lines by output file name as (the file's header lines, this
    seed's lines): always `realizations.csv`, `errors.log` when the seed has
    errors, and with campaign.trace each solve's iteration and state CSV.
    A `realizations.csv` line holds the seed's digest and its own
    algorithm's run, nothing more.

    A failed draw is recorded once per configured algorithm; a failed run
    only for its own algorithm.  Either way the campaign goes on.
    """
    config, index = args
    seed = derive_seed(config.base_seed, index)
    rows, errors = [], []
    out = {"realizations.csv": (_realizations_header(config.scenario.cells), rows)}
    try:
        realization = build_realization(config.scenario, seed)
        digest = realization_digest(realization)
    except Exception as exc:  # a failed draw is recorded, not fatal
        return {**out, "errors.log": ([], [f"{seed},{algo},{type(exc).__name__}: {exc}"
                                            for algo in config.algorithms])}

    # the jpaim solve, run once however many algorithms use it
    solve = functools.cache(lambda: jpaim.run(realization, config.solver))

    solves = {}
    for algo in config.algorithms:
        t0 = time.perf_counter()
        try:
            rep, traces = _run_algorithm(config, realization, algo, solve)
        except Exception as exc:  # a failed run is recorded, not fatal
            errors.append(f"{seed},{algo},{type(exc).__name__}: {exc}")
            continue
        elapsed_ms = (time.perf_counter() - t0) * 1e3 if config.measure_timing else 0.0
        rows.append(_csv_line([
            seed, algo, digest, all(t.converged for t in traces.values()),
            sum(t.iterations for t in traces.values()), rep.loss, rep.sum_mse_dl,
            rep.sum_mse_ul, rep.sum_rate, rep.sum_rate_dl, rep.sum_rate_ul,
            *rep.rsi_watts, *rep.asic_depth_db, elapsed_ms]))
        if config.trace:    # nsp-jpaim returns the jpaim trace again: each name is formatted once
            solves.update(traces)
    for name, trace in solves.items():
        out[f"iterations_{name}.csv"] = _iteration_table(seed, trace.records, config.measure_timing)
        out[f"state_{name}.csv"] = ([f"# schema: {_STATES_SCHEMA}", "seed,array,index,real,imag"],
                                    _state_lines(seed, trace.final_state))
    if errors:
        out["errors.log"] = ([], errors)
    return out


def _run_algorithm(config, realization, algo, solve):
    """One algorithm on one realization: (report, its solve traces by
    solve name).  nsp-jpaim projects the seed's one jpaim solve, so
    both return that trace as `jpaim`."""
    if algo == "half-duplex":
        report, dl_trace, ul_trace = baselines.run_half_duplex(realization, config.solver)
        return report, {"half_duplex_dl": dl_trace, "half_duplex_ul": ul_trace}
    trace = solve()
    if algo == "jpaim":
        return trace.final_report, {"jpaim": trace}
    return baselines.run_nsp(realization, trace)[0], {"jpaim": trace}


def run_campaign(config: CampaignConfig):
    """Run all configured algorithms over all seeds and write the CSVs.

    Returns `summarize` of the written directory, or raises RuntimeError
    once the files are closed if every run failed.  Every `errors.log`,
    iteration CSV and state CSV goes first, so no earlier campaign's file
    passes as this one's.  `realizations.csv` opens with its header before
    the first seed runs, any other file with the first seed that has lines
    for it.  Each seed's lines are written and flushed when it finishes, in
    index order however many workers run, so identical configs give
    identical bytes and a stopped campaign leaves whole seeds.  It starts no
    more worker processes than realizations, and none for one.  Each
    finished realization then logs one INFO line with its index, seed and
    error count.
    """
    outdir = Path(config.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name in _OPTIONAL_OUTPUTS:    # an earlier campaign's would read as this one's
        (outdir / name).unlink(missing_ok=True)
    tasks = [(config, i) for i in range(config.realizations)]
    rows = errors = 0
    with contextlib.ExitStack() as stack:
        files = {}
        def write(name, header, lines):
            if name not in files:
                files[name] = stack.enter_context(open(outdir / name, "w"))
                files[name].writelines(f"{line}\n" for line in header)
            files[name].writelines(f"{line}\n" for line in lines)
            files[name].flush()
        write("realizations.csv", _realizations_header(config.scenario.cells), [])
        workers = min(config.workers, config.realizations)
        if workers > 1:
            import multiprocessing    # a one-worker campaign never loads it
            pool = stack.enter_context(multiprocessing.get_context("spawn").Pool(workers))
            finished = pool.imap(_run_seed, tasks)
        else:
            finished = map(_run_seed, tasks)
        for index, outputs in enumerate(finished):
            for name, (header, lines) in outputs.items():
                write(name, header, lines)
            seed_errors = len(outputs["errors.log"][1]) if "errors.log" in outputs else 0
            rows += len(outputs["realizations.csv"][1])
            errors += seed_errors
            log.info("realization %d/%d finished: seed %d, %d error(s)", index + 1,
                     config.realizations, derive_seed(config.base_seed, index), seed_errors)

    if errors:
        log.warning("%d solver run(s) failed; see errors.log", errors)
    if not rows:
        raise RuntimeError(f"all {errors} run(s) failed; see {outdir / 'errors.log'}")
    return summarize(outdir)


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
        summaries.append(AlgorithmSummary(
            algorithm=algo,
            realizations=len(mine),
            converged_fraction=float(np.mean([bool(row["converged"]) for row in mine])),
            metrics={name: _metric_summary(np.array([row[name] for row in mine], dtype=float))
                     for name in _SUMMARY_METRICS},
        ))
    return CampaignSummary(algorithms=tuple(summaries))


def summarize(outdir) -> CampaignSummary:
    """Aggregate the realizations.csv of a written campaign's output directory."""
    p = Path(outdir) / "realizations.csv"
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
                "sum_rate": float(rec["sum_rate"]), "rsi_total_w": float(np.sum(rsi)),
                "asic_mean_db": float(np.mean(asic)), "elapsed_ms": float(rec["elapsed_ms"]),
            })
    return _summarize_rows(rows)


# ---------------------------------------------------------------------------
# complexity accounting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComplexityEstimate:
    """Per-iteration complex multiplication counts of the paper's precoder and
    power-allocation updates.

    These are the paper's operation counts.  `jpaim.run` executes no separate
    power-allocation update, since its precoder step already allocates the
    power, so power_multiplications (and the part of `total` it adds) counts
    work this solver does not do.
    """

    precoder_multiplications: int
    power_multiplications: int
    total: int
    order: str
    note: str


def complexity_estimate(cells: int, users: int, bs_antennas: int,
                        ue_antennas: int, streams: int) -> ComplexityEstimate:
    """Multiplication counts for one iteration of the paper's algorithm at
    symmetric loading (see ComplexityEstimate for what `jpaim.run` skips).

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
