"""Output checks of one benchmark campaign, per (seed, algorithm) run.

A run fails when it lands in `errors.log` or breaks any check below; no
check aborts the campaign.  Checks split in two kinds:

- integrity: every CSV value finite (apart from the columns the schema fills
  with nan by construction), the row digest equal to an independent rebuild
  of the realization, final powers inside their budgets, and
  `realizations.csv` identical across reruns except for `elapsed_ms`.  A
  breach means the program wrote a wrong output; it makes the run incorrect.
- solver promise: the loss of every solver run is non-increasing within
  acceptance criterion 1's slack.  At `asic_db=0, nu=1` the power step is
  known to break this on some seeds; such runs count as failed while the
  benchmark result stays correct.
"""

from __future__ import annotations

import csv
import io
import math
from pathlib import Path

BUDGET_SLACK = 1e-6        # final powers within budget * (1 + 1e-6)
MONOTONE_SLACK = 1e-8      # criterion 1: rise <= 1e-8 * max(|loss|, 1)

# Columns the schema fills with nan by construction, per algorithm: the
# half-duplex result has no per-direction MSE and no self-interference.
_NAN_COLUMNS = {"half-duplex": ("sum_mse_dl", "sum_mse_ul", "asic_db_")}
# Iteration CSVs of solves run without metric collection carry nan rates.
_NAN_ITERATION_COLUMNS = {"nsp_jpaim": ("sum_rate",), "half_duplex_dl": ("sum_rate",),
                          "half_duplex_ul": ("sum_rate",)}
_ITERATION_ALGORITHM = {"jpaim": "jpaim", "nsp_jpaim": "nsp-jpaim",
                        "half_duplex_dl": "half-duplex", "half_duplex_ul": "half-duplex"}


class RunLog:
    """Watches solver calls during a campaign and records check outcomes.

    Installed as before/after hooks on `baselines.run_nsp`,
    `baselines.run_half_duplex` and `jpaim.run`: a solve made inside a
    baseline belongs to that baseline's algorithm, any other to `jpaim`.
    Only the figures the checks need are kept, never the solver traces.
    """

    def __init__(self):
        self.failures = {}           # (seed, algorithm) -> [reason]
        self.integrity = []          # reasons that make the result incorrect
        self.iterations = {}         # algorithm -> summed solver iterations
        self.solver_iterations = 0   # over every jpaim.run call
        self.iteration_ms = []       # wall ms of each `jpaim` iteration, as jpaim.run timed it
        self._algorithm = None

    def fail(self, seed, algorithm, reason, integrity=False) -> None:
        self.failures.setdefault((seed, algorithm), []).append(reason)
        if integrity:
            self.integrity.append(f"seed {seed} {algorithm}: {reason}")

    def hooks(self) -> dict:
        return {
            "baselines.run_nsp": (self._enter("nsp-jpaim"), self._after_nsp),
            "baselines.run_half_duplex": (self._enter("half-duplex"), self._leave),
            "jpaim.run": (None, self.after_solve),
        }

    def _enter(self, algorithm):
        def before(args, kwargs):
            self._algorithm = algorithm
        return before

    def _leave(self, args, kwargs, result):
        self._algorithm = None

    def _after_nsp(self, args, kwargs, result):
        self._algorithm = None
        self.check_powers(args[0], result[1], "nsp-jpaim")

    def after_solve(self, args, kwargs, trace):
        realization = args[0]
        algorithm = self._algorithm or "jpaim"
        self.iterations[algorithm] = self.iterations.get(algorithm, 0) + trace.iterations
        self.solver_iterations += trace.iterations
        if algorithm == "jpaim":
            self.iteration_ms.extend(r.elapsed_ms for r in trace.records[1:])
        losses = [r.loss for r in trace.records]
        worst = max((b - a - MONOTONE_SLACK * max(abs(a), 1.0)
                     for a, b in zip(losses, losses[1:])), default=0.0)
        if worst > 0.0 or not all(math.isfinite(v) for v in losses):
            self.fail(realization.seed, algorithm,
                      f"loss rose by {worst:.3g} beyond the slack")
        self.check_powers(realization, trace.final_state, algorithm)

    def check_powers(self, realization, state, algorithm) -> None:
        hw = realization.hardware
        for g in range(realization.cell_count):
            if state.dl_cell_power(g) > hw.p_bs_w * (1.0 + BUDGET_SLACK):
                self.fail(realization.seed, algorithm,
                          f"cell {g} power {state.dl_cell_power(g):.9g} W over budget", True)
        for g, k in realization.ul_users():
            if state.ul_power(g, k) > hw.p_ue_w * (1.0 + BUDGET_SLACK):
                self.fail(realization.seed, algorithm,
                          f"uplink user ({g},{k}) power over budget", True)


def read_csv(path: Path):
    """(schema line, rows as dicts) of a CSV the harness wrote."""
    text = path.read_text()
    schema, _, body = text.partition("\n")
    return schema, list(csv.DictReader(io.StringIO(body)))


def _nonfinite(row, skip, allowed) -> list:
    bad = []
    for key, value in row.items():
        if key in skip or any(key.startswith(prefix) for prefix in allowed):
            continue
        if not math.isfinite(float(value)):
            bad.append(key)
    return bad


def check_outputs(outdir: Path, log: RunLog, expected_digest: dict) -> list:
    """Check the CSVs of one campaign; returns its realizations.csv rows.

    `expected_digest` maps each seed to the digest of an independent
    rebuild of its realization.
    """
    _, rows = read_csv(outdir / "realizations.csv")
    for row in rows:
        seed, algorithm = int(row["seed"]), row["algorithm"]
        bad = _nonfinite(row, ("seed", "algorithm", "digest"), _NAN_COLUMNS.get(algorithm, ()))
        if bad:
            log.fail(seed, algorithm, f"non-finite {', '.join(bad)}", True)
        if row["digest"] != expected_digest.get(seed):
            log.fail(seed, algorithm, "digest differs from an independent rebuild", True)
    for path in sorted(outdir.glob("iterations_*.csv")):
        name = path.stem[len("iterations_"):]
        algorithm = _ITERATION_ALGORITHM.get(name, name)
        for row in read_csv(path)[1]:
            bad = _nonfinite(row, (), _NAN_ITERATION_COLUMNS.get(name, ()))
            if bad:
                log.fail(int(row["seed"]), algorithm,
                         f"non-finite {', '.join(bad)} in {path.name}", True)
    errors = outdir / "errors.log"
    if errors.exists():
        for line in errors.read_text().splitlines():
            seed, algorithm, message = line.split(",", 2)
            log.fail(int(seed), algorithm, f"errors.log: {message}")
    return rows


def without_timing(path: Path) -> list:
    """realizations.csv lines with the elapsed_ms column removed."""
    lines = path.read_text().splitlines()
    header = lines[1].split(",")
    drop = header.index("elapsed_ms")
    return lines[:1] + [",".join(v for i, v in enumerate(line.split(",")) if i != drop)
                        for line in lines[1:]]


def check_rerun(first: Path, second: Path, log: RunLog) -> None:
    """Both campaigns must write the same realizations.csv but for elapsed_ms."""
    a, b = without_timing(first), without_timing(second)
    if a[:2] != b[:2] or len(a) != len(b):
        log.integrity.append("rerun wrote a different realizations.csv layout")
    for line_a, line_b in zip(a[2:], b[2:]):
        if line_a != line_b:
            seed, algorithm = line_a.split(",", 2)[:2]
            log.fail(int(seed), algorithm, "rerun row differs", True)
