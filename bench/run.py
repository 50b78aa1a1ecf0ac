"""Campaign benchmark of ibfdsim: one workload, one seed, one measured run.

    python3 bench/run.py --workload fd_default --seed 7 --seconds 30 --trace 0

Run it from the repository root.  The workload becomes a generated campaign
config that `ibfdsim.cli.main` runs in a fresh child process with BLAS
pinned to one thread (see child.py); the seed is the campaign's base seed,
and --seconds sizes the campaign (workloads.py).  The outputs are checked
(checks.py) and the last line printed is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`attempted` counts (seed, algorithm) runs and `failed` those that broke a
check.  With --trace 0 the metrics are the end-to-end ones of an untraced
run plus the median set-up time of several fresh processes.  With --trace 1
they are the per-layer figures of a traced rerun of a smaller campaign
(layers.py).  The line before it holds the details: environment, tail
percentile and sample count, failed runs and absent layers.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS, config_text, realizations_for

BENCH = Path(__file__).resolve().parent
SETUP_RUNS = 5          # fresh processes per set-up measurement; the median is reported
TRACED_SHARE = 0.4      # a traced run solves this share of the untraced campaign, twice
DEADLINE_S = 170.0      # every child must end within this of the start
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
          "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def tail_percentile(samples, beyond: int = 10):
    """Highest whole percentile (nearest rank) with >= `beyond` samples above it.

    Returns (percentile, value), or None when there are too few samples.
    """
    xs = sorted(samples)
    n = len(xs)
    for p in range(99, 0, -1):
        value = xs[math.ceil(p * n / 100) - 1]
        if sum(x > value for x in xs) >= beyond:
            return p, value
    return None


def spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


class Runner:
    """Starts the child processes of one benchmark run and waits for each."""

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"),
                        **{name: "1" for name in PINNED})

    def child(self, *args) -> dict:
        result = self.work / f"result-{time.monotonic_ns()}.json"
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("benchmark deadline passed")
        proc = subprocess.run([sys.executable, str(BENCH / "child.py"), args[0], args[1],
                               str(result), *args[2:]],
                              cwd=self.root, env=self.env, stdout=subprocess.DEVNULL,
                              timeout=remaining, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"child {args[0]} exited with {proc.returncode}")
        return json.loads(result.read_text())

    def config(self, workload, seed: int, realizations: int) -> str:
        path = self.work / f"{workload.name}-{realizations}.cfg"
        path.write_text(config_text(workload, seed, realizations, str(self.work / "out")))
        return str(path)


def end_to_end(campaign: dict, setups: list) -> tuple:
    """Untraced figures of one campaign.

    Iteration times are the per-iteration wall times `jpaim.run` records in
    the traces it returns for the `jpaim` algorithm's solves: about a
    thousand samples of one kind of iteration a run.  (The baselines'
    iterations cost less or more, and their share changes with the seed.)
    The bounded figures are scaled to a reference speed (child.Reference),
    because the shared host's own speed swings by more than any allowed
    bound.  The detail line carries the raw figures and what is too unsteady
    to bound: the tail iteration time, whose top ten samples catch the
    host's bursts, and the per-realization figures, which split into
    early-stopping and max_iterations clusters with a dozen samples a run.
    """
    seconds, iterations = {}, 0
    for row in campaign["rows"]:
        seconds[row["seed"]] = seconds.get(row["seed"], 0.0) + float(row["elapsed_ms"]) / 1e3
        iterations += int(row["iterations"])
    tail = tail_percentile(campaign["iteration_ms"])
    if tail is None:
        raise RuntimeError("too few solver iterations for a tail percentile")
    wall = campaign["wall_s"]
    metrics = {
        "iterations_per_s_at_ref": (iterations / campaign["scaled_wall_s"], "1/s"),
        "iteration_ms_p50_at_ref": (statistics.median(campaign["scaled_iteration_ms"]), "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (campaign["peak_rss_mb"], "MB"),
    }
    detail = {"iterations_per_s": iterations / wall,
              "iteration_ms_p50": statistics.median(campaign["iteration_ms"]),
              "iteration_ms_tail": tail[1], "tail_percentile": tail[0],
              "samples": len(campaign["iteration_ms"]),
              "reference_ms": statistics.median(campaign["reference_ms"]),
              "realizations_per_s": campaign["realizations"] / wall,
              "realization_s_p50": statistics.median(seconds.values()),
              "setup_s": setups, "wall_s": wall}
    return metrics, detail


def result_guards(workload, rows) -> dict:
    """Deterministic result means of one campaign: equal on equal seeds."""
    losses = [float(r["loss"]) for r in rows if r["algorithm"] == "jpaim"]
    rates = [float(r["sum_rate"]) for r in rows if r["algorithm"] == workload.algorithms[0]]
    return {"loss_mean": (statistics.fmean(losses), "mse"),
            "sum_rate_mean": (statistics.fmean(rates), "bit/s/Hz")}


def git_commit(root: Path) -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10, check=False,
                              env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent)))
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def measure(root: Path, work: Path, workload, seed: int, seconds: int, traced: bool):
    runner = Runner(root, work)
    realizations = realizations_for(seconds)
    if traced:
        realizations = max(2, round(TRACED_SHARE * realizations))
    config = runner.config(workload, seed, realizations)
    if traced:
        campaign = runner.child("campaign", config, "--traced")
        metrics = dict(campaign["layers"], **result_guards(workload, campaign["rows"]),
                       failed_fraction=(len(campaign["failed"]) / campaign["attempted"],
                                        "fraction"))
        detail = {"absent": campaign["absent"], "spans": campaign["span_count"],
                  "traced_wall_s": campaign["traced_wall_s"],
                  "spans_cover_s": campaign["spans_cover_s"]}
    else:
        campaign = runner.child("campaign", config)
        setups = [runner.child("setup", config)["setup_s"] for _ in range(SETUP_RUNS)]
        metrics, detail = end_to_end(campaign, setups)
    detail.update(workload=workload.name, seed=seed, realizations=realizations,
                  environment=dict(campaign["environment"], nproc=os.cpu_count(),
                                   commit=git_commit(root)),
                  failed_runs=campaign["failed"], integrity=campaign["integrity"])
    result = {
        "correct": not campaign["integrity"],
        "attempted": campaign["attempted"],
        "failed": len(campaign["failed"]),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    root = Path.cwd()
    if not (root / "src" / "ibfdsim" / "__init__.py").is_file():
        print(f"error: {root} holds no src/ibfdsim; run from the repository root",
              file=sys.stderr)
        return 2
    (BENCH / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=BENCH / ".work"))
    try:
        result, detail = measure(root, work, WORKLOADS[args.workload], args.seed,
                                 args.seconds, bool(args.trace))
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("detail: " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
