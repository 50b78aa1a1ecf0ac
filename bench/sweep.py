"""Run the benchmark over several seeds and record the figures in a JSON file.

    python3 bench/sweep.py --set e2e_a --trace 0 --seeds 1-10
    python3 bench/sweep.py --set layers_a --trace 1 --seeds 1-3 --workloads fd_default
    python3 bench/sweep.py --compare e2e_a e2e_b

Run it from the repository root.  Each (workload, seed) pair is one
`bench/run.py` process with BENCHMARK.json's run length.  For every metric
the set keeps the values, their median and quartiles and the spread (the
distance between the quartiles as a share of the median), and stores the
set under its name in bench/baseline.json next to the environment.
`--compare A B` checks set B against set A: each spread within its bound,
each median of B no worse than A's by more than the bound, and metrics that
count work (no bound) equal run for run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import spread
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
BASELINE = BENCH / "baseline.json"
# figures that count work or results: they must repeat exactly on the same seeds
EXACT_SUFFIXES = ("calls_per_iter", "iterations_mean.jpaim", "iterations_mean.nsp-jpaim",
                  "iterations_mean.half-duplex", "fraction", "loss_mean", "sum_rate_mean")
EXACT_EXCLUDED = ("trace.overhead_fraction",)
# per-realization figures of the untraced run, kept for the record
DETAIL = ("iteration_ms_tail", "realizations_per_s", "realization_s_p50")


def parse_seeds(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, trace: int) -> tuple:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return json.loads(lines[-1]), json.loads(lines[-2].removeprefix("detail: "))


def summarize(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": spread(values) if len(values) > 1 and median else 0.0,
            "values": values}


def sweep(name: str, trace: int, seeds: list, workloads: list) -> None:
    record = json.loads(BASELINE.read_text()) if BASELINE.exists() else {"sets": {}}
    out = {"trace": trace, "seconds": SPEC["run_seconds"], "seeds": seeds, "workloads": {}}
    previous = record["sets"].get(name, {})
    if {k: previous.get(k) for k in ("trace", "seconds", "seeds")} == \
            {k: out[k] for k in ("trace", "seconds", "seeds")}:
        out["workloads"] = previous["workloads"]      # add workloads to the same set
    record["sets"][name] = out
    for workload in workloads:
        runs = []
        for seed in seeds:
            result, detail = run_once(workload, seed, trace)
            runs.append((result, detail))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        metrics = {k: dict(summarize([r["metrics"][k]["value"] for r, _ in runs]),
                           unit=runs[0][0]["metrics"][k]["unit"])
                   for k in runs[0][0]["metrics"]}
        entry = {"metrics": metrics,
                 "attempted": [r["attempted"] for r, _ in runs],
                 "failed": [r["failed"] for r, _ in runs],
                 "correct": all(r["correct"] for r, _ in runs),
                 "realizations": runs[0][1]["realizations"]}
        if trace == 0:
            entry.update(tail_percentile=runs[0][1]["tail_percentile"],
                         samples=runs[0][1]["samples"],
                         detail={k: summarize([d[k] for _, d in runs]) for k in DETAIL})
        out["workloads"][workload] = entry
        record["environment"] = runs[-1][1]["environment"]
        BASELINE.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


def compare(first: str, second: str) -> int:
    sets = json.loads(BASELINE.read_text())["sets"]
    a, b = sets[first], sets[second]
    bounds = {m["name"]: m for m in SPEC["end_to_end"]}
    problems = 0
    for workload, wa in a["workloads"].items():
        wb = b["workloads"].get(workload)
        if wb is None:
            continue
        for metric, ma in wa["metrics"].items():
            mb = wb["metrics"][metric]
            if metric in bounds:
                bound = bounds[metric]["bound"]
                lower = bounds[metric]["better"] == "lower"
                worse = (mb["median"] / ma["median"] - 1.0) * (1 if lower else -1)
                bad = worse > bound or (metric != "setup_s" and max(ma["spread"], mb["spread"]) > bound)
                print(f"{workload:22s} {metric:20s} spread {ma['spread']:.4f}/{mb['spread']:.4f} "
                      f"worse {worse:+.4f} bound {bound} {'FAIL' if bad else 'ok'}")
                problems += bad
            exact = metric.endswith(EXACT_SUFFIXES) and metric not in EXACT_EXCLUDED
            if exact and a["seeds"] == b["seeds"]:
                bad = ma["values"] != mb["values"]
                print(f"{workload:22s} {metric:45s} {'FAIL' if bad else 'repeats exactly'}")
                problems += bad
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--set", help="name the set is stored under")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.set:
        parser.error("--set is required unless --compare is given")
    sweep(args.set, args.trace, parse_seeds(args.seeds), args.workloads.split(","))
    return 0


if __name__ == "__main__":
    sys.exit(main())
