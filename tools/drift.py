"""Drift report: how far two source trees' campaign outputs lie apart.

    python tools/drift.py PARENT_TREE CHANGE_TREE [--realizations N] [--seed S]

Each tree is a checkout of this repository.  The script runs every workload
of bench/workloads.py (the benchmark's campaign configs, read from the tree
this script lives in) with each tree's `src` as the package, one BLAS
thread, and `campaign.measure_timing = false`, so the CSVs hold no wall
time.  It then compares the CSVs of the two trees cell by cell and prints,
for each file that differs, the rows and columns that differ, the largest
relative difference of each column, and every change of an `iterations`
or `converged` value.

The CSVs carry no record powers, multipliers or search counts, so for each
workload the script also reruns the solves of the campaign's first two
seeds with each tree's package (the `jpaim` solve and the two half-duplex
phases, as the campaign configures them) and compares their RunTraces: every
IterationRecord field but the wall times (elapsed_ms and the three block
times), bit for bit, and the final state's arrays, byte for byte.  It
prints each record field and state array that differs.  It writes only
into a temporary directory and changes no benchmark file.

Exit status: 0 when every CSV is byte-identical and every compared trace
equal, 1 when any differs.
"""

from __future__ import annotations

import argparse
import csv
import importlib.util
import math
import os
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
BENCH = TOOLS.parent / "bench"
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
DISCRETE = ("iterations", "converged")    # a change of these is listed one by one
ROW_KEYS = ("seed", "algorithm", "iter")
TRACED_SEEDS = 2       # the first seeds of a campaign whose traces are compared
WALL_TIMES = ("elapsed_ms", "combiner_ms", "precoder_ms", "trial_ms")
STATE_ARRAYS = ("dl_beams", "dl_combiners", "ul_beams", "ul_combiners")
RECORDS = "traces.pickle"    # what dump_traces writes into a workload's directory


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_tree(tree: Path, workloads, seed: int, realizations: int, out: Path) -> dict:
    """Run every workload with `tree`'s package, and dump its first seeds'
    traces into the workload's directory; returns {workload: output dir}."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tree / "src"), str(TOOLS)]),
               **{v: "1" for v in THREAD_VARIABLES})
    dirs = {}
    for name, workload in workloads.WORKLOADS.items():
        dirs[name] = out / name
        text = workloads.config_text(workload, seed, realizations, str(dirs[name]))
        text = text.replace("campaign.measure_timing = true", "campaign.measure_timing = false")
        config = out / f"{name}.cfg"
        config.write_text(text)
        subprocess.run([sys.executable, "-m", "ibfdsim.cli", "simulate", "--config", str(config)],
                       env=env, cwd=out, stdout=subprocess.DEVNULL, check=False)
        subprocess.run([sys.executable, "-c", "import sys, drift; drift.dump_traces(*sys.argv[1:])",
                        str(config), str(dirs[name] / RECORDS)], env=env, cwd=out, check=False)
    return dirs


def dump_traces(config_path: str, out_path: str) -> None:
    """Pickle the traces of the solves of a campaign config's first
    TRACED_SEEDS seeds, made with the ibfdsim package on sys.path, as plain
    values: {(seed, trace name): (record fields without wall times, final
    state arrays)}."""
    from dataclasses import fields

    from ibfdsim import baselines, jpaim
    from ibfdsim.harness import derive_seed, load_config
    from ibfdsim.model import build_realization

    config = load_config(config_path)
    traces = {}
    for index in range(min(TRACED_SEEDS, config.realizations)):
        seed = derive_seed(config.base_seed, index)
        real = build_realization(config.scenario, seed)
        if {"jpaim", "nsp-jpaim"} & set(config.algorithms):
            traces[seed, "jpaim"] = jpaim.run(real, config.solver, collect_metrics=config.trace)
        if "half-duplex" in config.algorithms:
            _, traces[seed, "half_duplex_dl"], traces[seed, "half_duplex_ul"] = (
                baselines.run_half_duplex(real, config.solver))
    plain = {key: ([{f.name: getattr(record, f.name) for f in fields(record)
                     if f.name not in WALL_TIMES} for record in trace.records],
                   {name: getattr(trace.final_state, name) for name in STATE_ARRAYS})
             for key, trace in traces.items()}
    with open(out_path, "wb") as f:
        pickle.dump(plain, f)


def _rows(path: Path) -> list:
    with path.open(newline="") as f:
        return list(csv.DictReader(line for line in f if not line.startswith("#")))


def relative_difference(a: str, b: str) -> float:
    """|a - b| / max(|a|, |b|) of two CSV cells; inf when they differ and
    either is not a finite number."""
    if a == b:
        return 0.0
    try:
        x, y = float(a), float(b)
    except ValueError:
        return math.inf
    if not (math.isfinite(x) and math.isfinite(y)):
        return 0.0 if (math.isnan(x) and math.isnan(y)) or x == y else math.inf
    return abs(x - y) / max(abs(x), abs(y))


def compare_file(parent: Path, change: Path) -> list:
    """Report lines for one CSV; empty when the files are byte-identical."""
    if parent.read_bytes() == change.read_bytes():
        return []
    old, new = _rows(parent), _rows(change)
    if len(old) != len(new) or (old and old[0].keys() != new[0].keys()):
        return [f"  shape differs: {len(old)} rows against {len(new)}"]
    worst, rows, discrete = {}, [], []
    for line, (a, b) in enumerate(zip(old, new), start=1):
        changed = [column for column in a if a[column] != b[column]]
        if not changed:
            continue
        key = ", ".join(f"{k}={a[k]}" for k in ROW_KEYS if k in a)
        rows.append(f"    row {line} ({key}): {', '.join(changed)}")
        for column in changed:
            worst[column] = max(worst.get(column, 0.0), relative_difference(a[column], b[column]))
            if column in DISCRETE:
                discrete.append(f"    row {line} ({key}): {column} {a[column]} -> {b[column]}")
    lines = [f"  {len(rows)} of {len(old)} rows differ"]
    lines += [f"  {column}: largest relative difference {value:.3g}"
              for column, value in worst.items()]
    lines += rows
    lines.append(f"  iterations/converged changes: {len(discrete)}")
    return lines + discrete


def compare_traces(parent: dict, change: dict) -> list:
    """Report lines for two dump_traces results; empty when they are equal.
    Record fields compare by repr, which tells -0.0 from 0.0 and takes a nan
    as equal to a nan, and state arrays by shape, dtype and bytes."""
    if parent.keys() != change.keys():
        return [f"  traced solves differ: {sorted(parent)} against {sorted(change)}"]
    lines = []
    for (seed, name), (records, state) in parent.items():
        new_records, new_state = change[seed, name]
        label = f"    seed {seed} {name}"
        if len(records) != len(new_records):
            lines.append(f"{label}: {len(records)} records against {len(new_records)}")
        for t, (a, b) in enumerate(zip(records, new_records)):
            changed = sorted(k for k in a.keys() | b.keys() if repr(a.get(k)) != repr(b.get(k)))
            if changed:
                lines.append(f"{label} record {t}: {', '.join(changed)}")
        lines += [f"{label} final state: {key}" for key in STATE_ARRAYS
                  if (state[key].shape, state[key].dtype, state[key].tobytes())
                  != (new_state[key].shape, new_state[key].dtype, new_state[key].tobytes())]
    return [f"  {len(lines)} differences"] + lines if lines else []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--realizations", type=int, default=6)
    parser.add_argument("--seed", type=int, default=7, help="campaign.base_seed")
    args = parser.parse_args(argv)
    workloads = _workloads()
    differs = False
    with tempfile.TemporaryDirectory() as tmp:
        sides = []
        for label, tree in (("parent", args.parent), ("change", args.change)):
            (Path(tmp) / label).mkdir()
            sides.append(run_tree(tree.resolve(), workloads, args.seed, args.realizations,
                                  Path(tmp) / label))
        for name in workloads.WORKLOADS:
            before, after = sides[0][name], sides[1][name]
            files = sorted({p.name for d in (before, after) if d.is_dir() for p in d.glob("*.csv")})
            if not files:
                print(f"{name}: no CSV written")
                differs = True
            for file in files:
                if not ((before / file).exists() and (after / file).exists()):
                    lines = ["  written by one tree only"]
                else:
                    lines = compare_file(before / file, after / file)
                print(f"{name}/{file}: {'differs' if lines else 'identical'}")
                if lines:
                    print("\n".join(lines))
                    differs = True
            if (before / RECORDS).exists() and (after / RECORDS).exists():
                traces = [pickle.loads((d / RECORDS).read_bytes()) for d in (before, after)]
                lines = compare_traces(*traces)
            else:
                lines = ["  written by one tree only, or by neither"]
            print(f"{name}/records: {'differs' if lines else 'identical'}")
            if lines:
                print("\n".join(lines))
                differs = True
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
