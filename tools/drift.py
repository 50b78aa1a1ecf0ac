"""Drift report: how far two source trees' campaign outputs lie apart.

    python tools/drift.py PARENT_TREE CHANGE_TREE [--realizations N] [--seed S]

Each tree is a checkout of this repository.  The script runs every workload
of bench/workloads.py (the benchmark's campaign configs, read from the tree
this script lives in), then every regime of REGIMES below, with each tree's
`src` as the package, one BLAS thread, and `campaign.measure_timing =
false`, so the CSVs hold no wall time, in one process per campaign and
tree.  The regimes are drift's own: the scenarios the workloads leave out
(CSI error, coarse converters, users in one direction only, more cells,
strong SI at the default `nu`), each with all three algorithms, traced, on
one worker.  It then compares the CSVs
of the two trees cell by cell and prints, for each file that differs, the
rows and columns that differ, the largest relative difference of each
column, and every change of an `iterations` or `converged` value.

The CSVs carry no record powers, multipliers or search counts, so each
campaign process also records the RunTraces `harness._run_algorithm`
returns for the first two seeds (the solves the campaign made), and the
script compares them: every IterationRecord field but the wall times
(elapsed_ms and the three block times), bit for bit, and the final state's
arrays, byte for byte.  It prints each record field and state array that
differs.  It writes only into a temporary directory and changes no
benchmark file.

Exit status: 0 when every campaign process exits 0, every CSV is
byte-identical and every compared trace equal; 1 otherwise, naming each
workload whose campaign process failed, with the tree and the exit code.
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
from dataclasses import fields
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
BENCH = TOOLS.parent / "bench"
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
DISCRETE = ("iterations", "converged")    # a change of these is listed one by one
ROW_KEYS = ("seed", "algorithm", "iter")
TRACED_SEEDS = 2       # the first seeds of a campaign whose traces are compared
WALL_TIMES = ("elapsed_ms", "combiner_ms", "precoder_ms", "trial_ms")
STATE_ARRAYS = ("dl_beams", "dl_combiners", "ul_beams", "ul_combiners")
RECORDS = "traces.pickle"    # what dump_traces writes into a campaign's directory
# drift's own campaigns, beside the workloads: {name: scenario settings}
REGIMES = {
    "csi_error_1e-2": (("scenario.csi_error_factor", "1e-2"),),
    "csi_error_1": (("scenario.csi_error_factor", "1.0"),),
    "adc_4_bits": (("scenario.adc_bits", "4"),),
    "no_dl_users": (("scenario.dl_users", "0"),),
    "no_ul_users": (("scenario.ul_users", "0"),),
    "three_cells": (("scenario.cells", "3"),),
    "strong_si": (("scenario.asic_db", "0.0"),),
}


def _campaigns():
    """The workloads module of bench/ and {name: Workload} of every
    workload, then every regime."""
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    regimes = {name: module.Workload(name=name, why="drift regime", settings=settings,
                                     algorithms=module.THREE_ALGORITHMS, trace=True)
               for name, settings in REGIMES.items()}
    return module, {**module.WORKLOADS, **regimes}


def run_tree(tree: Path, workloads, campaigns: dict, seed: int, realizations: int,
             out: Path) -> dict:
    """Run every campaign with `tree`'s package through dump_traces, one
    process each, into out/<campaign>; returns {campaign: exit code}."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tree / "src"), str(TOOLS)]),
               **{v: "1" for v in THREAD_VARIABLES})
    codes = {}
    for name, workload in campaigns.items():
        text = workloads.config_text(workload, seed, realizations, str(out / name))
        text = text.replace("campaign.measure_timing = true", "campaign.measure_timing = false")
        config = out / f"{name}.cfg"
        config.write_text(text)
        codes[name] = subprocess.run(
            [sys.executable, "-c", "import sys, drift; sys.exit(drift.dump_traces(*sys.argv[1:]))",
             str(config), str(out / name / RECORDS)],
            env=env, cwd=out, stdout=subprocess.DEVNULL, check=False).returncode
    return codes


def dump_traces(config_path: str, out_path: str) -> int:
    """Run `ibfdsim simulate --config config_path` in this process and return
    its exit code.  A campaign that exits 0 also pickles the traces that
    `harness._run_algorithm` returned for its first TRACED_SEEDS seeds, as
    {(seed, trace name): (record fields without wall times, final state
    arrays)}.  Refuses `campaign.workers > 1`: no worker's solve is seen here."""
    from ibfdsim import cli, harness

    campaign = harness.load_config(config_path)
    if campaign.workers > 1:
        raise ValueError(f"{config_path}: campaign.workers > 1 hides the workers' solves")
    seeds = {harness.derive_seed(campaign.base_seed, index) for index in range(TRACED_SEEDS)}
    original, traces = harness._run_algorithm, {}

    def recorded(config, realization, algo, solve):
        report, found = original(config, realization, algo, solve)
        if realization.seed in seeds:
            traces.update({(realization.seed, name): trace for name, trace in found.items()})
        return report, found

    harness._run_algorithm = recorded
    try:
        code = cli.main(["simulate", "--config", config_path])
    finally:
        harness._run_algorithm = original
    if code == 0:
        plain = {key: ([{f.name: getattr(record, f.name) for f in fields(record)
                         if f.name not in WALL_TIMES} for record in trace.records],
                       {name: getattr(trace.final_state, name) for name in STATE_ARRAYS})
                 for key, trace in traces.items()}
        with open(out_path, "wb") as f:
            pickle.dump(plain, f)
    return code


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
    workloads, campaigns = _campaigns()
    differs = False
    with tempfile.TemporaryDirectory() as tmp:
        roots = [Path(tmp) / "parent", Path(tmp) / "change"]
        for root, tree in zip(roots, (args.parent, args.change)):
            root.mkdir()
            codes = run_tree(tree.resolve(), workloads, campaigns, args.seed, args.realizations,
                             root)
            for name, code in codes.items():
                if code:
                    print(f"{name}: the campaign of the {root.name} tree {tree} exited {code}")
                    differs = True
        for name in campaigns:
            before, after = (root / name for root in roots)
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
