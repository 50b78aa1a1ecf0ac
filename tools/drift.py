"""Drift report: how far two source trees' campaign outputs lie apart.

    python tools/drift.py PARENT_TREE CHANGE_TREE [--realizations N] [--seed S]

Each tree is a checkout of this repository.  The script runs every workload
of bench/workloads.py (the benchmark's campaign configs), then every regime
of tests/regimes.py, both read from the tree this script lives in, with
each tree's `src` as the package, one BLAS thread, `campaign.trace = true`
and `campaign.measure_timing = false`, so every campaign writes its
iteration CSVs, every record field of every solve, with no wall time, and
its state CSVs, every entry of the beams and combiners each solve ends on:
every campaign of a tree in turn, in one process per tree, the two trees'
processes at once.  The regimes are the 100 seeded configs of the promise
sweep in tests/test_jpaim.py, the space the workloads leave out (CSI
error, coarse converters, users in one direction only, 1-3 cells, every
cancellation depth and `nu`): config i runs as campaign `regime_<i>`, from
`regime_00` to `regime_99`, with all three algorithms, on one worker.

It then compares every CSV of each campaign of the two trees, matching rows
by the key columns they have (seed, algorithm, iter, array, index).  For
each file that differs it prints one line per differing column, `<column>:
n of N rows differ, largest relative difference x` over the N rows both
trees wrote, every change of an `iterations` or `converged` value, the
count of rows only one tree wrote, per tree, and the columns only one tree
wrote, per tree, or one line when the two trees' columns differ only in
order.  A CSV that only one tree wrote is named with that tree.  It
writes only into a temporary directory and changes no benchmark file.

The last line counts the compared CSVs and gives the script's own wall
time, for example `drift: 717 of 717 lines identical in 51.0 s`.  Exit
status: 0 when every campaign exits 0 and every CSV is byte-identical; 1
otherwise, naming each workload whose campaign failed, with the tree and
the exit code, that of `ibfdsim simulate`.  Every campaign of a tree
without the package exits 1.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import importlib.util
import math
import os
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
ROOT = TOOLS.parent
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
DISCRETE = ("iterations", "converged")    # a change of these is listed one by one
ROW_KEYS = ("seed", "algorithm", "iter", "array", "index")    # what names a row


def _load(name: str, path: Path):
    """The module at `path`, imported as `name`."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _campaigns():
    """The workloads module of bench/ and {name: Workload} of every
    workload, then every regime of the promise sweep, in sweep order."""
    workloads = _load("bench_workloads", ROOT / "bench" / "workloads.py")
    campaigns = dict(workloads.WORKLOADS)
    for index, settings in enumerate(_load("regimes", ROOT / "tests" / "regimes.py").settings()):
        name = f"regime_{index:02d}"
        campaigns[name] = workloads.Workload(name=name, why="promise sweep regime",
                                             settings=settings,
                                             algorithms=workloads.THREE_ALGORITHMS, trace=True)
    return workloads, campaigns


def run_tree(tree: Path, workloads, campaigns: dict, seed: int, realizations: int,
             out: Path) -> dict:
    """Run every campaign with `tree`'s package through dump_campaigns, all
    in one process, into out/<campaign>, making `out`; returns {campaign:
    exit code}.  A campaign that the process did not finish takes the
    process's exit code."""
    out.mkdir()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tree / "src"), str(TOOLS)]),
               **{v: "1" for v in THREAD_VARIABLES})
    configs = []
    for name, workload in campaigns.items():
        text = workloads.config_text(workload, seed, realizations, str(out / name))
        config = out / f"{name}.cfg"
        config.write_text(text.replace("campaign.measure_timing = true",
                                       "campaign.measure_timing = false")
                          .replace("campaign.trace = false", "campaign.trace = true"))
        configs.append(str(config))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, drift; drift.dump_campaigns(*sys.argv[1:])", *configs],
        env=env, cwd=out, stdout=subprocess.PIPE, text=True, check=False)
    codes = [int(code) for code in done.stdout.split()]
    return {name: codes[n] if n < len(codes) else done.returncode or 1
            for n, name in enumerate(campaigns)}


def dump_campaigns(*configs: str) -> None:
    """`ibfdsim simulate --config` of each config path in turn, in this
    process, printing each campaign's exit code on a line of its own."""
    from ibfdsim import cli

    for config in configs:
        with open(os.devnull, "w") as quiet, contextlib.redirect_stdout(quiet):
            code = cli.main(["simulate", "--config", config])
        print(code, flush=True)


def _rows(path: Path) -> tuple:
    """The column names and the rows of a CSV, without its # lines."""
    with path.open(newline="") as f:
        reader = csv.DictReader(line for line in f if not line.startswith("#"))
        return reader.fieldnames, list(reader)


def relative_difference(a: str, b: str) -> float:
    """|x - y| / max(|x|, |y|) of two CSV cells read as numbers x and y; 0
    when the cells are equal or both nan, inf when they differ and either
    is not a finite number."""
    if a == b:
        return 0.0
    try:
        x, y = float(a), float(b)
    except ValueError:
        return math.inf
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def compare_file(parent: Path, change: Path) -> list:
    """Report lines for one CSV, empty when the files are byte-identical;
    rows match by the ROW_KEYS they have, cells by text, so -0.0 != 0.0."""
    if parent.read_bytes() == change.read_bytes():
        return []
    (old_columns, old), (new_columns, new) = _rows(parent), _rows(change)
    keys = [key for key in ROW_KEYS if key in old_columns and key in new_columns]
    old, new = ({tuple(row[key] for key in keys): row for row in rows} for rows in (old, new))
    columns = [column for column in old_columns if column in new_columns]
    common = [key for key in old if key in new]
    only = [(tree, [column for column in mine if column not in other])
            for tree, mine, other in (("parent", old_columns, new_columns),
                                      ("change", new_columns, old_columns))]
    lines = [f"  columns in the {tree} tree only: {', '.join(names)}" for tree, names in only
             if names]
    if old_columns != new_columns and not lines:
        lines.append("  the same columns in another order")
    discrete = []
    for column in columns:
        changed = [(key, old[key][column], new[key][column]) for key in common
                   if old[key][column] != new[key][column]]
        if changed:
            worst = max(relative_difference(a, b) for _, a, b in changed)
            lines.append(f"  {column}: {len(changed)} of {len(common)} rows differ, "
                         f"largest relative difference {worst:.3g}")
        if column in DISCRETE:
            discrete += [f"    {', '.join(map('='.join, zip(keys, key)))}: {column} {a} -> {b}"
                         for key, a, b in changed]
    lines += [f"  rows in the {tree} tree only: {len(mine.keys() - other.keys())}"
              for tree, mine, other in (("parent", old, new), ("change", new, old))
              if mine.keys() - other.keys()]
    if discrete:
        lines += [f"  iterations/converged changes: {len(discrete)}", *discrete]
    return lines or ["  the bytes differ, not the rows"]


def written_by(paths) -> list:
    """No report line when every tree wrote its file, else one that names the
    tree that did, or neither; each path is <tree>/<campaign>/<file>."""
    present = [path.parents[1].name for path in paths if path.exists()]
    if len(present) == len(paths):
        return []
    return [f"  written by the {present[0]} tree only" if present else "  written by neither tree"]


def main(argv=None) -> int:
    start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--realizations", type=int, default=6)
    parser.add_argument("--seed", type=int, default=7, help="campaign.base_seed")
    args = parser.parse_args(argv)
    workloads, campaigns = _campaigns()
    failed = False
    verdicts = []    # one per compared CSV: True when identical

    def report(label, lines):
        print(f"{label}: {'differs' if lines else 'identical'}")
        if lines:
            print("\n".join(lines))
        verdicts.append(not lines)

    with tempfile.TemporaryDirectory() as tmp:
        roots = [Path(tmp) / "parent", Path(tmp) / "change"]
        trees = (args.parent, args.change)
        with ThreadPoolExecutor(len(roots)) as pool:
            runs = list(pool.map(lambda tree, root: run_tree(
                tree.resolve(), workloads, campaigns, args.seed, args.realizations, root),
                trees, roots))
        for root, tree, codes in zip(roots, trees, runs):
            for name, code in codes.items():
                if code:
                    print(f"{name}: the campaign of the {root.name} tree {tree} exited {code}")
                    failed = True
        for name in campaigns:
            before, after = (root / name for root in roots)
            files = sorted({p.name for d in (before, after) if d.is_dir() for p in d.glob("*.csv")})
            if not files:
                print(f"{name}: no CSV written")
                failed = True
            for file in files:
                pair = before / file, after / file
                report(f"{name}/{file}", written_by(pair) or compare_file(*pair))
    print(f"drift: {sum(verdicts)} of {len(verdicts)} lines identical in "
          f"{time.perf_counter() - start:.1f} s")
    return 1 if failed or not all(verdicts) else 0


if __name__ == "__main__":
    sys.exit(main())
