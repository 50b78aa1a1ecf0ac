"""Drift report: how far two source trees' campaign outputs lie apart.

    python tools/drift.py PARENT_TREE CHANGE_TREE [--realizations N] [--seed S]

Each tree is a checkout of this repository.  The script runs every workload
of bench/workloads.py (the benchmark's campaign configs), then every regime
of tests/regimes.py, both read from the tree this script lives in, with
each tree's `src` as the package, one BLAS thread, and
`campaign.measure_timing = false`, so the CSVs hold no wall time: every
campaign of a tree in turn, in one process per tree.  The regimes are the
100 seeded configs of the promise sweep in tests/test_jpaim.py, the space
the workloads leave out (CSI error, coarse converters, users in one
direction only, 1-3 cells, every cancellation depth and `nu`): config i
runs as campaign `regime_<i>`, from `regime_00` to `regime_99`, with all
three algorithms, traced, on one worker.  It then compares the CSVs of the two
trees cell by cell and prints, for each file that differs, the rows and
columns that differ, the largest relative difference of each column, and
every change of an `iterations` or `converged` value.  A CSV that only one
tree wrote is named with that tree.

The CSVs carry no record powers, multipliers or search counts, so each
campaign also records the RunTraces `harness._run_algorithm` returns for
the first two seeds (the solves the campaign made), and the script
compares every trace both trees recorded: every record field but the
wall times (elapsed_ms and the three block times), bit for bit, and the
final state's arrays, byte for byte.  It prints each record field and
state array that differs, and names each trace that only one tree
recorded with that tree.  It writes only into a temporary directory and
changes no benchmark file.

The last line counts the compared CSV and `records` lines and gives the
script's own wall time, for example `drift: 52 of 52 lines identical in
9.8 s`.

Exit status: 0 when every campaign exits 0, every CSV is byte-identical
and every compared trace equal; 1 otherwise, naming each workload whose
campaign failed, with the tree and the exit code.  A campaign that raises
exits 1, as does every campaign of a tree without the package.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import importlib.util
import math
import os
import pickle
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

TOOLS = Path(__file__).resolve().parent
ROOT = TOOLS.parent
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
DISCRETE = ("iterations", "converged")    # a change of these is listed one by one
ROW_KEYS = ("seed", "algorithm", "iter")
TRACED_SEEDS = 2       # the first seeds of a campaign whose traces are compared
WALL_TIMES = ("elapsed_ms", "combiner_ms", "precoder_ms", "trial_ms")
STATE_ARRAYS = ("dl_beams", "dl_combiners", "ul_beams", "ul_combiners")
RECORDS = "traces.pickle"    # what dump_traces writes into a campaign's directory


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
    in one process, into out/<campaign>; returns {campaign: exit code}.  A
    campaign that the process did not finish takes the process's exit code."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tree / "src"), str(TOOLS)]),
               **{v: "1" for v in THREAD_VARIABLES})
    paths = []
    for name, workload in campaigns.items():
        text = workloads.config_text(workload, seed, realizations, str(out / name))
        text = text.replace("campaign.measure_timing = true", "campaign.measure_timing = false")
        config = out / f"{name}.cfg"
        config.write_text(text)
        paths += [str(config), str(out / name / RECORDS)]
    done = subprocess.run(
        [sys.executable, "-c", "import sys, drift; drift.dump_campaigns(*sys.argv[1:])", *paths],
        env=env, cwd=out, stdout=subprocess.PIPE, text=True, check=False)
    codes = [int(code) for code in done.stdout.split()]
    return {name: codes[n] if n < len(codes) else done.returncode or 1
            for n, name in enumerate(campaigns)}


def dump_campaigns(*paths: str) -> None:
    """dump_traces of each (config path, records path) pair of `paths` in
    turn, in this process, printing each campaign's exit code on a line of
    its own.  A campaign that raises exits 1, as a process of its own would,
    with its traceback on stderr."""
    for config, records in zip(paths[::2], paths[1::2]):
        try:
            with open(os.devnull, "w") as quiet, contextlib.redirect_stdout(quiet):
                code = dump_traces(config, records)
        except Exception:  # noqa: BLE001 - one campaign's failure is its exit code
            traceback.print_exc()
            code = 1
        print(code, flush=True)


def dump_traces(config_path: str, out_path: str) -> int:
    """Run `ibfdsim simulate --config config_path` in this process and return
    its exit code.  A campaign that exits 0 also pickles the traces that
    `harness._run_algorithm` returned for its first TRACED_SEEDS seeds, as
    {(seed, trace name): (_plain_records of its records, final state
    arrays)}.  Refuses `campaign.workers > 1`: no worker's solve is seen
    here."""
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
        plain = {key: (_plain_records(trace.records),
                       {name: getattr(trace.final_state, name) for name in STATE_ARRAYS})
                 for key, trace in traces.items()}
        with open(out_path, "wb") as f:
            pickle.dump(plain, f)
    return code


def _plain_records(records) -> list:
    """Each row of a trace's record recarray as {field: value}, every value a
    float, an int or a list from tolist, without the WALL_TIMES."""
    names = [name for name in records.dtype.names if name not in WALL_TIMES]
    return [{name: np.asarray(getattr(record, name)).tolist() for name in names}
            for record in records]


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
    Each trace only one tree recorded is named with that tree; each trace
    both recorded is compared: record fields by repr, which tells -0.0 from
    0.0 and takes a nan as equal to a nan, and state arrays by shape, dtype
    and bytes."""
    lines = [f"    seed {seed} {name}: recorded by the {tree} tree only"
             for tree, mine, other in (("parent", parent, change), ("change", change, parent))
             for seed, name in sorted(mine.keys() - other.keys())]
    for (seed, name), (records, state) in parent.items():
        if (seed, name) not in change:
            continue
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
    verdicts = []    # one per compared CSV or records line: True when identical

    def report(label, lines):
        print(f"{label}: {'differs' if lines else 'identical'}")
        if lines:
            print("\n".join(lines))
        verdicts.append(not lines)

    with tempfile.TemporaryDirectory() as tmp:
        roots = [Path(tmp) / "parent", Path(tmp) / "change"]
        for root, tree in zip(roots, (args.parent, args.change)):
            root.mkdir()
            codes = run_tree(tree.resolve(), workloads, campaigns, args.seed, args.realizations,
                             root)
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
            pair = before / RECORDS, after / RECORDS
            report(f"{name}/records", written_by(pair) or compare_traces(
                *(pickle.loads(path.read_bytes()) for path in pair)))
    print(f"drift: {sum(verdicts)} of {len(verdicts)} lines identical in "
          f"{time.perf_counter() - start:.1f} s")
    return 1 if failed or not all(verdicts) else 0


if __name__ == "__main__":
    sys.exit(main())
