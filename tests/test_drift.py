"""The drift report of tools/drift.py."""

import csv
import importlib.util
import math
import re
import subprocess
import sys
from pathlib import Path

import helpers
import regimes
from ibfdsim import harness

ROOT = Path(__file__).resolve().parents[1]


def _module(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _drift():
    return _module("drift", ROOT / "tools" / "drift.py")


WORKLOADS = _module("bench_workloads", ROOT / "bench" / "workloads.py").WORKLOADS
# the benchmark's workloads, then the promise sweep's regimes, in the order drift runs them
CAMPAIGNS = (*WORKLOADS, *(f"regime_{index:02d}" for index in range(regimes.COUNT)))


def test_drift_runs_the_workloads_then_the_sweep_regimes():
    # every workload as the benchmark defines it, then regime i of the sweep
    # as campaign regime_<i>, with exactly the sweep's settings, in sweep
    # order, whose config files hold the promise test's configs
    workloads, campaigns = _drift()._campaigns()
    assert tuple(campaigns) == CAMPAIGNS
    assert [campaigns[name].settings for name in WORKLOADS] == [
        workload.settings for workload in WORKLOADS.values()]
    swept = [campaigns[name] for name in CAMPAIGNS[len(WORKLOADS):]]
    assert [workload.settings for workload in swept] == regimes.settings()
    assert {(workload.algorithms, workload.trace) for workload in swept} == {
        (("jpaim", "nsp-jpaim", "half-duplex"), True)}
    written = [harness.parse_config(workloads.config_text(workload, 7, 1, "out"))
               for workload in swept]
    assert [(config.scenario, config.solver) for config in written] == helpers.regime_configs()


def test_drift_report_of_a_tree_against_itself_is_empty():
    # the same source on both sides writes the same bytes on every workload
    # and regime: iteration CSVs and final states for every campaign
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "drift.py"), str(ROOT), str(ROOT),
                           "--realizations", "1"], capture_output=True, text=True, check=False,
                          timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    *lines, summary = done.stdout.splitlines()
    assert lines and all(line.endswith(": identical") for line in lines)
    assert re.fullmatch(rf"drift: {len(lines)} of {len(lines)} lines identical in \d+\.\d s",
                        summary)
    assert {line.split("/")[0] for line in lines if ".csv:" in line} == set(CAMPAIGNS)
    for kind in ("iterations", "state"):
        assert {line.split("/")[0] for line in lines if f"/{kind}_" in line} == set(CAMPAIGNS)
    assert [line.replace("/iterations_", "/") for line in lines if "/iterations_" in line] == [
        line.replace("/state_", "/") for line in lines if "/state_" in line]
    assert not [line for line in lines if "/trace_" in line]


def _config(tmp_path, extra="", realizations=1):
    config = tmp_path / "campaign.cfg"
    config.write_text(f"campaign.realizations = {realizations}\ncampaign.base_seed = 3\n"
                      "campaign.algorithms = jpaim, half-duplex\nsolver.max_iterations = 3\n"
                      f"campaign.output_dir = {tmp_path / 'out'}\n{extra}")
    return str(config)


def _read(path):
    with path.open(newline="") as f:
        return list(csv.reader(f))


def _write(path, rows):
    with path.open("w", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows(rows)


def test_trace_comparison_names_each_difference(tmp_path, capsys):
    # records and final states of a campaign that drift runs, on worker
    # processes: a power that moves by one bit in one record of its
    # iteration CSV, and an entry of a final state array whose sign flips
    drift = _drift()
    drift.dump_campaigns(_config(tmp_path, "campaign.trace = true\ncampaign.workers = 2\n",
                                 realizations=2))
    assert capsys.readouterr().out == "0\n"
    out = tmp_path / "out"
    assert {path.name for path in out.glob("*.csv")} == {
        "realizations.csv", *(f"{kind}_{name}.csv" for kind in ("iterations", "state")
                              for name in ("jpaim", "half_duplex_dl", "half_duplex_ul"))}
    (tmp_path / "change").mkdir()
    trace, state = out / "iterations_jpaim.csv", out / "state_jpaim.csv"
    assert drift.compare_file(trace, trace) == []
    schema, header, *records = _read(trace)
    assert header[:4] == ["seed", "iter", "loss", "sum_mse"]
    column = header.index("dl_cell_power_1")
    old = float(records[2][column])
    records[2][column] = repr(math.nextafter(old, math.inf))
    _write(tmp_path / "change" / trace.name, [schema, header, *records])
    worst = (math.nextafter(old, math.inf) - old) / math.nextafter(old, math.inf)
    assert drift.compare_file(trace, tmp_path / "change" / trace.name) == [
        f"  dl_cell_power_1: 1 of {len(records)} rows differ, largest relative "
        f"difference {worst:.3g}"]
    schema, header, *entries = _read(state)
    assert header == ["seed", "array", "index", "real", "imag"]
    assert {row[1] for row in entries} == {"dl_beams", "dl_combiners", "ul_beams", "ul_combiners"}
    row = next(row for row in entries if row[1] == "ul_beams" and float(row[3]) != 0.0)
    row[3] = repr(-float(row[3]))
    _write(tmp_path / "change" / state.name, [schema, header, *entries])
    assert drift.compare_file(state, tmp_path / "change" / state.name) == [
        f"  real: 1 of {len(entries)} rows differ, largest relative difference 2"]


def test_drift_compares_what_both_trees_wrote_and_names_the_rest(tmp_path):
    # an iteration CSV that one tree alone wrote is named with that tree
    drift = _drift()
    for tree in ("parent", "change"):
        (tmp_path / tree / "fd_default").mkdir(parents=True)
    (tmp_path / "parent" / "fd_default" / "iterations_half_duplex_ul.csv").write_text("seed,iter\n")
    pair = [tmp_path / tree / "fd_default" / "iterations_half_duplex_ul.csv"
            for tree in ("parent", "change")]
    assert drift.written_by(pair) == ["  written by the parent tree only"]
    assert drift.written_by(pair[::-1]) == ["  written by the parent tree only"]
    assert drift.written_by(pair[1:]) == ["  written by neither tree"]
    assert drift.written_by(pair[:1]) == []


def test_rows_that_one_tree_alone_wrote_are_counted_and_the_rest_compared(tmp_path):
    # rows match by their keys, not their place: a realization row the
    # change lost and a solve one iteration longer in the change are counted
    # per tree, and the rows both wrote are still compared, an iterations
    # change listed one by one
    drift = _drift()
    parent, change = tmp_path / "parent.csv", tmp_path / "change.csv"
    parent.write_text("# schema: x\nseed,algorithm,iterations,loss\n"
                      "1,jpaim,4,2.0\n1,half-duplex,3,1.0\n2,jpaim,5,3.0\n")
    change.write_text("# schema: x\nseed,algorithm,iterations,loss\n"
                      "1,jpaim,4,2.0\n2,jpaim,6,1.5\n")
    assert drift.compare_file(parent, change) == [
        "  iterations: 1 of 2 rows differ, largest relative difference 0.167",
        "  loss: 1 of 2 rows differ, largest relative difference 0.5",
        "  rows in the parent tree only: 1",
        "  iterations/converged changes: 1", "    seed=2, algorithm=jpaim: iterations 5 -> 6"]
    parent.write_text("seed,iter,loss\n1,0,3.0\n1,1,2.0\n2,0,4.0\n")
    change.write_text("seed,iter,loss,sum_rate\n1,0,3.0,nan\n1,1,2.5,nan\n1,2,2.0,nan\n"
                      "2,0,4.0,nan\n")
    assert drift.compare_file(parent, change) == [
        "  columns in the change tree only: sum_rate",
        "  loss: 1 of 3 rows differ, largest relative difference 0.2",
        "  rows in the change tree only: 1"]
    # each tree's own columns are named; columns in another order are one line
    change.write_text("seed,iter,sum_rate\n1,0,nan\n1,1,nan\n2,0,nan\n")
    assert drift.compare_file(parent, change) == [
        "  columns in the parent tree only: loss", "  columns in the change tree only: sum_rate"]
    change.write_text("iter,seed,loss\n0,1,3.0\n1,1,2.0\n0,2,4.0\n")
    assert drift.compare_file(parent, change) == ["  the same columns in another order"]
    # the same rows in another order differ in bytes only
    change.write_text("seed,iter,loss\n2,0,4.0\n1,0,3.0\n1,1,2.0\n")
    assert drift.compare_file(parent, change) == ["  the bytes differ, not the rows"]


def test_a_schema_line_change_is_named_and_counted_apart(tmp_path):
    # a CSV whose rows are the same but whose schema line changed names the
    # change; the summary counts such CSVs apart from the identical ones
    drift = _drift()
    parent, change = tmp_path / "parent.csv", tmp_path / "change.csv"
    parent.write_text("# schema: ibfdsim-iterations-v2\nseed,iter,loss\n1,0,3.0\n")
    change.write_text("# schema: ibfdsim-iterations-v3\nseed,iter,loss\n1,0,3.0\n")
    schema_only = drift.compare_file(parent, change)
    assert schema_only == ["  schema line: ibfdsim-iterations-v2 -> ibfdsim-iterations-v3"]
    change.write_text("# schema: ibfdsim-iterations-v3\nseed,iter,loss\n1,0,2.5\n")
    assert drift.compare_file(parent, change) == [
        "  schema line: ibfdsim-iterations-v2 -> ibfdsim-iterations-v3",
        "  loss: 1 of 1 rows differ, largest relative difference 0.167"]
    reports = [[], schema_only, drift.compare_file(parent, change), []]
    assert drift.summary(reports, 18.3) == (
        "drift: 2 of 4 lines identical, 1 more differ only in their schema line, in 18.3 s")
    assert drift.summary([[], []], 51.0) == "drift: 2 of 2 lines identical in 51.0 s"


def test_relative_differences_of_cells_and_record_values():
    # a signed zero differs by text but not in value; a nan matches a nan;
    # anything else non-finite or unparsable is inf
    drift = _drift()
    assert drift.relative_difference("-0.0", "0.0") == 0.0
    assert drift.relative_difference("nan", "nan") == 0.0
    assert drift.relative_difference("2.0", "1.5") == 0.25
    assert drift.relative_difference("inf", "1.0") == math.inf
    assert drift.relative_difference("a", "b") == math.inf


def test_drift_names_each_campaign_that_fails(tmp_path):
    # trees without the package on both sides: each campaign process exits 1
    # at once, so no campaign runs, and every one is named for each tree
    trees = tmp_path / "parent", tmp_path / "change"
    for tree in trees:
        tree.mkdir()
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "drift.py"), *map(str, trees),
                           "--realizations", "1"], capture_output=True, text=True, check=False,
                          timeout=600)
    assert done.returncode == 1, done.stdout + done.stderr
    failed = [line for line in done.stdout.splitlines() if "exited" in line]
    assert failed == [f"{name}: the campaign of the {side} tree {tree} exited 1"
                      for side, tree in zip(("parent", "change"), trees) for name in CAMPAIGNS]
