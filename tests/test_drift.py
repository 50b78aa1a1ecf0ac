"""The drift report of tools/drift.py."""

import importlib.util
import math
import pickle
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import helpers
import regimes
from ibfdsim import harness, jpaim

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
    # and regime, and the same traces for its first seeds
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "drift.py"), str(ROOT), str(ROOT),
                           "--realizations", "1"], capture_output=True, text=True, check=False,
                          timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    *lines, summary = done.stdout.splitlines()
    assert lines and all(line.endswith(": identical") for line in lines)
    assert re.fullmatch(rf"drift: {len(lines)} of {len(lines)} lines identical in \d+\.\d s",
                        summary)
    assert {line.split("/")[0] for line in lines if ".csv:" in line} == set(CAMPAIGNS)
    assert [line.split("/")[0] for line in lines if "/records:" in line] == list(CAMPAIGNS)


def _config(tmp_path, extra=""):
    config = tmp_path / "campaign.cfg"
    config.write_text("campaign.realizations = 1\ncampaign.base_seed = 3\n"
                      "campaign.algorithms = jpaim, half-duplex\nsolver.max_iterations = 3\n"
                      f"campaign.output_dir = {tmp_path / 'out'}\n{extra}")
    return str(config)


def test_trace_comparison_names_each_difference(tmp_path):
    # records and final states that the CSVs do not show: a power that moves
    # by one bit in one record and by more in another, a wall time that does
    # not count, and a final state array
    drift = _drift()
    dispatch = harness._run_algorithm
    assert drift.dump_traces(_config(tmp_path), str(tmp_path / "traces")) == 0
    assert harness._run_algorithm is dispatch
    assert (tmp_path / "out" / "realizations.csv").is_file()
    parent = pickle.loads((tmp_path / "traces").read_bytes())
    assert {name for _, name in parent} == {"jpaim", "half_duplex_dl", "half_duplex_ul"}
    assert drift.compare_traces(parent, parent) == []
    change = pickle.loads((tmp_path / "traces").read_bytes())
    (seed, _), = {key for key in change if key[1] == "jpaim"}
    records, state = change[seed, "jpaim"]
    first, *rest = records[2]["dl_cell_power"]
    records[2]["dl_cell_power"] = [math.nextafter(first, math.inf), *rest]
    # the largest relative difference is taken over the cells of a record
    power = records[1]["dl_cell_power"]
    moved = power[-1] * (1.0 + 2.0 ** -20)
    power[-1] = moved
    assert "elapsed_ms" not in records[1] and "iteration" not in records[1]
    state["ul_beams"] = -state["ul_beams"]
    worst = (moved - parent[seed, "jpaim"][0][1]["dl_cell_power"][-1]) / moved
    assert drift.compare_traces(parent, change) == [
        "  2 differences", f"    seed {seed} jpaim dl_cell_power: 2 of {len(records)} records "
        f"differ, largest relative difference {worst:.3g}",
        f"    seed {seed} jpaim final state: ul_beams"]


def test_drift_compares_what_both_trees_wrote_and_names_the_rest(tmp_path):
    # a trace or CSV that one tree alone wrote is named with that tree, and
    # every trace both recorded is still compared
    drift = _drift()
    state = {name: np.zeros(2) for name in drift.STATE_ARRAYS}
    parent = {(5, "jpaim"): ([{"loss": 1.0}], state), (5, "nsp_jpaim"): ([{"loss": 1.0}], state)}
    change = {(5, "jpaim"): ([{"loss": 2.0}], state), (6, "jpaim"): ([{"loss": 1.0}], state)}
    assert drift.compare_traces(parent, change) == [
        "  3 differences", "    seed 5 nsp_jpaim: recorded by the parent tree only",
        "    seed 6 jpaim: recorded by the change tree only",
        "    seed 5 jpaim loss: 1 of 1 records differ, largest relative difference 0.5"]
    for tree in ("parent", "change"):
        (tmp_path / tree / "fd_default").mkdir(parents=True)
    (tmp_path / "parent" / "fd_default" / "iterations_nsp_jpaim.csv").write_text("seed\n")
    pair = [tmp_path / tree / "fd_default" / "iterations_nsp_jpaim.csv"
            for tree in ("parent", "change")]
    assert drift.written_by(pair) == ["  written by the parent tree only"]
    assert drift.written_by(pair[::-1]) == ["  written by the parent tree only"]
    assert drift.written_by(pair[1:]) == ["  written by neither tree"]
    assert drift.written_by(pair[:1]) == []


def test_relative_differences_of_cells_and_record_values():
    # a signed zero differs by repr but not in value; a nan matches a nan;
    # anything else non-finite or unparsable, or a shape change, is inf
    drift = _drift()
    assert drift.relative_difference("-0.0", "0.0") == 0.0
    assert drift.relative_difference("nan", "nan") == 0.0
    assert drift.relative_difference("2.0", "1.5") == 0.25
    assert drift.relative_difference("inf", "1.0") == math.inf
    assert drift.relative_difference("a", "b") == math.inf
    assert drift.largest_relative_difference([1.0, 4.0], [1.0, 3.0]) == 0.25
    assert drift.largest_relative_difference([[2.0], [1.0]], [[1.0], [1.0]]) == 0.5
    assert drift.largest_relative_difference(-0.0, 0.0) == 0.0
    assert drift.largest_relative_difference([1.0, 2.0], [1.0]) == math.inf


def test_trace_capture_records_the_solves_the_harness_made(tmp_path, monkeypatch):
    # the campaign's own jpaim solve stops after two iterations: the records
    # are those of that solve (the initial record and two iterations), not of
    # a solve the drift tool makes itself
    def two_iterations(config, realization, algo, solve):
        short = replace(config.solver, max_iterations=2)
        return dispatch(config, realization, algo, lambda: jpaim.run(realization, short))

    dispatch = harness._run_algorithm
    monkeypatch.setattr(harness, "_run_algorithm", two_iterations)
    drift = _drift()
    assert drift.dump_traces(_config(tmp_path), str(tmp_path / "traces")) == 0
    assert harness._run_algorithm is two_iterations
    traces = pickle.loads((tmp_path / "traces").read_bytes())
    seed = harness.derive_seed(3, 0)
    assert len(traces[seed, "jpaim"][0]) == 3
    assert len(traces[seed, "half_duplex_dl"][0]) == 4


def test_trace_capture_refuses_worker_processes(tmp_path):
    # a wrapper in this process would see none of the workers' solves
    with pytest.raises(ValueError, match="campaign.workers"):
        _drift().dump_traces(_config(tmp_path, "campaign.workers = 2\n"), str(tmp_path / "t"))
    assert not (tmp_path / "out").exists()


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
