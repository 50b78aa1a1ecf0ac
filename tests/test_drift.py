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

from ibfdsim import harness, jpaim

ROOT = Path(__file__).resolve().parents[1]
# the benchmark's workloads, then drift's own regimes, in the order drift runs them
CAMPAIGNS = ("fd_default", "fd_strong_si_traced", "wide_array", "csi_error_1e-2", "csi_error_1",
             "adc_4_bits", "no_dl_users", "no_ul_users", "three_cells", "strong_si")


def _drift():
    spec = importlib.util.spec_from_file_location("drift", ROOT / "tools" / "drift.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    # by one bit, a wall time that does not count, and a final state array
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
    records[2]["dl_cell_power"] = (math.nextafter(first, math.inf), *rest)
    assert "elapsed_ms" not in records[1]
    state["ul_beams"] = -state["ul_beams"]
    assert drift.compare_traces(parent, change) == [
        "  2 differences", f"    seed {seed} jpaim record 2: dl_cell_power",
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
        "    seed 6 jpaim: recorded by the change tree only", "    seed 5 jpaim record 0: loss"]
    for tree in ("parent", "change"):
        (tmp_path / tree / "fd_default").mkdir(parents=True)
    (tmp_path / "parent" / "fd_default" / "iterations_nsp_jpaim.csv").write_text("seed\n")
    pair = [tmp_path / tree / "fd_default" / "iterations_nsp_jpaim.csv"
            for tree in ("parent", "change")]
    assert drift.written_by(pair) == ["  written by the parent tree only"]
    assert drift.written_by(pair[::-1]) == ["  written by the parent tree only"]
    assert drift.written_by(pair[1:]) == ["  written by neither tree"]
    assert drift.written_by(pair[:1]) == []


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
    # a tree without the package: each of its campaign processes exits 1
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "drift.py"), str(ROOT),
                           str(tmp_path), "--realizations", "1"], capture_output=True, text=True,
                          check=False, timeout=600)
    assert done.returncode == 1, done.stdout + done.stderr
    failed = [line for line in done.stdout.splitlines() if "exited" in line]
    assert failed == [f"{name}: the campaign of the change tree {tmp_path} exited 1"
                      for name in CAMPAIGNS]
