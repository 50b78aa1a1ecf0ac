"""The drift report of tools/drift.py."""

import importlib.util
import math
import pickle
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = {"fd_default", "fd_strong_si_traced", "wide_array"}


def _drift():
    spec = importlib.util.spec_from_file_location("drift", ROOT / "tools" / "drift.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_drift_report_of_a_tree_against_itself_is_empty():
    # the same source on both sides writes the same bytes on every workload,
    # and the same traces for its first seeds
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "drift.py"), str(ROOT), str(ROOT),
                           "--realizations", "1"], capture_output=True, text=True, check=False,
                          timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert lines and all(line.endswith(": identical") for line in lines)
    assert {line.split("/")[0] for line in lines} == WORKLOADS
    assert {line.split("/")[0] for line in lines if "/records:" in line} == WORKLOADS


def test_trace_comparison_names_each_difference(tmp_path):
    # records and final states that the CSVs do not show: a power that moves
    # by one bit, a wall time that does not count, and a final state array
    drift = _drift()
    config = tmp_path / "campaign.cfg"
    config.write_text("campaign.realizations = 1\ncampaign.base_seed = 3\n"
                      "campaign.algorithms = jpaim, half-duplex\nsolver.max_iterations = 3\n"
                      f"campaign.output_dir = {tmp_path / 'out'}\n")
    drift.dump_traces(str(config), str(tmp_path / "traces"))
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
