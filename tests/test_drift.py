"""The drift report of tools/drift.py."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_drift_report_of_a_tree_against_itself_is_empty():
    # the same source on both sides writes the same bytes on every workload
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "drift.py"), str(ROOT), str(ROOT),
                           "--realizations", "1"], capture_output=True, text=True, check=False,
                          timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert lines and all(line.endswith(": identical") for line in lines)
    assert {line.split("/")[0] for line in lines} == {"fd_default", "fd_strong_si_traced",
                                                     "wide_array"}
