"""Benchmark workloads: each one is an `ibfdsim simulate` campaign config.

All workloads run single-process and closed-loop: the campaign solves its
realizations back to back with `campaign.workers = 1`.  The benchmark seed
becomes `campaign.base_seed`, so the same seed always draws the same
realizations.  The realization count is fixed by the run length alone (never
by how fast the machine happens to be), which keeps every count and result
metric a pure function of (workload, seed, seconds).
"""

from __future__ import annotations

from dataclasses import dataclass

THREE_ALGORITHMS = ("jpaim", "nsp-jpaim", "half-duplex")
# Wall seconds per realization of every workload on a loaded 2-core machine
# (1.8 s on a quiet one); sizes a run so it ends near --seconds.
SECONDS_PER_REALIZATION = 2.5


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    settings: tuple          # extra (key, value) config lines
    algorithms: tuple
    trace: bool              # campaign.trace: write iteration CSVs


WORKLOADS = {w.name: w for w in (
    Workload(
        name="fd_default",
        why="default 2-cell 16-antenna scenario with all three algorithms; small "
            "matrices, so per-link Python loops and the repeated nsp solve dominate",
        settings=(),
        algorithms=THREE_ALGORITHMS,
        trace=False,
    ),
    Workload(
        name="fd_strong_si_traced",
        why="asic_db=0, nu=1: the power step really changes the state, and only here "
            "do the rate path of evaluate and the iteration CSV writer run",
        settings=(("scenario.asic_db", "0.0"), ("solver.nu", "1.0")),
        algorithms=THREE_ALGORITHMS,
        trace=True,
    ),
    Workload(
        name="wide_array",
        why="same call structure as fd_default but 64-antenna BS arrays and jpaim "
            "only: array kernels dominate and the nsp/half-duplex solves are skipped",
        settings=(("scenario.bs_tx_antennas", "64"), ("scenario.bs_rx_antennas", "64")),
        algorithms=("jpaim",),
        trace=False,
    ),
)}


def realizations_for(seconds: float) -> int:
    """Realizations that fill `seconds`."""
    return max(1, round(seconds / SECONDS_PER_REALIZATION))


def config_text(workload: Workload, seed: int, realizations: int, output_dir: str) -> str:
    """The campaign config file the benchmark hands to `ibfdsim simulate`."""
    lines = [
        f"campaign.realizations = {realizations}",
        f"campaign.base_seed = {seed}",
        f"campaign.algorithms = {', '.join(workload.algorithms)}",
        "campaign.workers = 1",
        f"campaign.output_dir = {output_dir}",
        "campaign.measure_timing = true",
        f"campaign.trace = {'true' if workload.trace else 'false'}",
    ]
    lines += [f"{key} = {value}" for key, value in workload.settings]
    return "\n".join(lines) + "\n"
