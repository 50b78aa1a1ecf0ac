"""Tests of the benchmark's own code.

    python3 -m pytest bench/tests -q

Campaigns here use a one-cell, four-antenna scenario so each test takes
seconds; they call the child-process functions directly.
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import child  # noqa: E402
from checks import RunLog, check_outputs, check_rerun  # noqa: E402
from layers import Tracer, layer_metrics, totals  # noqa: E402
from run import end_to_end, result_guards, tail_percentile  # noqa: E402
from workloads import WORKLOADS, Workload, config_text  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

TINY = Workload(
    name="tiny", why="test", algorithms=("jpaim", "nsp-jpaim"), trace=False,
    settings=(("scenario.cells", "1"), ("scenario.dl_users", "1"), ("scenario.ul_users", "1"),
              ("scenario.bs_tx_antennas", "4"), ("scenario.bs_rx_antennas", "4"),
              ("solver.max_iterations", "15")),
)


def _config(tmp_path, realizations=3, workload=TINY) -> str:
    path = tmp_path / "tiny.cfg"
    path.write_text(config_text(workload, 5, realizations, str(tmp_path / "out")))
    return str(path)


def test_self_time_of_a_nested_call():
    # outer [0, 10] holds inner [1, 3] and inner [4, 6]
    ticks = iter([0.0, 1.0, 3.0, 4.0, 6.0, 10.0])
    toy = types.ModuleType("toy_layer")
    toy.inner = lambda: None

    def outer():
        toy.inner()
        toy.inner()

    toy.outer = outer
    sys.modules["toy_layer"] = toy
    try:
        with Tracer(clock=lambda: next(ticks)) as tracer:
            assert tracer.wrap("toy_layer", "outer")
            assert tracer.wrap("toy_layer", "inner")
            toy.outer()
        assert toy.outer is outer
        assert totals(tracer.spans) == {"toy_layer.outer": (1, 10.0, 6.0),
                                        "toy_layer.inner": (2, 4.0, 4.0)}
        assert [s[3] for s in tracer.spans] == [-1, 0, 0]
    finally:
        del sys.modules["toy_layer"]


def test_missing_layer_is_reported_absent_and_reads_zero():
    toy = types.ModuleType("toy_layer")
    sys.modules["toy_layer"] = toy
    try:
        with Tracer() as tracer:
            assert not tracer.wrap("toy_layer", "update_power_coefficients")
        assert tracer.absent == ["toy_layer.update_power_coefficients"]
        with pytest.raises(ValueError):
            tracer.wrap("toy_layer", "_private")
    finally:
        del sys.modules["toy_layer"]
    metrics = layer_metrics([], 0, {}, {})
    assert metrics["jpaim.update_power_coefficients.self_ms_per_iter"] == (0.0, "ms/iter")


def test_tail_percentile_keeps_ten_samples_above():
    assert tail_percentile(range(1, 21)) == (50, 10)
    assert tail_percentile(range(1, 12)) == (9, 1)
    assert tail_percentile(range(1, 11)) is None
    # ties: the value at the percentile must have ten samples strictly above
    assert tail_percentile([1.0] * 15 + [2.0] * 10) == (60, 1.0)


def test_end_to_end_metrics_from_rows():
    # seed s: two rows of 100*s ms and 10 iterations each
    rows = [{"seed": s, "algorithm": a, "loss": "2.0" if a == "jpaim" else "9.0",
             "sum_rate": "3.0" if a == "jpaim" else "1.0", "elapsed_ms": str(100.0 * s),
             "iterations": "10"}
            for s in range(1, 21) for a in ("jpaim", "nsp-jpaim")]
    campaign = {"rows": rows, "realizations": 20, "wall_s": 10.0, "scaled_wall_s": 8.0,
                "peak_rss_mb": 50.0, "reference_ms": [1.0, 3.0, 2.0],
                "iteration_ms": [float(v) for v in range(1, 401)],
                "scaled_iteration_ms": [0.5 * v for v in range(1, 401)]}
    metrics, detail = end_to_end(campaign, [0.3, 0.1, 0.2])
    assert metrics["iterations_per_s_at_ref"] == (50.0, "1/s")
    assert metrics["iteration_ms_p50_at_ref"] == (100.25, "ms")
    assert metrics["setup_s"] == (0.2, "s")
    assert metrics["peak_rss_mb"] == (50.0, "MB")
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["end_to_end"])
    assert detail["iterations_per_s"] == 40.0
    assert detail["iteration_ms_p50"] == 200.5
    assert detail["iteration_ms_tail"] == 388.0            # p97: 12 of 400 above
    assert (detail["tail_percentile"], detail["samples"]) == (97, 400)
    assert detail["reference_ms"] == 2.0
    assert detail["realizations_per_s"] == 2.0
    assert detail["realization_s_p50"] == pytest.approx(2.1)
    workload = Workload("w", "test", (), ("jpaim", "nsp-jpaim"), False)
    assert result_guards(workload, rows) == {"loss_mean": (2.0, "mse"),
                                             "sum_rate_mean": (3.0, "bit/s/Hz")}


def test_reference_scales_iteration_times(tmp_path):
    out = child._campaign(_config(tmp_path), tmp_path)
    refs = out["reference_ms"]
    assert len(refs) == 6                  # after each of the 3 jpaim and 3 nsp-jpaim solves
    assert len(out["scaled_iteration_ms"]) == len(out["iteration_ms"]) > 0
    ratios = {round(s / r, 9) for s, r in zip(out["scaled_iteration_ms"], out["iteration_ms"])}
    assert all(any(abs(ratio - child.Reference.REFERENCE_MS / ref) < 1e-6 for ref in refs)
               for ratio in ratios)


def test_failed_fraction_counts_an_injected_failing_solve(tmp_path, monkeypatch):
    from ibfdsim import harness, jpaim
    config = _config(tmp_path)
    first_seed = harness.derive_seed(5, 0)
    real_run = jpaim.run
    calls = []

    def failing_run(realization, *args, **kwargs):
        calls.append(realization.seed)
        if realization.seed == first_seed and calls.count(first_seed) == 1:
            raise FloatingPointError("injected")
        return real_run(realization, *args, **kwargs)

    monkeypatch.setattr(jpaim, "run", failing_run)
    out = child._campaign(config, tmp_path)
    assert out["attempted"] == 6
    assert list(out["failed"]) == [f"{first_seed},jpaim"]
    assert "injected" in out["failed"][f"{first_seed},jpaim"][0]
    assert out["integrity"] == []
    assert len(out["failed"]) / out["attempted"] == pytest.approx(1 / 6)


def test_output_checks_flag_corrupt_and_changed_rows(tmp_path):
    out = child._campaign(_config(tmp_path), tmp_path)
    assert out["failed"] == {} and out["integrity"] == []
    csv_path = tmp_path / "out" / "realizations.csv"
    original = csv_path.read_text()
    lines = original.splitlines()
    cells = lines[2].split(",")
    cells[5] = "nan"                                   # the loss column
    lines[2] = ",".join(cells)
    csv_path.write_text("\n".join(lines) + "\n")
    copy = tmp_path / "copy.csv"
    copy.write_text(original)

    log = RunLog()
    from ibfdsim import harness
    from ibfdsim.model import build_realization, realization_digest
    config = harness.load_config(_config(tmp_path))
    digests = {s: realization_digest(build_realization(config.scenario, s))
               for s in (int(r["seed"]) for r in out["rows"])}
    check_outputs(tmp_path / "out", log, digests)
    check_rerun(copy, csv_path, log)
    key = (int(cells[0]), cells[1])
    assert log.failures[key] == ["non-finite loss", "rerun row differs"]
    assert len(log.integrity) == 2


def test_duplicate_solve_detector_on_two_algorithms(tmp_path):
    out = child._traced(_config(tmp_path, realizations=2), tmp_path)
    layers = out["layers"]
    # jpaim solves each realization, then nsp-jpaim solves it again identically
    assert layers["harness.duplicate_solve_fraction"] == (0.5, "fraction")
    assert out["failed"] == {} and out["integrity"] == []
    assert out["absent"] == []
    assert layers["jpaim.iterations_mean.half-duplex"] == (0.0, "iter")
    assert abs(out["spans_cover_s"] / out["traced_wall_s"] - 1.0) < 0.05
    names = set(layers) | {"failed_fraction", "loss_mean", "sum_rate_mean"}
    assert names == {m["name"] for m in SPEC["per_layer"]}


def test_benchmark_spec_lists_the_code_workloads():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()]


def test_refuses_to_time_unpinned_blas(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(child, "environment", lambda: {"blas_threads": 2})
    assert child.main(["campaign", _config(tmp_path), str(tmp_path / "r.json")]) == 3
    assert "refusing to time" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()
