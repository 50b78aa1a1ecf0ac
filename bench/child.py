"""One benchmark measurement in a fresh process; `run.py` starts it.

    child.py setup CONFIG RESULT
        time importing numpy and ibfdsim, loading CONFIG and building the
        campaign's first realization, as a new process pays them.
    child.py campaign CONFIG RESULT [--traced]
        run CONFIG through `ibfdsim.cli.main`, timing a reference kernel
        after every solve, and check its outputs.  With --traced, run it
        once so and once with every layer wrapped, compare the two, and
        count interpreter calls over one solve.

Results go to the JSON file RESULT, so the CLI's own printing stays out of
it.  The parent pins BLAS to one thread through the environment; this
process refuses to time anything if the loaded BLAS reports otherwise.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

INTERP_SEED = 11   # fixed realization seed of the interpreter-call count


def _setup(config_path: str) -> dict:
    import numpy  # noqa: F401
    import ibfdsim
    from ibfdsim import harness
    config = harness.load_config(config_path)
    ibfdsim.build_realization(config.scenario, harness.derive_seed(config.base_seed, 0))
    return {"setup_s": time.perf_counter() - _T0}


def _blas_threads():
    """(BLAS description, thread count or None if it cannot be queried)."""
    import ctypes
    import glob
    import os

    import numpy
    info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    name = f"{info.get('name')} {info.get('version')}"
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return name, int(fn())
    return name, None


def environment() -> dict:
    import os
    import platform

    import numpy
    blas, threads = _blas_threads()
    if threads is None:
        pinned = all(os.environ.get(v) == "1" for v in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"))
        threads = 1 if pinned else None
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas, "blas_threads": threads}


def _cli(config_path: str, outdir: Path) -> float:
    from ibfdsim import cli
    t0 = time.perf_counter()
    code = cli.main(["simulate", "--config", config_path, "--out", str(outdir)])
    wall = time.perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"ibfdsim simulate exited with {code}")
    return wall


def _expected(config):
    """Seed -> digest of an independent rebuild, and the expected runs."""
    from ibfdsim import harness
    from ibfdsim.model import build_realization, realization_digest
    seeds = [harness.derive_seed(config.base_seed, i) for i in range(config.realizations)]
    digests = {s: realization_digest(build_realization(config.scenario, s)) for s in seeds}
    return digests, [(s, a) for s in seeds for a in config.algorithms]


def _finish(log, rows, expected_runs) -> dict:
    """Mark expected runs without a row as failed; the JSON-ready outcome."""
    present = {(int(r["seed"]), r["algorithm"]) for r in rows}
    for seed, algorithm in expected_runs:
        if (seed, algorithm) not in present and (seed, algorithm) not in log.failures:
            log.fail(seed, algorithm, "row missing from realizations.csv")
    failed = {f"{s},{a}": reasons for (s, a), reasons in sorted(log.failures.items())}
    return {"attempted": len(expected_runs), "failed": failed, "integrity": log.integrity,
            "rows": [{k: r[k] for k in ("seed", "algorithm", "loss", "sum_rate",
                                         "iterations", "elapsed_ms")} for r in rows]}


class Reference:
    """Host speed, sampled right after every solve.

    On a shared 2-core machine the same solve runs up to 1.6x faster or
    slower from one minute to the next, as other tenants load the cores.  A
    fixed kernel with the solver's op mix (16x16 complex products, a
    diagonal, a small solve, looped in Python) slows down with it, so
    dividing a solve's iteration times by the kernel time measured next to
    it removes most of that swing.  REFERENCE_MS, the kernel's median on an
    idle core of the machine the baseline was measured on, only sets the
    unit: scaled times read as milliseconds at that speed.
    """

    REFERENCE_MS = 1.5
    LOOPS = 60

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self.np = np
        self.a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        self.b = rng.standard_normal((16, 2)) + 1j * rng.standard_normal((16, 2))
        self.samples_ms = []
        self.total_s = 0.0       # time spent sampling, taken out of the campaign wall

    def sample(self) -> float:
        np, a, b = self.np, self.a, self.b
        t0 = time.perf_counter()
        runs = []
        for _ in range(3):
            t = time.perf_counter()
            for _ in range(self.LOOPS):
                c = a @ a.conj().T
                e = np.linalg.solve(c + np.diag(np.diag(c)), b)
                float(np.trace(e.conj().T @ e).real)
            runs.append(time.perf_counter() - t)
        self.total_s += time.perf_counter() - t0
        self.samples_ms.append(1e3 * sorted(runs)[1])
        return self.samples_ms[-1]


def _campaign(config_path: str, work: Path) -> dict:
    import resource

    from checks import RunLog, check_outputs
    from ibfdsim import harness
    from layers import Tracer

    config = harness.load_config(config_path)
    log = RunLog()
    reference = Reference()
    scaled_ms = []      # jpaim iteration times at the reference speed
    # The campaign wall, cut at each reference sample; every stretch is
    # scaled by the sample taken at its end.
    mark = [0.0]
    scaled_wall = [0.0]

    def after_solve(args, kwargs, trace):
        first = len(log.iteration_ms)
        log.after_solve(args, kwargs, trace)
        stretch = time.perf_counter() - mark[0]
        scale = Reference.REFERENCE_MS / reference.sample()
        scaled_ms.extend(ms * scale for ms in log.iteration_ms[first:])
        scaled_wall[0] += stretch * scale
        mark[0] = time.perf_counter()

    hooks = dict(log.hooks(), **{"jpaim.run": (None, after_solve)})
    with Tracer(timed=False) as watch:
        for name, (before, after) in hooks.items():
            module, attr = name.split(".")
            watch.wrap(f"ibfdsim.{module}", attr, before, after)
        mark[0] = time.perf_counter()
        wall = _cli(config_path, work / "out")
        last = time.perf_counter() - mark[0]     # after the last solve: CSV writes
    digests, expected_runs = _expected(config)
    rows = check_outputs(work / "out", log, digests)
    out = _finish(log, rows, expected_runs)
    wall -= reference.total_s
    scaled_wall[0] += last * Reference.REFERENCE_MS / statistics.median(reference.samples_ms)
    out.update(wall_s=wall, scaled_wall_s=scaled_wall[0], realizations=config.realizations,
               iteration_ms=log.iteration_ms, scaled_iteration_ms=scaled_ms,
               reference_ms=reference.samples_ms,
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return out


class _TracedHooks:
    """Per-layer counters the spans cannot give: duplicate solves and
    whether each power step changed anything."""

    def __init__(self, log):
        from ibfdsim.model import realization_digest
        self.log = log
        self._digest = realization_digest     # bound before the layers are wrapped
        self.solves = 0
        self.duplicates = 0
        self.power_steps = 0
        self.useful_power_steps = 0
        self._seen = set()

    def hooks(self) -> dict:
        hooks = dict(self.log.hooks())
        hooks["jpaim.run"] = (None, self._after_solve)
        hooks["jpaim.update_power_coefficients"] = (None, self._after_power)
        return hooks

    def _after_solve(self, args, kwargs, trace):
        self.log.after_solve(args, kwargs, trace)
        key = (self._digest(args[0]), args[1])
        self.solves += 1
        self.duplicates += key in self._seen
        self._seen.add(key)

    def _after_power(self, args, kwargs, update):
        import numpy as np
        old, new = args[1], update.state
        pairs = [(old.dl_coefficients[g][k] * old.dl_precoders[g][k],
                  new.dl_coefficients[g][k] * new.dl_precoders[g][k])
                 for g in range(len(old.dl_precoders)) for k in range(len(old.dl_precoders[g]))]
        pairs += [(old.ul_coefficients[g][k] * old.ul_precoders[g][k],
                   new.ul_coefficients[g][k] * new.ul_precoders[g][k])
                  for g in range(len(old.ul_precoders)) for k in range(len(old.ul_precoders[g]))]
        self.power_steps += 1
        self.useful_power_steps += any(
            np.linalg.norm(b - a) > 1e-6 * np.linalg.norm(a) for a, b in pairs)


def _traced(config_path: str, work: Path) -> dict:
    from checks import RunLog, check_outputs, check_rerun
    from ibfdsim import harness, jpaim
    from ibfdsim.model import build_realization
    from layers import Tracer, count_interp_calls, layer_metrics, totals

    config = harness.load_config(config_path)
    out = _campaign(config_path, work)
    untraced_wall = out["wall_s"]

    log = RunLog()
    extra = _TracedHooks(log)
    with Tracer() as tracer:
        tracer.wrap_layers(extra.hooks())
        t0 = time.perf_counter()
        _cli(config_path, work / "traced")
        traced_wall = time.perf_counter() - t0
    digests, expected_runs = _expected(config)
    rows = check_outputs(work / "traced", log, digests)
    check_rerun(work / "out" / "realizations.csv", work / "traced" / "realizations.csv", log)
    traced = _finish(log, rows, expected_runs)
    for run, reasons in traced["failed"].items():
        out["failed"].setdefault(run, []).extend(reasons)
    out["integrity"] += traced["integrity"]

    spans = tracer.spans
    covered = sum(self_s for _, _, self_s in totals(spans).values())
    if abs(covered / traced_wall - 1.0) > 0.05:
        raise RuntimeError(f"span self times cover {covered:.3f} s of {traced_wall:.3f} s")
    per_algorithm = {}
    for r in rows:
        per_algorithm[r["algorithm"]] = per_algorithm.get(r["algorithm"], 0) + 1
    metrics = layer_metrics(spans, log.solver_iterations, per_algorithm, log.iterations)

    realization = build_realization(config.scenario, INTERP_SEED)
    py_calls, c_calls, trace = count_interp_calls(
        lambda: jpaim.run(realization, config.solver, collect_metrics=config.trace))
    iters = max(trace.iterations, 1)
    metrics.update({
        "harness.duplicate_solve_fraction": (extra.duplicates / max(extra.solves, 1), "fraction"),
        "jpaim.power_step.useful_fraction": (
            extra.useful_power_steps / max(extra.power_steps, 1), "fraction"),
        "interp.py_calls_per_iter": (py_calls / iters, "calls/iter"),
        "interp.c_calls_per_iter": (c_calls / iters, "calls/iter"),
        "trace.overhead_fraction": (traced_wall / untraced_wall - 1.0, "fraction"),
    })
    out.update(layers=metrics, absent=tracer.absent, traced_wall_s=traced_wall,
               span_count=len(spans), spans_cover_s=covered)
    return out


def main(argv) -> int:
    mode, config_path, result_path = argv[:3]
    result = Path(result_path)
    if mode == "setup":
        out = _setup(config_path)
    else:
        env = environment()
        if env["blas_threads"] != 1:
            print(f"refusing to time: BLAS runs {env['blas_threads']} threads, not 1",
                  file=sys.stderr)
            return 3
        work = result.parent
        out = (_traced if "--traced" in argv[3:] else _campaign)(config_path, work)
        out["environment"] = env
    result.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
