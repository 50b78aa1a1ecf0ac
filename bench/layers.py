"""Outside-in tracing: wrap ibfdsim's public layer functions from the outside.

`jpaim`, `baselines`, `harness` and `cli` look their collaborators up as
module attributes (or module globals) at call time, so replacing those
attributes with timing wrappers traces a real campaign without touching the
package.  Every call becomes a span (name, start, end, parent); a span's self
time is its duration minus the time its direct child spans cover, so the
self times of one traced call tree add up to its root span exactly.

Only public names are wrapped.  A layer function that does not exist (for
example after the power block is deleted) is listed in `Tracer.absent` and
its metrics read 0: it is neither called nor timed.
"""

from __future__ import annotations

import importlib
import sys
import time

# Span names are "<layer>.<function>"; the layer is the module's last name part.
LAYERS = (
    ("ibfdsim.cli", "main"),
    ("ibfdsim.harness", "run_campaign"),
    ("ibfdsim.model", "build_realization"),
    ("ibfdsim.model", "realization_digest"),
    ("ibfdsim.baselines", "run_nsp"),
    ("ibfdsim.baselines", "run_half_duplex"),
    ("ibfdsim.jpaim", "run"),
    ("ibfdsim.jpaim", "initialize"),
    ("ibfdsim.jpaim", "update_combiners"),
    ("ibfdsim.jpaim", "compute_omegas"),
    ("ibfdsim.jpaim", "update_precoders"),
    ("ibfdsim.jpaim", "update_power_coefficients"),
    ("ibfdsim.objective", "evaluate"),
    ("ibfdsim.covariance", "f1"),
    ("ibfdsim.covariance", "f2"),
    ("numpy.linalg", "eigh"),
    ("numpy.linalg", "solve"),
)

# Spans for the benchmark's own bookkeeping inside a traced run (digests for
# the duplicate-solve detector, state comparisons); never a layer's time.
INSPECT = "bench.inspect"


def _evaluate_label(args, kwargs) -> str:
    with_rates = kwargs.get("with_rates", args[3] if len(args) > 3 else True)
    return "objective.evaluate.rates" if with_rates else "objective.evaluate.norates"


LABELS = {"objective.evaluate": _evaluate_label}


class Tracer:
    """Replaces module attributes with wrappers; `restore` puts them back.

    With `timed=False` the wrappers only run the before/after hooks, which is
    how the untraced run watches solver results without recording spans.
    """

    def __init__(self, timed: bool = True, clock=time.perf_counter):
        self.timed = timed
        self.clock = clock
        self.spans = []          # (name, start, end, parent index or -1)
        self.absent = []
        self._stack = []
        self._patches = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()

    def restore(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def wrap(self, module_name: str, attr: str, before=None, after=None) -> bool:
        """Wrap `module_name.attr` wherever ibfdsim binds that same object.

        `before(args, kwargs)` and `after(args, kwargs, result)` run around the
        call, inside a bookkeeping span when timed.  Returns False (and records
        the name as absent) if the module has no such attribute.
        """
        if attr.startswith("_"):
            raise ValueError(f"{attr} is private; only public layer functions are wrapped")
        name = f"{module_name.rsplit('.', 1)[-1]}.{attr}"
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            self.absent.append(name)
            return False
        wrapper = self._wrapper(original, name, LABELS.get(name), before, after)
        sites = [module]
        if module_name.startswith("ibfdsim"):
            sites += [m for key, m in sorted(sys.modules.items())
                      if (key == "ibfdsim" or key.startswith("ibfdsim.")) and m is not module
                      and getattr(m, attr, None) is original]
        for site in sites:
            self._patches.append((site, attr, original))
            setattr(site, attr, wrapper)
        return True

    def wrap_layers(self, hooks=None) -> None:
        hooks = hooks or {}
        for module_name, attr in LAYERS:
            before, after = hooks.get(f"{module_name.rsplit('.', 1)[-1]}.{attr}", (None, None))
            self.wrap(module_name, attr, before, after)

    def call_in_span(self, name: str, fn, /, *args, **kwargs):
        """Run fn(*args, **kwargs) as a span of its own (plainly when untimed)."""
        if not self.timed:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent)

    def _wrapper(self, fn, name, label, before, after):
        def wrapper(*args, **kwargs):
            if before is not None:
                self.call_in_span(INSPECT, before, args, kwargs)
            span = label(args, kwargs) if label else name
            result = self.call_in_span(span, fn, *args, **kwargs)
            if after is not None:
                self.call_in_span(INSPECT, after, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper


def self_times(spans) -> list:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(end - start) - c for (_, start, end, _), c in zip(spans, child)]


def totals(spans) -> dict:
    """name -> (calls, total seconds, self seconds)."""
    out = {}
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        calls, total, self_s = out.get(name, (0, 0.0, 0.0))
        out[name] = (calls + 1, total + (end - start), self_s + own)
    return out


def count_interp_calls(fn):
    """Python-level and C-level function calls made while fn() runs."""
    counts = {"call": 0, "c_call": 0}

    def profiler(frame, event, arg):
        if event in counts:
            counts[event] += 1

    sys.setprofile(profiler)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return counts["call"], counts["c_call"], result


def layer_metrics(spans, iterations: int, calls_per_algorithm: dict,
                  iterations_per_algorithm: dict) -> dict:
    """Per-layer figures of one traced campaign.

    `iterations` is the total over every solver run in the campaign and is
    the denominator of each per-iteration figure; `calls_per_algorithm`
    counts the CSV rows each algorithm produced.
    """
    t = totals(spans)
    iters = max(iterations, 1)

    def calls(name):
        return t.get(name, (0, 0.0, 0.0))[0]

    def self_s(name):
        return t.get(name, (0, 0.0, 0.0))[2]

    def per_call_ms(name, own=True):
        n, total, own_s = t.get(name, (0, 0.0, 0.0))
        return 1e3 * (own_s if own else total) / n if n else 0.0

    m = {
        "cli.self_ms": (1e3 * self_s("cli.main"), "ms"),
        "harness.run_campaign.self_s": (self_s("harness.run_campaign"), "s"),
        "model.build_realization.ms": (per_call_ms("model.build_realization", False), "ms"),
        "model.realization_digest.ms": (per_call_ms("model.realization_digest", False), "ms"),
        "jpaim.initialize.ms": (per_call_ms("jpaim.initialize", False), "ms"),
        "jpaim.run.self_ms_per_iter": (1e3 * self_s("jpaim.run") / iters, "ms/iter"),
    }
    for block in ("update_combiners", "compute_omegas", "update_precoders",
                  "update_power_coefficients"):
        m[f"jpaim.{block}.self_ms_per_iter"] = (1e3 * self_s(f"jpaim.{block}") / iters,
                                                "ms/iter")
    for algo in ("jpaim", "nsp-jpaim", "half-duplex"):
        rows = calls_per_algorithm.get(algo, 0)
        m[f"jpaim.iterations_mean.{algo}"] = (
            iterations_per_algorithm.get(algo, 0) / rows if rows else 0.0, "iter")
    for kind in ("rates", "norates"):
        name = f"objective.evaluate.{kind}"
        m[f"{name}.calls_per_iter"] = (calls(name) / iters, "calls/iter")
        m[f"{name}.self_ms_per_call"] = (per_call_ms(name), "ms/call")
    for name in ("covariance.f1", "covariance.f2", "linalg.eigh", "linalg.solve"):
        m[f"{name}.calls_per_iter"] = (calls(name) / iters, "calls/iter")
        m[f"{name}.self_ms_per_iter"] = (1e3 * self_s(name) / iters, "ms/iter")
    for name in ("baselines.run_nsp", "baselines.run_half_duplex"):
        m[f"{name}.self_ms"] = (per_call_ms(name), "ms")
    return m
