"""Per-layer spans recorded from outside the package.

``traced(tracer)`` replaces each target function in every ``chipfire``
module namespace that binds it (``_step_raw`` lives in both ``parallel``
and ``analysis``, ``validate`` in ``graph``, ``analysis`` and the package
itself) with a wrapper that records a span, and puts the originals back
on exit.  Spans nest: a span's self time is its duration minus the time
its wrapped children took.  Stats are aggregated as spans close, so a
solve making hundreds of thousands of calls keeps only counters, plus
per-call durations for the few names whose percentiles are reported.

A target the package no longer has is skipped, and its metrics are left
out of the report rather than reported as zero.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from time import perf_counter

FUNCTION, GENERATOR, MAPPING = "function", "generator", "mapping"

# (span, module, attribute, kind); MAPPING wraps every value of a dict
TARGETS = (
    ("graph.build", "chipfire.graph", "Graph.build", FUNCTION),
    ("graph.validate", "chipfire.graph", "validate", FUNCTION),
    ("oracle.enumerate", "chipfire.oracle", "enumerate_configs", GENERATOR),
    ("oracle.exhaustive_verify", "chipfire.oracle", "exhaustive_verify", FUNCTION),
    ("oracle.random_config", "chipfire.oracle", "random_config", FUNCTION),
    ("parallel.step", "chipfire.parallel", "_step_raw", FUNCTION),
    ("parallel.classify", "chipfire.parallel", "classify", FUNCTION),
    ("parallel.run", "chipfire.parallel", "run", FUNCTION),
    ("parallel.trace_csv", "chipfire.parallel", "trace_csv", FUNCTION),
    ("analysis.verify_battery", "chipfire.analysis", "verify_battery", FUNCTION),
    ("analysis.core", "chipfire.analysis", "_core_checks", FUNCTION),
    ("analysis.gaps", "chipfire.analysis", "_gap_checks", FUNCTION),
    ("analysis.firing", "chipfire.analysis", "_firing_checks", FUNCTION),
    ("analysis.bound", "chipfire.analysis", "_bound_checks", FUNCTION),
    ("analysis.cycle_states", "chipfire.analysis", "_cycle_states", FUNCTION),
    ("analysis.named_check", "chipfire.analysis", "NAMED_CHECKS", MAPPING),
    ("analysis.driver", "chipfire.analysis", "verify_corpus", FUNCTION),
    ("analysis.driver", "chipfire.analysis", "threshold_probe", FUNCTION),
    ("analysis.driver", "chipfire.analysis", "sweep_experiment", FUNCTION),
)

# spans whose per-call durations are kept for p50 / p99
PERCENTILE_SPANS = frozenset({"parallel.classify", "analysis.verify_battery"})

# (metric, unit, span, field); field is a Stat attribute or a percentile
SPAN_METRICS = (
    ("graph.build.calls", "count", "graph.build", "calls"),
    ("graph.build_s", "s", "graph.build", "total"),
    ("graph.validate.calls", "count", "graph.validate", "calls"),
    ("graph.validate_s", "s", "graph.validate", "total"),
    ("oracle.enumerate.configs", "count", "oracle.enumerate", "items"),
    ("oracle.enumerate_s", "s", "oracle.enumerate", "total"),
    ("oracle.exhaustive_verify.calls", "count", "oracle.exhaustive_verify", "calls"),
    ("oracle.exhaustive_verify_s", "s", "oracle.exhaustive_verify", "total"),
    ("oracle.random_config.calls", "count", "oracle.random_config", "calls"),
    ("oracle.random_config_s", "s", "oracle.random_config", "total"),
    ("parallel.step.calls", "count", "parallel.step", "calls"),
    ("parallel.step_s", "s", "parallel.step", "total"),
    ("parallel.classify.calls", "count", "parallel.classify", "calls"),
    ("parallel.classify_s", "s", "parallel.classify", "total"),
    ("parallel.classify.p50_us", "us", "parallel.classify", "p50_us"),
    ("parallel.classify.p99_us", "us", "parallel.classify", "p99_us"),
    ("parallel.run.calls", "count", "parallel.run", "calls"),
    ("parallel.run_s", "s", "parallel.run", "total"),
    ("parallel.trace_csv_s", "s", "parallel.trace_csv", "total"),
    ("analysis.verify_battery.calls", "count", "analysis.verify_battery", "calls"),
    ("analysis.verify_battery_s", "s", "analysis.verify_battery", "total"),
    ("analysis.verify_battery.p50_us", "us", "analysis.verify_battery", "p50_us"),
    ("analysis.verify_battery.p99_us", "us", "analysis.verify_battery", "p99_us"),
    ("analysis.core_s", "s", "analysis.core", "own"),
    ("analysis.gaps_s", "s", "analysis.gaps", "own"),
    ("analysis.firing_s", "s", "analysis.firing", "own"),
    ("analysis.bound_s", "s", "analysis.bound", "own"),
    ("analysis.named_check_s", "s", "analysis.named_check", "total"),
    ("analysis.cycle_states_s", "s", "analysis.cycle_states", "total"),
    ("analysis.driver_s", "s", "analysis.driver", "own"),
    ("output.render_s", "s", "output.render", "total"),
)

COUNT_FIELDS = ("calls", "items")
PERCENTILES = {"p50_us": 50, "p99_us": 99}


def percentile_us(durations, q: float) -> float:
    """Nearest-rank percentile of durations in seconds, in microseconds; 0 if none."""
    if not durations:
        return 0.0
    ordered = sorted(durations)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1] * 1e6


class Stat:
    __slots__ = ("calls", "items", "total", "own", "durations")

    def __init__(self, keep_durations: bool):
        self.calls = 0
        self.items = 0
        self.total = 0.0
        self.own = 0.0
        self.durations = [] if keep_durations else None


class Tracer:
    """Aggregated spans of one traced solve."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self._covered = [0.0]  # per open span: time its closed children took

    def stat(self, span: str) -> Stat:
        s = self.stats.get(span)
        if s is None:
            s = self.stats[span] = Stat(span in PERCENTILE_SPANS)
        return s

    def _close(self, s: Stat, t0: float) -> None:
        d = perf_counter() - t0
        covered = self._covered.pop()
        self._covered[-1] += d
        s.calls += 1
        s.total += d
        s.own += d - covered
        if s.durations is not None:
            s.durations.append(d)

    @contextmanager
    def span(self, name: str):
        s = self.stat(name)
        self._covered.append(0.0)
        t0 = perf_counter()
        try:
            yield
        finally:
            self._close(s, t0)

    def wrap(self, span: str, fn):
        s = self.stat(span)
        covered, close = self._covered, self._close

        def wrapper(*args, **kwargs):
            covered.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                close(s, t0)

        return wrapper

    def wrap_generator(self, span: str, fn):
        """Each resumption of the generator is one span; items counts yields."""
        s = self.stat(span)
        covered, close = self._covered, self._close

        def wrapper(*args, **kwargs):
            it = iter(fn(*args, **kwargs))
            while True:
                covered.append(0.0)
                t0 = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    close(s, t0)
                    return
                except BaseException:
                    close(s, t0)
                    raise
                close(s, t0)
                s.items += 1
                yield item

        return wrapper

    def counts(self) -> dict:
        return {(span, f): getattr(s, f) for span, s in self.stats.items() for f in COUNT_FIELDS}

    def value(self, span: str, field: str):
        s = self.stats.get(span) or Stat(False)
        if field in PERCENTILES:
            return percentile_us(s.durations, PERCENTILES[field])
        return getattr(s, field)


def _chipfire_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "chipfire" or name.startswith("chipfire."))]


@contextmanager
def traced(tracer: Tracer):
    """Install the tracer's wrappers; yields the set of spans found in the package."""
    undo = []
    present = {"output.render"}
    modules = _chipfire_modules()
    try:
        for span, modname, attr, kind in TARGETS:
            owner_path, _, leaf = attr.rpartition(".")
            owner = sys.modules.get(modname)
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None)
            if original is None:
                continue
            present.add(span)
            if kind == MAPPING:
                for key, fn in list(original.items()):
                    undo.append((original.__setitem__, key, fn))
                    original[key] = tracer.wrap(span, fn)
            elif owner_path:
                raw = vars(owner)[leaf]  # class attribute, e.g. a staticmethod
                wrapped = tracer.wrap(span, original)
                undo.append((setattr, owner, leaf, raw))
                setattr(owner, leaf, staticmethod(wrapped) if isinstance(raw, staticmethod) else wrapped)
            else:
                wrap = tracer.wrap_generator if kind == GENERATOR else tracer.wrap
                wrapped = wrap(span, original)
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            undo.append((setattr, mod, name, original))
                            setattr(mod, name, wrapped)
        yield present
    finally:
        for fn, *args in reversed(undo):
            fn(*args)
