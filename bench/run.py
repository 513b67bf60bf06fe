"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload exhaustive-cycle6 --seed 1 --seconds 20 --trace 0

Run from anywhere; the package is imported from the ``src`` directory of
this checkout.  One process runs one workload, single-threaded.

--trace 0 solves untraced for --seconds and reports the end-to-end
metrics; between solves it rebuilds the graph, and ``setup_s`` is the
median build.
--trace 1 solves untraced for half of --seconds, then traced (see
tracing.py) for the other half, and reports the per-layer metrics.

Every solve is checked: theorem-level facts, agreement with the
independent reference simulator, the same bytes on every solve of an
instance, and the pinned sha256 in baseline.json wherever the inputs are
the default seed's.  Once per run, untimed, the workload's CLI command is
run through ``chipfire.cli.main`` and must reproduce the library's bytes.
A failed check or an exception counts in "failed" and the run goes on.
Problems go to stderr; the last line of stdout is the result object.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import itertools
import json
import os
import resource
import sys
import traceback
from contextlib import redirect_stdout
from pathlib import Path
from statistics import median
from time import perf_counter

import reference
import tracing

try:
    import workloads
except ImportError as e:  # no package sources next to the benchmark
    raise SystemExit(f"bench: cannot load the package under test: {e}")
from workloads import cf  # noqa: E402
from chipfire import cli  # noqa: E402

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE.parent / ".bench_out"  # CLI output files, removed after each run
BASELINE = HERE / "baseline.json"

# metric -> unit; the end-to-end metrics of a --trace 0 run
END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "configs_per_s": "1/s",
    "rounds_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# metric -> unit; the per-layer metrics of a --trace 1 run
PER_LAYER = {name: unit for name, unit, _, _ in tracing.SPAN_METRICS}
PER_LAYER.update({
    "parallel.step_redundancy": "ratio",  # step calls / reference rounds
    "output.bytes": "bytes",
    "trace.overhead_ratio": "ratio",  # traced solve_s / untraced solve_s
})

SETUP_SLICE = 0.05  # seconds of graph rebuilds timed between two solves
CALIBRATION_SLICE = 0.1  # seconds of calibration units timed between two solves
# Median seconds of one reference.calibration_unit() on an uncontended
# 2 GHz Xeon vCPU.  End-to-end times are reported on this machine scale.
CALIBRATION_UNIT_S = 0.0065


class Tally:
    """Operations attempted and failed; each failure's reasons go to stderr."""

    def __init__(self, workload: str):
        self.workload = workload
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                print(f"[{self.workload}] {what}: {p}", file=sys.stderr)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def pinned_digests(wl, seed: int):
    """Pinned per-instance digests, when this seed's inputs are the pinned ones."""
    if wl.seeded and seed != workloads.DEFAULT_SEED:
        return None
    return json.loads(BASELINE.read_text())["digests"][wl.name]


class Solver:
    """Solves one workload's instances and checks every output."""

    def __init__(self, wl, insts, graphs, expected, pinned, tally):
        self.wl, self.insts, self.graphs = wl, insts, graphs
        self.expected, self.pinned, self.tally = expected, pinned, tally
        self.digests: dict[int, str] = {}
        self.part_digests: dict[int, list[str]] = {}
        self.out_bytes: dict[int, int] = {}

    def solve(self, k: int, tracer=None):
        """Solve instance k; returns its solve seconds, or None if it raised.

        A solve whose output fails a check still returns its time: it
        counts in "failed", and the run goes on.
        """
        wl, inst, g = self.wl, self.insts[k], self.graphs[k]
        try:
            t0 = perf_counter()
            result = wl.drive(g, inst)
            if tracer is None:
                parts = wl.render(g, inst, result)
            else:
                with tracer.span("output.render"):
                    parts = wl.render(g, inst, result)
            elapsed = perf_counter() - t0
        except Exception:
            self.tally.record(f"solve of instance {k}", [traceback.format_exc()])
            return None
        problems = wl.check(g, inst, result, self.expected[k])
        data = b"".join(parts)
        digest = _digest(data)
        if self.digests.setdefault(k, digest) != digest:
            problems.append(f"instance {k}: output differs from an earlier solve")
        if self.pinned is not None and digest != self.pinned[k]:
            problems.append(f"instance {k}: output sha256 {digest} != pinned {self.pinned[k]}")
        self.part_digests.setdefault(k, [_digest(p) for p in parts])
        self.out_bytes[k] = len(data)
        self.tally.record(f"solve of instance {k}", problems)
        return elapsed

    def solve_for(self, seconds: float, instances: list[int], tracer_factory=None, between=None):
        """Solve the instances in turn until `seconds` have passed; at least once.

        `between` runs after each solve, outside the solve's timing.
        Returns [(instance, solve seconds, tracer or None)] for the solves that ran.
        """
        out = []
        start = perf_counter()
        i = 0
        while True:
            if between is not None and i:
                between()
            k = instances[i % len(instances)]
            i += 1
            if tracer_factory is None:
                elapsed = self.solve(k)
                tracer = None
            else:
                tracer, elapsed = tracer_factory(k)
            if elapsed is not None:
                out.append((k, elapsed, tracer))
            if perf_counter() - start >= seconds:
                return out

    def cli_parity(self, k: int) -> None:
        """Run instance k's CLI command once and compare its bytes to the library's."""
        wl, inst = self.wl, self.insts[k]
        OUT_DIR.mkdir(exist_ok=True)
        problems = []
        try:
            argv = wl.cli_argv(self.graphs[k], inst, OUT_DIR)
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli.main(argv)
            if code != 0:
                problems.append(f"`chipfire {' '.join(argv)}` exited {code}")
            else:
                parts, problems = wl.cli_parts(inst, buf.getvalue(), OUT_DIR)
                want = self.part_digests.get(k)
                for i, data in parts.items():
                    if want is None or _digest(data) != want[i]:
                        problems.append(f"CLI output part {i} differs from the library's bytes")
        except Exception:
            problems.append(traceback.format_exc())
        finally:
            for f in OUT_DIR.iterdir():
                f.unlink()
            OUT_DIR.rmdir()
        self.tally.record("CLI parity", problems)


def timed_calls(fn, seconds: float) -> list[float]:
    """Times of repeated calls of fn over `seconds`; at least one call."""
    times = []
    end = perf_counter() + seconds
    while True:
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
        if perf_counter() >= end:
            return times


def end_to_end(solver, solves, setup_s, scale) -> dict:
    """Each instance's median solve time, then totals over the instances solved.

    With one instance (every workload but the sweep) this is the median
    solve; the sweep's six instances weigh equally however often each
    was solved.  Times are multiplied by `scale`, the machine's speed
    relative to CALIBRATION_UNIT_S.
    """
    per_inst = {}
    for k, dt, _ in solves:
        per_inst.setdefault(k, []).append(dt * scale)
    times = {k: median(dts) for k, dts in per_inst.items()}
    total = sum(times.values())
    exp = solver.expected
    values = {
        "setup_s": setup_s * scale,
        "solve_s": total / len(times),
        "configs_per_s": sum(exp[k].configs for k in times) / total,
        "rounds_per_s": sum(exp[k].rounds for k in times) / total,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer(solver, untraced, traced_solves, present, tally) -> dict:
    tracers = [t for _, _, t in traced_solves]
    first = tracers[0]
    if len(tracers) > 1:
        same = all(t.counts() == first.counts() for t in tracers[1:])
        tally.record("traced counts", [] if same else ["call counts differ between traced solves"])
    values = {}
    for name, _, span, field in tracing.SPAN_METRICS:
        if span not in present:
            continue  # the package no longer has this target
        if field in tracing.COUNT_FIELDS:
            values[name] = first.value(span, field)
        elif field in tracing.PERCENTILES:
            pooled = [d for t in tracers if span in t.stats for d in t.stats[span].durations]
            values[name] = tracing.percentile_us(pooled, tracing.PERCENTILES[field])
        else:
            values[name] = median(t.value(span, field) for t in tracers)
    if "parallel.step" in present:
        values["parallel.step_redundancy"] = values["parallel.step.calls"] / solver.expected[0].rounds
    values["output.bytes"] = solver.out_bytes[0]
    values["trace.overhead_ratio"] = (median(dt for _, dt, _ in traced_solves)
                                      / median(dt for _, dt, _ in untraced))
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER.items() if name in values}


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    # the library path and the CLI must both see the default orbit-store cap
    os.environ.pop(cf.parallel.STATE_CAP_ENV, None)
    wl = workloads.WORKLOADS[name]
    tally = Tally(name)
    insts = wl.instances(seed)
    if trace:
        insts = insts[:1]
    graphs, builds = [], []
    for inst in insts:
        t0 = perf_counter()
        graphs.append(wl.build(inst))
        builds.append(perf_counter() - t0)
    rebuild = itertools.cycle(insts)
    calibration = timed_calls(reference.calibration_unit, CALIBRATION_SLICE)

    def between_solves():
        builds.extend(timed_calls(lambda: wl.build(next(rebuild)), SETUP_SLICE))
        calibration.extend(timed_calls(reference.calibration_unit, CALIBRATION_SLICE))
    expected = [wl.expected(g, inst) for g, inst in zip(graphs, insts)]
    solver = Solver(wl, insts, graphs, expected, pinned_digests(wl, seed), tally)
    order = list(range(len(insts)))
    if not trace:
        # Set-up and calibration are sampled between solves, so they see the
        # machine as the solves do.  A shared host's speed drifts by tens of
        # percent over minutes; scaling by the calibration keeps runs made
        # at different times comparable.
        solves = solver.solve_for(seconds, order, between=between_solves)
        scale = CALIBRATION_UNIT_S / median(calibration)
        metrics = end_to_end(solver, solves, median(builds), scale) if solves else None
        if solves:
            raw = median(dt for _, dt, _ in solves)
            print(f"[{name}] raw median solve {raw:.6f} s, raw median build {median(builds):.9f} s, "
                  f"calibration unit {median(calibration):.6f} s, scale {scale:.6f}", file=sys.stderr)
    else:
        untraced = solver.solve_for(seconds / 2, order)
        found: set = set()

        def traced_solve(k):
            tracer = tracing.Tracer()
            with tracing.traced(tracer) as present:
                solver.graphs[k] = wl.build(insts[k])
                elapsed = solver.solve(k, tracer)
            found.update(present)
            return tracer, elapsed

        traced_solves = solver.solve_for(seconds / 2, order, traced_solve)
        metrics = None
        if untraced and traced_solves:
            metrics = per_layer(solver, untraced, traced_solves, found, tally)
    solver.cli_parity(0)
    if metrics is None:
        raise RuntimeError("every solve raised; nothing to report")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except Exception:
        traceback.print_exc()
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
