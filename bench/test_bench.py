"""Tests of the benchmark harness itself.

    python3 -m pytest bench

They run real solves, about a minute in all.  They check the harness's
behaviour, never the package's counts or timings, so a change to the
package that moves a count leaves them passing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent


def _traced_counts(wl) -> dict:
    inst = wl.instances(workloads.DEFAULT_SEED)[0]
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        g = wl.build(inst)
        result = wl.drive(g, inst)
        with tracer.span("output.render"):
            wl.render(g, inst, result)
    return tracer.counts()


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_two_traced_solves_count_the_same(name):
    wl = workloads.WORKLOADS[name]
    first = _traced_counts(wl)
    assert first[("parallel.step", "calls")] > 0
    assert _traced_counts(wl) == first


def _namespaces():
    return {(mod.__name__, name): value
            for mod in tracing._chipfire_modules() for name, value in vars(mod).items()}


def test_tracing_restores_every_name():
    from chipfire import analysis, graph

    before = _namespaces()
    checks = dict(analysis.NAMED_CHECKS)
    build = vars(graph.Graph)["build"]
    with tracing.traced(tracing.Tracer()):
        assert analysis._step_raw is not before[("chipfire.analysis", "_step_raw")]
    assert _namespaces() == before
    assert analysis.NAMED_CHECKS == checks
    assert vars(graph.Graph)["build"] is build


def test_missing_target_is_absent_not_zero(monkeypatch):
    from chipfire import analysis

    # the probe never reaches the gap checks, so it still runs without them
    monkeypatch.delattr(analysis, "_gap_checks")
    result = run.measure("probe-cycle6", workloads.DEFAULT_SEED, 0.1, trace=True)
    assert result["correct"], result
    assert "analysis.gaps_s" not in result["metrics"]
    assert result["metrics"]["analysis.core_s"]["value"] == 0.0
    assert result["metrics"]["parallel.classify.calls"]["value"] > 0


def test_wrong_output_counts_as_failed_and_the_run_goes_on(monkeypatch):
    monkeypatch.setattr(run, "pinned_digests", lambda wl, seed: ["0" * 64])
    result = run.measure("long-game-path70", workloads.DEFAULT_SEED, 0.1, trace=False)
    assert result["failed"] == 1  # the solve; the CLI parity check still passes
    assert result["attempted"] == 2
    assert not result["correct"]
    assert set(result["metrics"]) == set(run.END_TO_END)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_without_package_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "probe-cycle6", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
