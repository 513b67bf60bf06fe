"""tools/bench_pairs.py: its arguments, failed runs, and which code a benchmark
summary says it measured."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _git(repo, *args):
    subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@example.com", *args],
        cwd=repo, check=True, capture_output=True,
    )


def test_dirty_flag_follows_tracked_files(bench_pairs, tmp_path):
    _git(tmp_path, "init", "-q")
    (tmp_path / "a.txt").write_text("one\n")
    _git(tmp_path, "add", "a.txt")
    _git(tmp_path, "commit", "-q", "-m", "one")
    head = bench_pairs.head_commit(tmp_path)
    assert len(head) == 40
    assert bench_pairs.is_dirty(tmp_path) is False

    (tmp_path / "untracked.txt").write_text("ignored\n")
    assert bench_pairs.is_dirty(tmp_path) is False

    (tmp_path / "a.txt").write_text("two\n")
    assert bench_pairs.is_dirty(tmp_path) is True
    assert bench_pairs.head_commit(tmp_path) == head


def test_no_git_gives_null(bench_pairs, tmp_path):
    assert bench_pairs.head_commit(tmp_path) is None
    assert bench_pairs.is_dirty(tmp_path) is None


def test_workload_flag_takes_several_names(bench_pairs):
    sides = ["--parent", "p", "--change", "c", "--seeds", "1", "2"]
    args = bench_pairs.parse_args(sides + ["--workload", "exhaustive-cycle6", "sweep-gnp300"])
    assert args.workload == ["exhaustive-cycle6", "sweep-gnp300"]
    assert args.seeds == [1, 2]
    args = bench_pairs.parse_args(["--workload", "a", "--workload", "b", "c"] + sides)
    assert args.workload == ["a", "b", "c"]


def test_run_without_result_shows_its_stderr(bench_pairs, tmp_path, capsys):
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text(
        "import sys\n"
        "print('\\n'.join(f'line {i}' for i in range(30)), file=sys.stderr)\n"
        "sys.exit(3)\n"
    )
    assert bench_pairs.run_once(tmp_path, "probe-cycle6", 7, 1.0) is None
    err = capsys.readouterr().err.splitlines()
    assert err[0] == f"[probe-cycle6] {tmp_path} seed 7: no result (exit 3)"
    assert err[1:] == [f"  line {i}" for i in range(20, 30)]


@pytest.mark.parametrize("bad", ["parent", "change"])
def test_bad_checkout_exits_2_before_any_run(bench_pairs, tmp_path, monkeypatch, capsys, bad):
    good = tmp_path / "good"
    (good / "bench").mkdir(parents=True)
    (good / "bench" / "run.py").write_text("")
    (good / "BENCHMARK.json").write_text('{"end_to_end": []}')
    (tmp_path / "empty").mkdir()
    runs = []
    monkeypatch.setattr(bench_pairs, "run_once", lambda *args: runs.append(args))
    for missing in (tmp_path / "nonexistent", tmp_path / "empty"):
        sides = {"parent": good, "change": good, bad: missing}
        with pytest.raises(SystemExit) as exit_info:
            bench_pairs.main(["--parent", str(sides["parent"]), "--change", str(sides["change"]),
                              "--workload", "probe-cycle6", "--seeds", "1"])
        assert exit_info.value.code == 2
        assert f"--{bad} {missing} is not a directory holding bench/run.py" in capsys.readouterr().err
    assert runs == []


def _write_spec(checkout, end_to_end, workloads=("exhaustive-cycle6", "probe-cycle6")):
    """A BENCHMARK.json in checkout listing the workloads and metrics."""
    (checkout / "BENCHMARK.json").write_text(json.dumps({
        "workloads": [{"name": name} for name in workloads],
        "end_to_end": list(end_to_end.values()),
    }))


def test_unknown_workload_exits_2_before_any_run(bench_pairs, tmp_path, monkeypatch, capsys):
    for side in ("parent", "change"):
        (tmp_path / side / "bench").mkdir(parents=True)
        (tmp_path / side / "bench" / "run.py").write_text("")
    _write_spec(tmp_path / "parent", SPEC, workloads=("sweep-gnp300", "probe-cycle6"))
    runs = []
    monkeypatch.setattr(bench_pairs, "run_once", lambda *args: runs.append(args))
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                          "--workload", "probe-cycle6", "sweep-gnp30", "--seeds", "1", "2"])
    assert exit_info.value.code == 2
    assert ("unknown workload sweep-gnp30; the parent's BENCHMARK.json lists "
            "sweep-gnp300, probe-cycle6") in capsys.readouterr().err
    assert runs == []


SPEC = {
    "solve_s": {"name": "solve_s", "better": "lower", "bound": 0.25},
    "configs_per_s": {"name": "configs_per_s", "better": "higher", "bound": 0.25},
    "peak_rss_mb": {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
}


def _run(values):
    return {"metrics": {name: {"value": v} for name, v in values.items()},
            "failed": 0, "attempted": 1}


def _pairs(parent, change, count=10):
    return [(_run(parent), _run(change)) for _ in range(count)]


# a probe-cycle6 memo that solved 3.2x faster while its peak RSS rose 12.6 %
MEMO_PARENT = {"solve_s": 2.05, "peak_rss_mb": 25.49}
MEMO_CHANGE = {"solve_s": 0.63, "peak_rss_mb": 28.71}
MEMO_SPEC = {name: SPEC[name] for name in MEMO_PARENT}


def test_over_bound_flags_a_rise_in_memory_past_its_bound(bench_pairs):
    metrics = bench_pairs.summarize(_pairs(MEMO_PARENT, MEMO_CHANGE), MEMO_SPEC)["metrics"]
    assert metrics["peak_rss_mb"]["over_bound"] is True
    assert metrics["peak_rss_mb"]["bound"] == 0.1
    assert metrics["peak_rss_mb"]["shift"] == pytest.approx(28.71 / 25.49 - 1)
    assert metrics["solve_s"]["over_bound"] is False
    assert metrics["solve_s"]["wins"] == 10


def test_over_bound_reads_the_direction(bench_pairs):
    # a higher-is-better metric is over its bound when it falls by more than it
    pairs = _pairs({"solve_s": 1.0, "configs_per_s": 1000.0, "peak_rss_mb": 25.0},
                   {"solve_s": 1.2, "configs_per_s": 700.0, "peak_rss_mb": 27.5})
    metrics = bench_pairs.summarize(pairs, SPEC)["metrics"]
    assert metrics["configs_per_s"]["over_bound"] is True
    assert metrics["solve_s"]["over_bound"] is False  # +20 % is within 25 %
    assert metrics["peak_rss_mb"]["over_bound"] is False  # +10 % exactly is not past 10 %
    # past half the bound and not past it is near it; over it is not also near
    assert [name for name in SPEC if metrics[name]["near_bound"]] == ["solve_s", "peak_rss_mb"]


def test_summary_lists_metrics_over_bound(bench_pairs, tmp_path, monkeypatch, capsys):
    for side in ("parent", "change"):
        (tmp_path / side / "bench").mkdir(parents=True)
        (tmp_path / side / "bench" / "run.py").write_text("")
    _write_spec(tmp_path / "parent", MEMO_SPEC)
    parent, change = _run(MEMO_PARENT), _run(MEMO_CHANGE)
    monkeypatch.setattr(bench_pairs, "run_once",
                        lambda checkout, *args: parent if checkout.name == "parent" else change)
    assert bench_pairs.main(["--parent", str(tmp_path / "parent"),
                             "--change", str(tmp_path / "change"),
                             "--workload", "probe-cycle6", "--seeds", "1", "2"]) == 0
    out, err = capsys.readouterr()
    summary = json.loads(out)
    assert [(o["workload"], o["metric"], o["bound"]) for o in summary["over_bound"]] == [
        ("probe-cycle6", "peak_rss_mb", 0.1)]
    assert "[probe-cycle6] peak_rss_mb: the change median is +12.6% against the parent's" in err
    assert "median attempted per run 1 against 1" in err


# an exhaustive-cycle6 streaming walk: 1.47x faster, and its peak RSS rose
# +9.0 % with half as many solves again per run, near the 10 % bound
STREAM_PARENT = {"solve_s": 1.50, "peak_rss_mb": 26.62}
STREAM_CHANGE = {"solve_s": 1.02, "peak_rss_mb": 29.01}


def test_summary_lists_metrics_near_bound(bench_pairs, tmp_path, monkeypatch, capsys):
    for side in ("parent", "change"):
        (tmp_path / side / "bench").mkdir(parents=True)
        (tmp_path / side / "bench" / "run.py").write_text("")
    _write_spec(tmp_path / "parent", MEMO_SPEC)
    parent = {**_run(STREAM_PARENT), "attempted": 23}
    change = {**_run(STREAM_CHANGE), "attempted": 34}
    monkeypatch.setattr(bench_pairs, "run_once",
                        lambda checkout, *args: parent if checkout.name == "parent" else change)
    assert bench_pairs.main(["--parent", str(tmp_path / "parent"),
                             "--change", str(tmp_path / "change"),
                             "--workload", "exhaustive-cycle6", "--seeds", "1", "2"]) == 0
    out, err = capsys.readouterr()
    summary = json.loads(out)
    assert summary["over_bound"] == []
    assert [(o["workload"], o["metric"], o["bound"]) for o in summary["near_bound"]] == [
        ("exhaustive-cycle6", "peak_rss_mb", 0.1)]
    metrics = summary["workloads"]["exhaustive-cycle6"]["metrics"]
    assert metrics["peak_rss_mb"]["shift"] == pytest.approx(29.01 / 26.62 - 1)
    assert (metrics["peak_rss_mb"]["near_bound"], metrics["solve_s"]["near_bound"]) == (True, False)
    assert ("[exhaustive-cycle6] peak_rss_mb: the change median is +9.0% against the parent's, "
            "past half its bound of 10%; median attempted per run 23 against 34") in err


# a probe-cycle6 lex-order early exit: twice as fast, with +20 % peak RSS and
# more than twice the solves per run; (solve_s, peak_rss_mb, attempted) per run
LEX_PAIRS = [((1.45, 24.9, 16), (0.68, 30.3, 40)), ((1.61, 25.7, 19), (0.63, 29.6, 38))]


def _lex_run(solve_s, peak_rss_mb, attempted):
    return {**_run({"solve_s": solve_s, "peak_rss_mb": peak_rss_mb}), "attempted": attempted}


def test_attempted_quartiles_show_the_solves_behind_a_memory_rise(bench_pairs):
    pairs = [(_lex_run(*p), _lex_run(*c)) for p, c in LEX_PAIRS]
    summary = bench_pairs.summarize(pairs, MEMO_SPEC)
    assert summary["metrics"]["peak_rss_mb"]["over_bound"] is True
    assert summary["metrics"]["solve_s"]["wins"] == 2
    assert summary["parent"]["attempted"] == 35
    assert summary["parent"]["attempted_per_run"] == {"median": 17.5, "q1": 16.75, "q3": 18.25}
    assert summary["change"]["attempted_per_run"] == {"median": 39, "q1": 38.5, "q3": 39.5}
    # a side without a result has no quartiles
    assert bench_pairs.summarize([(pairs[0][0], None)], {})["change"]["attempted_per_run"] is None


# ten parent solve_s medians with quartiles 1.45 and 1.55
PARENT_SOLVE = [1.40, 1.44, 1.45, 1.45, 1.50, 1.50, 1.55, 1.55, 1.56, 1.60]


def _solve_claim(bench_pairs, change):
    """The solve_s summary of PARENT_SOLVE against change, pair by pair; a
    None in change is a run that gave no result."""
    pairs = [(_run({"solve_s": p}), c and _run({"solve_s": c}))
             for p, c in zip(PARENT_SOLVE, change)]
    return bench_pairs.summarize(pairs, {"solve_s": SPEC["solve_s"]})["metrics"]["solve_s"]


def test_claim_rule_needs_nine_wins_in_ten(bench_pairs):
    faster = [p - 0.2 for p in PARENT_SOLVE]
    # nine pairs won, the tenth lost, and a median gain of 0.2 s against the
    # parent's interquartile range of 0.1 s: the claim holds
    solve = _solve_claim(bench_pairs, faster[:9] + [1.7])
    assert (solve["wins"], solve["losses"]) == (9, 1)
    assert solve["parent"]["q3"] - solve["parent"]["q1"] == pytest.approx(0.1)
    assert solve["nine_in_ten"] is True and solve["beyond_parent_iqr"] is True
    # eight won: not enough, however large the gain
    solve = _solve_claim(bench_pairs, faster[:8] + [1.7, 1.7])
    assert solve["nine_in_ten"] is False and solve["beyond_parent_iqr"] is True
    # a pair whose change run gave no result counts against the change
    solve = _solve_claim(bench_pairs, [None] + faster[1:])
    assert solve["wins"] == 9 and solve["nine_in_ten"] is True
    assert _solve_claim(bench_pairs, [None, None] + faster[2:])["nine_in_ten"] is False


def test_claim_rule_needs_a_median_gain_past_the_parent_iqr(bench_pairs):
    # every pair won by 0.05 s, inside the parent's 0.1 s interquartile range
    solve = _solve_claim(bench_pairs, [p - 0.05 for p in PARENT_SOLVE])
    assert solve["wins"] == 10
    assert solve["nine_in_ten"] is True and solve["beyond_parent_iqr"] is False
    # a gain as large as that range, in the wrong direction, is no gain
    solve = _solve_claim(bench_pairs, [p + 0.2 for p in PARENT_SOLVE])
    assert solve["nine_in_ten"] is False and solve["beyond_parent_iqr"] is False


def test_claim_rule_reads_the_direction(bench_pairs):
    # configs_per_s is better higher: a rise past the parent's spread is a gain
    parent = [{"solve_s": 1.0, "configs_per_s": 1000.0 + 10 * i, "peak_rss_mb": 25.0}
              for i in range(10)]
    change = [{**p, "configs_per_s": p["configs_per_s"] + 200} for p in parent]
    metrics = bench_pairs.summarize([(_run(p), _run(c)) for p, c in zip(parent, change)],
                                    SPEC)["metrics"]
    assert metrics["configs_per_s"]["nine_in_ten"] is True
    assert metrics["configs_per_s"]["beyond_parent_iqr"] is True
    # ties win nothing
    assert metrics["solve_s"]["nine_in_ten"] is False
    assert metrics["solve_s"]["beyond_parent_iqr"] is False
