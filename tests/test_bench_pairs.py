"""tools/bench_pairs.py: its arguments, failed runs, and which code a benchmark
summary says it measured."""

import importlib.util
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
