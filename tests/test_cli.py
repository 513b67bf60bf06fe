"""CLI surface: exit codes, output files, and byte-level determinism."""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import chipfire as cf

from chipfire import cli
from chipfire.cli import (
    EXIT_BUDGET,
    EXIT_COUNTEREXAMPLE,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_RESOURCE,
    main,
)
from chipfire.errors import EmptyGraph


class TestSimulate:
    def test_concentrated_triangle(self, capsys):
        assert main(["simulate", "cycle:3", "concentrated:9,0"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["stab_round"] == 2
        assert out["final"] == [5, 2, 2]
        assert out["stop"] == "fixed_point"

    def test_budget_exit(self, capsys):
        code = main(["simulate", "cycle:4", "explicit:2,0,2,0", "--max-rounds", "10"])
        assert code == EXIT_BUDGET
        out = json.loads(capsys.readouterr().out)
        assert out["stop"] == "budget" and out["stab_round"] is None

    def test_trace_cap_resource_exit(self, monkeypatch, capsys):
        monkeypatch.setenv("CHIPFIRE_STATE_CAP", "50")
        argv = ["simulate", "cycle:4", "explicit:2,0,2,0", "--max-rounds", str(10**5)]
        assert main(argv) == EXIT_RESOURCE
        assert "resource exhausted" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["simulate", "badfile.txt", "explicit:1,2"]) == EXIT_INPUT
        assert "cannot read" in capsys.readouterr().err

    def test_explicit_length_mismatch(self, capsys):
        assert main(["simulate", "cycle:3", "explicit:1,2"]) == EXIT_INPUT

    def test_bad_config_kind(self, capsys):
        assert main(["simulate", "cycle:3", "everything:9"]) == EXIT_INPUT

    def test_random_config_source(self, capsys):
        assert main(["simulate", "cycle:3", "random:9,5"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert sum(out["final"]) == 9

    def test_trace_out(self, tmp_path, capsys):
        dest = tmp_path / "trace.csv"
        assert main(["simulate", "cycle:3", "concentrated:9,0", "--trace-out", str(dest)]) == EXIT_OK
        capsys.readouterr()
        text = dest.read_text()
        assert text.startswith("t,fired_count,fired_bitmask_hex,candy_0")
        assert text.strip().splitlines()[-1] == "3,3,0x7,5,2,2"

    def test_edge_list_file(self, tmp_path, capsys):
        src = tmp_path / "tri.txt"
        src.write_text("0 1\n1 2\n0 2\n")
        assert main(["simulate", str(src), "concentrated:9,0"]) == EXIT_OK

    def test_pretty_does_not_break_exit(self, capsys):
        assert main(["simulate", "path:3", "explicit:5,0,0", "--pretty"]) == EXIT_OK
        text = capsys.readouterr().out
        assert "fixed point after round 5" in text


class TestVerify:
    def test_triangle_auto(self, capsys):
        assert main(["verify", "cycle:3", "--c", "auto", "--exhaustive"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["c"] == 9 and out["configs_checked"] == 55 and out["ok"]

    def test_path_auto(self, capsys):
        assert main(["verify", "path:3", "--c", "auto", "--exhaustive"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["configs_checked"] == 21

    def test_square_counterexample(self, capsys):
        assert main(["verify", "cycle:4", "--c", "4", "--exhaustive"]) == EXIT_COUNTEREXAMPLE
        out = json.loads(capsys.readouterr().out)
        assert out["counterexample"]["config"] == [0, 2, 0, 2]
        assert out["counterexample"]["initial"] == [0, 0, 0, 4]
        assert out["counterexample"]["check"] == "stabilizes"

    def test_sampled_mode(self, capsys):
        assert main(["verify", "cycle:3", "--c", "9", "--trials", "10", "--seed", "4"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["mode"] == "sampled" and out["configs_checked"] == 10

    def test_negative_trials_is_an_input_error(self, capsys):
        assert main(["verify", "cycle:4", "--c", "4", "--trials", "-2"]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["error: --trials must be >= 0"]
        assert captured.out == ""

    def test_zero_trials_checks_nothing(self, capsys):
        assert main(["verify", "cycle:4", "--c", "4", "--trials", "0"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert (out["configs_total"], out["configs_checked"]) == (0, 0)

    def test_exhaustive_and_trials_conflict(self, capsys):
        code = main(["verify", "cycle:3", "--exhaustive", "--trials", "5"])
        assert code == EXIT_INPUT

    def test_bad_c(self, capsys):
        assert main(["verify", "cycle:3", "--c", "many"]) == EXIT_INPUT

    def test_enum_cap_resource_exit(self, capsys):
        code = main(["verify", "complete:9", "--c", "auto", "--enum-cap", "1000"])
        assert code == EXIT_RESOURCE
        assert "exceed" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", [["verify", "path:3", "--c", "5"], ["probe", "path:3", "--c-max", "5"]])
    def test_negative_enum_cap_is_an_input_error(self, cmd, capsys):
        assert main([*cmd, "--enum-cap", "-1"]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["error: --enum-cap must be >= 0"]
        assert captured.out == ""

    def test_zero_enum_cap_is_still_a_resource_cap(self, capsys):
        assert main(["verify", "path:3", "--c", "5", "--enum-cap", "0"]) == EXIT_RESOURCE

    def test_report_out_matches_stdout(self, tmp_path, capsys):
        dest = tmp_path / "report.json"
        main(["verify", "cycle:3", "--c", "9", "--report-out", str(dest)])
        stdout = capsys.readouterr().out
        assert dest.read_text() == stdout

    def test_disconnected_graph_rejected(self, tmp_path, capsys):
        src = tmp_path / "split.txt"
        src.write_text("n 4\n0 1\n2 3\n")
        assert main(["verify", str(src), "--c", "4"]) == EXIT_INPUT


class TestSweep:
    def test_csv_on_stdout(self, capsys):
        assert main(["sweep", "cycle:4", "--c-values", "4,12", "--trials", "2", "--seed", "1"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("n,m,d,c,threshold,trial,outcome")
        assert len(lines) == 5

    def test_outputs_identical_across_runs(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        main(["sweep", "path:4", "--c-values", "3,9", "--trials", "3", "--seed", "7", "--out", str(a)])
        main(["sweep", "path:4", "--c-values", "3,9", "--trials", "3", "--seed", "7", "--out", str(b)])
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_manifest_out(self, tmp_path, capsys):
        dest = tmp_path / "manifest.json"
        main(["sweep", "cycle:3", "--c-values", "9", "--trials", "1", "--seed", "0",
              "--manifest-out", str(dest)])
        capsys.readouterr()
        manifest = json.loads(dest.read_text())
        assert manifest["command"] == "sweep" and manifest["c_values"] == [9]

    def test_bad_c_values(self, capsys):
        assert main(["sweep", "cycle:3", "--c-values", "a,b"]) == EXIT_INPUT


class TestProbe:
    def test_triangle(self, capsys):
        assert main(["probe", "cycle:3", "--c-max", "9"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["c_star"] == 7 and out["threshold"] == 9
        assert out["c_star_within_threshold"] is True
        assert out["monotone"] is False

    def test_report_out(self, tmp_path, capsys):
        dest = tmp_path / "probe.json"
        main(["probe", "cycle:3", "--c-max", "3", "--report-out", str(dest)])
        capsys.readouterr()
        assert json.loads(dest.read_text())["c_star"] is None

    def test_negative_c_max(self, capsys):
        assert main(["probe", "cycle:3", "--c-max", "-1"]) == EXIT_INPUT


class TestParsing:
    def test_unknown_subcommand(self, capsys):
        assert main(["dance"]) == EXIT_INPUT

    def test_no_subcommand(self, capsys):
        assert main([]) == EXIT_INPUT

    def test_gnp_spec(self, capsys):
        assert main(["simulate", "gnp:12,0.3,seed=5", "random:12,0"]) in (EXIT_OK, EXIT_BUDGET)

    def test_tree_spec(self, capsys):
        assert main(["simulate", "tree:10,seed=3", "concentrated:37,0"]) == EXIT_OK

    def test_gnp_missing_p(self, capsys):
        assert main(["simulate", "gnp:12", "random:5,0"]) == EXIT_INPUT

    def test_spec_with_extra_number(self, capsys):
        assert main(["simulate", "cycle:3,4", "explicit:0,0,0"]) == EXIT_INPUT

    def test_oversized_specs_exit_before_building(self, monkeypatch, capsys):
        def no_build(*args, **kwargs):
            raise AssertionError("an oversized spec must not reach the generator")

        monkeypatch.setattr(cli, "generate", no_build)
        n = cli.MAX_SPEC_VERTICES + 1
        pairs_n = next(n for n in range(2, 10**6) if n * (n - 1) // 2 > cli.MAX_SPEC_PAIRS)
        for spec in ("gnp:100000,0.5", f"path:{n}", f"tree:{n},seed=1",
                     f"complete:{pairs_n}", f"gnp:{pairs_n},0.01"):
            assert main(["simulate", spec, "random:5,0"]) == EXIT_RESOURCE, spec
            assert "the cap is" in capsys.readouterr().err

    def test_specs_at_the_caps_reach_the_generator(self, monkeypatch, capsys):
        built = []

        def record(kind, n, p=None, seed=0):
            built.append((kind, n))
            raise EmptyGraph("stub")

        monkeypatch.setattr(cli, "generate", record)
        n = cli.MAX_SPEC_VERTICES
        pairs_n = max(n for n in range(2, 10**4) if n * (n - 1) // 2 <= cli.MAX_SPEC_PAIRS)
        for spec in (f"path:{n}", f"star:{n}", f"complete:{pairs_n}", f"gnp:{pairs_n},0.5"):
            assert main(["simulate", spec, "random:5,0"]) == EXIT_INPUT, spec
        capsys.readouterr()
        assert built == [("path", n), ("star", n), ("complete", pairs_n),
                         ("random_connected", pairs_n)]

    @pytest.mark.parametrize("text", [f"n {cli.MAX_SPEC_VERTICES + 1}\n",
                                      f"0 {cli.MAX_SPEC_VERTICES}\n"],
                             ids=["header", "largest-id"])
    def test_oversized_files_exit_before_building(self, monkeypatch, tmp_path, capsys, text):
        def no_build(n, edges):
            raise AssertionError("an oversized file must not reach Graph.build")

        monkeypatch.setattr(cli, "Graph", type("NoGraph", (), {"build": staticmethod(no_build)}))
        src = tmp_path / "big.txt"
        src.write_text(text)
        assert main(["simulate", str(src), "random:5,0"]) == EXIT_RESOURCE
        assert "the cap is" in capsys.readouterr().err

    def test_file_edge_count_is_capped_before_building(self, monkeypatch, tmp_path, capsys):
        built = []
        build = cli.Graph.build

        def record(n, edges):
            built.append(len(edges))
            return build(n, edges)

        monkeypatch.setattr(cli, "MAX_SPEC_PAIRS", 4)
        monkeypatch.setattr(cli, "Graph", type("Recorded", (), {"build": staticmethod(record)}))
        src = tmp_path / "edges.txt"
        src.write_text("0 1\n1 2\n2 3\n3 0\n0 2\n")
        assert main(["simulate", str(src), "random:5,0"]) == EXIT_RESOURCE
        assert "lists 5 edges; the cap is 4" in capsys.readouterr().err
        assert built == []
        src.write_text("0 1\n1 2\n2 3\n3 0\n")
        assert main(["simulate", str(src), "explicit:2,2,2,2"]) == EXIT_OK
        capsys.readouterr()
        assert built == [4]

    def test_file_at_the_cap_builds(self, tmp_path, capsys):
        src = tmp_path / "wide.txt"
        src.write_text(f"n {cli.MAX_SPEC_VERTICES}\n")
        g = cli._parse_graph_source(str(src))
        assert (g.n, g.m) == (cli.MAX_SPEC_VERTICES, 0)
        # built, then refused by the analysis gate: isolated vertices
        assert main(["sweep", str(src), "--c-values", "0", "--trials", "0"]) == EXIT_INPUT
        assert "connected" in capsys.readouterr().err

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert "chipfire" in capsys.readouterr().out


BAD_CAP_ARGV = (
    ["simulate", "cycle:3", "concentrated:9,0"],
    ["verify", "cycle:3", "--c", "9"],
    ["sweep", "cycle:3", "--c-values", "9", "--trials", "1"],
    ["probe", "cycle:3", "--c-max", "3"],
)


@pytest.mark.parametrize("argv", BAD_CAP_ARGV, ids=lambda argv: argv[0])
def test_malformed_state_cap_is_an_input_error(argv):
    src = str(Path(cf.__file__).resolve().parent.parent)
    env = {**os.environ, "CHIPFIRE_STATE_CAP": "soon", "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-m", "chipfire.cli", *argv],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == EXIT_INPUT
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == [
        "error: CHIPFIRE_STATE_CAP must be an integer, got 'soon'"
    ]
    assert proc.stdout == ""


def test_random_config_with_a_huge_total_returns():
    # unranking a 23-digit total once walked every value of every part
    src = str(Path(cf.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "chipfire.cli", "simulate", "path:3", "random:99999999999999999999999,0"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    out = json.loads(proc.stdout)
    assert out["manifest"]["c"] == sum(out["final"]) == 99999999999999999999999
    assert out["stop"] == "fixed_point"


# spec and edge-list pieces: sizes either small or far past the caps, so
# no input builds a large graph; Unicode digits, which int() accepts;
# floats a size or a probability must refuse; ids that are negative,
# repeated or equal at both ends
_NUMBERS = st.one_of(
    st.integers(min_value=-3, max_value=30).map(str),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "0.5", "0.01", "1", "3.0", "+4", "1_0",
                     "0x10", "", " 7 ", "\u0663", "\uff11\uff12", "\U0001d7d3", "\u00b2",
                     "10000001", "99999999999999999999"]),
)
_SEEDS = st.sampled_from(["seed=1", "seed=-1", "seed=", "seed=nan", "seed=\u0663", "seed=2=3"])
_SPECS = st.builds(
    lambda kind, size, parts: f"{kind}:{','.join([size, *parts])}",
    st.sampled_from(["cycle", "path", "complete", "star", "tree", "gnp", "wheel", ""]),
    _NUMBERS,
    st.lists(st.one_of(_NUMBERS, _SEEDS), max_size=3),
)
_EDGE_LINES = st.one_of(
    st.builds("{} {}".format, st.integers(min_value=-1, max_value=9),
              st.integers(min_value=0, max_value=9)),
    st.builds("n {}".format, st.one_of(st.integers(min_value=-1, max_value=12),
                                       st.just(10**6), _NUMBERS)),
    st.sampled_from(["# comment", "", "   ", "0 1 # trailing", "1 1", "0", "0 1 2",
                     "a b", "\u0661 \u0662", "0 100000"]),
)
_CONFIGS = st.sampled_from(["random:3,0", "random:40,7", "concentrated:6,0", "explicit:1,2,3"])


def _exit_code(argv):
    """main(argv)'s exit code, its output swallowed."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return main(argv)


class TestFuzz:
    """Any spec string or edge-list text exits with a documented code:
    none raises out of main."""

    @given(_SPECS, _CONFIGS)
    @settings(max_examples=150, deadline=None)
    def test_graph_specs(self, spec, config):
        assert _exit_code(["simulate", spec, config]) in range(5), spec

    @given(st.lists(_EDGE_LINES, max_size=8), _CONFIGS)
    @settings(max_examples=150, deadline=None)
    def test_edge_list_files(self, tmp_path_factory, lines, config):
        src = tmp_path_factory.getbasetemp() / "fuzz-edges.txt"
        src.write_text("\n".join(lines), encoding="utf-8")
        assert _exit_code(["simulate", str(src), config]) in range(5), lines


class TestDeterminism:
    def test_verify_json_identical(self, capsys):
        main(["verify", "cycle:4", "--c", "12"])
        first = capsys.readouterr().out
        main(["verify", "cycle:4", "--c", "12"])
        second = capsys.readouterr().out
        assert first == second

    def test_simulate_json_identical(self, capsys):
        main(["simulate", "tree:9,seed=2", "random:20,3"])
        first = capsys.readouterr().out
        main(["simulate", "tree:9,seed=2", "random:20,3"])
        second = capsys.readouterr().out
        assert first == second
