"""Command-line harness: reproducible simulation, verification, and sweeps.

Exit codes, used consistently by every subcommand:

    0  success
    1  input error (bad flags, unreadable graph, malformed spec string,
       malformed CHIPFIRE_STATE_CAP)
    2  simulation hit its round budget without reaching a fixed point
    3  verification found a counterexample
    4  a resource cap (orbit store, enumeration cap, graph size from a
       spec or a file) was exhausted

All output is machine-first JSON or CSV with fixed key order and no
timestamps; a run manifest is embedded so identical invocations produce
byte-identical bytes.  --pretty appends a human summary to stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import __version__
from .errors import ChipfireError, ResourceExhausted
from .graph import Graph, _parse_edge_list, generate, stabilization_threshold
from .oracle import DEFAULT_ENUM_CAP, random_config
from .parallel import Configuration, StopReason, _default_state_cap, run, trace_csv
from .analysis import (
    CHECK_ORDER,
    sweep_csv,
    sweep_experiment,
    threshold_probe,
    verify_corpus,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_BUDGET = 2
EXIT_COUNTEREXAMPLE = 3
EXIT_RESOURCE = 4

# Largest graph a generator spec or an edge-list file may ask for, checked
# before anything is built: at most MAX_SPEC_VERTICES vertices, and at
# most MAX_SPEC_PAIRS vertex pairs for complete and gnp or listed edges
# for a file.  Measured on one 2.1 GHz Xeon vCPU, best of 5, tracemalloc
# peak: a tree or a cycle takes its diameter from BFS, so path:10000
# builds in 24 ms and 4.6 MB, random_tree:10000 in 47 ms and 3.5 MB and
# cycle:10000 in 11 ms.  Any other graph keeps the reach pass, d sweeps
# over n-bit masks (n^2 bits, 12.5 MB per copy at this cap): an edge-list
# path with one chord builds in 0.67 s at 2000 vertices, as path:2000 did
# on that pass, so at this cap it costs about what path:10000 did there:
# 54 s of `simulate` wall time in one run, 106 s in another.  complete
# spends about 1.2 us and ~240 bytes on every vertex pair, an edge each:
# complete:1000 builds in 0.6-0.7 s and 119-136 MB peak.  gnp draws its
# coins in lane-packed chunks, about 0.14 us a pair: gnp:1000,0.01 walks
# its 499 500 pairs in 0.07 s per G(n, p) attempt.
MAX_SPEC_VERTICES = 10_000
MAX_SPEC_PAIRS = 500_000

_SPEC_KINDS = {
    "cycle": "cycle",
    "path": "path",
    "complete": "complete",
    "star": "star",
    "tree": "random_tree",
    "gnp": "random_connected",
}


class _InputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the exit-code contract
    # reserves 2 for budget exhaustion, so usage errors must become 1
    def error(self, message):
        raise _InputError(message)


def _parse_graph_source(source: str) -> Graph:
    head, _, rest = source.partition(":")
    if head in _SPEC_KINDS and rest:
        kind = _SPEC_KINDS[head]
        seed = 0
        nums: list[str] = []
        for part in rest.split(","):
            part = part.strip()
            if not part:
                continue
            if part.startswith("seed="):
                try:
                    seed = int(part[5:])
                except ValueError:
                    raise _InputError(f"bad seed in graph spec {source!r}")
            else:
                nums.append(part)
        try:
            if kind == "random_connected":
                if len(nums) != 2:
                    raise _InputError("gnp spec is gnp:<n>,<p>[,seed=S]")
                n, p = int(nums[0]), float(nums[1])
            else:
                if len(nums) != 1:
                    raise _InputError(f"graph spec {source!r} takes exactly one size")
                n, p = int(nums[0]), None
        except ValueError as e:
            raise _InputError(f"bad graph spec {source!r}: {e}")
        _check_spec_size(source, kind, n)
        return generate(kind, n, p=p, seed=seed)
    try:
        text = Path(source).read_text()
    except OSError as e:
        raise _InputError(f"cannot read graph file {source!r}: {e}")
    n, edges = _parse_edge_list(text)
    if n > MAX_SPEC_VERTICES:
        raise ResourceExhausted(
            f"graph file {source!r} has {n} vertices; the cap is {MAX_SPEC_VERTICES}"
        )
    if len(edges) > MAX_SPEC_PAIRS:
        raise ResourceExhausted(
            f"graph file {source!r} lists {len(edges)} edges; the cap is {MAX_SPEC_PAIRS}"
        )
    return Graph.build(n, edges)


def _check_spec_size(source: str, kind: str, n: int) -> None:
    if n > MAX_SPEC_VERTICES:
        raise ResourceExhausted(
            f"graph spec {source!r} asks for {n} vertices; the cap is {MAX_SPEC_VERTICES}"
        )
    pairs = n * (n - 1) // 2
    if kind in ("random_connected", "complete") and pairs > MAX_SPEC_PAIRS:
        raise ResourceExhausted(
            f"graph spec {source!r} spans {pairs} vertex pairs; the cap is {MAX_SPEC_PAIRS}"
        )


def _parse_config_source(source: str, g: Graph) -> tuple[Configuration, Optional[int]]:
    """Returns the configuration and the seed consumed, if any."""
    head, sep, rest = source.partition(":")
    if not sep:
        raise _InputError(
            f"config source {source!r} must be explicit:...|random:c,seed|concentrated:c,vertex"
        )
    try:
        if head == "explicit":
            values = [int(x) for x in rest.split(",")]
            return Configuration.of(values), None
        if head == "random":
            c, seed = (int(x) for x in rest.split(","))
            return random_config(g.n, c, seed), seed
        if head == "concentrated":
            c, vertex = (int(x) for x in rest.split(","))
            if not 0 <= vertex < g.n:
                raise _InputError(f"concentrated vertex {vertex} out of range for n={g.n}")
            candy = [0] * g.n
            candy[vertex] = c
            return Configuration.of(candy), None
    except (ValueError, ChipfireError) as e:
        raise _InputError(f"bad config source {source!r}: {e}")
    raise _InputError(f"unknown config source kind {head!r}")


def _default_max_rounds(g: Graph, c: int) -> int:
    # above-threshold games provably finish inside this window; below it
    # the budget is a plain safety net
    if g.connected and g.n >= 2 and c >= 1:
        return g.n * g.diameter * c + 1
    return 1000


def _manifest(command: str, **fields) -> dict:
    out = {"command": command, "version": __version__}
    out.update(fields)
    return out


def _emit(text: str, path: Optional[str]) -> None:
    if path:
        Path(path).write_text(text)


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


# ---------------------------------------------------------------------------
# subcommands


def _cmd_simulate(args) -> int:
    g = _parse_graph_source(args.graph)
    cfg, seed = _parse_config_source(args.config, g)
    if len(cfg.candy) != g.n:
        raise _InputError(f"configuration length {len(cfg.candy)} != n={g.n}")
    max_rounds = args.max_rounds if args.max_rounds is not None else _default_max_rounds(g, cfg.total)
    if max_rounds < 1:
        raise _InputError("--max-rounds must be >= 1")
    trace = run(g, cfg, max_rounds)
    payload = {
        "manifest": _manifest(
            "simulate",
            graph=args.graph,
            config=args.config,
            c=cfg.total,
            seed=seed,
            max_rounds=max_rounds,
            trace_out=args.trace_out,
        ),
        "n": g.n,
        "m": g.m,
        "stop": trace.stop.value,
        "rounds_recorded": len(trace.rounds),
        "stab_round": trace.stab_round,
        "final": list(trace.final.candy),
        "pass_counts": list(trace.pass_at(len(trace.rounds))),
    }
    _print_json(payload)
    if args.trace_out:
        _emit(trace_csv(trace), args.trace_out)
    if args.pretty:
        print()
        print(f"graph: n={g.n} m={g.m}  candy total c={cfg.total}")
        if trace.stop is StopReason.FIXED_POINT:
            print(f"fixed point after round {trace.stab_round}: {list(trace.final.candy)}")
        else:
            print(f"budget of {max_rounds} rounds exhausted; last config {list(trace.final.candy)}")
        shown = trace.rounds[:20]
        print(f"{'t':>4}  {'#fired':>6}  config")
        print(f"{0:>4}  {'-':>6}  {list(trace.initial.candy)}")
        for rec in shown:
            print(f"{rec.t:>4}  {len(rec.fired):>6}  {list(rec.config.candy)}")
        if len(trace.rounds) > len(shown):
            print(f"... {len(trace.rounds) - len(shown)} more rounds")
    return EXIT_OK if trace.stop is StopReason.FIXED_POINT else EXIT_BUDGET


def _first_failing_check(report: dict) -> Optional[dict]:
    for entry in report["checks"]:
        if entry["status"] == "fail":
            return entry
    return None


def _check_enum_cap(cap: int) -> None:
    # a negative cap is malformed, not a cap that every scan exceeds
    if cap < 0:
        raise _InputError("--enum-cap must be >= 0")


def _cmd_verify(args) -> int:
    _check_enum_cap(args.enum_cap)
    g = _parse_graph_source(args.graph)
    if args.c == "auto":
        c = stabilization_threshold(g)
    else:
        try:
            c = int(args.c)
        except ValueError:
            raise _InputError(f"--c must be an integer or 'auto', got {args.c!r}")
        if c < 0:
            raise _InputError("--c must be >= 0")
    if args.trials is not None and args.trials < 0:
        raise _InputError("--trials must be >= 0")
    mode = "sampled" if args.trials is not None else "exhaustive"
    report = verify_corpus(
        g,
        c,
        mode=mode,
        trials=args.trials,
        seed=args.seed if mode == "sampled" else None,
        enum_cap=args.enum_cap,
    )
    counterexample = None
    if not report["ok"]:
        failing = _first_failing_check(report)
        ce = dict(failing["first_counterexample"])
        counterexample = {
            "check": failing["name"],
            "initial": report["first_failing_config"],
            "config": ce.get("cycle_min", report["first_failing_config"]),
            "detail": ce,
        }
    payload = {
        "manifest": _manifest(
            "verify",
            graph=args.graph,
            c=c,
            mode=mode,
            trials=args.trials,
            seed=args.seed if mode == "sampled" else None,
            enum_cap=args.enum_cap,
            state_cap=_default_state_cap(),
            report_out=args.report_out,
        ),
        "counterexample": counterexample,
        **report,
    }
    text = json.dumps(payload, indent=2)
    print(text)
    _emit(text + "\n", args.report_out)
    if args.pretty:
        print()
        print(f"graph n={g.n} m={g.m}, c={c} (threshold {report['threshold']}), "
              f"{report['configs_checked']}/{report['configs_total']} configs checked")
        for entry in report["checks"]:
            print(f"  {entry['name']:<24} {entry['status']}")
        print("result:", "all checks passed" if report["ok"] else "COUNTEREXAMPLE FOUND")
    return EXIT_OK if report["ok"] else EXIT_COUNTEREXAMPLE


def _cmd_sweep(args) -> int:
    g = _parse_graph_source(args.graph)
    try:
        c_values = [int(x) for x in args.c_values.split(",") if x.strip()]
    except ValueError:
        raise _InputError(f"--c-values must be comma-separated integers, got {args.c_values!r}")
    if not c_values or any(c < 0 for c in c_values):
        raise _InputError("--c-values needs at least one nonnegative integer")
    if args.trials < 0:
        raise _InputError("--trials must be >= 0")
    rows = sweep_experiment(g, c_values, args.trials, args.seed)
    text = sweep_csv(rows)
    sys.stdout.write(text)
    _emit(text, args.out)
    if args.manifest_out:
        manifest = _manifest(
            "sweep",
            graph=args.graph,
            c_values=c_values,
            trials=args.trials,
            seed=args.seed,
            state_cap=_default_state_cap(),
            out=args.out,
        )
        _emit(json.dumps(manifest, indent=2) + "\n", args.manifest_out)
    if args.pretty:
        stabilized = sum(1 for r in rows if r["outcome"] == "stabilized")
        print()
        print(f"{len(rows)} runs over c in {c_values}: {stabilized} stabilized, "
              f"{len(rows) - stabilized} periodic")
    return EXIT_OK


def _cmd_probe(args) -> int:
    _check_enum_cap(args.enum_cap)
    g = _parse_graph_source(args.graph)
    if args.c_max < 0:
        raise _InputError("--c-max must be >= 0")
    result = threshold_probe(g, args.c_max, cap=args.enum_cap)
    payload = {
        "manifest": _manifest(
            "probe",
            graph=args.graph,
            c_max=args.c_max,
            enum_cap=args.enum_cap,
            state_cap=_default_state_cap(),
            report_out=args.report_out,
        ),
        **result.to_dict(),
    }
    text = json.dumps(payload, indent=2)
    print(text)
    _emit(text + "\n", args.report_out)
    if args.pretty:
        print()
        print(f"threshold 4m-n = {result.threshold}; empirical c* = {result.c_star}; "
              f"monotone in c: {result.monotone}")
        for v in result.verdicts:
            mark = "all stabilize" if v.all_stabilize else "counterexample"
            print(f"  c={v.c:<4} {mark}")
    if result.c_star_within_threshold is False:
        return EXIT_COUNTEREXAMPLE
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="chipfire",
        description="simulate and verify the parallel candy-passing game",
    )
    parser.add_argument("--version", action="version", version=f"chipfire {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True, parser_class=_Parser)

    sim = sub.add_parser("simulate", help="run one game and report its trace")
    sim.add_argument("graph", help="generator spec (cycle:6, gnp:12,0.3,seed=5) or edge-list file")
    sim.add_argument(
        "config",
        help="explicit:1,2,3 | random:<c>,<seed> | concentrated:<c>,<vertex>",
    )
    sim.add_argument("--max-rounds", type=int, default=None)
    sim.add_argument("--trace-out", default=None, help="write the per-round CSV here")
    sim.add_argument("--pretty", action="store_true")

    ver = sub.add_parser("verify", help="check the stabilization theory over a corpus")
    ver.add_argument("graph")
    ver.add_argument("--c", default="auto", help="candy total, or 'auto' for 4m-n")
    ver.add_argument("--exhaustive", action="store_true",
                     help="scan every composition (default unless --trials)")
    ver.add_argument("--trials", type=int, default=None, help="sample this many configs instead")
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--enum-cap", type=int, default=DEFAULT_ENUM_CAP)
    ver.add_argument("--report-out", default=None)
    ver.add_argument("--pretty", action="store_true")

    sw = sub.add_parser("sweep", help="battery rows over a grid of candy totals")
    sw.add_argument("graph")
    sw.add_argument("--c-values", required=True, help="comma-separated candy totals")
    sw.add_argument("--trials", type=int, default=10)
    sw.add_argument("--seed", type=int, default=0)
    sw.add_argument("--out", default=None, help="write the CSV here as well as stdout")
    sw.add_argument("--manifest-out", default=None)
    sw.add_argument("--pretty", action="store_true")

    pr = sub.add_parser("probe", help="exhaustively locate the empirical threshold")
    pr.add_argument("graph")
    pr.add_argument("--c-max", type=int, required=True)
    pr.add_argument("--enum-cap", type=int, default=DEFAULT_ENUM_CAP)
    pr.add_argument("--report-out", default=None)
    pr.add_argument("--pretty", action="store_true")
    return parser


_DISPATCH = {
    "simulate": _cmd_simulate,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
    "probe": _cmd_probe,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "trials", None) is not None and getattr(args, "exhaustive", False):
            raise _InputError("--exhaustive and --trials are mutually exclusive")
        try:
            _default_state_cap()  # every subcommand reads it; check it before any work
        except ValueError as e:
            raise _InputError(str(e)) from None
        return _DISPATCH[args.cmd](args)
    except _InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except ResourceExhausted as e:
        print(f"resource exhausted: {e}", file=sys.stderr)
        return EXIT_RESOURCE
    except ChipfireError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except SystemExit as e:
        # argparse --version / --help exit through here with code 0
        code = e.code if isinstance(e.code, int) else 0
        return code


if __name__ == "__main__":
    sys.exit(main())
