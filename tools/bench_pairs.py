"""Compare two checkouts with the benchmark, in alternating pairs.

    python3 tools/bench_pairs.py --parent ../parent --change . \
        --workload sweep-gnp300 probe-cycle6 --seeds 21 22 23 24 25 > BENCH_name.json

For each workload and seed this runs ``<checkout>/bench/run.py`` once in
each checkout, one process at a time, alternating which side runs first
(pair i starts with the parent when i is even), and reads the JSON
object on the last line of each run's stdout.  A run that exits non-zero
or prints no result counts as failed, and the last lines of its stderr
are shown with the progress.  A ``--parent`` or ``--change`` that is not
a directory holding ``bench/run.py``, or a ``--workload`` that the
parent's ``BENCHMARK.json`` does not list, is refused with exit 2 before
the first run.  It then prints, per workload and end-to-end metric, each
side's median and quartiles over its runs, how many pairs the change won
and lost (ties count for neither side), and the summed ``failed`` and
``attempted`` counts.  Which direction is better, and the bound by which
each metric may worsen, come from the parent's ``BENCHMARK.json``: a
metric whose change median is worse than the parent median by more than
its bound is marked ``over_bound``, listed in the summary's top-level
``over_bound`` and named on stderr.  One worse by more than half its
bound, but not past it, is marked ``near_bound`` and listed and named
the same way, in the top-level ``near_bound``: a change that reads close
to a bound on its own runs can cross it on another machine's.  Each side
also gets the median and quartiles of ``attempted`` over its runs: a run
does as many solves as fit in its time, so a faster change runs more of
them, and a ``peak_rss_mb`` rise that comes with more solves per run
points at what the harness keeps per solve rather than at the package.

Each metric also reports the rule a claimed gain must meet: whether the
change won at least nine pairs in ten (``nine_in_ten``, over every pair
run, so a pair with a side that gave no result counts against it), and
whether the change median is better than the parent median by more than
the parent's interquartile range, q3 - q1 (``beyond_parent_iqr``).

The summary is one JSON document on stdout, with the seeds, each
checkout's ``git rev-parse HEAD`` and whether its tracked files differ
from that commit (``dirty``, from ``git status --porcelain
--untracked-files=no``; both null for a checkout without ``.git``), so it
can be committed as a ``BENCH_<name>.json``; progress goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import quantiles


STDERR_TAIL = 10  # lines of a failed run's stderr shown with the progress


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """The run's result object, or None when it gave none; then the last
    lines of its stderr go to the progress channel."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    if result is None:
        tail = proc.stderr.strip().splitlines()[-STDERR_TAIL:]
        print(f"[{workload}] {checkout} seed {seed}: no result (exit {proc.returncode})",
              *tail, sep="\n  ", file=sys.stderr, flush=True)
    return result


def quartiles(values: list[float]) -> dict | None:
    if not values:
        return None
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[tuple[dict | None, dict | None]], spec: dict) -> dict:
    """One workload's summary: per end-to-end metric, each side's median
    and quartiles, the pairs the change won, whether the change median is
    worse than the parent's by more than the metric's bound, and whether a
    gain meets the claim rule; per side, the failures.  spec maps each
    metric to its ``BENCHMARK.json`` entry."""
    metrics = {}
    for name, entry in spec.items():
        direction = entry["better"]
        wins = losses = 0
        for p, c in pairs:
            if not (p and c):
                continue
            a, b = p["metrics"][name]["value"], c["metrics"][name]["value"]
            if a != b:
                change_better = b < a if direction == "lower" else b > a
                wins += change_better
                losses += not change_better
        parent = quartiles([p["metrics"][name]["value"] for p, _ in pairs if p])
        change = quartiles([c["metrics"][name]["value"] for _, c in pairs if c])
        shift = None
        if parent and change and parent["median"]:
            shift = (change["median"] - parent["median"]) / parent["median"]
        bound = entry.get("bound")
        over_bound = near_bound = False
        if shift is not None and bound is not None:
            worse = shift if direction == "lower" else -shift
            over_bound = worse > bound
            near_bound = bound / 2 < worse <= bound
        beyond_iqr = False
        if parent and change:
            gain = change["median"] - parent["median"]
            beyond_iqr = (-gain if direction == "lower" else gain) > parent["q3"] - parent["q1"]
        metrics[name] = {"better": direction, "parent": parent, "change": change,
                         "shift": shift, "wins": wins, "losses": losses, "bound": bound,
                         "over_bound": over_bound, "near_bound": near_bound,
                         "nine_in_ten": bool(pairs) and 10 * wins >= 9 * len(pairs),
                         "beyond_parent_iqr": beyond_iqr}
    sides = {}
    for side, index in (("parent", 0), ("change", 1)):
        runs = [pair[index] for pair in pairs]
        sides[side] = {
            "failed": sum(r["failed"] for r in runs if r) + runs.count(None),
            "attempted": sum(r["attempted"] for r in runs if r),
            "attempted_per_run": quartiles([r["attempted"] for r in runs if r]),
            "runs_without_result": runs.count(None),
        }
    return {"pairs": len(pairs), "metrics": metrics, **sides}


def _git(checkout: Path, *args: str) -> str | None:
    """The stdout of a git command in the checkout, or None when it has no
    .git or the command fails."""
    if not (checkout / ".git").exists():
        return None
    proc = subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True)
    return proc.stdout if proc.returncode == 0 else None


def head_commit(checkout: Path) -> str | None:
    """The checkout's `git rev-parse HEAD`, or None when it has no .git."""
    out = _git(checkout, "rev-parse", "HEAD")
    return None if out is None else out.strip()


def is_dirty(checkout: Path) -> bool | None:
    """Whether a tracked file differs from HEAD, so the runs measured code
    that the recorded commit does not hold; None when it has no .git."""
    out = _git(checkout, "status", "--porcelain", "--untracked-files=no")
    return None if out is None else bool(out.strip())


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", action="extend", nargs="+", required=True,
                        help="one or more names; the flag may repeat")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=24.0)
    return parser


def parse_args(argv=None) -> argparse.Namespace:
    return make_parser().parse_args(argv)


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    # checked before the first run, so a bad checkout loses no pair
    for side in ("parent", "change"):
        checkout = getattr(args, side)
        if not (checkout / "bench" / "run.py").is_file():
            parser.error(f"--{side} {checkout} is not a directory holding bench/run.py")

    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    known = [w["name"] for w in spec["workloads"]]
    unknown = [w for w in args.workload if w not in known]
    if unknown:
        parser.error(f"unknown workload {', '.join(unknown)}; the parent's BENCHMARK.json "
                     f"lists {', '.join(known)}")
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    summary = {
        "commits": {"parent": head_commit(args.parent), "change": head_commit(args.change)},
        "dirty": {"parent": is_dirty(args.parent), "change": is_dirty(args.change)},
        "seeds": args.seeds,
        "seconds": args.seconds,
        "over_bound": [],  # {"workload", "metric", "shift", "bound"} per metric past its bound
        "near_bound": [],  # the same, per metric past half its bound but not past it
        "workloads": {},
    }
    for workload in args.workload:
        pairs = []
        for i, seed in enumerate(args.seeds):
            sides = {}
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                checkout = args.parent if side == "parent" else args.change
                sides[side] = run_once(checkout, workload, seed, args.seconds)
            pairs.append((sides["parent"], sides["change"]))
            print(f"[{workload}] pair {i + 1}/{len(args.seeds)} seed {seed} done",
                  file=sys.stderr, flush=True)
        result = summary["workloads"][workload] = summarize(pairs, end_to_end)
        for name, m in result["metrics"].items():
            for flag, past in (("over_bound", "its bound"), ("near_bound", "half its bound")):
                if not m[flag]:
                    continue
                summary[flag].append(
                    {"workload": workload, "metric": name, "shift": m["shift"], "bound": m["bound"]})
                # a shift needs runs on both sides, so both have attempted counts
                solves = (result["parent"]["attempted_per_run"]["median"],
                          result["change"]["attempted_per_run"]["median"])
                print(f"[{workload}] {name}: the change median is {m['shift']:+.1%} against the "
                      f"parent's, past {past} of {m['bound']:.0%}; median attempted per run "
                      f"{solves[0]:g} against {solves[1]:g}", file=sys.stderr, flush=True)
    json.dump(summary, sys.stdout, indent=2)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
