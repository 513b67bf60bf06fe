"""The benchmark's four workloads.

A workload is the sequence of public calls its CLI command makes: build
the graph from its spec (set-up), run the driver, render the output
bytes.  Each workload also says how to check what a solve produced, how
many configurations and game rounds one solve covers (from the
independent simulator in reference.py), and which CLI command makes the
same bytes.

The chipfire package is imported from the ``src`` directory of the
checkout this file sits in, and from nowhere else.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from math import comb
from pathlib import Path

import reference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_chipfire():
    pkg = SRC / "chipfire"
    if not (pkg / "__init__.py").is_file():
        raise ImportError(f"no chipfire sources at {pkg}")
    sys.path.insert(0, str(SRC))
    import chipfire

    if Path(chipfire.__file__).resolve().parent != pkg.resolve():
        raise ImportError(f"chipfire was imported from {chipfire.__file__}, not from {pkg}")
    return chipfire


cf = _import_chipfire()
from chipfire.parallel import DEFAULT_STATE_CAP  # noqa: E402

DEFAULT_SEED = 1


@dataclass
class Expected:
    """What the independent reference says one solve of an instance covers."""

    rounds: int  # distinct states over all orbits the solve walks
    configs: int  # configurations the solve processes
    facts: dict = field(default_factory=dict)  # for Workload.check


def _payload(stdout: str) -> tuple[dict, dict]:
    """Split a CLI JSON payload into (manifest, the rest)."""
    payload = json.loads(stdout)
    return payload.pop("manifest"), payload


def _dump(obj) -> bytes:
    return json.dumps(obj, indent=2).encode()


class Workload:
    name = ""
    seeded = False  # whether --seed changes the inputs

    def instances(self, seed: int) -> list:
        """Inputs of one run; solves cycle through them in order."""
        return [None]

    def build(self, inst):
        raise NotImplementedError

    def drive(self, g, inst):
        raise NotImplementedError

    def render(self, g, inst, result) -> list[bytes]:
        """The output bytes, in the parts a CLI run can be compared on."""
        raise NotImplementedError

    def expected(self, g, inst) -> Expected:
        raise NotImplementedError

    def check(self, g, inst, result, exp: Expected) -> list[str]:
        """Theorem-level facts and reference agreement; empty when all hold."""
        raise NotImplementedError

    def cli_argv(self, g, inst, out_dir: Path) -> list[str]:
        raise NotImplementedError

    def cli_parts(self, inst, stdout: str, out_dir: Path) -> tuple[dict[int, bytes], list[str]]:
        """Output parts a CLI run reproduced, by index, and manifest problems."""
        raise NotImplementedError


def _state_cap_echo(manifest: dict) -> list[str]:
    if manifest.get("state_cap") != DEFAULT_STATE_CAP:
        return [f"manifest state_cap {manifest.get('state_cap')} != default {DEFAULT_STATE_CAP}"]
    return []


class ExhaustiveCycle6(Workload):
    name = "exhaustive-cycle6"
    N, C = 6, 18

    def build(self, inst):
        return cf.generate("cycle", self.N)

    def drive(self, g, inst):
        return cf.verify_corpus(g, self.C)

    def render(self, g, inst, report):
        return [_dump(report)]

    def expected(self, g, inst):
        adj = reference.adjacency_from_edges(g.n, g.edges)
        bound = g.n * reference.diameter(adj) * self.C
        rounds = configs = 0
        late = []
        for comp in reference.compositions(g.n, self.C):
            mu, lam, _ = reference.orbit(adj, comp)
            rounds += mu + lam
            configs += 1
            if lam != 1 or mu > bound:
                late.append(comp)
        return Expected(rounds, configs, {"late": late})

    def check(self, g, inst, report, exp):
        total = comb(self.C + self.N - 1, self.N - 1)
        problems = []
        if not report["ok"]:
            problems.append(f"verify_corpus reports a failure at {report['first_failing_config']}")
        if report["configs_checked"] != total or exp.configs != total:
            problems.append(f"configs_checked {report['configs_checked']} != C(23, 5) = {total}")
        if exp.facts["late"]:
            problems.append(f"reference: {exp.facts['late'][0]} does not stabilize within n*d*c")
        return problems

    def cli_argv(self, g, inst, out_dir):
        return ["verify", f"cycle:{self.N}", "--c", str(self.C), "--exhaustive"]

    def cli_parts(self, inst, stdout, out_dir):
        manifest, rest = _payload(stdout)
        problems = _state_cap_echo(manifest)
        if rest.pop("counterexample") is not None:
            problems.append("CLI reports a counterexample")
        return {0: _dump(rest)}, problems


class ProbeCycle6(Workload):
    name = "probe-cycle6"
    N, C_MAX, THRESHOLD = 6, 16, 4 * 6 - 6

    def build(self, inst):
        return cf.generate("cycle", self.N)

    def drive(self, g, inst):
        return cf.threshold_probe(g, self.C_MAX)

    def render(self, g, inst, result):
        return [_dump(result.to_dict())]

    def expected(self, g, inst):
        # scan each total in order up to the first periodic orbit, as the probe does
        adj = reference.adjacency_from_edges(g.n, g.edges)
        rounds = configs = 0
        verdicts = []
        for c in range(self.C_MAX + 1):
            witness = None
            for comp in reference.compositions(g.n, c):
                mu, lam, cycle = reference.orbit(adj, comp)
                rounds += mu + lam
                configs += 1
                if lam > 1:
                    witness = {"config": list(min(cycle)), "initial": list(comp),
                               "kind": "periodic", "preperiod": mu, "period": lam}
                    break
            verdicts.append(witness)
        return Expected(rounds, configs, {"counterexamples": verdicts})

    def check(self, g, inst, result, exp):
        problems = []
        if result.threshold != self.THRESHOLD:
            problems.append(f"threshold {result.threshold} != {self.THRESHOLD}")
        if result.c_star is None or result.c_star > self.THRESHOLD:
            problems.append(f"c_star {result.c_star} is not <= {self.THRESHOLD}")
        got = [v.counterexample for v in result.verdicts]
        if got != exp.facts["counterexamples"]:
            problems.append("per-c counterexamples differ from the reference scan")
        for v in result.verdicts:
            if v.all_stabilize and v.n_configs != reference.count_compositions(g.n, v.c):
                problems.append(f"c={v.c}: n_configs {v.n_configs} is not every composition")
        return problems

    def cli_argv(self, g, inst, out_dir):
        return ["probe", f"cycle:{self.N}", "--c-max", str(self.C_MAX)]

    def cli_parts(self, inst, stdout, out_dir):
        manifest, rest = _payload(stdout)
        return {0: _dump(rest)}, _state_cap_echo(manifest)


class LongGamePath70(Workload):
    name = "long-game-path70"
    N = 70
    TRACE_FILE = "long-game-path70.trace.csv"

    def _init(self, g):
        candy = [0] * g.n
        candy[0] = 4 * g.m - g.n
        return candy

    def build(self, inst):
        return cf.generate("path", self.N)

    def drive(self, g, inst):
        init = self._init(g)
        report = cf.verify_battery(g, init)
        trace = cf.run(g, init, g.n * g.diameter * sum(init) + 1)
        return report, trace

    def render(self, g, inst, result):
        report, trace = result
        # the second part is what `chipfire simulate` prints after its manifest
        summary = {
            "n": g.n,
            "m": g.m,
            "stop": trace.stop.value,
            "rounds_recorded": len(trace.rounds),
            "stab_round": trace.stab_round,
            "final": list(trace.final.candy),
            "pass_counts": list(trace.pass_at(len(trace.rounds))),
        }
        return [report.to_json().encode(), _dump(summary), cf.trace_csv(trace).encode()]

    def expected(self, g, inst):
        adj = reference.adjacency_from_edges(g.n, g.edges)
        init = tuple(self._init(g))
        mu, lam, _ = reference.orbit(adj, init)
        bound = g.n * reference.diameter(adj) * sum(init)
        return Expected(mu + lam, 1, {"stab_round": mu if lam == 1 else None, "bound": bound})

    def check(self, g, inst, result, exp):
        report, trace = result
        stab = trace.stab_round
        problems = []
        if not report.ok:
            problems.append("verify_battery reports a failing check")
        if stab is None or stab > exp.facts["bound"]:
            problems.append(f"stab_round {stab} exceeds n*d*c = {exp.facts['bound']}")
        if stab != report.metadata["stab_round"]:
            problems.append(f"run stab_round {stab} != battery {report.metadata['stab_round']}")
        if stab != exp.facts["stab_round"]:
            problems.append(f"stab_round {stab} != reference {exp.facts['stab_round']}")
        return problems

    def cli_argv(self, g, inst, out_dir):
        return ["simulate", f"path:{self.N}", f"concentrated:{sum(self._init(g))},0",
                "--trace-out", str(out_dir / self.TRACE_FILE)]

    def cli_parts(self, inst, stdout, out_dir):
        manifest, rest = _payload(stdout)
        trace_out = out_dir / self.TRACE_FILE
        problems = []
        if manifest.get("trace_out") != str(trace_out):
            problems.append(f"manifest trace_out {manifest.get('trace_out')!r} != {str(trace_out)!r}")
        return {1: _dump(rest), 2: trace_out.read_bytes()}, problems


@dataclass(frozen=True)
class SweepInstance:
    graph_seed: int
    sweep_seed: int


class SweepGnp300(Workload):
    name = "sweep-gnp300"
    seeded = True
    N, P, TRIALS = 300, 0.03, 5
    INSTANCES = 6  # distinct (graph, sweep) seed pairs per run, so one run averages over them
    MANIFEST_FILE = "sweep-gnp300.manifest.json"

    def instances(self, seed):
        return [SweepInstance(1000 * seed + k, 1000 * seed + 500 + k) for k in range(self.INSTANCES)]

    def build(self, inst):
        return cf.generate("random_connected", self.N, p=self.P, seed=inst.graph_seed)

    def _c_values(self, g):
        t = 4 * g.m - g.n
        return [t // 2, t]

    def drive(self, g, inst):
        return cf.sweep_experiment(g, self._c_values(g), self.TRIALS, inst.sweep_seed)

    def render(self, g, inst, rows):
        return [cf.sweep_csv(rows).encode()]

    def expected(self, g, inst):
        adj = reference.adjacency_from_edges(g.n, g.edges)
        rounds = 0
        rows = []
        for ci, c in enumerate(self._c_values(g)):
            for trial in range(self.TRIALS):
                # the sampled inputs are the package's own; only their games are re-simulated
                cfg = cf.random_config(g.n, c, cf.derive_seed(inst.sweep_seed, ci, trial))
                mu, lam, _ = reference.orbit(adj, cfg.candy)
                rounds += mu + lam
                rows.append(("stabilized", mu) if lam == 1 else ("periodic", lam))
        return Expected(rounds, len(rows), {"rows": rows, "t": self._c_values(g)[1]})

    def check(self, g, inst, rows, exp):
        problems = []
        t = exp.facts["t"]
        for row in rows:
            if row["c"] == t and (row["outcome"] != "stabilized" or row["slack"] < 0):
                problems.append(f"row at c = t = {t}, trial {row['trial']}: "
                                f"{row['outcome']} with slack {row['slack']}")
        got = [(row["outcome"], row["stab_round_or_period"]) for row in rows]
        if got != exp.facts["rows"]:
            problems.append("sweep outcomes differ from the reference simulation")
        return problems

    def cli_argv(self, g, inst, out_dir):
        t_half, t = self._c_values(g)
        return ["sweep", f"gnp:{self.N},{self.P},seed={inst.graph_seed}",
                "--c-values", f"{t_half},{t}", "--trials", str(self.TRIALS),
                "--seed", str(inst.sweep_seed), "--manifest-out", str(out_dir / self.MANIFEST_FILE)]

    def cli_parts(self, inst, stdout, out_dir):
        manifest = json.loads((out_dir / self.MANIFEST_FILE).read_text())
        return {0: stdout.encode()}, _state_cap_echo(manifest)


WORKLOADS = {w.name: w for w in (ExhaustiveCycle6(), ProbeCycle6(), LongGamePath70(), SweepGnp300())}
