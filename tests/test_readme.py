"""README's code: the quick tour runs and says what it returns, and every
name it uses from the package exists."""

import re
from pathlib import Path

import chipfire as cf

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()

# each expression of the quick tour, and the value its comment states
STATED = {
    "trace.stab_round": 2,
    "trace.final.candy": (5, 2, 2),
    "report.ok": True,
    'out["ok"], out["configs_checked"]': (True, 55),
    "res.counterexample.initial": (0, 0, 0, 4),
    "res.counterexample.config": (0, 2, 0, 2),
}


def _code_blocks(language=""):
    return re.findall(rf"^```{language}\n(.*?)^```", README, re.S | re.M)


def _quick_tour():
    section = README.split("## Library quick tour", 1)[1]
    return re.search(r"^```python\n(.*?)^```", section, re.S | re.M).group(1)


def test_quick_tour_runs_and_returns_what_it_says():
    tour = _quick_tour()
    namespace = {}
    exec(compile(tour, "README.md", "exec"), namespace)
    for expr, value in STATED.items():
        stated = re.search(rf"^{re.escape(expr)} +# (.+)$", tour, re.M)
        assert stated and stated.group(1).startswith(repr(value)), expr
        assert eval(expr, namespace) == value, expr


def test_every_package_name_in_the_code_blocks_resolves():
    names = {name for block in _code_blocks(r"\w*") for name in re.findall(r"\bcf\.(\w+)", block)}
    assert {"generate", "run", "verify_battery", "exhaustive_verify"} <= names
    assert [name for name in sorted(names) if not hasattr(cf, name)] == []
