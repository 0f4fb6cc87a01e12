"""Every public name is reached by the system's own use, or says why not,
and no public function is an alias of another.

The trace runs the law suite at seed 0 (20 cases) and one in-process
call of each CLI command under `sys.setprofile`, and records every code
object entered. A public function of `finmeas` or `finmeas.jsonio`
counts as reached when its code ran, and a public class that defines
methods when one of its methods ran. What is not reached must be on
`UNREACHED`, with a reason; an entry that is reached fails the test
too, so the list cannot go stale.
"""

import ast
import inspect
import json
import sys
from pathlib import Path

import finmeas
import finmeas.jsonio
from finmeas import GenConfig, run_suite
from finmeas.cli import _COMMANDS, main

UNREACHED = {
    "finmeas.indicator": "README library example",
    "finmeas.jsonio.table_to_json": "no command writes a table; a table point encoding will",
}


def _payload(points):
    return json.dumps({"points": [{"x": x, "w": w} for x, w in points]})


def _cli_calls(tmp_path):
    """One argv per CLI command, with its input files written to tmp_path."""
    files = {
        "line": _payload([("0", "1/2"), ("1", "1/2")]),
        "balanced": _payload([("0", "-1"), ("1", "1")]),
        "joint": _payload([({"pair": ["a", "0"]}, "1/2"), ({"pair": ["b", "1"]}, "1/2")]),
        "fn": json.dumps({"0": "2", "1": "3"}),
        "event": json.dumps({"0": "1", "1": "0"}),
    }
    path = {}
    for name, text in files.items():
        (tmp_path / f"{name}.json").write_text(text)
        path[name] = str(tmp_path / f"{name}.json")
    line, two = ["--in", path["line"]], ["--in", path["line"], "--in", path["line"]]
    return {
        "conv": ["conv", *two],
        "tensor": ["tensor", *two],
        "marginal": ["marginal", "--in", path["joint"]],
        "joint": ["joint", *two],
        "pair": ["pair", *line, "--fn", path["fn"]],
        "moments": ["moments", *line],
        "cond": ["cond", *line, "--event", path["event"]],
        "derive": ["derive", *line, "--step", "1/2"],
        "primitive": ["primitive", "--in", path["balanced"], "--step", "1"],
        "interval": ["interval", "0", "1", "--step", "1/2"],
        "laws": ["laws", "--law", "fubini", "--cases", "1"],
    }


def _public():
    """Qualified name -> the code objects that reach it."""
    names = {}
    for module in (finmeas, finmeas.jsonio):
        for name in dir(module):
            value = getattr(module, name)
            home = getattr(value, "__module__", "")  # names defined in the module
            if name.startswith("_") or not home.startswith(module.__name__):
                continue
            if inspect.isfunction(value):
                names[f"{module.__name__}.{name}"] = {value.__code__}
            elif inspect.isclass(value):
                codes = set()
                for member in vars(value).values():
                    member = getattr(member, "__func__", getattr(member, "fget", member))
                    if inspect.isfunction(member):
                        codes.add(member.__code__)
                if codes:
                    names[f"{module.__name__}.{name}"] = codes
    return names


def test_every_public_name_is_reached_or_listed(tmp_path, capsys):
    calls = _cli_calls(tmp_path)
    assert sorted(calls) == sorted(cmd.name for cmd in _COMMANDS)
    entered, codes = set(), []

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        reports = run_suite(GenConfig(seed=0, cases=20))
        for argv in calls.values():
            codes.append(main(argv))
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert all(r.passed for r in reports)
    assert codes == [0] * len(calls), dict(zip(calls, codes))
    unreached = {name for name, code in _public().items() if not code & entered}
    assert unreached == set(UNREACHED)


def _forwards(fn: ast.FunctionDef) -> bool:
    """Whether fn's body, after its docstring, is one `return g(...)` whose
    arguments are exactly fn's own parameters, in any order."""
    body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
    if len(body) != 1 or not isinstance(body[0], ast.Return):
        return False
    call = body[0].value
    if not isinstance(call, ast.Call):
        return False
    args = call.args + [k.value for k in call.keywords]
    if not all(isinstance(a, ast.Name) for a in args):
        return False
    spec = fn.args
    params = spec.posonlyargs + spec.args + spec.kwonlyargs
    params += [a for a in (spec.vararg, spec.kwarg) if a is not None]
    return sorted(a.id for a in args) == sorted(a.arg for a in params)


def test_no_public_function_only_forwards_to_another():
    aliases = []
    for path in sorted(Path(finmeas.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                    and _forwards(node)):
                aliases.append(f"{path.stem}.{node.name}")
    assert aliases == []
