"""Command-line frontend: JSON in, JSON out, deterministic bytes.

Exit codes: 0 success, 1 domain/model errors (no primitive, null-event
conditioning, bad payloads), 2 usage errors.

Every subcommand is one row of `_COMMANDS`: its name, help text, the
number of `--in` distributions it reads, its other arguments, and
`run(args, *dists) -> payload`. `main` checks the `--in` count, decodes
the inputs and prints the payload.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from collections import namedtuple

from .dist import pair, tensor, total
from .errors import FinmeasError, ParseError
from .jsonio import dist_from_json, dist_to_json, table_from_json
from .line import Step, convolve, derivative, expectation, interval, moment, primitive
from .probability import condition, is_event_table, is_probability, marginals
from .scalars import format_rational, parse_rational


def _read_json(path: str):
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        return json.loads(text)
    except RecursionError:
        raise ParseError(f"{path}: JSON nested too deeply") from None


def _emit(payload, as_table: bool):
    if as_table:
        print(_render_table(payload), end="")
    else:
        print(json.dumps(payload, separators=(",", ":")))


def _table_point(x) -> str:
    """A wire point as one cell free of tabs and newlines: a string raw when
    its JSON literal is just the string in quotes, else that literal."""
    if not isinstance(x, str):
        return json.dumps(x)
    literal = json.dumps(x, ensure_ascii=False)
    return x if literal == f'"{x}"' else literal


def _render_table(payload, indent="") -> str:
    if isinstance(payload, dict) and set(payload) == {"points"}:
        lines = [f"{indent}{_table_point(e['x'])}\t{e['w']}" for e in payload["points"]]
        return "".join(line + "\n" for line in lines) or f"{indent}(empty)\n"
    if isinstance(payload, dict):
        out = []
        for key, value in payload.items():
            if isinstance(value, (dict, list)):
                out.append(f"{indent}{key}:\n")
                out.append(_render_table(value, indent + "  "))
            else:
                out.append(f"{indent}{key}: {value}\n")
        return "".join(out)
    if isinstance(payload, list):
        return "".join(_render_table(item, indent) for item in payload)
    return f"{indent}{payload}\n"


def _natural_int(text: str, least: int = 0) -> int:
    value = int(text)
    if value < least:
        raise argparse.ArgumentTypeError(f"must be at least {least}")
    return value


def _positive_int(text: str) -> int:
    return _natural_int(text, 1)


def _law_name(text: str) -> str:
    """Check a --law value against the registry, importing the law suite
    only when --law is given."""
    from .laws import LAWS

    if text not in LAWS:
        choices = ", ".join(map(repr, sorted(LAWS)))
        raise argparse.ArgumentTypeError(f"invalid choice: {text!r} (choose from {choices})")
    return text


def _step(args) -> Step:
    return Step(parse_rational(args.step))


def _table(path: str):
    return table_from_json(_read_json(path))


def _moments(args, p):
    return {
        "total": format_rational(total(p)),
        "expectation": format_rational(expectation(p)),
        "moments": [format_rational(moment(p, n)) for n in range(args.order + 1)],
    }


def _cond(args, p):
    event = _table(args.event)
    if not is_event_table(event):
        raise ParseError("the event table must be 0/1-valued (idempotent)")
    return dist_to_json(condition(p, event))


def _joint(args, p, q):
    if not (is_probability(p) and is_probability(q)):
        raise ParseError("joint needs total-1 inputs")
    return dist_to_json(tensor(p, q))


def _marginal(args, j):
    m1, m2 = marginals(j)
    return {"left": dist_to_json(m1), "right": dist_to_json(m2)}


def _interval(args):
    return dist_to_json(interval(parse_rational(args.a), parse_rational(args.b), _step(args)))


def _laws(args):
    from . import laws as law_suite

    cfg = law_suite.GenConfig(seed=args.seed, cases=args.cases)
    return [r.to_json() for r in law_suite.run_suite(cfg, selection=args.law or None)]


def _arg(*flags, **kwargs):
    return flags, kwargs


_STEP = _arg("--step", required=True, metavar="p/q", help="calculus step (nonzero rational)")

_Command = namedtuple("_Command", "name help arity extras run")

# one row per subcommand, in `finmeas --help` order
_COMMANDS = (
    _Command("conv", "convolve two line distributions", 2, [],
             lambda args, p, q: dist_to_json(convolve(p, q))),
    _Command("tensor", "tensor two distributions", 2, [],
             lambda args, p, q: dist_to_json(tensor(p, q))),
    _Command("marginal", "marginals of a distribution over pairs", 1, [], _marginal),
    _Command("joint", "joint (tensor) of two total-1 distributions", 2, [], _joint),
    _Command("pair", "integrate a test-function table against a distribution", 1,
             [_arg("--fn", required=True, metavar="FILE", help="table JSON (point -> rational)")],
             lambda args, p: {"value": format_rational(pair(p, _table(args.fn)))}),
    _Command("moments", "total, expectation, and moments of a line distribution", 1,
             [_arg("--order", type=_natural_int, default=2,
                   help="highest moment order (default 2)")],
             _moments),
    _Command("cond", "condition a distribution on a 0/1 event table", 1,
             [_arg("--event", required=True, metavar="FILE", help="event table JSON")], _cond),
    _Command("derive", "difference-quotient derivative of a line distribution", 1, [_STEP],
             lambda args, p: dist_to_json(derivative(p, _step(args)))),
    _Command("primitive", "antidifference of a per-orbit balanced distribution", 1, [_STEP],
             lambda args, q: dist_to_json(primitive(q, _step(args)))),
    _Command("interval", "the comb primitive of dirac(b) - dirac(a)", 0,
             [_arg("a", help="left endpoint (rational)"),
              _arg("b", help="right endpoint (rational)"), _STEP],
             _interval),
    _Command("laws", "run the exact-equality law suite", 0,
             [_arg("--seed", type=int, default=0),
              _arg("--cases", type=_positive_int, default=200),
              _arg("--law", action="append", metavar="NAME", type=_law_name,
                   help="run only this law (repeatable); see README for the list")],
             _laws),
)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads `-p/q` as a negative rational, not as
    an option; argparse's own test accepts only negative decimals."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="finmeas",
        description="Exact finite-support distributions: algebra, probability, "
        "difference calculus, and the law suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in _COMMANDS:
        s = sub.add_parser(cmd.name, help=cmd.help)
        if cmd.arity:
            s.add_argument(
                "--in", dest="inputs", action="append", metavar="FILE",
                help="input distribution JSON ('-' for stdin)",
            )
        fmt = s.add_mutually_exclusive_group()
        fmt.add_argument("--json", action="store_true", help="JSON output (default)")
        fmt.add_argument("--table", action="store_true", help="plain-text table output")
        for flags, kwargs in cmd.extras:
            s.add_argument(*flags, **kwargs)
        s.set_defaults(cmd=cmd, inputs=[], usage_error=s.error)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cmd, paths = args.cmd, args.inputs
    if len(paths) != cmd.arity:
        args.usage_error(f"expected {cmd.arity} --in argument(s), got {len(paths)}")
    if paths.count("-") > 1:
        args.usage_error("stdin ('-') may be used for at most one input")
    try:
        payload = cmd.run(args, *[dist_from_json(_read_json(p)) for p in paths])
    except (FinmeasError, OSError, json.JSONDecodeError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(payload, args.table)
    # only `laws` prints a list: one report per law
    return 1 if isinstance(payload, list) and not all(r["passed"] for r in payload) else 0


if __name__ == "__main__":
    sys.exit(main())
