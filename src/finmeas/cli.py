"""Command-line frontend: JSON in, JSON out, deterministic bytes.

Exit codes: 0 success, 1 domain/model errors (no primitive, null-event
conditioning, bad payloads), 2 usage errors.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .dist import total
from .errors import FinmeasError, ParseError
from .jsonio import dist_from_json, dist_to_json, table_from_json
from .line import Step, convolve, derivative, expectation, interval, moment, primitive
from .pairing import pair
from .probability import condition, is_event_table, is_probability, marginals
from .scalars import format_rational, parse_rational
from .strength import tensor


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


def _load_dists(paths, expected: int) -> list:
    if len(paths or ()) != expected:
        raise ParseError(f"expected {expected} --in argument(s), got {len(paths or ())}")
    if sum(1 for p in paths if p == "-") > 1:
        raise ParseError("stdin ('-') may be used for at most one input")
    return [dist_from_json(_read_json(p)) for p in paths]


def _emit(payload, as_table: bool):
    if as_table:
        print(_render_table(payload), end="")
    else:
        print(json.dumps(payload, separators=(",", ":")))


def _render_table(payload, indent="") -> str:
    if isinstance(payload, dict) and set(payload) == {"points"}:
        lines = [
            f"{indent}{json.dumps(e['x']) if not isinstance(e['x'], str) else e['x']}\t{e['w']}"
            for e in payload["points"]
        ]
        return "".join(line + "\n" for line in lines) or f"{indent}(empty)\n"
    if isinstance(payload, dict):
        out = []
        for key in payload:
            value = payload[key]
            if isinstance(value, (dict, list)):
                out.append(f"{indent}{key}:\n")
                out.append(_render_table(value, indent + "  "))
            else:
                out.append(f"{indent}{key}: {value}\n")
        return "".join(out)
    if isinstance(payload, list):
        return "".join(_render_table(item, indent) for item in payload)
    return f"{indent}{payload}\n"


def _cmd_conv(args):
    ps = _load_dists(args.inputs, 2)
    return dist_to_json(convolve(ps[0], ps[1]))


def _cmd_tensor(args):
    ps = _load_dists(args.inputs, 2)
    return dist_to_json(tensor(ps[0], ps[1]))


def _cmd_pair(args):
    (p,) = _load_dists(args.inputs, 1)
    table = table_from_json(_read_json(args.fn))
    return {"value": format_rational(pair(p, table))}


def _cmd_moments(args):
    (p,) = _load_dists(args.inputs, 1)
    return {
        "total": format_rational(total(p)),
        "expectation": format_rational(expectation(p)),
        "moments": [format_rational(moment(p, n)) for n in range(args.order + 1)],
    }


def _cmd_cond(args):
    (p,) = _load_dists(args.inputs, 1)
    event = table_from_json(_read_json(args.event))
    if not is_event_table(event):
        raise ParseError("the event table must be 0/1-valued (idempotent)")
    return dist_to_json(condition(p, event))


def _cmd_joint(args):
    ps = _load_dists(args.inputs, 2)
    for p in ps:
        if not is_probability(p):
            raise ParseError("joint needs total-1 inputs")
    return dist_to_json(tensor(ps[0], ps[1]))


def _cmd_marginal(args):
    (j,) = _load_dists(args.inputs, 1)
    m1, m2 = marginals(j)
    return {"left": dist_to_json(m1), "right": dist_to_json(m2)}


def _cmd_derive(args):
    (p,) = _load_dists(args.inputs, 1)
    return dist_to_json(derivative(p, Step(parse_rational(args.step))))


def _cmd_primitive(args):
    (q,) = _load_dists(args.inputs, 1)
    return dist_to_json(primitive(q, Step(parse_rational(args.step))))


def _cmd_interval(args):
    comb = interval(
        parse_rational(args.a), parse_rational(args.b),
        Step(parse_rational(args.step)),
    )
    return dist_to_json(comb)


def _cmd_laws(args):
    from . import laws as law_suite

    cfg = law_suite.GenConfig(seed=args.seed, cases=args.cases)
    reports = law_suite.run_suite(cfg, selection=args.law or None)
    payload = [r.to_json() for r in reports]
    ok = all(r.passed for r in reports)
    return payload, ok


def _natural_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be at least 0")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _law_name(text: str) -> str:
    """Check a --law value against the registry, importing the law suite
    only when --law is given."""
    from .laws import LAWS

    if text not in LAWS:
        choices = ", ".join(map(repr, sorted(LAWS)))
        raise argparse.ArgumentTypeError(f"invalid choice: {text!r} (choose from {choices})")
    return text


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads `-p/q` as a negative rational, not as
    an option; argparse's own test accepts only negative decimals."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")


def _add_io_flags(sub):
    sub.add_argument(
        "--in", dest="inputs", action="append", metavar="FILE",
        help="input distribution JSON ('-' for stdin)",
    )
    fmt = sub.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="JSON output (default)")
    fmt.add_argument("--table", action="store_true", help="plain-text table output")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="finmeas",
        description="Exact finite-support distributions: algebra, probability, "
        "difference calculus, and the law suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, handler, helptext in [
        ("conv", _cmd_conv, "convolve two line distributions"),
        ("tensor", _cmd_tensor, "tensor two distributions"),
        ("marginal", _cmd_marginal, "marginals of a distribution over pairs"),
        ("joint", _cmd_joint, "joint (tensor) of two total-1 distributions"),
    ]:
        s = sub.add_parser(name, help=helptext)
        _add_io_flags(s)
        s.set_defaults(handler=handler)

    s = sub.add_parser("pair", help="integrate a test-function table against a distribution")
    _add_io_flags(s)
    s.add_argument("--fn", required=True, metavar="FILE", help="table JSON (point -> rational)")
    s.set_defaults(handler=_cmd_pair)

    s = sub.add_parser("moments", help="total, expectation, and moments of a line distribution")
    _add_io_flags(s)
    s.add_argument(
        "--order", type=_natural_int, default=2, help="highest moment order (default 2)",
    )
    s.set_defaults(handler=_cmd_moments)

    s = sub.add_parser("cond", help="condition a distribution on a 0/1 event table")
    _add_io_flags(s)
    s.add_argument("--event", required=True, metavar="FILE", help="event table JSON")
    s.set_defaults(handler=_cmd_cond)

    s = sub.add_parser("derive", help="difference-quotient derivative of a line distribution")
    _add_io_flags(s)
    s.add_argument("--step", required=True, metavar="p/q", help="calculus step (nonzero rational)")
    s.set_defaults(handler=_cmd_derive)

    s = sub.add_parser("primitive", help="antidifference of a per-orbit balanced distribution")
    _add_io_flags(s)
    s.add_argument("--step", required=True, metavar="p/q")
    s.set_defaults(handler=_cmd_primitive)

    s = sub.add_parser("interval", help="the comb primitive of dirac(b) - dirac(a)")
    s.add_argument("a", help="left endpoint (rational)")
    s.add_argument("b", help="right endpoint (rational)")
    s.add_argument("--step", required=True, metavar="p/q")
    fmt = s.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--table", action="store_true")
    s.set_defaults(handler=_cmd_interval, inputs=None)

    s = sub.add_parser("laws", help="run the exact-equality law suite")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--cases", type=_positive_int, default=200)
    s.add_argument(
        "--law", action="append", metavar="NAME", type=_law_name,
        help="run only this law (repeatable); see README for the list",
    )
    fmt = s.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--table", action="store_true")
    s.set_defaults(handler=_cmd_laws, inputs=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        result = args.handler(args)
    except (FinmeasError, OSError, json.JSONDecodeError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.handler is _cmd_laws:
        payload, ok = result
        _emit(payload, args.table)
        return 0 if ok else 1
    _emit(result, args.table)
    return 0


if __name__ == "__main__":
    sys.exit(main())
