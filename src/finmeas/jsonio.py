"""JSON wire format for distributions, points, and test-function tables.

Round trips are bit-exact: rationals travel as `p/q` strings and points
arrays are emitted in canonical order, so equal values always serialize
to identical bytes. JSON booleans are not points.
"""

from __future__ import annotations

from fractions import Fraction

from .dist import Dist, FiniteSpace, FunTable, Left, Right, as_point
from .errors import ParseError
from .scalars import RATIONAL_RE, _show_rational, format_rational, parse_rational


def _atom_to_json(x: str) -> str:
    if RATIONAL_RE.match(x):
        raise ParseError(f"atom {x!r} collides with the rational syntax; rename it")
    return x


def _pair_from_json(payload):
    if not isinstance(payload, list) or len(payload) != 2:
        raise ParseError("a pair point needs a 2-element list")
    return (point_from_json(payload[0]), point_from_json(payload[1]))


# Encoders by the exact class of a canonical point, decoders by wire tag.
_ENCODERS = {
    Fraction: format_rational,
    str: _atom_to_json,
    tuple: lambda x: {"pair": [point_to_json(x[0]), point_to_json(x[1])]},
    Left: lambda x: {"L": point_to_json(x.value)},
    Right: lambda x: {"R": point_to_json(x.value)},
}
_DECODERS = {
    "pair": _pair_from_json,
    "L": lambda payload: Left(point_from_json(payload)),
    "R": lambda payload: Right(point_from_json(payload)),
}


def point_to_json(x):
    x = as_point(x)
    if x.__class__ not in _ENCODERS:
        raise ParseError(f"point {x!r} has no wire representation")
    return _ENCODERS[x.__class__](x)


def point_from_json(obj):
    if isinstance(obj, str):
        return parse_rational(obj) if RATIONAL_RE.match(obj) else obj
    if isinstance(obj, int) and not isinstance(obj, bool):
        return Fraction(obj)
    if isinstance(obj, dict) and len(obj) == 1:
        (tag, payload), = obj.items()
        if tag in _DECODERS:
            return _DECODERS[tag](payload)
    raise ParseError(f"unrecognized point encoding: {obj!r}")


def dist_to_json(p: Dist) -> dict:
    if p.semiring.name != "rational":
        raise ParseError("only rational-weighted distributions have a wire form")
    return {
        "points": [
            {"x": point_to_json(x), "w": format_rational(c)} for x, c in p.items()
        ]
    }


def dist_from_json(obj) -> Dist:
    if not isinstance(obj, dict) or "points" not in obj:
        raise ParseError('a distribution payload needs a "points" array')
    entries = obj["points"]
    if not isinstance(entries, list):
        raise ParseError('"points" must be an array')
    pairs = []
    try:
        for entry in entries:
            if not isinstance(entry, dict) or set(entry) != {"x", "w"}:
                raise ParseError(f'each point needs exactly "x" and "w": {entry!r}')
            pairs.append((point_from_json(entry["x"]), parse_rational(entry["w"])))
        return Dist(pairs)
    except RecursionError:
        raise ParseError("a point encoding is nested too deeply") from None


def table_to_json(table: FunTable) -> dict:
    out = {}
    for x, v in table.items():
        key = point_to_json(x)
        if not isinstance(key, str):
            raise ParseError("table keys on the wire must be atoms or rationals")
        if v.__class__ is not Fraction:  # table values are canonical points
            raise ParseError(
                f"table values on the wire must be rationals: {_show_rational(v, repr)}"
            )
        out[key] = format_rational(v)
    return out


def table_from_json(obj) -> FunTable:
    """A test-function table: a JSON object mapping points to rationals."""
    if not isinstance(obj, dict):
        raise ParseError("a table payload must be a JSON object")
    mapping = {}
    for key, value in obj.items():
        if not isinstance(value, str):
            raise ParseError(f"table values must be rational strings: {value!r}")
        x = point_from_json(key)
        if x in mapping:
            raise ParseError(f"table key {key!r} repeats the point {point_to_json(x)}")
        mapping[x] = parse_rational(value)
    return FunTable(FiniteSpace(mapping), mapping)
