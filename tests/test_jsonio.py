import functools
import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from finmeas import BOOLEANS, Dist, FiniteSpace, FunTable, Left, ParseError, Right
from finmeas.jsonio import (
    dist_from_json,
    dist_to_json,
    point_from_json,
    point_to_json,
    table_from_json,
    table_to_json,
)

from .conftest import atom_dists, line_dists


def test_point_encodings():
    assert point_to_json(Fraction(1, 2)) == "1/2"
    assert point_to_json(Fraction(-4)) == "-4"
    assert point_to_json("north") == "north"
    assert point_to_json(("a", Fraction(2))) == {"pair": ["a", "2"]}
    assert point_to_json(Left("a")) == {"L": "a"}
    assert point_to_json(Right(Fraction(1))) == {"R": "1"}


def test_point_decoding_round_trip():
    for x in [Fraction(1, 2), "north", ("a", Fraction(2)), Left("a"), Right((1, 2))]:
        assert point_from_json(point_to_json(x)) == x


def test_numeric_looking_atoms_are_rejected():
    with pytest.raises(ParseError):
        point_to_json("3/4")


def test_rational_strings_decode_as_rationals():
    assert point_from_json("7") == Fraction(7)
    assert isinstance(point_from_json("7"), Fraction)


def test_a_trailing_newline_makes_an_atom():
    assert point_from_json("3\n") == "3\n"
    assert point_to_json("3\n") == "3\n"
    assert point_from_json({"pair": ["1/2\n", "1/2"]}) == ("1/2\n", Fraction(1, 2))


def test_dist_round_trip_with_mixed_points():
    p = Dist({Fraction(1, 2): 3, "a": Fraction(-1, 7), ("a", "b"): 1, Left(2): 2})
    assert dist_from_json(dist_to_json(p)) == p


def test_dist_json_is_sorted_and_stringly_exact():
    p = Dist({Fraction(1, 2): Fraction(2, 4), Fraction(0): Fraction(1, 2)})
    payload = dist_to_json(p)
    assert payload == {
        "points": [{"x": "0", "w": "1/2"}, {"x": "1/2", "w": "1/2"}]
    }
    assert json.dumps(payload, separators=(",", ":")) == (
        '{"points":[{"x":"0","w":"1/2"},{"x":"1/2","w":"1/2"}]}'
    )


@given(line_dists())
def test_line_dist_round_trip(p):
    assert dist_from_json(dist_to_json(p)) == p


@given(atom_dists())
def test_atom_dist_round_trip(p):
    assert dist_from_json(dist_to_json(p)) == p


def test_duplicate_points_merge_on_decode():
    payload = {"points": [{"x": "1", "w": "1/2"}, {"x": "1", "w": "1/2"}]}
    assert dist_from_json(payload) == Dist({Fraction(1): 1})


@pytest.mark.parametrize(
    "payload",
    [
        {},
        {"points": {}},
        {"points": [{"x": "1"}]},
        {"points": [{"x": "1", "w": "0.5"}]},
        {"points": [{"x": "1", "w": "1/2", "extra": 1}]},
        {"points": [{"x": {"pair": ["1"]}, "w": "1"}]},
        {"points": [{"x": 1.5, "w": "1"}]},
        {"points": [{"x": True, "w": "1"}]},
        {"points": [{"x": {"pair": [False, "a"]}, "w": "1"}]},
        {"points": [{"x": {"L": True}, "w": "1"}]},
        # json.loads parses this point; decoding it is nested too deeply
        {"points": [{"x": functools.reduce(lambda x, _: {"L": x}, range(600), "a"), "w": "1"}]},
    ],
)
def test_malformed_payloads_rejected(payload):
    with pytest.raises(ParseError):
        dist_from_json(payload)


@pytest.mark.parametrize("encode, value, message", [
    (dist_to_json, Dist({"a": True}, BOOLEANS), "only rational-weighted"),
    (table_to_json, FunTable(FiniteSpace([("a", 1)]), {("a", 1): 1}), "atoms or rationals"),
], ids=["boolean-dist", "pair-table-key"])
def test_encoders_refuse_values_without_a_wire_form(encode, value, message):
    with pytest.raises(ParseError, match=message):
        encode(value)


def test_table_round_trip():
    payload = {"1": "1/2", "a": "-3", "2/3": "0"}
    table = table_from_json(payload)
    assert table(Fraction(1)) == Fraction(1, 2)
    assert table("a") == -3
    assert table(Fraction(2, 3)) == 0
    assert table_to_json(table) == payload


def test_table_values_must_be_rational_strings():
    with pytest.raises(ParseError):
        table_from_json({"a": 0.5})


def test_table_keys_that_name_one_point_are_rejected():
    with pytest.raises(ParseError, match="'2/2' repeats the point 1$"):
        table_from_json({"1": "5", "2/2": "7", "01": "9"})
    with pytest.raises(ParseError, match="'-0' repeats the point 0$"):
        table_from_json({"0": "5", "-0": "5"})


def test_rational_table_encodes_to_exact_bytes():
    table = FunTable(
        FiniteSpace(["a", Fraction(1, 2)]), {"a": Fraction(-6, 4), Fraction(1, 2): 3}
    )
    assert json.dumps(table_to_json(table), separators=(",", ":")) == (
        '{"1/2":"3","a":"-3/2"}'
    )


def test_tables_of_one_function_encode_alike_whatever_the_given_order():
    mapping = {"b": 1, Fraction(1, 2): Fraction(-6, 4), "a": 2, 3: 0}
    tables = [
        FunTable(FiniteSpace(domain), {x: mapping[x] for x in given})
        for domain in itertools.permutations(mapping)
        for given in itertools.permutations(mapping)
    ]
    assert len({t.items() for t in tables}) == 1
    assert len({repr(t) for t in tables}) == 1
    assert len({hash(t) for t in tables}) == 1
    assert {json.dumps(table_to_json(t), separators=(",", ":")) for t in tables} == {
        '{"1/2":"-3/2","3":"0","a":"2","b":"1"}'
    }


@pytest.mark.parametrize(
    "value",
    ["0.5", " 3 ", "1/2", "north", ("a", Fraction(1)), Left(Fraction(1)), Dist({"a": 1})],
    ids=["decimal-atom", "padded-atom", "slash-atom", "atom", "pair", "tagged", "dist"],
)
def test_table_encoder_rejects_values_that_are_not_rationals(value):
    table = FunTable(FiniteSpace(["a", "b"]), {"a": Fraction(1), "b": value})
    with pytest.raises(ParseError, match="must be rationals") as raised:
        table_to_json(table)
    assert repr(value) in str(raised.value)


# -- fuzzing the decoders --------------------------------------------------
#
# Any JSON value either raises ParseError or decodes to a value that
# encodes, decodes back equal, and encodes again to the same bytes.

_TEXT = st.text(alphabet="0123456789/-abLR", max_size=5)
_RATIONAL_TEXT = st.one_of(
    st.integers(-9, 9).map(str),
    st.builds(lambda n, d: f"{n}/{d}", st.integers(-9, 9), st.integers(0, 9)),
)
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(allow_nan=False), _TEXT
)
# mostly well-formed leaves, so that many payloads decode
_LEAVES = st.one_of(_RATIONAL_TEXT, st.sampled_from(["a", "b", "ab"]), _SCALARS)


def _json_values(leaves):
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.lists(inner, max_size=3),
            st.dictionaries(_TEXT, inner, max_size=3),
            st.builds(lambda v: {"pair": v}, st.lists(inner, max_size=3)),
            st.builds(lambda v: {"L": v}, inner),
            st.builds(lambda v: {"R": v}, inner),
        ),
        max_leaves=6,
    )


_ANY_JSON = _json_values(_SCALARS)
_POINTS = st.recursive(
    st.one_of(_RATIONAL_TEXT, st.sampled_from(["a", "b", "ab"]), st.integers(-3, 3)),
    lambda inner: st.one_of(
        st.builds(lambda a, b: {"pair": [a, b]}, inner, inner),
        st.builds(lambda v: {"L": v}, inner),
        st.builds(lambda v: {"R": v}, inner),
    ),
    max_leaves=4,
)
_GOOD_ENTRY = st.fixed_dictionaries({"x": _POINTS, "w": _RATIONAL_TEXT})
_ENTRY = st.one_of(
    _GOOD_ENTRY,
    st.fixed_dictionaries(
        {"x": _json_values(_LEAVES), "w": st.one_of(_RATIONAL_TEXT, _SCALARS)}
    ),
    _ANY_JSON,
)
_DIST_PAYLOADS = st.one_of(
    st.builds(lambda es: {"points": es}, st.lists(_GOOD_ENTRY, max_size=5)),
    st.builds(lambda es: {"points": es}, st.lists(_ENTRY, max_size=5)),
    _ANY_JSON,
)
_TABLE_PAYLOADS = st.one_of(
    st.dictionaries(
        st.one_of(_RATIONAL_TEXT, _TEXT), st.one_of(_RATIONAL_TEXT, _SCALARS),
        max_size=4,
    ),
    _ANY_JSON,
)


def _wire(value):
    return json.dumps(value, separators=(",", ":"))


def _decodes_stably(decode, encode, obj):
    try:
        value = decode(obj)
    except ParseError:
        return
    wire = _wire(encode(value))
    again = decode(json.loads(wire))
    assert again == value
    assert _wire(encode(again)) == wire


@given(_DIST_PAYLOADS)
def test_dist_decoder_round_trips_or_rejects(obj):
    _decodes_stably(dist_from_json, dist_to_json, obj)


@given(_TABLE_PAYLOADS)
def test_table_decoder_round_trips_or_rejects(obj):
    _decodes_stably(table_from_json, table_to_json, obj)


def test_oversized_rational_strings_raise_parse_error():
    big = "1" * 5000
    with pytest.raises(ParseError, match="digits"):
        point_from_json(big)
    with pytest.raises(ParseError, match="digits"):
        point_from_json({"pair": ["a", big]})
    with pytest.raises(ParseError, match="digits"):
        table_from_json({big: "1"})
    with pytest.raises(ParseError, match="digits"):
        table_from_json({"1": big})
    with pytest.raises(ParseError, match="digits"):
        dist_from_json({"points": [{"x": "0", "w": big}]})
