"""The point table against the isinstance ladders it replaced.

`as_point`, `point_key`, `_show_point`, `point_to_json` and
`point_from_json` each dispatch through a table keyed by a point's
class. The `old_*` functions below are the ladders they used to be,
kept here as references only. Every check runs over mixed-kind points:
rationals (with a Fraction subclass, ints and bools), atoms, pairs (with
a tuple subclass), Left/Right tags, nested Dists over both semirings and
function tables.
"""

from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from finmeas import (
    BOOLEANS, RATIONALS, Dist, FiniteSpace, FunTable, Left, ParseError, Right,
)
from finmeas.dist import as_point, point_key
from finmeas.jsonio import point_from_json, point_to_json
from finmeas.scalars import RATIONAL_RE, format_rational

from .conftest import small_fractions, table
from .test_jsonio import _ANY_JSON, _POINTS

# -- the references --------------------------------------------------------


def old_as_point(x):
    cls = x.__class__
    if cls is Fraction or cls is str:
        return x
    if isinstance(x, bool):
        return Fraction(int(x))
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if isinstance(x, float):
        raise TypeError("floats are not exact; use Fraction or a 'p/q' string")
    if isinstance(x, str):
        return x
    if isinstance(x, tuple):
        if len(x) != 2:
            raise TypeError("only pairs (2-tuples) are points")
        return (old_as_point(x[0]), old_as_point(x[1]))
    if isinstance(x, Left):
        return Left(old_as_point(x.value))
    if isinstance(x, Right):
        return Right(old_as_point(x.value))
    if isinstance(x, Dist):
        return x
    if isinstance(x, FunTable):
        return x
    raise TypeError(f"{x!r} is not in the point universe")


def old_items(p):
    return tuple(sorted(p.items(), key=lambda it: old_point_key(it[0])))


def old_point_key(x):
    if isinstance(x, bool) or isinstance(x, (int, Fraction)):
        return (0, Fraction(x))
    if isinstance(x, str):
        return (1, x)
    if isinstance(x, tuple):
        return (2, old_point_key(x[0]), old_point_key(x[1]))
    if isinstance(x, Left):
        return (3, 0, old_point_key(x.value))
    if isinstance(x, Right):
        return (3, 1, old_point_key(x.value))
    if isinstance(x, Dist):
        pairs = tuple((old_point_key(y), c) for y, c in old_items(x))
        return (4, (x.semiring.name,) + pairs)
    if isinstance(x, FunTable):
        keys = tuple(old_point_key(y) for y in x.domain)
        return (5, (keys, tuple(old_point_key(v) for v in x.values())))
    raise TypeError(f"{x!r} is not in the point universe")


def old_show_point(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, tuple):
        return f"({old_show_point(x[0])}, {old_show_point(x[1])})"
    if isinstance(x, Left):
        return f"Left({old_show_point(x.value)})"
    if isinstance(x, Right):
        return f"Right({old_show_point(x.value)})"
    if isinstance(x, Dist):
        return old_dist_repr(x)
    return repr(x)


def old_dist_repr(p):
    body = ", ".join(f"{old_show_point(x)}: {c}" for x, c in old_items(p))
    tag = "" if p.semiring is RATIONALS else f", {p.semiring.name}"
    return f"Dist({{{body}}}{tag})"


def old_point_to_json(x):
    x = old_as_point(x)
    if isinstance(x, Fraction):
        return format_rational(x)
    if isinstance(x, str):
        if RATIONAL_RE.match(x):
            raise ParseError(
                f"atom {x!r} collides with the rational syntax; rename it"
            )
        return x
    if isinstance(x, tuple):
        return {"pair": [old_point_to_json(x[0]), old_point_to_json(x[1])]}
    if isinstance(x, Left):
        return {"L": old_point_to_json(x.value)}
    if isinstance(x, Right):
        return {"R": old_point_to_json(x.value)}
    raise ParseError(f"point {x!r} has no wire representation")


def old_point_from_json(obj):
    if isinstance(obj, str):
        if RATIONAL_RE.match(obj):
            return Fraction(obj)
        return obj
    if isinstance(obj, int) and not isinstance(obj, bool):
        return Fraction(obj)
    if isinstance(obj, dict) and len(obj) == 1:
        (tag, payload), = obj.items()
        if tag == "pair":
            if not isinstance(payload, list) or len(payload) != 2:
                raise ParseError("a pair point needs a 2-element list")
            return (old_point_from_json(payload[0]), old_point_from_json(payload[1]))
        if tag == "L":
            return Left(old_point_from_json(payload))
        if tag == "R":
            return Right(old_point_from_json(payload))
    raise ParseError(f"unrecognized point encoding: {obj!r}")


# -- mixed-kind points -----------------------------------------------------


class Pair(tuple):
    """A tuple subclass; as a point it is a plain pair."""

    __slots__ = ()


class Ratio(Fraction):
    """A Fraction subclass; as a point it is a plain Fraction."""


class Side(Left):
    """A Left subclass; as a point it is a plain Left."""

    __slots__ = ()


_LEAVES = st.one_of(
    small_fractions(),
    small_fractions().map(Ratio),
    st.integers(-2, 2),
    st.booleans(),
    st.sampled_from(["a", "b", "-", "1/2 "]),
)


def _dicts(keys, values, max_size):
    # st.dictionaries draws keys unique by a filter, and each retried draw
    # renders the repr of `keys`, here the whole recursive POINTS strategy
    # (32-64 kB); a list of pairs made a dict holds the same dicts
    return st.lists(st.tuples(keys, values), max_size=max_size).map(dict)


def _compound(inner):
    return st.one_of(
        st.tuples(inner, inner),
        st.tuples(inner, inner).map(Pair),
        inner.map(Left),
        inner.map(Right),
        _dicts(inner, small_fractions(), 3).map(Dist),
        _dicts(inner, st.just(True), 2).map(lambda d: Dist(d, BOOLEANS)),
        _dicts(inner, inner, 2).map(table),
    )


POINTS = st.recursive(_LEAVES, _compound, max_leaves=8)


def _outcome(f, x):
    """f(x) with its repr, or the type and message of what it raised."""
    try:
        value = f(x)
    except (TypeError, ParseError) as e:
        return type(e), str(e)
    return value, repr(value)


# -- the table against the references --------------------------------------


@given(POINTS)
def test_as_point_gives_what_the_ladder_gave(x):
    assert _outcome(as_point, x) == _outcome(old_as_point, x)
    assert type(as_point(x)) is type(old_as_point(x))


@given(POINTS)
def test_as_point_is_idempotent_and_keeps_canonical_points(x):
    point = as_point(x)
    assert as_point(point) is point
    rebuilt = old_as_point(x)  # the ladder rebuilt every pair and tag
    assert as_point(rebuilt) is rebuilt


def _assert_old_order(points):
    p = Dist([(x, 1) for x in points])
    assert p.items() == old_items(p)
    for x in points:
        assert point_key(x) == point_key(as_point(x))
    for x in p.support():
        for y in p.support():
            old = old_point_key(x) < old_point_key(y)
            assert (point_key(x) < point_key(y)) == old


@given(st.lists(POINTS, max_size=6))
def test_items_follow_the_old_point_order(points):
    _assert_old_order(points)


# Few atoms and weights, so that distinct Dists and tables often share
# a support or a domain and are told apart by weights and values alone.
_CLOSE = st.one_of(
    st.dictionaries(st.sampled_from("ab"), st.sampled_from([-1, 2]), max_size=2).map(
        Dist
    ),
    st.dictionaries(st.sampled_from("ab"), st.just(True), max_size=2).map(
        lambda d: Dist(d, BOOLEANS)
    ),
    st.fixed_dictionaries({"a": st.sampled_from([0, 1, "a"])}).map(table),
)


@given(st.lists(_CLOSE, max_size=6))
def test_distributions_and_tables_order_by_content(points):
    _assert_old_order(points)


@given(st.lists(POINTS, max_size=6), st.booleans())
def test_repr_is_the_old_display_form(points, boolean):
    sr, weight = (BOOLEANS, True) if boolean else (RATIONALS, Fraction(-1, 3))
    p = Dist([(x, weight) for x in points], sr)
    assert repr(p) == old_dist_repr(p)
    assert repr(Dist({p: 2})) == old_dist_repr(Dist({p: 2}))


@given(POINTS)
def test_point_encoder_gives_what_the_ladder_gave(x):
    assert _outcome(point_to_json, x) == _outcome(old_point_to_json, x)


_ENCODED = POINTS.map(lambda x: _outcome(old_point_to_json, x)[0])


@given(st.one_of(_POINTS, _ANY_JSON, _ENCODED))
def test_point_decoder_gives_what_the_ladder_gave(obj):
    assert _outcome(point_from_json, obj) == _outcome(old_point_from_json, obj)


# -- the cases the table decides ------------------------------------------


def test_subclasses_become_their_kind():
    class Atom(str):
        def __str__(self):
            return "overridden"

    assert repr(as_point(Ratio(1, 2))) == "Fraction(1, 2)"
    assert repr(as_point(True)) == "Fraction(1, 1)"
    assert type(as_point(True).numerator) is int
    assert as_point(Pair((1, "a"))).__class__ is tuple
    assert as_point(Atom("a")).__class__ is str and as_point(Atom("a")) == "a"
    assert point_to_json(Atom("a")) == "a"


@given(POINTS)
def test_a_built_tag_is_already_its_point(x):
    for tag in (Left, Right):
        t = tag(x)
        assert as_point(t) is t
        assert as_point(t.value) is t.value
    side = as_point(Side(x))
    assert side.__class__ is Left and side == Left(x)


def test_a_tag_refuses_a_value_outside_the_universe_when_built():
    floats = "floats are not exact; use Fraction or a 'p/q' string"
    assert _outcome(Left, 1.5) == (TypeError, floats)
    assert _outcome(Right, [1]) == (TypeError, "[1] is not in the point universe")


def test_points_outside_the_universe_keep_their_errors():
    for f in (as_point, point_key):
        for x in (None, object(), [1, 2], {"a": 1}, 1j):
            assert _outcome(f, x) == (TypeError, f"{x!r} is not in the point universe")
    floats = "floats are not exact; use Fraction or a 'p/q' string"
    assert _outcome(as_point, 0.5) == (TypeError, floats)
    triple = "only pairs (2-tuples) are points"
    assert _outcome(as_point, (1, 2, 3)) == (TypeError, triple)


# -- rationals past the int-digit limit ------------------------------------

HUGE = Fraction(10**4400)  # 4,401 digits, past CPython's 4,300


def test_displays_name_an_oversized_rational_by_its_digit_count():
    shown = "<4401-digit rational>"
    assert repr(Dist({Fraction(0): HUGE})) == f"Dist({{0: {shown}}})"
    assert repr(Dist({HUGE: 1})) == f"Dist({{{shown}: 1}})"
    assert repr(Dist({(HUGE, "a"): 1})) == f"Dist({{({shown}, 'a'): 1}})"
    space = FiniteSpace(["a"])
    assert repr(FunTable(space, {"a": HUGE})) == f"FunTable({{'a': {shown}}})"
    assert repr(Left(Fraction(1, 10**4400))) == f"Left(value={shown})"
    # nested in a pair, a tag or a space's element list
    assert repr(FiniteSpace([HUGE])) == f"FiniteSpace([{shown}])"
    pair_table = FunTable(space, {"a": (HUGE, "b")})
    assert repr(pair_table) == f"FunTable({{'a': ({shown}, 'b')}})"
    assert repr(Left((HUGE, "b"))) == f"Left(value=({shown}, 'b'))"
    assert repr(Right(((HUGE, "a"), Left(HUGE)))) == (
        f"Right(value=(({shown}, 'a'), Left(value={shown})))"
    )


def test_displays_write_rationals_up_to_the_digit_limit_in_full():
    edge = Fraction(-(10**4299), 7)  # 4,300 digits
    assert repr(Dist({"a": edge})) == f"Dist({{'a': {edge.numerator}/7}})"
    assert repr(FunTable(FiniteSpace(["a"]), {"a": edge})) == (
        f"FunTable({{'a': Fraction({edge.numerator}, 7)}})"
    )
