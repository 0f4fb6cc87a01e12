"""The trusted constructor `Dist._of` and the public boundary around it.

Operations whose inputs are already canonical Dists build their results
without re-canonicalizing. The public constructor stays the oracle:
every result must equal its rebuild through `Dist(...)`, hold no zero
weight, and carry rationals only as exact `Fraction`s. Floats must
still be refused at every public entry point.
"""

import ast
import copy
import pickle
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finmeas
from finmeas import (
    BOOLEANS,
    RATIONALS,
    AffineMap,
    ConditioningError,
    Dist,
    DomainError,
    FiniteSpace,
    Left,
    NoDensityError,
    NoPrimitiveError,
    NormalizationError,
    ParseError,
    Right,
    Step,
    TestFn,
    biproduct_merge,
    biproduct_split,
    condition,
    convolution_power,
    convolve,
    density,
    derivative,
    dirac,
    dist_add,
    dist_sub,
    flatten,
    fn_action,
    homothety,
    interval,
    marginals,
    moment,
    normalize,
    pair,
    primitive,
    pushforward,
    rv_sum,
    scale,
    structure_map,
    translate,
)
from finmeas.dist import FunTable, point_key, strength_left, strength_right, tensor
from finmeas.jsonio import table_to_json

from .conftest import (
    atom_dists,
    bool_dists,
    line_dists,
    nested_dists,
    small_fractions,
    tagged_dists,
)

STEPS = [Step(1), Step(Fraction(1, 2)), Step(Fraction(-2, 3))]


def rational_dists():
    return st.one_of(atom_dists(), line_dists(), tagged_dists(), nested_dists())


def any_dists():
    return st.one_of(rational_dists(), bool_dists())


def _assert_exact_point(x):
    if isinstance(x, tuple):
        _assert_exact_point(x[0])
        _assert_exact_point(x[1])
    elif isinstance(x, (Left, Right)):
        _assert_exact_point(x.value)
    elif isinstance(x, Dist):
        _assert_canonical(x)
    else:
        assert type(x) in (Fraction, str), x


def _assert_canonical(d):
    """The three oracle checks on a Dist built by the trusted route."""
    sr = d.semiring
    assert d == Dist(list(d.items()), sr)
    assert all(c != sr.zero for c in d._w.values())
    for x, c in d._w.items():
        _assert_exact_point(x)
        assert type(c) is (Fraction if sr is RATIONALS else bool), c


def _kind(x):
    """A collapsing map onto int values: the point's universe tag."""
    return point_key(x)[0]


def _parity(x):
    """A 0/1 int-valued function, usable with either semiring."""
    return len(repr(x)) % 2


# -- oracle: every routed operation gives a canonical Dist -----------------


@given(any_dists(), any_dists())
def test_monad_and_module_ops_are_canonical(p, q):
    sr = p.semiring
    _assert_canonical(pushforward(_kind, p))
    _assert_canonical(pushforward(lambda x: "one", p))
    _assert_canonical(fn_action(p, _parity))
    for c in (0, 1, 2 if sr is RATIONALS else True):
        _assert_canonical(scale(c, p))
    _assert_canonical(Dist.empty(sr))
    if q.semiring is sr:
        _assert_canonical(dist_add(p, q))
        _assert_canonical(tensor(p, q))
        _assert_canonical(biproduct_merge(p, q))
    if sr is RATIONALS:
        _assert_canonical(-p)
        _assert_canonical(dist_sub(p, p))
        if q.semiring is sr:
            _assert_canonical(dist_sub(p, q))


@given(any_dists(), st.one_of(small_fractions(), st.integers(-3, 3), st.just("a")))
def test_strengths_are_canonical(p, x):
    _assert_canonical(strength_left(x, p))
    _assert_canonical(strength_right(p, x))
    _assert_canonical(strength_right(p, p))


@given(st.one_of(nested_dists(), bool_dists().map(lambda d: Dist({d: True}, BOOLEANS))))
def test_flatten_is_canonical(pp):
    _assert_canonical(flatten(pp))


@given(tagged_dists(), tagged_dists())
def test_biproduct_is_canonical(p, q):
    left, right = biproduct_split(p)
    _assert_canonical(left)
    _assert_canonical(right)
    _assert_canonical(biproduct_merge(left, right))
    assert biproduct_merge(left, right) == p
    _assert_canonical(dist_add(p, q))


@given(line_dists(), st.sampled_from(STEPS), st.integers(-4, 4), st.integers(-4, 4))
def test_line_kernels_are_canonical(p, step, i, j):
    dp = derivative(p, step)
    _assert_canonical(dp)
    _assert_canonical(primitive(dp, step))
    _assert_canonical(interval(i * step.d, j * step.d, step))
    _assert_canonical(interval(i, i, step))


# -- no operation mutates its inputs ---------------------------------------


@given(any_dists())
def test_operations_leave_inputs_untouched(p):
    sr = p.semiring
    before = dict(p._w)
    results = [
        dist_add(p, Dist.empty(sr)),
        dist_add(Dist.empty(sr), p),
        scale(0, p),
        scale(1, p),
        pushforward(_kind, p),
        pushforward(lambda x: "one", p),
        fn_action(p, lambda x: 0),
        tensor(p, dirac("a", sr)),
        strength_left("a", p),
        biproduct_merge(p, Dist.empty(sr)),
    ]
    if sr is RATIONALS:
        results += [-p, dist_sub(p, p)]
    assert p._w == before
    assert all(r._w is not p._w for r in results)


def test_collapsing_pushforward_drops_cancelled_mass():
    p = Dist({1: 1, 2: -1, "a": 3})
    before = dict(p._w)
    image = pushforward(lambda x: 0 if isinstance(x, Fraction) else x, p)
    assert image == Dist({"a": 3})
    assert Fraction(0) not in image._w
    assert p._w == before


def test_validation_names_the_first_bad_point_in_point_order():
    # the checks walk the unsorted dict; the message must not depend on it
    with pytest.raises(DomainError, match="got 'a'"):
        marginals(Dist({"b": 1, "a": 1, (1, 2): 1}))
    with pytest.raises(DomainError, match=r"got \(Fraction\(1, 1\), 'a'\)"):
        rv_sum(Dist({(1, "z"): 1, (1, "a"): 1}))
    with pytest.raises(DomainError, match="point 'a' is not"):
        translate(Dist({"z": 1, "a": 2, 3: 1}), 1)


def test_biproduct_split_names_the_first_untagged_point_in_point_order():
    for order in (["b", Left("x"), "a"], ["a", Left("x"), "b"]):
        with pytest.raises(DomainError, match="point 'a' carries no Left/Right tag"):
            biproduct_split(Dist({x: 1 for x in order}))


# a rational past CPython's int-digit limit, which its repr cannot write
_HUGE = Fraction(1, 10**4400)

OVERSIZED_POINT_ERRORS = {
    "marginals": (DomainError, lambda: marginals(Dist({_HUGE: 1}))),
    "rv_sum": (DomainError, lambda: rv_sum(Dist({(_HUGE, "a"): 1}))),
    "flatten": (TypeError, lambda: flatten(Dist({_HUGE: 1}))),
    "line calculus": (DomainError, lambda: translate(Dist({(_HUGE, "a"): 1}), 1)),
    "biproduct_split": (DomainError, lambda: biproduct_split(Dist({_HUGE: 1}))),
    "density": (NoDensityError, lambda: density(Dist({_HUGE: 1}), Dist({"a": 1}))),
    "table call": (DomainError, lambda: FunTable(FiniteSpace(["a"]), {"a": 1})(_HUGE)),
    "interval": (NoPrimitiveError, lambda: interval(0, _HUGE, Step(1))),
    "primitive": (NoPrimitiveError, lambda: primitive(Dist({_HUGE: 1}), Step(1))),
    "rational coerce": (TypeError, lambda: pair(Dist({"a": 1}), lambda x: (_HUGE, "a"))),
    "boolean coerce": (TypeError, lambda: BOOLEANS.coerce((_HUGE, "a"))),
    "point universe": (TypeError, lambda: Dist([([_HUGE], 1)])),
    "structure_map": (TypeError, lambda: structure_map(Dist({(_HUGE, "b"): 1}))),
    "table_to_json": (
        ParseError,
        lambda: table_to_json(FunTable(FiniteSpace(["a"]), {"a": (_HUGE, "b")})),
    ),
}


@pytest.mark.parametrize(
    "error, call", OVERSIZED_POINT_ERRORS.values(), ids=OVERSIZED_POINT_ERRORS.keys()
)
def test_an_error_naming_an_oversized_rational_keeps_its_type(error, call):
    with pytest.raises(error, match="<4401-digit rational>"):
        call()


# -- floats are refused at every public entry point ------------------------

_P = Dist({1: 1, 2: Fraction(1, 2)})
_SPACE = FiniteSpace(["a", "b"])

FLOAT_CALLS = {
    "Dist point": lambda: Dist({0.5: 1}),
    "Dist weight": lambda: Dist({1: 0.5}),
    "Dist boolean weight": lambda: Dist({"a": 1.0}, BOOLEANS),
    "dirac": lambda: dirac(0.5),
    "FiniteSpace": lambda: FiniteSpace(["a", 0.5]),
    "FunTable key": lambda: FunTable(FiniteSpace([0]), {0.5: 1}),
    "FunTable value": lambda: FunTable(_SPACE, {"a": 1, "b": 0.5}),
    "pushforward": lambda: pushforward(lambda x: x / 2.0, _P),
    "scale": lambda: scale(0.5, _P),
    "fn_action": lambda: fn_action(_P, lambda x: 0.5),
    "pair": lambda: pair(_P, lambda x: 0.5),
    "translate": lambda: translate(_P, 0.5),
    "homothety": lambda: homothety(_P, 0.5),
    "Step": lambda: Step(0.5),
    "AffineMap slope": lambda: AffineMap(0.5, 0),
    "AffineMap offset": lambda: AffineMap(1, 0.5),
    "interval": lambda: interval(0, 0.5, Step(Fraction(1, 4))),
}


@pytest.mark.parametrize("call", FLOAT_CALLS.values(), ids=FLOAT_CALLS.keys())
def test_public_entry_points_reject_floats(call):
    with pytest.raises(TypeError):
        call()


# -- documented refusals ------------------------------------------------------

_B = Dist({1: True}, BOOLEANS)

REFUSALS = {
    "boolean line input": (
        DomainError, "line calculus needs rational weights", lambda: convolve(_B, _P)),
    "negative convolution power": (
        ValueError, "needs k >= 0", lambda: convolution_power(_P, -1)),
    "negative moment": (ValueError, "natural number", lambda: moment(_P, -1)),
    "density across semirings": (
        TypeError, "matching semirings", lambda: density(_B, _P)),
    "boolean density": (NoDensityError, "no division", lambda: density(_B, _B)),
    "boolean normalize": (NormalizationError, "no division", lambda: normalize(_B)),
    "boolean condition": (
        ConditioningError, "no division", lambda: condition(_B, lambda x: True)),
    "distribution-valued event": (
        TypeError, "as an exact rational scalar", lambda: condition(_P, dirac)),
    "distribution-valued event on nothing": (
        ConditioningError, "null event",
        lambda: condition(Dist.empty(), TestFn.dist_valued(dirac))),
    "repeated space element": (
        ValueError, "duplicate-free", lambda: FiniteSpace(["a", "b", "a"])),
}


@pytest.mark.parametrize(
    "error, message, call", REFUSALS.values(), ids=REFUSALS.keys()
)
def test_refused_inputs_raise_their_documented_error(error, message, call):
    with pytest.raises(error, match=message):
        call()


# -- copy and pickle -------------------------------------------------------


def _round_trips(value):
    return [
        copy.copy(value),
        copy.deepcopy(value),
        pickle.loads(pickle.dumps(value)),
    ]


@pytest.mark.parametrize(
    "value",
    [
        Dist({Left("a"): 1, (1, "b"): Fraction(-1, 2), Dist({2: 3}): 5}),
        Dist({"a": True, (1, Right(2)): True}, BOOLEANS),
    ],
    ids=["rational", "boolean"],
)
def test_dist_copies_and_pickles(value):
    for twin in _round_trips(value):
        assert twin == value
        assert twin.items() == value.items()
        assert twin.semiring is value.semiring


@pytest.mark.parametrize("sr", [RATIONALS, BOOLEANS], ids=["rational", "boolean"])
def test_module_semirings_copy_to_themselves(sr):
    assert all(twin is sr for twin in _round_trips(sr))


def test_space_and_table_copy_and_pickle():
    table = FunTable(_SPACE, {"a": Dist({1: 1}), "b": Fraction(2)})
    for value in (_SPACE, table):
        assert all(twin == value for twin in _round_trips(value))


def _attribute_users(attr):
    """The modules of the package whose source reads `.<attr>` anywhere."""
    package = Path(finmeas.__file__).parent
    return {
        path.name
        for path in package.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == attr
    }


def test_only_dist_reads_the_weights_and_few_modules_trust_them():
    assert _attribute_users("_w") == {"dist.py"}
    assert _attribute_users("_map") == {"dist.py"}
    assert _attribute_users("_of") == {"dist.py", "line.py", "laws.py"}
