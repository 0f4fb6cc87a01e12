"""The immutable value classes, all built on `FrozenValue`: the points,
`FiniteSpace`, `Dist`, the semirings and the law-suite records. Equality,
hash, repr, copy and pickle match what frozen dataclasses gave, without
importing `dataclasses`, and no field can be assigned or deleted."""

import copy
import operator
import pickle
from fractions import Fraction

import pytest

from finmeas import (
    BOOLEANS,
    RATIONALS,
    AffineMap,
    Dist,
    FiniteSpace,
    FunTable,
    GenConfig,
    Left,
    LawReport,
    Right,
    Semiring,
    Step,
    UnitError,
    UnitTagged,
)
from finmeas.dist import point_key

HALF = Fraction(1, 2)


def _values():
    """Fresh instances on each call, so two calls give equal twins."""
    return [
        Left(Fraction(1)),
        Right("a"),
        Left((Fraction(1), "b")),
        Step(HALF),
        AffineMap(HALF, 3),
        UnitTagged(2, Dist({"a": 1})),
        FiniteSpace(["a", HALF]),
        FunTable(FiniteSpace(["a", "b"]), {"a": HALF, "b": Dist({"c": 1})}),
        Dist({"a": HALF, Left("b"): Fraction(-2)}),
        GenConfig(seed=3, cases=7),
        LawReport("fubini", "a statement", 4, False, "P=...; lhs != rhs"),
    ]


NAMES = [type(v).__name__ for v in _values()]


@pytest.mark.parametrize("value, twin", zip(_values(), _values()), ids=NAMES)
def test_equal_twins_hash_alike(value, twin):
    assert twin is not value
    assert twin == value and not (twin != value)
    assert hash(twin) == hash(value)


def test_hash_is_the_hash_of_the_compared_fields():
    assert hash(Left(HALF)) == hash((HALF,))
    assert hash(AffineMap(HALF, 3)) == hash((HALF, Fraction(3)))
    assert hash(FiniteSpace(["a"])) == hash((("a",),))
    table = FunTable(FiniteSpace(["a", "b"]), {"b": 2, "a": HALF})
    assert hash(table) == hash((FiniteSpace(["a", "b"]), (HALF, Fraction(2))))
    assert hash(GenConfig()) == hash((0, 200, 4, 8, 3))
    assert hash(RATIONALS) == hash(("rational", Fraction(0), Fraction(1)))


def test_equality_needs_the_same_class():
    assert Left(Fraction(1)) != Right(Fraction(1))
    assert Right(Fraction(1)) != Left(Fraction(1))
    assert Left(Fraction(1)) != (Fraction(1),)
    assert Step(1) != AffineMap(1, 0)
    assert FiniteSpace(["a"]) != ("a",)
    assert Dist({"a": 1}) != {"a": 1}
    assert len({Left("x"), Right("x")}) == 2


def test_fields_are_compared():
    assert Step(Fraction(1, 2)) == Step("1/2")
    assert Step(HALF) != Step(Fraction(1, 3))
    assert AffineMap(1, 2) != AffineMap(2, 1)
    assert Left(Fraction(1)) != Left(Fraction(2))
    assert UnitTagged(2, Dist({"a": 1})) != UnitTagged(2, Dist({"a": 2}))
    assert UnitTagged(2, Dist({"a": 1})) != UnitTagged(3, Dist({"a": 1}))
    assert FiniteSpace(["a", "b"]) != FiniteSpace(["b", "a"])
    space = FiniteSpace(["a", "b"])
    assert FunTable(space, {"a": 1, "b": 2}) != FunTable(space, {"a": 2, "b": 1})
    assert FunTable(space, {"a": 1, "b": 2}) == FunTable(space, {"b": 2, "a": 1})
    assert GenConfig(seed=1) != GenConfig(seed=2)
    assert LawReport("x", "s", 1, True) != LawReport("x", "s", 1, False)


def test_equal_tables_print_alike_inside_a_dist():
    space = FiniteSpace(["a"])
    tables = [FunTable(space, {"a": v}) for v in (1, Fraction(1), True)]
    assert tables[0] == tables[1] == tables[2]
    reprs = {repr(Dist({t: 1})) for t in tables}
    assert reprs == {"Dist({FunTable({'a': Fraction(1, 1)}): 1})"}
    assert all(type(t("a")) is Fraction for t in tables)


def test_semiring_compares_name_zero_and_one_only():
    twin = Semiring("rational", Fraction(0), Fraction(1), None, None, None)
    assert twin == RATIONALS
    assert hash(twin) == hash(RATIONALS)
    assert RATIONALS != BOOLEANS


def test_repr():
    assert repr(Left(Fraction(1))) == "Left(value=Fraction(1, 1))"
    assert repr(Right("a")) == "Right(value='a')"
    assert repr(Step(HALF)) == "Step(d=Fraction(1, 2))"
    assert repr(AffineMap(HALF, 3)) == (
        "AffineMap(slope=Fraction(1, 2), offset=Fraction(3, 1))"
    )
    assert repr(UnitTagged(2, Dist({"a": 1}))) == (
        "UnitTagged(unit=Fraction(2, 1), body=Dist({'a': 1}))"
    )
    assert repr(RATIONALS) == "Semiring(rational)"
    assert repr(FiniteSpace(["a", HALF])) == "FiniteSpace(['a', Fraction(1, 2)])"
    table = FunTable(FiniteSpace(["a", "b"]), {"a": HALF, "b": Dist({"c": 1})})
    assert repr(table) == "FunTable({'a': Fraction(1, 2), 'b': Dist({'c': 1})})"
    assert repr(Dist({"a": HALF, Left(1): -2})) == "Dist({'a': 1/2, Left(1): -2})"
    assert repr(Dist({"a": True}, BOOLEANS)) == "Dist({'a': True}, boolean)"
    assert repr(GenConfig()) == (
        "GenConfig(seed=0, cases=200, max_support=4, coefficient_bound=8, space_size=3)"
    )
    assert repr(LawReport("fubini", "s", 2, True)) == (
        "LawReport(law='fubini', statement='s', cases_run=2, passed=True, "
        "counterexample=None)"
    )


@pytest.mark.parametrize("value", _values() + [RATIONALS], ids=NAMES + ["Semiring"])
def test_immutable(value):
    field = type(value)._fields[0]
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, 5)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert getattr(value, field) is before


@pytest.mark.parametrize(
    "value",
    [Left(Fraction(1)), Right((HALF, "a")), Step(HALF), AffineMap(HALF, 3)] + _values()[-5:],
    ids=lambda v: type(v).__name__,
)
def test_copy_and_pickle_round_trip(value):
    assert copy.copy(value) == value
    assert copy.deepcopy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value


# Built from module-level functions and without `sum`, so every field
# pickles by reference and the semiring falls back to the fold over `add`.
OR_AND = Semiring("or-and", False, True, operator.or_, operator.and_, bool)


def test_user_semiring_without_sum_copies_and_pickles():
    for twin in (
        copy.copy(OR_AND),
        copy.deepcopy(OR_AND),
        pickle.loads(pickle.dumps(OR_AND)),
    ):
        assert twin == OR_AND
        assert (twin.add, twin.mul, twin.coerce, twin.neg, twin.inv) == (
            operator.or_, operator.and_, bool, None, None
        )
        assert twin.sum([False, True, False]) is True
        assert twin.sum([]) is False
        assert dict(Dist([("a", True), ("a", True), ("a", True)], twin).items()) == {"a": True}


def test_module_semirings_copy_and_pickle_as_themselves():
    for sr in (RATIONALS, BOOLEANS):
        assert copy.copy(sr) is sr
        assert copy.deepcopy(sr) is sr
        assert pickle.loads(pickle.dumps(sr)) is sr


def test_constructors_canonicalize_and_validate():
    assert Step("1/2").d == HALF
    assert AffineMap("1/2", 3).offset == Fraction(3)
    assert UnitTagged("1/2", Dist({"a": 1})).unit == HALF
    with pytest.raises(ValueError):
        Step(0)
    with pytest.raises(TypeError):
        Step(0.5)
    with pytest.raises(UnitError):
        UnitTagged(0, Dist({"a": 1}))
    with pytest.raises(UnitError):
        UnitTagged(True, Dist({"a": True}, BOOLEANS))


def test_tables_of_one_function_are_equal_whatever_their_domain_order():
    mapping = {"a": HALF, "b": Fraction(2)}
    t = FunTable(FiniteSpace(["a", "b"]), mapping)
    u = FunTable(FiniteSpace(["b", "a"]), mapping)
    assert t == u and hash(t) == hash(u) and repr(t) == repr(u)
    assert t.domain == u.domain == FiniteSpace(["a", "b"])
    assert len(Dist([(t, 1), (u, 2)])) == 1
    assert point_key(t) == point_key(u)
