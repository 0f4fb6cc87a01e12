import re
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given

import finmeas.dist

from finmeas import (
    Dist,
    DomainError,
    FiniteSpace,
    FunTable,
    Semiring,
    TestFn,
    cotensor_strength,
    dirac,
    extend_1linear,
    extend_2linear,
    extend_bilinear,
    flatten,
    pushforward,
    strength_left,
    strength_right,
    structure_map,
    tensor,
    tensor_iterated,
    total,
)
from finmeas.laws import _mixing
from finmeas.strength import extend_1linear_via_strength, extend_2linear_via_strength

from .conftest import nested_dists


def test_strength_left_on_dirac():
    assert strength_left("x", dirac("y")) == dirac(("x", "y"))


def test_strength_left_expands():
    q = Dist({"y1": 2, "y2": 3})
    assert strength_left("x", q) == Dist({("x", "y1"): 2, ("x", "y2"): 3})


def test_strength_left_at_zero():
    assert strength_left("x", Dist.empty()).is_empty()


def test_strength_right_mirrors():
    p = Dist({"x1": 2, "x2": 3})
    assert strength_right(p, "y") == Dist({("x1", "y"): 2, ("x2", "y"): 3})
    assert strength_right(dirac("x"), "y") == dirac(("x", "y"))
    assert strength_right(Dist.empty(), "y").is_empty()


def test_tensor_of_diracs():
    assert tensor(dirac("x"), dirac("y")) == dirac(("x", "y"))


def test_tensor_bilinear_expansion():
    assert tensor(Dist({"a": 2}), Dist({"b": 3})) == Dist({("a", "b"): 6})


def test_tensor_total_multiplicative():
    p = Dist({"a": Fraction(1, 2), "b": Fraction(1, 2)})
    q = Dist({"c": 3})
    assert total(tensor(p, q)) == 3


def test_tensor_iterated_unit_reduction():
    q = Dist({"u": 2, "v": -1})
    assert tensor_iterated(dirac("x"), q) == strength_left("x", q)
    assert tensor_iterated(Dist.empty(), q).is_empty()
    assert tensor_iterated(q, Dist.empty()).is_empty()


def _hamilton(p, q):
    a, b, c, d = p
    e, f, g, h = q
    return (a * e - b * f - c * g - d * h, a * f + b * e + c * h - d * g,
            a * g - b * h + c * e + d * f, a * h + b * g - c * f + d * e)


# The integer quaternions: a rig with no zero divisors whose product does
# not commute, kept out of the library, whose semirings are commutative.
QUATERNIONS = Semiring(
    "quaternion", (0, 0, 0, 0), (1, 0, 0, 0),
    lambda p, q: tuple(x + y for x, y in zip(p, q)), _hamilton, tuple,
)


def test_tensor_iterated_multiplies_in_the_other_order():
    # tensor weighs (x, y) by p(x)*q(y), tensor_iterated by q(y)*p(x):
    # over the quaternions i*j = k but j*i = -k, so Fubini fails there
    i, j = (0, 1, 0, 0), (0, 0, 1, 0)
    p, q = Dist({"a": i}, QUATERNIONS), Dist({"b": j}, QUATERNIONS)
    assert tensor(p, q) == Dist({("a", "b"): (0, 0, 0, 1)}, QUATERNIONS)
    assert tensor_iterated(p, q) == Dist({("a", "b"): (0, 0, 0, -1)}, QUATERNIONS)


def test_fun_table_is_total_and_strict():
    space = FiniteSpace(("a", "b"))
    table = FunTable(space, {"a": "u", "b": "v"})
    assert table("a") == "u"
    with pytest.raises(DomainError):
        table("c")
    with pytest.raises(DomainError):
        FunTable(space, {"a": "u"})


def test_cotensor_on_point_mass():
    dom = FiniteSpace(("a", "b"))
    g = FunTable(dom, {"a": "u", "b": "v"})
    assert cotensor_strength(dirac(g), "a") == dirac("u")


def test_cotensor_sums_fibers():
    dom = FiniteSpace(("a",))
    g = FunTable(dom, {"a": "u"})
    h = FunTable(dom, {"a": "u"})
    pf = Dist([(g, 2), (h, 3)])  # g == h, so the weights merge to 5
    assert pf == Dist({g: 5})
    assert cotensor_strength(pf, "a") == Dist({"u": 5})


def test_cotensor_distinct_tables_same_value():
    dom = FiniteSpace(("a", "b"))
    g = FunTable(dom, {"a": "u", "b": "v"})
    h = FunTable(dom, {"a": "u", "b": "w"})
    pf = Dist({g: 2, h: 3})
    assert cotensor_strength(pf, "a") == Dist({"u": 5})
    assert cotensor_strength(pf, "b") == Dist({"v": 2, "w": 3})


def test_cotensor_at_zero():
    assert cotensor_strength(Dist.empty(), "a").is_empty()


def test_extensions_restrict_to_generators():
    values = {("a", "u"): Dist({"k": 2}), ("a", "v"): Dist({"m": 1})}
    f = lambda x, y: values[(x, y)]
    assert extend_2linear(f)( "a", dirac("u")) == values[("a", "u")]
    assert extend_1linear(f)(dirac("a"), "v") == values[("a", "v")]
    assert extend_bilinear(f)(dirac("a"), dirac("u")) == values[("a", "u")]


def test_extension_matches_strength_route():
    values = {
        (x, y): Dist({"k": i, "m": -i + 1})
        for i, (x, y) in enumerate([("a", "u"), ("a", "v"), ("b", "u"), ("b", "v")])
    }
    f = TestFn.dist_valued(lambda x, y: values[(x, y)])
    q = Dist({"u": Fraction(1, 3), "v": -2})
    direct = extend_2linear(f)
    routed = extend_2linear_via_strength(f)
    assert direct("a", q) == routed("a", q)
    p = Dist({"a": 5, "b": Fraction(-1, 2)})
    direct1 = extend_1linear(f)
    routed1 = extend_1linear_via_strength(f)
    assert direct1(p, "u") == routed1(p, "u")


def test_bilinear_extension_of_unit_pairing_is_tensor():
    f = TestFn.dist_valued(lambda x, y: dirac((x, y)))
    p = Dist({"a": 2, "b": -1})
    q = Dist({"u": Fraction(1, 2)})
    assert extend_bilinear(f)(p, q) == tensor(p, q)
    assert extend_2linear(f)("a", q) == strength_left("a", q)


def test_structure_map_dispatch():
    assert structure_map(Dist({Dist({"a": 2}): 3})) == Dist({"a": 6})
    assert structure_map(Dist({Fraction(3): Fraction(1, 3)})) == 1
    assert structure_map(Dist.empty(), zero=Fraction(0)) == 0
    with pytest.raises(ValueError):
        structure_map(Dist.empty())


def test_structure_map_mixes_tables_pointwise():
    dom = FiniteSpace(("a", "b"))
    g = FunTable(dom, {"a": Fraction(1), "b": Fraction(0)})
    h = FunTable(dom, {"a": Fraction(0), "b": Fraction(2)})
    mixed = structure_map(Dist({g: 2, h: 3}))
    assert mixed("a") == 2 and mixed("b") == 6


def test_structure_map_picks_its_module_without_sorting(monkeypatch):
    dom = FiniteSpace(("a", "b"))
    g = FunTable(dom, {"a": Fraction(1), "b": Fraction(0)})
    h = FunTable(dom, {"a": Fraction(0), "b": Fraction(2)})
    scalars = Dist({Fraction(3): Fraction(1, 3), Fraction(-1): 2, Fraction(1, 2): 4})
    mixture = Dist({Dist({"b": 2}): 3, Dist({"a": 1}): 1, Dist({"c": 1}): 2})
    tables = Dist({h: 3, g: 2})
    calls = []
    point_key = finmeas.dist.point_key
    monkeypatch.setattr(
        finmeas.dist, "point_key", lambda x: calls.append(x) or point_key(x)
    )
    assert structure_map(scalars) == 1
    assert structure_map(mixture) == Dist({"a": 1, "b": 6, "c": 2})
    mixed = structure_map(tables)
    assert mixed("a") == 2 and mixed("b") == 6
    assert calls == []


def test_structure_map_names_the_first_bad_point_in_point_order():
    dom = FiniteSpace(("a",))
    g = FunTable(dom, {"a": Fraction(1)})
    h = FunTable(dom, {"a": Fraction(2)})
    p, q = Dist({"a": 1}), Dist({"b": 1})
    for order in permutations([p, g, h]):
        with pytest.raises(TypeError, match=re.escape(f"got {g!r}")):
            structure_map(Dist({x: 1 for x in order}))
    for order in permutations([Fraction(1), q, h, p]):
        with pytest.raises(TypeError, match=re.escape(f"cannot use {p!r}")):
            structure_map(Dist({x: 1 for x in order}))


def test_a_table_mixture_whose_tables_disagree_in_shape_is_a_type_error():
    dom = FiniteSpace(("a", "b"))
    g = FunTable(dom, {"a": dirac("x"), "b": Fraction(1)})
    h = FunTable(dom, {"a": Fraction(2), "b": Fraction(3)})
    for order in ((g, h), (h, g)):
        with pytest.raises(TypeError, match="mixes distribution values with scalar values"):
            structure_map(Dist([(t, 1) for t in order]))


def test_a_table_among_scalars_is_named_whatever_the_insertion_order():
    g = FunTable(FiniteSpace(("a",)), {"a": Fraction(1)})
    for order in permutations([g, Fraction(1)]):
        with pytest.raises(TypeError, match=re.escape(f"cannot use {g!r}")):
            structure_map(Dist([(x, 1) for x in order]))
    for order in permutations([g, "x"]):
        with pytest.raises(ValueError, match="not a rational literal: 'x'"):
            structure_map(Dist([(x, 1) for x in order]))


@given(nested_dists())
def test_flatten_is_linear_predicate(pp):
    lhs, rhs = _mixing(flatten, Dist({pp: 1}))
    assert lhs == rhs


def test_check_linear_on_pushforward():
    mm = Dist({Dist({"a": 1, "b": 2}): 3, Dist({"b": -1}): Fraction(1, 2)})
    lhs, rhs = _mixing(lambda p: pushforward(lambda x: "u", p), mm)
    assert lhs == rhs


def test_check_bilinear_accepts_tensor():
    # linear in each slot, with the other slot mixed down
    pp = Dist({Dist({"a": 1}): 2, Dist({"b": 1}): 1})
    qq = Dist({Dist({"u": 3}): Fraction(1, 2)})
    p, q = flatten(pp), flatten(qq)
    for g, mm in ((lambda m: tensor(m, q), pp), (lambda n: tensor(p, n), qq)):
        lhs, rhs = _mixing(g, mm)
        assert lhs == rhs


def test_check_rejects_nonlinear_map():
    # ignores its second argument, so it cannot be 2-linear unless the
    # sampled mixture happens to have total 1
    bad = lambda p, q: tensor(p, p)
    p = Dist({"a": 1})
    qq = Dist({Dist({"u": 1}): 2})  # total 2
    lhs, rhs = _mixing(lambda q: bad(p, q), qq)
    assert lhs != rhs


def test_check_accepts_zero_map():
    zero = lambda p, q: Dist.empty()
    p = Dist({"a": 1})
    qq = Dist({Dist({"u": 1}): 2})
    pp = Dist({Dist({"a": 1}): 5})
    for g, mm in ((lambda q: zero(p, q), qq), (lambda m: zero(m, "y"), pp)):
        lhs, rhs = _mixing(g, mm)
        assert lhs == rhs
