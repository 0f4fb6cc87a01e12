from fractions import Fraction

import pytest
from hypothesis import given

from finmeas import (
    BOOLEANS,
    Dist,
    DomainError,
    FiniteSpace,
    FunTable,
    Left,
    ParseError,
    RATIONALS,
    Right,
    Semiring,
    TestFn,
    biproduct_merge,
    biproduct_split,
    dirac,
    dist_add,
    dist_sub,
    flatten,
    pair,
    pushforward,
    scale,
    total,
)
from finmeas.dist import _mix, as_point, zero_like

from .conftest import atom_dists, bool_dists, small_fractions, table


def test_dirac_is_a_unit_mass():
    assert dirac("a") == Dist({"a": 1})
    assert total(dirac("a")) == 1


def test_dirac_naturality():
    assert pushforward(str.upper, dirac("a")) == dirac("A")


def test_pushforward_collapses_fibers():
    p = Dist({"a": Fraction(1, 2), "b": Fraction(1, 2)})
    assert pushforward(lambda x: "c", p) == Dist({"c": 1})


def test_pushforward_identity():
    p = Dist({"a": 2, "b": -3})
    assert pushforward(lambda x: x, p) == p


def test_pushforward_cancellation_gives_empty():
    p = Dist({"a": 1, "b": -1})
    assert pushforward(lambda x: "c", p) == Dist.empty()
    assert pushforward(lambda x: "c", p).is_empty()


def test_flatten_scales():
    assert flatten(Dist({Dist({"a": 2}): 3})) == Dist({"a": 6})


def test_flatten_unit():
    assert flatten(Dist({dirac("a"): 1})) == dirac("a")


def test_flatten_mixture_by_hand():
    pp = Dist({Dist({"a": 1, "b": 1}): Fraction(1, 2), Dist({"b": 1}): Fraction(1, 2)})
    assert flatten(pp) == Dist({"a": Fraction(1, 2), "b": 1})


def test_flatten_rejects_plain_points():
    with pytest.raises(TypeError):
        flatten(Dist({"a": 1}))


def test_linear_extend_of_dirac_is_identity():
    p = Dist({"a": 2, "b": 5})
    assert pair(p, TestFn.dist_valued(dirac)) == p


def test_linear_extend_triangle():
    f = {"a": Dist({"u": 1}), "b": Dist({"v": 2})}
    assert pair(dirac("b"), f.__getitem__) == f["b"]


def test_linear_extend_by_hand():
    f = {"a": Dist({"u": 2}), "b": Dist({"u": 1, "v": 1})}
    p = Dist({"a": 1, "b": 3})
    assert pair(p, f.__getitem__) == Dist({"u": 5, "v": 3})


def test_total_examples():
    assert total(Dist({"a": Fraction(1, 2), "b": Fraction(1, 3)})) == Fraction(5, 6)
    assert total(Dist.empty()) == 0


def test_scale_and_add():
    p = Dist({"a": 3})
    assert scale(0, p).is_empty()
    assert scale(Fraction(2, 3), p) == Dist({"a": 2})
    assert dist_add(Dist({"a": 1}), Dist({"a": -1})).is_empty()
    assert dist_sub(p, p).is_empty()


def test_operator_sugar():
    p = Dist({"a": 1})
    q = Dist({"b": 2})
    assert p + q == Dist({"a": 1, "b": 2})
    assert (p - p).is_empty()
    assert Fraction(1, 2) * q == Dist({"b": 1})
    assert -p == Dist({"a": -1})


def test_no_subtraction_over_booleans():
    p = Dist({"a": True}, BOOLEANS)
    with pytest.raises(TypeError):
        dist_sub(p, p)


def test_semiring_mismatch_rejected():
    with pytest.raises(TypeError):
        dist_add(Dist({"a": 1}), Dist({"a": True}, BOOLEANS))


def test_equality_is_semiring_sensitive():
    assert Dist({"a": 1}) != Dist({"a": True}, BOOLEANS)


def test_points_are_canonicalized():
    assert Dist({3: 1}) == Dist({Fraction(3): 1})
    with pytest.raises(TypeError):
        Dist({0.5: 1})
    with pytest.raises(TypeError):
        Dist({("a", "b", "c"): 1})


def test_iteration_is_sorted_and_deterministic():
    p = Dist({"b": 1, Fraction(1, 2): 1, ("a", "b"): 1, Left("z"): 1})
    assert p.support() == (Fraction(1, 2), "b", ("a", "b"), Left("z"))


def test_dists_are_hashable_points():
    inner = Dist({"a": 1})
    outer = Dist({inner: Fraction(1, 2)})
    assert outer[inner] == Fraction(1, 2)


def test_weight_lookup_defaults_to_zero():
    p = Dist({"a": 1})
    assert p["missing"] == 0
    assert "a" in p and "missing" not in p


def test_biproduct_tag_partition():
    p = Dist({Left("a"): 1, Right("b"): 2})
    assert biproduct_split(p) == (Dist({"a": 1}), Dist({"b": 2}))


def _no_products(a, b):
    raise AssertionError("a zero weight must not be multiplied")


def test_zero_weights_add_no_scalar_product():
    sr = Semiring("rational", Fraction(0), Fraction(1), RATIONALS.add, _no_products,
                  RATIONALS.coerce)
    assert zero_like(Fraction(3), sr) is sr.zero
    assert _mix([(Fraction(2), sr.zero), (5, Fraction(0))], sr) is sr.zero
    assert zero_like(Fraction(3), RATIONALS) is RATIONALS.zero
    assert zero_like(True, BOOLEANS) is BOOLEANS.zero
    # every value is still coerced, so a bad one keeps its error
    with pytest.raises(ParseError, match=r"not a rational literal: 'a'\Z"):
        zero_like("a", RATIONALS)
    with pytest.raises(ParseError, match=r"not a rational literal: 'a'\Z"):
        _mix([(Fraction(1), Fraction(1)), ("a", Fraction(0))], RATIONALS)
    # the zero table and the empty distribution are as before
    assert zero_like(table({"u": 1, "v": Fraction(2, 3)}), RATIONALS) == table({"u": 0, "v": 0})
    assert zero_like(Dist({"a": 1}), RATIONALS) == Dist.empty()
    assert zero_like(Dist({"a": True}, BOOLEANS), BOOLEANS) == Dist.empty(BOOLEANS)


def test_biproduct_zero_object():
    assert biproduct_merge(Dist.empty(), Dist.empty()).is_empty()


def test_biproduct_split_needs_tags():
    with pytest.raises(DomainError):
        biproduct_split(Dist({"a": 1}))


@given(atom_dists())
def test_monad_unit_laws(p):
    assert flatten(Dist({p: 1})) == p
    assert flatten(pushforward(dirac, p)) == p


@given(atom_dists(), small_fractions())
def test_pushforward_is_linear(p, c):
    f = lambda x: "u" if x == "a" else "v"
    assert pushforward(f, scale(c, p)) == scale(c, pushforward(f, p))
    assert total(pushforward(f, p)) == total(p)


@given(bool_dists(), bool_dists())
def test_boolean_dists_behave_like_sets(p, q):
    union = dist_add(p, q)
    assert set(union.support()) == set(p.support()) | set(q.support())
    assert total(union) == (not union.is_empty())


def test_only_function_tables_join_the_point_universe():
    class LooksLikeATable:
        def _point_key(self):
            return ()

    with pytest.raises(TypeError):
        as_point(LooksLikeATable())
    with pytest.raises(TypeError):
        Dist({LooksLikeATable(): 1})
    table = FunTable(FiniteSpace(["a"]), {"a": "u"})
    assert as_point(table) is table
