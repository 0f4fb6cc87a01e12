from fractions import Fraction

import pytest
from hypothesis import given

from finmeas import (
    BOOLEANS,
    Dist,
    UnitError,
    UnitTagged,
    dirac,
    from_pure,
    pushforward,
    rescale_unit,
    scale,
    to_pure,
)

from .conftest import atom_dists, small_fractions


@given(atom_dists(), small_fractions().filter(lambda u: u != 0))
def test_tagging_round_trip(p, u):
    assert to_pure(from_pure(p, u)) == p


def test_rescale_with_same_unit_is_identity():
    m = from_pure(Dist({"a": 6}), Fraction(2))
    assert rescale_unit(m, Fraction(2)) == m


def test_grams_to_kilograms():
    grams = UnitTagged(Fraction(1), Dist({"a": 500, "b": 1500}))
    kilos = rescale_unit(grams, Fraction(1000))
    assert kilos.body == Dist({"a": Fraction(1, 2), "b": Fraction(3, 2)})
    assert to_pure(kilos) == to_pure(grams)


def test_zero_unit_rejected():
    with pytest.raises(UnitError):
        UnitTagged(Fraction(0), dirac("a"))
    with pytest.raises(UnitError):
        from_pure(dirac("a"), 0)


def test_boolean_unit_rejected():
    # the boolean rig has no inverses, so no boolean scalar can be a unit
    with pytest.raises(UnitError, match="cannot serve as units"):
        from_pure(Dist({"a": True}, BOOLEANS), True)


@given(atom_dists(max_size=2), small_fractions().filter(lambda u: u != 0))
def test_unit_determines_the_conversion(body, u):
    # two taggings with the same unit convert every body identically
    assert to_pure(UnitTagged(u, body)) == to_pure(UnitTagged(u, body))
    other = u + 1 if u != -1 else u + 2
    if body.is_empty():
        return
    assert to_pure(UnitTagged(u, body)) != to_pure(UnitTagged(other, body))


def test_to_pure_is_a_module_map():
    u = Fraction(3, 2)
    a, b = Dist({"x": 2}), Dist({"x": -1, "y": 4})
    assert to_pure(UnitTagged(u, a + b)) == to_pure(UnitTagged(u, a)) + to_pure(
        UnitTagged(u, b)
    )
    assert to_pure(UnitTagged(u, scale(5, a))) == scale(5, to_pure(UnitTagged(u, a)))
    f = {"x": "u", "y": "v"}.__getitem__
    assert pushforward(f, to_pure(UnitTagged(u, b))) == to_pure(
        UnitTagged(u, pushforward(f, b))
    )
