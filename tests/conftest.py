from fractions import Fraction

import pytest
from hypothesis import strategies as st

from finmeas import BOOLEANS, Dist, FiniteSpace, FunTable, Left, Right


def table(mapping) -> FunTable:
    """A test function given by a dict: the FunTable on exactly its keys."""
    return FunTable(FiniteSpace(mapping), mapping)


@pytest.fixture
def d6():
    return Dist({Fraction(i): Fraction(1, 6) for i in range(1, 7)})


@pytest.fixture
def abc():
    return FiniteSpace(("a", "b", "c"))


def small_fractions():
    return st.fractions(min_value=-8, max_value=8, max_denominator=8)


def atom_dists(atoms="abc", max_size=3):
    return st.dictionaries(
        st.sampled_from(list(atoms)), small_fractions(), max_size=max_size
    ).map(Dist)


def bool_dists(atoms="abc", max_size=3):
    return st.dictionaries(
        st.sampled_from(list(atoms)), st.just(True), max_size=max_size
    ).map(lambda d: Dist(d, BOOLEANS))


def line_dists(max_size=3):
    return st.dictionaries(
        small_fractions(), small_fractions(), max_size=max_size
    ).map(Dist)


def nested_dists(atoms="abc"):
    return st.dictionaries(atom_dists(atoms), small_fractions(), max_size=3).map(Dist)


def tagged_dists(atoms="abc"):
    """Distributions over Left-tagged atoms and Right-tagged rationals."""
    points = st.one_of(
        st.sampled_from(list(atoms)).map(Left), small_fractions().map(Right)
    )
    return st.dictionaries(points, small_fractions(), max_size=3).map(Dist)
