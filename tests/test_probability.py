from fractions import Fraction

import pytest

from finmeas import (
    ConditioningError,
    Dist,
    DomainError,
    FiniteSpace,
    FunTable,
    NormalizationError,
    condition,
    constant_one,
    convolve,
    dirac,
    expectation,
    indicator,
    is_event_table,
    is_independent,
    is_probability,
    marginals,
    normalize,
    pair,
    rv_sum,
    scale,
    tensor,
)


def test_normalize_uniform():
    assert normalize(Dist({"a": 2, "b": 2})) == Dist(
        {"a": Fraction(1, 2), "b": Fraction(1, 2)}
    )


def test_dirac_is_probability():
    assert is_probability(dirac("x"))


def test_normalize_rejects_zero_total():
    with pytest.raises(NormalizationError):
        normalize(Dist.empty())
    with pytest.raises(NormalizationError):
        normalize(Dist({"a": 1, "b": -1}))


def test_condition_uniform_die_on_even(d6):
    even = indicator(lambda x: x.denominator == 1 and x.numerator % 2 == 0)
    conditioned = condition(d6, even)
    third = Fraction(1, 3)
    assert conditioned == Dist({Fraction(2): third, Fraction(4): third, Fraction(6): third})


def test_conditional_pairing_ratio(d6):
    even = indicator(lambda x: x.numerator % 2 == 0)
    at_least_four = indicator(lambda x: x >= 4)
    assert pair(condition(d6, even), at_least_four) == Fraction(2, 3)


def test_condition_on_sure_event_is_identity(d6):
    assert condition(d6, constant_one()) == d6


def test_condition_on_null_event_raises(d6):
    never = indicator(lambda x: False)
    with pytest.raises(ConditioningError):
        condition(d6, never)


def test_event_table_validation():
    space = FiniteSpace(("a", "b"))
    good = FunTable(space, {"a": Fraction(1), "b": Fraction(0)})
    bad = FunTable(space, {"a": Fraction(1, 2), "b": Fraction(0)})
    assert is_event_table(good)
    assert not is_event_table(bad)


def test_marginals_of_tensor_recover_factors():
    p = Dist({"a": Fraction(1, 4), "b": Fraction(3, 4)})
    q = Dist({"u": Fraction(1, 2), "v": Fraction(1, 2)})
    j = tensor(p, q)
    assert is_probability(j)
    assert marginals(j) == (p, q)
    assert is_independent(j)


def test_correlated_joint_is_dependent():
    j = Dist({(0, 0): Fraction(1, 2), (1, 1): Fraction(1, 2)})
    m1, m2 = marginals(j)
    assert m1 == Dist({0: Fraction(1, 2), 1: Fraction(1, 2)}) == m2
    assert not is_independent(j)


def test_marginals_need_pairs():
    with pytest.raises(DomainError):
        marginals(Dist({"a": 1}))


def test_rv_sum_of_two_dice(d6):
    j = tensor(d6, d6)
    assert rv_sum(j) == convolve(d6, d6)
    assert rv_sum(j)[Fraction(7)] == Fraction(6, 36)


def test_rv_sum_of_correlated_joint():
    j = Dist({(0, 0): Fraction(1, 2), (1, 1): Fraction(1, 2)})
    s = rv_sum(j)
    assert s == Dist({0: Fraction(1, 2), 2: Fraction(1, 2)})
    m1, m2 = marginals(j)
    assert expectation(s) == 1 == expectation(m1) + expectation(m2)


def test_rv_sum_of_point_mass():
    assert rv_sum(dirac((Fraction(2), Fraction(5)))) == dirac(Fraction(7))


def test_rv_sum_needs_rational_pairs():
    with pytest.raises(DomainError):
        rv_sum(Dist({("a", "b"): 1}))


def test_total_one_not_closed_under_scaling(d6):
    assert not is_probability(scale(2, d6))


def test_negative_weights_can_total_one():
    assert is_probability(Dist({0: Fraction(3, 2), 1: Fraction(-1, 2)}))
