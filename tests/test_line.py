from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given

from finmeas import (
    BOOLEANS,
    AffineMap,
    Dist,
    DomainError,
    NoPrimitiveError,
    NormalizationError,
    Step,
    center_of_gravity,
    convolution_power,
    convolve,
    derivative,
    dirac,
    dist_sub,
    expectation,
    expectation_as_mu,
    fn_derivative,
    homothety,
    interval,
    leibniz_residual,
    moment,
    primitive,
    pushforward,
    total,
    translate,
)

from .conftest import line_dists

HALF = Fraction(1, 2)


def brute_force_two_dice():
    """Independent oracle: enumerate all 36 ordered pairs of a fair d6."""
    counts = Counter(i + j for i, j in product(range(1, 7), repeat=2))
    return Dist({Fraction(s): Fraction(n, 36) for s, n in counts.items()})


def test_two_dice_oracle(d6):
    two = convolve(d6, d6)
    assert two == brute_force_two_dice()
    assert two[Fraction(7)] == Fraction(6, 36)


def test_convolution_of_point_masses():
    assert convolve(dirac(Fraction(2)), dirac(Fraction(3))) == dirac(Fraction(5))


def test_convolution_unit(d6):
    assert convolve(d6, dirac(Fraction(0))) == d6


def test_convolution_rejects_atoms():
    with pytest.raises(DomainError):
        convolve(Dist({"a": 1}), dirac(Fraction(0)))


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize(
    "p", [Dist({"a": 1}), Dist({Fraction(1): True}, BOOLEANS)], ids=["atom", "boolean"]
)
def test_convolution_power_checks_its_input_for_every_k(p, k):
    # k = 0 makes no convolve, so the power checks p itself, as moment does
    with pytest.raises(DomainError):
        convolution_power(p, k)
    with pytest.raises(DomainError):
        moment(p, 0)


def test_moment_examples(d6):
    assert expectation(dirac(Fraction(5, 3))) == Fraction(5, 3)
    assert moment(d6, 0) == total(d6) == 1
    assert expectation(d6) == Fraction(7, 2)
    assert moment(d6, 2) == Fraction(91, 6)


def test_expectation_of_convolved_point_masses():
    assert expectation(convolve(Dist({1: 1}), Dist({2: 1}))) == 3


def test_expectation_as_mu_edge_cases():
    assert expectation_as_mu(dirac(Fraction(-3, 7))) == Fraction(-3, 7)
    assert expectation_as_mu(Dist.empty()) == 0


def test_translation_is_convolution():
    p = Dist({0: 1, 1: 2})
    assert translate(p, Fraction(5)) == convolve(p, dirac(Fraction(5)))


def test_homothety_on_dirac():
    assert homothety(dirac(Fraction(3)), Fraction(-2)) == dirac(Fraction(-6))


def test_affine_expectation_total_one():
    p = Dist({0: HALF, 2: HALF})
    f = AffineMap(Fraction(3), Fraction(-1))
    assert expectation(pushforward(f, p)) == f(expectation(p))


def test_center_of_gravity_by_hand():
    assert center_of_gravity(Dist({0: 1, 1: 3})) == Fraction(3, 4)
    assert center_of_gravity(dirac(Fraction(9))) == 9


def test_center_of_gravity_equivariance():
    p = Dist({0: 1, 1: 2, 3: -1})  # total 2
    f = AffineMap(HALF, Fraction(7))
    assert center_of_gravity(pushforward(f, p)) == f(center_of_gravity(p))


def test_center_of_gravity_needs_mass():
    with pytest.raises(NormalizationError):
        center_of_gravity(Dist({0: 1, 1: -1}))


def test_step_must_be_nonzero():
    with pytest.raises(ValueError):
        Step(0)


def test_derivative_of_origin_mass():
    assert derivative(dirac(Fraction(0)), Step(1)) == Dist({1: 1, 0: -1})


def test_fn_derivative_difference_quotient():
    phi = lambda x: x * x
    dphi = fn_derivative(phi, Step(1))
    assert dphi(Fraction(0)) == 1
    assert dphi(Fraction(3)) == 7


def test_fn_derivative_of_constant_vanishes():
    dphi = fn_derivative(lambda x: Fraction(5), Step(HALF))
    assert dphi(Fraction(2)) == 0


def test_primitive_of_endpoint_difference_is_interval():
    q = dirac(Fraction(1)) - dirac(Fraction(0))
    assert primitive(q, Step(HALF)) == Dist({0: HALF, HALF: HALF})


def test_primitive_of_zero_is_zero():
    assert primitive(Dist.empty(), Step(HALF)).is_empty()


def test_primitive_detects_orbit_mismatch():
    q = dirac(Fraction(1, 3)) - dirac(Fraction(0))
    with pytest.raises(NoPrimitiveError):
        primitive(q, Step(HALF))


def test_primitive_detects_unbalanced_total():
    with pytest.raises(NoPrimitiveError):
        primitive(dirac(Fraction(0)), Step(1))


def test_interval_unit_comb():
    comb = interval(0, 1, Step(HALF))
    assert comb == Dist({0: HALF, HALF: HALF})
    assert total(comb) == 1


def test_interval_empty_when_degenerate():
    assert interval(Fraction(3, 7), Fraction(3, 7), Step(HALF)).is_empty()


def test_interval_defining_equation():
    step = Step(Fraction(2, 3))
    a, b = Fraction(-2), Fraction(2, 3) * 4 - 2
    comb = interval(a, b, step)
    assert derivative(comb, step) == dirac(b) - dirac(a)
    assert total(comb) == b - a


def test_interval_reversed_orientation():
    # [1, 0] is the negated comb of [0, 1]
    comb = interval(1, 0, Step(HALF))
    assert comb == Dist({0: -HALF, HALF: -HALF})
    assert comb == -interval(0, 1, Step(HALF))
    assert total(comb) == -1
    assert derivative(comb, Step(HALF)) == dirac(Fraction(0)) - dirac(Fraction(1))


def test_interval_requires_grid_alignment():
    with pytest.raises(NoPrimitiveError):
        interval(0, Fraction(1, 3), Step(HALF))


def test_interval_power_totals():
    step = Step(Fraction(1, 4))
    half_wide = interval(-HALF, HALF, step)
    for k in range(6):
        assert total(convolution_power(half_wide, k)) == 1
    wide = interval(Fraction(-3, 2), Fraction(3, 2), Step(HALF))
    assert total(convolve(wide, wide)) == 9


def test_leibniz_residual_spec_point():
    res = leibniz_residual(dirac(Fraction(0)), lambda x: x, Step(1))
    assert res == Dist({1: 1, 0: -1})


def test_leibniz_residual_constant_fn():
    p = Dist({0: 1, HALF: -2})
    res = leibniz_residual(p, lambda x: Fraction(4), Step(HALF))
    assert res.is_empty()


@given(line_dists())
def test_leibniz_residual_closed_form_on_point_masses(p):
    # brute-force oracle for the closed form, checked termwise over p
    step = Step(Fraction(2, 3))
    d = step.d
    phi = lambda x: x * x - 2 * x
    expected = Dist.empty()
    for x, w in p.items():
        coeff = (phi(x + d) - phi(x)) / d
        expected = expected + w * coeff * dist_sub(dirac(x + d), dirac(x))
    assert leibniz_residual(p, phi, step) == expected
