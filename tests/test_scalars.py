from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from finmeas import BOOLEANS, RATIONALS, ParseError, format_rational, parse_rational

from .conftest import small_fractions


def test_parse_reduces():
    assert parse_rational("3/6") == Fraction(1, 2)


def test_parse_integer_embedding():
    assert parse_rational("-4") == Fraction(-4)


def test_parse_already_reduced():
    assert parse_rational("7/3") == Fraction(7, 3)


@pytest.mark.parametrize(
    "bad",
    ["", "1/0", "1/-2", "1.5", "a", "1e3", " 1", "1/", "--2", "+3", "1/2\n", "3\n"],
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(ParseError):
        parse_rational(bad)


@pytest.mark.parametrize(
    "big", ["1" * 5000, "-" + "1" * 5000, "1/" + "1" * 5000],
    ids=["numerator", "negative", "denominator"],
)
def test_parse_rejects_oversized_literals(big):
    # past CPython's int-digit limit the literal is a ParseError, not a bare ValueError
    with pytest.raises(ParseError, match="digits"):
        parse_rational(big)


@pytest.mark.parametrize(
    "value", [Fraction(10 ** 4300), Fraction(-7, 10 ** 4300)], ids=["numerator", "denominator"]
)
def test_format_rejects_values_past_the_digit_limit(value):
    # the mirror of parse_rational: a ParseError with the digit count, not
    # CPython's bare ValueError about sys.set_int_max_str_digits
    with pytest.raises(ParseError, match=r"too many digits to write: 4301 digits\Z"):
        format_rational(value)


def test_format_writes_values_up_to_the_digit_limit():
    assert format_rational(Fraction(1, 10 ** 4299)) == "1/1" + "0" * 4299


@given(small_fractions())
def test_format_parse_round_trip(q):
    assert parse_rational(format_rational(q)) == q


def test_format_drops_unit_denominator():
    assert format_rational(Fraction(-4, 1)) == "-4"
    assert format_rational(Fraction(7, 3)) == "7/3"


def test_format_rejects_floats_and_keeps_exact_values():
    with pytest.raises(TypeError):
        format_rational(0.1)
    with pytest.raises(TypeError):
        format_rational(2.0)
    assert format_rational(3) == "3"
    assert format_rational(True) == "1"
    assert format_rational("6/4") == "3/2"
    assert format_rational(Fraction(-6, 4)) == "-3/2"


def test_field_arithmetic_examples():
    add = RATIONALS.add
    mul = RATIONALS.mul
    assert add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert mul(Fraction(2, 3), Fraction(3, 2)) == Fraction(1)
    assert RATIONALS.sub(Fraction(1), Fraction(1)) == Fraction(0)
    assert RATIONALS.inv(Fraction(2, 3)) == Fraction(3, 2)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        RATIONALS.inv(Fraction(0))


@given(small_fractions(), small_fractions(), small_fractions())
def test_rational_semiring_laws(a, b, c):
    sr = RATIONALS
    assert sr.add(sr.add(a, b), c) == sr.add(a, sr.add(b, c))
    assert sr.add(a, b) == sr.add(b, a)
    assert sr.mul(sr.mul(a, b), c) == sr.mul(a, sr.mul(b, c))
    assert sr.mul(a, b) == sr.mul(b, a)
    assert sr.mul(a, sr.add(b, c)) == sr.add(sr.mul(a, b), sr.mul(a, c))
    assert sr.mul(sr.zero, a) == sr.zero
    assert sr.add(a, sr.neg(a)) == sr.zero


@given(st.booleans(), st.booleans(), st.booleans())
def test_boolean_rig_laws(a, b, c):
    sr = BOOLEANS
    assert sr.add(sr.add(a, b), c) == sr.add(a, sr.add(b, c))
    assert sr.mul(a, sr.add(b, c)) == sr.add(sr.mul(a, b), sr.mul(a, c))
    assert sr.mul(sr.one, a) == a
    assert sr.add(sr.zero, a) == a
    assert sr.mul(sr.zero, a) == sr.zero


def test_boolean_rig_has_no_ring_structure():
    assert BOOLEANS.neg is None
    assert BOOLEANS.inv is None
    with pytest.raises(TypeError):
        BOOLEANS.sub(True, True)


def test_coercion_rejects_floats():
    with pytest.raises(TypeError):
        RATIONALS.coerce(0.5)
    with pytest.raises(TypeError):
        BOOLEANS.coerce(2)


def test_semiring_laws_at_full_case_count():
    # the module contract pins 1000 randomized exact-equality cases
    from finmeas import GenConfig, run_law

    cfg = GenConfig(seed=17, cases=1000)
    for name in ("scalar_field_laws", "boolean_rig_laws"):
        report = run_law(name, cfg)
        assert report.passed, report.counterexample
        assert report.cases_run == 1000


# -- the n-ary sum against the fold it is defined as ------------------------

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def fold_add(values):
    acc = RATIONALS.zero
    for v in values:
        acc = RATIONALS.add(acc, v)
    return acc


def assert_sum_is_the_fold(values):
    total = RATIONALS.sum(values)
    assert total == fold_add(values)
    assert type(total) is Fraction
    assert total.denominator > 0
    assert gcd(total.numerator, total.denominator) == 1


@given(st.lists(st.one_of(small_fractions(), st.integers(-50, 50)), max_size=40))
def test_rational_sum_is_the_fold_of_add(values):
    assert_sum_is_the_fold(values)


@given(st.lists(small_fractions(), max_size=20))
def test_rational_sum_cancels_to_exact_zero(values):
    values = values + [-v for v in reversed(values)]
    assert_sum_is_the_fold(values)
    assert RATIONALS.sum(values) == 0


@given(
    st.lists(
        st.tuples(st.integers(-1000, 1000), st.sampled_from(PRIMES)), max_size=40
    )
)
def test_rational_sum_over_pairwise_coprime_denominators(parts):
    assert_sum_is_the_fold([Fraction(n, d) for n, d in parts])


def test_rational_sum_examples():
    assert_sum_is_the_fold([])
    assert RATIONALS.sum([]) == 0
    assert_sum_is_the_fold([1, 2, 3])
    assert RATIONALS.sum([Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)]) == 1
    assert_sum_is_the_fold([Fraction(1, p) for p in PRIMES])
    assert_sum_is_the_fold([Fraction(1, 4), Fraction(-1, 4), Fraction(5, 6)])


@given(st.lists(st.booleans(), max_size=8))
def test_boolean_sum_is_the_fold_of_or(values):
    assert BOOLEANS.sum(values) is any(values)


# -- the rational kernels against Fraction's own operators ------------------

BIG = 10 ** 50

OPERANDS = st.one_of(
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)),
    st.integers(-BIG, BIG),
    st.booleans(),
    st.just(Fraction(0)),
)


def assert_same_rational(result, expected):
    # ints, not str: str is subject to the int-digit limit
    assert type(result) is Fraction
    assert result.numerator == expected.numerator
    assert result.denominator == expected.denominator
    assert hash(result) == hash(expected)


@given(OPERANDS, OPERANDS)
def test_rational_kernels_give_what_fraction_operators_give(a, b):
    fa, fb = Fraction(a), Fraction(b)
    assert_same_rational(RATIONALS.add(a, b), fa + fb)
    assert_same_rational(RATIONALS.mul(a, b), fa * fb)
    assert_same_rational(RATIONALS.neg(a), -fa)
    assert_same_rational(RATIONALS.sum([a, b, a]), fa + fb + fa)
    if fa != 0:
        assert_same_rational(RATIONALS.inv(a), 1 / fa)


def test_rational_kernels_return_fractions_for_int_operands():
    assert repr(RATIONALS.add(1, 2)) == "Fraction(3, 1)"
    assert repr(RATIONALS.mul(True, 3)) == "Fraction(3, 1)"
    assert repr(RATIONALS.neg(0)) == "Fraction(0, 1)"
    assert repr(RATIONALS.inv(-2)) == "Fraction(-1, 2)"
    assert repr(RATIONALS.sum([1, 2])) == "Fraction(3, 1)"
    for zero in (Fraction(0), 0, False):
        with pytest.raises(ZeroDivisionError):
            RATIONALS.inv(zero)
