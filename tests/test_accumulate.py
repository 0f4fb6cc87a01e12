"""Zero-free construction, checked against folds written here.

A zero weight can only come from a sum, so the library drops zeros in
one accumulation routine that the constructor and every summing
operation share. `tests/test_canonical.py` uses `Dist(...)` as its
oracle, which goes through that same routine; the oracle here is a
plain dict-and-Fraction fold that shares no code with the library. The
inputs are built to cancel and reappear, e.g. [(x, a), (x, -a), (x, b)].
The routine sums a point's terms once, after the stream, so inputs with
up to 40 terms per point check those long fibers as well.

Products are never scanned for zeros, which is sound only because a
Semiring has no zero divisors; that precondition is tested here too.
"""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from finmeas import (
    BOOLEANS,
    RATIONALS,
    Dist,
    TestFn,
    dirac,
    dist_add,
    flatten,
    fn_action,
    marginals,
    pair,
    pushforward,
    scale,
    tensor,
)

from finmeas.dist import _accumulate

from .conftest import table

POINTS = st.one_of(st.sampled_from("abc"), st.integers(-2, 2).map(Fraction))
WEIGHTS = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))
NONZERO = WEIGHTS.filter(bool)


def _expand(draws):
    terms = []
    for x, a, mode, b in draws:
        terms.append((x, a))
        if mode:  # cancel the term, and with mode 2 bring the point back
            terms.append((x, -a))
            if mode == 2:
                terms.append((x, b))
    return terms


def cancelling_terms():
    """(point, weight) terms where some weights cancel and some points
    come back after cancelling."""
    draw = st.tuples(POINTS, WEIGHTS, st.integers(0, 2), WEIGHTS)
    return st.lists(draw, max_size=6).map(_expand)


def long_fibers():
    """(point, weight) terms with 3 to 40 terms at each of a few points,
    interleaved; some fibers cancel to zero, and some of those then get
    one more term, so the point comes back."""

    def build(draws):
        fibers = []
        for x, ws, mode, b in draws:
            if mode:  # make the fiber cancel, and with mode 2 come back
                ws = ws + [-sum(ws)] if sum(ws) else ws
                if mode == 2:
                    ws = ws + [b]
            fibers.append([(x, w) for w in ws])
        terms = []
        for i in range(max(map(len, fibers), default=0)):
            terms += [f[i] for f in fibers if i < len(f)]
        return terms

    fiber = st.tuples(
        POINTS, st.lists(NONZERO, min_size=3, max_size=39), st.integers(0, 2), NONZERO
    )
    return st.lists(fiber, max_size=4, unique_by=lambda t: t[0]).map(build)


def any_terms():
    return st.one_of(cancelling_terms(), long_fibers())


def fold(terms):
    """The oracle: sum the weights per point, then drop the zero sums."""
    sums = {}
    for x, c in terms:
        sums[x] = sums.get(x, Fraction(0)) + c
    return {x: c for x, c in sums.items() if c != 0}


def assert_matches(d, terms):
    expected = fold(terms)
    assert dict(d.items()) == expected
    assert all(type(c) is Fraction for _, c in d.items())


COLLAPSING_MAPS = [
    lambda x: "one",
    lambda x: x if isinstance(x, str) else x * x,
    lambda x: "a" if isinstance(x, str) else Fraction(0),
]


@given(any_terms())
def test_constructor_matches_the_fold(terms):
    assert_matches(Dist(terms), terms)


def test_cancelled_point_comes_back():
    x, a, b = "a", Fraction(3, 2), Fraction(-1, 4)
    assert dict(Dist([(x, a), (x, -a), (x, b)]).items()) == {x: b}
    assert Dist([(x, a), (x, -a)]).is_empty()


@given(any_terms(), st.sampled_from(COLLAPSING_MAPS))
def test_pushforward_matches_the_fold(terms, f):
    p = Dist(terms)
    assert_matches(pushforward(f, p), [(f(x), c) for x, c in p.items()])


@given(cancelling_terms(), cancelling_terms())
def test_dist_add_matches_the_fold(s, t):
    p, q = Dist(s), Dist(t)
    assert_matches(dist_add(p, q), list(p.items()) + list(q.items()))
    assert dist_add(p, -p).is_empty()
    assert dist_add(dist_add(p, -p), q) == q


def test_long_fiber_that_cancels_comes_back():
    x, ws = "a", [Fraction(k, k + 1) for k in range(1, 40)]
    cancelled = [(x, w) for w in ws] + [(x, -sum(ws))]
    assert Dist(cancelled).is_empty()
    assert dict(Dist(cancelled + [(x, Fraction(1, 7))]).items()) == {x: Fraction(1, 7)}
    # a point cancelled by a later run of terms, between other points
    terms = [("b", 1), (x, 2), ("c", 1), (x, -1), (x, -1), ("b", 1), (x, 3)]
    assert_matches(Dist(terms), terms)
    assert Dist(terms).items() == ((x, 3), ("b", 2), ("c", 1))


@given(any_terms(), long_fibers())
def test_long_fibers_added_into_a_filled_dict_match_the_fold(s, t):
    # what dist_add does, with many terms per point instead of one
    p = Dist(s)
    assert _accumulate(dict(p.items()), t, RATIONALS) == fold(list(p.items()) + t)
    assert_matches(dist_add(p, Dist(t)), list(p.items()) + t)


def test_marginals_of_a_40_by_40_tensor_match_the_fold():
    xs = [Fraction(i, 3) for i in range(40)]
    ys = [f"y{j}" for j in range(40)]
    p = Dist({x: Fraction(i + 1, 7 * i + 2) for i, x in enumerate(xs)})
    q = Dist({y: Fraction(j - 20, j + 1) or 1 for j, y in enumerate(ys)})
    joint = tensor(p, q)
    first, second = marginals(joint)
    items = list(joint.items())
    assert len(items) == 1600
    assert_matches(first, [(x, c) for (x, _), c in items])
    assert_matches(second, [(y, c) for (_, y), c in items])


@given(st.lists(st.tuples(cancelling_terms(), NONZERO), max_size=12))
def test_flatten_matches_the_fold(inner):
    mixture = [(Dist(terms), c) for terms, c in inner]
    if mixture:
        # the first inner distribution again, negated: it cancels out
        mixture.append((-mixture[0][0], mixture[0][1]))
    pp = Dist(mixture)
    assert_matches(
        flatten(pp), [(y, c * v) for q, c in pp.items() for y, v in q.items()]
    )


@given(cancelling_terms(), st.lists(cancelling_terms(), min_size=1, max_size=3))
def test_dist_valued_linear_extend_matches_the_fold(terms, kernel_terms):
    p = Dist(terms)
    kernels = [Dist(t) for t in kernel_terms]
    kernels += [-k for k in kernels]  # so values can cancel across points

    def f(x):
        return kernels[sum(map(ord, repr(x))) % len(kernels)]

    expected = [(y, c * v) for x, c in p.items() for y, v in f(x).items()]
    result = pair(p, TestFn.dist_valued(f))
    assert isinstance(result, Dist)
    assert_matches(result, expected)


@given(st.lists(st.tuples(POINTS, st.booleans()), max_size=60))
def test_boolean_constructor_and_sum_match_the_fold(terms):
    expected = {}
    for x, c in terms:
        expected[x] = expected.get(x, False) or c
    expected = {x: c for x, c in expected.items() if c}
    p = Dist(terms, BOOLEANS)
    assert dict(p.items()) == expected
    assert dict(dist_add(p, p).items()) == expected
    assert dict(pushforward(lambda x: "one", p).items()) == ({"one": True} if expected else {})


# -- the no-zero-divisor precondition --------------------------------------


def test_booleans_have_no_zero_divisors():
    sr = BOOLEANS
    for a, b in product((False, True), repeat=2):
        if a != sr.zero and b != sr.zero:
            assert sr.mul(a, b) != sr.zero


@given(NONZERO, NONZERO)
def test_rationals_have_no_zero_divisors(a, b):
    assert RATIONALS.mul(a, b) != RATIONALS.zero


@given(cancelling_terms())
def test_scaling_by_zero_gives_the_empty_dist(terms):
    p = Dist(terms)
    assert scale(0, p) == Dist.empty()
    assert scale(0, p).items() == ()
    q = Dist({x: True for x, _ in terms}, BOOLEANS)
    assert scale(False, q) == Dist.empty(BOOLEANS)
    assert scale(False, q).items() == ()


def test_fn_action_drops_the_points_where_phi_is_zero():
    p = Dist({"a": 2, "b": 3, "c": Fraction(-1, 2)})
    assert dict(fn_action(p, table({"a": 0, "b": 1, "c": 4})).items()) == {"b": 3, "c": -2}
    assert fn_action(p, lambda x: 0).is_empty()
    q = Dist({"a": True, "b": True}, BOOLEANS)
    assert dict(fn_action(q, lambda x: x == "a").items()) == {"a": True}


# -- linear extension needs one value shape --------------------------------

MIXED = "mixes distribution values with scalar values"


def test_linear_extend_rejects_a_distribution_then_a_scalar():
    p = Dist({"a": 1, "b": 1})
    with pytest.raises(TypeError, match=MIXED):
        pair(p, lambda x: dirac(x) if x == "a" else Fraction(1))


def test_linear_extend_rejects_a_scalar_then_a_distribution():
    p = Dist({"a": 1, "b": 1})
    with pytest.raises(TypeError, match=MIXED):
        pair(p, lambda x: Fraction(1) if x == "a" else dirac(x))


def test_dist_valued_linear_extend_rejects_a_later_scalar():
    p = Dist({"a": 1, "b": 1, "c": 1})
    with pytest.raises(TypeError, match=MIXED):
        pair(p, lambda x: Fraction(1) if x == "c" else dirac(x))


def test_dist_valued_linear_extend_rejects_mixed_semirings():
    p = Dist({"a": 1, "b": 1})
    f = lambda x: dirac(x) if x == "a" else dirac(x, BOOLEANS)
    with pytest.raises(TypeError, match="mixed scalar semirings"):
        pair(p, f)


def test_distribution_values_must_share_the_weights_semiring():
    # a rational distribution weighted by a boolean is no boolean module
    # element: the linear extension refuses it, as flatten does
    mixture = Dist({Dist({"a": Fraction(1, 2)}): True}, BOOLEANS)
    for route in (
        flatten,
        lambda m: pair(m, lambda d: d),
        lambda m: pair(m, TestFn.dist_valued(lambda d: d)),
    ):
        with pytest.raises(TypeError, match="mixed scalar semirings: boolean vs rational"):
            route(mixture)


def test_flatten_rejects_a_point_that_is_not_a_distribution():
    pp = Dist({Dist({"a": 1}): 2, "b": 1, Dist({"b": 1}): 1})
    with pytest.raises(TypeError, match="flatten needs Dist-valued points, got 'b'"):
        flatten(pp)
    mixed = Dist({Dist({"a": 1}): 1, Dist({"a": True}, BOOLEANS): 1})
    with pytest.raises(TypeError, match="mixed scalar semirings: rational vs boolean"):
        flatten(mixed)


def test_pair_rejects_a_table_of_mixed_values():
    p = Dist({"a": 1, "b": 1})
    with pytest.raises(TypeError, match=MIXED):
        pair(p, table({"a": Fraction(1), "b": dirac("b")}))
