"""The second Fubini tensor map and the partial-linear extensions.

Commutativity of the mixture monad is the statement that the two ways of
tensoring distributions agree. `dist.tensor` uses the direct product
formula p(x)*q(y); `tensor_iterated` is the linear extension (`pair`)
over q of y -> strength_right(p, y), the opposite extension order,
q(y)*p(x). So their equality, Fubini, is checked, not assumed, and it
fails over a rig whose weights do not commute. The `extend_*` builders
extend a map of two points linearly in one or both slots, and their
`_via_strength` twins build the same extensions through the strengths
and the module structure map.
Nothing here reads a distribution's weights directly.
"""

from __future__ import annotations

from .dist import (
    Dist,
    TestFn,
    _same_semiring,
    as_point,
    codomain_zero,
    pair,
    pushforward,
    strength_left,
    strength_right,
    structure_map,
)


def tensor_iterated(p: Dist, q: Dist) -> Dist:
    """The tensor rebuilt in the opposite extension order: q's weight
    first, then p's, giving {(x, y): q(y)*p(x)}.

    Extend y -> strength_right(p, y), the distribution {(x, y): p(x)},
    linearly over q with `pair`, whose weighted sum multiplies each
    inner weight p(x) by the outer weight q(y) from the left. Agreement with
    `tensor` on all inputs is the Fubini property of the monad, which
    holds exactly when the weights commute, and is what the law suite
    checks.
    """
    sr = _same_semiring(p, q)
    return pair(q, TestFn.dist_valued(lambda y: strength_right(p, y), sr))


def cotensor_strength(pf: Dist, x):
    """Evaluate a distribution over function tables at a domain point:
    the image distribution of the tables' values at x."""
    x = as_point(x)
    return pushforward(lambda table: table(x), pf)


# -- partial-linear extensions ----------------------------------------------


def extend_2linear(f):
    """Extend f(x, y), given on plain points, to accept a distribution in
    the second slot, linearly: (x, Q) -> sum of Q(y)*f(x, y). An empty Q
    gives the zero of f's codomain (declare it by making f a TestFn)."""

    def extended(x, q: Dist):
        g = TestFn(lambda y: f(x, y), codomain_zero(f, q.semiring))
        return pair(q, g)

    return extended


def extend_1linear(f):
    """Mirror of extend_2linear for the first slot."""

    def extended(p: Dist, y):
        g = TestFn(lambda x: f(x, y), codomain_zero(f, p.semiring))
        return pair(p, g)

    return extended


def extend_bilinear(f):
    """Extend f(x, y) to distributions in both slots (staged: first slot
    first, then the second)."""
    second = extend_2linear(f)

    def extended(p: Dist, q: Dist):
        g = TestFn(lambda x: second(x, q), codomain_zero(f, p.semiring))
        return pair(p, g)

    return extended


def extend_2linear_via_strength(f):
    """Independent construction of the same second-slot extension, routed
    through strength_left and the module structure map instead of a
    direct weighted sum. Used to cross-check extend_2linear."""

    def extended(x, q: Dist):
        image = pushforward(lambda xy: f(xy[0], xy[1]), strength_left(x, q))
        return structure_map(image, zero=codomain_zero(f, q.semiring))

    return extended


def extend_1linear_via_strength(f):
    def extended(p: Dist, y):
        image = pushforward(lambda xy: f(xy[0], xy[1]), strength_right(p, y))
        return structure_map(image, zero=codomain_zero(f, p.semiring))

    return extended

