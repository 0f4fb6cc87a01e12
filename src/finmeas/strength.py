"""The second Fubini tensor map and the partial-linear extensions.

Commutativity of the mixture monad is the statement that the two ways of
tensoring distributions agree. `dist.tensor` uses the direct product
formula; `tensor_iterated` rebuilds the product through nested mixtures
in the opposite extension order, so their equality is checked, not
assumed. The `extend_*` builders extend a map of two points linearly in
one or both slots, and their `_via_strength` twins build the same
extensions through the strengths and the module structure map. Nothing
here reads a distribution's weights directly.
"""

from __future__ import annotations

from .dist import (
    Dist,
    TestFn,
    _same_semiring,
    as_point,
    codomain_zero,
    flatten,
    linear_extend,
    pushforward,
    strength_left,
    strength_right,
    structure_map,
)


def tensor_iterated(p: Dist, q: Dist) -> Dist:
    """The tensor rebuilt in the opposite extension order.

    Pair each point of p with q whole, expand those inner products, and
    mix. Agreement with `tensor` on all inputs is the Fubini property of
    the monad, and is what the law suite checks.
    """
    _same_semiring(p, q)
    paired = strength_right(p, q)
    expanded = pushforward(lambda xy: strength_left(xy[0], xy[1]), paired)
    return flatten(expanded)


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
        return linear_extend(g, q)

    return extended


def extend_1linear(f):
    """Mirror of extend_2linear for the first slot."""

    def extended(p: Dist, y):
        g = TestFn(lambda x: f(x, y), codomain_zero(f, p.semiring))
        return linear_extend(g, p)

    return extended


def extend_bilinear(f):
    """Extend f(x, y) to distributions in both slots (staged: first slot
    first, then the second)."""
    second = extend_2linear(f)

    def extended(p: Dist, q: Dist):
        g = TestFn(lambda x: second(x, q), codomain_zero(f, p.semiring))
        return linear_extend(g, p)

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

