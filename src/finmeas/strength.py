"""Strengths, the two Fubini tensor maps, and partial-linear extensions.

Commutativity of the mixture monad is the statement that the two ways of
tensoring distributions agree. `tensor` uses the direct product formula;
`tensor_iterated` rebuilds the product through nested mixtures in the
opposite extension order, so their equality is checked, not assumed.
"""

from __future__ import annotations

from itertools import product

from .dist import (
    Dist,
    FiniteSpace,
    FunTable,
    TestFn,
    _same_semiring,
    as_point,
    codomain_zero,
    flatten,
    linear_extend,
    pushforward,
)
from .errors import DomainError


def enumerate_tables(domain: FiniteSpace, codomain: FiniteSpace, limit: int | None = 64):
    """All functions domain -> codomain as FunTables, in a fixed order.

    Raises ValueError past `limit` functions; exhaustive enumeration is
    only meant for small spaces.
    """
    count = len(codomain) ** len(domain) if len(domain) else 1
    if limit is not None and count > limit:
        raise ValueError(f"{count} functions exceed the enumeration limit {limit}")
    tables = []
    for values in product(codomain.elements, repeat=len(domain)):
        tables.append(FunTable(domain, dict(zip(domain.elements, values))))
    return tables


# -- tensorial strengths -----------------------------------------------------


def strength_left(x, q: Dist) -> Dist:
    """Let the plain point x ride along on the left of the distribution q:
    the distribution {(x, y): q(y)}."""
    x = as_point(x)
    return Dist._of({(x, y): c for y, c in q._w.items()}, q.semiring)


def strength_right(p: Dist, y) -> Dist:
    """Mirror of strength_left: {(x, y): p(x)} for a fixed right point y."""
    y = as_point(y)
    return Dist._of({(x, y): c for x, c in p._w.items()}, p.semiring)


def tensor(p: Dist, q: Dist) -> Dist:
    """Product distribution {(x, y): p(x)*q(y)} (the direct formula)."""
    sr = _same_semiring(p, q)
    mul, q_items = sr.mul, q._w.items()
    return Dist._of(
        {(x, y): mul(c, d) for x, c in p._w.items() for y, d in q_items}, sr
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


# -- module structure maps ----------------------------------------------------


def structure_map(d: Dist, zero=None):
    """Evaluate a distribution over module elements down to one element.

    Dist-valued points mix by flatten; scalar points take the weighted
    sum of the points themselves; function tables mix pointwise (the
    canonical algebra on a function space). An empty distribution names
    no module, so its result is the caller's `zero`.

    The first point in point order names the module. An error for a
    point outside it names the first such point in point order, and
    only that error path sorts the support.
    """
    if d.is_empty():
        if zero is None:
            raise ValueError("structure_map of empty distribution needs zero=")
        return zero
    points = d._w
    # the point table (`dist._KINDS`) ranks every other point before
    # distributions, and distributions before tables
    if all(isinstance(x, (Dist, FunTable)) for x in points):
        if all(isinstance(x, FunTable) for x in points):
            return _table_mixture(d)
        return flatten(d)
    sr = d.semiring
    mul, coerce = sr.mul, sr.coerce
    try:
        return sr.sum([mul(c, coerce(x)) for x, c in points.items()])
    except (TypeError, ValueError):
        for x in d.support():
            coerce(x)  # raises for the first bad point in point order
        raise


def _table_mixture(d: Dist) -> FunTable:
    tables = iter(d._w)
    domain = next(tables).domain
    if any(t.domain != domain for t in tables):
        raise DomainError("cannot mix tables over different domains")
    return FunTable(domain, {x: linear_extend(lambda t: t(x), d) for x in domain})


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

