"""Distributions on the rational line: convolution, moments, and the
finite-difference calculus (derivative, primitive, intervals).

The whole module is specific to rational weights and rational support
points, because differences and difference quotients need a field. The
step of the calculus is an explicit parameter everywhere: every law is
supposed to hold for every nonzero step, so no global default exists.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .dist import (
    Dist,
    TestFn,
    _mix,
    _require_points,
    codomain_zero,
    dirac,
    dist_sub,
    flatten,
    fn_action,
    pair,
    pushforward,
    scale,
    tensor,
    total,
)
from .errors import DomainError, NoPrimitiveError, NormalizationError
from .scalars import RATIONALS, FrozenValue, _q, _show_rational

_rational = RATIONALS.coerce
_add, _mul = RATIONALS.add, RATIONALS.mul


def _require_line(p: Dist) -> Dist:
    if p.semiring.name != "rational":
        raise DomainError("line calculus needs rational weights")
    return _require_points(
        p, lambda x: isinstance(x, Fraction), "support point {} is not a rational"
    )


class AffineMap(FrozenValue):
    """x -> slope*x + offset; invertible exactly when slope is nonzero."""

    __slots__ = _fields = ("slope", "offset")

    def __init__(self, slope, offset):
        object.__setattr__(self, "slope", _rational(slope))
        object.__setattr__(self, "offset", _rational(offset))

    def __call__(self, x: Fraction) -> Fraction:
        return self.slope * x + self.offset


class Step(FrozenValue):
    """The (invertible) step of the difference calculus."""

    __slots__ = _fields = ("d",)

    def __init__(self, d):
        d = _rational(d)
        if d == 0:
            raise ValueError("the calculus step must be nonzero")
        object.__setattr__(self, "d", d)


def convolve(p: Dist, q: Dist) -> Dist:
    """Convolution along addition: the image of the product distribution
    under (x, y) -> x + y."""
    _require_line(p)
    _require_line(q)
    return pushforward(lambda xy: _add(xy[0], xy[1]), tensor(p, q))


def convolution_power(p: Dist, k: int) -> Dist:
    _require_line(p)  # even for k = 0, where no convolve checks p
    if k < 0:
        raise ValueError("convolution power needs k >= 0")
    acc = dirac(Fraction(0))
    for _ in range(k):
        acc = convolve(acc, p)
    return acc


def moment(p: Dist, n: int) -> Fraction:
    """The n-th moment: sum of p(x)*x**n. Moment 0 is the total."""
    _require_line(p)
    if n < 0:
        raise ValueError("moment order must be a natural number")
    # x**n of a canonical x is canonical: coprime powers stay coprime
    return pair(p, lambda x: _q(x.numerator ** n, x.denominator ** n))


def expectation(p: Dist) -> Fraction:
    return moment(p, 1)


def expectation_as_mu(p: Dist) -> Fraction:
    """Expectation computed through the monad alone.

    Each support point, being a scalar, is re-read as a mass on a
    one-point space; flattening the resulting mixture of mixtures and
    taking the total lands back in the scalars. Agreement with
    `expectation` is a law, not a definition.
    """
    _require_line(p)
    unit = "()"
    as_mass = pushforward(lambda r: scale(r, dirac(unit)), p)
    return total(flatten(as_mass))


def translate(p: Dist, a) -> Dist:
    a = _rational(a)
    return pushforward(lambda x: _add(x, a), _require_line(p))


def homothety(p: Dist, b) -> Dist:
    b = _rational(b)
    return pushforward(lambda x: _mul(b, x), _require_line(p))


def center_of_gravity(p: Dist) -> Fraction:
    """Expectation of the total-normalized distribution; affine-equivariant."""
    t = total(_require_line(p))
    if t == 0:
        raise NormalizationError("center of gravity needs a nonzero total")
    return expectation(scale(1 / t, p))


# -- difference calculus -----------------------------------------------------


def derivative(p: Dist, step: Step) -> Dist:
    """The difference quotient (translate(p, d) - p) / d.

    The result always has total 0, and its expectation is the total of p.
    """
    d = step.d
    return scale(1 / d, dist_sub(translate(p, d), p))


def fn_derivative(phi, step: Step) -> TestFn:
    """The forward difference quotient of a function on the line:
    x -> (phi(x + d) - phi(x)) / d. Works for scalar-, distribution- and
    table-valued functions alike."""
    d = step.d
    inv = 1 / d

    def diff(x):
        return _mix([(phi(x + d), inv), (phi(x), -inv)], RATIONALS)

    return TestFn(diff, zero=codomain_zero(phi, RATIONALS))


def primitive(q: Dist, step: Step) -> Dist:
    """The unique finite-support distribution whose derivative is q.

    Solvability is per translation orbit (points congruent modulo the
    step grid): walking an orbit upward, the antidifference accumulates
    -d times the running prefix sum, and the walk must return to zero by
    the end of the orbit or no finite-support solution exists. Orbit
    totals all zero is therefore the exact criterion, a sharper
    condition than total(q) = 0 alone.
    """
    _require_line(q)
    d = step.d
    orbits: dict[Fraction, list[tuple[Fraction, Fraction, Fraction]]] = {}
    for x, w in q.items():
        t = x / d
        orbits.setdefault(t - math.floor(t), []).append((t, x, w))
    out, minus_d = {}, RATIONALS.neg(d)
    for key, points in sorted(orbits.items()):
        points.sort()
        prefix = RATIONALS.zero
        for (t, x, w), (t_next, _, _) in zip(points, points[1:]):
            prefix = _add(prefix, w)
            # the accumulated value persists on every grid point from x up
            # to the next support point of q; the j-th of them is x + j*d
            if prefix != 0:
                c, y = _mul(minus_d, prefix), x
                for _ in range(int(t_next - t)):
                    out[y] = c
                    y = _add(y, d)
        prefix = _add(prefix, points[-1][2])
        if prefix != 0:
            raise NoPrimitiveError(
                f"orbit of grid offset {_show_rational(key)} has nonzero"
                f" total {_show_rational(prefix)}"
            )
    return Dist._of(out, RATIONALS)


def interval(a, b, step: Step) -> Dist:
    """The comb of step-weighted point masses filling [a, b) on the grid.

    This is the unique primitive of dirac(b) - dirac(a); it only exists
    when b - a is a whole number of steps. Its total is b - a, and for
    b below a the comb carries negative weights.
    """
    a, b = _rational(a), _rational(b)
    d = step.d
    n = (b - a) / d
    if n.denominator != 1:
        a, b, d = map(_show_rational, (a, b, d))
        raise NoPrimitiveError(f"interval endpoints {a} and {b} are not on the same step-{d} grid")
    n = n.numerator
    if n >= 0:
        return Dist._of({a + k * d: d for k in range(n)}, RATIONALS)
    return Dist._of({b + k * d: -d for k in range(-n)}, RATIONALS)


def leibniz_residual(p: Dist, phi, step: Step) -> Dist:
    """The exact defect of the product rule for the difference calculus:

        (P' |- phi  -  P |- phi')  -  (P |- phi)'

    With genuine infinitesimals the defect would vanish; with an
    invertible step it is a concrete distribution, linear in P. On a
    point mass at x it comes out as
    (phi(x+d) - phi(x)) * (dirac(x+d) - dirac(x)) / d.
    """
    _require_line(p)
    rule_rhs = dist_sub(
        fn_action(derivative(p, step), phi),
        fn_action(p, fn_derivative(phi, step)),
    )
    rule_lhs = derivative(fn_action(p, phi), step)
    return dist_sub(rule_rhs, rule_lhs)
