"""Views of the integration pairing: the semantics functional, densities.

The pairing <P, phi> is `dist.pair`, the linear extension of phi along
the unit. Everything in this module (the semantics functional, its
inverse at the unit, densities, pointwise products of test functions)
is a view of that one weighted sum. Reweighting by a function is
`dist.fn_action`. Nothing here reads a distribution's weights directly.
"""

from __future__ import annotations

from typing import Callable

from .dist import (
    Dist,
    FiniteSpace,
    FunTable,
    TestFn,
    _mix,
    codomain_zero,
    dirac,
    pair,
)
from .errors import NoDensityError
from .scalars import RATIONALS, Semiring, _show_rational


def constant_one():
    """The constant-1 test function; pairing against it forms the total.

    Its rational 1 is coerced into the rig of the distribution it is
    paired with, and pairing it with the empty distribution gives that
    distribution's zero, as for any scalar test function."""
    return lambda x: RATIONALS.one


class Functional:
    """Integrate-against-P as a standalone map on test functions."""

    __slots__ = ("apply", "semiring")

    def __init__(self, apply: Callable, semiring: Semiring):
        self.apply = apply
        self.semiring = semiring

    def __call__(self, phi):
        return self.apply(phi)


def semantics(p: Dist) -> Functional:
    """The double-dualization view of p: the functional phi -> <p, phi>."""
    return Functional(lambda phi: pair(p, phi), p.semiring)


def eval_at_eta(functional: Functional) -> Dist:
    """Apply a functional to the tautological test function x -> dirac(x).

    Recovers the underlying distribution from its semantics; composing
    with `semantics` is the identity, which is how "there are enough test
    functions" is witnessed here.
    """
    sr = functional.semiring
    eta = TestFn.dist_valued(lambda x: dirac(x, sr), sr)
    return functional(eta)


def density(q: Dist, p: Dist) -> FunTable:
    """The pointwise ratio q/p on p's support, as a table.

    Exists when q's support is inside p's and p's weights are invertible;
    reweighting p by the result recovers q exactly.
    """
    sr = p.semiring
    if q.semiring.name != sr.name:
        raise TypeError("density requires matching semirings")
    if sr.inv is None:
        raise NoDensityError(f"{sr.name} scalars have no division")
    stray = [_show_rational(x, repr) for x in q.support() if x not in p]
    if stray:
        raise NoDensityError(f"no density: {stray[0]} outside the base support")
    table = {x: sr.mul(q[x], sr.inv(c)) for x, c in p.items()}
    return FunTable(FiniteSpace(p.support()), table)


def fn_pointwise_mul(phi, psi, semiring: Semiring = RATIONALS) -> TestFn:
    """Pointwise product of a scalar function with a function whose values
    are scalars, distributions or function tables."""

    def product(x):
        return _mix([(psi(x), semiring.coerce(phi(x)))], semiring)

    return TestFn(product, zero=codomain_zero(psi, semiring))

