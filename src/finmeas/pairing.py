"""Integration pairing, the semantics functional, and the function action.

The pairing <P, phi> integrates a test function against a distribution;
everything else in this module (reweighting by a function, densities,
conditioning support, Frobenius reciprocity) is a view of that one
weighted sum.
"""

from __future__ import annotations

from typing import Callable, Mapping

from .dist import (
    Dist,
    FiniteSpace,
    FunTable,
    as_point,
    dirac,
    linear_extend,
    pushforward,
    scale_value,
    total,
    zero_like,
)
from .errors import DomainError, NoDensityError
from .scalars import RATIONALS, Semiring


class TestFn:
    """A test function: points to scalars or to distributions.

    Wrapping a callable in a TestFn records the codomain's zero, which is
    what the pairing must return against the empty distribution. Bare
    callables, mappings and FunTables are accepted throughout this module
    too; they default to scalar codomain in the empty case.
    """

    __slots__ = ("fn", "zero", "label")
    __test__ = False  # not a pytest class, despite the name

    def __init__(self, fn: Callable, zero=None, label=None):
        self.fn = fn
        self.zero = zero
        self.label = label

    def __repr__(self):
        return f"TestFn({self.label or self.fn!r})"

    @classmethod
    def scalar(cls, fn, semiring: Semiring = RATIONALS) -> "TestFn":
        return cls(fn, zero=semiring.zero)

    @classmethod
    def dist_valued(cls, fn, semiring: Semiring = RATIONALS) -> "TestFn":
        return cls(fn, zero=Dist.empty(semiring))

    @classmethod
    def from_table(cls, table: FunTable, semiring: Semiring = RATIONALS) -> "TestFn":
        zero = next(
            (zero_like(v, semiring) for v in table.values()), semiring.zero
        )
        return cls(table, zero=zero)

    def __call__(self, x):
        return self.fn(x)


def constant_one(semiring: Semiring = RATIONALS) -> TestFn:
    """The constant-1 test function; pairing against it forms the total."""
    return TestFn(lambda x: semiring.one, zero=semiring.zero)


def apply_fn(phi, x):
    """Evaluate phi (callable, TestFn, FunTable or mapping) at a point."""
    if isinstance(phi, Mapping):
        x = as_point(x)
        if x not in phi:
            raise DomainError(f"test function undefined at {x!r}")
        return phi[x]
    return phi(x)


def _on_points(phi):
    """phi as a callable on canonical points, resolved once: a mapping
    becomes its lookup, anything else is returned as is."""
    if not isinstance(phi, Mapping):
        return phi

    def lookup(x):
        if x not in phi:
            raise DomainError(f"test function undefined at {x!r}")
        return phi[x]

    return lookup


def codomain_zero(phi, semiring: Semiring = RATIONALS):
    """Best-effort zero of phi's codomain: an explicit TestFn zero, or the
    zero matching a table's values; None when nothing is known."""
    z = getattr(phi, "zero", None)
    if z is not None:
        return z
    if isinstance(phi, FunTable):
        return next(
            (zero_like(v, semiring) for v in phi.values()), semiring.zero
        )
    return None


def pair(p: Dist, phi, zero=None):
    """The integration pairing: sum of p(x)*phi(x) over the support.

    phi must be defined on all of p's support; its values may be scalars
    or distributions (the two module shapes in use). The pairing against
    a globally defined phi is nothing but the linear extension of phi,
    so that is literally how it is computed. For empty p the result is
    `zero` if given, else the codomain zero recorded on phi, else the
    scalar zero.
    """
    if zero is None:
        zero = codomain_zero(phi, p.semiring)
    return linear_extend(_on_points(phi), p, zero=zero)


class Functional:
    """Integrate-against-P as a standalone map on test functions."""

    __slots__ = ("apply", "semiring")

    def __init__(self, apply: Callable, semiring: Semiring):
        self.apply = apply
        self.semiring = semiring

    def __call__(self, phi, zero=None):
        return self.apply(phi, zero)


def semantics(p: Dist) -> Functional:
    """The double-dualization view of p: the functional phi -> <p, phi>."""
    return Functional(lambda phi, zero=None: pair(p, phi, zero=zero), p.semiring)


def eval_at_eta(functional: Functional) -> Dist:
    """Apply a functional to the tautological test function x -> dirac(x).

    Recovers the underlying distribution from its semantics; composing
    with `semantics` is the identity, which is how "there are enough test
    functions" is witnessed here.
    """
    sr = functional.semiring
    eta = TestFn.dist_valued(lambda x: dirac(x, sr), sr)
    return functional(eta)


def fn_action(p: Dist, phi) -> Dist:
    """Reweight p pointwise by a scalar-valued function: {x: p(x)*phi(x)}.

    Points where phi is zero drop out; the other products are nonzero
    because a Semiring has no zero divisors.
    """
    sr = p.semiring
    mul, coerce, zero, phi = sr.mul, sr.coerce, sr.zero, _on_points(phi)
    w = {}
    for x, c in p._w.items():
        v = coerce(phi(x))
        if v != zero:
            w[x] = mul(c, v)
    return Dist._of(w, sr)


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
    stray = [x for x in q.support() if x not in p]
    if stray:
        raise NoDensityError(f"no density: {stray[0]!r} outside the base support")
    table = {x: sr.mul(q[x], sr.inv(c)) for x, c in p.items()}
    return FunTable(FiniteSpace(p.support()), table)


def fn_pointwise_mul(phi, psi, semiring: Semiring = RATIONALS) -> TestFn:
    """Pointwise product of a scalar function with a (scalar- or
    distribution-valued) function."""
    zero = codomain_zero(psi, semiring)

    def product(x):
        return scale_value(semiring, semiring.coerce(apply_fn(phi, x)), apply_fn(psi, x))

    return TestFn(product, zero=zero)


def check_switch(p: Dist, phi, psi) -> bool:
    """Does <p |- phi, psi> equal <p, phi*psi> on this instance?"""
    lhs = pair(fn_action(p, phi), psi)
    rhs = pair(p, fn_pointwise_mul(phi, psi, p.semiring))
    return lhs == rhs


def check_frobenius(f, p: Dist, phi) -> bool:
    """Does pushing forward then reweighting equal reweighting the
    pullback then pushing forward, on this instance?"""
    lhs = fn_action(pushforward(f, p), phi)
    rhs = pushforward(f, fn_action(p, lambda x: apply_fn(phi, f(x))))
    return lhs == rhs


def pairing_equals_action_total(p: Dist, phi) -> bool:
    """Does <p, phi> equal total(p |- phi) on this instance?"""
    return pair(p, phi, zero=p.semiring.zero) == total(fn_action(p, phi))
