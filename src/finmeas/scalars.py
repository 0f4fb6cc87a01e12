"""Exact scalar semirings.

Two instances are provided: the rational field (the main coefficient
domain) and the boolean rig (a genericity witness with no negation and
no subtraction). Rationals are fractions.Fraction values in canonical
reduced form with positive denominator. The rational operations are
integer kernels: each reads its operands' numerators and denominators,
does the textbook cross-gcd on ints, and builds its one canonical
result with `_q`, skipping Fraction's operator dispatch and the gcd of
its constructor.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import partial
from math import gcd, log10

from .errors import ParseError

# \Z, not $: `$` also matches before a final newline
RATIONAL_RE = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?\Z")


def parse_rational(text: str) -> Fraction:
    """Parse `p/q` or `p` into a reduced Fraction.

    Only the strict integer-slash-positive-integer format is accepted;
    decimals and exponents are rejected so every value stays exact. A
    literal past CPython's int-digit limit is a ParseError too.
    """
    if not isinstance(text, str) or not RATIONAL_RE.match(text):
        raise ParseError(f"not a rational literal: {text!r}")
    try:
        return Fraction(text)
    except ValueError:  # the only one a matched literal raises: too many digits
        raise ParseError(f"rational literal with too many digits: {len(text)} chars") from None


def format_rational(value: Fraction) -> str:
    """Render an exact rational as `p/q`, or just `p` when the
    denominator is 1.

    format_rational and parse_rational are mutually inverse bit-exactly.
    The value goes through the rational `coerce`, so a float is a
    TypeError rather than a binary fraction on the wire. A numerator or
    denominator past CPython's int-digit limit is a ParseError, as it is
    for parse_rational.
    """
    value = _coerce_rational(value)
    try:
        return str(value)  # a Fraction's str is p/q, or p when q is 1
    except ValueError:  # the only one str raises here: too many digits
        raise ParseError(
            f"rational with too many digits to write: {_digits(value)} digits"
        ) from None


def _show_rational(value, show=str) -> str:
    """`show(value)` for a display (a repr or an error message), where a
    rational past CPython's int-digit limit shows as `<N-digit rational>`
    instead of raising, also inside tuples and lists at any depth (their
    items shown by repr, as Python shows them). Any other value's error
    propagates."""
    try:
        return show(value)
    except ValueError:
        if isinstance(value, (int, Fraction)):
            return f"<{_digits(value)}-digit rational>"
        if value.__class__ not in (tuple, list):
            raise
    items = ", ".join([_show_rational(v, repr) for v in value])
    if value.__class__ is list:
        return f"[{items}]"
    return f"({items},)" if len(value) == 1 else f"({items})"


def _digits(value) -> int:
    """The larger decimal digit count of a rational's numerator and
    denominator, computed without writing the number."""
    n = max(abs(value.numerator), value.denominator)
    k = int(log10(n)) + 1  # float log10: at most one off
    return k + (n >= 10 ** k) - (n < 10 ** (k - 1))


def _coerce_rational(value) -> Fraction:
    if value.__class__ is Fraction:
        return value
    if isinstance(value, bool):
        return Fraction(int(value))
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"cannot use {_show_rational(value, repr)} as an exact rational scalar")


def _coerce_boolean(value) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, Fraction)) and value in (0, 1):
        return bool(value)
    raise TypeError(f"cannot use {_show_rational(value, repr)} as a boolean scalar")


class FrozenValue:
    """Base of every immutable value class, with frozen-dataclass semantics.

    The values are the semirings, the points (`Left`, `Right`,
    `FunTable`), `FiniteSpace`, `Dist`, `Step`, `AffineMap`,
    `UnitTagged` and the law-suite records (`GenConfig`, `Law`,
    `LawReport`).

    A subclass lists its fields in `_fields` (and `__slots__`).
    `FrozenValue.__init__` takes one value per field, in that order; a
    subclass that canonicalizes its arguments may instead set them
    through `object.__setattr__`. A field can then be neither assigned
    nor deleted. Equality holds only between instances of the same class
    and compares `_key()`, which hash also uses; repr shows every field;
    copy and pickle rebuild the instance by calling its class with its
    fields. These are not dataclasses because importing `dataclasses`
    pulls in `inspect`, which would add to the start-up of every CLI
    call.
    """

    __slots__ = ()
    _fields = ()

    def __init__(self, *values):
        for f, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, f, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(
            f"{f}={_show_rational(getattr(self, f), repr)}" for f in self._fields
        )
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return (type(self), FrozenValue._key(self))


class Semiring(FrozenValue):
    """A commutative semiring of scalar weights.

    `neg` is present exactly when the semiring is a ring; `inv` is a
    partial multiplicative inverse (defined away from zero) present when
    division makes sense. `coerce` canonicalizes user input and rejects
    inexact values such as floats. Equality and hash compare `name`,
    `zero` and `one` only.

    `sum(values)` is the exact n-ary sum. It is defined as the fold of
    `add` over the values starting from `zero`, and that fold is what a
    semiring built without `sum` gets. A semiring may pass a faster
    routine with the same results: the rationals sum over one common
    denominator with integer arithmetic.

    The rational `add`, `mul`, `neg`, `inv` and `sum` are integer
    kernels that give exactly what Fraction's operators give on the same
    values, and always a Fraction: an int or bool operand is read as the
    rational it names, so `RATIONALS.add(1, 2)` is `Fraction(3, 1)`.

    Precondition: no zero divisors, i.e. mul(a, b) == zero only when
    a == zero or b == zero. Distributions rely on it to build products
    of nonzero weights (tensor, the strengths, flatten's terms) without
    checking them for zeros. Both provided semirings meet it.
    """

    __slots__ = _fields = (
        "name", "zero", "one", "add", "mul", "coerce", "neg", "inv", "sum"
    )

    def __init__(self, name, zero, one, add, mul, coerce, neg=None, inv=None, sum=None):
        if sum is None:
            # a partial, not a bound method, so copy and pickle need only
            # what the other fields need
            sum = partial(_fold, add, zero)
        super().__init__(name, zero, one, add, mul, coerce, neg, inv, sum)

    def _key(self) -> tuple:
        return (self.name, self.zero, self.one)

    def sub(self, a, b):
        if self.neg is None:
            raise TypeError(f"{self.name} semiring has no subtraction")
        return self.add(a, self.neg(b))

    def __repr__(self):
        return f"Semiring({self.name})"

    def __reduce__(self):
        # The module-level semirings copy and pickle by name, so they come
        # back as the same object (the boolean operations are lambdas,
        # which pickle cannot serialize). Other instances copy field by
        # field.
        for name, value in globals().items():
            if value is self:
                return name
        return super().__reduce__()


def _fold(add, zero, values):
    acc = zero
    for v in values:
        acc = add(acc, v)
    return acc


_new = object.__new__


def _q(n: int, d: int) -> Fraction:
    """The trusted constructor: the Fraction n/d, for coprime ints n and
    d > 0, with no check and no gcd.

    It sets the two slots `_numerator` and `_denominator` that every
    CPython Fraction from 3.10 to 3.13 has, and that its own arithmetic
    reads; the CI runs the kernel test on each of those versions.
    """
    q = _new(Fraction)
    q._numerator = n
    q._denominator = d
    return q


# Each kernel reads a Fraction's two slots directly; an int or a bool has
# no slots and falls back to its numerator and denominator, so it comes
# back as a Fraction too. The try costs next to nothing when no exception
# is raised.


def _rational_add(a, b) -> Fraction:
    """a + b, as Fraction's own `_add` computes it (Knuth's cross-gcd),
    with the result built once."""
    try:
        na, da, nb, db = a._numerator, a._denominator, b._numerator, b._denominator
    except AttributeError:
        na, da, nb, db = a.numerator, a.denominator, b.numerator, b.denominator
    g = gcd(da, db)
    if g == 1:
        return _q(na * db + da * nb, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = gcd(t, g)
    if g2 == 1:
        return _q(t, s * db)
    return _q(t // g2, s * (db // g2))


def _rational_mul(a, b) -> Fraction:
    """a * b: each numerator is reduced against the other denominator
    first, so the product needs no gcd of its own."""
    try:
        na, da, nb, db = a._numerator, a._denominator, b._numerator, b._denominator
    except AttributeError:
        na, da, nb, db = a.numerator, a.denominator, b.numerator, b.denominator
    g1 = gcd(na, db)
    if g1 > 1:
        na //= g1
        db //= g1
    g2 = gcd(nb, da)
    if g2 > 1:
        nb //= g2
        da //= g2
    return _q(na * nb, da * db)


def _rational_neg(a) -> Fraction:
    try:
        return _q(-a._numerator, a._denominator)
    except AttributeError:
        return _q(-a.numerator, a.denominator)


def _rational_inv(a) -> Fraction:
    try:
        n, d = a._numerator, a._denominator
    except AttributeError:
        n, d = a.numerator, a.denominator
    if n > 0:
        return _q(d, n)
    if n < 0:
        return _q(-d, -n)
    raise ZeroDivisionError("rational inverse of zero")


def _rational_sum(values) -> Fraction:
    """The exact sum of rationals (or ints) as one canonical Fraction.

    The numerators are brought to a running common denominator, the lcm
    of the denominators seen so far, with integer arithmetic alone; only
    the result is reduced and becomes a Fraction. A Fraction add per term
    would reduce and allocate every partial sum.
    """
    n, d = 0, 1
    for v in values:
        try:
            vn, vd = v._numerator, v._denominator
        except AttributeError:
            vn, vd = v.numerator, v.denominator
        if vd == d:
            n += vn
        else:
            g = gcd(d, vd)
            if g != 1:
                vd //= g
                vn *= d // g
            else:
                vn *= d
            n = n * vd + vn
            d *= vd
    g = gcd(n, d)
    return _q(n // g, d // g)


RATIONALS = Semiring(
    name="rational",
    zero=Fraction(0),
    one=Fraction(1),
    add=_rational_add,
    mul=_rational_mul,
    coerce=_coerce_rational,
    neg=_rational_neg,
    inv=_rational_inv,
    sum=_rational_sum,
)

BOOLEANS = Semiring(
    name="boolean",
    zero=False,
    one=True,
    add=lambda a, b: a or b,
    mul=lambda a, b: a and b,
    coerce=_coerce_boolean,
)
