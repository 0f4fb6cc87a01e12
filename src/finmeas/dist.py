"""Finite-support distributions and every operation that reads their weights.

A Dist is a finite map from support points to nonzero scalars of some
exact semiring. Points live in a closed value universe: rationals,
string atoms, pairs, Left/Right tagged points, nested Dist values
(needed for mixtures of mixtures), and function tables. The universe is
totally ordered, rationals < atoms < pairs < Left < Right < distributions
< tables, so every distribution iterates and prints deterministically.
Tags, distributions and tables are canonical from construction, so
`as_point` walks only numbers, atoms and pairs.

Construction contract: a zero weight can only come from a sum, so zeros
are dropped in exactly one place, `_accumulate`, which every summing
operation (the public constructor, pushforward, dist_add and the
distribution sums of `_mix`) goes through. It sums each point's
colliding terms once, after the whole stream, with the semiring's n-ary
`sum`, and drops the sums that are zero. Scalar sums (`total` and the
scalar sums of `_mix`) call `sum` once too. Every other operation
builds its result with `Dist._of`, which adopts its dict without a
scan: negation, the biproduct and the strengths cannot make a zero,
`scale` and `fn_action` skip a zero factor, and `tensor`'s products of
nonzero weights stay nonzero because a Semiring has no zero divisors.
The weights dict `_w` is read only in this module: every operation that
reads a Dist's stored weights, from the monad and the strengths to
`structure_map`, lives here. Outside it, `_of` is called
only by the line kernels `primitive` and `interval`, which cannot make a
zero either, and by the law suite's `dist` draw spec.

One weighted sum: `_mix` sums (module element, weight) pairs in the
module the elements live in, distributions through `_accumulate`,
function tables pointwise and scalars with `sum`. It alone decides a
sum's rig, since a distribution summed must be over the weights'
semiring, and its zero, since `zero_like(v, sr)` is 0*v. Two functions
sum through it here: `pair`, the linear extension (so the pairing, the
moments, `eval_at_eta` and the `extend_*` builders), and
`structure_map`, of which `flatten` is the case of distributions. The
test-function helpers `line.fn_derivative` and
`pairing.fn_pointwise_mul` are the only importers outside this module.

Test functions: a test function is any callable on points, with scalar
values unless it says otherwise; its values may be scalars,
distributions or function tables. A FunTable's codomain is read off its
values, and a TestFn declares its codomain's zero (`TestFn.dist_valued`
for distribution values). `codomain_zero` alone works that zero out,
as `zero_like` of a table's value, and `pair` of the empty
distribution with f returns it.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from typing import Iterable, Mapping, Tuple

from .errors import DomainError
from .scalars import RATIONALS, FrozenValue, Semiring, _show_rational


class _Tagged(FrozenValue):
    """A point tagged with the side of a biproduct it belongs to.

    The value is stored canonical, so a built tag is already a point. Its
    hash is computed once, from the canonical value, and kept in `_hash`."""

    _fields = ("value",)
    __slots__ = _fields + ("_hash",)

    def __init__(self, value):
        value = as_point(value)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "_hash", hash((value,)))

    # Spelled out rather than inherited: every Dist over tagged points
    # hashes and compares its points, and the generic field loop costs
    # about a fifth of a mixture-heavy workload.
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.value,) == (other.value,)
        return NotImplemented

    def __hash__(self):
        return self._hash


class Left(_Tagged):
    __slots__ = ()


class Right(_Tagged):
    __slots__ = ()


class FiniteSpace(FrozenValue):
    """An explicit finite list of points, duplicate-free, in a fixed order.

    Used wherever functions must be enumerated or tabulated exhaustively.
    """

    _fields = ("elements",)
    __slots__ = _fields + ("_ordered",)  # a cache, unset until first read

    def __init__(self, elements: Iterable):
        elems = tuple(as_point(x) for x in elements)
        if len(set(elems)) != len(elems):
            raise ValueError("FiniteSpace elements must be duplicate-free")
        object.__setattr__(self, "elements", elems)

    def _in_point_order(self) -> "FiniteSpace":
        """The same points in point order: this space itself if they are."""
        try:
            return self._ordered
        except AttributeError:  # first read: sort once and cache
            elems = tuple(sorted(self.elements, key=point_key))
            ordered = self
            if elems != self.elements:  # canonical and distinct already: no checks
                ordered = object.__new__(FiniteSpace)
                FrozenValue.__init__(ordered, elems)
            object.__setattr__(self, "_ordered", ordered)
            return ordered

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __contains__(self, x):
        return as_point(x) in self.elements

    def __repr__(self):
        return f"FiniteSpace({_show_rational(list(self.elements), repr)})"


class FunTable(FrozenValue):
    """A total function on a FiniteSpace, given by an explicit table.

    Tables are immutable and hashable, so a distribution over function
    tables is itself a valid Dist. The domain and the map are stored in
    point order, whatever order they were given in, so equal functions
    are equal tables and show alike. Calling a table outside its domain
    is a DomainError.
    """

    __slots__ = _fields = ("domain", "_map")

    def __init__(self, domain: FiniteSpace, mapping: Mapping):
        # values are points too, stored canonical
        given = {as_point(x): as_point(v) for x, v in mapping.items()}
        if given.keys() != set(domain.elements):
            raise DomainError("table must be defined on exactly the domain")
        domain = domain._in_point_order()
        super().__init__(domain, {x: given[x] for x in domain})

    def __call__(self, x):
        x = as_point(x)
        if x not in self._map:
            raise DomainError(f"{_show_rational(x, repr)} is outside the table's domain")
        return self._map[x]

    def items(self):
        return tuple(self._map.items())

    def values(self):
        return tuple(self._map.values())

    def _key(self) -> tuple:
        return (self.domain, self.values())

    def __repr__(self):
        body = ", ".join(
            f"{_show_rational(x, repr)}: {_show_rational(v, repr)}"
            for x, v in self.items()
        )
        return f"FunTable({{{body}}})"


def as_point(x):
    """Canonicalize a value into the point universe.

    Numbers become Fractions; floats are rejected outright to preserve
    exactness. Pairs are 2-tuples of points. A point that is already
    canonical comes back as the same object.
    """
    kind = _KINDS.get(x.__class__)
    if kind is None:
        if isinstance(x, float):
            raise TypeError("floats are not exact; use Fraction or a 'p/q' string")
        kind = _base_kind(x)
    return kind.canon(x)


def point_key(x):
    """Total-order sort key over the whole point universe."""
    kind = _KINDS.get(x.__class__) or _base_kind(x)
    return kind.rank, kind.key(x)


class Dist(FrozenValue):
    """Finite-support distribution: point -> nonzero scalar weight.

    Canonical form is maintained by construction (zero weights dropped,
    duplicate points merged), so equality of distributions is plain
    structural equality. Values are immutable and hashable, which lets a
    Dist itself serve as a support point of an outer Dist.
    """

    # Copy and pickle rebuild `Dist(_w, semiring)`. `_sorted` and `_hash`
    # are caches, left unset until first read.
    _fields = ("_w", "semiring")
    __slots__ = _fields + ("_sorted", "_hash")

    def __init__(self, weights=(), semiring: Semiring = RATIONALS):
        items = weights.items() if hasattr(weights, "items") else weights
        coerce, zero = semiring.coerce, semiring.zero
        terms = [(as_point(x), coerce(c)) for x, c in items]
        w = _accumulate({}, [(x, c) for x, c in terms if c != zero], semiring)
        object.__setattr__(self, "semiring", semiring)
        object.__setattr__(self, "_w", w)

    @classmethod
    def _of(cls, w: dict, semiring: Semiring) -> "Dist":
        """The trusted constructor: adopt `w` as is, with no check.

        `w` must be fresh (not shared with any other value), map canonical
        points to canonical weights, and hold no zero weight. Operations
        whose points and weights come from existing Dists use it instead
        of re-canonicalizing them; that relies on the semiring's
        operations mapping canonical weights to canonical weights, as both
        provided semirings do. A dict built by summing weights gets its
        zeros dropped by `_accumulate` first.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "semiring", semiring)
        object.__setattr__(self, "_w", w)
        return self

    @classmethod
    def empty(cls, semiring: Semiring = RATIONALS) -> "Dist":
        return cls._of({}, semiring)

    # -- canonical views ---------------------------------------------------

    def items(self) -> Tuple:
        """Support/weight pairs in point order (deterministic)."""
        try:
            return self._sorted
        except AttributeError:  # first read: sort once and cache
            pairs = tuple(sorted(self._w.items(), key=lambda it: point_key(it[0])))
            object.__setattr__(self, "_sorted", pairs)
            return pairs

    def support(self) -> Tuple:
        return tuple(x for x, _ in self.items())

    def __getitem__(self, x):
        return self._w.get(as_point(x), self.semiring.zero)

    def __contains__(self, x):
        return as_point(x) in self._w

    def __len__(self):
        return len(self._w)

    def __iter__(self):
        return iter(self.support())

    def is_empty(self) -> bool:
        return not self._w

    # -- equality / hashing ------------------------------------------------

    # Spelled out rather than inherited: the weights are a dict, and every
    # mixture hashes its inner distributions, so the hash is cached.
    def __eq__(self, other):
        if not isinstance(other, Dist):
            return NotImplemented
        return self.semiring.name == other.semiring.name and self._w == other._w

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:  # first read: hash once and cache
            h = hash((self.semiring.name, frozenset(self._w.items())))
            object.__setattr__(self, "_hash", h)
            return h

    def __repr__(self):
        body = ", ".join(f"{_show_point(x)}: {_show_rational(c)}" for x, c in self.items())
        tag = "" if self.semiring is RATIONALS else f", {self.semiring.name}"
        return f"Dist({{{body}}}{tag})"

    # -- module arithmetic -------------------------------------------------

    def __add__(self, other):
        return dist_add(self, other)

    def __sub__(self, other):
        return dist_sub(self, other)

    def __neg__(self):
        if self.semiring.neg is None:
            raise TypeError(f"{self.semiring.name} distributions have no negation")
        neg = self.semiring.neg
        return Dist._of({x: neg(c) for x, c in self._w.items()}, self.semiring)

    def __mul__(self, c):
        return scale(c, self)

    __rmul__ = __mul__


# -- the point universe -----------------------------------------------------
#
# `_KINDS` maps each kind's exact class to its rank in the point order,
# its canonicalizer (which returns a canonical point itself), its order
# key within the rank and its display form in a Dist's repr. Any other
# class takes the entry of the first class in its MRO that is in the
# table: bool goes through int, and a tuple subclass becomes a pair.
# A built tag, Dist or table is already canonical, so their
# canonicalizers return it as is; a subclass of a tag becomes the plain
# tag.

_Kind = namedtuple("_Kind", "rank canon key show")


def _base_kind(x) -> _Kind:
    for cls in x.__class__.__mro__:
        if cls in _KINDS:
            return _KINDS[cls]
    raise TypeError(f"{_show_rational(x, repr)} is not in the point universe")


def _show_point(x) -> str:
    return (_KINDS.get(x.__class__) or _base_kind(x)).show(x)


def _same(x):
    return x


def _exact(cls, convert):
    return lambda x: x if x.__class__ is cls else convert(x)


def _pair(x):
    if len(x) != 2:
        raise TypeError("only pairs (2-tuples) are points")
    a, b = as_point(x[0]), as_point(x[1])
    return x if a is x[0] and b is x[1] and x.__class__ is tuple else (a, b)


def _show_pair(x):
    return f"({_show_point(x[0])}, {_show_point(x[1])})"


def _tag_key(x):
    return point_key(x.value)


def _show_tag(x):
    return f"{x.__class__.__name__}({_show_point(x.value)})"


def _dist_key(p: Dist):
    return p.semiring.name, tuple((point_key(x), c) for x, c in p.items())


def _table_key(t: FunTable):
    return tuple(map(point_key, t.domain)), tuple(map(point_key, t.values()))


_KINDS = {
    Fraction: _Kind(0, _exact(Fraction, Fraction), _same, _show_rational),
    int: _Kind(0, Fraction, _same, _show_rational),
    # str.__str__, not str(): a subclass may override __str__
    str: _Kind(1, _exact(str, str.__str__), _same, repr),
    tuple: _Kind(2, _pair, lambda x: (point_key(x[0]), point_key(x[1])), _show_pair),
    Left: _Kind(3, _exact(Left, lambda x: Left(x.value)), _tag_key, _show_tag),
    Right: _Kind(4, _exact(Right, lambda x: Right(x.value)), _tag_key, _show_tag),
    Dist: _Kind(5, _same, _dist_key, repr),
    FunTable: _Kind(6, _same, _table_key, repr),
}


def _require_points(p: Dist, ok, message: str, error=DomainError) -> Dist:
    """Raise `error` unless every support point passes `ok`.

    The message names the first failing point in point order, so it does
    not depend on how the distribution was built, and shows it as its
    repr, with a rational past the int-digit limit as its digit count.
    Only that error path sorts the support.
    """
    if not all(map(ok, p._w)):
        x = next(x for x in p.support() if not ok(x))
        raise error(message.format(_show_rational(x, repr)))
    return p


def _accumulate(acc: dict, terms, sr: Semiring) -> dict:
    """Add each (point, weight) of `terms` into `acc`, in place, and
    return `acc`.

    Collisions are summed once per key, after the stream. A key's first
    collision swaps its weight for a list of its terms, and later terms
    append to that list. Then each collided key gets its sum: one `add`
    for two terms, `sr.sum` for more, so a long fiber costs one exact
    n-ary sum rather than an `add` per term. Weights are hashable
    scalars, never lists.

    This is the one place a zero weight can arise, so it is the one place
    zeros are dropped: a key whose terms sum to `sr.zero` is deleted. A
    point that cancels and comes back keeps its first insertion slot,
    which no Dist view shows. The terms' weights must be nonzero.

    `setdefault` inserts a new key with one lookup, so a new key is
    hashed once; Fraction and tuple points do not cache their hash, and
    most keys are new. The side list of collided keys holds each term
    list, so no key is looked up again to find it.
    """
    put, collided = acc.setdefault, []
    for x, c in terms:
        n = len(acc)
        old = put(x, c)
        if len(acc) == n:
            if old.__class__ is list:
                old.append(c)
            else:
                acc[x] = fiber = [old, c]
                collided.append((x, fiber))
    zero = sr.zero
    for x, fiber in collided:
        c = _sum_list(fiber, sr)
        if c == zero:
            del acc[x]
        else:
            acc[x] = c
    return acc


def _sum_list(values: list, sr: Semiring):
    """`sr.sum(values)`. A short list skips the n-ary sum's set-up: no
    value sums to zero, one value is its own sum, and two take a single
    add."""
    n = len(values)
    if n > 2:
        return sr.sum(values)
    if n == 2:
        return sr.add(*values)
    return values[0] if n else sr.zero


def _same_semiring(p: Dist, q: Dist) -> Semiring:
    if p.semiring.name != q.semiring.name:
        raise TypeError(
            f"mixed scalar semirings: {p.semiring.name} vs {q.semiring.name}"
        )
    return p.semiring


# -- the monad -------------------------------------------------------------


def dirac(x, semiring: Semiring = RATIONALS) -> Dist:
    """The unit: the point mass at x (weight 1)."""
    return Dist._of({as_point(x): semiring.one}, semiring)


def pushforward(f, p: Dist) -> Dist:
    """Image distribution along f, summing weights of collapsed fibers."""
    sr = p.semiring
    terms = [(as_point(f(x)), c) for x, c in p._w.items()]
    return Dist._of(_accumulate({}, terms, sr), sr)


_NOT_DISTS = "flatten needs Dist-valued points, got {}"


def flatten(pp: Dist) -> Dist:
    """Monad multiplication: evaluate a mixture of distributions.

    Every support point of pp must itself be a Dist over pp's semiring;
    the result is `structure_map` of the free algebra, the weighted sum
    of the inner distributions, and the empty distribution for an empty
    pp. A point that is not a Dist is named first in point order.
    """
    _require_points(pp, _is_dist, _NOT_DISTS, TypeError)
    return structure_map(pp, zero=Dist.empty(pp.semiring))


def _is_dist(x) -> bool:
    return isinstance(x, Dist)


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


def total(p: Dist):
    """Sum of all weights (the distribution's overall mass)."""
    return p.semiring.sum(p._w.values())


def scale(c, p: Dist) -> Dist:
    sr = p.semiring
    c, mul = sr.coerce(c), sr.mul
    if c == sr.zero:
        return Dist.empty(sr)
    return Dist._of({x: mul(c, w) for x, w in p._w.items()}, sr)


def dist_add(p: Dist, q: Dist) -> Dist:
    sr = _same_semiring(p, q)
    return Dist._of(_accumulate(dict(p._w), q._w.items(), sr), sr)


def dist_sub(p: Dist, q: Dist) -> Dist:
    """Pointwise difference; requires ring scalars."""
    _same_semiring(p, q)
    return dist_add(p, -q)


# -- the weighted sum in a module --------------------------------------------
#
# Maps out of a distribution land in a module: the scalars themselves, a
# distribution space, or a space of function tables. `_mix` is the one
# weighted sum in all three.

_MIXED_VALUES = "pair: phi mixes distribution values with scalar values"


def _mix(values: list, sr: Semiring):
    """The sum of c*v over a nonempty list of (module element v, weight c)
    pairs, with the weights scalars of `sr`.

    This is the one place a sum's module and rig are decided. The first
    element names the module. Distributions must be over `sr` itself and
    sum through `_accumulate`, where a zero weight adds nothing; function
    tables, if all the elements are, mix pointwise over their one domain;
    anything else is a scalar of `sr`, where a zero weight adds no product
    either. A distribution among elements that are not, or the other way
    round, is a TypeError, and so is a distribution over another rig.
    Every element is checked before any is summed; the scalar sum
    coerces every value, whatever its weight, before its first product,
    as `coerce` refuses a distribution or a table.
    """
    head = values[0][0]
    if isinstance(head, Dist):
        for v, _ in values:
            if not isinstance(v, Dist):
                raise TypeError(_MIXED_VALUES)
            if v.semiring.name != sr.name:
                raise TypeError(f"mixed scalar semirings: {sr.name} vs {v.semiring.name}")
        mul, zero = sr.mul, sr.zero
        # the weights left are nonzero, and so are their products
        terms = [(y, mul(c, w)) for v, c in values if c != zero for y, w in v._w.items()]
        return Dist._of(_accumulate({}, terms, sr), sr)
    if isinstance(head, FunTable) and all(isinstance(t, FunTable) for t, _ in values):
        domain = head.domain
        if any(t.domain != domain for t, _ in values):
            raise DomainError("cannot mix tables over different domains")
        return FunTable(domain, {x: _mix([(t(x), c) for t, c in values], sr) for x in domain})
    mul, coerce, zero = sr.mul, sr.coerce, sr.zero
    try:
        scalars = [(coerce(v), c) for v, c in values]
        return _sum_list([mul(c, x) for x, c in scalars if c != zero], sr)
    except TypeError:
        if any(isinstance(v, Dist) for v, _ in values):
            raise TypeError(_MIXED_VALUES) from None
        raise


def zero_like(v, sr: Semiring):
    """0*v: the zero of the module v lives in, with scalars in `sr`."""
    return _mix([(v, sr.zero)], sr)


# -- test functions ----------------------------------------------------------


class TestFn:
    """A callable that declares the zero of its codomain.

    Wrap a function in a TestFn when its values are not scalars, so that
    pairing it with the empty distribution lands in the right module;
    `dist_valued` does this for distribution-valued functions. Calls are
    forwarded with all their arguments, so a two-argument map can declare
    its codomain for the partial-linear extensions too.
    """

    __slots__ = ("fn", "zero", "label")
    __test__ = False  # not a pytest class, despite the name

    def __init__(self, fn, zero=None, label=None):
        self.fn = fn
        self.zero = zero
        self.label = label

    def __repr__(self):
        return f"TestFn({self.label or self.fn!r})"

    @classmethod
    def dist_valued(cls, fn, semiring: Semiring = RATIONALS) -> "TestFn":
        return cls(fn, zero=Dist.empty(semiring))

    def __call__(self, *args):
        return self.fn(*args)


def codomain_zero(f, sr: Semiring):
    """The zero of f's codomain: a TestFn's declared zero, the zero that
    matches a FunTable's values, or else the scalar zero of `sr`."""
    if isinstance(f, TestFn):
        if f.zero is not None:
            return f.zero
    elif isinstance(f, FunTable) and f.domain:
        return zero_like(f.values()[0], sr)
    return sr.zero


def pair(p: Dist, phi):
    """The integration pairing <p, phi>: the sum of p(x)*phi(x) over p's
    support. It is also the linear extension of phi along the unit, the
    one map out of p's module that sends dirac(x) to phi(x).

    phi is a test function defined on all of p's support: it maps points
    to scalars, distributions or function tables, and the sum is taken in
    the matching module (`_mix`). For an empty p that sum is the zero of
    phi's codomain, `codomain_zero(phi)`. phi's values must all have one
    shape: a mix of scalars and distributions is a TypeError.
    """
    if not p._w:
        return codomain_zero(phi, p.semiring)
    return _mix([(phi(x), c) for x, c in p._w.items()], p.semiring)


def fn_action(p: Dist, phi) -> Dist:
    """Reweight p pointwise by a scalar-valued function: {x: p(x)*phi(x)}.

    Points where phi is zero drop out; the other products are nonzero
    because a Semiring has no zero divisors.
    """
    sr = p.semiring
    mul, coerce, zero = sr.mul, sr.coerce, sr.zero
    w = {}
    for x, c in p._w.items():
        v = coerce(phi(x))
        if v != zero:
            w[x] = mul(c, v)
    return Dist._of(w, sr)


# -- module structure maps ----------------------------------------------------


def structure_map(d: Dist, zero=None):
    """Evaluate a distribution over module elements down to one element.

    The points must all lie in one module, and the result is their
    weighted sum there (`_mix`): Dist-valued points mix as flatten does,
    scalar points sum as scalars, and function tables mix pointwise (the
    canonical algebra on a function space). An empty distribution names
    no module, so its result is the caller's `zero`.

    An error names the first point in point order that lies outside the
    module of the first point in point order; a mixture of tables that
    cannot be mixed keeps `_mix`'s own error. Only that error path sorts
    the support.
    """
    if d.is_empty():
        if zero is None:
            raise ValueError("structure_map of empty distribution needs zero=")
        return zero
    try:
        return _mix(list(d._w.items()), d.semiring)
    except (TypeError, ValueError):
        # the point table (`_KINDS`) ranks every other point before
        # distributions, and distributions before tables
        first = d.support()[0]
        if isinstance(first, Dist):
            _require_points(d, _is_dist, _NOT_DISTS, TypeError)
        elif not isinstance(first, FunTable):
            for x in d.support():
                d.semiring.coerce(x)  # raises for the first bad point in point order
        raise


# -- biproduct structure ----------------------------------------------------


def biproduct_split(p: Dist) -> Tuple[Dist, Dist]:
    """Split a distribution over tagged points into its two components."""
    _require_points(p, lambda x: isinstance(x, _Tagged), "point {} carries no Left/Right tag")
    left, right = {}, {}
    for x, c in p._w.items():
        (left if isinstance(x, Left) else right)[x.value] = c
    return Dist._of(left, p.semiring), Dist._of(right, p.semiring)


def biproduct_merge(p: Dist, q: Dist) -> Dist:
    """Inverse of biproduct_split: re-tag and take the disjoint union."""
    sr = _same_semiring(p, q)
    merged = {Left(x): c for x, c in p._w.items()}
    merged.update({Right(y): c for y, c in q._w.items()})
    return Dist._of(merged, sr)
