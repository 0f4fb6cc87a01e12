"""Randomized draws and the exact-equality law suite.

Every law is an equation between two independently computed values of
exact arithmetic, so checks use plain ==, never tolerances. (An inexact
scalar instance must not be wired into this harness.) Checks refute
rather than prove: each law draws `cases` samples from a stream derived
from (seed, law name), so runs are reproducible and parallelizable
without changing results.

A law is a generator function whose parameters are its inputs, e.g.
`def _fubini(P=dist(space_a), Q=dist(space_b))`. Each default is a draw
spec, called as `draw(rng, cfg, semiring, drawn)`, where `drawn` maps
the inputs drawn so far to their values. Specs are the only sampling
layer and compose: a spec that needs a weight, a value or a distribution
calls another spec, as `table(space_a, dist(space_b))` does. A law with
no parameters has nothing to draw, so it runs once. `Law.check` is the one
comparer: it calls the law with one case's inputs and checks each
equation `(description, lhs, rhs)` it yields with ==. `run_law` draws
each case's inputs in parameter order and calls `check`; a test driver
can call `check` on inputs it draws itself. `check` stops at the first
mismatch, which it reports as

    NAME=value, ...; description: lhs!r != rhs!r

listing every drawn input in draw order, a Fraction by str and any other
value by repr. A rational past CPython's int-digit limit shows as its
digit count, `<N-digit rational>`, so a report never fails to print.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache

from .dist import (
    Dist,
    FiniteSpace,
    FunTable,
    TestFn,
    biproduct_merge,
    biproduct_split,
    dirac,
    dist_add,
    dist_sub,
    flatten,
    fn_action,
    pair,
    pushforward,
    scale,
    strength_left,
    strength_right,
    structure_map,
    tensor,
    total,
    zero_like,
)
from .errors import SelectionError
from .line import (
    AffineMap,
    Step,
    center_of_gravity,
    convolution_power,
    convolve,
    derivative,
    expectation,
    expectation_as_mu,
    fn_derivative,
    homothety,
    interval,
    leibniz_residual,
    moment,
    primitive,
    translate,
)
from .pairing import (
    constant_one,
    density,
    eval_at_eta,
    fn_pointwise_mul,
    semantics,
)
from .probability import (
    condition,
    is_independent,
    is_probability,
    marginals,
    normalize,
    rv_sum,
)
from .quantities import UnitTagged, from_pure, rescale_unit, to_pure
from .scalars import BOOLEANS, RATIONALS, FrozenValue, Semiring, _show_rational
from .strength import (
    cotensor_strength,
    extend_1linear,
    extend_1linear_via_strength,
    extend_2linear,
    extend_2linear_via_strength,
    extend_bilinear,
    tensor_iterated,
)

STEPS = tuple(Step(d) for d in (Fraction(1), Fraction(1, 2), Fraction(2, 3), Fraction(-1, 3)))


class GenConfig(FrozenValue):
    """Reproducibility knobs for the sample streams."""

    __slots__ = _fields = (
        "seed", "cases", "max_support", "coefficient_bound", "space_size"
    )

    def __init__(self, seed=0, cases=200, max_support=4, coefficient_bound=8,
                 space_size=3):
        if cases < 1:
            raise ValueError("cases must be at least 1")
        if max_support < 1:
            raise ValueError("max_support must be at least 1")
        if coefficient_bound < 1:
            raise ValueError("coefficient_bound must be at least 1")
        if not 1 <= space_size <= 5:
            raise ValueError("space_size must be between 1 and 5")
        super().__init__(seed, cases, max_support, coefficient_bound, space_size)


class LawReport(FrozenValue):
    __slots__ = _fields = ("law", "statement", "cases_run", "passed", "counterexample")

    def __init__(self, law, statement, cases_run, passed, counterexample=None):
        super().__init__(law, statement, cases_run, passed, counterexample)

    def to_json(self) -> dict:
        out = {
            "law": self.law,
            "statement": self.statement,
            "cases_run": self.cases_run,
            "passed": self.passed,
        }
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


# -- spaces and draw specs ------------------------------------------------------
# A draw spec is called as spec(rng, cfg, semiring, drawn) and draws one law
# input. `space` below is a function of cfg, such as space_a or line; specs
# that take a spec (table, on_pairs, several) draw their parts through it.


def _atom_space(atoms: str):
    """The space of the first cfg.space_size of `atoms`, as a function of cfg."""
    spaces = {n: FiniteSpace(atoms[:n]) for n in range(1, len(atoms) + 1)}
    return lambda cfg: spaces[cfg.space_size]


space_a, space_b, space_c = (_atom_space(atoms) for atoms in ("abcde", "uvwst", "kmngh"))


@lru_cache(maxsize=None)
def _line_space(b: int) -> FiniteSpace:
    return FiniteSpace(sorted({Fraction(n, d) for n in range(-b, b + 1) for d in (1, 2, 3)}))


def line(cfg: GenConfig) -> FiniteSpace:
    """The rational points n/d of the line with |n| <= coefficient_bound
    and d in (1, 2, 3), in increasing order."""
    return _line_space(cfg.coefficient_bound)


def choice(values):
    return lambda rng, cfg, sr, drawn: rng.choice(values)


def point(space):
    return lambda rng, cfg, sr, drawn: rng.choice(space(cfg).elements)


def scalar(nonzero=True):
    """A scalar of the semiring, nonzero (a weight) unless nonzero=False.

    A rational has numerator and denominator inside coefficient_bound, so
    bound 1 gives only 1 and -1 (and 0); a boolean weight is True.
    """
    def draw(rng, cfg, sr, drawn):
        if sr.name == "boolean":
            return True if nonzero else rng.choice((False, True))
        b = cfg.coefficient_bound
        num = rng.randint(1, b) if nonzero else rng.randint(0, b)
        num *= rng.choice((1, -1))
        return Fraction(num, rng.randint(1, b))

    return draw


_weight, _coefficient = scalar(), scalar(nonzero=False)


def dist(space, min_support=0):
    """At most max_support distinct points of the space, each with a weight."""
    def draw(rng, cfg, sr, drawn):
        elements = space(cfg).elements
        k = rng.randint(min_support, min(cfg.max_support, len(elements)))
        return Dist._of({x: _weight(rng, cfg, sr, drawn) for x in rng.sample(elements, k)}, sr)

    return draw


def nested(space, depth=2):
    """A mixture of mixtures ... of distributions, `depth` layers deep."""
    if depth <= 1:
        return dist(space)
    inner = nested(space, depth - 1)
    return lambda rng, cfg, sr, drawn: Dist(
        ((inner(rng, cfg, sr, drawn), _weight(rng, cfg, sr, drawn))
         for _ in range(rng.randint(0, cfg.max_support))),
        sr,
    )


def _total_one(rng, cfg, drawn, points) -> Dist:
    """Rational weights on `points` whose last weight makes the total 1."""
    weights = [_weight(rng, cfg, RATIONALS, drawn) for _ in points[:-1]]
    weights.append(1 - sum(weights))
    return Dist(zip(points, weights))


def prob(space):
    """A signed distribution with total exactly 1."""
    def draw(rng, cfg, sr, drawn):
        elements = space(cfg).elements
        k = rng.randint(1, min(cfg.max_support, len(elements)))
        return _total_one(rng, cfg, drawn, rng.sample(elements, k))

    return draw


def table(domain, values):
    """A function on a space, as a table: one draw of `values` per point."""
    return lambda rng, cfg, sr, drawn: FunTable(
        domain(cfg), {x: values(rng, cfg, sr, drawn) for x in domain(cfg)}
    )


def on_pairs(spec):
    """A dict from each pair of space_a x space_c to a drawn value."""
    return lambda rng, cfg, sr, drawn: {
        (x, y): spec(rng, cfg, sr, drawn) for x in space_a(cfg) for y in space_c(cfg)
    }


def several(spec):
    """One to three values of `spec`, as a list."""
    return lambda rng, cfg, sr, drawn: [
        spec(rng, cfg, sr, drawn) for _ in range(rng.randint(1, 3))
    ]


def mixture_of(name):
    """The values of the drawn list `name`, mixed with random weights."""
    return lambda rng, cfg, sr, drawn: Dist(
        ((v, _weight(rng, cfg, sr, drawn)) for v in drawn[name]), sr
    )


# The specs below draw rational values whatever the law's semiring.


def affine(rng, cfg, sr, drawn) -> AffineMap:
    return AffineMap(*(_coefficient(rng, cfg, RATIONALS, drawn) for _ in range(2)))


def poly(rng, cfg, sr, drawn) -> TestFn:
    """A random quadratic as a scalar test function on the line."""
    c0, c1, c2 = (_coefficient(rng, cfg, RATIONALS, drawn) for _ in range(3))
    add, mul = RATIONALS.add, RATIONALS.mul
    return TestFn(lambda x: add(c0, mul(x, add(c1, mul(c2, x)))),  # Horner's rule
                  label=f"{c0} + ({c1})x + ({c2})x^2")


def kernel(rng, cfg, sr, drawn) -> TestFn:
    """A total, distribution-valued function on the line, of the shape
    x -> sum of w_i * dirac(u_i * x + v_i)."""
    pool = line(cfg).elements
    terms = [
        (_weight(rng, cfg, RATIONALS, drawn), rng.choice(pool), rng.choice(pool))
        for _ in range(rng.randint(1, 2))
    ]
    label = " + ".join(f"({w}) dirac(({u})x + ({v}))" for w, u, v in terms)
    return TestFn(lambda x: Dist((u * x + v, w) for w, u, v in terms), Dist.empty(), label)


def joint(rng, cfg, sr, drawn) -> Dist:
    """A total-1 joint over rational pairs, usually correlated."""
    pool = line(cfg).elements
    k = rng.randint(1, cfg.max_support)
    pairs = sorted({(rng.choice(pool), rng.choice(pool)) for _ in range(k)})
    return _total_one(rng, cfg, drawn, pairs)


def nonzero_total(rng, cfg, sr, drawn) -> Dist:
    """A line distribution whose total is not zero."""
    body = dist(line, min_support=1)
    while True:
        p = body(rng, cfg, RATIONALS, drawn)
        if total(p) != 0:
            return p


def line_mixture(rng, cfg, sr, drawn) -> Dist:
    """A mixture of two line distributions."""
    part = dist(line)
    return Dist(
        (part(rng, cfg, RATIONALS, drawn), _weight(rng, cfg, RATIONALS, drawn)) for _ in range(2)
    )


# -- the registry and the runner ---------------------------------------------------


class Law(FrozenValue):
    """A named statement and its body, a generator function of the law's
    inputs; `draws` pairs each parameter name with its default draw spec."""

    __slots__ = ("name", "statement", "body", "semiring", "draws")
    _fields = __slots__[:4]

    def __init__(self, name, statement, body, semiring=RATIONALS):
        super().__init__(name, statement, body, semiring)
        code = body.__code__
        names = code.co_varnames[:code.co_argcount]
        specs = body.__defaults__ or ()
        if len(specs) != len(names) or code.co_kwonlyargcount:
            raise TypeError(f"law {name!r}: every parameter needs a draw spec as its default")
        object.__setattr__(self, "draws", tuple(zip(names, specs)))

    @property
    def deterministic(self) -> bool:
        """A law without inputs draws nothing, so one case is all of it."""
        return not self.draws

    def draw(self, rng, cfg: GenConfig) -> dict:
        """One case's inputs by name, drawn from rng in parameter order."""
        drawn = {}
        for name, spec in self.draws:
            drawn[name] = spec(rng, cfg, self.semiring, drawn)
        return drawn

    def check(self, drawn: dict):
        """Run the body on one case's inputs and compare each equation it
        yields with ==: the counterexample text of the first mismatch, or
        None when every equation holds."""
        for desc, lhs, rhs in self.body(**drawn):
            if not lhs == rhs:
                return _counterexample(drawn, desc, lhs, rhs)
        return None


LAWS: "dict[str, Law]" = {}


def law(name: str, statement: str, semiring: Semiring = RATIONALS):
    """Register a generator function of drawn inputs as law `name`."""
    if name in LAWS:
        raise ValueError(f"law {name!r} is already registered")

    def register(fn):
        LAWS[name] = Law(name, statement, fn, semiring)
        return fn

    return register


def _counterexample(drawn: dict, desc: str, lhs, rhs) -> str:
    shown = ", ".join(
        f"{k}={_show_rational(v, str if isinstance(v, Fraction) else repr)}"
        for k, v in drawn.items()
    )
    head = f"{shown}; " if shown else ""
    return f"{head}{desc}: {_show_rational(lhs, repr)} != {_show_rational(rhs, repr)}"


def run_law(name: str, cfg: GenConfig) -> LawReport:
    if name not in LAWS:
        raise SelectionError(
            f"unknown law {name!r}; known laws: {', '.join(sorted(LAWS))}"
        )
    entry = LAWS[name]
    rng = random.Random(f"{cfg.seed}:{name}")
    n = 1 if entry.deterministic else cfg.cases
    for i in range(1, n + 1):
        failure = entry.check(entry.draw(rng, cfg))
        if failure is not None:
            return LawReport(name, entry.statement, i, False, failure)
    return LawReport(name, entry.statement, n, True)


def run_suite(cfg: GenConfig, selection=None) -> list:
    """Run the selected laws (all by default); one report per law."""
    names = list(LAWS) if selection is None else list(selection)
    return [run_law(name, cfg) for name in names]


def _mixing(g, mm: Dist) -> tuple:
    """Both sides of "g commutes with mixing" on the mixture mm: g of mm
    mixed down, and the mixture of g's values. A map into a module is
    linear exactly when they agree on every mixture."""
    sr = mm.semiring
    lhs = g(structure_map(mm, zero=Dist.empty(sr)))
    return lhs, structure_map(pushforward(g, mm), zero=zero_like(lhs, sr))


def _linear(g, p, q, c, name=""):
    """Both equations of "g is additive and homogeneous" on P, Q and c."""
    yield f"{name}additive", g(dist_add(p, q)), dist_add(g(p), g(q))
    yield f"{name}homogeneous", g(scale(c, p)), scale(c, g(p))


def _rig_axioms(sr, a, b, c):
    """The equations of a commutative semiring with an absorbing zero."""
    add, mul = sr.add, sr.mul
    yield "(a+b)+c = a+(b+c)", add(add(a, b), c), add(a, add(b, c))
    yield "a+b = b+a", add(a, b), add(b, a)
    yield "(ab)c = a(bc)", mul(mul(a, b), c), mul(a, mul(b, c))
    yield "ab = ba", mul(a, b), mul(b, a)
    yield "a(b+c) = ab+ac", mul(a, add(b, c)), add(mul(a, b), mul(a, c))
    yield "0*a = 0", mul(sr.zero, a), sr.zero


# -- core monad/module laws ----------------------------------------------------


@law("scalar_field_laws",
     "rational +/* are associative, commutative, distributive; - and / invert")
def _scalar_field_laws(a=scalar(nonzero=False), b=scalar(nonzero=False),
                       c=scalar(nonzero=False)):
    sr = RATIONALS
    yield from _rig_axioms(sr, a, b, c)
    yield "a-a = 0", sr.sub(a, a), sr.zero
    if a != 0:
        yield "a * (1/a) = 1", sr.mul(a, sr.inv(a)), sr.one
    # The integer kernels against Fraction's own operators, the generic
    # route. Fraction's == compares numerator and denominator, so it
    # refuses an unreduced result or a negative denominator.
    yield "add is Fraction +", sr.add(a, b), a + b
    yield "mul is Fraction *", sr.mul(a, b), a * b
    yield "neg is Fraction -", sr.neg(a), -a
    yield "sum is Fraction +", sr.sum([a, b, c]), a + b + c
    if a != 0:
        yield "inv is Fraction 1/", sr.inv(a), 1 / a


@law("boolean_rig_laws",
     "boolean or/and form a commutative rig (no negation, no inverses)",
     semiring=BOOLEANS)
def _boolean_rig_laws(a=scalar(nonzero=False), b=scalar(nonzero=False),
                      c=scalar(nonzero=False)):
    sr = BOOLEANS
    yield from _rig_axioms(sr, a, b, c)
    yield "1*a = a", sr.mul(sr.one, a), a
    yield "0+a = a", sr.add(sr.zero, a), a
    yield "neg is absent", sr.neg, None
    yield "inv is absent", sr.inv, None


@law("monad_laws",
     "flatten and dirac satisfy the unit and associativity laws of a monad")
def _monad_laws(P=dist(space_a), PPP=nested(space_a, depth=3)):
    unit = lambda x: dirac(x, P.semiring)
    yield "flatten(dirac(P)) = P", flatten(unit(P)), P
    yield "flatten(map dirac P) = P", flatten(pushforward(unit, P)), P
    yield ("flatten.flatten = flatten.map(flatten)",
           flatten(flatten(PPP)), flatten(pushforward(flatten, PPP)))


@law("functor_laws", "pushforward preserves identities and composition")
def _functor_laws(P=dist(space_a), f=table(space_a, point(space_b)),
                  g=table(space_b, point(space_c))):
    yield "pushforward(id) = id", pushforward(lambda x: x, P), P
    yield ("pushforward(g.f) = pushforward(g).pushforward(f)",
           pushforward(lambda x: g(f(x)), P), pushforward(g, pushforward(f, P)))


@law("total_pushforward", "total(pushforward(f, P)) = total(P) for every f")
def _total_pushforward(P=dist(space_a), f=table(space_a, point(space_b))):
    yield "total is pushforward-invariant", total(pushforward(f, P)), total(P)


@law("linear_extension",
     "linear extension restricts to f on point masses, is additive and "
     "homogeneous, and equals flatten after pushforward")
def _linear_extension(f=table(space_a, dist(space_b)), P=dist(space_a), Q=dist(space_a),
                      c=scalar(), x=point(space_a)):
    sr = P.semiring
    ext = lambda p: pair(p, f)
    yield "ext(dirac(x)) = f(x)", ext(dirac(x, sr)), f(x)
    yield "ext = flatten.pushforward(f)", ext(P), flatten(pushforward(f, P))
    yield from _linear(ext, P, Q, c, "ext ")
    unit = TestFn.dist_valued(lambda y: dirac(y, sr), sr)
    yield "extension of dirac is the identity", pair(P, unit), P


@law("biproduct",
     "split/merge over tagged points are mutually inverse module "
     "isomorphisms and totals add")
def _biproduct(A=dist(space_a), B=dist(space_b), c=scalar(), A3=dist(space_a),
               B3=dist(space_b)):
    sr = A.semiring
    m = biproduct_merge(A, B)
    a2, b2 = biproduct_split(m)
    yield "split(merge(A,B)) = (A,B)", (a2, b2), (A, B)
    yield "merge(split(M)) = M", biproduct_merge(a2, b2), m
    yield "total(merge) = total(A)+total(B)", total(m), sr.add(total(A), total(B))
    yield ("split respects +", biproduct_split(dist_add(m, biproduct_merge(A3, B3))),
           (dist_add(A, A3), dist_add(B, B3)))
    yield "split respects scale", biproduct_split(scale(c, m)), (scale(c, A), scale(c, B))
    zero = Dist.empty(sr)
    yield "merge(0,0) = 0", biproduct_merge(zero, zero), zero


@law("additivity",
     "sampled linear maps are additive/homogeneous; tensor, convolution "
     "and the pairing are bi-additive")
def _additivity(f=table(space_a, point(space_b)), phi=table(space_a, scalar(nonzero=False)),
                c=scalar(), P=dist(space_a), Q=dist(space_a), R=dist(space_b), S=dist(space_b),
                L1=dist(line), L2=dist(line), L3=dist(line)):
    yield from _linear(lambda r: pushforward(f, r), P, Q, c, "pushforward ")
    yield from _linear(lambda r: scale(c, r), P, Q, c, "scale ")
    yield from _linear(lambda r: fn_action(r, phi), P, Q, c, "reweight ")
    yield "tensor left-additive", tensor(dist_add(P, Q), R), dist_add(tensor(P, R), tensor(Q, R))
    yield ("tensor right-additive",
           tensor(P, dist_add(R, S)), dist_add(tensor(P, R), tensor(P, S)))
    yield "pairing additive in P", pair(dist_add(P, Q), phi), pair(P, phi) + pair(Q, phi)
    yield ("convolution left-additive", convolve(dist_add(L1, L2), L3),
           dist_add(convolve(L1, L3), convolve(L2, L3)))


@law("linearity_closure",
     "pointwise sums and scalar multiples of linear maps are linear again")
def _linearity_closure(f1=table(space_a, point(space_b)), f2=table(space_a, point(space_b)),
                       phi=table(space_a, scalar(nonzero=False)), c=scalar(),
                       table2=table(space_b, scalar(nonzero=False)),
                       mix1=nested(space_a), mix2=nested(space_a), mix3=nested(space_a)):
    g1 = lambda p: pushforward(f1, p)
    g2 = lambda p: fn_action(pushforward(f2, p), table2)
    g3 = lambda p: fn_action(p, phi)
    yield "g1+g2 is linear on the mixture", *_mixing(lambda p: dist_add(g1(p), g2(p)), mix1)
    yield "c*g1 is linear on the mixture", *_mixing(lambda p: scale(c, g1(p)), mix2)
    yield "g1+g3 is linear on the mixture", *_mixing(lambda p: dist_add(g1(p), g3(p)), mix3)


@law("scale_equivariance",
     "pushforward, flatten, reweighting and the derivative all commute "
     "with scalar multiplication")
def _scale_equivariance(c=scalar(), P=dist(space_a), f=table(space_a, point(space_b)),
                        PP=nested(space_a), L=dist(line), step=choice(STEPS)):
    yield "pushforward equivariant", pushforward(f, scale(c, P)), scale(c, pushforward(f, P))
    yield "flatten equivariant", flatten(scale(c, PP)), scale(c, flatten(PP))
    yield ("derivative equivariant",
           derivative(scale(c, L), step), scale(c, derivative(L, step)))


# -- strength and Fubini laws ---------------------------------------------------


@law("strength_units",
     "the strengths send point masses to point masses on pairs and agree "
     "with tensoring against a dirac")
def _strength_units(x=point(space_a), y=point(space_b), Q=dist(space_b)):
    sr = Q.semiring
    unit = lambda z: dirac(z, sr)
    yield "strength_left(x, dirac(y)) = dirac((x,y))", strength_left(x, unit(y)), unit((x, y))
    yield ("strength_right(dirac(x), y) = dirac((x,y))",
           strength_right(unit(x), y), unit((x, y)))
    yield "strength_left = tensor against dirac", strength_left(x, Q), tensor(unit(x), Q)
    yield "strength_left(x, 0) = 0", strength_left(x, Dist.empty(sr)), Dist.empty(sr)


@law("strength_pentagons",
     "the strengths commute with mixing: linear in their distribution slot")
def _strength_pentagons(x=point(space_a), QQ=nested(space_b), y=point(space_b),
                        PP=nested(space_a)):
    yield "strength_left pentagon", *_mixing(lambda q: strength_left(x, q), QQ)
    yield "strength_right pentagon", *_mixing(lambda p: strength_right(p, y), PP)


@law("extension_triangles",
     "partial-linear extensions restrict to the original map on point masses")
def _extension_triangles(values=on_pairs(dist(space_b)), x=point(space_a), y=point(space_c)):
    f = TestFn.dist_valued(lambda x, y: values[(x, y)])
    yield "2-linear triangle", extend_2linear(f)(x, dirac(y)), f(x, y)
    yield "1-linear triangle", extend_1linear(f)(dirac(x), y), f(x, y)
    yield "bilinear triangle", extend_bilinear(f)(dirac(x), dirac(y)), f(x, y)


@law("extension_uniqueness",
     "the direct weighted-sum extension and the strength-routed extension "
     "of the same map agree (uniqueness of partial-linear extensions)")
def _extension_uniqueness(values=on_pairs(dist(space_b)), x=point(space_a), Q=dist(space_c),
                          P=dist(space_a), y=point(space_c),
                          scalars=on_pairs(scalar(nonzero=False))):
    f = TestFn.dist_valued(lambda x, y: values[(x, y)])
    yield ("2-linear extension unique",
           extend_2linear(f)(x, Q), extend_2linear_via_strength(f)(x, Q))
    yield ("1-linear extension unique",
           extend_1linear(f)(P, y), extend_1linear_via_strength(f)(P, y))
    g = lambda x, y: scalars[(x, y)]
    yield ("scalar-valued 2-linear extension unique",
           extend_2linear(g)(x, Q), extend_2linear_via_strength(g)(x, Q))
    # the bilinear extension is stage-order independent: extending the
    # first slot first agrees with extending the second slot first
    second_first = pair(Q, TestFn.dist_valued(lambda y: extend_1linear(f)(P, y)))
    yield "bilinear extension stage order", extend_bilinear(f)(P, Q), second_first


@law("fubini",
     "the two extension orders build the same tensor: Fubini's theorem "
     "for finite mixtures")
def _fubini(P=dist(space_a), Q=dist(space_b)):
    yield "tensor = tensor_iterated", tensor(P, Q), tensor_iterated(P, Q)


@law("tensor_bilinear", "tensor is linear in each argument separately")
def _tensor_bilinear(PP=nested(space_a), QQ=nested(space_b)):
    p, q = flatten(PP), flatten(QQ)
    yield "tensor linear in P", *_mixing(lambda m: tensor(m, q), PP)
    yield "tensor linear in Q", *_mixing(lambda n: tensor(p, n), QQ)


@law("tensor_total", "total(P (x) Q) = total(P) * total(Q)")
def _tensor_total(P=dist(space_a), Q=dist(space_b)):
    yield "multiplicative totals", total(tensor(P, Q)), total(P) * total(Q)


@law("tensor_symmetry_associativity",
     "tensor is symmetric and associative up to relabeling pair points")
def _tensor_symmetry_associativity(P=dist(space_a), Q=dist(space_b), R=dist(space_c)):
    twist = lambda xy: (xy[1], xy[0])
    assoc = lambda xyz: (xyz[0][0], (xyz[0][1], xyz[1]))
    yield "twist . tensor = tensor . swap", pushforward(twist, tensor(P, Q)), tensor(Q, P)
    yield "reassociation", pushforward(assoc, tensor(tensor(P, Q), R)), tensor(P, tensor(Q, R))


@law("tensor_initial",
     "bilinear extension of the dirac pairing is the tensor; 2-linear "
     "extension of it is the strength")
def _tensor_initial(P=dist(space_a), Q=dist(space_b), x=point(space_a)):
    sr = P.semiring
    unit_pair = TestFn.dist_valued(lambda x, y: dirac((x, y), sr), sr)
    yield "extend_bilinear(dirac pair) = tensor", extend_bilinear(unit_pair)(P, Q), tensor(P, Q)
    yield ("extend_2linear(dirac pair) = strength_left",
           extend_2linear(unit_pair)(x, Q), strength_left(x, Q))


@law("cotensor",
     "evaluating a mixture of function tables at a point equals mixing "
     "the evaluations, naturally in the codomain")
def _cotensor(tables=several(table(space_a, point(space_b))), PF=mixture_of("tables"),
              x=point(space_a), h=table(space_b, point(space_c))):
    g, sr = tables[0], PF.semiring
    yield ("cotensor of a point mass evaluates the table",
           cotensor_strength(dirac(g, sr), x), dirac(g(x), sr))
    yield ("cotensor is linear in the mixture", cotensor_strength(PF, x),
           pair(PF, TestFn.dist_valued(lambda t: dirac(t(x), sr), sr)))
    post = lambda t: FunTable(t.domain, {a: h(t(a)) for a in t.domain})
    yield ("cotensor natural in the codomain",
           cotensor_strength(pushforward(post, PF), x), pushforward(h, cotensor_strength(PF, x)))


# -- pairing laws ----------------------------------------------------------------


@law("pairing_unit", "<dirac(x), phi> = phi(x)")
def _pairing_unit(x=point(space_a), phi=table(space_a, scalar(nonzero=False)),
                  psi=table(space_a, dist(space_b))):
    yield "scalar case", pair(dirac(x), phi), phi(x)
    yield "vector case", pair(dirac(x), psi), psi(x)


@law("pairing_extranatural", "<pushforward(f, P), phi> = <P, phi . f>")
def _pairing_extranatural(P=dist(space_a), f=table(space_a, point(space_b)),
                          phi=table(space_b, scalar(nonzero=False))):
    yield "extranaturality", pair(pushforward(f, P), phi), pair(P, lambda x: phi(f(x)))


@law("total_as_pairing", "total(P) = <P, 1>")
def _total_as_pairing(P=dist(space_a)):
    yield "total = <-, 1>", total(P), pair(P, constant_one())


@law("pairing_bilinear",
     "the pairing is linear in the distribution and in the test function")
def _pairing_bilinear(PP=nested(space_a), phi=table(space_a, scalar(nonzero=False)),
                      P=dist(space_a), tables=several(table(space_a, scalar(nonzero=False))),
                      TT=mixture_of("tables")):
    yield "pairing linear in P", *_mixing(lambda p: pair(p, phi), PP)
    if not TT.is_empty():
        yield "pairing linear in phi", *_mixing(lambda t: pair(P, t), TT)


@law("semantics_monic",
     "evaluating the semantics functional at x -> dirac(x) recovers P")
def _semantics_monic(P=dist(space_a)):
    yield "enough test functions", eval_at_eta(semantics(P)), P


@law("switch", "<P |- phi, psi> = <P, phi * psi>")
def _switch(P=dist(space_a), phi=table(space_a, scalar(nonzero=False)),
            psi=table(space_a, dist(space_b)), chi=table(space_a, scalar(nonzero=False))):
    for desc, v in (("vector psi", psi), ("scalar psi", chi)):
        yield desc, pair(fn_action(P, phi), v), pair(P, fn_pointwise_mul(phi, v))


@law("action_total", "<P, phi> = total(P |- phi)")
def _action_total(P=dist(space_a), phi=table(space_a, scalar(nonzero=False))):
    yield "<P, phi> = total(P |- phi)", pair(P, phi), total(fn_action(P, phi))


@law("action_monoid",
     "reweighting is associative and unitary: (P|-phi)|-psi = P|-(phi*psi), "
     "P|-1 = P")
def _action_monoid(P=dist(space_a), phi1=table(space_a, scalar(nonzero=False)),
                   phi2=table(space_a, scalar(nonzero=False))):
    yield ("associativity", fn_action(fn_action(P, phi1), phi2),
           fn_action(P, fn_pointwise_mul(phi1, phi2)))
    yield "unit", fn_action(P, constant_one()), P


@law("frobenius", "pushforward(f, P) |- phi = pushforward(f, P |- (phi . f))")
def _frobenius(P=dist(space_a), f=table(space_a, point(space_b)),
               phi=table(space_b, scalar(nonzero=False))):
    yield ("Frobenius reciprocity",
           fn_action(pushforward(f, P), phi), pushforward(f, fn_action(P, lambda x: phi(f(x)))))


def _density_q(rng, cfg, sr, drawn) -> Dist:
    """Random weights, zero allowed, on a random part of P's support."""
    sub = [x for x in drawn["P"].support() if rng.random() < 0.7]
    return Dist((x, _coefficient(rng, cfg, RATIONALS, drawn)) for x in sub)


@law("density_round_trip",
     "whenever Q/P exists, reweighting P by it recovers Q; the density of "
     "P in itself is the constant 1")
def _density_round_trip(P=dist(space_a, min_support=1), Q=_density_q):
    yield "P |- (Q/P) = Q", fn_action(P, density(Q, P)), Q
    yield ("P/P = 1 on the support",
           set(density(P, P).values()), {Fraction(1)} if len(P) else set())


# -- line calculus laws -----------------------------------------------------------


@law("convolution_monoid",
     "convolution is associative and commutative with unit dirac(0)")
def _convolution_monoid(P=dist(line), Q=dist(line), R=dist(line)):
    yield "associative", convolve(convolve(P, Q), R), convolve(P, convolve(Q, R))
    yield "commutative", convolve(P, Q), convolve(Q, P)
    yield "unit", convolve(P, dirac(Fraction(0))), P


@law("convolution_total", "total(P * Q) = total(P) * total(Q)")
def _convolution_total(P=dist(line), Q=dist(line)):
    yield "multiplicative totals", total(convolve(P, Q)), total(P) * total(Q)


@law("expectation_unit", "E(dirac(x)) = x and moment(P, 0) = total(P)")
def _expectation_unit(x=point(line), P=dist(line)):
    yield "E(dirac(x)) = x", expectation(dirac(x)), x
    yield "moment 0 is the total", moment(P, 0), total(P)


@law("expectation_convolution", "E(P*Q) = E(P) total(Q) + total(P) E(Q)")
def _expectation_convolution(P=dist(line), Q=dist(line)):
    yield ("product rule for expectations", expectation(convolve(P, Q)),
           expectation(P) * total(Q) + total(P) * expectation(Q))


@law("expectation_as_mu",
     "the pure-monad route to expectation (reading scalars as unit-space "
     "masses, flattening, and totalling) agrees with <P, x>")
def _expectation_as_mu(P=dist(line), x=point(line)):
    yield "mixture route = pairing route", expectation_as_mu(P), expectation(P)
    yield "on point masses", expectation_as_mu(dirac(x)), x
    yield "on zero", expectation_as_mu(Dist.empty()), Fraction(0)


@law("homothety_translation",
     "E(bP) = bE(P); translation is convolution with a point mass; "
     "translations shift total-1 expectations")
def _homothety_translation(P=dist(line), a=point(line), b=point(line), U=prob(line)):
    yield "homothety scales E", expectation(homothety(P, b)), b * expectation(P)
    yield "translate = convolve with dirac", translate(P, a), convolve(P, dirac(a))
    yield "E after translation", expectation(translate(P, a)), expectation(P) + total(P) * a
    yield "total-1 translation", expectation(translate(U, a)), expectation(U) + a


@law("affine_expectation", "E(f(P)) = f(E(P)) for affine f and total-1 P")
def _affine_expectation(P=prob(line), f=affine):
    yield "affine equivariance", expectation(pushforward(f, P)), f(expectation(P))
    # pin what AffineMap(slope, offset) means, not just that it is affine
    yield "f(0) is the offset", f(Fraction(0)), f.offset
    yield "f(1) - f(0) is the slope", f(Fraction(1)) - f(Fraction(0)), f.slope


@law("cg_affine",
     "the center of gravity is affine-equivariant: cg(f(P)) = f(cg(P))")
def _cg_affine(P=nonzero_total, f=affine):
    yield "cg equivariance", center_of_gravity(pushforward(f, P)), f(center_of_gravity(P))


@law("derivative_total", "the derivative of any distribution has total 0")
def _derivative_total(P=dist(line), step=choice(STEPS)):
    yield "total(P') = 0", total(derivative(P, step)), Fraction(0)


@law("derivative_expectation", "E(P') = total(P)")
def _derivative_expectation(P=dist(line), step=choice(STEPS)):
    yield "E(P') = total(P)", expectation(derivative(P, step)), total(P)


@law("derivative_switch", "<P', phi> = <P, phi'>")
def _derivative_switch(P=dist(line), step=choice(STEPS), phi=poly, psi=kernel):
    for desc, v in (("scalar test functions", phi), ("vector test functions", psi)):
        yield desc, pair(derivative(P, step), v), pair(P, fn_derivative(v, step))


@law("derivative_convolution", "(P*Q)' = P'*Q = P*Q'")
def _derivative_convolution(P=dist(line), Q=dist(line), step=choice(STEPS)):
    lhs = derivative(convolve(P, Q), step)
    yield "(P*Q)' = P'*Q", lhs, convolve(derivative(P, step), Q)
    yield "(P*Q)' = P*Q'", lhs, convolve(P, derivative(Q, step))


@law("derivative_translation", "differentiation commutes with translation")
def _derivative_translation(P=dist(line), t=point(line), step=choice(STEPS)):
    yield ("translation invariance",
           derivative(translate(P, t), step), translate(derivative(P, step), t))


@law("derivative_linear",
     "differentiation is additive, homogeneous, and commutes with mixing")
def _derivative_linear(P=dist(line), Q=dist(line), c=scalar(), step=choice(STEPS),
                       mix=line_mixture):
    ddt = lambda r: derivative(r, step)
    yield from _linear(ddt, P, Q, c)
    yield "commutes with mixing", *_mixing(ddt, mix)


def _balanced(rng, cfg, sr, drawn) -> Dist:
    """A distribution with zero total on every translation orbit of the
    drawn step, i.e. one that is guaranteed to have a primitive."""
    d, pool = drawn["step"].d, line(cfg).elements
    terms = []
    for _ in range(rng.randint(1, 3)):
        x0 = rng.choice(pool)
        block = []
        for _ in range(rng.randint(1, 3)):
            w = _weight(rng, cfg, RATIONALS, drawn)
            block.append((x0 + rng.randint(-4, 4) * d, w))
        block.append((x0 + rng.randint(-4, 4) * d, -sum(w for _, w in block)))
        terms += block
    return Dist(terms)


@law("integration",
     "primitive and derivative are mutually inverse where primitives exist")
def _integration(step=choice(STEPS), P=dist(line), Q=_balanced):
    yield "primitive(P') = P", primitive(derivative(P, step), step), P
    yield "(primitive(Q))' = Q", derivative(primitive(Q, step), step), Q
    yield "primitive(0) = 0", primitive(Dist.empty(), step), Dist.empty()


def _interval_end(rng, cfg, sr, drawn) -> Fraction:
    """A point on the drawn step's grid through a, at most 5 steps away."""
    return drawn["a"] + rng.randint(-5, 5) * drawn["step"].d


@law("interval_laws",
     "interval(a,b)' = dirac(b) - dirac(a), its total is b - a, and it "
     "matches the primitive construction")
def _interval_laws(step=choice(STEPS), a=point(line), b=_interval_end):
    comb = interval(a, b, step)
    endpoints = dist_sub(dirac(b), dirac(a))
    yield "defining equation", derivative(comb, step), endpoints
    yield "total", total(comb), b - a
    yield "primitive route", primitive(endpoints, step), comb
    yield "[a,a] = 0", interval(a, a, step), Dist.empty()


@law("interval_powers",
     "convolution powers of intervals keep multiplicative totals "
     "((2a)^k for [-a,a]); expectations grow linearly at -a*d per power, "
     "because the comb realizing an interval is left-closed and hence "
     "not symmetric")
def _interval_powers():
    a, d = Fraction(1, 2), Fraction(1, 4)
    unit = interval(-a, a, Step(d))
    wide = interval(Fraction(-1), Fraction(1), Step(Fraction(1, 2)))
    yield "E([-a,a]) = -a*d", expectation(unit), -a * d
    for k in range(6):
        pk = convolution_power(unit, k)
        yield f"total of [-a,a]^*{k}", total(pk), Fraction(1)
        yield f"expectation of [-a,a]^*{k}", expectation(pk), k * expectation(unit)
        yield f"total of [-1,1]^*{k}", total(convolution_power(wide, k)), Fraction(2) ** k


@law("leibniz_residual",
     "the exact product-rule defect (P'|-phi - P|-phi') - (P|-phi)' equals "
     "(phi(x+d)-phi(x)) (dirac(x+d)-dirac(x))/d on point masses, is linear "
     "in P, and vanishes for constant phi; the two-sided product rule "
     "itself needs nilpotent steps and is deliberately not asserted")
def _leibniz_residual(step=choice(STEPS), x=point(line), phi=poly, P=dist(line),
                      Q=dist(line), c=scalar()):
    d = step.d
    closed = scale((phi(x + d) - phi(x)) / d, dist_sub(dirac(x + d), dirac(x)))
    yield "closed form on point masses", leibniz_residual(dirac(x), phi, step), closed
    yield from _linear(lambda r: leibniz_residual(r, phi, step), P, Q, c, "residual ")
    const_phi = lambda _: Fraction(5, 3)
    yield "constant phi", leibniz_residual(P, const_phi, step), Dist.empty()


# -- probability laws --------------------------------------------------------------


def _event(rng, cfg, sr, drawn):
    """A random 0/1 table (an event) of nonzero probability under P, or
    None when 50 tries all miss (astronomically unlikely)."""
    sa = space_a(cfg)
    for _ in range(50):
        event = FunTable(sa, {x: Fraction(rng.choice((0, 1))) for x in sa})
        if pair(drawn["P"], event) != 0:
            return event
    return None


@law("conditioning",
     "<P|phi, psi> <P, phi> = <P, phi psi>; conditioning keeps total 1 "
     "and conditioning on the sure event changes nothing")
def _conditioning(P=prob(space_a), event=_event, psi=table(space_a, scalar(nonzero=False))):
    if event is None:
        return
    conditioned = condition(P, event)
    yield ("conditional pairing identity", pair(conditioned, psi) * pair(P, event),
           pair(P, fn_pointwise_mul(event, psi)))
    yield "total 1", total(conditioned), Fraction(1)
    yield "sure event", condition(P, constant_one()), P


@law("marginals_tensor",
     "the marginals of a tensor of total-1 distributions are the factors, "
     "and tensors are independent")
def _marginals_tensor(P=prob(space_a), Q=prob(space_b)):
    j = tensor(P, Q)
    yield "marginals recover factors", marginals(j), (P, Q)
    yield "tensor joints are independent", is_independent(j), True
    correlated = Dist({(0, 0): Fraction(1, 2), (1, 1): Fraction(1, 2)})
    yield "correlated joint detected", is_independent(correlated), False


@law("rv_sum",
     "the distribution of a coordinate sum pushes the joint along +; its "
     "expectation splits even under dependence; tensor joints convolve")
def _rv_sum(J=joint, P=prob(line), Q=prob(line)):
    m1, m2 = marginals(J)
    s = rv_sum(J)
    yield "E(X+Y) = E(X) + E(Y)", expectation(s), expectation(m1) + expectation(m2)
    yield "mass preserved", total(s), total(J)
    yield "independent sum = convolution", rv_sum(tensor(P, Q)), convolve(P, Q)


@law("probability_closure",
     "total-1 distributions are closed under tensor and convolution but "
     "not under scaling")
def _probability_closure(P=prob(line), Q=prob(line)):
    yield "tensor stays total-1", is_probability(tensor(P, Q)), True
    yield "convolution stays total-1", is_probability(convolve(P, Q)), True
    yield "scaling leaves", is_probability(scale(2, P)), False
    yield "normalize lands in total-1", is_probability(normalize(scale(7, P))), True


# -- quantity laws ------------------------------------------------------------------


@law("unit_determined",
     "a quantity's pure value is fully determined by the unit scalar: "
     "tagging is invertible, unit conversion preserves the pure value, "
     "equal units give equal pure values, and conversion to pure commutes "
     "with pushforward, addition and scaling")
def _unit_determined(P=dist(space_a), u=scalar(), u2=scalar(),
                     body=dist(space_a, min_support=1), f=table(space_a, point(space_b)),
                     c=scalar(), Q=dist(space_a)):
    m = from_pure(P, u)
    yield "to_pure inverts from_pure", to_pure(m), P
    yield "rescaling preserves the pure value", to_pure(rescale_unit(m, u2)), P
    yield "same unit, same tagging", rescale_unit(m, u), m
    pure = lambda d: to_pure(UnitTagged(u, d))
    if u != u2:
        yield ("distinct units give distinct pure values",
               pure(body) == to_pure(UnitTagged(u2, body)), False)
    yield "commutes with pushforward", pushforward(f, pure(body)), pure(pushforward(f, body))
    yield from _linear(pure, body, Q, c, "to_pure ")


# -- genericity over the boolean rig -------------------------------------------------


@law("bool_monad_functor",
     "the monad and functor laws hold over the boolean rig (the "
     "possibility/powerset reading of distributions)",
     semiring=BOOLEANS)
def _bool_monad_functor(P=dist(space_a), PPP=nested(space_a, depth=3), P2=dist(space_a),
                        f=table(space_a, point(space_b)), g=table(space_b, point(space_c))):
    yield from _monad_laws(P, PPP)
    yield from _functor_laws(P2, f, g)


law("bool_fubini", "Fubini holds over the boolean rig", semiring=BOOLEANS)(_fubini)
