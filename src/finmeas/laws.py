"""Randomized generators and the exact-equality law suite.

Every law is an equation between two independently computed values of
exact arithmetic, so checks use plain ==, never tolerances. (An inexact
scalar instance must not be wired into this harness.) Checks refute
rather than prove: each law draws `cases` samples from a stream derived
from (seed, law name), so runs are reproducible and parallelizable
without changing results.

A law's case is a generator `case(rng, cfg)`. It draws its inputs from
`rng` and yields equations `(inputs, description, lhs, rhs)`, where
`inputs` maps a name to a drawn value, e.g. {"P": p, "Q": q}. `run_law`
is the one place that compares: it checks each equation with == as it
is yielded and stops at the first mismatch, which it reports as

    NAME=value, ...; description: lhs!r != rhs!r

with a Fraction input shown by str and any other input by repr.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache, partial

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
    linear_extend,
    pushforward,
    scale,
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
    fn_action,
    fn_pointwise_mul,
    pair,
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
from .scalars import BOOLEANS, RATIONALS, FrozenValue, Semiring
from .strength import (
    cotensor_strength,
    extend_1linear,
    extend_1linear_via_strength,
    extend_2linear,
    extend_2linear_via_strength,
    extend_bilinear,
    strength_left,
    strength_right,
    structure_map,
    tensor,
    tensor_iterated,
)

STEPS = (Fraction(1), Fraction(1, 2), Fraction(2, 3), Fraction(-1, 3))

_ATOMS_A = ("a", "b", "c", "d", "e")
_ATOMS_B = ("u", "v", "w", "s", "t")
_ATOMS_C = ("k", "m", "n", "g", "h")


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


# -- generators ---------------------------------------------------------------


def space_a(cfg: GenConfig) -> FiniteSpace:
    return FiniteSpace(_ATOMS_A[: cfg.space_size])


def space_b(cfg: GenConfig) -> FiniteSpace:
    return FiniteSpace(_ATOMS_B[: cfg.space_size])


def space_c(cfg: GenConfig) -> FiniteSpace:
    return FiniteSpace(_ATOMS_C[: cfg.space_size])


def gen_scalar(rng, cfg: GenConfig, semiring: Semiring = RATIONALS, nonzero=True):
    """A random scalar with numerator/denominator inside the bound.

    With coefficient_bound == 1 this emits only 1 and -1 over a ring,
    and only 1 over a rig.
    """
    if semiring.name == "boolean":
        return True if nonzero else rng.choice((False, True))
    b = cfg.coefficient_bound
    num = rng.randint(1, b) if nonzero else rng.randint(0, b)
    num *= rng.choice((1, -1))
    return Fraction(num, rng.randint(1, b))


def gen_dist(rng, cfg, space: FiniteSpace, semiring: Semiring = RATIONALS,
             min_support=0) -> Dist:
    k = rng.randint(min_support, min(cfg.max_support, len(space)))
    points = rng.sample(space.elements, k)
    return Dist._of({x: gen_scalar(rng, cfg, semiring) for x in points}, semiring)


@lru_cache(maxsize=None)
def _line_pool(b: int) -> tuple:
    pool = {Fraction(n, d) for n in range(-b, b + 1) for d in (1, 2, 3)}
    return tuple(sorted(pool))


def gen_rational_point(rng, cfg) -> Fraction:
    return rng.choice(_line_pool(cfg.coefficient_bound))


def gen_line_dist(rng, cfg, min_support=0) -> Dist:
    pool = _line_pool(cfg.coefficient_bound)
    k = rng.randint(min_support, min(cfg.max_support, len(pool)))
    points = rng.sample(pool, k)
    return Dist._of({x: gen_scalar(rng, cfg) for x in points}, RATIONALS)


def gen_nested(rng, cfg, space, semiring: Semiring = RATIONALS, depth=2,
               min_support=0) -> Dist:
    """A mixture of mixtures ... of distributions, `depth` layers deep."""
    if depth <= 1:
        return gen_dist(rng, cfg, space, semiring, min_support=min_support)
    k = rng.randint(min_support, cfg.max_support)
    return Dist(
        (
            (gen_nested(rng, cfg, space, semiring, depth - 1), gen_scalar(rng, cfg, semiring))
            for _ in range(k)
        ),
        semiring,
    )


def gen_map(rng, domain: FiniteSpace, codomain: FiniteSpace) -> FunTable:
    return FunTable(domain, {x: rng.choice(codomain.elements) for x in domain})


def gen_scalar_table(rng, cfg, domain: FiniteSpace,
                     semiring: Semiring = RATIONALS) -> FunTable:
    return FunTable(
        domain, {x: gen_scalar(rng, cfg, semiring, nonzero=False) for x in domain}
    )


def gen_event(rng, domain: FiniteSpace) -> FunTable:
    """A random 0/1 table (a multiplicative idempotent, i.e. an event)."""
    return FunTable(domain, {x: Fraction(rng.choice((0, 1))) for x in domain})


def gen_dist_table(rng, cfg, domain: FiniteSpace, codomain: FiniteSpace,
                   semiring: Semiring = RATIONALS) -> FunTable:
    """A table whose values are distributions (a tabulated kernel)."""
    return FunTable(
        domain, {x: gen_dist(rng, cfg, codomain, semiring) for x in domain}
    )


def _total_one(rng, cfg, points) -> Dist:
    """Random weights on `points` whose last weight makes the total 1."""
    weights = [gen_scalar(rng, cfg) for _ in points[:-1]]
    weights.append(1 - sum(weights))
    return Dist(zip(points, weights))


def gen_prob_dist(rng, cfg, space: FiniteSpace) -> Dist:
    """A signed distribution with total exactly 1."""
    k = rng.randint(1, min(cfg.max_support, len(space)))
    return _total_one(rng, cfg, rng.sample(space.elements, k))


def gen_prob_line_dist(rng, cfg) -> Dist:
    pool = _line_pool(cfg.coefficient_bound)
    k = rng.randint(1, min(cfg.max_support, len(pool)))
    return _total_one(rng, cfg, rng.sample(pool, k))


def gen_prob_pair_dist(rng, cfg) -> Dist:
    """A total-1 joint over rational pairs, usually correlated."""
    candidates = _line_pool(cfg.coefficient_bound)
    k = rng.randint(1, cfg.max_support)
    points = {(rng.choice(candidates), rng.choice(candidates)) for _ in range(k)}
    return _total_one(rng, cfg, sorted(points))


def gen_nonzero_total_line_dist(rng, cfg) -> Dist:
    while True:
        p = gen_line_dist(rng, cfg, min_support=1)
        if total(p) != 0:
            return p


def gen_affine(rng, cfg) -> AffineMap:
    return AffineMap(
        gen_scalar(rng, cfg, nonzero=False), gen_scalar(rng, cfg, nonzero=False)
    )


def gen_step(rng) -> Step:
    return Step(rng.choice(STEPS))


def gen_poly_fn(rng, cfg) -> TestFn:
    """A random quadratic as a scalar test function on the line."""
    c0, c1, c2 = (gen_scalar(rng, cfg, nonzero=False) for _ in range(3))

    def poly(x):
        return c0 + c1 * x + c2 * x * x

    return TestFn(poly, label=f"{c0} + ({c1})x + ({c2})x^2")


def gen_dist_valued_line_fn(rng, cfg) -> TestFn:
    """A total, distribution-valued function on the line, of the shape
    x -> sum of w_i * dirac(u_i * x + v_i)."""
    terms = [
        (gen_scalar(rng, cfg), gen_rational_point(rng, cfg), gen_rational_point(rng, cfg))
        for _ in range(rng.randint(1, 2))
    ]

    def kernel(x):
        return Dist((u * x + v, w) for w, u, v in terms)

    return TestFn.dist_valued(kernel)


def gen_balanced_line_dist(rng, cfg, step: Step) -> Dist:
    """A distribution with zero total on every step-translation orbit,
    i.e. one that is guaranteed to have a primitive."""
    d = step.d
    acc = Dist.empty()
    for _ in range(rng.randint(1, 3)):
        x0 = gen_rational_point(rng, cfg)
        block = []
        ws = []
        for _ in range(rng.randint(1, 3)):
            w = gen_scalar(rng, cfg)
            block.append((x0 + rng.randint(-4, 4) * d, w))
            ws.append(w)
        block.append((x0 + rng.randint(-4, 4) * d, -sum(ws)))
        acc = dist_add(acc, Dist(block))
    return acc


# -- the registry and the runner ---------------------------------------------------


class Law(FrozenValue):
    __slots__ = _fields = ("name", "statement", "case", "deterministic")

    def __init__(self, name, statement, case, deterministic=False):
        super().__init__(name, statement, case, deterministic)


LAWS: "dict[str, Law]" = {}


def law(name: str, statement: str, deterministic: bool = False):
    """Register `case(rng, cfg)`, a generator of equations, as law `name`."""
    if name in LAWS:
        raise ValueError(f"law {name!r} is already registered")

    def register(fn):
        LAWS[name] = Law(name, statement, fn, deterministic)
        return fn

    return register


def _counterexample(inputs: dict, desc: str, lhs, rhs) -> str:
    shown = ", ".join(
        f"{k}={v}" if isinstance(v, Fraction) else f"{k}={v!r}"
        for k, v in inputs.items()
    )
    head = f"{shown}; " if shown else ""
    return f"{head}{desc}: {lhs!r} != {rhs!r}"


def run_law(name: str, cfg: GenConfig) -> LawReport:
    if name not in LAWS:
        raise SelectionError(
            f"unknown law {name!r}; known laws: {', '.join(sorted(LAWS))}"
        )
    entry = LAWS[name]
    rng = random.Random(f"{cfg.seed}:{name}")
    n = 1 if entry.deterministic else cfg.cases
    for i in range(1, n + 1):
        for inputs, desc, lhs, rhs in entry.case(rng, cfg):
            if not lhs == rhs:
                return LawReport(name, entry.statement, i, False,
                                 _counterexample(inputs, desc, lhs, rhs))
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


# -- core monad/module laws ----------------------------------------------------


@law("scalar_field_laws",
     "rational +/* are associative, commutative, distributive; - and / invert")
def _scalar_field_laws(rng, cfg):
    sr = RATIONALS
    a, b, c = (gen_scalar(rng, cfg, nonzero=False) for _ in range(3))
    ins = {"a": a, "b": b, "c": c}
    yield ins, "(a+b)+c = a+(b+c)", sr.add(sr.add(a, b), c), sr.add(a, sr.add(b, c))
    yield ins, "a+b = b+a", sr.add(a, b), sr.add(b, a)
    yield ins, "(ab)c = a(bc)", sr.mul(sr.mul(a, b), c), sr.mul(a, sr.mul(b, c))
    yield ins, "ab = ba", sr.mul(a, b), sr.mul(b, a)
    yield ins, "a(b+c) = ab+ac", sr.mul(a, sr.add(b, c)), sr.add(sr.mul(a, b), sr.mul(a, c))
    yield ins, "0*a = 0", sr.mul(sr.zero, a), sr.zero
    yield ins, "a-a = 0", sr.sub(a, a), sr.zero
    if a != 0:
        yield ins, "a * (1/a) = 1", sr.mul(a, sr.inv(a)), sr.one


@law("boolean_rig_laws",
     "boolean or/and form a commutative rig (no negation, no inverses)")
def _boolean_rig_laws(rng, cfg):
    sr = BOOLEANS
    a, b, c = (rng.choice((False, True)) for _ in range(3))
    ins = {"a": a, "b": b, "c": c}
    yield ins, "(a+b)+c = a+(b+c)", sr.add(sr.add(a, b), c), sr.add(a, sr.add(b, c))
    yield ins, "a+b = b+a", sr.add(a, b), sr.add(b, a)
    yield ins, "(ab)c = a(bc)", sr.mul(sr.mul(a, b), c), sr.mul(a, sr.mul(b, c))
    yield ins, "ab = ba", sr.mul(a, b), sr.mul(b, a)
    yield ins, "a(b+c) = ab+ac", sr.mul(a, sr.add(b, c)), sr.add(sr.mul(a, b), sr.mul(a, c))
    yield ins, "0*a = 0", sr.mul(sr.zero, a), sr.zero
    yield ins, "1*a = a", sr.mul(sr.one, a), a
    yield ins, "0+a = a", sr.add(sr.zero, a), a
    yield ins, "neg is absent", sr.is_ring, False
    yield ins, "inv is absent", sr.has_inverses, False


@law("monad_laws",
     "flatten and dirac satisfy the unit and associativity laws of a monad")
def _monad_laws(rng, cfg, semiring=RATIONALS):
    sp = space_a(cfg)
    p = gen_dist(rng, cfg, sp, semiring)
    yield {"P": p}, "flatten(dirac(P)) = P", flatten(dirac(p, semiring)), p
    yield ({"P": p}, "flatten(map dirac P) = P",
           flatten(pushforward(lambda x: dirac(x, semiring), p)), p)
    ppp = gen_nested(rng, cfg, sp, semiring, depth=3)
    yield ({"PPP": ppp}, "flatten.flatten = flatten.map(flatten)",
           flatten(flatten(ppp)), flatten(pushforward(flatten, ppp)))


@law("functor_laws", "pushforward preserves identities and composition")
def _functor_laws(rng, cfg, semiring=RATIONALS):
    sa, sb, sc = space_a(cfg), space_b(cfg), space_c(cfg)
    p = gen_dist(rng, cfg, sa, semiring)
    f = gen_map(rng, sa, sb)
    g = gen_map(rng, sb, sc)
    ins = {"P": p, "f": f, "g": g}
    yield ins, "pushforward(id) = id", pushforward(lambda x: x, p), p
    yield (ins, "pushforward(g.f) = pushforward(g).pushforward(f)",
           pushforward(lambda x: g(f(x)), p), pushforward(g, pushforward(f, p)))


@law("total_pushforward", "total(pushforward(f, P)) = total(P) for every f")
def _total_pushforward(rng, cfg):
    sa, sb = space_a(cfg), space_b(cfg)
    p = gen_dist(rng, cfg, sa)
    f = gen_map(rng, sa, sb)
    yield {"P": p, "f": f}, "total is pushforward-invariant", total(pushforward(f, p)), total(p)


@law("linear_extension",
     "linear extension restricts to f on point masses, is additive and "
     "homogeneous, and equals flatten after pushforward")
def _linear_extension(rng, cfg):
    sa, sb = space_a(cfg), space_b(cfg)
    f = gen_dist_table(rng, cfg, sa, sb)
    ext = lambda p: linear_extend(f, p)
    p, q = gen_dist(rng, cfg, sa), gen_dist(rng, cfg, sa)
    c = gen_scalar(rng, cfg)
    x = rng.choice(sa.elements)
    ins = {"P": p, "Q": q, "c": c, "x": x, "f": f}
    yield ins, "ext(dirac(x)) = f(x)", ext(dirac(x)), f(x)
    yield ins, "ext = flatten.pushforward(f)", ext(p), flatten(pushforward(f, p))
    yield ins, "ext(P+Q) = ext(P)+ext(Q)", ext(dist_add(p, q)), dist_add(ext(p), ext(q))
    yield ins, "ext(cP) = c ext(P)", ext(scale(c, p)), scale(c, ext(p))
    yield (ins, "extension of dirac is the identity",
           linear_extend(TestFn.dist_valued(dirac), p), p)


@law("biproduct",
     "split/merge over tagged points are mutually inverse module "
     "isomorphisms and totals add")
def _biproduct(rng, cfg):
    sa, sb = space_a(cfg), space_b(cfg)
    a, b = gen_dist(rng, cfg, sa), gen_dist(rng, cfg, sb)
    m = biproduct_merge(a, b)
    a2, b2 = biproduct_split(m)
    c = gen_scalar(rng, cfg)
    a3, b3 = gen_dist(rng, cfg, sa), gen_dist(rng, cfg, sb)
    ins = {"A": a, "B": b, "c": c, "A3": a3, "B3": b3}
    yield ins, "split(merge(A,B)) = (A,B)", (a2, b2), (a, b)
    yield ins, "merge(split(M)) = M", biproduct_merge(a2, b2), m
    yield ins, "total(merge) = total(A)+total(B)", total(m), total(a) + total(b)
    yield (ins, "split respects +", biproduct_split(dist_add(m, biproduct_merge(a3, b3))),
           (dist_add(a, a3), dist_add(b, b3)))
    yield ins, "split respects scale", biproduct_split(scale(c, m)), (scale(c, a), scale(c, b))
    yield ins, "merge(0,0) = 0", biproduct_merge(Dist.empty(), Dist.empty()), Dist.empty()


@law("additivity",
     "sampled linear maps are additive/homogeneous; tensor, convolution "
     "and the pairing are bi-additive")
def _additivity(rng, cfg):
    sa, sb = space_a(cfg), space_b(cfg)
    f = gen_map(rng, sa, sb)
    phi = gen_scalar_table(rng, cfg, sa)
    c = gen_scalar(rng, cfg)
    p, q = gen_dist(rng, cfg, sa), gen_dist(rng, cfg, sa)
    linear_maps = [
        ("pushforward", lambda r: pushforward(f, r)),
        ("scale", lambda r: scale(c, r)),
        ("reweight", lambda r: fn_action(r, phi)),
    ]
    ins = {"P": p, "Q": q, "c": c}
    for name, g in linear_maps:
        yield ins, f"{name} additive", g(dist_add(p, q)), dist_add(g(p), g(q))
        yield ins, f"{name} homogeneous", g(scale(c, p)), scale(c, g(p))
    r, s = gen_dist(rng, cfg, sb), gen_dist(rng, cfg, sb)
    ins = {"P": p, "Q": q, "R": r, "S": s}
    yield (ins, "tensor left-additive", tensor(dist_add(p, q), r),
           dist_add(tensor(p, r), tensor(q, r)))
    yield (ins, "tensor right-additive", tensor(p, dist_add(r, s)),
           dist_add(tensor(p, r), tensor(p, s)))
    yield (ins, "pairing additive in P", pair(dist_add(p, q), phi),
           pair(p, phi) + pair(q, phi))
    lp, lq = gen_line_dist(rng, cfg), gen_line_dist(rng, cfg)
    lr = gen_line_dist(rng, cfg)
    yield ({"P": lp, "Q": lq, "R": lr}, "convolution left-additive",
           convolve(dist_add(lp, lq), lr), dist_add(convolve(lp, lr), convolve(lq, lr)))


@law("linearity_closure",
     "pointwise sums and scalar multiples of linear maps are linear again")
def _linearity_closure(rng, cfg):
    sa, sb = space_a(cfg), space_b(cfg)
    f1 = gen_map(rng, sa, sb)
    f2 = gen_map(rng, sa, sb)
    phi = gen_scalar_table(rng, cfg, sa)
    c = gen_scalar(rng, cfg)
    table2 = gen_scalar_table(rng, cfg, sb)
    g1 = lambda p: pushforward(f1, p)
    g2 = lambda p: fn_action(pushforward(f2, p), table2)
    g3 = lambda p: fn_action(p, phi)
    combined = [
        ("g1+g2", lambda p: dist_add(g1(p), g2(p))),
        ("c*g1", lambda p: scale(c, g1(p))),
        ("g1+g3", lambda p: dist_add(g1(p), g3(p))),
    ]
    for name, g in combined:
        mix = gen_nested(rng, cfg, sa, depth=2)
        yield {"mix": mix}, f"{name} is linear on the mixture", *_mixing(g, mix)


@law("scale_equivariance",
     "pushforward, flatten, reweighting and the derivative all commute "
     "with scalar multiplication")
def _scale_equivariance(rng, cfg):
    sa, sb = space_a(cfg), space_b(cfg)
    c = gen_scalar(rng, cfg)
    p = gen_dist(rng, cfg, sa)
    f = gen_map(rng, sa, sb)
    yield ({"P": p, "c": c, "f": f}, "pushforward equivariant",
           pushforward(f, scale(c, p)), scale(c, pushforward(f, p)))
    pp = gen_nested(rng, cfg, sa, depth=2)
    yield ({"PP": pp, "c": c}, "flatten equivariant",
           flatten(scale(c, pp)), scale(c, flatten(pp)))
    lp = gen_line_dist(rng, cfg)
    step = gen_step(rng)
    yield ({"P": lp, "c": c, "d": step.d}, "derivative equivariant",
           derivative(scale(c, lp), step), scale(c, derivative(lp, step)))


# -- strength and Fubini laws ---------------------------------------------------


@law("strength_units",
     "the strengths send point masses to point masses on pairs and agree "
     "with tensoring against a dirac")
def _strength_units(rng, cfg):
    sa, sb = space_a(cfg), space_b(cfg)
    x, y = rng.choice(sa.elements), rng.choice(sb.elements)
    q = gen_dist(rng, cfg, sb)
    ins = {"x": x, "y": y, "Q": q}
    yield (ins, "strength_left(x, dirac(y)) = dirac((x,y))",
           strength_left(x, dirac(y)), dirac((x, y)))
    yield (ins, "strength_right(dirac(x), y) = dirac((x,y))",
           strength_right(dirac(x), y), dirac((x, y)))
    yield ins, "strength_left = tensor against dirac", strength_left(x, q), tensor(dirac(x), q)
    yield ins, "strength_left(x, 0) = 0", strength_left(x, Dist.empty()), Dist.empty()


@law("strength_pentagons",
     "the strengths commute with mixing: linear in their distribution slot")
def _strength_pentagons(rng, cfg):
    sa, sb = space_a(cfg), space_b(cfg)
    x = rng.choice(sa.elements)
    qq = gen_nested(rng, cfg, sb, depth=2)
    yield ({"x": x, "QQ": qq}, "strength_left pentagon",
           *_mixing(lambda q: strength_left(x, q), qq))
    y = rng.choice(sb.elements)
    pp = gen_nested(rng, cfg, sa, depth=2)
    yield ({"PP": pp, "y": y}, "strength_right pentagon",
           *_mixing(lambda p: strength_right(p, y), pp))


@law("extension_triangles",
     "partial-linear extensions restrict to the original map on point masses")
def _extension_triangles(rng, cfg):
    sa, sb = space_a(cfg), space_c(cfg)
    values = {
        (x, y): gen_dist(rng, cfg, space_b(cfg)) for x in sa for y in sb
    }
    f = TestFn.dist_valued(lambda x, y: values[(x, y)])
    x, y = rng.choice(sa.elements), rng.choice(sb.elements)
    ins = {"x": x, "y": y}
    yield ins, "2-linear triangle", extend_2linear(f)(x, dirac(y)), f(x, y)
    yield ins, "1-linear triangle", extend_1linear(f)(dirac(x), y), f(x, y)
    yield ins, "bilinear triangle", extend_bilinear(f)(dirac(x), dirac(y)), f(x, y)


@law("extension_uniqueness",
     "the direct weighted-sum extension and the strength-routed extension "
     "of the same map agree (uniqueness of partial-linear extensions)")
def _extension_uniqueness(rng, cfg):
    sa, sb = space_a(cfg), space_c(cfg)
    values = {
        (x, y): gen_dist(rng, cfg, space_b(cfg)) for x in sa for y in sb
    }
    f = TestFn.dist_valued(lambda x, y: values[(x, y)])
    x = rng.choice(sa.elements)
    q = gen_dist(rng, cfg, sb)
    p = gen_dist(rng, cfg, sa)
    y = rng.choice(sb.elements)
    yield ({"x": x, "Q": q}, "2-linear extension unique",
           extend_2linear(f)(x, q), extend_2linear_via_strength(f)(x, q))
    yield ({"P": p, "y": y}, "1-linear extension unique",
           extend_1linear(f)(p, y), extend_1linear_via_strength(f)(p, y))
    scalars = {(x, y): gen_scalar(rng, cfg, nonzero=False) for x in sa for y in sb}
    g = lambda x, y: scalars[(x, y)]
    yield ({"x": x, "Q": q}, "scalar-valued 2-linear extension unique",
           extend_2linear(g)(x, q), extend_2linear_via_strength(g)(x, q))
    # the bilinear extension is stage-order independent: extending the
    # first slot first agrees with extending the second slot first
    second_first = linear_extend(TestFn.dist_valued(lambda y: extend_1linear(f)(p, y)), q)
    yield ({"P": p, "Q": q}, "bilinear extension stage order",
           extend_bilinear(f)(p, q), second_first)


@law("fubini",
     "the two extension orders build the same tensor: Fubini's theorem "
     "for finite mixtures")
def _fubini(rng, cfg, semiring=RATIONALS):
    p = gen_dist(rng, cfg, space_a(cfg), semiring)
    q = gen_dist(rng, cfg, space_b(cfg), semiring)
    yield {"P": p, "Q": q}, "tensor = tensor_iterated", tensor(p, q), tensor_iterated(p, q)


@law("tensor_bilinear", "tensor is linear in each argument separately")
def _tensor_bilinear(rng, cfg):
    pp = gen_nested(rng, cfg, space_a(cfg), depth=2)
    qq = gen_nested(rng, cfg, space_b(cfg), depth=2)
    p, q = flatten(pp), flatten(qq)
    ins = {"PP": pp, "QQ": qq}
    yield ins, "tensor linear in P", *_mixing(lambda m: tensor(m, q), pp)
    yield ins, "tensor linear in Q", *_mixing(lambda n: tensor(p, n), qq)


@law("tensor_total", "total(P (x) Q) = total(P) * total(Q)")
def _tensor_total(rng, cfg):
    p = gen_dist(rng, cfg, space_a(cfg))
    q = gen_dist(rng, cfg, space_b(cfg))
    yield {"P": p, "Q": q}, "multiplicative totals", total(tensor(p, q)), total(p) * total(q)


@law("tensor_symmetry_associativity",
     "tensor is symmetric and associative up to relabeling pair points")
def _tensor_symmetry_associativity(rng, cfg):
    p = gen_dist(rng, cfg, space_a(cfg))
    q = gen_dist(rng, cfg, space_b(cfg))
    r = gen_dist(rng, cfg, space_c(cfg))
    twist = lambda xy: (xy[1], xy[0])
    assoc = lambda xyz: (xyz[0][0], (xyz[0][1], xyz[1]))
    ins = {"P": p, "Q": q, "R": r}
    yield ins, "twist . tensor = tensor . swap", pushforward(twist, tensor(p, q)), tensor(q, p)
    yield (ins, "reassociation", pushforward(assoc, tensor(tensor(p, q), r)),
           tensor(p, tensor(q, r)))


@law("tensor_initial",
     "bilinear extension of the dirac pairing is the tensor; 2-linear "
     "extension of it is the strength")
def _tensor_initial(rng, cfg):
    sa, sb = space_a(cfg), space_b(cfg)
    unit_pair = TestFn.dist_valued(lambda x, y: dirac((x, y)))
    p, q = gen_dist(rng, cfg, sa), gen_dist(rng, cfg, sb)
    x = rng.choice(sa.elements)
    ins = {"P": p, "Q": q, "x": x}
    yield (ins, "extend_bilinear(dirac pair) = tensor",
           extend_bilinear(unit_pair)(p, q), tensor(p, q))
    yield (ins, "extend_2linear(dirac pair) = strength_left",
           extend_2linear(unit_pair)(x, q), strength_left(x, q))


@law("cotensor",
     "evaluating a mixture of function tables at a point equals mixing "
     "the evaluations, naturally in the codomain")
def _cotensor(rng, cfg):
    sa, sb, sc = space_a(cfg), space_b(cfg), space_c(cfg)
    tables = [gen_map(rng, sa, sb) for _ in range(rng.randint(1, 3))]
    pf = Dist((t, gen_scalar(rng, cfg)) for t in tables)
    x = rng.choice(sa.elements)
    g = tables[0]
    yield ({"g": g, "x": x}, "cotensor of a point mass evaluates the table",
           cotensor_strength(dirac(g), x), dirac(g(x)))
    yield ({"PF": pf, "x": x}, "cotensor is linear in the mixture", cotensor_strength(pf, x),
           linear_extend(TestFn.dist_valued(lambda t: dirac(t(x))), pf))
    h = gen_map(rng, sb, sc)
    post = lambda t: FunTable(sa, {a: h(t(a)) for a in sa})
    yield ({"PF": pf, "h": h, "x": x}, "cotensor natural in the codomain",
           cotensor_strength(pushforward(post, pf), x), pushforward(h, cotensor_strength(pf, x)))


# -- pairing laws ----------------------------------------------------------------


@law("pairing_unit", "<dirac(x), phi> = phi(x)")
def _pairing_unit(rng, cfg):
    sa, sb = space_a(cfg), space_b(cfg)
    x = rng.choice(sa.elements)
    phi = gen_scalar_table(rng, cfg, sa)
    psi = gen_dist_table(rng, cfg, sa, sb)
    yield {"x": x, "phi": phi}, "scalar case", pair(dirac(x), phi), phi(x)
    yield {"x": x, "psi": psi}, "vector case", pair(dirac(x), psi), psi(x)


@law("pairing_extranatural", "<pushforward(f, P), phi> = <P, phi . f>")
def _pairing_extranatural(rng, cfg):
    sa, sb = space_a(cfg), space_b(cfg)
    p = gen_dist(rng, cfg, sa)
    f = gen_map(rng, sa, sb)
    phi = gen_scalar_table(rng, cfg, sb)
    yield ({"P": p, "f": f, "phi": phi}, "extranaturality",
           pair(pushforward(f, p), phi), pair(p, lambda x: phi(f(x))))


@law("total_as_pairing", "total(P) = <P, 1>")
def _total_as_pairing(rng, cfg):
    p = gen_dist(rng, cfg, space_a(cfg))
    yield {"P": p}, "total = <-, 1>", total(p), pair(p, constant_one())


@law("pairing_bilinear",
     "the pairing is linear in the distribution and in the test function")
def _pairing_bilinear(rng, cfg):
    sa = space_a(cfg)
    pp = gen_nested(rng, cfg, sa, depth=2)
    phi = gen_scalar_table(rng, cfg, sa)
    yield ({"PP": pp, "phi": phi}, "pairing linear in P",
           *_mixing(lambda p: pair(p, phi), pp))
    p = gen_dist(rng, cfg, sa)
    tables = [gen_scalar_table(rng, cfg, sa) for _ in range(rng.randint(1, 3))]
    tt = Dist((t, gen_scalar(rng, cfg)) for t in tables)
    if not tt.is_empty():
        yield ({"P": p, "TT": tt}, "pairing linear in phi",
               *_mixing(lambda t: pair(p, t), tt))


@law("semantics_monic",
     "evaluating the semantics functional at x -> dirac(x) recovers P")
def _semantics_monic(rng, cfg):
    p = gen_dist(rng, cfg, space_a(cfg))
    yield {"P": p}, "enough test functions", eval_at_eta(semantics(p)), p


@law("switch", "<P |- phi, psi> = <P, phi * psi>")
def _switch(rng, cfg):
    sa, sb = space_a(cfg), space_b(cfg)
    p = gen_dist(rng, cfg, sa)
    phi = gen_scalar_table(rng, cfg, sa)
    psi = gen_dist_table(rng, cfg, sa, sb)
    chi = gen_scalar_table(rng, cfg, sa)
    for desc, v in (("vector psi", psi), ("scalar psi", chi)):
        yield ({"P": p, "phi": phi, "psi": v}, desc,
               pair(fn_action(p, phi), v), pair(p, fn_pointwise_mul(phi, v)))


@law("action_total", "<P, phi> = total(P |- phi)")
def _action_total(rng, cfg):
    sa = space_a(cfg)
    p = gen_dist(rng, cfg, sa)
    phi = gen_scalar_table(rng, cfg, sa)
    yield ({"P": p, "phi": phi}, "<P, phi> = total(P |- phi)",
           pair(p, phi), total(fn_action(p, phi)))


@law("action_monoid",
     "reweighting is associative and unitary: (P|-phi)|-psi = P|-(phi*psi), "
     "P|-1 = P")
def _action_monoid(rng, cfg):
    sa = space_a(cfg)
    p = gen_dist(rng, cfg, sa)
    phi1 = gen_scalar_table(rng, cfg, sa)
    phi2 = gen_scalar_table(rng, cfg, sa)
    ins = {"P": p, "phi1": phi1, "phi2": phi2}
    yield (ins, "associativity", fn_action(fn_action(p, phi1), phi2),
           fn_action(p, fn_pointwise_mul(phi1, phi2)))
    yield ins, "unit", fn_action(p, constant_one()), p


@law("frobenius", "pushforward(f, P) |- phi = pushforward(f, P |- (phi . f))")
def _frobenius(rng, cfg):
    sa, sb = space_a(cfg), space_b(cfg)
    p = gen_dist(rng, cfg, sa)
    f = gen_map(rng, sa, sb)
    phi = gen_scalar_table(rng, cfg, sb)
    yield ({"P": p, "f": f, "phi": phi}, "Frobenius reciprocity",
           fn_action(pushforward(f, p), phi), pushforward(f, fn_action(p, lambda x: phi(f(x)))))


@law("density_round_trip",
     "whenever Q/P exists, reweighting P by it recovers Q; the density of "
     "P in itself is the constant 1")
def _density_round_trip(rng, cfg):
    p = gen_dist(rng, cfg, space_a(cfg), min_support=1)
    sub = [x for x in p.support() if rng.random() < 0.7]
    q = Dist((x, gen_scalar(rng, cfg, nonzero=False)) for x in sub)
    yield {"P": p, "Q": q}, "P |- (Q/P) = Q", fn_action(p, density(q, p)), q
    yield ({"P": p}, "P/P = 1 on the support", set(density(p, p).values()),
           {Fraction(1)} if len(p) else set())


# -- line calculus laws -----------------------------------------------------------


@law("convolution_monoid",
     "convolution is associative and commutative with unit dirac(0)")
def _convolution_monoid(rng, cfg):
    p, q, r = (gen_line_dist(rng, cfg) for _ in range(3))
    ins = {"P": p, "Q": q, "R": r}
    yield ins, "associative", convolve(convolve(p, q), r), convolve(p, convolve(q, r))
    yield ins, "commutative", convolve(p, q), convolve(q, p)
    yield ins, "unit", convolve(p, dirac(Fraction(0))), p


@law("convolution_total", "total(P * Q) = total(P) * total(Q)")
def _convolution_total(rng, cfg):
    p, q = gen_line_dist(rng, cfg), gen_line_dist(rng, cfg)
    yield {"P": p, "Q": q}, "multiplicative totals", total(convolve(p, q)), total(p) * total(q)


@law("expectation_unit", "E(dirac(x)) = x and moment(P, 0) = total(P)")
def _expectation_unit(rng, cfg):
    x = gen_rational_point(rng, cfg)
    p = gen_line_dist(rng, cfg)
    yield {"x": x, "P": p}, "E(dirac(x)) = x", expectation(dirac(x)), x
    yield {"x": x, "P": p}, "moment 0 is the total", moment(p, 0), total(p)


@law("expectation_convolution", "E(P*Q) = E(P) total(Q) + total(P) E(Q)")
def _expectation_convolution(rng, cfg):
    p, q = gen_line_dist(rng, cfg), gen_line_dist(rng, cfg)
    yield ({"P": p, "Q": q}, "product rule for expectations", expectation(convolve(p, q)),
           expectation(p) * total(q) + total(p) * expectation(q))


@law("expectation_as_mu",
     "the pure-monad route to expectation (reading scalars as unit-space "
     "masses, flattening, and totalling) agrees with <P, x>")
def _expectation_as_mu(rng, cfg):
    p = gen_line_dist(rng, cfg)
    x = gen_rational_point(rng, cfg)
    ins = {"P": p, "x": x}
    yield ins, "mixture route = pairing route", expectation_as_mu(p), expectation(p)
    yield ins, "on point masses", expectation_as_mu(dirac(x)), x
    yield ins, "on zero", expectation_as_mu(Dist.empty()), Fraction(0)


@law("homothety_translation",
     "E(bP) = bE(P); translation is convolution with a point mass; "
     "translations shift total-1 expectations")
def _homothety_translation(rng, cfg):
    p = gen_line_dist(rng, cfg)
    a = gen_rational_point(rng, cfg)
    b = gen_rational_point(rng, cfg)
    ins = {"P": p, "a": a, "b": b}
    yield ins, "homothety scales E", expectation(homothety(p, b)), b * expectation(p)
    yield ins, "translate = convolve with dirac", translate(p, a), convolve(p, dirac(a))
    yield (ins, "E after translation", expectation(translate(p, a)),
           expectation(p) + total(p) * a)
    unit = gen_prob_line_dist(rng, cfg)
    yield ({"P": unit, "a": a}, "total-1 translation", expectation(translate(unit, a)),
           expectation(unit) + a)


@law("affine_expectation", "E(f(P)) = f(E(P)) for affine f and total-1 P")
def _affine_expectation(rng, cfg):
    p = gen_prob_line_dist(rng, cfg)
    f = gen_affine(rng, cfg)
    yield ({"P": p, "f": f}, "affine equivariance", expectation(pushforward(f, p)),
           f(expectation(p)))


@law("cg_affine",
     "the center of gravity is affine-equivariant: cg(f(P)) = f(cg(P))")
def _cg_affine(rng, cfg):
    p = gen_nonzero_total_line_dist(rng, cfg)
    f = gen_affine(rng, cfg)
    yield ({"P": p, "f": f}, "cg equivariance", center_of_gravity(pushforward(f, p)),
           f(center_of_gravity(p)))


@law("derivative_total", "the derivative of any distribution has total 0")
def _derivative_total(rng, cfg):
    p = gen_line_dist(rng, cfg)
    step = gen_step(rng)
    yield {"P": p, "d": step.d}, "total(P') = 0", total(derivative(p, step)), Fraction(0)


@law("derivative_expectation", "E(P') = total(P)")
def _derivative_expectation(rng, cfg):
    p = gen_line_dist(rng, cfg)
    step = gen_step(rng)
    yield {"P": p, "d": step.d}, "E(P') = total(P)", expectation(derivative(p, step)), total(p)


@law("derivative_switch", "<P', phi> = <P, phi'>")
def _derivative_switch(rng, cfg):
    p = gen_line_dist(rng, cfg)
    step = gen_step(rng)
    phi = gen_poly_fn(rng, cfg)
    yield ({"P": p, "d": step.d, "phi": phi}, "scalar test functions",
           pair(derivative(p, step), phi), pair(p, fn_derivative(phi, step)))
    psi = gen_dist_valued_line_fn(rng, cfg)
    yield ({"P": p, "d": step.d}, "vector test functions",
           pair(derivative(p, step), psi), pair(p, fn_derivative(psi, step)))


@law("derivative_convolution", "(P*Q)' = P'*Q = P*Q'")
def _derivative_convolution(rng, cfg):
    p, q = gen_line_dist(rng, cfg), gen_line_dist(rng, cfg)
    step = gen_step(rng)
    lhs = derivative(convolve(p, q), step)
    ins = {"P": p, "Q": q, "d": step.d}
    yield ins, "(P*Q)' = P'*Q", lhs, convolve(derivative(p, step), q)
    yield ins, "(P*Q)' = P*Q'", lhs, convolve(p, derivative(q, step))


@law("derivative_translation", "differentiation commutes with translation")
def _derivative_translation(rng, cfg):
    p = gen_line_dist(rng, cfg)
    t = gen_rational_point(rng, cfg)
    step = gen_step(rng)
    yield ({"P": p, "t": t, "d": step.d}, "translation invariance",
           derivative(translate(p, t), step), translate(derivative(p, step), t))


@law("derivative_linear",
     "differentiation is additive, homogeneous, and commutes with mixing")
def _derivative_linear(rng, cfg):
    p, q = gen_line_dist(rng, cfg), gen_line_dist(rng, cfg)
    c = gen_scalar(rng, cfg)
    step = gen_step(rng)
    ddt = lambda r: derivative(r, step)
    ins = {"P": p, "Q": q, "c": c, "d": step.d}
    yield ins, "additive", ddt(dist_add(p, q)), dist_add(ddt(p), ddt(q))
    yield ins, "homogeneous", ddt(scale(c, p)), scale(c, ddt(p))
    mixtures = Dist(
        ((gen_line_dist(rng, cfg), gen_scalar(rng, cfg)) for _ in range(2))
    )
    yield {"mix": mixtures, "d": step.d}, "commutes with mixing", *_mixing(ddt, mixtures)


@law("integration",
     "primitive and derivative are mutually inverse where primitives exist")
def _integration(rng, cfg):
    step = gen_step(rng)
    p = gen_line_dist(rng, cfg)
    yield {"P": p, "d": step.d}, "primitive(P') = P", primitive(derivative(p, step), step), p
    q = gen_balanced_line_dist(rng, cfg, step)
    yield {"Q": q, "d": step.d}, "(primitive(Q))' = Q", derivative(primitive(q, step), step), q
    yield {"d": step.d}, "primitive(0) = 0", primitive(Dist.empty(), step), Dist.empty()


@law("interval_laws",
     "interval(a,b)' = dirac(b) - dirac(a), its total is b - a, and it "
     "matches the primitive construction")
def _interval_laws(rng, cfg):
    step = gen_step(rng)
    a = gen_rational_point(rng, cfg)
    b = a + rng.randint(-5, 5) * step.d
    comb = interval(a, b, step)
    endpoints = dist_sub(dirac(b), dirac(a))
    ins = {"a": a, "b": b, "d": step.d}
    yield ins, "defining equation", derivative(comb, step), endpoints
    yield ins, "total", total(comb), b - a
    yield ins, "primitive route", primitive(endpoints, step), comb
    yield ins, "[a,a] = 0", interval(a, a, step), Dist.empty()


@law("interval_powers",
     "convolution powers of intervals keep multiplicative totals "
     "((2a)^k for [-a,a]); expectations grow linearly at -a*d per power, "
     "because the comb realizing an interval is left-closed and hence "
     "not symmetric",
     deterministic=True)
def _interval_powers(rng, cfg):
    a, d = Fraction(1, 2), Fraction(1, 4)
    unit = interval(-a, a, Step(d))
    wide = interval(Fraction(-1), Fraction(1), Step(Fraction(1, 2)))
    yield {"a": a, "d": d}, "E([-a,a]) = -a*d", expectation(unit), -a * d
    for k in range(6):
        pk = convolution_power(unit, k)
        yield {"a": a, "d": d, "k": k}, "total of [-a,a]^*k", total(pk), Fraction(1)
        yield ({"a": a, "d": d, "k": k}, "expectation of [-a,a]^*k", expectation(pk),
               k * expectation(unit))
        yield ({"k": k}, "total of [-1,1]^*k", total(convolution_power(wide, k)),
               Fraction(2) ** k)


@law("leibniz_residual",
     "the exact product-rule defect (P'|-phi - P|-phi') - (P|-phi)' equals "
     "(phi(x+d)-phi(x)) (dirac(x+d)-dirac(x))/d on point masses, is linear "
     "in P, and vanishes for constant phi; the two-sided product rule "
     "itself needs nilpotent steps and is deliberately not asserted")
def _leibniz_residual(rng, cfg):
    step = gen_step(rng)
    d = step.d
    x = gen_rational_point(rng, cfg)
    phi = gen_poly_fn(rng, cfg)
    closed = scale(
        (phi(x + d) - phi(x)) / d, dist_sub(dirac(x + d), dirac(x))
    )
    yield ({"x": x, "d": d, "phi": phi}, "closed form on point masses",
           leibniz_residual(dirac(x), phi, step), closed)
    p, q = gen_line_dist(rng, cfg), gen_line_dist(rng, cfg)
    res = lambda r: leibniz_residual(r, phi, step)
    c = gen_scalar(rng, cfg)
    ins = {"P": p, "Q": q, "c": c, "d": d, "phi": phi}
    yield ins, "additive in P", res(dist_add(p, q)), dist_add(res(p), res(q))
    yield ins, "homogeneous in P", res(scale(c, p)), scale(c, res(p))
    const = lambda _: Fraction(5, 3)
    yield {"P": p, "d": d}, "constant phi", leibniz_residual(p, const, step), Dist.empty()


# -- probability laws --------------------------------------------------------------


@law("conditioning",
     "<P|phi, psi> <P, phi> = <P, phi psi>; conditioning keeps total 1 "
     "and conditioning on the sure event changes nothing")
def _conditioning(rng, cfg):
    sa = space_a(cfg)
    p = gen_prob_dist(rng, cfg, sa)
    for _ in range(50):
        event = gen_event(rng, sa)
        if pair(p, event) != 0:
            break
    else:
        return  # astronomically unlikely; skip this draw
    psi = gen_scalar_table(rng, cfg, sa)
    conditioned = condition(p, event)
    ins = {"P": p, "event": event, "psi": psi}
    yield (ins, "conditional pairing identity", pair(conditioned, psi) * pair(p, event),
           pair(p, fn_pointwise_mul(event, psi)))
    yield ins, "total 1", total(conditioned), Fraction(1)
    yield ins, "sure event", condition(p, constant_one()), p


@law("marginals_tensor",
     "the marginals of a tensor of total-1 distributions are the factors, "
     "and tensors are independent")
def _marginals_tensor(rng, cfg):
    p = gen_prob_dist(rng, cfg, space_a(cfg))
    q = gen_prob_dist(rng, cfg, space_b(cfg))
    j = tensor(p, q)
    yield {"P": p, "Q": q}, "marginals recover factors", marginals(j), (p, q)
    yield {"P": p, "Q": q}, "tensor joints are independent", is_independent(j), True
    correlated = Dist({(0, 0): Fraction(1, 2), (1, 1): Fraction(1, 2)})
    yield {"J": correlated}, "correlated joint detected", is_independent(correlated), False


@law("rv_sum",
     "the distribution of a coordinate sum pushes the joint along +; its "
     "expectation splits even under dependence; tensor joints convolve")
def _rv_sum(rng, cfg):
    j = gen_prob_pair_dist(rng, cfg)
    m1, m2 = marginals(j)
    s = rv_sum(j)
    yield {"J": j}, "E(X+Y) = E(X) + E(Y)", expectation(s), expectation(m1) + expectation(m2)
    yield {"J": j}, "mass preserved", total(s), total(j)
    p, q = gen_prob_line_dist(rng, cfg), gen_prob_line_dist(rng, cfg)
    yield ({"P": p, "Q": q}, "independent sum = convolution",
           rv_sum(tensor(p, q)), convolve(p, q))


@law("probability_closure",
     "total-1 distributions are closed under tensor and convolution but "
     "not under scaling")
def _probability_closure(rng, cfg):
    p, q = gen_prob_line_dist(rng, cfg), gen_prob_line_dist(rng, cfg)
    ins = {"P": p, "Q": q}
    yield ins, "tensor stays total-1", is_probability(tensor(p, q)), True
    yield ins, "convolution stays total-1", is_probability(convolve(p, q)), True
    yield ins, "scaling leaves", is_probability(scale(2, p)), False
    yield ins, "normalize lands in total-1", is_probability(normalize(scale(7, p))), True


# -- quantity laws ------------------------------------------------------------------


@law("unit_determined",
     "a quantity's pure value is fully determined by the unit scalar: "
     "tagging is invertible, unit conversion preserves the pure value, "
     "equal units give equal pure values, and conversion to pure commutes "
     "with pushforward, addition and scaling")
def _unit_determined(rng, cfg):
    sa, sb = space_a(cfg), space_b(cfg)
    p = gen_dist(rng, cfg, sa)
    u = gen_scalar(rng, cfg)
    u2 = gen_scalar(rng, cfg)
    m = from_pure(p, u)
    ins = {"P": p, "u": u, "u2": u2}
    yield ins, "to_pure inverts from_pure", to_pure(m), p
    yield ins, "rescaling preserves the pure value", to_pure(rescale_unit(m, u2)), p
    yield ins, "same unit, same tagging", rescale_unit(m, u), m
    body = gen_dist(rng, cfg, sa, min_support=1)
    pure = lambda unit, d: to_pure(UnitTagged(unit, d))
    if u != u2:
        yield ({"body": body, "u": u, "u2": u2}, "distinct units give distinct pure values",
               pure(u, body) == pure(u2, body), False)
    f = gen_map(rng, sa, sb)
    c = gen_scalar(rng, cfg)
    q = gen_dist(rng, cfg, sa)
    ins = {"body": body, "u": u, "c": c, "f": f, "Q": q}
    yield (ins, "commutes with pushforward", pushforward(f, pure(u, body)),
           pure(u, pushforward(f, body)))
    yield ins, "commutes with +", pure(u, dist_add(body, q)), dist_add(pure(u, body), pure(u, q))
    yield ins, "commutes with scale", pure(u, scale(c, body)), scale(c, pure(u, body))


# -- genericity over the boolean rig -------------------------------------------------


@law("bool_monad_functor",
     "the monad and functor laws hold over the boolean rig (the "
     "possibility/powerset reading of distributions)")
def _bool_monad_functor(rng, cfg):
    yield from _monad_laws(rng, cfg, BOOLEANS)
    yield from _functor_laws(rng, cfg, BOOLEANS)


law("bool_fubini", "Fubini holds over the boolean rig")(partial(_fubini, semiring=BOOLEANS))
