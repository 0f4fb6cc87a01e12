"""Seeded input generators owned by the benchmark.

Inputs are plain Python data (Fractions, strings, tuples, dicts), made
without importing finmeas, so the reference in `reference.py` can read
them directly and their digest does not depend on the library. The law
suite's own generators are not used: they belong to the program under
test and may be reseeded.

Plain point encoding shared with `reference.py`:
  atom            "x017"              (never looks like a rational)
  pair            (a, b)
  tagged          ("L", v) / ("R", v)
  nested dist     ("D", ((atom, w), ...))  items sorted by atom
"""

import hashlib
import math
import random
from fractions import Fraction

DENOMS = (1, 2, 3, 4, 6)

# Support-size classes of one line distribution; per distribution the mix
# is 70% S, 20% M, 10% L. Requests pair them as 6 SS, 2 MM, 2 SL in every
# block of ten, so the median falls inside the SS requests and the 90th
# percentile inside the heavy fifth, never on a class boundary.
LINE_SIZES = {"S": (4, 16), "M": (32, 64), "L": (128, 192)}
LINE_BLOCK = ("SS",) * 6 + ("MM",) * 2 + ("SL",) * 2
# Per request class: interval comb points and convolution_power exponent.
LINE_EXTRAS = {"SS": ((16, 300), (2, 10)), "MM": ((300, 1500), (10, 20)),
               "SL": ((1500, 3000), (20, 30))}
LINE_REQUESTS = 240

MONAD_SIZES = {"S": (16, 28), "M": (32, 48), "L": (64, 80)}
# 2 of the 6 small requests in each block run over the boolean rig.
MONAD_BLOCK = (("SS", True),) * 2 + (("SS", False),) * 4 + (("MM", False),) * 2 + (
    ("SL", False),) * 2
MONAD_REQUESTS = 200
ATOM_POOL = tuple(f"x{i:03d}" for i in range(240))

# One CLI cycle runs every command once, in a seeded order.
CLI_COMMANDS = ("conv_d6", "conv_60", "tensor", "joint", "marginal", "pair",
                "cond", "moments", "derive", "primitive", "primitive_unbalanced",
                "interval", "laws")
CLI_CYCLES = 10


def _rng(workload, seed):
    return random.Random(f"perfbench/{workload}/{seed}")


class _Spread:
    """Per-class size parameters that cover their ranges evenly in every
    prefix of the sequence: an additive-recurrence (Kronecker) sequence.

    It does not depend on the seed. The seed picks the order of requests
    within each block, the support points and the weights; the sizes
    follow the same sequence for every seed. A run that stops part-way
    through the sequence then sees the same mix of sizes whatever the
    seed, which keeps medians and percentiles steady from seed to seed."""

    _ALPHAS = tuple(math.sqrt(p) % 1 for p in (2, 3, 5, 7, 11, 13, 17, 19))

    def __init__(self):
        self._j = 0

    def next(self):
        self._j += 1
        return [(0.5 + self._j * a) % 1 for a in self._ALPHAS]


def _pick(u, lo, hi):
    """An integer in [lo, hi] from a uniform u in [0, 1)."""
    return lo + int(u * (hi - lo + 1))


def _blocks(rng, block, count):
    out = []
    while len(out) < count:
        b = list(block)
        rng.shuffle(b)
        out.extend(b)
    return out[:count]


def _weight(rng, signed=False):
    w = Fraction(rng.randint(1, 12), rng.randint(1, 12))
    return -w if signed and rng.random() < 0.25 else w


def line_dist(rng, n, denom, signed=True):
    """n distinct points on the 1/denom grid with nonzero rational weights."""
    xs = rng.sample(range(-3 * n, 3 * n + 1), n)
    return {Fraction(x, denom): _weight(rng, signed) for x in xs}


def _step(rng):
    return Fraction(rng.choice((1, -1)), rng.choice(DENOMS))


def line_requests(seed, count=LINE_REQUESTS):
    rng = _rng("line_calculus", seed)
    spread = {kind: _Spread() for kind in LINE_EXTRAS}
    reqs = []
    for kind in _blocks(rng, LINE_BLOCK, count):
        u = spread[kind].next()
        (lo, hi), (klo, khi) = LINE_EXTRAS[kind]
        d = Fraction(1, DENOMS[_pick(u[0], 0, 4)])
        a = Fraction(rng.randint(-60, 60), rng.choice(DENOMS))
        reqs.append({
            "kind": kind,
            "p": line_dist(rng, _pick(u[1], *LINE_SIZES[kind[0]]), DENOMS[_pick(u[2], 0, 4)]),
            "q": line_dist(rng, _pick(u[3], *LINE_SIZES[kind[1]]), DENOMS[_pick(u[4], 0, 4)]),
            "step": _step(rng),
            "interval": (a, a + _pick(u[5], lo, hi) * d, d),
            "comb": {j * d: _weight(rng) for j in range(_pick(u[6], 2, 3))},
            "k": _pick(u[7], klo, khi),
        })
    return reqs


def _atoms(rng, n):
    return sorted(rng.sample(ATOM_POOL, n))


def _q_point(rng, boolean):
    r = rng.random()
    if r < 0.4:
        return ("L", rng.choice(ATOM_POOL))
    if r < 0.75:
        return ("R", (rng.choice(ATOM_POOL), rng.choice(ATOM_POOL)))
    inner = _atoms(rng, rng.randint(2, 3))
    return ("D", tuple((x, True if boolean else _weight(rng)) for x in inner))


def monad_requests(seed, count=MONAD_REQUESTS):
    rng = _rng("monad_mixtures", seed)
    spread = {cls: _Spread() for cls in dict.fromkeys(MONAD_BLOCK)}
    reqs = []
    for kind, boolean in _blocks(rng, MONAD_BLOCK, count):
        u = spread[kind, boolean].next()
        w = (lambda: True) if boolean else (lambda: _weight(rng))
        p_atoms = _atoms(rng, _pick(u[0], *MONAD_SIZES[kind[0]]))
        q = {}
        n_q = _pick(u[1], *MONAD_SIZES[kind[1]])
        while len(q) < n_q:
            q[_q_point(rng, boolean)] = w()
        mixture = []
        for _ in range(_pick(u[2], 8, 32)):
            inner = _atoms(rng, rng.randint(4, 12))
            mixture.append(({x: w() for x in inner}, w()))
        req = {
            "kind": kind,
            "boolean": boolean,
            "p": {x: w() for x in p_atoms},
            "q": q,
            "mixture": mixture,
            "left": {x: rng.random() < 0.5 for x in p_atoms},
        }
        if not boolean:
            req["table"] = {x: Fraction(rng.randint(0, 9), rng.randint(1, 9)) for x in p_atoms}
            event = {x: int(rng.random() < 0.5) for x in p_atoms}
            event[rng.choice(p_atoms)] = 1
            req["event"] = event
            req["kernel"] = {
                x: {("L", rng.choice(ATOM_POOL)): _weight(rng),
                    ("R", rng.choice(ATOM_POOL)): _weight(rng)}
                for x in p_atoms
            }
        reqs.append(req)
    return reqs


def _positive(rng, n, denom, total_one=False):
    p = line_dist(rng, n, denom, signed=False)
    if total_one:
        t = sum(p.values())
        p = {x: w / t for x, w in p.items()}
    return p


def cli_requests(seed, law_names, cycles=CLI_CYCLES):
    """Each request: the command, its argv tail, and its input payloads."""
    rng = _rng("cli_requests", seed)
    d6 = {Fraction(i): Fraction(1, 6) for i in range(1, 7)}
    laws = list(law_names)
    rng.shuffle(laws)
    reqs = []
    for c in range(cycles):
        order = list(CLI_COMMANDS)
        rng.shuffle(order)
        for cmd in order:
            req = {"cmd": cmd, "inputs": [], "tables": {}, "args": []}
            if cmd == "conv_d6":
                req["inputs"] = [d6, d6]
            elif cmd == "conv_60":
                req["inputs"] = [line_dist(rng, 60, rng.choice(DENOMS)),
                                 line_dist(rng, 60, rng.choice(DENOMS))]
            elif cmd == "tensor":
                atoms = _atoms(rng, 20)
                req["inputs"] = [{x: _weight(rng, True) for x in atoms},
                                 line_dist(rng, 20, rng.choice(DENOMS))]
            elif cmd == "joint":
                req["inputs"] = [_positive(rng, 15, rng.choice(DENOMS), True),
                                 _positive(rng, 15, rng.choice(DENOMS), True)]
            elif cmd == "marginal":
                # the joint of two total-1 inputs, as `joint` would print it
                req["joint_of"] = [_positive(rng, 20, rng.choice(DENOMS), True),
                                   _positive(rng, 20, rng.choice(DENOMS), True)]
            elif cmd == "pair":
                p = line_dist(rng, 50, rng.choice(DENOMS))
                req["inputs"] = [p]
                req["tables"]["--fn"] = {x: _weight(rng, True) for x in p}
            elif cmd == "cond":
                p = _positive(rng, 50, rng.choice(DENOMS))
                event = {x: int(rng.random() < 0.5) for x in p}
                event[rng.choice(sorted(p))] = 1
                req["inputs"] = [p]
                req["tables"]["--event"] = event
            elif cmd == "moments":
                req["inputs"] = [line_dist(rng, 400, rng.choice(DENOMS))]
                req["args"] = ["--order", "4"]
            elif cmd == "derive":
                req["inputs"] = [line_dist(rng, 60, rng.choice(DENOMS))]
                req["step"] = _step(rng)
            elif cmd == "primitive":
                req["antiderivative"] = line_dist(rng, 60, rng.choice(DENOMS))
                req["step"] = _step(rng)
            elif cmd == "primitive_unbalanced":
                req["inputs"] = [line_dist(rng, 8, 1, signed=False)]
                req["step"] = Fraction(1)
            elif cmd == "interval":
                req["args"] = ["0", "300", "--step", "1/3"]
            elif cmd == "laws":
                req["law"] = laws[c % len(laws)]
                req["args"] = ["--law", req["law"], "--cases", "20"]
            reqs.append(req)
    return reqs


def law_requests(seed, law_names, passes=4):
    """Registry order, seed advancing by one per pass."""
    return [(seed + k, name) for k in range(passes) for name in law_names]


def digest(inputs):
    """SHA-256 of the inputs' repr; equal inputs give equal bytes."""
    return hashlib.sha256(repr(inputs).encode()).hexdigest()
