"""Independent reference for checking outputs: plain dicts and Fractions.

Nothing here imports finmeas. Distributions are dicts from plain points
(see gen.py) to nonzero weights; boolean distributions have weight True.
The wire encoder reproduces the CLI's canonical JSON bytes.
"""

import json
from fractions import Fraction


def clean(d):
    return {x: w for x, w in d.items() if w}


def add_into(acc, x, w):
    acc[x] = acc[x] + w if x in acc else w


def convolve(p, q):
    acc = {}
    for x, a in p.items():
        for y, b in q.items():
            add_into(acc, x + y, a * b)
    return clean(acc)


def power(p, k):
    acc = {Fraction(0): Fraction(1)}
    for _ in range(k):
        acc = convolve(acc, p)
    return acc


def shift(p, a):
    return {x + a: w for x, w in p.items()}


def derivative(p, d):
    acc = {x: w / d for x, w in shift(p, d).items()}
    for x, w in p.items():
        add_into(acc, x, -w / d)
    return clean(acc)


def comb(a, b, d):
    n = (b - a) / d
    if n.denominator != 1 or n < 0:
        raise ValueError(f"no comb from {a} to {b} at step {d}")
    return {a + k * d: d for k in range(int(n))}


def moment(p, n):
    return sum((w * x ** n for x, w in p.items()), Fraction(0))


def product(p, q, boolean=False):
    if boolean:
        return {(x, y): True for x in p for y in q}
    return clean({(x, y): a * b for x, a in p.items() for y, b in q.items()})


def mix(pairs, boolean=False):
    """Weighted sum of (dist, weight) pairs."""
    acc = {}
    for inner, c in pairs:
        for y, v in inner.items():
            if boolean:
                acc[y] = True
            else:
                add_into(acc, y, c * v)
    return acc if boolean else clean(acc)


def image(f, p, boolean=False):
    acc = {}
    for x, w in p.items():
        if boolean:
            acc[f(x)] = True
        else:
            add_into(acc, f(x), w)
    return acc if boolean else clean(acc)


def marginals(j):
    return image(lambda xy: xy[0], j), image(lambda xy: xy[1], j)


def is_independent(j):
    left, right = marginals(j)
    return product(left, right) == j


def reweight(p, phi):
    return clean({x: w * phi[x] for x, w in p.items()})


def condition(p, event):
    kept = {x: w for x, w in p.items() if event[x]}
    mass = sum(kept.values(), Fraction(0))
    return clean({x: w / mass for x, w in kept.items()})


# -- the CLI wire format ----------------------------------------------------


def rational(r):
    r = Fraction(r)
    return str(r.numerator) if r.denominator == 1 else f"{r.numerator}/{r.denominator}"


def _sort_key(x):
    """Rationals before atoms before pairs, each in natural order."""
    if isinstance(x, tuple):
        return (2, _sort_key(x[0]), _sort_key(x[1]))
    if isinstance(x, str):
        return (1, x)
    return (0, x)


def wire_point(x):
    if isinstance(x, tuple):
        return {"pair": [wire_point(x[0]), wire_point(x[1])]}
    return x if isinstance(x, str) else rational(x)


def wire_dist(p):
    return {"points": [{"x": wire_point(x), "w": rational(p[x])}
                       for x in sorted(p, key=_sort_key)]}


def wire_table(t):
    return {wire_point(x): rational(v) for x, v in t.items()}


def stdout_bytes(payload):
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode()
