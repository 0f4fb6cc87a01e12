"""The total-1 fragment: normalization, conditioning, joints, marginals.

"Probability" here means total exactly 1; weights themselves may be any
rationals, since the scalars carry no order.
"""

from __future__ import annotations

from fractions import Fraction

from .dist import (Dist, FunTable, _require_points, fn_action, pushforward, scale, tensor,
                   total)
from .errors import ConditioningError, NormalizationError
from .scalars import RATIONALS, Semiring


def is_probability(p: Dist) -> bool:
    return total(p) == p.semiring.one


def normalize(p: Dist) -> Dist:
    """Rescale to total 1; undefined (and an error) at total zero."""
    sr = p.semiring
    if sr.inv is None:
        raise NormalizationError(f"{sr.name} scalars have no division")
    t = total(p)
    if t == sr.zero:
        raise NormalizationError("cannot normalize a distribution with total 0")
    return scale(sr.inv(t), p)


def indicator(pred):
    """The 0/1 test function of a predicate (an event). Its rational 0
    and 1 are coerced into the rig of the distribution it meets."""

    def event(x):
        return RATIONALS.one if pred(x) else RATIONALS.zero

    return event


def is_event_table(table: FunTable, semiring: Semiring = RATIONALS) -> bool:
    """Events are the multiplicatively idempotent functions; over a field
    that means 0/1-valued."""
    return all(
        semiring.mul(v, v) == v for v in (semiring.coerce(v) for v in table.values())
    )


def condition(p: Dist, event) -> Dist:
    """The conditional distribution of p given an event.

    Reweight by the event once, then divide out the reweighted total,
    which is the event's pairing with p; the result has total 1 again.
    Conditioning on a null event (pairing zero) is its own error,
    distinct from domain errors.
    """
    sr = p.semiring
    if sr.inv is None:
        raise ConditioningError(f"{sr.name} scalars have no division")
    weighted = fn_action(p, event)
    mass = total(weighted)
    if mass == sr.zero:
        raise ConditioningError("conditioning on a null event")
    return scale(sr.inv(mass), weighted)


def marginals(j: Dist) -> tuple[Dist, Dist]:
    """Project a distribution over pairs onto its two coordinates."""
    _require_points(
        j, lambda x: isinstance(x, tuple), "marginals need pair points, got {}"
    )
    return (
        pushforward(lambda xy: xy[0], j),
        pushforward(lambda xy: xy[1], j),
    )


def is_independent(j: Dist) -> bool:
    """Is the joint the tensor of its own marginals?"""
    m1, m2 = marginals(j)
    return j == tensor(m1, m2)


def rv_sum(j: Dist) -> Dist:
    """Distribution of the coordinate sum of a joint over rational pairs.

    For a tensor joint this is the convolution of the factors; for a
    correlated joint it is still defined, and expectation remains the
    sum of the marginal expectations.
    """
    _require_points(
        j,
        lambda x: (
            isinstance(x, tuple)
            and isinstance(x[0], Fraction)
            and isinstance(x[1], Fraction)
        ),
        "rv_sum needs rational pair points, got {}",
    )
    return pushforward(lambda xy: RATIONALS.add(xy[0], xy[1]), j)
