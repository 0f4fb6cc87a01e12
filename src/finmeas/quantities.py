"""Unit-tagged distributions: extensive quantities awaiting a unit.

A quantity like mass is a distribution only after a unit is chosen; the
choice is recorded as a nonzero scalar, and two taggings describe the
same physical quantity exactly when they agree after conversion to pure
scalars. Re-deriving everything from the single unit scalar is the
value-level face of "an isomorphism of actions is determined by its
component at the unit object".
"""

from __future__ import annotations

from .dist import Dist, scale
from .errors import UnitError
from .scalars import FrozenValue


class UnitTagged(FrozenValue):
    """A distribution of some quantity, expressed in a chosen unit."""

    __slots__ = _fields = ("unit", "body")

    def __init__(self, unit, body: Dist):
        sr = body.semiring
        unit = sr.coerce(unit)
        if unit == sr.zero:
            raise UnitError("the unit of a quantity must be nonzero")
        if sr.inv is None:
            raise UnitError(f"{sr.name} scalars cannot serve as units (no division)")
        super().__init__(unit, body)


def to_pure(m: UnitTagged) -> Dist:
    """Forget the unit: the numerals scaled by the unit's value."""
    return scale(m.unit, m.body)


def from_pure(p: Dist, unit) -> UnitTagged:
    """Express a pure distribution in the given unit."""
    unit = UnitTagged(unit, p).unit  # a UnitError for a zero unit or a rig without inverses
    return UnitTagged(unit, scale(p.semiring.inv(unit), p))


def rescale_unit(m: UnitTagged, new_unit) -> UnitTagged:
    """Same quantity, new unit: numerals change, the pure value does not."""
    return from_pure(to_pure(m), new_unit)
