"""finmeas: finite-support distributions over exact semirings.

Distributions form a commutative monad; on top of its unit, pushforward
and mixture structure the package builds strengths and tensors,
integration pairings, convolution on the rational line, conditioning,
and a finite-difference calculus with exact primitives. Every law the
construction promises is checkable, exactly, through `finmeas.laws`.
"""

from .dist import (
    Dist,
    FiniteSpace,
    FunTable,
    Left,
    Right,
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
)
from .errors import (
    ConditioningError,
    DomainError,
    FinmeasError,
    NoDensityError,
    NoPrimitiveError,
    NormalizationError,
    ParseError,
    SelectionError,
    UnitError,
)
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
    Functional,
    constant_one,
    density,
    eval_at_eta,
    fn_pointwise_mul,
    semantics,
)
from .probability import (
    condition,
    indicator,
    is_event_table,
    is_independent,
    is_probability,
    marginals,
    normalize,
    rv_sum,
)
from .quantities import UnitTagged, from_pure, rescale_unit, to_pure
from .scalars import BOOLEANS, RATIONALS, Semiring, format_rational, parse_rational
from .strength import (
    cotensor_strength,
    extend_1linear,
    extend_2linear,
    extend_bilinear,
    tensor_iterated,
)

__version__ = "0.1.0"

# The law suite sits on top of every other layer and is the costliest
# module to import, so its public names load on first access (PEP 562).
_LAW_NAMES = ("GenConfig", "LawReport", "run_law", "run_suite")


def __getattr__(name):
    if name in _LAW_NAMES:
        from . import laws

        return getattr(laws, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_LAW_NAMES))
