from fractions import Fraction

import pytest

import finmeas
import finmeas.dist
import finmeas.pairing
from finmeas import (
    BOOLEANS,
    Dist,
    DomainError,
    FiniteSpace,
    FunTable,
    NoDensityError,
    Step,
    TestFn,
    constant_one,
    density,
    dirac,
    extend_1linear,
    extend_2linear,
    extend_bilinear,
    fn_action,
    fn_derivative,
    fn_pointwise_mul,
    pair,
    pushforward,
    semantics,
    structure_map,
    total,
)
from finmeas.strength import extend_1linear_via_strength, extend_2linear_via_strength

from .conftest import table


def test_pairing_on_dirac_evaluates():
    phi = table({"x": Fraction(7, 2)})
    assert pair(dirac("x"), phi) == Fraction(7, 2)


def test_pairing_weighted_sum_by_hand():
    p = Dist({"a": 2, "b": 3})
    phi = table({"a": 5, "b": 7})
    assert pair(p, phi) == 31


def test_pairing_against_one_is_total():
    p = Dist({"a": Fraction(1, 2), "b": Fraction(1, 3)})
    assert pair(p, constant_one()) == total(p) == Fraction(5, 6)


def test_constant_one_on_the_empty_distribution_is_its_zero():
    # the zero and the one follow the paired distribution's semiring
    for p in (Dist.empty(BOOLEANS), Dist.empty()):
        result, zero = pair(p, constant_one()), total(p)
        assert type(result) is type(zero) and result == zero, p.semiring.name
    assert pair(Dist.empty(BOOLEANS), constant_one()) is False
    assert pair(Dist({"a": True}, BOOLEANS), constant_one()) is True


def test_pairing_undefined_point_is_domain_error():
    p = Dist({"a": 1, "b": 1})
    with pytest.raises(DomainError):
        pair(p, table({"a": 1}))


def test_pairing_with_distribution_values():
    p = Dist({"a": 2, "b": 1})
    psi = table({"a": Dist({"u": 1}), "b": Dist({"u": -2, "v": 1})})
    assert pair(p, psi) == Dist({"v": 1})


def test_pairing_of_empty_uses_codomain_zero():
    empty = Dist.empty()
    assert pair(empty, table({"a": Fraction(1)})) == 0
    assert pair(empty, table({"a": Dist({"u": 1})})) == Dist.empty()
    assert pair(empty, TestFn.dist_valued(lambda x: dirac(x))) == Dist.empty()


# Each test function, with a two-argument map of the same codomain and
# that codomain's zero.
CODOMAINS = {
    "dist-valued table": (
        table({"a": Dist({"u": 1}), "b": Dist({"v": 2})}),
        TestFn.dist_valued(lambda x, y: dirac((x, y))),
        Dist.empty(),
    ),
    "dist-valued callable": (
        TestFn.dist_valued(dirac),
        TestFn.dist_valued(lambda x, y: dirac((x, y))),
        Dist.empty(),
    ),
    "scalar callable": (lambda x: Fraction(2), lambda x, y: Fraction(3), Fraction(0)),
    # the zero of a table of tables is the zero table, not the scalar zero
    "table-valued table": (
        table({"a": table({"u": 1, "v": 2}), "b": table({"u": -1, "v": 0})}),
        TestFn(lambda x, y: table({"u": 3, "v": 1}), zero=table({"u": 0, "v": 0})),
        table({"u": 0, "v": 0}),
    ),
}


@pytest.mark.parametrize("name", CODOMAINS)
def test_every_empty_route_gives_the_one_codomain_zero(name):
    phi, f, zero = CODOMAINS[name]
    empty, p = Dist.empty(), Dist({"a": 2, "b": -1})
    results = {
        "pair": pair(empty, phi),
        "semantics": semantics(empty)(phi),
        "fn_derivative": pair(empty, fn_derivative(phi, Step(1))),
        "fn_pointwise_mul": pair(empty, fn_pointwise_mul(constant_one(), phi)),
        "extend_2linear": extend_2linear(f)("a", empty),
        "extend_1linear": extend_1linear(f)(empty, "u"),
        "extend_bilinear, empty first": extend_bilinear(f)(empty, p),
        "extend_bilinear, empty second": extend_bilinear(f)(p, empty),
        "extend_2linear_via_strength": extend_2linear_via_strength(f)("a", empty),
        "extend_1linear_via_strength": extend_1linear_via_strength(f)(empty, "u"),
    }
    for route, result in results.items():
        assert type(result) is type(zero) and result == zero, route


def test_pair_has_one_home():
    # the pairing is the linear extension, defined once beside the weights
    assert finmeas.pair is finmeas.dist.pair is finmeas.pairing.pair
    assert finmeas.pair.__module__ == "finmeas.dist"


def test_testfn_has_one_home():
    assert finmeas.TestFn is finmeas.dist.TestFn is finmeas.pairing.TestFn
    # the monad_mixtures benchmark pairs against a dict lookup declared
    # distribution-valued
    kernel = {"a": Dist({"u": 1}), "b": Dist({"u": -2, "v": 1})}
    phi = TestFn.dist_valued(kernel.__getitem__)
    assert pair(Dist({"a": 2, "b": 1}), phi) == Dist({"v": 1})
    assert pair(Dist.empty(), phi) == Dist.empty()


def test_semantics_evaluates_test_functions():
    functional = semantics(dirac("x"))
    assert functional(table({"x": Fraction(4)})) == 4


def test_semantics_of_empty_is_zero_functional():
    functional = semantics(Dist.empty())
    assert functional(lambda x: Fraction(9)) == 0
    assert functional(TestFn.dist_valued(dirac)) == Dist.empty()


def test_fn_action_on_dirac():
    phi = table({"x": Fraction(3, 4)})
    assert fn_action(dirac("x"), phi) == Dist({"x": Fraction(3, 4)})


def test_fn_action_drops_zeros():
    p = Dist({"a": 2, "b": 4})
    phi = table({"a": Fraction(1, 2), "b": 0})
    assert fn_action(p, phi) == Dist({"a": 1})


def test_fn_action_unit():
    p = Dist({"a": 2, "b": -5})
    assert fn_action(p, constant_one()) == p


def test_action_is_associative():
    p = Dist({"a": 2, "b": 3})
    phi1 = table({"a": Fraction(1, 2), "b": 2})
    phi2 = table({"a": 4, "b": Fraction(1, 3)})
    assert fn_action(fn_action(p, phi1), phi2) == fn_action(
        p, fn_pointwise_mul(phi1, phi2)
    )


def test_density_pointwise_ratio():
    q = Dist({"a": 2, "b": 3})
    p = Dist({"a": 1, "b": 1})
    phi = density(q, p)
    assert phi("a") == 2 and phi("b") == 3
    assert fn_action(p, phi) == q


def test_density_of_self_is_one():
    p = Dist({"a": 5, "b": Fraction(-1, 3)})
    phi = density(p, p)
    assert set(phi.values()) == {Fraction(1)}


def test_density_support_violation():
    with pytest.raises(NoDensityError):
        density(Dist({"c": 1}), Dist({"a": 1}))


def test_density_handles_missing_points_of_q():
    p = Dist({"a": 2, "b": 4})
    q = Dist({"a": 1})
    phi = density(q, p)
    assert phi("b") == 0
    assert fn_action(p, phi) == q


def test_switch_identity_instances():
    p = Dist({"a": 2, "b": -1})
    phi = table({"a": Fraction(1, 2), "b": 3})
    psi = table({"a": Dist({"u": 1}), "b": Dist({"v": 2})})
    chi = table({"a": Fraction(7), "b": Fraction(0)})
    for q, v in ((p, psi), (Dist.empty(), psi), (p, chi)):
        assert pair(fn_action(q, phi), v) == pair(q, fn_pointwise_mul(phi, v))


def test_frobenius_instances():
    p = Dist({"a": 2, "b": -1, "c": Fraction(1, 3)})
    f = {"a": "u", "b": "u", "c": "v"}.__getitem__
    phi = table({"u": Fraction(5), "v": Fraction(-2)})
    pullback = lambda x: phi(f(x))
    for q in (p, Dist.empty()):
        assert fn_action(pushforward(f, q), phi) == pushforward(f, fn_action(q, pullback))


def test_pairing_total_corollary():
    p = Dist({"a": 2, "b": -1})
    phi = table({"a": Fraction(1, 2), "b": 3})
    assert pair(p, phi) == total(fn_action(p, phi)) == Fraction(-2)


def test_pairing_with_table_values_mixes_the_tables_pointwise():
    dom = FiniteSpace(["a", "b"])
    p = Dist({"u": 2, "v": Fraction(-1, 2)})
    tables = {"u": FunTable(dom, {"a": 1, "b": 0}), "v": FunTable(dom, {"a": 4, "b": 6})}
    phi = tables.__getitem__
    assert pair(p, phi) == structure_map(pushforward(phi, p))
    assert pair(p, phi) == FunTable(dom, {"a": 0, "b": -3})
