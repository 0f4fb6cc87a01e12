import hashlib
import itertools
import random
import types
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finmeas import (
    BOOLEANS, RATIONALS, Dist, FiniteSpace, GenConfig, SelectionError, run_law, run_suite,
    tensor, total,
)
from finmeas import laws
from finmeas.laws import LAWS, Law, choice, dist, law, prob, scalar, space_a, space_b
from finmeas.line import AffineMap


def small_cfg(**kw):
    base = dict(seed=7, cases=25)
    base.update(kw)
    return GenConfig(**base)


def test_full_suite_passes():
    reports = run_suite(small_cfg())
    failures = [(r.law, r.counterexample) for r in reports if not r.passed]
    assert failures == []
    assert len(reports) == len(LAWS)


def test_suite_is_deterministic():
    first = run_suite(small_cfg(), selection=["fubini", "switch"])
    second = run_suite(small_cfg(), selection=["fubini", "switch"])
    assert [r.to_json() for r in first] == [r.to_json() for r in second]


def test_selection_runs_single_law():
    (report,) = run_suite(small_cfg(), selection=["fubini"])
    assert report.law == "fubini"
    assert report.passed
    assert report.cases_run == 25
    assert "Fubini" in report.statement


def test_unknown_law_is_selection_error():
    with pytest.raises(SelectionError):
        run_suite(small_cfg(), selection=["no_such_law"])


@pytest.mark.parametrize("name", ["cases", "max_support", "coefficient_bound", "space_size"])
def test_cases_must_be_positive(name):
    for value in (0, -1):
        with pytest.raises(ValueError, match=f"{name} must be"):
            GenConfig(**{name: value})


def test_report_json_shape():
    report = run_law("total_as_pairing", small_cfg())
    payload = report.to_json()
    assert payload["law"] == "total_as_pairing"
    assert payload["passed"] is True
    assert payload["cases_run"] == 25
    assert "counterexample" not in payload


def test_generator_determinism():
    cfg = small_cfg()
    a = dist(space_a)(random.Random("x"), cfg, RATIONALS, {})
    b = dist(space_a)(random.Random("x"), cfg, RATIONALS, {})
    assert a == b


def test_generator_respects_support_bound():
    cfg = small_cfg(max_support=1)
    rng = random.Random(3)
    for _ in range(50):
        assert len(dist(space_a)(rng, cfg, RATIONALS, {})) <= 1


def test_generator_coefficient_bound_one():
    cfg = small_cfg(coefficient_bound=1)
    rng, weight = random.Random(3), scalar()
    ring_values = {weight(rng, cfg, RATIONALS, {}) for _ in range(50)}
    assert ring_values == {Fraction(1), Fraction(-1)}
    rig_values = {weight(rng, cfg, BOOLEANS, {}) for _ in range(10)}
    assert rig_values == {True}


def test_generated_prob_dists_have_total_one():
    cfg = small_cfg()
    rng = random.Random(11)
    for _ in range(50):
        assert total(prob(space_a)(rng, cfg, RATIONALS, {})) == 1


def test_every_law_has_a_statement():
    for name, entry in LAWS.items():
        assert entry.statement, name
        assert entry.name == name


def test_law_names_register_once():
    with pytest.raises(ValueError, match="already registered"):
        law("fubini", "a second statement")
    assert "Fubini" in LAWS["fubini"].statement


def test_runner_stops_at_the_first_mismatch_and_formats_it(monkeypatch):
    def probe(a=choice([Fraction(1, 2)]), x=choice(["u"])):
        yield "holds", Fraction(1), Fraction(1)
        yield "a = x", a, x
        raise AssertionError("the runner went on after a mismatch")

    monkeypatch.setitem(LAWS, "probe", Law("probe", "a probe", probe))
    report = run_law("probe", small_cfg())
    assert (report.passed, report.cases_run) == (False, 1)
    assert report.counterexample == "a=1/2, x='u'; a = x: Fraction(1, 2) != 'u'"


def test_counterexample_names_an_oversized_rational_by_its_digit_count(monkeypatch):
    huge = Fraction(1, 10**4400)

    def probe(a=choice([huge]), x=choice(["u"])):
        yield "a = {x: a}", a, Dist({x: a})

    monkeypatch.setitem(LAWS, "probe", Law("probe", "a probe", probe))
    report = run_law("probe", small_cfg())
    shown = "<4401-digit rational>"
    assert report.counterexample == (
        f"a={shown}, x='u'; a = {{x: a}}: {shown} != Dist({{'u': {shown}}})"
    )


def test_a_law_without_inputs_runs_once(monkeypatch):
    def no_inputs():
        yield "1 = 1", Fraction(1), Fraction(1)

    def one_input(P=dist(space_a)):
        yield "P = P", P, P

    cfg = small_cfg()
    for body, cases in ((no_inputs, 1), (one_input, cfg.cases)):
        monkeypatch.setitem(LAWS, "probe", Law("probe", "a probe", body))
        assert LAWS["probe"].deterministic is (cases == 1)
        report = run_law("probe", cfg)
        assert (report.passed, report.cases_run) == (True, cases), body.__name__


def test_counterexample_lists_every_drawn_input_in_draw_order(monkeypatch):
    def probe(P=dist(space_a), c=scalar(), Q=dist(space_b)):
        yield "P = c", P, c

    monkeypatch.setitem(LAWS, "probe", Law("probe", "a probe", probe))
    cfg = small_cfg()
    drawn = LAWS["probe"].draw(random.Random(f"{cfg.seed}:probe"), cfg)
    report = run_law("probe", cfg)
    p, c, q = drawn.values()
    assert report.counterexample == f"P={p!r}, c={c}, Q={q!r}; P = c: {p!r} != {c!r}"


def test_a_law_parameter_without_a_draw_spec_is_refused():
    def no_default(P, Q=dist(space_a)):
        yield "P = Q", P, Q

    def keyword_only(P=dist(space_a), *, Q=dist(space_b)):
        yield "P = Q", P, Q

    for body in (no_default, keyword_only):
        with pytest.raises(TypeError, match="draw spec"):
            Law("probe", "a probe", body)


def test_no_law_body_takes_rng_or_cfg():
    for name, entry in LAWS.items():
        code = entry.body.__code__
        params = code.co_varnames[:code.co_argcount + code.co_kwonlyargcount]
        assert not {"rng", "cfg"} & set(params), name
        assert [k for k, _ in entry.draws] == list(params), name


def test_drawn_inputs_print_without_addresses():
    # every input a counterexample can show has a repr that names its value
    for seed in range(3):
        cfg = GenConfig(seed=seed, cases=20)
        for name, entry in LAWS.items():
            rng = random.Random(f"{seed}:{name}")
            for _ in range(1 if entry.deterministic else cfg.cases):
                for key, value in entry.draw(rng, cfg).items():
                    assert " at 0x" not in repr(value), (seed, name, key)


@pytest.mark.parametrize("mutant", [
    lambda f, x: f.slope * x - f.offset,
    lambda f, x: f.slope + x,
])
def test_affine_expectation_pins_what_an_affine_map_means(monkeypatch, mutant):
    # both mutants are still affine, so only the equations on f(0) and
    # f(1) - f(0) tell them from slope*x + offset
    monkeypatch.setattr(AffineMap, "__call__", mutant)
    assert run_law("affine_expectation", GenConfig(seed=0, cases=20)).passed is False


def _drop_all_mass(p, q):
    return Dist.empty(p.semiring)


def test_a_wrong_fubini_map_fails_both_twins(monkeypatch):
    monkeypatch.setattr(laws, "tensor_iterated", _drop_all_mass)
    cfg = small_cfg(seed=0)
    for name, semiring in (("fubini", RATIONALS), ("bool_fubini", BOOLEANS)):
        # replay the law's draws: the first case whose tensor is not empty fails
        rng = random.Random(f"{cfg.seed}:{name}")
        P, Q = dist(space_a), dist(space_b)
        first = next(
            i for i in itertools.count(1)
            if len(P(rng, cfg, semiring, {})) * len(Q(rng, cfg, semiring, {}))
        )
        report = run_law(name, cfg)
        assert report.to_json()["passed"] is False
        assert report.cases_run == first
        assert report.counterexample.startswith("P=")
        assert "tensor = tensor_iterated: " in report.counterexample


# -- the Hypothesis driver --------------------------------------------------
#
# Hypothesis draws a GenConfig and a random generator, each law's own draw
# specs draw its inputs from that generator, and Law.check compares what
# the body yields. A failure shrinks through st.randoms, and its message
# is check's text, the same as a `finmeas laws` counterexample.

# The law line pool has denominators 1 to 3 only, so these line laws draw
# P (and Q) again, over the wider line of the points n/d with d <= 8 and
# |n/d| <= 8, through the same dist spec and from the same generator.
WIDE_LINE = FiniteSpace(
    sorted({Fraction(n, d) for d in range(1, 9) for n in range(-8 * d, 8 * d + 1)})
)
WIDE_DIST = dist(lambda cfg: WIDE_LINE)
WIDER_INPUTS = {
    "expectation_convolution": ("P", "Q"),
    "expectation_as_mu": ("P",),
    "derivative_total": ("P",),
    "derivative_expectation": ("P",),
    "derivative_switch": ("P",),
    "integration": ("P",),
}

CONFIGS = st.builds(
    GenConfig,
    max_support=st.integers(1, 8),
    coefficient_bound=st.integers(1, 64),
    space_size=st.integers(1, 5),
)

EDGE_CONFIGS = (
    # empty supports, +-1 coefficients and one-point spaces
    GenConfig(space_size=1, max_support=1, coefficient_bound=1),
    # coefficient bound 1 leaves 7 rational line points, fewer than 8
    GenConfig(max_support=8, coefficient_bound=1),
)


EDGE_ROWS = list(itertools.product(EDGE_CONFIGS, range(1, 6)))


def edge_examples(test):
    """Five generator seeds at each edge config, as explicit examples.

    A row holds its seed, not a generator: one generator object would be
    shared by every parametrized law, each continuing the stream the one
    before it left. The test builds a fresh generator from the seed.
    """
    for cfg, seed in EDGE_ROWS:
        test = example(cfg=cfg, rng=seed)(test)
    return test


@pytest.mark.parametrize("name", [n for n, e in LAWS.items() if not e.deterministic])
@settings(deadline=None, max_examples=25)
@edge_examples
@given(cfg=CONFIGS, rng=st.randoms(use_true_random=False))
def test_law_holds_on_hypothesis_draws(name, cfg, rng):
    if isinstance(rng, int):  # an explicit row's seed
        rng = random.Random(rng)
    entry = LAWS[name]
    drawn = entry.draw(rng, cfg)
    for key in WIDER_INPUTS.get(name, ()):
        drawn[key] = WIDE_DIST(rng, cfg, entry.semiring, drawn)
    failure = entry.check(drawn)
    assert failure is None, failure


def test_every_law_starts_its_explicit_rows_at_their_seeds(monkeypatch):
    firsts = []

    def first(rng, cfg, sr, drawn):
        if type(rng) is random.Random:  # an explicit row, not a Hypothesis draw
            firsts.append(rng.random())
        return Fraction(0)

    def probe(u=first):
        yield "u = u", u, u

    monkeypatch.setitem(LAWS, "probe", Law("probe", "a probe", probe))
    expected = sorted(random.Random(seed).random() for _, seed in EDGE_ROWS)
    for _ in range(2):  # the second run stands for the next law in the list
        firsts.clear()
        test_law_holds_on_hypothesis_draws("probe")
        assert sorted(firsts) == expected


def test_generic_bodies_use_their_inputs_semiring(monkeypatch):
    # a body that writes the rational dirac, zero or + fails its boolean twin
    for name in ("linear_extension", "strength_units", "tensor_initial", "cotensor",
                 "biproduct"):
        twin = f"bool_{name}"
        entry = LAWS[name]
        monkeypatch.setitem(LAWS, twin, Law(twin, entry.statement, entry.body, BOOLEANS))
        for seed in range(3):
            report = run_law(twin, GenConfig(seed=seed, cases=20))
            assert report.passed, (twin, seed, report.counterexample)


# sha256 over repr([(law, passed, cases_run, repr(rng.getstate())), ...])
# for every registered law in order, at seed 0 and 20 cases. It pins which
# samples each law draws: a change to any generator's draw order or count
# changes a law's RNG end state. Per-case reseeding will repin it.
LAW_DRAWS_DIGEST = "1f05fd4b2831a149ff09afd9b4bfdf2057f68db805ca94c9f1dda542b5d4a226"


def test_law_draws_are_pinned(monkeypatch):
    streams = []

    def recording_random(seed):
        rng = random.Random(seed)
        streams.append(rng)
        return rng

    monkeypatch.setattr(laws, "random", types.SimpleNamespace(Random=recording_random))
    cfg = GenConfig(seed=0, cases=20)
    rows = []
    for name in LAWS:
        report = run_law(name, cfg)
        rows.append((name, report.passed, report.cases_run, repr(streams[-1].getstate())))
    assert len(rows) == 55
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == LAW_DRAWS_DIGEST


def test_a_failing_linearity_law_shows_both_sides(monkeypatch):
    # tensor(p, p) is quadratic in p, so it does not commute with mixing P
    monkeypatch.setattr(laws, "tensor", lambda p, q: tensor(p, p))
    report = run_law("tensor_bilinear", GenConfig(seed=0, cases=50))
    assert report.passed is False
    assert "tensor linear in P: Dist(" in report.counterexample
    assert not report.counterexample.endswith("False != True")
