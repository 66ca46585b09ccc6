"""Randomized invariants across module boundaries."""

import random

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from pocbounds.engine import bound
from pocbounds.model import Infeasible, dataset_from_counts, dataset_from_probs
from pocbounds.oracle import tight_bounds
from pocbounds.queryir import (
    EXACT,
    STANDARD,
    ZERO,
    CounterfactualTerm,
    Query,
    ZeroEvidenceProbability,
    canonicalize,
    format_query,
    parse_query,
)
from pocbounds.simgen import counts_from_masses, random_model, random_query

from conftest import FORMS, draw_kind, draw_query, sparse_counts
from lp_reference import reference_feasible

import pytest


@st.composite
def mass_cases(draw, sizes=((2, 2), (2, 3), (3, 2))):
    """Datasets built from explicit response-type masses (always feasible)."""
    m, n = draw(st.sampled_from(sizes))
    k = n**m
    masses = draw(
        st.lists(
            st.lists(st.integers(0, 6), min_size=m, max_size=m),
            min_size=k,
            max_size=k,
        )
    )
    if sum(map(sum, masses)) == 0:
        masses[0][0] = 1
    exp, obs = counts_from_masses(masses, m, n)
    return m, n, dataset_from_counts(exp, obs)


@st.composite
def raw_tables(draw):
    """Arbitrary count tables; consistency is not guaranteed."""
    m, n = draw(st.sampled_from([(2, 2), (2, 3), (3, 2)]))
    exp = [[draw(st.integers(0, 6)) for _ in range(n)] for _ in range(m)]
    obs = [[draw(st.integers(0, 6)) for _ in range(n)] for _ in range(m)]
    for row in exp:
        if sum(row) == 0:
            row[0] = 1
    if sum(v for r in obs for v in r) == 0:
        obs[0][0] = 1
    return dataset_from_counts(exp, obs)


@st.composite
def near_boundary_tables(draw):
    """Probability tables with mass moved, inside the 1e-6 ingest slack,
    between two cells of one observed row of a mass case. Such cases often
    have cells on the consistency boundary, so a move can break them."""
    m, n, ds = draw(mass_cases())
    gap = draw(st.sampled_from([-5e-7, -1e-7, 0.0, 1e-7, 5e-7]))
    exp = [[c / ds.den for c in row] for row in ds.do]
    obs = [[c / ds.den for c in row] for row in ds.joint]
    j = draw(st.integers(0, m - 1))
    i, i2 = draw(st.permutations(range(n)))[:2]
    obs[j][i] += gap
    obs[j][i2] -= gap
    return m, n, dataset_from_probs(exp, obs)


@st.composite
def queries(draw, m, n, kmax=3):
    k = draw(st.integers(1, min(kmax, m)))
    js = draw(st.permutations(list(range(1, m + 1))))[:k]
    terms = tuple(CounterfactualTerm(j, draw(st.integers(1, n))) for j in sorted(js))
    ex = draw(st.one_of(st.none(), st.integers(1, m)))
    ey = draw(st.one_of(st.none(), st.integers(1, n)))
    return Query(terms=terms, evidence_x=ex, evidence_y=ey)


class TestEngineInvariants:
    @settings(max_examples=60, deadline=None)
    @given(case=mass_cases(sizes=((2, 3), (3, 2), (3, 3))), data=st.data())
    def test_term_order_irrelevant(self, case, data):
        m, n, ds = case
        q = data.draw(queries(m, n))
        perm = data.draw(st.permutations(list(q.terms)))
        q2 = Query(
            terms=tuple(perm),
            evidence_x=q.evidence_x,
            evidence_y=q.evidence_y,
            conditional=q.conditional,
        )
        a, b = bound(ds, q).interval, bound(ds, q2).interval
        assert (a.lo, a.hi) == (b.lo, b.hi)

    @settings(max_examples=60, deadline=None)
    @given(case=mass_cases(), data=st.data())
    def test_conditioning_rescales_the_joint(self, case, data):
        m, n, ds = case
        q = data.draw(queries(m, n))
        ex = data.draw(st.one_of(st.none(), st.integers(1, m)))
        ey = data.draw(st.integers(1, n)) if ex is None else data.draw(
            st.one_of(st.none(), st.integers(1, n))
        )
        joint_q = Query(terms=q.terms, evidence_x=ex, evidence_y=ey)
        cond_q = Query(terms=q.terms, evidence_x=ex, evidence_y=ey, conditional=True)
        ev = ds.evidence(ex, ey) / ds.den
        assume(ev > 1e-6)
        joint = bound(ds, joint_q).interval
        cond = bound(ds, cond_q).interval
        assert cond.lo == pytest.approx(min(1.0, joint.lo / ev), abs=1e-12)
        assert cond.hi == pytest.approx(min(1.0, joint.hi / ev), abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(case=mass_cases(sizes=((3, 3),)), data=st.data())
    def test_subquery_count_stays_within_budget(self, case, data):
        m, n, ds = case
        q = data.draw(queries(m, n))
        cq = canonicalize(q)
        result = bound(ds, q)
        if cq.kind != STANDARD:
            assert result.stats_evaluated == 1
        else:
            k = len(cq.terms)
            assert result.stats_evaluated <= 2 ** (k + 2)

    @settings(max_examples=60, deadline=None)
    @given(case=mass_cases())
    def test_interval_well_formed(self, case):
        m, n, ds = case
        for j in range(1, m + 1):
            for i in range(1, n + 1):
                iv = bound(ds, f"P(y{i}_x{j}, x{1 + j % m})").interval
                assert 0.0 <= iv.lo <= iv.hi <= 1.0

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(case=near_boundary_tables(), seed=st.integers(0, 2**32 - 1))
    def test_bound_and_oracle_refuse_exactly_the_data_failing_validation(self, case, seed):
        # Any other exception from either path escapes and fails the test.
        m, n, ds = case
        rng = random.Random(seed)

        def refusal(run, query):
            try:
                run(ds, query)
            except Infeasible as exc:
                return str(exc)
            except ZeroEvidenceProbability:
                pass
            return None

        for form in FORMS:
            for kind in (STANDARD, ZERO) if form in ("plain", "y") else (STANDARD, ZERO, EXACT):
                q = draw_kind(rng, m, n, form, kind)
                message = refusal(bound, q)
                assert message == refusal(tight_bounds, q), q
                assert (message is not None) == (not ds.validation.ok), q


def _outcome(ds, query, trace):
    """(lo, hi as hex floats, stats_evaluated) or the exception type, and the trace."""
    try:
        result = bound(ds, query, trace=trace)
    except ValueError as exc:
        return type(exc), None
    return (result.interval.lo.hex(), result.interval.hi.hex(), result.stats_evaluated), result.trace


def assert_untraced_matches(ds, query):
    traced, traced_trace = _outcome(ds, query, True)
    untraced, untraced_trace = _outcome(ds, query, False)
    assert untraced == traced, query
    assert untraced_trace is None, query
    assert isinstance(traced, type) or traced_trace is not None, query


class TestUntracedPath:
    """bound(trace=False) builds no derivation and otherwise answers as the
    traced call does: the same interval bit for bit, the same
    stats_evaluated, the same exception type."""

    @settings(max_examples=150, deadline=None)
    @given(
        size=st.sampled_from([(m, n) for m in range(2, 6) for n in (2, 3)]),
        form=st.sampled_from(FORMS),
        kind=st.sampled_from((STANDARD, ZERO, EXACT)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_same_answer_as_traced(self, size, form, kind, seed):
        m, n = size
        rng = random.Random(seed)
        ds = random_model(rng, m, n)
        if kind == EXACT and form in ("plain", "y"):
            kind = STANDARD  # no evidence treatment to absorb a term
        assert_untraced_matches(ds, draw_kind(rng, m, n, form, kind))
        # Up to five terms on distinct treatments, in the same evidence form.
        variant = rng.choice(["x", "y", "xy"]) if form == "conditional" else form
        q = random_query(rng, m, n, kmax=5, variant=variant)
        assert_untraced_matches(ds, q._replace(conditional=form == "conditional"))

    @settings(max_examples=40, deadline=None)
    @given(ds=raw_tables(), seed=st.integers(0, 2**32 - 1))
    def test_same_refusals_as_traced(self, ds, seed):
        # Inconsistent tables, indices out of range and bad text fail alike.
        m, n = ds.space.m, ds.space.n
        rng = random.Random(seed)
        for form in FORMS:
            assert_untraced_matches(ds, draw_query(rng, m, n, form))
        assert_untraced_matches(ds, Query(terms=(CounterfactualTerm(m + 1, 1),)))
        assert_untraced_matches(ds, "P(y1_x1, y1_x2")
        assert_untraced_matches(ds, f"P(y{n + 1}_x1 | x2)")

    def test_wide_queries(self):
        rng = random.Random("untraced 8x4")
        for _ in range(4):
            ds = dataset_from_counts(*sparse_counts(rng, 8, 4, zeros=0.3))
            for form in FORMS:
                js = sorted(rng.sample(range(1, 9), rng.randint(6, 8)))
                terms = tuple(CounterfactualTerm(j, rng.randint(1, 4)) for j in js)
                ex = rng.randint(1, 8) if form in ("x", "xy", "conditional") else None
                ey = rng.randint(1, 4) if form in ("y", "xy", "conditional") else None
                q = Query(terms, evidence_x=ex, evidence_y=ey, conditional=form == "conditional")
                assert_untraced_matches(ds, q)


class TestOracleInvariants:
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(case=mass_cases(), data=st.data())
    def test_closed_forms_contain_the_lp(self, case, data):
        m, n, ds = case
        q = data.draw(queries(m, n))
        eng = bound(ds, q).interval
        lp = tight_bounds(ds, q)
        assert eng.lo <= lp.lo and lp.hi <= eng.hi

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(case=mass_cases(sizes=((2, 2), (2, 3), (3, 2), (3, 3))), data=st.data())
    def test_engine_contains_the_tight_interval_exactly(self, case, data):
        # Both ends are exact rationals rounded once, and rounding is
        # monotone, so containment needs no slack.
        m, n, ds = case
        q = data.draw(queries(m, n))
        eng = bound(ds, q).interval
        lp = tight_bounds(ds, q)
        assert eng.lo <= lp.lo and lp.hi <= eng.hi

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(case=mass_cases(sizes=((2, 2), (2, 3), (3, 2), (3, 3))), data=st.data())
    def test_joint_evidence_form_is_tight(self, case, data):
        # The engine docstring proves T1-T4 equal to the closed form at k = 1:
        # y_i_x_j with y_q, q = i (T1) or q != i (T2), x_p (T3) or x_p, y_q
        # (T4), p != j, joint or conditional.
        m, n, ds = case
        j = data.draw(st.integers(1, m))
        i = data.draw(st.integers(1, n))
        theorem = data.draw(st.sampled_from(("T1", "T2", "T3", "T4")))
        p = None if theorem in ("T1", "T2") else data.draw(st.integers(1, m).filter(lambda v: v != j))
        if theorem == "T1":
            qy = i
        elif theorem == "T2":
            qy = data.draw(st.integers(1, n).filter(lambda v: v != i))
        else:
            qy = None if theorem == "T3" else data.draw(st.integers(1, n))
        conditional = data.draw(st.booleans())
        assume(not conditional or ds.evidence(p, qy) > 0)
        q = Query(
            terms=(CounterfactualTerm(j, i),), evidence_x=p, evidence_y=qy, conditional=conditional
        )
        result = bound(ds, q)
        assert result.trace.theorem == theorem
        assert result.interval == tight_bounds(ds, q)

    @settings(max_examples=60, deadline=None)
    @given(case=mass_cases(sizes=((2, 2), (2, 3), (3, 2), (3, 3))), data=st.data())
    def test_single_term_hi_is_below_term_and_evidence(self, case, data):
        # Pair dominance: the conjunctions keep no P(term) or P(evidence)
        # upper candidate because a pair's hi is at most both. Rounding is
        # monotone, so no slack is needed.
        m, n, ds = case
        j = data.draw(st.integers(1, m))
        i = data.draw(st.integers(1, n))
        ex = data.draw(st.one_of(st.none(), st.integers(1, m).filter(lambda v: v != j)))
        ey = data.draw(st.integers(1, n)) if ex is None else data.draw(
            st.one_of(st.none(), st.integers(1, n))
        )
        q = Query(terms=(CounterfactualTerm(j, i),), evidence_x=ex, evidence_y=ey)
        hi = bound(ds, q).interval.hi
        assert hi <= ds.do[j - 1][i - 1] / ds.den
        assert hi <= ds.evidence(ex, ey) / ds.den

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(ds=raw_tables())
    def test_validation_matches_lp_feasibility(self, ds):
        # cell-wise consistency is both necessary and sufficient for a
        # joint response-type distribution to exist
        assert ds.validation.ok == reference_feasible(ds)

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(case=near_boundary_tables())
    def test_probability_validation_matches_lp_feasibility(self, case):
        _, _, ds = case
        assert ds.validation.ok == reference_feasible(ds)


class TestQueryTextInvariants:
    @settings(max_examples=100)
    @given(data=st.data())
    def test_format_parse_round_trip(self, data):
        m, n = data.draw(st.sampled_from([(2, 2), (3, 3), (4, 2)]))
        q = data.draw(queries(m, n))
        if q.evidence_x is not None or q.evidence_y is not None:
            q = Query(
                terms=q.terms,
                evidence_x=q.evidence_x,
                evidence_y=q.evidence_y,
                conditional=data.draw(st.booleans()),
            )
        from pocbounds.model import ProblemSpace

        assert parse_query(format_query(q), ProblemSpace(m, n)) == q
