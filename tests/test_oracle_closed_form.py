"""The closed-form oracle against the arm LP, solved by the exact simplex.

Both are exact, so `_exact_bounds` must equal the LP optima as Fractions.
The arm LP has m(m-1)n marginal columns, so unlike the response-type LP it
checks spaces up to 8x4 and queries up to 8 terms. An 8x4 solve costs about
0.3 s, so the large spaces get only a few cases.
"""

import random
from fractions import Fraction

import pytest

from pocbounds.model import EPS_NUM, Infeasible, dataset_from_counts
from pocbounds.oracle import _closed_form, _exact_bounds
from pocbounds.queryir import (
    EXACT,
    STANDARD,
    ZERO,
    CounterfactualTerm,
    Query,
    ZeroEvidenceProbability,
    canonicalize,
    parse_query,
)

from arm_lp_reference import arm_lp_bounds
from conftest import FORMS, draw_kind, draw_query, sparse_counts
from lp_reference import evidence_divisor

# (m, n, cases)
SIZES = (
    (2, 2, 20),
    (2, 3, 15),
    (3, 2, 15),
    (3, 3, 25),
    (4, 2, 15),
    (4, 3, 20),
    (5, 2, 10),
    (5, 3, 10),
    (6, 3, 6),
    (7, 2, 4),
    (8, 4, 3),
)


def _check(ds, cq):
    """Assert the closed form equals the arm LP; False when the evidence is below EPS_NUM."""
    if cq.conditional and float(evidence_divisor(ds, cq)) < EPS_NUM:
        with pytest.raises(ZeroEvidenceProbability):
            _exact_bounds(ds, cq)
        return False
    status, lo, hi = arm_lp_bounds(ds, cq)
    assert status == "optimal"
    if cq.conditional:
        divisor = evidence_divisor(ds, cq)
        lo, hi = lo / divisor, hi / divisor
    assert _exact_bounds(ds, cq) == (lo, hi), (ds.do, ds.joint, cq)
    return True


def _draw(rng, m, n, form, kind):
    """A ZERO or EXACT query, or one with 2..m terms on distinct treatments."""
    if kind != STANDARD:
        return draw_kind(rng, m, n, form, kind)
    js = rng.sample(range(1, m + 1), rng.randrange(2, m + 1))
    terms = tuple(CounterfactualTerm(j, rng.randrange(1, n + 1)) for j in js)
    return draw_query(rng, m, n, form)._replace(terms=terms)


def _has_zero_demand(ds, cq) -> bool:
    return any(ds.do[j - 1][y - 1] == ds.joint[j - 1][y - 1] for j, y in cq.terms)


def test_random_queries_match_arm_lp():
    rng = random.Random(1956)
    compared = set()
    zero_demand = count = 0
    for m, n, cases in SIZES:
        for idx in range(cases):
            form = FORMS[idx % len(FORMS)]
            kinds = (STANDARD, ZERO, EXACT) if form not in ("plain", "y") else (STANDARD, ZERO)
            kind = kinds[(idx // len(FORMS)) % len(kinds)]
            ds = dataset_from_counts(*sparse_counts(rng, m, n, zeros=rng.choice((0.0, 0.3, 0.6))))
            cq = canonicalize(_draw(rng, m, n, form, kind))
            if _check(ds, cq):
                compared.add((form, cq.kind))
                zero_demand += _has_zero_demand(ds, cq)
                count += 1
    assert count >= 120, count
    assert len(compared) == 3 * 3 + 2 * 2, sorted(compared)
    assert zero_demand >= 20, zero_demand


def test_fractional_prefix_cap_matches_arm_lp():
    # The closed form leaves the integers only where a prefix cap
    # (D_(1) + ... + D_(i)) / (i - 1) binds: here (1 + 1 + 1) / 2 over den 18.
    ds = dataset_from_counts([[5, 13]] * 3, [[4, 2]] * 3)
    cq = canonicalize(parse_query("P(y1_x1, y1_x2, y1_x3)", ds.space))
    assert _closed_form(ds, cq)[1] == Fraction(3, 2)
    assert _check(ds, cq)
    assert _exact_bounds(ds, cq)[1] == Fraction(1, 12)


@pytest.mark.parametrize("form", ("plain", "xy", "conditional"))
def test_eight_terms_on_eight_treatments(form):
    rng = random.Random(f"8x4 {form}")
    for _ in range(20):
        ds = dataset_from_counts(*sparse_counts(rng, 8, 4, zeros=0.3))
        terms = tuple(CounterfactualTerm(j, rng.randrange(1, 5)) for j in range(1, 9))
        ex, ey = (rng.randrange(1, 9), rng.randrange(1, 5)) if form != "plain" else (None, None)
        # with evidence x_e the term on x_e is absorbed: 7 terms remain, and arm x_e has 8 events
        cq = canonicalize(Query(terms, evidence_x=ex, evidence_y=ey, conditional=form == "conditional"))
        if cq.kind == STANDARD and _check(ds, cq):
            return
    raise AssertionError("no usable 8-term query drawn")


def test_pushed_cell_is_infeasible_exactly_when_feasible_is_false():
    rng = random.Random(1997)
    outcomes = []
    for idx in range(60):
        m, n = rng.choice(((2, 2), (2, 3), (3, 2), (3, 3), (4, 2)))
        exp, obs = sparse_counts(rng, m, n, zeros=0.2)
        # Move mass out of one experimental cell to another cell of its row,
        # to just below, at or just above its observed cell. Every row shares
        # the grand total as denominator, so the counts compare directly.
        j, i = rng.randrange(m), rng.randrange(n)
        other = (i + 1 + rng.randrange(n - 1)) % n
        delta = max(0, min(exp[j][i], exp[j][i] - obs[j][i] + rng.choice((-1, 0, 1))))
        exp[j][i] -= delta
        exp[j][other] += delta
        ds = dataset_from_counts(exp, obs)
        ok = exp[j][i] >= obs[j][i]
        assert ds.validation.ok == ok
        cq = canonicalize(draw_query(rng, m, n, FORMS[idx % len(FORMS)]))
        assert arm_lp_bounds(ds, cq)[0] == ("optimal" if ok else "infeasible")
        if ok:
            try:
                _exact_bounds(ds, cq)
            except ZeroEvidenceProbability:
                pass
        else:
            with pytest.raises(Infeasible) as exc:
                _exact_bounds(ds, cq)
            assert f"P(y{i + 1} | do x{j + 1}) = " in str(exc.value)
            assert f" < P(x{j + 1}, y{i + 1}) = " in str(exc.value)
        outcomes.append(ok)
    assert 15 <= sum(outcomes) <= 45, sum(outcomes)
