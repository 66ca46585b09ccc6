import random
from fractions import Fraction

import pytest

from pocbounds import engine
from pocbounds.engine import (
    MAX_TERMS,
    BoundResult,
    BoundTrace,
    bound,
)
from pocbounds.model import Infeasible, dataset_from_counts, dataset_from_probs
from pocbounds.queryir import CounterfactualTerm, Query, UnsupportedQuery, ZeroEvidenceProbability
from pocbounds.simgen import random_model, run_simulation

from conftest import exact
from tian_pearl_reference import NotBinary, tian_pearl


def f3(v: float) -> str:
    return f"{v:.3f}"


def check3(dataset, query, lo, hi):
    iv = bound(dataset, query).interval
    assert (f3(iv.lo), f3(iv.hi)) == (lo, hi), f"{query}: got {iv}"
    return iv


class TestTreatmentStudy:
    """Three-arm trial with selection into arms; published to 3 decimals."""

    def test_pairs(self, treatment):
        iv = check3(treatment, "P(y3_x1, y1_x2)", "0.323", "0.340")
        assert iv.lo == pytest.approx(0.323333, abs=5e-7)
        iv = check3(treatment, "P(y1_x2, y2_x3)", "0.243", "0.386")
        assert iv.hi == pytest.approx(0.385556, abs=5e-7)
        iv = check3(treatment, "P(y3_x1, y2_x3)", "0.340", "0.472")
        assert iv.hi == pytest.approx(0.472222, abs=5e-7)

    def test_triples_with_evidence(self, treatment):
        iv = check3(treatment, "P(y1_x2, y2_x3, x1, y3)", "0.000", "0.008")
        assert iv.hi == pytest.approx(7 / 900, abs=1e-12)
        iv = check3(treatment, "P(y3_x1, y2_x3, x2, y1)", "0.000", "0.011")
        assert iv.hi == pytest.approx(10 / 900, abs=1e-12)
        iv = check3(treatment, "P(y3_x1, y1_x2, x3, y2)", "0.000", "0.080")
        assert iv.hi == pytest.approx(72 / 900, abs=1e-12)

    def test_three_term_conjunction(self, treatment):
        result = bound(treatment, "P(y3_x1, y1_x2, y2_x3)")
        assert result.interval.lo == 0.0
        assert result.interval.hi == pytest.approx(89 / 900, abs=1e-12)
        # P(y1_x2) is reached only through leave-one-out candidates that
        # cannot win, so the pruned recursion skips it (25 nodes before).
        assert result.stats_evaluated == 24

    def test_three_term_trace(self, treatment):
        trace = bound(treatment, "P(y3_x1, y1_x2, y2_x3)").trace
        assert trace.theorem == "T5"
        assert trace.upper_branch == "decomp"
        assert trace.lower_branch == "0"
        assert trace.children  # subquery derivations attached
        # each leave-one-out lower branch lands on the same raw value here:
        # -42 over den = 900, about -0.046667
        loos = [v for name, v in trace.lower_candidates if name.startswith("loo")]
        assert treatment.den == 900 and loos == [-42, -42, -42]

    def test_trace_json_shape(self, treatment):
        doc = bound(treatment, "P(y3_x1, y1_x2)").trace.to_json()
        assert set(doc) == {
            "query", "theorem", "lower_branch", "upper_branch", "lo", "hi", "children",
        }
        assert isinstance(doc["children"], list) and doc["children"]
        assert set(doc["children"][0]) == set(doc)


class TestInstituteStudy:
    """Four-option choice; attribution queries conditioned on (x2, y2)."""

    def test_conditional_bounds(self, institute):
        iv = check3(institute, "P(y1_x3 | x2, y2)", "0.720", "1.000")
        assert iv.lo == pytest.approx(85 / 118, abs=1e-12)
        iv = check3(institute, "P(y1_x4 | x2, y2)", "0.000", "0.042")
        assert iv.hi == pytest.approx(5 / 118, abs=1e-12)

    def test_conditional_is_joint_over_evidence(self, institute):
        joint = bound(institute, "P(y1_x3, x2, y2)").interval
        assert joint.lo == pytest.approx(85 / 1200, abs=1e-12)
        assert joint.hi == pytest.approx(118 / 1200, abs=1e-12)
        cond = bound(institute, "P(y1_x3 | x2, y2)").interval
        ev = 118 / 1200
        assert cond.lo == pytest.approx(joint.lo / ev, abs=1e-12)
        assert cond.hi == pytest.approx(min(1.0, joint.hi / ev), abs=1e-12)


class TestVaccineStudy:
    """Two-arm study with four outcomes; criterion 3 checks its published rows."""

    def test_exact_pair_values(self, vaccine):
        iv = bound(vaccine, "P(y1_x1, y4_x2)").interval
        assert (iv.lo, iv.hi) == (pytest.approx(0.0, abs=1e-12), pytest.approx(47 / 1200, abs=1e-12))
        iv = bound(vaccine, "P(y2_x1, y4_x2)").interval
        assert (iv.lo, iv.hi) == (pytest.approx(44 / 1200, abs=1e-12), pytest.approx(92 / 1200, abs=1e-12))
        iv = bound(vaccine, "P(y3_x1, y4_x2)").interval
        assert (iv.lo, iv.hi) == (pytest.approx(602 / 1200, abs=1e-12), pytest.approx(673 / 1200, abs=1e-12))


class TestSingleTermForms:
    """Closed forms recomputed with exact rational arithmetic."""

    def test_point_query_is_exact(self, treatment):
        result = bound(treatment, "P(y3_x1)")
        assert result.trace.theorem == "Exact"
        assert result.interval.lo == result.interval.hi == pytest.approx(213 / 300, abs=1e-15)
        assert result.stats_evaluated == 1

    def test_same_outcome_evidence(self, treatment):
        # T1: the event holds on all of P(x1, y3) = 7/900 and meets the rest
        # of P(y3) by Frechet, with D = P(y3_x1) - P(x1, y3) = 632/900
        result = bound(treatment, "P(y3_x1, y3)")
        assert result.interval == (float(Fraction(333, 900)), float(Fraction(336, 900)))
        assert result.trace.theorem == "T1"

    def test_other_outcome_evidence(self, treatment):
        # T2: the event misses P(x1, y1) and meets the other 157/900 of P(y1)
        result = bound(treatment, "P(y3_x1, y1)")
        assert result.interval == (float(Fraction(154, 900)), float(Fraction(157, 900)))
        assert result.trace.theorem == "T2"

    def test_treatment_evidence(self, treatment):
        iv = bound(treatment, "P(y3_x1, x2)").interval
        assert iv.lo == pytest.approx(343 / 900, abs=1e-12)
        assert iv.hi == pytest.approx(346 / 900, abs=1e-12)
        assert bound(treatment, "P(y3_x1, x2)").trace.theorem == "T3"

    def test_joint_evidence(self, treatment):
        result = bound(treatment, "P(y3_x1, x2, y1)")
        assert result.interval.lo == pytest.approx(7 / 900, abs=1e-12)
        assert result.interval.hi == pytest.approx(10 / 900, abs=1e-12)
        assert result.trace.theorem == "T4"


class TestDegenerateKinds:
    def test_conflicting_outcomes_zero(self, treatment):
        result = bound(treatment, "P(y1_x1, y2_x1)")
        assert (result.interval.lo, result.interval.hi) == (0.0, 0.0)
        assert result.trace.theorem == "Zero"
        assert result.stats_evaluated == 1

    def test_term_absorbed_into_evidence(self, treatment):
        result = bound(treatment, "P(y3_x1, x1)")
        assert result.trace.theorem == "Exact"
        assert (result.trace.query, result.stats_evaluated) == ("P(x1, y3)", 1)
        assert result.interval.lo == result.interval.hi == pytest.approx(7 / 900, abs=1e-15)

    def test_absorbed_conditional_divides_by_original_evidence(self, treatment):
        iv = bound(treatment, "P(y3_x1 | x1)").interval
        assert iv.lo == iv.hi == pytest.approx(7 / 265, abs=1e-12)

    def test_absorbed_outcome_conflict_zero(self, treatment):
        result = bound(treatment, "P(y3_x1, x1, y2)")
        assert result.trace.theorem == "Zero"
        assert (result.interval.lo, result.interval.hi) == (0.0, 0.0)

    def test_zero_evidence_probability(self):
        ds = dataset_from_counts([[5, 5], [5, 5]], [[5, 0], [3, 2]])
        with pytest.raises(ZeroEvidenceProbability) as exc:
            bound(ds, "P(y1_x2 | x1, y2)")
        assert "P(x1, y2)" in str(exc.value)

    def test_inconsistent_data_refused(self):
        # x1,y1 is violated by 5e-7, inside the ingest slack for probabilities.
        ds = dataset_from_probs([[0.3, 0.7], [0.5, 0.5]], [[0.3000005, 0.1999995], [0.2, 0.3]])
        with pytest.raises(Infeasible) as exc:
            bound(ds, "P(y1_x2 | x1, y1)")
        assert exc.value.violations == ds.validation.violations


class TestEvaluatorControls:
    def test_term_budget(self):
        m = MAX_TERMS + 1
        ds = dataset_from_counts([[1, 1]] * m, [[1, 1]] * m)
        q = Query(terms=tuple(CounterfactualTerm(j, 1) for j in range(1, m + 1)))
        with pytest.raises(UnsupportedQuery, match=f"limit of {MAX_TERMS}"):
            bound(ds, q)

    def test_wide_query_prunes_leave_one_out_recursion(self):
        # Consistent 8x4 counts: each experimental row is the observed row
        # plus a split of the units outside that arm.
        m, n = 8, 4
        obs = [[1 + (5 * j + 3 * i) % 7 for i in range(n)] for j in range(m)]
        total = sum(map(sum, obs))
        exp = []
        for j, row in enumerate(obs):
            share = [(total - sum(row)) // n] * n
            share[j % n] += total - sum(row) - sum(share)
            exp.append([o + e for o, e in zip(row, share)])
        ds = dataset_from_counts(exp, obs)
        result = bound(ds, "P(y1_x1, y2_x2, y3_x3, y4_x4, y1_x5, y2_x6, y3_x7, y4_x8)")
        assert result.interval.lo == 0.0
        assert result.interval.hi == pytest.approx(23 / 127, abs=1e-12)
        # The root, its 8 arms and their 7 pairs each; the full leave-one-out
        # recursion evaluates 2,287 nodes here.
        assert result.stats_evaluated == 65

    def test_untraced_path_builds_no_explanation(self, treatment, monkeypatch):
        query = "P(y3_x1, y1_x2, y2_x3)"
        want = bound(treatment, query).interval
        want_sim = [rec.interval for rec in run_simulation(5).records]

        def refuse(*args, **kwargs):
            raise AssertionError("the untraced path built part of a trace")

        monkeypatch.setattr(engine, "subquery_label", refuse)
        monkeypatch.setattr(engine, "BoundTrace", refuse)
        result = bound(treatment, query, trace=False)
        assert (result.interval, result.trace) == (want, None)
        assert [rec.interval for rec in run_simulation(5).records] == want_sim

    def test_accepts_query_objects_and_text(self, treatment):
        q = Query(terms=(CounterfactualTerm(1, 3), CounterfactualTerm(2, 1)))
        assert bound(treatment, q).interval == bound(treatment, "P(y3_x1, y1_x2)").interval

    def test_result_types(self, treatment):
        result = bound(treatment, "P(y1_x1)")
        assert isinstance(result, BoundResult)
        assert isinstance(result.trace, BoundTrace)


class TestBinarySpecialCases:
    def test_requires_binary(self, treatment):
        with pytest.raises(NotBinary):
            tian_pearl(treatment, "PNS")

    def test_unknown_kind(self):
        ds = dataset_from_counts([[6, 4], [3, 7]], [[3, 1], [2, 4]])
        with pytest.raises(ValueError):
            tian_pearl(ds, "PNX")

    def test_hand_formulas(self):
        ds = dataset_from_counts([[6, 4], [3, 7]], [[3, 1], [2, 4]])
        y_x, y_xp = 0.6, 0.3
        yp_x, yp_xp = 0.4, 0.7
        xy, xyp, xpy, xpyp = 0.3, 0.1, 0.2, 0.4
        y = 0.5
        pns = tian_pearl(ds, "PNS")
        assert pns.lo == pytest.approx(max(0.0, y_x - y_xp, y - y_xp, y_x - y), abs=1e-12)
        assert pns.hi == pytest.approx(
            min(y_x, yp_xp, xy + xpyp, y_x - y_xp + xyp + xpy), abs=1e-12
        )
        pn = tian_pearl(ds, "PN")
        assert pn.lo == pytest.approx(max(0.0, (y - y_xp) / xy), abs=1e-12)
        assert pn.hi == pytest.approx(min(1.0, (yp_xp - xpyp) / xy), abs=1e-12)
        ps = tian_pearl(ds, "PS")
        yp_marg = 1.0 - y
        assert ps.lo == pytest.approx(max(0.0, (yp_marg - yp_x) / xpyp), abs=1e-12)
        assert ps.hi == pytest.approx(min(1.0, (y_x - xy) / xpyp), abs=1e-12)

    def test_necessity_and_sufficiency_as_conjunction(self):
        rng = random.Random(20260815)
        for _ in range(60):
            ds = random_model(rng, 2, 2)
            pns = tian_pearl(ds, "PNS")
            conj = bound(ds, "P(y1_x1, y2_x2)").interval
            assert conj.lo == pytest.approx(pns.lo, abs=1e-12)
            assert conj.hi == pytest.approx(pns.hi, abs=1e-12)

    def test_necessity_as_conditional_query(self):
        rng = random.Random(77)
        checked = 0
        for _ in range(80):
            ds = random_model(rng, 2, 2)
            if exact(ds, "joint", 1, 1) < 1e-9 or exact(ds, "joint", 2, 2) < 1e-9:
                continue
            pn = tian_pearl(ds, "PN")
            q = bound(ds, "P(y2_x2 | x1, y1)").interval
            assert q.lo == pytest.approx(pn.lo, abs=1e-12)
            assert q.hi == pytest.approx(pn.hi, abs=1e-12)
            ps = tian_pearl(ds, "PS")
            q = bound(ds, "P(y1_x1 | x2, y2)").interval
            assert q.lo == pytest.approx(ps.lo, abs=1e-12)
            assert q.hi == pytest.approx(ps.hi, abs=1e-12)
            checked += 1
        assert checked >= 40

    def test_deterministic_experiments_pin_pns(self):
        ds = dataset_from_probs([[1.0, 0.0], [0.0, 1.0]], [[0.5, 0.0], [0.0, 0.5]])
        pns = tian_pearl(ds, "PNS")
        assert (pns.lo, pns.hi) == (1.0, 1.0)
