import itertools
import random
from fractions import Fraction

import pytest

from pocbounds.engine import bound
from pocbounds.model import EPS_NUM, Infeasible, dataset_from_counts, dataset_from_probs
from pocbounds.oracle import tight_bounds
from pocbounds.queryir import ZeroEvidenceProbability, canonicalize, parse_query
from pocbounds.simgen import counts_from_masses, random_model, random_query

from conftest import exact
from lp_reference import _objective, reference_feasible, response_types

INFEASIBLE_EXP = [[2, 8], [5, 5]]
INFEASIBLE_OBS = [[5, 0], [2, 3]]  # P(x1,y1) = 0.5 > P(y1|do(x1)) = 0.2


class TestResponseTypes:
    def test_enumeration_order(self):
        assert response_types(2, 2) == [(1, 1), (1, 2), (2, 1), (2, 2)]

    def test_counts(self):
        assert len(response_types(3, 3)) == 27
        assert len(response_types(2, 4)) == 16


class TestTightBounds:
    def test_three_term_conjunction_value(self, treatment):
        iv = tight_bounds(treatment, "P(y3_x1, y1_x2, y2_x3)")
        assert iv.lo == pytest.approx(float(Fraction(19, 300)), abs=1e-12)
        assert iv.hi == pytest.approx(float(Fraction(89, 900)), abs=1e-12)

    def test_engine_upper_is_tight_here(self, treatment):
        lp = tight_bounds(treatment, "P(y3_x1, y1_x2, y2_x3)")
        eng = bound(treatment, "P(y3_x1, y1_x2, y2_x3)").interval
        assert eng.lo <= lp.lo and lp.hi <= eng.hi
        assert eng.hi == pytest.approx(lp.hi, abs=1e-12)
        assert eng.lo < lp.lo - 0.05  # the closed-form lower bound is loose here

    def test_point_query_pinned_by_experiment(self, treatment):
        for j in range(1, 4):
            for i in range(1, 4):
                iv = tight_bounds(treatment, f"P(y{i}_x{j})")
                v = float(exact(treatment, "do", j, i))
                assert iv.lo == pytest.approx(v, abs=1e-12)
                assert iv.hi == pytest.approx(v, abs=1e-12)

    def test_observational_cell_pinned(self, treatment):
        # term absorbed into evidence; the oracle must return the observed cell
        iv = tight_bounds(treatment, "P(y3_x1, x1)")
        assert iv.lo == iv.hi == pytest.approx(7 / 900, abs=1e-15)

    def test_deterministic_experiments_pin_conjunction(self):
        ds = dataset_from_probs([[1.0, 0.0], [0.0, 1.0]], [[0.5, 0.0], [0.0, 0.5]])
        iv = tight_bounds(ds, "P(y1_x1, y2_x2)")
        assert (iv.lo, iv.hi) == (pytest.approx(1.0, abs=1e-12), pytest.approx(1.0, abs=1e-12))

    def test_zero_query(self, treatment):
        iv = tight_bounds(treatment, "P(y1_x1, y2_x1)")
        assert (iv.lo, iv.hi) == (0.0, 0.0)

    def test_conditional_divides_by_evidence(self, institute):
        joint = tight_bounds(institute, "P(y1_x3, x2, y2)")
        cond = tight_bounds(institute, "P(y1_x3 | x2, y2)")
        ev = 118 / 1200
        assert cond.lo == pytest.approx(joint.lo / ev, abs=1e-12)
        assert cond.hi == pytest.approx(joint.hi / ev, abs=1e-12)

    def test_conditional_zero_evidence(self):
        ds = dataset_from_counts([[5, 5], [5, 5]], [[5, 0], [3, 2]])
        with pytest.raises(ZeroEvidenceProbability):
            tight_bounds(ds, "P(y1_x2 | x1, y2)")

    def test_evidence_below_eps_refused_as_by_the_engine(self):
        # P(x1, y1) = 1 / (4*10**9 + 2): not zero, but below the engine's EPS_NUM
        ds = dataset_from_counts([[1, 1], [1, 1]], [[1, 2 * 10**9], [2 * 10**9, 1]])
        assert ds.validation.ok
        assert 0 < exact(ds, "joint", 1, 1) < EPS_NUM
        query = "P(y1_x2 | x1, y1)"
        with pytest.raises(ZeroEvidenceProbability) as by_engine:
            bound(ds, query)
        with pytest.raises(ZeroEvidenceProbability) as by_oracle:
            tight_bounds(ds, query)
        assert str(by_oracle.value) == str(by_engine.value)

    def test_accepts_text_and_parsed_queries(self, treatment):
        q = parse_query("P(y3_x1, y1_x2)", treatment.space)
        assert tight_bounds(treatment, "P(y3_x1, y1_x2)") == tight_bounds(treatment, q)

    def test_deterministic(self, vaccine):
        first = tight_bounds(vaccine, "P(y2_x1, y4_x2)")
        second = tight_bounds(vaccine, "P(y2_x1, y4_x2)")
        assert (first.lo, first.hi) == (second.lo, second.hi)


class TestLargeSpaces:
    def test_five_by_four_space(self):
        # 4^5 * 5 = 5,120 response-type columns; the closed form reads 4 terms.
        m, n = 5, 4
        rng = random.Random(54)
        types = list(itertools.product(range(1, n + 1), repeat=m))
        masses = [[rng.randrange(0, 7) for _ in range(m)] for _ in types]
        ds = dataset_from_counts(*counts_from_masses(masses, m, n))
        flat = [w for row in masses for w in row]
        for text in (
            "P(y1_x1, y2_x2, y3_x3, y4_x4)",
            "P(y1_x1, y2_x2, y3_x3, y4_x4, x5)",
            "P(y2_x1, y2_x2, y3_x3, y4_x5, y1)",
            "P(y2_x1, y2_x2, y3_x3, y4_x5, x4, y2)",
        ):
            cq = canonicalize(parse_query(text, ds.space))
            assert len(cq.terms) == 4
            lp = tight_bounds(ds, text)
            eng = bound(ds, text).interval
            assert eng.lo <= lp.lo and lp.hi <= eng.hi, f"engine {eng} does not contain LP {lp} for {text}"
            # the masses are a model of the data, so their value is attainable
            coeffs = _objective(ds, types, cq.terms, cq.evidence_x, cq.evidence_y)
            witness = Fraction(sum(w for w, v in zip(flat, coeffs) if v), sum(flat))
            assert lp.lo - 1e-12 <= float(witness) <= lp.hi + 1e-12, f"{text}: {witness} outside {lp}"


class TestFeasibility:
    def test_bundled_datasets_feasible(self, treatment, institute, vaccine):
        for ds in (treatment, institute, vaccine):
            assert ds.validation.ok
            assert reference_feasible(ds)

    def test_consistency_violation_infeasible(self):
        # the second table's gap, 5e-7, is inside the 1e-6 ingest slack
        for ds in (
            dataset_from_counts(INFEASIBLE_EXP, INFEASIBLE_OBS),
            dataset_from_probs([[0.3, 0.7], [0.5, 0.5]], [[0.3000005, 0.1999995], [0.2, 0.3]]),
        ):
            assert not ds.validation.ok
            assert not reference_feasible(ds)
            with pytest.raises(Infeasible, match=r"P\(y1 \| do x1\) = \S+ < P\(x1, y1\)"):
                tight_bounds(ds, "P(y1_x1, y2_x2)")

    def test_validation_predicts_feasibility(self):
        # pairwise consistency of every (j, i) cell is equivalent to the
        # existence of a joint response-type distribution, so the cheap
        # validator and the LP must agree on random count tables
        rng = random.Random(5150)
        agreements = 0
        for _ in range(40):
            m, n = rng.choice([(2, 2), (2, 3), (3, 2)])
            exp = [[rng.randrange(0, 7) for _ in range(n)] for _ in range(m)]
            obs = [[rng.randrange(0, 7) for _ in range(n)] for _ in range(m)]
            for row in exp:
                if sum(row) == 0:
                    row[0] = 1
            if sum(v for row in obs for v in row) == 0:
                obs[0][0] = 1
            ds = dataset_from_counts(exp, obs)
            assert ds.validation.ok == reference_feasible(ds)
            agreements += 1
        assert agreements == 40


class TestOracleValidatesEngine:
    def test_containment_random_sweep(self):
        rng = random.Random(909)
        for _ in range(30):
            m, n = rng.choice([(2, 2), (2, 3), (3, 3)])
            ds = random_model(rng, m, n)
            q = random_query(rng, m, n)
            eng = bound(ds, q).interval
            lp = tight_bounds(ds, q)
            assert eng.lo <= lp.lo and lp.hi <= eng.hi, (
                f"engine {eng} does not contain LP {lp} for {q}"
            )

    def test_single_term_joint_evidence_is_tight(self):
        # every single-term form with evidence matches the LP bit for bit
        rng = random.Random(4242)
        for _ in range(25):
            m, n = rng.choice([(2, 2), (2, 3), (3, 2)])
            ds = random_model(rng, m, n)
            q = random_query(rng, m, n, kmax=1, variant="xy")
            assert bound(ds, q).interval == tight_bounds(ds, q)

