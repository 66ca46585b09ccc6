import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from pocbounds.engine import bound
from pocbounds.simgen import (
    CSV_HEADER,
    QUERY,
    SimulationRecord,
    SimulationSummary,
    _dataset_of,
    _draw_attempt,
    counts_from_masses,
    export_csv,
    generate_sample,
    random_model,
    run_simulation,
    write_csv,
)

from conftest import exact
from sampler_reference import (
    _draw_fractions,
    _draw_observational,
    _experimental_from_fractions,
    _observational_cells,
    common_scale_sample,
)


def rng_for(seed, idx):
    return random.Random((seed << 64) | idx)


class TestRandomModels:
    def test_counts_from_masses(self):
        # types (y1,y1), (y1,y2), (y2,y1), (y2,y2); a row is its mass under x1, x2
        exp, obs = counts_from_masses([[1, 0], [0, 2], [3, 0], [0, 0]], 2, 2)
        assert (exp, obs) == ([[3, 3], [4, 2]], [[1, 3], [0, 2]])
        with pytest.raises(ValueError):
            counts_from_masses([[1, 0]] * 3, 2, 2)

    def test_random_models_are_consistent(self):
        rng = random.Random(0)
        for m, n in ((2, 2), (3, 3), (4, 2)):
            assert all(random_model(rng, m, n).validation.ok for _ in range(20))

    def test_random_model_all_zero_draw(self):
        # A draw with no mass at all puts unit mass on the first type, which
        # sends every x_j to y_1 and is observed under x_1.
        class Zeros:
            def randrange(self, start, stop):
                return 0

        ds = random_model(Zeros(), 3, 2)
        assert ds.validation.ok
        assert all(row == (ds.den, 0) for row in ds.do)
        assert ds.joint == ((ds.den, 0), (0, 0), (0, 0))


class TestModelDraw:
    def test_fractions_partition_unit_mass(self):
        # differences of sorted cuts that are multiples of 2**-53: exact, and
        # summing to exactly 1
        for idx in range(20):
            f, _ = generate_sample(rng_for(3, idx))
            assert isinstance(f, tuple) and len(f) == 9
            assert all(isinstance(v, float) and v >= 0 for v in f)
            assert sum(map(Fraction, f)) == 1
            assert all((Fraction(v) * 2**53).denominator == 1 for v in f)

    def test_experimental_rows_match_fractions(self):
        # the do-rows are the masses' marginals exactly, not up to a lift
        for idx in range(50):
            f, ds = generate_sample(rng_for(11, idx))
            for a in range(3):
                assert exact(ds, "do", 1, a + 1) == sum(Fraction(f[3 * a + b]) for b in range(3))
                assert exact(ds, "do", 2, a + 1) == sum(Fraction(f[3 * b + a]) for b in range(3))

    def test_samples_satisfy_consistency(self):
        for idx in range(25):
            _, ds = generate_sample(rng_for(7, idx))
            assert ds.validation.ok
            for j in (1, 2):
                for i in (1, 2, 3):
                    joint, do_ = ds.joint[j - 1][i - 1], ds.do[j - 1][i - 1]
                    assert joint <= do_ <= joint + ds.den - ds.px[j - 1]

    def test_real_value_is_first_mass(self):
        # f[0] is the mass of the response type sending both arms to y1,
        # which is exactly the probability the study's query asks about
        summary = run_simulation(5, seed=2)
        for rec in summary.records:
            assert rec.real_value == rec.fractions[0]


class TestBatchedDraw:
    def test_matches_scalar_reference(self):
        # One call of 13 uniforms consumes the doubles the scalar draws did,
        # in the same order, so every float, rejection and later draw agrees.
        rejected = 0
        for idx in range(2000):
            batched, scalar = rng_for(5, idx), rng_for(5, idx)
            f, exp, obs = _draw_attempt(batched)
            ref_f = _draw_fractions(scalar)
            ref_exp = _experimental_from_fractions(ref_f)
            ref_obs = _draw_observational(scalar, ref_exp)
            assert f == tuple(ref_f)
            assert exp == ref_exp
            assert obs == ref_obs
            assert batched.random() == scalar.random()
            rejected += obs is None
        assert 0 < rejected < 2000

    def test_prefilter_decides_as_report(self):
        # _draw_attempt checks two remainder cells in floats; the exact report
        # of the six unchecked cells, ingested as generate_sample ingests
        # them, must reject the same draws.
        rejected = 0
        for idx in range(2000):
            batched, scalar = rng_for(17, idx), rng_for(17, idx)
            _, _, obs = _draw_attempt(batched)
            exp = _experimental_from_fractions(_draw_fractions(scalar))
            ds = _dataset_of(exp, _observational_cells(scalar, exp))
            assert (obs is None) == (not ds.validation.ok), idx
            rejected += obs is None
        assert 0 < rejected < 2000


class TestIntegerLayout:
    def test_two_scales_match_common_scale(self):
        # Over 2**53 and the observational table's own denominator, or all
        # twelve cells over the largest one: the same rationals and report.
        for idx in range(200):
            f, ds = generate_sample(rng_for(13, idx))
            ref_f, ref = common_scale_sample(rng_for(13, idx))
            assert f == ref_f
            assert ds.validation == ref.validation
            for j, i in itertools.product((1, 2), (1, 2, 3)):
                assert exact(ds, "do", j, i) == exact(ref, "do", j, i)
                assert exact(ds, "joint", j, i) == exact(ref, "joint", j, i)
            for j in (1, 2):
                assert exact(ds, "px", j) == exact(ref, "px", j)
            for i in (1, 2, 3):
                assert exact(ds, "py", i) == exact(ref, "py", i)


class TestReproducibility:
    def test_same_seed_bitwise_identical(self):
        a = run_simulation(8, seed=123)
        b = run_simulation(8, seed=123)
        for ra, rb in zip(a.records, b.records):
            assert ra.fractions == rb.fractions
            assert (ra.interval.lo, ra.interval.hi) == (rb.interval.lo, rb.interval.hi)
        assert a.average_gap == b.average_gap
        assert a.containment_rate == b.containment_rate

    def test_different_seeds_differ(self):
        a = run_simulation(3, seed=1)
        b = run_simulation(3, seed=2)
        assert any(ra.fractions != rb.fractions for ra, rb in zip(a.records, b.records))

    def test_substreams_independent_of_sample_count(self):
        # sample #i is keyed by (seed, i), so shrinking the run must not
        # change earlier samples
        short = run_simulation(3, seed=42)
        long_ = run_simulation(10, seed=42)
        for rs, rl in zip(short.records, long_.records):
            assert rs.fractions == rl.fractions

    @pytest.mark.parametrize("seed", [0, 1, 2**40])
    def test_reseeded_generator_gives_fresh_stream(self, seed):
        # Seeding a used random.Random with an int restarts it on the stream
        # a new random.Random(int) gives, so one generator can serve every
        # sample of a run.
        rng = random.Random()
        for idx in (0, 1, 999):
            s = (seed << 64) | idx
            rng.seed(s)
            fresh = random.Random(s)
            assert generate_sample(rng) == generate_sample(fresh)
            assert rng.getstate() == fresh.getstate()

    def test_records_follow_per_sample_seeds(self):
        # Sample idx of run_simulation(n, seed) is generate_sample on the
        # stream of (seed << 64) | idx.
        summary = run_simulation(4, seed=2**40)
        for idx, rec in enumerate(summary.records):
            assert (rec.fractions, rec.dataset) == generate_sample(rng_for(2**40, idx))


class TestRecordsAndSummary:
    def test_record_derived_fields(self):
        summary = run_simulation(6, seed=9)
        for rec in summary.records:
            assert isinstance(rec, SimulationRecord)
            assert 0.0 <= rec.interval.lo <= rec.interval.hi <= 1.0
            assert rec.gap == pytest.approx(rec.interval.hi - rec.interval.lo, abs=1e-15)
            assert rec.midpoint == pytest.approx((rec.interval.hi + rec.interval.lo) / 2, abs=1e-15)
            assert rec.contained == rec.interval.contains(rec.real_value)

    def test_summary_is_fold_of_records(self):
        summary = run_simulation(12, seed=31)
        assert isinstance(summary, SimulationSummary)
        assert summary.num_samples == 12
        gaps = [r.gap for r in summary.records]
        assert summary.average_gap == pytest.approx(sum(gaps) / 12, abs=1e-15)
        hits = sum(1 for r in summary.records if r.contained)
        assert summary.containment_rate == pytest.approx(hits / 12, abs=1e-15)

    def test_intervals_match_engine_on_stored_dataset(self):
        summary = run_simulation(4, seed=55)
        for rec in summary.records:
            redo = bound(rec.dataset, QUERY).interval
            assert (redo.lo, redo.hi) == (rec.interval.lo, rec.interval.hi)

    def test_single_sample_run(self):
        summary = run_simulation(1, seed=0)
        assert summary.num_samples == 1
        assert len(summary.records) == 1

    def test_sample_count_validated(self):
        with pytest.raises(ValueError):
            run_simulation(0)
        with pytest.raises(ValueError):
            run_simulation(-3)
        with pytest.raises(ValueError):
            run_simulation(1, seed=-1)


class TestCsv:
    def test_layout(self):
        summary = run_simulation(10, seed=4)
        text = export_csv(summary)
        lines = text.strip().split("\n")
        assert len(lines) == 11
        assert lines[0].split(",") == CSV_HEADER
        first = lines[1].split(",")
        assert first[0] == "1"
        assert lines[-1].split(",")[0] == "10"
        assert first[-1] in {"0", "1"}

    def test_values_round_trip(self):
        summary = run_simulation(5, seed=8)
        lines = export_csv(summary).strip().split("\n")[1:]
        for rec, line in zip(summary.records, lines):
            cells = line.split(",")
            assert float(cells[1]) == rec.interval.lo
            assert float(cells[2]) == rec.interval.hi
            assert float(cells[3]) == rec.midpoint
            assert float(cells[4]) == rec.real_value
            assert float(cells[5]) == rec.gap
            assert int(cells[6]) == int(rec.contained)

    def test_write_csv(self, tmp_path):
        summary = run_simulation(3, seed=6)
        out = tmp_path / "sim.csv"
        write_csv(summary, str(out))
        assert out.read_text(encoding="utf-8") == export_csv(summary)

    def test_csv_bytes_pinned(self):
        # Each sample reaches ingest as exact integer counts; any change in
        # the draw, in how the counts are written, or in the engine moves
        # these bytes.
        digest = hashlib.sha256(export_csv(run_simulation(200, seed=0)).encode("utf-8")).hexdigest()
        # The stream is stable: the random module guarantees that random()
        # gives the same sequence for the same int seed across versions.
        assert digest == "b502f584ef04a1b8936e2cda86b0c5526e27715733ab2c9372d20c2fafb29b45", (
            "run_simulation(200, seed=0) CSV changed"
        )

    @pytest.mark.parametrize(
        "num_samples, seed, expected",
        [
            (300, 5, "32ddc5340ed5d03319f6c4b25d41d57e6b687ae3f5719fbe071ad9ff9c0a3e68"),
            (100, 2**40, "2cc8578443717bd2dd8d93ab2260bbb07d74e761498082d6c56643b37fec8f30"),
        ],
    )
    def test_csv_bytes_pinned_other_seeds(self, num_samples, seed, expected):
        # Seeds whose per-sample ints (seed << 64) | idx are large, and one
        # run past the first few hundred samples.
        summary = run_simulation(num_samples, seed=seed)
        digest = hashlib.sha256(export_csv(summary).encode("utf-8")).hexdigest()
        assert digest == expected, f"run_simulation({num_samples}, seed={seed}) CSV changed"
