import math

import pytest

from pocbounds.frechet import InfeasibleInterval, Interval, make_interval


class TestInterval:
    def test_width_and_midpoint(self):
        iv = Interval(0.2, 0.5)
        assert math.isclose(iv.width, 0.3)
        assert math.isclose(iv.midpoint, 0.35)

    def test_contains_with_tolerance(self):
        iv = Interval(0.2, 0.5)
        assert iv.contains(0.2)
        assert iv.contains(0.5)
        assert iv.contains(0.2 - 1e-12)
        assert not iv.contains(0.19)
        assert not iv.contains(0.51)

    def test_contains_interval(self):
        outer = Interval(0.1, 0.9)
        assert outer.contains_interval(Interval(0.1, 0.9))
        assert outer.contains_interval(Interval(0.2, 0.8))
        assert not outer.contains_interval(Interval(0.0, 0.5))
        assert not outer.contains_interval(Interval(0.5, 0.95))

    def test_iter_unpacks(self):
        lo, hi = Interval(0.25, 0.75)
        assert (lo, hi) == (0.25, 0.75)

    def test_point_interval(self):
        iv = Interval(0.4, 0.4)
        assert iv.width == 0.0
        assert iv.contains(0.4)

    def test_scaled_by_divides_both_ends(self):
        iv = Interval(0.1, 0.3).scaled_by(0.5)
        assert math.isclose(iv.lo, 0.2)
        assert math.isclose(iv.hi, 0.6)

    def test_scaled_by_clamps_to_one(self):
        iv = Interval(0.2, 0.9).scaled_by(0.5)
        assert iv.hi == 1.0
        assert math.isclose(iv.lo, 0.4)


class TestMakeInterval:
    def test_clamps_into_unit_range(self):
        iv = make_interval(-0.25, 1.3)
        assert iv == Interval(0.0, 1.0)

    def test_orders_noise_crossing(self):
        iv = make_interval(0.5 + 1e-12, 0.5 - 1e-12)
        assert iv.lo <= iv.hi

    def test_raises_on_real_crossing(self):
        with pytest.raises(InfeasibleInterval) as exc:
            make_interval(0.6, 0.4, "lower arm", "upper arm")
        assert "lower arm" in str(exc.value)
        assert "upper arm" in str(exc.value)

    def test_exact_endpoints_preserved(self):
        iv = make_interval(0.125, 0.625)
        assert iv == Interval(0.125, 0.625)
