import math

from pocbounds.model import Interval


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

    def test_iter_unpacks(self):
        lo, hi = Interval(0.25, 0.75)
        assert (lo, hi) == (0.25, 0.75)

    def test_point_interval(self):
        iv = Interval(0.4, 0.4)
        assert iv.width == 0.0
        assert iv.contains(0.4)
