"""Tests for the util substrate (the stats container)."""

from repro.util.stats import StatsBag


class TestStatsBag:
    def test_incr_and_get(self):
        bag = StatsBag()
        bag.incr("checks")
        bag.incr("checks", 4)
        assert bag.get("checks") == 5
        assert bag.get("missing") == 0
        assert bag.get("missing", 7) == 7

    def test_set_overwrites(self):
        bag = StatsBag()
        bag.set("size", 10)
        bag.set("size", 3)
        assert bag.get("size") == 3

    def test_max_keeps_peak(self):
        bag = StatsBag()
        bag.max("peak", 5)
        bag.max("peak", 2)
        bag.max("peak", 9)
        assert bag.get("peak") == 9

    def test_contains_and_iter_sorted(self):
        bag = StatsBag()
        bag.set("b", 2)
        bag.set("a", 1)
        assert "a" in bag
        assert "z" not in bag
        assert [key for key, _ in bag] == ["a", "b"]

    def test_merge_adds(self):
        left = StatsBag()
        left.incr("x", 2)
        right = StatsBag()
        right.incr("x", 3)
        right.incr("y", 1)
        left.merge(right)
        assert left.get("x") == 5
        assert left.get("y") == 1

    def test_merge_keeps_gauge_peaks(self):
        # Regression: merging used to *add* peak_size-style gauges,
        # reporting peaks nobody ever saw.
        left = StatsBag()
        left.max("peak_size", 10)
        left.set("size_after", 7)
        right = StatsBag()
        right.max("peak_size", 6)
        right.set("size_after", 9)
        left.merge(right)
        assert left.get("peak_size") == 10
        assert left.get("size_after") == 9

    def test_merge_gauge_on_either_side_wins(self):
        # A key that is a gauge in one bag stays a gauge after merging.
        left = StatsBag()
        left.incr("depth", 3)
        right = StatsBag()
        right.set("depth", 2)
        left.merge(right)
        assert left.get("depth") == 3
        assert left.is_gauge("depth")

    def test_gauge_tracking(self):
        bag = StatsBag()
        bag.incr("checks")
        bag.set("size", 5)
        bag.max("peak", 7)
        assert not bag.is_gauge("checks")
        assert bag.is_gauge("size")
        assert bag.gauge_keys() == {"size", "peak"}

    def test_as_dict_copy(self):
        bag = StatsBag()
        bag.set("k", 1)
        snapshot = bag.as_dict()
        snapshot["k"] = 99
        assert bag.get("k") == 1

    def test_report_format(self):
        bag = StatsBag()
        bag.set("alpha", 3)
        assert "alpha" in bag.report()
        assert "3" in bag.report()

    def test_incr_reclassifies_gauge_as_counter(self):
        # Regression: incr on a key previously written with set/max used
        # to leave it a gauge silently, so merges took the maximum of
        # values the caller meant to sum.
        bag = StatsBag()
        bag.set("calls", 10)
        bag.incr("calls", 2)
        assert not bag.is_gauge("calls")
        other = StatsBag()
        other.incr("calls", 5)
        bag.merge(other)
        assert bag.get("calls") == 17  # summed, not max(12, 5)

    def test_incr_after_max_reclassifies_too(self):
        bag = StatsBag()
        bag.max("hits", 4)
        bag.incr("hits")
        assert not bag.is_gauge("hits")
        assert bag.gauge_keys() == set()

    def test_set_after_incr_reclassifies_as_gauge(self):
        # Last write wins the classification in both directions.
        bag = StatsBag()
        bag.incr("depth", 3)
        bag.set("depth", 2)
        assert bag.is_gauge("depth")

    def test_to_dict_round_trips_scalars(self):
        bag = StatsBag()
        bag.incr("calls", 3)
        bag.set("peak", 7)
        payload = bag.to_dict()
        assert payload == {"values": {"calls": 3, "peak": 7},
                           "gauges": ["peak"]}
        restored = StatsBag.from_dict(payload)
        assert restored.as_dict() == bag.as_dict()
        assert restored.gauge_keys() == {"peak"}
