"""The shared-memory segment: five plain counter lists and their checks."""

import pytest

from repro.cluster.sharedmem import SharedSegment


class TestSharedSegment:
    def test_layout(self):
        seg = SharedSegment(3)
        load, history = seg.attach()
        assert len(load) == 3
        assert len(history) == 3
        assert load is seg.load
        for counters in (seg.load, seg.history, seg.backlog, seg.steals, seg.donations):
            assert counters == [0, 0, 0]

    def test_total_load(self):
        seg = SharedSegment(3)
        seg.load[0] += 2
        seg.load[2] += 1
        assert seg.total_load() == 3

    def test_zero_devices_allowed(self):
        seg = SharedSegment(0)
        assert seg.total_load() == 0

    def test_validate_detects_negative_load(self):
        seg = SharedSegment(2)
        seg.load[0] = -1
        with pytest.raises(ValueError):
            seg.validate(max_queue_length=4)

    def test_validate_detects_overfull_queue(self):
        seg = SharedSegment(2)
        seg.load[1] = 5
        with pytest.raises(ValueError):
            seg.validate(max_queue_length=4)

    def test_validate_detects_negative_history(self):
        seg = SharedSegment(1)
        seg.history[0] = -2
        with pytest.raises(ValueError):
            seg.validate(max_queue_length=4)

    def test_validate_passes_on_sane_state(self):
        seg = SharedSegment(2)
        seg.load[0] += 3
        seg.history[0] += 10
        seg.validate(max_queue_length=4)
