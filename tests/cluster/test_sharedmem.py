"""Shared-memory segment and atomic operations."""

import numpy as np
import pytest

from repro.cluster.sharedmem import SharedArray, SharedSegment


class TestSharedArray:
    def test_starts_zeroed(self):
        arr = SharedArray(4)
        assert list(arr) == [0, 0, 0, 0]

    def test_atomic_add_returns_new_value(self):
        arr = SharedArray(2)
        assert arr.atomic_add(0, 3) == 3
        assert arr.atomic_add(0, -1) == 2
        assert arr[0] == 2
        assert arr[1] == 0

    def test_cas_success_and_failure(self):
        arr = SharedArray(1)
        assert arr.atomic_cas(0, 0, 5)
        assert arr[0] == 5
        assert not arr.atomic_cas(0, 0, 9)
        assert arr[0] == 5

    def test_snapshot_is_copy(self):
        arr = SharedArray(2)
        snap = arr.snapshot()
        arr.atomic_add(0, 1)
        assert snap[0] == 0

    def test_snapshot_is_an_independent_int64_array(self):
        arr = SharedArray(3)
        arr.atomic_add(2, 10**12)
        snap = arr.snapshot()
        assert isinstance(snap, np.ndarray)
        assert snap.dtype == np.int64 and snap.shape == (3,)
        snap[0] = 99
        assert arr[0] == 0 and arr.snapshot()[2] == 10**12

    def test_reads_are_python_ints_whatever_was_written(self):
        arr = SharedArray(3)
        arr.atomic_add(0, np.int64(5))
        arr.store(1, np.int64(6))
        arr.atomic_cas(2, 0, np.int64(7))
        reads = [arr[0], arr[1], arr[2], *arr, arr.atomic_add(0, 1)]
        assert reads == [5, 6, 7, 5, 6, 7, 6]
        assert all(type(v) is int for v in reads)

    def test_non_integer_writes_rejected(self):
        arr = SharedArray(1)
        with pytest.raises(TypeError):
            arr.atomic_add(0, 0.5)
        with pytest.raises(TypeError):
            arr.store(0, 1.0)
        assert arr[0] == 0

    def test_store(self):
        arr = SharedArray(2)
        arr.store(1, 42)
        assert arr[1] == 42

    def test_size_validation(self):
        with pytest.raises(ValueError):
            SharedArray(0)


class TestSharedSegment:
    def test_layout(self):
        seg = SharedSegment(3)
        load, history = seg.attach()
        assert len(load) == 3
        assert len(history) == 3
        assert load is seg.load

    def test_total_load(self):
        seg = SharedSegment(3)
        seg.load.atomic_add(0, 2)
        seg.load.atomic_add(2, 1)
        assert seg.total_load() == 3

    def test_zero_devices_allowed(self):
        seg = SharedSegment(0)
        assert seg.total_load() == 0

    def test_validate_detects_negative_load(self):
        seg = SharedSegment(2)
        seg.load.store(0, -1)
        with pytest.raises(ValueError):
            seg.validate(max_queue_length=4)

    def test_validate_detects_overfull_queue(self):
        seg = SharedSegment(2)
        seg.load.store(1, 5)
        with pytest.raises(ValueError):
            seg.validate(max_queue_length=4)

    def test_validate_detects_negative_history(self):
        seg = SharedSegment(1)
        seg.history.store(0, -2)
        with pytest.raises(ValueError):
            seg.validate(max_queue_length=4)

    def test_validate_passes_on_sane_state(self):
        seg = SharedSegment(2)
        seg.load.atomic_add(0, 3)
        seg.history.atomic_add(0, 10)
        seg.validate(max_queue_length=4)
