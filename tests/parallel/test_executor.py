"""Execution backends: the map-order contract of the broker's payload map."""

import pytest

from repro.parallel.executor import (
    BACKENDS,
    ThreadBackend,
    default_jobs,
    get_backend,
)


def _square(x: int) -> int:
    return x * x


class TestGetBackend:
    def test_names(self):
        assert BACKENDS == ("serial", "thread")
        assert get_backend("serial").name == "serial"
        assert get_backend("thread", 2).name == "thread"

    def test_unknown_backend_raises(self):
        for name in ("mpi", "process"):
            with pytest.raises(ValueError, match="unknown backend"):
                get_backend(name)

    def test_bad_jobs_raises(self):
        with pytest.raises(ValueError, match="jobs"):
            ThreadBackend(0)

    def test_default_jobs_positive(self):
        assert default_jobs() >= 1
        assert get_backend("thread").jobs == default_jobs()
        assert get_backend("serial").jobs == 1


class TestMapOrder:
    @pytest.mark.parametrize("name", BACKENDS)
    def test_results_in_submission_order(self, name):
        with get_backend(name, 2) as backend:
            assert backend.map(_square, list(range(17))) == [
                i * i for i in range(17)
            ]

    def test_close_is_idempotent_and_reusable(self):
        backend = ThreadBackend(2)
        assert backend.map(_square, [3]) == [9]
        backend.close()
        backend.close()
        # A closed backend lazily re-creates its pool on next use.
        assert backend.map(_square, [4]) == [16]
        backend.close()
