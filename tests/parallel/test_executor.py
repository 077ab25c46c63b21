"""Execution backends: the map-order contract of the broker's payload map."""

import os
import subprocess
import sys

import pytest

from repro.parallel.executor import (
    BACKENDS,
    ThreadBackend,
    default_jobs,
    get_backend,
    usable_cpus,
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


class TestUsableCpus:
    def test_counts_the_affinity_mask_not_the_machine(self):
        assert 1 <= usable_cpus() <= (os.cpu_count() or 1)
        assert default_jobs() == usable_cpus()

    @pytest.mark.skipif(
        not hasattr(os, "sched_setaffinity"), reason="no affinity masks here"
    )
    def test_pinned_process_gets_one_job(self):
        # In a subprocess: the mask is process state the suite shares.
        script = (
            "import os;"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))});"
            "from repro.parallel import ThreadBackend, default_jobs, usable_cpus;"
            "print(usable_cpus(), default_jobs(), ThreadBackend().jobs)"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, timeout=60,
        )
        assert done.stdout.split() == ["1", "1", "1"], done.stderr

    def test_falls_back_to_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert usable_cpus() == (os.cpu_count() or 1)


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
