"""``usable_cpus``: the CPU count the rank pool sizes itself by."""

import os
import subprocess
import sys

import pytest

from repro.parallel.executor import usable_cpus


class TestUsableCpus:
    def test_counts_the_affinity_mask_not_the_machine(self):
        assert 1 <= usable_cpus() <= (os.cpu_count() or 1)

    @pytest.mark.skipif(
        not hasattr(os, "sched_setaffinity"), reason="no affinity masks here"
    )
    def test_pinned_process_gets_one_job(self):
        # In a subprocess: the mask is process state the suite shares.
        script = (
            "import os;"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))});"
            "from repro.parallel import usable_cpus;"
            "print(usable_cpus())"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, timeout=60,
        )
        assert done.stdout.split() == ["1"], done.stderr

    def test_falls_back_to_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert usable_cpus() == (os.cpu_count() or 1)
