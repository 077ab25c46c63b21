"""Profiler: attribution invariants, critical path, flamegraph export."""

import pytest

from repro.obs import Profile, render_profile, to_collapsed, write_collapsed
from repro.obs.tracer import EventTracer
from repro.service.broker import ServiceConfig, run_trace
from repro.service.loadgen import TrafficSpec, generate_trace


@pytest.fixture(scope="module")
def golden():
    """The same deterministic serve run the golden-trace tests use."""
    tracer = EventTracer()
    trace = generate_trace(TrafficSpec(n_requests=24, seed=11, n_distinct=8))
    broker, tickets = run_trace(
        trace, ServiceConfig(n_service_workers=1), tracer=tracer
    )
    return tracer, broker


class TestTrackInvariants:
    def test_self_plus_children_sums_to_track_total(self, golden):
        """Per track: Σ self over the forest == busy time (root union)."""
        tracer, _broker = golden
        profile = Profile.from_tracer(tracer)
        checked = 0
        for track in profile.tracks:
            if not track.roots:
                continue
            self_sum = sum(node.self_s for node in track.nodes())
            assert self_sum == pytest.approx(track.total_s, rel=1e-9), track.label
            checked += 1
        assert checked >= 5  # dispatch, batches, ranks, gpu, service tracks

    def test_self_time_is_never_negative(self, golden):
        tracer, _broker = golden
        for track in Profile.from_tracer(tracer).tracks:
            for node in track.nodes():
                assert node.self_s >= -1e-9, (track.label, node.name)

    def test_top_down_paths_nest_and_self_non_negative(self, golden):
        tracer, _broker = golden
        rows = Profile.from_tracer(tracer).top_down()
        paths = {path for path, *_ in rows}
        assert "dispatch" in paths
        assert "dispatch;batch;task" in paths
        assert "dispatch;batch;task;compute" in paths
        for path, n, total, self_s in rows:
            assert n > 0
            assert total >= 0.0
            # Union-of-children semantics: a parent's self is wall time
            # not covered by any child, so it can never go negative even
            # though children run concurrently across rank tracks.
            assert self_s >= -1e-9, path


class TestDeviceUsage:
    def test_utilization_and_gaps_partition_the_window(self, golden):
        tracer, _broker = golden
        profile = Profile.from_tracer(tracer)
        devices = profile.device_usage()
        assert devices, "serve trace must contain a gpu track"
        lo, hi = profile.window
        for d in devices:
            assert 0.0 <= d.utilization <= 1.0
            assert d.busy_s + d.idle_s == pytest.approx(hi - lo, rel=1e-6)
            assert d.largest_gap_s <= d.idle_s + 1e-12


class TestCriticalPath:
    def test_path_is_contiguous_and_inside_the_batch(self, golden):
        tracer, _broker = golden
        profile = Profile.from_tracer(tracer)
        batch = profile.batches()[0]
        path = profile.critical_path(batch)
        assert path
        cursor = batch.start
        for _label, node in path:
            assert node.start >= batch.start - 1e-9
            assert node.end <= batch.end + 1e-9
            assert node.start >= cursor - 1e-9  # forward time order
            cursor = node.start
        # The chain reaches the batch end.
        assert path[-1][1].end == pytest.approx(batch.end, abs=1e-9)

    def test_path_covers_most_of_the_makespan(self, golden):
        tracer, _broker = golden
        profile = Profile.from_tracer(tracer)
        batch = profile.batches()[0]
        covered = sum(n.total_s for _l, n in profile.critical_path(batch))
        # Saturated batches are wait-free on the critical chain.
        assert covered >= 0.9 * batch.total_s


class TestRender:
    def test_report_sections_present(self, golden):
        tracer, _broker = golden
        text = render_profile(Profile.from_tracer(tracer))
        assert "trace window" in text
        assert "category path" in text
        assert "device" in text
        assert "critical path" in text

    def test_empty_profile_renders_placeholder(self):
        assert render_profile(Profile.from_tracer(EventTracer())) == (
            "(no spans recorded)"
        )


class TestCollapsed:
    def test_lines_are_speedscope_collapsed_format(self, golden):
        """Each line must parse the way speedscope's importer does:
        rsplit on the last space -> (`;`-joined frames, integer weight)."""
        tracer, _broker = golden
        lines = to_collapsed(tracer)
        assert lines
        for line in lines:
            stack, weight = line.rsplit(" ", 1)
            assert int(weight) > 0  # integer, positive (zero dropped)
            frames = stack.split(";")
            assert len(frames) >= 3  # process;thread;span...
            assert all(frames)

    def test_weights_match_self_times(self, golden):
        tracer, _broker = golden
        lines = to_collapsed(tracer)
        total_weight = sum(int(l.rsplit(" ", 1)[1]) for l in lines)
        profile = Profile.from_tracer(tracer)
        total_self = sum(
            node.self_s for t in profile.tracks for node in t.nodes()
        )
        assert total_weight == pytest.approx(total_self * 1e6, rel=1e-3)

    def test_write_collapsed_round_trips(self, golden, tmp_path):
        tracer, _broker = golden
        path = tmp_path / "profile.collapsed"
        n = write_collapsed(str(path), tracer)
        on_disk = path.read_text().splitlines()
        assert len(on_disk) == n == len(to_collapsed(tracer))

    def test_empty_tracer_collapses_to_nothing(self, tmp_path):
        path = tmp_path / "empty.collapsed"
        assert write_collapsed(str(path), EventTracer()) == 0
        assert path.read_text() == ""


class TestHybridRunnerTrace:
    def test_batch_span_visible_to_the_profiler(self):
        from repro.core.granularity import WorkloadSpec, build_tasks
        from repro.core.hybrid import HybridConfig, HybridRunner

        tasks = build_tasks(WorkloadSpec(n_points=2))
        tracer = EventTracer()
        result = HybridRunner(
            HybridConfig(n_gpus=1, max_queue_length=4), tracer=tracer
        ).run(tasks)
        (batch,) = Profile.from_tracer(tracer).batches()
        assert batch.total_s == pytest.approx(result.makespan_s)
