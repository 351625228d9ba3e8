"""Recorder unit tests: counters, timers, ops, reset, snapshot shape; and the
names the one-recorder design removed."""

import pickle
import threading

import pytest

from repro.telemetry import OpStats, Recorder, TimerStats


class TestCounters:
    def test_inc_accumulates_and_returns_total(self):
        rec = Recorder()
        assert rec.inc("a") == 1
        assert rec.inc("a", 4) == 5
        assert rec.counter("a") == 5

    def test_missing_counter_reads_default(self):
        rec = Recorder()
        assert rec.counter("missing") == 0
        assert rec.counter("missing", default=-1) == -1

    def test_set_counter_overwrites(self):
        rec = Recorder()
        rec.inc("a", 10)
        rec.set_counter("a", 3)
        assert rec.counter("a") == 3

    def test_observe_max_is_high_water_mark(self):
        rec = Recorder()
        rec.observe_max("peak", 5)
        rec.observe_max("peak", 2)
        assert rec.counter("peak") == 5
        rec.observe_max("peak", 9)
        assert rec.counter("peak") == 9

    def test_merge_counters_adds_snapshots(self):
        rec = Recorder()
        rec.inc("run.chunks", 3)
        rec.merge_counters({"run.chunks": 4, "run.other": 1})
        assert rec.counter("run.chunks") == 7
        assert rec.counter("run.other") == 1

    def test_inc_is_thread_safe(self):
        rec = Recorder()

        def bump():
            for _ in range(1000):
                rec.inc("n")

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert rec.counter("n") == 4000


class TestTimers:
    def test_add_time_tracks_calls_total_and_max(self):
        rec = Recorder()
        rec.add_time("t", 0.5)
        rec.add_time("t", 1.5)
        timer = rec.timer("t")
        assert timer.calls == 2
        assert timer.seconds == pytest.approx(2.0)
        assert timer.max_seconds == pytest.approx(1.5)

    def test_span_records_elapsed_time(self):
        rec = Recorder()
        with rec.span("s"):
            pass
        timer = rec.timer("s")
        assert timer.calls == 1
        assert timer.seconds >= 0.0

    def test_span_records_even_on_exception(self):
        rec = Recorder()
        with pytest.raises(RuntimeError):
            with rec.span("s"):
                raise RuntimeError("boom")
        assert rec.timer("s").calls == 1

    def test_timer_returns_copy(self):
        rec = Recorder()
        rec.add_time("t", 1.0)
        rec.timer("t").add(99.0)  # mutating the copy must not leak back
        assert rec.timer("t").calls == 1
        assert rec.timer("missing") == TimerStats()


class TestOps:
    def test_record_op_tallies_calls_and_bytes(self):
        rec = Recorder()
        rec.record_op("bcast", 100)
        rec.record_op("bcast", 50)
        rec.record_op("gather", 8)
        assert rec.op("bcast") == OpStats(calls=2, bytes=150)
        assert rec.op("gather") == OpStats(calls=1, bytes=8)
        assert sorted(rec.op_names()) == ["bcast", "gather"]

    def test_missing_op_reads_zeros(self):
        rec = Recorder()
        assert rec.op("missing") == OpStats()


class TestResetAndSnapshot:
    def _populated(self):
        rec = Recorder()
        rec.inc("run.chunks", 7)
        rec.inc("engine.splits", 2)
        rec.add_time("run.seconds", 0.25)
        rec.add_time("engine.split_seconds", 0.5)
        rec.record_op("send", 64)
        return rec

    def test_full_reset_clears_everything(self):
        rec = self._populated()
        rec.reset()
        snap = rec.snapshot()
        assert snap == {"counters": {}, "timers": {}, "ops": {}, "gauges": {}}

    def test_prefixed_reset_clears_only_matching_names(self):
        rec = self._populated()
        rec.reset(prefix="run.")
        assert rec.counter("run.chunks") == 0
        assert rec.timer("run.seconds").calls == 0
        assert rec.counter("engine.splits") == 2
        assert rec.timer("engine.split_seconds").calls == 1
        assert rec.op("send").bytes == 64

    def test_snapshot_structure(self):
        snap = self._populated().snapshot()
        assert snap["counters"]["run.chunks"] == 7
        assert snap["timers"]["run.seconds"]["calls"] == 1
        assert snap["timers"]["run.seconds"]["seconds"] == pytest.approx(0.25)
        assert snap["timers"]["run.seconds"]["max_seconds"] == pytest.approx(0.25)
        assert snap["ops"]["send"] == {"calls": 1, "bytes": 64}

    def test_snapshot_is_detached_copy(self):
        rec = self._populated()
        snap = rec.snapshot()
        snap["counters"]["run.chunks"] = 999
        assert rec.counter("run.chunks") == 7

    def test_recorder_is_not_picklable(self):
        # The process engine must ship snapshots, never the recorder.
        with pytest.raises(TypeError):
            pickle.dumps(Recorder())


class TestScopedRecorder:
    """A scope is a dotted name prefix on the one recorder, written and read in full."""

    def test_writes_land_in_parent_under_prefix(self):
        root = Recorder()
        scope = "service.tenant.a.job.1."
        root.inc(scope + "run.chunks", 3)
        root.add_time(scope + "engine_seconds", 0.5)
        root.set_gauge(scope + "depth", 2)
        root.record_op(scope + "send", 64)
        root.inc("service.tenant.a.job.2.run.chunks", 9)
        assert root.counters(scope) == {"service.tenant.a.job.1.run.chunks": 3}
        assert root.timer("service.tenant.a.job.1.engine_seconds").calls == 1
        assert root.gauge("service.tenant.a.job.1.depth") == 2
        assert root.op("service.tenant.a.job.1.send").bytes == 64

    def test_counters_prefix_collision_regression(self):
        # Regression: two jobs sharing one Recorder with bare prefixes
        # "job.1" and "job.11" collide under a bare-prefix counters()
        # query — a dot-terminated prefix does not.
        root = Recorder()
        root.inc("job.1.run.chunks", 5)
        root.inc("job.11.run.chunks", 7)
        # The bare prefix exhibits the old collision...
        assert "job.11.run.chunks" in root.counters("job.1")
        # ...the dot-terminated reads do not bleed into each other.
        assert root.counters("job.1.") == {"job.1.run.chunks": 5}
        assert root.counters("job.11.") == {"job.11.run.chunks": 7}

    def test_sibling_tenant_scopes_do_not_collide(self):
        root = Recorder()
        root.inc("service.tenant.a.completed")
        root.inc("service.tenant.ab.completed", 4)
        assert root.counters("service.tenant.a.") == {"service.tenant.a.completed": 1}
        assert root.counters("service.tenant.ab.") == {"service.tenant.ab.completed": 4}
        root.reset("service.tenant.a.")
        assert root.counters("service.tenant.a.") == {}
        assert root.counter("service.tenant.ab.completed") == 4


@pytest.mark.parametrize("statement,error", [
    ("from repro.core import RunStats", ImportError),
    ("from repro.core.scheduler import RunStats", ImportError),
    ("from repro.telemetry import ScopedRecorder", ImportError),
    ("Recorder.scoped", AttributeError),
    ("Scheduler(ExecutionPolicy()).stats", AttributeError),
    ("Scheduler.use_telemetry", AttributeError),
    ("AnalyticsService.tenant_scope", AttributeError),
    ("TrafficProfiler().stats", AttributeError),
])
def test_removed_names_stay_removed(statement, error):
    # One recorder, read by full name: no scoped view, no stats facade.
    from repro.comm import TrafficProfiler  # noqa: F401
    from repro.core import ExecutionPolicy, Scheduler  # noqa: F401
    from repro.service import AnalyticsService  # noqa: F401

    with pytest.raises(error):
        exec(statement)
