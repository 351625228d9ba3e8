"""Refcounted shared residency: one segment, safe eviction.

Property under test: for any interleaving of attach/release/retire,
N concurrent readers of one step see exactly one shm segment
(``engine.residency.shared_*`` gauges) and eviction never fires while a
reader holds a ref.
"""

import errno
import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.worker import detach, view
from repro.service import AnalyticsService, JobSpec, SharedStepStore
from repro.telemetry import Recorder
from tests.shm import own_segments, segment_rss_kb


def _store():
    return SharedStepStore(Recorder())


def _data(n=64, seed=0):
    return np.ascontiguousarray(
        np.random.default_rng(seed).normal(size=n))


class TestLeases:
    def test_attach_is_zero_copy_readonly_view(self):
        store = _store()
        data = _data()
        store.register("s", data)
        try:
            with store.attach("s") as lease:
                held = {}  # mapped as a seat maps it, by name
                step = view(held, *lease.segment)
                assert np.array_equal(step, data)
                assert not step.flags.writeable
                with pytest.raises(ValueError):
                    step[0] = 0.0
                del step
                detach(held, [lease.segment[0]])
        finally:
            store.close()

    def test_n_readers_one_segment(self):
        store = _store()
        store.register("s", _data())
        try:
            leases = [store.attach("s") for _ in range(10)]
            tel = store.telemetry
            assert tel.gauge("engine.residency.shared_segments") == 1
            assert tel.gauge("engine.residency.shared_readers") == 10
            assert tel.counter("engine.residency.shared_copies") == 1
            assert tel.counter("engine.residency.shared_attaches") == 10
            # Every lease names the same segment, shape and dtype.
            assert len({lease.segment for lease in leases}) == 1
            for lease in leases:
                lease.release()
            assert tel.gauge("engine.residency.shared_readers") == 0
        finally:
            store.close()

    def test_double_release_is_idempotent(self):
        store = _store()
        store.register("s", _data())
        try:
            lease = store.attach("s")
            lease.release()
            lease.release()
            assert store.readers("s") == 0
        finally:
            store.close()

    def test_duplicate_registration_rejected(self):
        store = _store()
        store.register("s", _data())
        try:
            with pytest.raises(ValueError, match="already resident"):
                store.register("s", _data(seed=1))
        finally:
            store.close()


class TestEviction:
    def test_eviction_deferred_while_reader_holds_ref(self):
        store = _store()
        data = _data()
        store.register("s", data)
        try:
            lease = store.attach("s")
            assert store.retire("s") is False  # deferred, not evicted
            tel = store.telemetry
            assert tel.counter(
                "engine.residency.shared_evict_deferred") == 1
            assert tel.gauge("engine.residency.shared_segments") == 1
            # The live reader's step stays intact after retire().
            held = {}
            assert np.array_equal(view(held, *lease.segment), data)
            detach(held, [lease.segment[0]])
            # A retired step accepts no new readers.
            with pytest.raises(KeyError, match="retired"):
                store.attach("s")
            lease.release()  # last ref out -> eviction fires now
            assert store.resident_steps() == []
            assert tel.gauge("engine.residency.shared_segments") == 0
        finally:
            store.close()

    def test_retire_without_readers_evicts_immediately(self):
        store = _store()
        store.register("s", _data())
        assert store.retire("s") is True
        assert store.resident_steps() == []

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.sampled_from(["attach", "release", "retire"]),
                    min_size=1, max_size=40))
    def test_any_interleaving_never_evicts_under_a_reader(self, ops):
        """Property: across arbitrary op sequences the segment count is
        1 while any reader exists, and eviction only ever happens with
        zero readers (the refcount invariant the assert in
        ``_evict_locked`` enforces)."""
        store = _store()
        store.register("s", _data(n=8))
        leases = []
        retired = False
        try:
            for op in ops:
                if op == "attach":
                    if retired:
                        with pytest.raises(KeyError):
                            store.attach("s")
                    elif store.resident_steps():
                        leases.append(store.attach("s"))
                elif op == "release" and leases:
                    leases.pop().release()
                elif op == "retire" and not retired:
                    evicted = store.retire("s")
                    retired = True
                    assert evicted == (not leases)
                # Invariant: while a reader holds a ref the segment is
                # resident; the gauge never double-counts.
                segments = store.telemetry.gauge(
                    "engine.residency.shared_segments")
                if leases:
                    assert segments == 1
                    assert store.readers("s") == len(leases)
                assert segments in (0, 1)
            for lease in leases:
                lease.release()
            if retired:
                assert store.resident_steps() == []
        finally:
            store.close()

    def test_concurrent_attach_release_keeps_one_segment(self):
        store = _store()
        store.register("s", _data())
        errors = []

        def reader():
            try:
                for _ in range(50):
                    with store.attach("s") as lease:
                        assert lease.segment[1] == (64,)
                        assert store.telemetry.gauge(
                            "engine.residency.shared_segments") == 1
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        try:
            assert not errors
            assert store.telemetry.counter(
                "engine.residency.shared_copies") == 1
            assert store.readers("s") == 0
        finally:
            store.close()


class TestNoMapping:
    """The store writes a step by its file descriptor: the registering
    process never maps the step's pages in, and a failed write (a full
    ``/dev/shm``) raises and leaves nothing resident."""

    def test_register_never_maps_the_step_in(self):
        store = _store()
        try:
            store.register("s", _data(n=1 << 17))
            assert segment_rss_kb(store.segment_names()) == [0]
        finally:
            store.close()

    def test_register_step_never_maps_the_step_in(self):
        svc = AnalyticsService(workers=1)
        try:
            svc.register_step("s", _data(n=1 << 17))
            assert segment_rss_kb(svc.store.segment_names()) == [0]
        finally:
            svc.close()

    def test_a_failed_step_write_leaves_nothing_behind(self, monkeypatch):
        def full(segment, offset, array):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        store, data = _store(), _data()
        before = own_segments()
        try:
            with monkeypatch.context() as patch:
                patch.setattr("repro.service.residency.write_segment", full)
                with pytest.raises(OSError):
                    store.register("s", data)
            tel = store.telemetry
            assert store.resident_steps() == []
            assert own_segments() == before
            assert tel.counter("engine.residency.shared_copies") == 0
            assert tel.gauge("engine.residency.shared_segments") != 1
            store.register("s", data)  # the id was never taken
            with store.attach("s") as lease:
                held = {}
                assert np.array_equal(view(held, *lease.segment), data)
                detach(held, [lease.segment[0]])
        finally:
            store.close()


class TestServiceResidencyIntegration:
    def test_service_jobs_attach_via_leases(self):
        # engine.residency.* gauges observable straight off the service
        # telemetry: one segment, zero readers after drain.
        data = _data(n=512, seed=3)
        with AnalyticsService(workers=2) as svc:
            svc.register_step("s", data)
            handles = [svc.submit(JobSpec(tenant=f"t{i}",
                                          workload="histogram", step="s"))
                       for i in range(4)]
            assert svc.drain(timeout=60)
            for h in handles:
                h.result(timeout=1)
            tel = svc.telemetry
            assert tel.gauge("engine.residency.shared_segments") == 1
            assert tel.gauge("engine.residency.shared_readers") == 0
            assert tel.counter("engine.residency.shared_attaches") == 4
            assert svc.store.hit_rate() == pytest.approx(4 / 5)
