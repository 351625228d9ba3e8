"""Refcounted shared residency: one segment, safe eviction.

Property under test: for any interleaving of attach/release/retire,
N concurrent readers of one step see exactly one shm segment
(``engine.residency.shared_*`` gauges) and eviction never fires while a
reader holds a ref.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import AnalyticsService, JobSpec, SharedStepStore
from repro.telemetry import Recorder


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
                assert np.array_equal(lease.data, data)
                assert not lease.data.flags.writeable
                with pytest.raises(ValueError):
                    lease.data[0] = 0.0
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
            # All views alias one buffer.
            base = leases[0].data.__array_interface__["data"][0]
            assert all(
                lease.data.__array_interface__["data"][0] == base
                for lease in leases)
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
        store.register("s", _data())
        try:
            lease = store.attach("s")
            assert store.retire("s") is False  # deferred, not evicted
            tel = store.telemetry
            assert tel.counter(
                "engine.residency.shared_evict_deferred") == 1
            assert tel.gauge("engine.residency.shared_segments") == 1
            # The live reader's view stays intact after retire().
            assert lease.data.sum() == lease.data.sum()
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
                        assert lease.data.shape == (64,)
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
