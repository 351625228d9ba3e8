"""Traffic profiler accounting."""

import threading

import numpy as np
import pytest

from repro.comm import TrafficProfiler, payload_nbytes, spmd_launch
from repro.telemetry import Recorder


class TestPayloadSizing:
    def test_none_is_zero(self):
        assert payload_nbytes(None) == 0

    def test_numpy_buffer_size(self):
        assert payload_nbytes(np.zeros(10, dtype=np.float64)) == 80
        assert payload_nbytes(np.zeros(10, dtype=np.int32)) == 40

    def test_bytes_length(self):
        assert payload_nbytes(b"abcd") == 4

    def test_scalars_are_word_sized(self):
        assert payload_nbytes(3) == 8
        assert payload_nbytes(2.5) == 8

    def test_objects_use_pickle_size(self):
        assert payload_nbytes({"k": [1, 2, 3]}) > 0


class TestUnpicklableFallback:
    @pytest.fixture(autouse=True)
    def _fresh_warning_state(self, monkeypatch):
        from repro.comm import profiler

        monkeypatch.setattr(profiler, "_pickle_fallback_warned", False)

    def test_falls_back_to_getsizeof_with_one_warning(self):
        unpicklable = {"lock": threading.Lock(), "data": [1, 2, 3]}
        with pytest.warns(RuntimeWarning, match="falling back"):
            size = payload_nbytes(unpicklable)
        assert size > 0

    def test_warns_only_once(self):
        with pytest.warns(RuntimeWarning):
            payload_nbytes(threading.Lock())
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            assert payload_nbytes(threading.Lock()) > 0  # no second warning

    def test_record_survives_unpicklable_payload(self):
        prof = TrafficProfiler()
        with pytest.warns(RuntimeWarning):
            prof.record("send", threading.Lock())
        assert prof.calls_for("send") == 1
        assert prof.bytes_for("send") > 0


class TestRecorderBackedProfiler:
    def test_shared_recorder_unifies_accounting(self):
        rec = Recorder()
        prof = TrafficProfiler(recorder=rec)
        prof.record("bcast", nbytes=128)
        assert rec.op("bcast").bytes == 128
        assert prof.snapshot() == {"bcast": (1, 128)}
        assert prof.calls_for("bcast") == rec.op("bcast").calls == 1


class TestCounters:
    def test_record_accumulates(self):
        prof = TrafficProfiler()
        prof.record("send", np.zeros(4))
        prof.record("send", np.zeros(4))
        assert prof.calls_for("send") == 2
        assert prof.bytes_for("send") == 64

    def test_explicit_nbytes(self):
        prof = TrafficProfiler()
        prof.record("bcast", nbytes=1000)
        assert prof.bytes_for("bcast") == 1000

    def test_totals(self):
        prof = TrafficProfiler()
        prof.record("a", nbytes=10)
        prof.record("b", nbytes=30)
        assert prof.total_bytes() == 40
        assert prof.total_calls() == 2

    def test_reset(self):
        prof = TrafficProfiler()
        prof.record("x", nbytes=5)
        prof.reset()
        assert prof.total_calls() == 0

    def test_unknown_op_reads_zero(self):
        prof = TrafficProfiler()
        assert prof.bytes_for("nothing") == 0
        assert prof.calls_for("nothing") == 0


class TestSharedAcrossRanks:
    def test_all_ranks_account_into_one_profiler(self):
        prof = TrafficProfiler()

        def body(comm):
            comm.allgather(np.zeros(8))
            comm.barrier()

        spmd_launch(3, body, profiler=prof, timeout=30)
        assert prof.calls_for("allgather") == 3
        assert prof.bytes_for("allgather") == 3 * 64
        assert prof.calls_for("barrier") == 3
