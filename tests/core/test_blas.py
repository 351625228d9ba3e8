"""Every owned worker process runs its BLAS calls on one thread.

A forked process inherits OpenBLAS's thread count from its parent; the
owned-worker runtime sets it to one in every process it starts: the
process-engine workers, the service's seat processes and the elastic
staging workers.  Each test raises
this process's count to two first, so a worker that skipped the call
would report two.  The process engine's calling thread, thread 0 of
its team, runs on one BLAS thread for the run and gets its two back.
"""

import os

import numpy as np
import pytest

from repro.analytics import Histogram
from repro.core import ElasticTier, EnginePolicy, ExecutionPolicy, blas
from repro.core import worker as runtime
from repro.service import AnalyticsService, JobSpec

pytestmark = pytest.mark.skipif(
    blas.blas_threads() is None, reason="numpy is not linked to an OpenBLAS")


@pytest.fixture
def reports(tmp_path, monkeypatch):
    """The BLAS thread counts that workers started under this fixture
    read right after pinning, one file per worker pid."""

    def pin_and_report():
        blas.one_blas_thread()
        (tmp_path / str(os.getpid())).write_text(str(blas.blas_threads()))

    monkeypatch.setattr(runtime, "one_blas_thread", pin_and_report)
    set_threads = blas._openblas()[0]
    before = blas.blas_threads()
    set_threads(2)
    try:
        yield lambda: sorted(int(p.read_text()) for p in tmp_path.iterdir())
    finally:
        set_threads(before)


def histogram(backend="serial", threads=1):
    policy = ExecutionPolicy(engine=EnginePolicy(backend=backend, num_threads=threads))
    return Histogram(policy, None, lo=-4.0, hi=4.0, num_buckets=8)


def test_process_engine_workers(reports):
    with histogram("process", 3) as app:  # the driver and two workers
        app.run(np.linspace(-3.0, 3.0, 1000))
    assert reports() == [1, 1]
    assert blas.blas_threads() == 2  # the parent keeps its own pool


class SeesBlas(Histogram):
    """Records the BLAS thread count its batch kernel runs under, in the
    process it runs in."""

    seen: list = []

    def batch_reduce(self, data, start, stop, acc):
        self.seen.append(blas.blas_threads())
        super().batch_reduce(data, start, stop, acc)


def test_process_engine_thread_0(reports):
    policy = ExecutionPolicy(engine=EnginePolicy(backend="process", num_threads=3))
    with SeesBlas(policy, None, lo=-4.0, hi=4.0, num_buckets=8) as app:
        SeesBlas.seen.clear()
        app.run(np.linspace(-3.0, 3.0, 1000))
        assert SeesBlas.seen == [1]  # thread 0's split; the workers' splits are theirs
        assert blas.blas_threads() == 2  # back once the run is over
    assert reports() == [1, 1]


def test_service_seat_processes(reports):
    with AnalyticsService(workers=2) as svc:
        svc.register_step("s", np.linspace(-3.0, 3.0, 1000))
        handles = [svc.submit(JobSpec(tenant="a", workload="histogram", step="s"))
                   for _ in range(2)]
        for handle in handles:
            handle.result(timeout=60)
    assert reports() == [1, 1]


def test_elastic_staging_workers(reports):
    with ElasticTier(histogram, 1) as tier:
        tier.submit(np.linspace(-3.0, 3.0, 1000))
        tier.drain()
    assert reports() == [1]
