"""A default (``policy=None``) service job stays on columns.

Its batch kernel's rows are folded, combined, converted and read back as
arrays.  With ``PackedMap.objects`` rigged to fail, a job of each of the
four ``service_mixed`` workloads still completes, through the warm seat
and the solo ``execute_workload`` path alike.  It returns what reading
the same run's map object by object returns.  Its counters are the
``run.*`` counters of the scheduler's telemetry snapshot, without the
snapshot's end-of-run ``run.state_*`` gauges.
"""

import numpy as np
import pytest

from repro.core.serialization import PackedMap
from repro.service import execute_workload, job_policy
from repro.service.service import _Seat
from repro.verify.workloads import get_workload

MIX = ("histogram", "minmax", "grid_aggregation", "moving_average")
DATA = np.random.default_rng(26).normal(size=8192)


def via_objects(name, app, out):
    """The workload's result, read one reduction object per key."""
    items = app.combination_map_.sorted_items()
    if name == "histogram":
        counts = np.zeros(app.num_buckets, dtype=np.int64)
        for key, obj in items:
            counts[key] = obj.count
        return {"counts": counts}
    if name == "minmax":
        ((_, obj),) = items
        return {"range": np.array([obj.lo, obj.hi], dtype=np.float64)}
    if name == "grid_aggregation":
        return {
            "keys": np.array([k for k, _ in items], dtype=np.int64),
            "totals": np.array([o.total for _, o in items], dtype=np.float64),
            "counts": np.array([o.count for _, o in items], dtype=np.int64),
        }
    return {"out": out.copy()}


def reference(name):
    """(result read through objects, the snapshot's ``run.*`` counters
    bar the ``run.state_*`` gauges) of one solo run."""
    w = get_workload(name)
    with w.build(job_policy(w, None, DATA), None) as app:
        out = None
        if w.multi_key:
            out = np.full(w.output_length(len(DATA)), np.nan)
            app.run2(DATA, out)
        else:
            app.run(DATA)
        counters = app.telemetry_snapshot()["counters"]
        result = via_objects(name, app, out)
    run = {k: v for k, v in counters.items()
           if k.startswith("run.") and not k.startswith("run.state_")}
    return result, run


@pytest.mark.parametrize("name", MIX)
def test_default_job_builds_no_objects(name, monkeypatch):
    want, want_run = reference(name)
    monkeypatch.setattr(PackedMap, "objects",
                        lambda self: pytest.fail("materialised objects"))
    w = get_workload(name)
    policy = job_policy(w, None, DATA)
    seat = _Seat(w, policy)
    try:
        jobs = [execute_workload(w, policy, DATA), seat.run(DATA), seat.run(DATA)]
    finally:
        seat.app.close()
    for result, counters in jobs:
        assert set(result) == set(want)
        for field, expected in want.items():
            assert result[field].dtype == expected.dtype, field
            assert np.array_equal(result[field], expected, equal_nan=True), field
        assert {k: v for k, v in counters.items() if k.startswith("run.")} == want_run
    if w.multi_key:
        assert want_run["run.early_emissions"] > 0
