"""What a cold start and a forked worker load.

* The runtime imports numpy only: scipy stays a test and calibration
  dependency.  A fresh interpreter refuses every ``scipy`` import (the
  refusal is inherited by the forked service seats), imports the
  runtime's public entry points, builds every registry workload, runs
  the Savitzky-Golay filter in-process and through a service seat, and
  then finds no ``scipy`` module loaded.
* A start-up loads only what its journey runs: the benchmark's imports
  leave the test kit, the baselines, the harness, the model and the
  analytics nobody asked for unloaded, while every package still
  exports the same names, each on first use.
* A forked worker (service seat, engine worker, staging worker) imports
  no ``repro`` module after the fork: its ``sys.modules`` when it stops
  serving holds no ``repro`` module it did not start with.
"""

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

SCRIPT = textwrap.dedent("""
    import sys


    class RefuseScipy:
        def find_spec(self, name, path=None, target=None):
            if name == "scipy" or name.startswith("scipy."):
                raise ImportError(f"the runtime imported {name}")
            return None


    sys.meta_path.insert(0, RefuseScipy())

    import numpy as np

    import repro
    import repro.harness.conform
    import repro.service
    import repro.verify.workloads
    from repro.analytics import SavitzkyGolay
    from repro.core import ExecutionPolicy
    from repro.service import AnalyticsService, JobSpec, job_policy
    from repro.verify.workloads import get_workload, workload_names

    for name in workload_names():
        w = get_workload(name)
        data = w.make_data(seed=0)
        with w.build(job_policy(w, None, data), None):
            pass

    data = np.random.default_rng(0).normal(size=64)
    out = np.full(64, np.nan)
    SavitzkyGolay(ExecutionPolicy(), win_size=7, polyorder=2).run2(data, out)
    assert np.isfinite(out).all()

    with AnalyticsService(workers=1) as svc:
        svc.register_step("s", data)
        result = svc.submit(JobSpec(tenant="t", workload="savgol", step="s"))
        assert np.isfinite(result.result(timeout=60)["out"]).all()

    loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
    assert not loaded, loaded
    print("ok")
""")


def test_runtime_never_imports_scipy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def run_fresh(script: str, *args: str) -> str:
    """``script``'s stdout, run in a fresh interpreter on ``src/``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


#: Modules (a trailing ``.`` also covers the package's submodules) that a
#: start-up which runs none of them must not load.
UNUSED = (
    "repro.verify.oracle", "repro.verify.matrix", "repro.verify.fuzz",
    "repro.verify.properties",
    "repro.baselines.", "repro.harness.", "repro.perfmodel.",
    "repro.sim.lulesh", "repro.sim.emulator",
    "repro.core.checkpoint", "repro.core.space_sharing",
    "repro.analytics.logistic_regression", "repro.analytics.mutual_information",
    "repro.analytics.kernel_density", "repro.analytics.structured",
    "repro.analytics.savgol", "repro.analytics.moving_median",
)


def _unused(module: str) -> bool:
    return any(module == name.rstrip(".") or (name.endswith(".") and module.startswith(name))
               for name in UNUSED)


def test_a_start_up_loads_only_what_it_runs():
    # Exactly the `repro` imports of the benchmark's workloads module.
    tree = ast.parse((ROOT / "benchmarks" / "e2e" / "workloads.py").read_text())
    imports = [ast.unparse(node) for node in tree.body if isinstance(node, ast.ImportFrom)
               and (node.module or "").split(".")[0] == "repro"]
    assert len(imports) >= 5, imports
    script = "\n".join(["import json, sys", *imports, "print(json.dumps(sorted(sys.modules)))"])
    loaded = json.loads(run_fresh(script))
    assert "repro.service.service" in loaded and "repro.core.scheduler" in loaded
    assert [m for m in loaded if _unused(m)] == []


#: Every package's public names (``__all__``), as they stood before the
#: packages exported them lazily; ``repro.comm`` without the MPI calls the
#: runtime never makes (nonblocking requests, sub-communicators, unused ops),
#: ``repro.core`` and ``repro.verify`` without the launch-policy advisor,
#: ``repro.core`` without the pipeline object, and ``repro.service`` without
#: the admission controller its queue absorbed.
PUBLIC = {
    "repro": (
        "__version__ analytics baselines comm core faults sim telemetry "
    ),
    "repro.analytics": (
        "ClusterObj CountObj GaussianKernelSmoother GradientObj GridAggregation Histogram "
        "HoldAllObj KMeans LogisticRegression MinMax MinMaxObj MovingAverage MovingAverage3D "
        "MovingMedian MutualInformation SavGolObj SavitzkyGolay SumCountObj TileAggregation3D "
        "ValueGridKDE WeightedWindowObj WindowScheduler WindowSumObj make_blobs "
        "make_logreg_samples mutual_information_from_counts reference_gaussian_smoother "
        "reference_grid_aggregation reference_histogram reference_kmeans reference_logreg "
        "reference_moving_average reference_moving_average_3d reference_moving_median "
        "reference_mutual_information reference_savgol reference_tile_aggregation_3d "
        "reference_value_grid_kde sliding_window_apply window_bounds window_coverage "
    ),
    "repro.baselines": (
        "OfflineDriver OfflineResult lowlevel_histogram lowlevel_kmeans lowlevel_logreg "
        "lowlevel_mutual_information "
    ),
    "repro.comm": (
        "CommAborted CommError CommTimeoutError Communicator FrameCorruptionError "
        "InterleaveSchedule InvalidRankError LocalComm ProcessComm RankMismatchError "
        "ReduceOp SUM SimCluster SimComm SpmdError TrafficProfiler as_reduce_op "
        "payload_nbytes spmd_launch supervised_launch "
    ),
    "repro.core": (
        "BufferClosed COMBINE_ALGORITHMS CheckpointError Chunk CircularBuffer "
        "ColumnarAccumulator CombinePolicy CoreSplit ENGINE_BACKENDS ElasticTier EnginePolicy "
        "ExecutionEngine ExecutionPolicy Field KeyedMap MAP_PATHS PackedMap "
        "ProcessEngine RedObj Scheduler SerialEngine "
        "SpaceSharingDriver SpaceSharingResult Split StagingWorkerError StepTiming "
        "ThreadEngine TimeSharingDriver TimeSharingResult WIRE_FORMATS WIRE_VERSION "
        "create_engine deserialize_map ensure_red_obj global_combine iter_blocks "
        "load_checkpoint make_splits merge_distributed_output pack_map save_checkpoint "
        "serialize_map "
    ),
    "repro.service": (
        "AdmissionError AnalyticsService BudgetExhaustedError "
        "DeficitRoundRobin JobHandle JobSpec QueueFullError QuotaExceededError SeatLostError "
        "ServiceClosedError SharedStepStore StepLease TenantQuota execute_workload job_policy "
    ),
    "repro.sim": (
        "GaussianEmulator Heat3D LuleshProxy Simulation Slab decompose_1d partition_offsets "
        "reference_heat3d_sequential "
    ),
    "repro.verify": (
        "Config ConformanceError ConformanceReport FuzzCase Mismatch OracleCache RunInfo "
        "STRUCTURE_AXES SlicedArraySim TRANSPARENT_AXES WORKLOADS Workload "
        "applicable_properties axis_values build_matrix check_fault_replay "
        "check_merge_associativity check_partition_invariance check_permutation_invariance "
        "check_residency_idempotence check_workload derive_case diff_results "
        "enumerate_configs execute fuzz_schedule get_workload pairwise_prune replay "
        "repro_command run_config run_fuzz run_matrix ulp_distance "
        "workload_names "
    ),
}

SURFACE = textwrap.dedent("""
    import importlib, json, sys

    import repro
    assert "repro.core" not in sys.modules
    from repro.core.policy import ExecutionPolicy
    assert repro.core.ExecutionPolicy is ExecutionPolicy

    star = {}
    exec("from repro.analytics import *", star)
    assert star["KMeans"].__module__ == "repro.analytics.kmeans"

    exported = {}
    for package in sys.argv[1:]:
        module = importlib.import_module(package)
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (package, missing)
        assert set(module.__all__) <= set(dir(module)), package
        exported[package] = sorted(module.__all__)
    print(json.dumps(exported))
""")


def test_every_package_exports_the_same_names_each_on_first_use():
    exported = json.loads(run_fresh(SURFACE, *PUBLIC))
    assert exported == {package: sorted(names.split()) for package, names in PUBLIC.items()}


#: Run before a case: every forked worker records the ``repro`` modules it
#: loaded between the start and the end of its serve loop.
RECORD_WORKERS = textwrap.dedent("""
    import json, os, sys

    import repro.core.worker as worker

    serve = worker._serve


    def recording_serve(conn, handler):
        before = set(sys.modules)
        try:
            serve(conn, handler)
        finally:
            added = sorted(m for m in set(sys.modules) - before if m.split(".")[0] == "repro")
            with open(os.path.join(sys.argv[1], f"{os.getpid()}.json"), "w") as out:
                json.dump(added, out)


    worker._serve = recording_serve
""")

FORK_CASES = {
    # service_mixed's four workloads on two seats, each seat served jobs
    "seats": ("""
        import numpy as np
        from repro.service import AnalyticsService, JobSpec

        mix = ("histogram", "minmax", "grid_aggregation", "moving_average")
        with AnalyticsService(workers=2) as svc:
            svc.register_step("s", np.random.default_rng(0).normal(size=8192))
            handles = [svc.submit(JobSpec(tenant=f"t{i % 4}", workload=w, step="s"))
                       for i, w in enumerate(mix * 4)]
            for handle in handles:
                handle.result(timeout=120)
        """, 2),
    "engine": ("""
        from repro.analytics import KMeans, make_blobs
        from repro.core import EnginePolicy, ExecutionPolicy

        flat, _ = make_blobs(600, 3, 4, seed=0)
        policy = ExecutionPolicy(engine=EnginePolicy(backend="process", num_threads=2),
                                 chunk_size=3, num_iters=3,
                                 extra_data=flat.reshape(-1, 3)[:4].copy())
        with KMeans(policy, dims=3) as app:
            app.run(flat)
        assert app.centroids().shape == (4, 3)
        """, 1),
    "staging": ("""
        import numpy as np
        from repro.analytics import Histogram
        from repro.core import ElasticTier, ExecutionPolicy

        with ElasticTier(lambda: Histogram(ExecutionPolicy(), lo=-4.0, hi=4.0,
                                           num_buckets=16), 2) as tier:
            rng = np.random.default_rng(0)
            for _ in range(6):
                tier.submit(rng.normal(size=4096))
            assert sum(obj.count for obj in tier.drain().values()) > 0
        """, 2),
}


@pytest.mark.parametrize("case", sorted(FORK_CASES))
def test_a_forked_worker_imports_nothing_after_the_fork(case, tmp_path):
    body, workers = FORK_CASES[case]
    run_fresh(RECORD_WORKERS + textwrap.dedent(body), str(tmp_path))
    records = {path.stem: json.loads(path.read_text()) for path in tmp_path.glob("*.json")}
    assert len(records) == workers, records
    assert records == {pid: [] for pid in records}
