"""The runtime imports numpy only: scipy stays a test and calibration dependency.

A fresh interpreter refuses every ``scipy`` import (the refusal is
inherited by the forked service seats), imports the runtime's public
entry points, builds every registry workload, runs the Savitzky-Golay
filter in-process and through a service seat, and then finds no
``scipy`` module loaded.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

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
