"""Smart: a MapReduce-like framework for in-situ scientific analytics.

Python reproduction of Wang, Agrawal, Bicer & Jiang (SC 2015 / OSU TR
#OSU-CISRC-4/15-TR05).  Subpackages:

* :mod:`repro.core` — the Smart runtime (scheduler, reduction objects,
  time/space sharing, early emission, pipelines).
* :mod:`repro.comm` — the message-passing substrate (MPI stand-in).
* :mod:`repro.sim` — Heat3D, a LULESH-like proxy, and the emulator.
* :mod:`repro.analytics` — the paper's nine analytics applications.
* :mod:`repro.baselines` — mini-Spark, hand-written low-level analytics,
  and the offline (store-first-analyze-after) driver.
* :mod:`repro.perfmodel` — calibrated cluster performance model.
* :mod:`repro.harness` — per-figure experiment runners
  (``python -m repro.harness fig7``).
* :mod:`repro.telemetry` — the one runtime-statistics recorder: the
  scheduler's ``run.*`` counters, ``TrafficProfiler``, the execution
  engines and the service's tenants, each read by its full name.
* :mod:`repro.faults` — deterministic seeded fault injection
  (:class:`~repro.faults.FaultPlan`) and recovery policies
  (:class:`~repro.faults.FaultPolicy`) for chaos testing the runtime.
"""

__version__ = "1.2.0"

from ._lazy import lazy_exports

# Each subpackage loads on first use (``repro.core`` brings the runtime's
# spine with it).
__getattr__, __dir__ = lazy_exports(__name__, {
    f".{name}": (name,)
    for name in ("analytics", "baselines", "comm", "core", "faults", "sim", "telemetry")
})

__all__ = [
    "analytics",
    "baselines",
    "comm",
    "core",
    "faults",
    "sim",
    "telemetry",
    "__version__",
]
