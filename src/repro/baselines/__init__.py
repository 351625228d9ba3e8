"""Baselines the paper compares Smart against.

* :mod:`repro.baselines.minispark` — Spark-like engine (Fig. 5).
* :mod:`repro.baselines.lowlevel` — hand-written MPI/OpenMP-style
  analytics (Fig. 6, programmability comparison).
* :mod:`repro.baselines.offline` — store-first-analyze-after (Fig. 1).
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".lowlevel": ("lowlevel_histogram", "lowlevel_kmeans", "lowlevel_logreg",
                  "lowlevel_mutual_information"),
    ".offline": ("OfflineDriver", "OfflineResult"),
})

__all__ = [
    "OfflineDriver",
    "OfflineResult",
    "lowlevel_histogram",
    "lowlevel_kmeans",
    "lowlevel_logreg",
    "lowlevel_mutual_information",
]
