"""Differential conformance kit: every runtime configuration must be
bit-equivalent to the serial/pickle oracle.

The paper's transparency claim (Smart §4, Table 1 — alternate execution
modes are invisible to the analytics programmer) is checked three ways:

* :mod:`~repro.verify.matrix` + :mod:`~repro.verify.oracle` — a
  pairwise-pruned config-matrix runner diffing every candidate against
  the reference execution, with structured mismatch reports;
* :mod:`~repro.verify.properties` — metamorphic per-analytic
  invariants (partition/permutation invariance, merge associativity,
  residency idempotence, bit-exact fault replay);
* :mod:`~repro.verify.fuzz` — seeded SimCluster schedule fuzzing with
  replay.

CLI: ``python -m repro.harness conform --smoke``.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".fuzz": ("FuzzCase", "derive_case", "fuzz_schedule", "replay", "run_fuzz"),
    ".matrix": ("STRUCTURE_AXES", "TRANSPARENT_AXES", "Config", "axis_values",
                "build_matrix", "enumerate_configs", "pairwise_prune"),
    ".oracle": ("ConformanceError", "ConformanceReport", "Mismatch", "OracleCache",
                "RunInfo", "SlicedArraySim", "diff_results", "execute", "repro_command",
                "run_config", "run_matrix", "ulp_distance"),
    ".properties": ("applicable_properties", "check_fault_replay",
                    "check_merge_associativity", "check_partition_invariance",
                    "check_permutation_invariance", "check_residency_idempotence",
                    "check_workload"),
    ".workloads": ("WORKLOADS", "Workload", "get_workload", "workload_names"),
})

__all__ = [
    "Config",
    "ConformanceError",
    "ConformanceReport",
    "FuzzCase",
    "Mismatch",
    "OracleCache",
    "RunInfo",
    "STRUCTURE_AXES",
    "SlicedArraySim",
    "TRANSPARENT_AXES",
    "WORKLOADS",
    "Workload",
    "applicable_properties",
    "axis_values",
    "build_matrix",
    "check_fault_replay",
    "check_merge_associativity",
    "check_partition_invariance",
    "check_permutation_invariance",
    "check_residency_idempotence",
    "check_workload",
    "derive_case",
    "diff_results",
    "enumerate_configs",
    "execute",
    "fuzz_schedule",
    "get_workload",
    "pairwise_prune",
    "replay",
    "repro_command",
    "run_config",
    "run_fuzz",
    "run_matrix",
    "ulp_distance",
    "workload_names",
]
