"""Shared workload fixtures for engine/wire equivalence tests.

Thin wrappers over the :mod:`repro.verify` conformance kit — the single
source of canonical per-analytic workloads, oracle execution, and
structured diffing.  Test modules that used to carry their own workload
builders (``tests/core/test_engines.py``,
``tests/core/test_engine_wire_format.py``) and the conformance suite in
``tests/verify`` all go through here.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.verify import (
    Config,
    diff_results,
    execute,
    get_workload,
    workload_names,
)

ENGINES = ("serial", "thread", "process")

__all__ = [
    "ENGINES",
    "assert_conforms",
    "assert_kernel_transparent",
    "mismatch_report",
    "run_workload",
    "workload_names",
]


def run_workload(name: str, *, data: np.ndarray | None = None,
                 **axes) -> dict[str, np.ndarray]:
    """Execute one workload under the given config axes; return the
    extracted comparison arrays."""
    config = Config(workload=name, **axes)
    return execute(get_workload(name), config, data=data).result


def mismatch_report(name: str, **axes):
    """Candidate-vs-oracle mismatches for one config (empty = conforms)."""
    config = Config(workload=name, **axes)
    workload = get_workload(name)
    oracle = execute(workload, config.oracle_of())
    candidate = execute(workload, config)
    return diff_results(name, config, oracle.result, candidate.result)


def assert_conforms(name: str, **axes) -> None:
    """Assert a config is bit-equivalent to its serial/pickle oracle,
    failing with the kit's structured mismatch report."""
    mismatches = mismatch_report(name, **axes)
    assert not mismatches, "\n".join(m.describe() for m in mismatches)


def assert_kernel_transparent(name: str, **axes) -> None:
    """Assert the batch kernel's result does not depend on engine or
    wire: ``map_path="auto"`` under ``axes`` vs the same kernel on the
    serial engine and pickle wire, every field bit for bit.

    :func:`assert_conforms` diffs a float kernel against the scalar
    loop, where the workload's ``batch_ulp`` allowance applies; this is
    the check that allowance must not loosen.
    """
    config = Config(workload=name, map_path="auto", **axes)
    workload = get_workload(name)
    assert workload.has_batch_path, name
    reference = dataclasses.replace(config.oracle_of(), map_path="auto")
    expected = execute(workload, reference).result
    actual = execute(workload, config).result
    assert set(actual) == set(expected)
    for field, e in expected.items():
        e, a = np.asarray(e), np.asarray(actual[field])
        assert e.dtype == a.dtype and e.shape == a.shape, field
        assert np.array_equal(
            e, a, equal_nan=bool(np.issubdtype(e.dtype, np.floating))
        ), f"{name}: field {field!r} differs from the serial/pickle kernel run"
