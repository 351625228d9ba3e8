"""Programmability comparison (paper Section 5.3).

The paper reports that, for k-means and logistic regression, 55% and 69%
of the lines of the hand-written OpenMP/MPI implementations are either
eliminated or converted into sequential code by Smart.  We measure the
analogous quantity on this repository's own code: for each application,
count the effective source lines of the low-level implementation and
classify the Smart version's lines into *parallel-aware* (anything that
touches the communicator, threads, partitions) and *sequential*
(the user callbacks, which are plain sequential code).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable

PARALLEL_MARKERS = (
    "comm",
    "Allreduce",
    "allreduce",
    "bcast",
    "gather",
    "scatter",
    "send(",
    "recv(",
    "barrier",
    "thread",
    "rank",
    "partition",
    "sendbuf",
    "recvbuf",
)


def effective_lines(obj: Callable | type) -> list[str]:
    """Source lines of ``obj`` minus blanks, comments, and docstrings."""
    source = inspect.getsource(obj)
    lines: list[str] = []
    in_doc = False
    for raw in source.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if in_doc:
            if line.endswith('"""') or line.endswith("'''"):
                in_doc = False
            continue
        if line.startswith(('"""', "'''")):
            # Single-line docstring closes on the same line.
            if not (len(line) > 3 and (line.endswith('"""') or line.endswith("'''"))):
                in_doc = True
            continue
        lines.append(line)
    return lines


def parallel_lines(lines: list[str]) -> list[str]:
    """Lines that mention parallelization machinery."""
    return [l for l in lines if any(marker in l for marker in PARALLEL_MARKERS)]


@dataclass
class ProgrammabilityRow:
    """LoC accounting for one application."""

    app: str
    lowlevel_total: int
    lowlevel_parallel: int
    smart_total: int
    smart_parallel: int

    @property
    def eliminated_or_sequentialized_pct(self) -> float:
        """Share of the low-level parallel-aware lines Smart removes or
        turns sequential (the paper's 55% / 69% metric)."""
        if self.lowlevel_parallel == 0:
            raise ValueError("low-level implementation has no parallel lines")
        return (
            100.0
            * max(self.lowlevel_parallel - self.smart_parallel, 0)
            / self.lowlevel_parallel
        )


def compare(app_name: str, lowlevel_fn: Callable, smart_cls: type) -> ProgrammabilityRow:
    low = effective_lines(lowlevel_fn)
    smart = effective_lines(smart_cls)
    return ProgrammabilityRow(
        app=app_name,
        lowlevel_total=len(low),
        lowlevel_parallel=len(parallel_lines(low)),
        smart_total=len(smart),
        smart_parallel=len(parallel_lines(smart)),
    )


def default_rows() -> list[ProgrammabilityRow]:
    """The paper's two Section-5.3 applications."""
    from ..analytics import KMeans, LogisticRegression
    from ..baselines.lowlevel import lowlevel_kmeans, lowlevel_logreg

    return [
        compare("kmeans", lowlevel_kmeans, KMeans),
        compare("logistic_regression", lowlevel_logreg, LogisticRegression),
    ]
