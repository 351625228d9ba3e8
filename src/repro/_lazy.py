"""Lazy package exports (PEP 562).

Each ``repro`` package keeps its public surface in ``__all__`` and a
table of which submodule defines each name; the submodule is imported
when one of its names is first used, so a cold start compiles only what
its journey runs.

The rule that goes with it: **a forked worker never imports a ``repro``
module after the fork** — engine workers, service seats and staging
workers run only code their parent loaded before forking them.  So the
runtime's spine (the scheduler, the engines, :mod:`repro.core.worker`,
the policy, serialization, telemetry and faults) loads with
:mod:`repro.core`, and a parent that forks workers loads whatever else
they will build first (:meth:`repro.service.AnalyticsService.start`
loads the registry's analytics).  A module imported after the fork is
compiled again in every child, and a fork while another thread is
importing can leave that module's import lock held in the child.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable


def lazy_exports(
    package: str, table: dict[str, tuple[str, ...]],
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """The ``__getattr__`` and ``__dir__`` of *package*, whose *table*
    maps each relative submodule (``".scheduler"``) to the names it
    exports; a name that is the submodule itself (``repro.core``)
    resolves to the module."""
    where = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str) -> Any:
        if name not in where:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module = importlib.import_module(where[name], package)
        value = module if module.__name__ == f"{package}.{name}" else getattr(module, name)
        setattr(sys.modules[package], name, value)  # later lookups skip this hook
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(where))

    return __getattr__, __dir__
