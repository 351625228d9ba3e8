"""Registry of experiment harnesses: one entry per paper figure."""

from __future__ import annotations

from typing import Callable

from . import (
    chaos,
    fig01,
    fig05,
    fig06,
    fig07,
    fig08,
    fig09,
    fig10,
    fig11,
    intransit,
    service,
)

FIGURES: dict[str, tuple[Callable[[], dict], str]] = {
    "fig1": (fig01.run, "in-situ vs offline k-means on Heat3D (measured, real I/O)"),
    "fig5": (fig05.run, "Smart vs mini-Spark: LR / k-means / histogram (measured + thread model)"),
    "fig6": (fig06.run, "Smart vs hand-written low-level analytics + LoC table"),
    "fig7": (fig07.run, "node scaling, Heat3D, nine applications (modeled)"),
    "fig8": (fig08.run, "thread scaling, Lulesh, nine applications (modeled)"),
    "fig9": (fig09.run, "time-sharing zero-copy vs extra-copy (modeled + measured micro)"),
    "fig10": (fig10.run, "time sharing vs space sharing on Xeon Phi (modeled + functional check)"),
    "fig11": (fig11.run, "early emission of reduction objects (measured + modeled)"),
    "chaos": (chaos.run, "seeded fault injection: retry bit-exactness, degrade, checkpoint fallback"),
    "intransit": (intransit.run, "elastic in-transit tier: staging kill/hang recovery, scaling"),
    "service": (service.run, "multi-tenant job service: throughput/fairness/shared residency vs tenant count"),
}


def run_figure(name: str) -> dict:
    """Run one figure harness by registry name (e.g. ``fig7``)."""
    key = name.lower()
    if key not in FIGURES:
        raise KeyError(
            f"unknown figure {name!r}; available: {', '.join(sorted(FIGURES))}"
        )
    fn, _ = FIGURES[key]
    return fn()


def run_all() -> dict[str, dict]:
    """Run every figure harness in order."""
    return {name: fn() for name, (fn, _) in FIGURES.items()}
