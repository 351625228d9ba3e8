"""Simulation substrates: Heat3D, a LULESH-like proxy, and the emulator."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".base": ("Simulation",),
    ".decomposition": ("Slab", "decompose_1d", "partition_offsets"),
    ".emulator": ("GaussianEmulator",),
    ".heat3d": ("Heat3D", "reference_heat3d_sequential"),
    ".lulesh": ("LuleshProxy",),
})

__all__ = [
    "GaussianEmulator",
    "Heat3D",
    "LuleshProxy",
    "Simulation",
    "Slab",
    "decompose_1d",
    "partition_offsets",
    "reference_heat3d_sequential",
]
