"""Volumetric multi-resolution downsampling with checkpointed analytics.

The visualization use case behind grid aggregation (paper Section 5.1,
ref [57]): every few time-steps, the evolving Heat3D temperature field is
downsampled to a coarse tile grid for rendering, using the 3-D
structural-aggregation extension.  Halfway through, the analytics state
is checkpointed and restored into a fresh scheduler — the deployment
pattern of a simulation that itself restarts from checkpoints.

Run:  python examples/volumetric_downsampling.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro.analytics import TileAggregation3D
from repro.core import ExecutionPolicy, load_checkpoint, save_checkpoint
from repro.sim import Heat3D

GRID = (16, 16, 16)
TILE = (4, 4, 4)
STEPS = 12


def render_profile(tile_means: np.ndarray) -> None:
    """Mean tile temperature per depth layer (heat enters at layer 0)."""
    for z, layer in enumerate(tile_means):
        mean = float(layer.mean())
        bar = "#" * int(mean / 2)
        print(f"    depth layer {z}: {bar:50s} {mean:6.2f}")


def main() -> None:
    sim = Heat3D(GRID)
    app = TileAggregation3D(ExecutionPolicy(), shape=GRID, tile=TILE)
    ckpt = Path(tempfile.mkdtemp(prefix="smart-viz-")) / "tiles.ckpt"

    print(f"Heat3D {GRID} -> {tuple(app.tiles_per_axis)} tile grid "
          f"(tiles of {TILE}), {STEPS} steps\n")

    for step in range(STEPS):
        partition = sim.advance()
        app.reset()  # per-step snapshot, not cumulative
        app.run(partition)
        if step == STEPS // 2 - 1:
            save_checkpoint(app, ckpt, metadata={"step": step})
            print(f"checkpointed analytics state after step {step + 1} "
                  f"({ckpt.stat().st_size} bytes)\n")
        if step % 4 == 3:
            print(f"  tile-layer temperatures after step {step + 1}:")
            render_profile(app.means())
            print()

    # Restore into a brand-new scheduler, as a restarted job would.
    restored = TileAggregation3D(ExecutionPolicy(), shape=GRID, tile=TILE)
    meta = load_checkpoint(restored, ckpt)
    print(f"restored checkpoint from step {meta['step'] + 1}: "
          f"{restored.num_tiles} tile means intact, "
          f"mean of hottest tile = {np.nanmax(restored.means()):.1f}")
    ckpt.unlink()


if __name__ == "__main__":
    main()
