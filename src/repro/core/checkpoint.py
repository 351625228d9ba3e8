"""Checkpoint/restore of analytics state.

Long-running in-situ deployments outlive single program runs: a
simulation restarting from its own checkpoint needs the co-located
analytics to resume where it left off (the evolving k-means centroids,
the accumulated histogram).  Smart's entire analytics state is the
combination map, so a checkpoint is one serialized map plus a small
header, written atomically (temp file + rename).

Every rank checkpoints its own state; with global combination on, the
maps are identical across ranks, so restoring rank files (or a single
shared file) reproduces the global state exactly.

Hardening (version 2 of the file format):

* the header carries a CRC32 of the payload, verified on load — torn
  writes and bit rot are detected instead of deserialized;
* the header records the map wire-format version
  (:data:`~repro.core.serialization.WIRE_VERSION`); a layout mismatch is
  a clear :class:`CheckpointError`, not a pickle explosion;
* ``save_checkpoint(..., keep=N)`` rotates the last ``N`` checkpoints
  (``path``, ``path.1``, ...), and ``load_checkpoint`` falls back to the
  newest *verifying* rotation when the primary is corrupt.

Version-1 files (no CRC) still load: integrity checks are skipped for
them, preserving restores of pre-hardening checkpoints.
"""

from __future__ import annotations

import json
import os
import tempfile
import zlib
from pathlib import Path
from typing import TYPE_CHECKING, Any

from .scheduler import Scheduler
from .serialization import WIRE_VERSION, deserialize_map, serialize_map

if TYPE_CHECKING:  # pragma: no cover
    from ..faults import FaultPlan

_MAGIC = "smart-checkpoint"
_VERSION = 2


class CheckpointError(RuntimeError):
    """The checkpoint file is missing, corrupt, or incompatible."""


def _rotated(path: Path, index: int) -> Path:
    """The ``index``-th rotation of ``path`` (0 is ``path`` itself)."""
    return path if index == 0 else path.with_name(f"{path.name}.{index}")


def save_checkpoint(
    scheduler: Scheduler,
    path: str | Path,
    metadata: dict[str, Any] | None = None,
    *,
    keep: int = 1,
    fault_plan: "FaultPlan | None" = None,
) -> Path:
    """Write the scheduler's combination map (and stats counters) to ``path``.

    The write is atomic: a temp file in the same directory is fsync'ed
    and renamed over the destination, so a crash mid-save never corrupts
    an existing checkpoint.

    Parameters
    ----------
    keep:
        Number of checkpoint generations to retain.  With ``keep=3`` the
        previous file rotates to ``path.1`` and the one before to
        ``path.2`` before the new state lands on ``path``;
        :func:`load_checkpoint` falls back along that chain when the
        primary fails verification.  The default 1 keeps only ``path``
        (the pre-rotation behaviour).
    fault_plan:
        Optional :class:`~repro.faults.FaultPlan` consulted after the
        atomic write; a matching storage spec corrupts the just-written
        file (truncation or a seeded bit flip in the CRC-protected
        payload) to exercise verification and fallback.  ``None`` (the
        default) skips the hook entirely.
    """
    if keep < 1:
        raise ValueError(f"keep must be >= 1, got {keep}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = serialize_map(
        scheduler.get_combination_map(), scheduler.policy.combine.wire_format
    )
    header = {
        "magic": _MAGIC,
        "version": _VERSION,
        "scheduler": type(scheduler).__name__,
        "wire_version": WIRE_VERSION,
        "payload_crc32": zlib.crc32(payload) & 0xFFFFFFFF,
        "metadata": metadata or {},
        "stats": {
            name: scheduler.telemetry.counter(f"run.{name}")
            for name in ("runs", "iterations_run", "early_emissions")
        },
    }
    header_bytes = json.dumps(header).encode()

    # Rotate the previous generations before the new file lands, oldest
    # first, so a crash between renames leaves a consistent chain.
    for index in range(keep - 1, 0, -1):
        older = _rotated(path, index - 1)
        if older.exists():
            os.replace(older, _rotated(path, index))

    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(len(header_bytes).to_bytes(8, "little"))
            fh.write(header_bytes)
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise

    if fault_plan is not None:
        spec = fault_plan.storage_fault()
        if spec is not None:
            raw = path.read_bytes()
            protect = 8 + len(header_bytes)  # corrupt the payload, not the header
            path.write_bytes(fault_plan.corrupt(raw, spec.kind, protect=protect))
    return path


def _read_verified(scheduler: Scheduler, path: Path, strict_type: bool) -> dict:
    """Parse and verify one checkpoint file; raise CheckpointError if bad."""
    raw = path.read_bytes()
    try:
        header_len = int.from_bytes(raw[:8], "little")
        header = json.loads(raw[8 : 8 + header_len].decode())
        payload = raw[8 + header_len :]
    except (ValueError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"corrupt checkpoint {path}: {exc}") from exc
    if header.get("magic") != _MAGIC:
        raise CheckpointError(f"{path} is not a Smart checkpoint")
    if header.get("version") not in (1, _VERSION):
        raise CheckpointError(
            f"checkpoint version {header.get('version')} unsupported "
            f"(expected <= {_VERSION})"
        )
    if strict_type and header.get("scheduler") != type(scheduler).__name__:
        raise CheckpointError(
            f"checkpoint was written by {header.get('scheduler')}, not "
            f"{type(scheduler).__name__}"
        )
    if header.get("version") >= 2:
        wire_version = header.get("wire_version")
        if wire_version != WIRE_VERSION:
            raise CheckpointError(
                f"checkpoint {path} uses map wire-format version "
                f"{wire_version}, this runtime reads {WIRE_VERSION}"
            )
        expected_crc = header.get("payload_crc32")
        actual_crc = zlib.crc32(payload) & 0xFFFFFFFF
        if actual_crc != expected_crc:
            raise CheckpointError(
                f"checkpoint {path} failed CRC verification "
                f"(header {expected_crc}, payload {actual_crc:#010x}): "
                f"torn write or bit rot"
            )
    header["_payload"] = payload
    return header


def load_checkpoint(
    scheduler: Scheduler,
    path: str | Path,
    *,
    strict_type: bool = True,
    fallback: bool = True,
) -> dict[str, Any]:
    """Restore a scheduler's combination map from ``path``.

    Returns the checkpoint's metadata dict.  With ``strict_type`` (the
    default) the checkpoint must have been written by the same scheduler
    class — restoring a k-means state into a histogram is a bug, not a
    migration.

    With ``fallback`` (the default), a primary file that is missing or
    fails verification is not fatal while a rotated generation
    (``path.1``, ``path.2``, ...) verifies: the newest verifying file is
    restored instead, the fallback is counted on the scheduler's
    telemetry (``faults.checkpoint_fallbacks``), and the returned
    metadata is that file's.  Only when every candidate fails does the
    primary's error propagate.
    """
    path = Path(path)
    candidates = [path]
    if fallback:
        index = 1
        while _rotated(path, index).exists():
            candidates.append(_rotated(path, index))
            index += 1
    first_error: CheckpointError | None = None
    for candidate in candidates:
        if not candidate.exists():
            if first_error is None:
                first_error = CheckpointError(f"no checkpoint at {candidate}")
            continue
        try:
            header = _read_verified(scheduler, candidate, strict_type)
        except CheckpointError as exc:
            if first_error is None:
                first_error = exc
            continue
        if candidate is not path:
            scheduler.telemetry.inc("faults.checkpoint_fallbacks")
        scheduler.combination_map_ = deserialize_map(header["_payload"])
        return header.get("metadata", {})
    assert first_error is not None
    raise first_error
