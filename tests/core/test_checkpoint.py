"""Checkpoint/restore of analytics state."""

import json

import numpy as np
import pytest

from repro.analytics import Histogram, KMeans, make_blobs
from repro.core import (
    CheckpointError,
    ExecutionPolicy,
    load_checkpoint,
    save_checkpoint,
)
from repro.faults import FaultPlan, FaultSpec


def make_histogram():
    return Histogram(ExecutionPolicy(), lo=-4, hi=4, num_buckets=16)


class TestRoundTrip:
    def test_state_restored_exactly(self, rng, tmp_path):
        app = make_histogram()
        app.run(rng.normal(size=800))
        path = save_checkpoint(app, tmp_path / "h.ckpt")

        restored = make_histogram()
        load_checkpoint(restored, path)
        assert np.array_equal(restored.counts(), app.counts())

    def test_metadata_round_trips(self, rng, tmp_path):
        app = make_histogram()
        app.run(rng.normal(size=100))
        save_checkpoint(app, tmp_path / "h.ckpt", metadata={"step": 7, "run": "a"})
        meta = load_checkpoint(make_histogram(), tmp_path / "h.ckpt")
        assert meta == {"step": 7, "run": "a"}

    def test_resume_continues_accumulation(self, rng, tmp_path):
        first = rng.normal(size=400)
        second = rng.normal(size=400)

        straight = make_histogram()
        straight.run(first)
        straight.run(second)

        app = make_histogram()
        app.run(first)
        save_checkpoint(app, tmp_path / "h.ckpt")
        resumed = make_histogram()
        load_checkpoint(resumed, tmp_path / "h.ckpt")
        resumed.run(second)
        assert np.array_equal(resumed.counts(), straight.counts())

    def test_iterative_state_resumes(self, tmp_path):
        flat, _ = make_blobs(300, 2, 3, seed=91)
        init = flat.reshape(-1, 2)[:3].copy()

        def make_km():
            return KMeans(
                ExecutionPolicy(chunk_size=2, num_iters=2, extra_data=init),
                dims=2,
            )

        straight = make_km()
        straight.run(flat)
        straight.run(flat)

        app = make_km()
        app.run(flat)
        save_checkpoint(app, tmp_path / "km.ckpt")
        resumed = make_km()
        load_checkpoint(resumed, tmp_path / "km.ckpt")
        resumed.run(flat)
        assert np.allclose(resumed.centroids(), straight.centroids(), atol=1e-10)

    def test_overwrite_is_atomic_replace(self, rng, tmp_path):
        app = make_histogram()
        app.run(rng.normal(size=100))
        path = tmp_path / "h.ckpt"
        save_checkpoint(app, path)
        app.run(rng.normal(size=100))
        save_checkpoint(app, path)  # overwrite
        restored = make_histogram()
        load_checkpoint(restored, path)
        assert restored.counts().sum() == 200
        assert list(tmp_path.glob("*.tmp*")) == []


class TestValidation:
    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint"):
            load_checkpoint(make_histogram(), tmp_path / "absent.ckpt")

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"garbage")
        with pytest.raises(CheckpointError):
            load_checkpoint(make_histogram(), path)

    def test_wrong_magic(self, tmp_path):
        import json

        header = json.dumps({"magic": "other"}).encode()
        path = tmp_path / "other.ckpt"
        path.write_bytes(len(header).to_bytes(8, "little") + header)
        with pytest.raises(CheckpointError, match="not a Smart checkpoint"):
            load_checkpoint(make_histogram(), path)

    def test_scheduler_type_mismatch_rejected(self, rng, tmp_path):
        app = make_histogram()
        app.run(rng.normal(size=50))
        path = save_checkpoint(app, tmp_path / "h.ckpt")
        km = KMeans(ExecutionPolicy(chunk_size=2), dims=2)
        with pytest.raises(CheckpointError, match="Histogram"):
            load_checkpoint(km, path)

    def test_type_mismatch_allowed_when_not_strict(self, rng, tmp_path):
        app = make_histogram()
        app.run(rng.normal(size=50))
        path = save_checkpoint(app, tmp_path / "h.ckpt")
        km = KMeans(ExecutionPolicy(chunk_size=2), dims=2)
        load_checkpoint(km, path, strict_type=False)  # caller's responsibility

    def test_creates_parent_directories(self, rng, tmp_path):
        app = make_histogram()
        app.run(rng.normal(size=50))
        path = save_checkpoint(app, tmp_path / "deep" / "nested" / "h.ckpt")
        assert path.exists()

    def test_header_stats_block_is_ignored(self, rng, tmp_path):
        """Files written before the header lost its unread ``stats`` block
        still load: loaders ignore header keys they do not know."""
        app = make_histogram()
        app.run(rng.normal(size=200))
        path = save_checkpoint(app, tmp_path / "h.ckpt", metadata={"step": 3})
        raw = path.read_bytes()
        header_len = int.from_bytes(raw[:8], "little")
        header = json.loads(raw[8 : 8 + header_len].decode())
        assert "stats" not in header
        header["stats"] = {"runs": 1, "iterations_run": 1, "early_emissions": 0}
        new_header = json.dumps(header).encode()
        path.write_bytes(len(new_header).to_bytes(8, "little") + new_header
                         + raw[8 + header_len :])
        restored = make_histogram()
        assert load_checkpoint(restored, path, fallback=False) == {"step": 3}
        assert np.array_equal(restored.counts(), app.counts())

    def test_wire_version_mismatch_rejected(self, rng, tmp_path):
        """A checkpoint from an incompatible map wire-format layout must
        fail loudly, not deserialize garbage."""
        app = make_histogram()
        app.run(rng.normal(size=50))
        path = save_checkpoint(app, tmp_path / "h.ckpt")
        raw = bytearray(path.read_bytes())
        header_len = int.from_bytes(raw[:8], "little")
        header = json.loads(raw[8 : 8 + header_len].decode())
        header["wire_version"] = 999
        new_header = json.dumps(header).encode()
        path.write_bytes(
            len(new_header).to_bytes(8, "little")
            + new_header
            + bytes(raw[8 + header_len :])
        )
        with pytest.raises(CheckpointError, match="wire-format version"):
            load_checkpoint(make_histogram(), path, fallback=False)


class TestIntegrity:
    def test_bit_flip_detected_by_crc(self, rng, tmp_path):
        app = make_histogram()
        app.run(rng.normal(size=200))
        path = save_checkpoint(app, tmp_path / "h.ckpt")
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0x40  # flip one payload bit
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="CRC"):
            load_checkpoint(make_histogram(), path, fallback=False)

    def test_truncation_detected(self, rng, tmp_path):
        app = make_histogram()
        app.run(rng.normal(size=200))
        path = save_checkpoint(app, tmp_path / "h.ckpt")
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 16])
        with pytest.raises(CheckpointError):
            load_checkpoint(make_histogram(), path, fallback=False)


class TestRotation:
    def test_keep_rotates_generations(self, rng, tmp_path):
        app = make_histogram()
        path = tmp_path / "h.ckpt"
        for step in range(3):
            app.run(rng.normal(size=100))
            save_checkpoint(app, path, {"step": step}, keep=3)
        assert path.exists()
        assert (tmp_path / "h.ckpt.1").exists()
        assert (tmp_path / "h.ckpt.2").exists()
        assert load_checkpoint(make_histogram(), path) == {"step": 2}

    def test_keep_one_is_previous_behaviour(self, rng, tmp_path):
        app = make_histogram()
        path = tmp_path / "h.ckpt"
        for _ in range(3):
            app.run(rng.normal(size=100))
            save_checkpoint(app, path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["h.ckpt"]

    def test_corrupt_primary_falls_back_to_rotation(self, rng, tmp_path):
        app = make_histogram()
        path = tmp_path / "h.ckpt"
        app.run(rng.normal(size=100))
        save_checkpoint(app, path, {"gen": 0}, keep=2)
        good_counts = app.counts().copy()
        app.run(rng.normal(size=100))
        # the plan truncates the new primary; .1 still holds gen 0
        plan = FaultPlan([FaultSpec("storage", "truncate")])
        save_checkpoint(app, path, {"gen": 1}, keep=2, fault_plan=plan)
        assert plan.injected("storage") == 1

        restored = make_histogram()
        meta = load_checkpoint(restored, path)
        assert meta == {"gen": 0}
        assert np.array_equal(restored.counts(), good_counts)
        counters = restored.telemetry.snapshot()["counters"]
        assert counters["faults.checkpoint_fallbacks"] == 1

    def test_all_generations_corrupt_raises_primary_error(self, rng, tmp_path):
        app = make_histogram()
        path = tmp_path / "h.ckpt"
        for gen in range(2):
            app.run(rng.normal(size=100))
            save_checkpoint(app, path, {"gen": gen}, keep=2)
        for p in (path, tmp_path / "h.ckpt.1"):
            raw = bytearray(p.read_bytes())
            raw[-1] ^= 1
            p.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="CRC"):
            load_checkpoint(make_histogram(), path)

    def test_keep_must_be_positive(self, rng, tmp_path):
        app = make_histogram()
        app.run(rng.normal(size=10))
        with pytest.raises(ValueError, match="keep"):
            save_checkpoint(app, tmp_path / "h.ckpt", keep=0)
