"""Config matrix generation, pairwise coverage, and the mutation gate.

The mutation test is the conformance kit's own acceptance check: a
deliberately corrupted combination kernel must be caught with a
structured report naming the divergent key and the config that
exposed it.
"""

import numpy as np
import pytest

from repro.core.serialization import PackedMap
from repro.telemetry import Recorder
from repro.verify import (
    Config,
    OracleCache,
    axis_values,
    build_matrix,
    enumerate_configs,
    pairwise_prune,
    run_config,
    run_matrix,
)
from repro.verify.matrix import is_valid

SMOKE_NAMES = ("histogram", "minmax", "kmeans", "moving_average")


class TestConfigFingerprint:
    def test_round_trip(self):
        cfg = Config(workload="kmeans", engine="process",
                     wire_format="columnar", combine_algorithm="allreduce",
                     fault="comm-delay", num_threads=3,
                     block_size=256, ranks=2, seed=7)
        assert Config.parse(cfg.fingerprint()) == cfg

    def test_parse_accepts_sparse_tokens(self):
        cfg = Config.parse("workload=histogram,engine=thread,map=scalar")
        assert cfg.engine == "thread"
        assert cfg.map_path == "scalar"
        assert cfg.wire_format == "pickle"  # default preserved

    def test_parse_requires_workload(self):
        with pytest.raises(ValueError, match="workload"):
            Config.parse("engine=thread")

    def test_parse_rejects_unknown_axis(self):
        for axis in ("gpu", "vec"):
            with pytest.raises(ValueError, match=f"unknown config axis '{axis}'"):
                Config.parse(f"workload=histogram,{axis}=1")

    def test_oracle_of_resets_only_transparent_axes(self):
        cfg = Config(workload="histogram", engine="process",
                     wire_format="columnar", num_threads=3,
                     ranks=2, seed=3)
        oracle = cfg.oracle_of()
        assert oracle.is_oracle
        assert oracle.engine == "serial" and oracle.wire_format == "pickle"
        assert oracle.structure_key() == cfg.structure_key()


class TestMatrixGeneration:
    def test_validity_rules(self):
        # moving_median has no batch kernel to force.
        assert not is_valid(Config(workload="moving_median", map_path="batch"))
        assert is_valid(Config(workload="moving_median"))
        # engine-kill needs the process engine with >= 2 workers on 1 rank.
        assert not is_valid(Config(workload="histogram", fault="engine-kill"))
        assert is_valid(Config(workload="histogram", fault="engine-kill",
                               engine="process", num_threads=2))
        # Non-gather combine algorithms only matter across ranks.
        assert not is_valid(Config(workload="histogram",
                                   combine_algorithm="tree"))
        # Space-sharing driver is single-rank, steps-friendly workloads only.
        assert not is_valid(Config(workload="moving_average",
                                   driver="space"))
        assert not is_valid(Config(workload="histogram", driver="space",
                                   ranks=2, combine_algorithm="tree"))
        assert is_valid(Config(workload="histogram", driver="space"))

    def test_pairwise_prune_keeps_transparent_coverage(self):
        configs = enumerate_configs(SMOKE_NAMES, smoke=True)
        pruned = pairwise_prune(configs)
        assert 0 < len(pruned) < len(configs)
        for axis in ("engine", "wire_format", "combine_algorithm",
                     "fault", "driver"):
            achievable = {getattr(c, axis) for c in configs}
            covered = {getattr(c, axis) for c in pruned}
            assert covered == achievable, axis

    def test_smoke_matrix_meets_acceptance_floor(self):
        configs = build_matrix(SMOKE_NAMES, smoke=True, max_configs=20)
        assert len(configs) >= 20
        assert {c.engine for c in configs} == {"serial", "thread", "process"}
        assert {c.wire_format for c in configs} == {"pickle", "columnar"}

    def test_matrix_is_deterministic(self):
        a = build_matrix(SMOKE_NAMES, smoke=True)
        b = build_matrix(SMOKE_NAMES, smoke=True)
        assert [c.fingerprint() for c in a] == [c.fingerprint() for c in b]

    def test_axis_values_widen_off_smoke(self):
        assert axis_values(smoke=False)["ranks"] == (1, 2, 3)
        assert axis_values(smoke=True)["ranks"] == (1, 2)


class TestMatrixRun:
    def test_small_matrix_has_zero_mismatches(self):
        configs = build_matrix(("histogram", "moving_average"), smoke=True,
                               max_configs=10, min_configs=0)
        assert configs
        telemetry = Recorder()
        report = run_matrix(configs, telemetry=telemetry)
        assert report.ok, "\n".join(m.describe() for m in report.mismatches)
        counters = report.counters
        assert counters["verify.configs_run"] == len(configs)
        # The oracle cache amortises shared structure keys.
        assert counters["verify.oracle_runs"] <= len(configs)

    def test_report_serializes(self, tmp_path):
        configs = build_matrix(("minmax",), smoke=True, max_configs=3,
                               min_configs=0)
        report = run_matrix(configs)
        path = tmp_path / "report.json"
        report.write(path)
        import json
        loaded = json.loads(path.read_text())
        assert loaded["ok"] is True
        assert loaded["configs"] == report.configs


class TestMutationGate:
    """A corrupted columnar merge kernel must be caught and localized."""

    # serial engine keeps the corrupted merge_from in-process; columnar
    # wire + ranks=2 routes the rank-level combine through PackedMap.
    CONFIG = Config(workload="kmeans", engine="serial",
                    wire_format="columnar", ranks=2, seed=2015)

    def test_corrupted_merge_yields_structured_mismatch(self, monkeypatch):
        original = PackedMap.merge_from

        def corrupted(self, other):
            original(self, other)
            if "vec_sum" in (self.records.dtype.names or ()):
                self.records["vec_sum"][0] += 1.0

        monkeypatch.setattr(PackedMap, "merge_from", corrupted)
        mismatches = run_config(self.CONFIG)
        assert mismatches, "mutation survived the conformance gate"
        m = mismatches[0]
        assert m.kind == "value"
        assert m.field == "centroids"
        assert m.key is not None
        assert m.dtype == "float64"
        assert m.ulp is not None and m.ulp > 0
        assert "wire=columnar" in m.fingerprint
        assert "conform --config" in m.repro

    def test_unmutated_config_conforms(self):
        assert run_config(self.CONFIG) == []

    def test_telemetry_counts_mismatches(self, monkeypatch):
        original = PackedMap.merge_from

        def corrupted(self, other):
            original(self, other)
            if "vec_sum" in (self.records.dtype.names or ()):
                self.records["vec_sum"][0] += 1.0

        monkeypatch.setattr(PackedMap, "merge_from", corrupted)
        telemetry = Recorder()
        run_config(self.CONFIG, cache=OracleCache(telemetry),
                   telemetry=telemetry)
        assert telemetry.counter("verify.mismatches") >= 1


class TestOracleCache:
    def test_shared_structure_key_runs_oracle_once(self):
        telemetry = Recorder()
        cache = OracleCache(telemetry)
        base = Config(workload="minmax", seed=1)
        a = cache.get(base)
        b = cache.get(Config(workload="minmax", engine="thread", seed=1))
        assert a is b
        assert telemetry.counter("verify.oracle_runs") == 1
        assert telemetry.counter("verify.oracle_cache_hits") == 1
        assert np.array_equal(a.result["range"], b.result["range"])
