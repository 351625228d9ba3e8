"""Columnar wire format: schemas, codec, vectorized merges, the key vote.

Covers the Section 5.3 optimization end to end: every bundled reduction
object round-trips through the packed encoding, schemaless maps fall
back to pickle transparently, the vectorized combination kernel matches
per-object Python merges bit for bit, the key vote's contiguous combine
matches the paper's gather bit for bit (``keep`` fields included), and
every algorithm and format agree on full clusters and subcommunicators
alike.
"""

import numpy as np
import pytest

from repro.analytics import (
    ClusterObj,
    CountObj,
    GradientObj,
    HoldAllObj,
    MinMaxObj,
    SumCountObj,
    WeightedWindowObj,
    WindowSumObj,
)
from repro.comm import TrafficProfiler, spmd_launch, split_comm
from repro.core import (
    CombinePolicy,
    ExecutionPolicy,
    Field,
    KeyedMap,
    PackedMap,
    RedObj,
    deserialize_map,
    global_combine,
    pack_map,
    serialize_map,
)
from repro.core.policy import COMBINE_ALGORITHMS
from repro.core.serialization import _combine_gather, wire_format_of


def _state(obj):
    """All slot values of a reduction object, numpy arrays as tuples."""
    out = {}
    for name in obj.__slots__:
        value = getattr(obj, name)
        out[name] = tuple(value) if isinstance(value, np.ndarray) else value
    return out


def _map_state(m: KeyedMap) -> dict:
    return {k: _state(v) for k, v in m.sorted_items()}


def _weighted(win_size, wsum, wtotal, count):
    obj = WeightedWindowObj(win_size)
    obj.wsum, obj.wtotal, obj.count = wsum, wtotal, count
    return obj


def _minmax(lo, hi):
    obj = MinMaxObj()
    obj.lo, obj.hi = lo, hi
    return obj


def _gradient(weights, grad, count, loss):
    obj = GradientObj(np.asarray(weights, dtype=np.float64))
    obj.grad[:] = grad
    obj.count, obj.loss = count, loss
    return obj


def _cluster(centroid, vec_sum, size):
    obj = ClusterObj(np.asarray(centroid, dtype=np.float64))
    obj.vec_sum[:] = vec_sum
    obj.size = size
    return obj


SCHEMA_OBJECTS = {
    "count": lambda: CountObj(5),
    "sum_count": lambda: SumCountObj(2.5, 3),
    "window_sum": lambda: WindowSumObj(4, total=1.5, count=2),
    "weighted_window": lambda: _weighted(5, 0.25, 1.75, 3),
    "min_max": lambda: _minmax(-1.5, 7.25),
    "gradient": lambda: _gradient([1.0, -2.0, 0.5], [0.1, 0.2, 0.3], 7, 0.9),
    "cluster": lambda: _cluster([3.0, 4.0], [1.0, 2.0], 6),
}


class TestRoundTrip:
    @pytest.mark.parametrize("make", SCHEMA_OBJECTS.values(), ids=SCHEMA_OBJECTS)
    def test_every_bundled_schema_round_trips(self, make):
        original = KeyedMap({3: make(), 11: make(), 7: make()})
        payload = serialize_map(original, "columnar")
        assert wire_format_of(payload) == "columnar"
        assert _map_state(deserialize_map(payload)) == _map_state(original)

    def test_scalar_types_rehydrate_as_python_numbers(self):
        m = deserialize_map(
            serialize_map(KeyedMap({0: SumCountObj(1.5, 2)}), "columnar")
        )
        assert type(m[0].total) is float
        assert type(m[0].count) is int

    def test_vector_fields_rehydrate_as_arrays(self):
        m = deserialize_map(
            serialize_map(KeyedMap({0: _cluster([1.0, 2.0], [3.0, 4.0], 5)}), "columnar")
        )
        assert isinstance(m[0].centroid, np.ndarray)
        m[0].vec_sum += 1.0  # must be writable (no frombuffer views)

    def test_schemaless_map_falls_back_to_pickle(self):
        holder = HoldAllObj(4)
        holder.add(0, 1.25)
        payload = serialize_map(KeyedMap({0: holder}), "columnar")
        assert wire_format_of(payload) == "pickle"
        assert deserialize_map(payload)[0].values == [1.25]

    def test_mixed_class_map_falls_back_to_pickle(self):
        mixed = KeyedMap({0: CountObj(1), 1: SumCountObj(1.0, 1)})
        assert wire_format_of(serialize_map(mixed, "columnar")) == "pickle"

    def test_empty_map_falls_back_to_pickle(self):
        payload = serialize_map(KeyedMap(), "columnar")
        assert wire_format_of(payload) == "pickle"
        assert len(deserialize_map(payload)) == 0

    def test_pickle_payloads_still_deserialize(self):
        """Backward compatibility: payloads from the pre-columnar format
        (checkpoints) decode through the same entry point."""
        original = KeyedMap({1: SumCountObj(3.0, 4)})
        assert _map_state(deserialize_map(serialize_map(original))) == _map_state(
            original
        )

    def test_unknown_wire_format_rejected(self):
        with pytest.raises(ValueError, match="wire_format"):
            serialize_map(KeyedMap(), "protobuf")

    def test_columnar_smaller_than_pickle_at_scale(self):
        m = KeyedMap({k: SumCountObj(float(k), k) for k in range(10_000)})
        assert len(serialize_map(m, "columnar")) < len(serialize_map(m, "pickle"))


class TrustedOnly(RedObj):
    """Tracks construction-path usage for the trusted bulk test."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = float(value)

    def fields(self):
        return (Field("value", np.float64, "sum"),)


class TestTrustedBulkConstruction:
    def test_from_trusted_items_adopts_without_validation(self):
        obj = CountObj(3)
        m = KeyedMap.from_trusted_items([(4, obj)])
        assert m[4] is obj

    def test_deserialize_skips_per_object_validation(self):
        original = KeyedMap({k: TrustedOnly(k) for k in range(50)})
        restored = deserialize_map(serialize_map(original, "columnar"))
        assert _map_state(restored) == _map_state(original)


class Unmerged(RedObj):
    """A schema field without a columnar merge: packs, never votes."""

    __slots__ = ("value",)

    def __init__(self, value=0.0):
        self.value = float(value)

    def fields(self):
        return (Field("value", np.float64, None),)


class Doubler(RedObj):
    """Overrides the packing protocol — the non-default per-record path."""

    __slots__ = ("value",)

    def __init__(self, value=0.0):
        self.value = float(value)

    def fields(self):
        return (Field("value", np.float64, "sum"),)

    def pack_into(self, rec):
        rec["value"] = self.value * 2.0

    @classmethod
    def unpack_from(cls, rec):
        return cls(float(rec["value"]) / 2.0)


class TestPackingProtocol:
    def test_custom_pack_unpack_overrides_are_honored(self):
        payload = serialize_map(KeyedMap({0: Doubler(3.0)}), "columnar")
        packed = PackedMap.from_bytes(payload)
        assert packed.records["value"][0] == 6.0  # custom pack ran
        assert deserialize_map(payload)[0].value == 3.0  # custom unpack ran

    def test_pack_map_sorts_keys(self):
        packed = pack_map(KeyedMap({9: CountObj(1), 2: CountObj(2), 5: CountObj(3)}))
        assert packed.keys.tolist() == [2, 5, 9]
        assert packed.records["count"].tolist() == [2, 3, 1]

    def test_eligibility_flags(self):
        assert pack_map(KeyedMap({0: SumCountObj(1.0, 1)})).vector_mergeable
        assert not pack_map(KeyedMap({0: Unmerged(1.0)})).vector_mergeable
        assert pack_map(KeyedMap({0: HoldAllObj(3)})) is None
        assert pack_map(KeyedMap()) is None


def merge_sumcount(red, com):
    com.total += red.total
    com.count += red.count
    return com


def merge_minmax(red, com):
    com.lo = min(com.lo, red.lo)
    com.hi = max(com.hi, red.hi)
    return com


def merge_cluster(red, com):
    com.vec_sum += red.vec_sum
    com.size += red.size
    return com


def merge_gradient(red, com):
    com.grad += red.grad
    com.count += red.count
    com.loss += red.loss
    return com


def merge_unmerged(red, com):
    com.value += red.value
    return com


class TestVectorizedMergeKernel:
    """PackedMap.merge_from must match per-object Python merges exactly."""

    def _rank_maps(self, seed=0):
        rng = np.random.default_rng(seed)
        a = KeyedMap(
            {int(k): SumCountObj(float(rng.standard_normal()), int(k) % 5 + 1)
             for k in rng.choice(200, size=60, replace=False)}
        )
        b = KeyedMap(
            {int(k): SumCountObj(float(rng.standard_normal()), int(k) % 3 + 1)
             for k in rng.choice(200, size=60, replace=False)}
        )
        return a, b

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_python_merge(self, seed):
        a, b = self._rank_maps(seed)
        expected = deserialize_map(serialize_map(a))  # deep copy via pickle
        expected.merge_map(b, merge_sumcount)
        packed = pack_map(a)
        packed.merge_from(pack_map(b))
        assert _map_state(packed.to_map()) == _map_state(expected)

    def test_min_max_ufuncs(self):
        a = KeyedMap({0: _minmax(-1.0, 2.0), 1: _minmax(0.0, 0.0)})
        b = KeyedMap({0: _minmax(-3.0, 1.0), 2: _minmax(5.0, 6.0)})
        expected = deserialize_map(serialize_map(a))
        expected.merge_map(b, merge_minmax)
        packed = pack_map(a)
        packed.merge_from(pack_map(b))
        assert _map_state(packed.to_map()) == _map_state(expected)

    def test_keep_fields_prefer_combination_side(self):
        com = KeyedMap({0: _cluster([1.0, 1.0], [2.0, 2.0], 2)})
        red = KeyedMap({0: _cluster([9.0, 9.0], [3.0, 3.0], 3)})
        packed = pack_map(com)
        packed.merge_from(pack_map(red))
        merged = packed.to_map()[0]
        assert merged.centroid.tolist() == [1.0, 1.0]  # kept, not summed
        assert merged.vec_sum.tolist() == [5.0, 5.0]
        assert merged.size == 5

    def test_merge_into_empty_and_from_empty(self):
        full = pack_map(KeyedMap({1: CountObj(2)}))
        empty = PackedMap(CountObj, full.keys[:0], full.records[:0], full.merges)
        empty.merge_from(full)
        assert _map_state(empty.to_map()) == _map_state(full.to_map())
        full.merge_from(
            PackedMap(CountObj, full.keys[:0], full.records[:0], full.merges)
        )
        assert full.keys.tolist() == [1]

    def test_schema_mismatch_rejected(self):
        a = pack_map(KeyedMap({0: CountObj(1)}))
        b = pack_map(KeyedMap({0: SumCountObj(1.0, 1)}))
        with pytest.raises(ValueError, match="schema"):
            a.merge_from(b)

    def test_identity_padding(self):
        packed = pack_map(KeyedMap({2: _minmax(-1.0, 1.0)}))
        union = np.array([1, 2, 3], dtype=np.int64)
        expanded = packed.expand_to(union)
        assert expanded["lo"][0] == np.inf and expanded["hi"][0] == -np.inf
        assert expanded["lo"][1] == -1.0 and expanded["hi"][1] == 1.0


class TestSchedArgsKnob:
    def test_default_is_pickle(self):
        assert ExecutionPolicy().combine.wire_format == "pickle"

    def test_columnar_accepted(self):
        assert CombinePolicy(wire_format="columnar").wire_format == "columnar"

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="wire_format"):
            CombinePolicy(wire_format="json")

    def test_allreduce_algorithm_rejected(self):
        # The text may come from outside (a JobSpec, conform --policy):
        # the error names the values that are valid.
        with pytest.raises(ValueError, match=r"'gather', 'tree'.*'allreduce'"):
            ExecutionPolicy.parse("algo=allreduce")


ALGORITHMS = COMBINE_ALGORITHMS
FORMATS = ("pickle", "columnar")


LAYOUTS = {
    # shared and rank-private keys: the padded union reduce
    "mixed": lambda rank: {rank: SumCountObj(rank + 0.5, 1),
                           100: SumCountObj(1.0 / (rank + 1), 2),
                           100 + rank % 2: SumCountObj(2.0, 1)},
    # rank r holds keys [10r, 10r+5): concatenated in rank order
    "position_keyed": lambda rank: {k: SumCountObj(k / 3 - rank, k % 4)
                                    for k in range(10 * rank, 10 * rank + 5)},
}


def _combine_body(comm, algorithm, wire_format, layout="mixed"):
    local = KeyedMap(LAYOUTS[layout](comm.rank))
    merged = global_combine(
        comm, local, merge_sumcount,
        combine=CombinePolicy(algorithm=algorithm, wire_format=wire_format),
    )
    return _map_state(merged)


class TestCombineOnCluster:
    @pytest.mark.parametrize("ranks", [2, 3, 5])
    def test_all_algorithms_and_formats_bit_identical(self, ranks):
        for layout in LAYOUTS:
            reference = None
            for algorithm in ALGORITHMS:
                for wire_format in FORMATS:
                    results = spmd_launch(
                        ranks, _combine_body,
                        args_per_rank=[(algorithm, wire_format, layout)] * ranks,
                        timeout=30,
                    )
                    assert all(r == results[0] for r in results)
                    if reference is None:
                        reference = results[0]
                    assert results[0] == reference, (layout, algorithm, wire_format)

    def test_allreduce_with_one_empty_rank(self):
        def body(comm):
            if comm.rank == 1:
                local = KeyedMap()
            else:
                local = KeyedMap({0: SumCountObj(float(comm.rank), 1)})
            merged = global_combine(
                comm, local, merge_sumcount,
                combine=CombinePolicy(wire_format="columnar"),
            )
            return _map_state(merged)

        results = spmd_launch(3, body, timeout=30)
        assert all(r == results[0] for r in results)
        assert results[0][0] == {"total": 2.0, "count": 2}

    @pytest.mark.parametrize("keys_of, padded", [
        # every rank votes the same keys
        pytest.param(lambda rank: [0, 1, 2], True, id="identical"),
        # position-keyed: ordered, disjoint, concatenated
        pytest.param(lambda rank: [10 * rank, 10 * rank + 1], False,
                     id="ordered_disjoint"),
        # general: np.union1d
        pytest.param(lambda rank: [rank, rank + 1, 50 - rank], True,
                     id="overlapping"),
        # ordered and disjoint, rank 1 holds nothing: still concatenated
        pytest.param(lambda rank: [] if rank == 1 else [10 * rank, 10 * rank + 1],
                     False, id="disjoint_empty_middle"),
        # every rank votes a one-key run
        pytest.param(lambda rank: [5 * rank], False, id="single_key_runs"),
        # runs with gaps between them: [0..9], [20..29], [40..49]
        pytest.param(lambda rank: list(range(20 * rank, 20 * rank + 10)), False,
                     id="runs_with_gaps"),
        # the same run on every rank: the union path
        pytest.param(lambda rank: list(range(10)), True, id="identical_runs"),
        # runs beside a rank voting scattered keys, ordered and disjoint
        pytest.param(lambda rank: [12, 15, 19] if rank == 1
                     else list(range(20 * rank, 20 * rank + 10)),
                     False, id="run_beside_scattered"),
        # runs overlapping a rank voting scattered keys
        pytest.param(lambda rank: [3, 7, 40] if rank == 1
                     else list(range(5 * rank, 5 * rank + 10)),
                     True, id="run_overlapping_scattered"),
    ])
    def test_allreduce_key_union_matches_gather(self, keys_of, padded):
        profiler = TrafficProfiler()

        def body(comm, vote):
            local = KeyedMap({k: SumCountObj(k + comm.rank / 4, 1)
                              for k in keys_of(comm.rank)})
            if not vote:
                return _map_state(_combine_gather(comm, local, merge_sumcount, "pickle"))
            return _map_state(global_combine(comm, local, merge_sumcount))

        fast = spmd_launch(3, body, args_per_rank=[(True,)] * 3,
                           profiler=profiler, timeout=30)
        slow = spmd_launch(3, body, args_per_rank=[(False,)] * 3, timeout=30)
        assert fast == slow and list(fast[0]) == sorted(fast[0])
        if padded:
            # One union-sized contribution buffer per rank, shortcut or not.
            assert profiler.snapshot()["wire.allreduce"] == (3, 3 * len(fast[0]) * 16)
        else:
            # One own-sized buffer per rank: together, the union once.
            assert profiler.snapshot()["wire.allreduce"] == (3, len(fast[0]) * 16)

    def test_run_vote_bytes_do_not_grow_with_keys(self):
        """Contiguous keys vote their run, so the vote's allgather moves
        the same bytes for 1 024 keys a rank as for 65 536."""
        # Pickle sizes an int by its magnitude: keep every run bound in
        # the same (4-byte) range.
        base = 1 << 20

        def vote_bytes(n):
            profiler = TrafficProfiler()

            def body(comm):
                records = np.zeros(n, dtype=[("total", "f8"), ("count", "i8")])
                lo = base + comm.rank * n
                keys = np.arange(lo, lo + n, dtype=np.int64)
                local = PackedMap(SumCountObj, keys, records, ("sum", "sum")).to_map()
                merged = global_combine(comm, local, merge_sumcount)
                return len(merged)

            assert spmd_launch(2, body, profiler=profiler, timeout=30) == [2 * n] * 2
            snap = profiler.snapshot()
            # The records allgather is the wire.allreduce tally; the rest is the vote.
            return snap["allgather"][1] - snap["wire.allreduce"][1]

        assert vote_bytes(1024) == vote_bytes(65536)

    @pytest.mark.parametrize("ranks", [2, 3, 5])
    @pytest.mark.parametrize("kind", ["cluster", "gradient"])
    def test_keep_fields_vote_like_gather(self, kind, ranks):
        """k-means and LR maps combine on the vote path, whatever the
        algorithm and wire, and match gather's rank-order merge byte for
        byte: shared keys, a key one rank lacks, a key rank 0 lacks (its
        keep value comes from rank 1), and keep values of -0.0 and NaN."""

        def nan(payload):
            return np.array([0x7FF8_0000_0000_0000 + payload], np.uint64).view(np.float64)[0]

        def make(keep, r):
            if kind == "cluster":
                return _cluster(keep, [r + 0.5, 2.0 * r], r + 1)
            return _gradient(keep, [r, 1.5], r + 2, r / 4)

        def local_map(rank):
            merge = merge_cluster if kind == "cluster" else merge_gradient
            # Shared by every rank; rank 0 owns it, the others disagree.
            entries = {0: make([-0.0, nan(1)] if rank == 0 else [2.0 + rank, nan(1 + rank)],
                               rank)}
            if rank != 1:
                entries[3] = make([1.5, -0.0], rank)  # rank 1 lacks it
            if rank != 0:
                # Ranks disagree: the lowest holder, rank 1, owns the value.
                entries[9] = make([float(rank), nan(rank)], rank)
            return KeyedMap(entries), merge

        def as_bytes(merged):
            packed = pack_map(merged)
            return packed.cls, packed.keys.tobytes(), packed.records.tobytes()

        def body(comm, algorithm, wire_format):
            local, merge = local_map(comm.rank)
            if algorithm is None:
                return as_bytes(_combine_gather(comm, local, merge, "pickle"))
            return as_bytes(global_combine(
                comm, local, merge,
                combine=CombinePolicy(algorithm=algorithm, wire_format=wire_format)))

        reference = spmd_launch(ranks, body, args_per_rank=[(None, None)] * ranks,
                                timeout=30)
        assert all(r == reference[0] for r in reference)
        for algorithm in ALGORITHMS:
            for wire_format in FORMATS:
                profiler = TrafficProfiler()
                got = spmd_launch(ranks, body,
                                  args_per_rank=[(algorithm, wire_format)] * ranks,
                                  profiler=profiler, timeout=30)
                assert got == reference, (algorithm, wire_format)
                wires = [op for op in profiler.snapshot() if op.startswith("wire.")]
                assert wires == ["wire.allreduce"], (algorithm, wire_format)

    def test_mixed_eligibility_votes_fall_back_collectively(self):
        """One rank holding a schemaless map must veto the short-circuit
        for everyone (no rank may diverge into a different collective)."""

        def body(comm):
            if comm.rank == 0:
                holder = HoldAllObj(8)
                holder.add(0, 1.0)
                local = KeyedMap({1000: holder})
            else:
                local = KeyedMap({comm.rank: SumCountObj(1.0, 1)})

            def merge(red, com):  # keys never collide across classes here
                raise AssertionError("no overlapping keys in this test")

            merged = global_combine(
                comm, local, merge,
                combine=CombinePolicy(algorithm="gather", wire_format="columnar"),
            )
            return sorted(merged.keys())

        results = spmd_launch(3, body, timeout=30)
        assert all(r == [1, 2, 1000] for r in results)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_subcommunicator_combine(self, algorithm):
        """Combination over GroupComm subcommunicators (split by parity)
        must stay within each group and agree with a local reference."""

        def body(comm):
            group = split_comm(comm, color=comm.rank % 2, key=comm.rank)
            local = KeyedMap({0: SumCountObj(comm.rank + 1.0, 1)})
            merged = global_combine(
                comm=group, local_map=local, merge=merge_sumcount,
                combine=CombinePolicy(algorithm=algorithm, wire_format="columnar"),
            )
            return comm.rank % 2, _map_state(merged)

        results = spmd_launch(6, body, timeout=30)
        for color, state in results:
            members = [r for r in range(6) if r % 2 == color]
            assert state[0] == {
                "total": float(sum(r + 1 for r in members)),
                "count": len(members),
            }

    def test_columnar_reduces_wire_bytes(self):
        """The acceptance tally: a map the vote cannot combine moves
        fewer bytes under the columnar format than under pickle."""
        tallies = {}
        for wire_format in FORMATS:
            profiler = TrafficProfiler()

            def body(comm, fmt=wire_format):
                local = KeyedMap({k: Unmerged(float(k)) for k in range(300)})
                global_combine(
                    comm, local, merge_unmerged,
                    combine=CombinePolicy(algorithm="tree", wire_format=fmt),
                )

            spmd_launch(2, body, profiler=profiler, timeout=30)
            snapshot = profiler.snapshot()
            tallies[wire_format] = sum(
                total for op, (_c, total) in snapshot.items()
                if op.startswith("wire.")
            )
        assert tallies["columnar"] < tallies["pickle"]

    def test_allreduce_tallies_contiguous_buffer_bytes(self):
        profiler = TrafficProfiler()

        def body(comm):
            local = KeyedMap({k: SumCountObj(1.0, 1) for k in range(64)})
            global_combine(comm, local, merge_sumcount)

        spmd_launch(2, body, profiler=profiler, timeout=30)
        snapshot = profiler.snapshot()
        count, total = snapshot["wire.allreduce"]
        assert count == 2  # one contribution buffer per rank
        assert total == 2 * 64 * 16  # 64 records of (f64 total, i64 count)
