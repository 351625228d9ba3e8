"""Combination-map wire format and global combination."""

import numpy as np

from repro.analytics import ClusterObj, CountObj
from repro.comm import TrafficProfiler, spmd_launch
from repro.core import (KeyedMap, RedObj, deserialize_map, global_combine, pack_map,
                        serialize_map)


class Tally(RedObj):
    """A count without a schema: combined by gather, not the key vote."""

    __slots__ = ("count",)

    def __init__(self, count):
        self.count = count


def merge_counts(red, com):
    com.count += red.count
    return com


class TestRoundTrip:
    def test_empty_map(self):
        assert len(deserialize_map(serialize_map(KeyedMap()))) == 0

    def test_counts_preserved(self):
        m = KeyedMap({3: CountObj(5), 1: CountObj(2)})
        restored = deserialize_map(serialize_map(m))
        assert {k: v.count for k, v in restored.items()} == {3: 5, 1: 2}

    def test_array_payload_preserved(self):
        m = KeyedMap({0: ClusterObj(np.array([1.0, 2.0]))})
        restored = deserialize_map(serialize_map(m))
        assert np.array_equal(restored[0].centroid, [1.0, 2.0])

    def test_payload_grows_with_keys(self):
        small = serialize_map(KeyedMap({0: CountObj(1)}))
        big = serialize_map(KeyedMap({k: CountObj(1) for k in range(100)}))
        assert len(big) > len(small)

    def test_pickling_a_backed_map_leaves_it_backed(self):
        """A map backed by columns pickles from its columns: it stays
        backed, and the bytes are those of its object form."""
        objects = KeyedMap({k: CountObj(3 * k + 1) for k in (2, 5, 7, 40)})
        backed = KeyedMap.from_packed(pack_map(objects))
        payload = serialize_map(backed, "pickle")
        assert backed.packed is not None
        materialised = backed.clone()
        materialised.items()  # builds its objects
        assert materialised.packed is None
        assert payload == serialize_map(materialised, "pickle")


class TestGlobalCombine:
    def test_single_rank_is_identity(self):
        from repro.comm import LocalComm

        m = KeyedMap({0: CountObj(1)})
        assert global_combine(LocalComm(), m, merge_counts) is m

    def test_merges_across_ranks(self):
        def body(comm):
            local = KeyedMap({comm.rank: CountObj(comm.rank + 1), 99: CountObj(1)})
            merged = global_combine(comm, local, merge_counts)
            return {k: v.count for k, v in merged.sorted_items()}

        results = spmd_launch(3, body, timeout=30)
        expected = {0: 1, 1: 2, 2: 3, 99: 3}
        assert all(r == expected for r in results)

    def test_all_ranks_receive_identical_state(self):
        def body(comm):
            local = KeyedMap({0: CountObj(1)})
            merged = global_combine(comm, local, merge_counts)
            # Mutating the local copy must not affect peers.
            merged[0].count += 100 * comm.rank
            comm.barrier()
            return merged[0].count

        results = spmd_launch(3, body, timeout=30)
        assert results == [3, 103, 203]

    def test_traffic_is_serialized_payloads(self):
        prof = TrafficProfiler()

        def body(comm):
            local = KeyedMap({k: Tally(1) for k in range(50)})
            global_combine(comm, local, merge_counts)

        spmd_launch(2, body, profiler=prof, timeout=30)
        # One gather of pickled payloads per rank + the broadcast back.
        payload = len(serialize_map(KeyedMap({k: Tally(1) for k in range(50)})))
        assert prof.bytes_for("gather") >= 2 * payload  # both ranks contribute
        assert prof.calls_for("bcast") == 1
