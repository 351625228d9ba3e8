"""Reduction/combination maps: merge-or-move semantics."""

import sys
import threading

import numpy as np
import pytest

from repro.analytics import CountObj, SumCountObj
from repro.core import KeyedMap
from repro.core.serialization import deserialize_map, pack_map, serialize_map


def merge_counts(red, com):
    com.count += red.count
    return com


class TestDictSurface:
    def test_set_get_contains(self):
        m = KeyedMap()
        m[3] = CountObj(5)
        assert 3 in m
        assert m[3].count == 5
        assert len(m) == 1

    def test_key_coerced_to_int(self):
        m = KeyedMap()
        m[True] = CountObj(1)  # bool is an int subtype; stored as int
        assert list(m.keys()) == [1]

    def test_non_red_obj_rejected(self):
        m = KeyedMap()
        with pytest.raises(TypeError):
            m[0] = "not a red obj"

    def test_delete_and_pop(self):
        m = KeyedMap({1: CountObj(1), 2: CountObj(2)})
        del m[1]
        obj = m.pop(2)
        assert obj.count == 2
        assert len(m) == 0

    def test_get_default(self):
        assert KeyedMap().get(9) is None

    def test_sorted_items(self):
        m = KeyedMap()
        m[5] = CountObj(1)
        m[1] = CountObj(2)
        assert [k for k, _ in m.sorted_items()] == [1, 5]

    def test_iteration_is_insertion_order(self):
        m = KeyedMap()
        m[5] = CountObj(1)
        m[1] = CountObj(2)
        assert list(m) == [5, 1]


class TestMergeSemantics:
    def test_move_when_key_absent(self):
        m = KeyedMap()
        obj = CountObj(4)
        m.merge_in(7, obj, merge_counts)
        assert m[7] is obj  # moved, not copied

    def test_merge_when_key_present(self):
        m = KeyedMap({7: CountObj(10)})
        m.merge_in(7, CountObj(4), merge_counts)
        assert m[7].count == 14

    def test_merge_map_combines_all(self):
        a = KeyedMap({1: CountObj(1), 2: CountObj(2)})
        b = KeyedMap({2: CountObj(20), 3: CountObj(30)})
        a.merge_map(b, merge_counts)
        assert {k: v.count for k, v in a.items()} == {1: 1, 2: 22, 3: 30}

    def test_merge_result_type_checked(self):
        m = KeyedMap({0: CountObj(1)})
        with pytest.raises(TypeError):
            m.merge_in(0, CountObj(1), lambda r, c: "broken")


class TestCloneAndAudit:
    def test_clone_is_deep(self):
        m = KeyedMap({0: SumCountObj(1.0, 1)})
        c = m.clone()
        c[0].total = 99.0
        assert m[0].total == 1.0

    def test_state_nbytes_positive(self):
        m = KeyedMap({0: CountObj(1), 1: CountObj(2)})
        assert m.state_nbytes() > 0

    def test_clear(self):
        m = KeyedMap({0: CountObj(1)})
        m.clear()
        assert len(m) == 0


# ---------------------------------------------------------------------------
# Lazily materialised (PackedMap-backed) maps
# ---------------------------------------------------------------------------

def merge_sum_count(red, com):
    com.total += red.total
    com.count += red.count
    return com


CONTENTS = {7: (1.5, 2), 2: (-0.25, 1), 40: (8.0, 3)}


def eager(contents=CONTENTS):
    return KeyedMap({k: SumCountObj(t, c) for k, (t, c) in contents.items()})


def backed(contents=CONTENTS):
    m = pack_map(eager(contents)).to_map()
    assert m.packed is not None
    return m


def state(m):
    return {k: (o.total, o.count) for k, o in m.items()}


def _do_setitem(m):
    m[9] = SumCountObj(9.0, 9)
    return state(m)


def _do_delitem(m):
    del m[7]
    return state(m)


def _do_pop(m):
    obj = m.pop(2)
    return (obj.total, obj.count), state(m)


def _do_merge_in(m):
    m.merge_in(7, SumCountObj(1.0, 1), merge_sum_count)
    m.merge_in(8, SumCountObj(2.0, 1), merge_sum_count)
    return state(m)


def _do_clear(m):
    m.clear()
    return len(m), state(m)


def _do_replace_contents(m):
    fresh = KeyedMap()
    fresh.replace_contents(m)
    return len(m), state(fresh)


def _do_replace_items(m):
    m.replace_items([2, 3], [SumCountObj(5.0, 5), SumCountObj(6.0, 6)])
    return state(m)


#: One entry per public ``KeyedMap`` method: name -> result to compare.
SURFACE = {
    "len": len,
    "contains": lambda m: (7 in m, 8 in m),
    "iter": lambda m: sorted(m),
    "getitem": lambda m: (m[40].total, m[40].count),
    "setitem": _do_setitem,
    "delitem": _do_delitem,
    "get": lambda m: (m.get(2).total, m.get(3)),
    "pop": _do_pop,
    "keys": lambda m: sorted(m.keys()),
    "items": state,
    "values": lambda m: sorted((o.total, o.count) for o in m.values()),
    "clear": _do_clear,
    "sorted_items": lambda m: [(k, o.total, o.count) for k, o in m.sorted_items()],
    "merge_in": _do_merge_in,
    "merge_map": lambda m: (m.merge_map(eager({7: (1.0, 1), 8: (2.0, 2)}),
                                        merge_sum_count), state(m))[1],
    "merge_map_backed": lambda m: (m.merge_map(backed({7: (1.0, 1), 8: (2.0, 2)}),
                                               merge_sum_count), state(m))[1],
    "clone": lambda m: state(m.clone()),
    "state_nbytes": lambda m: m.state_nbytes(),
    "replace_contents": _do_replace_contents,
    "replace_items": _do_replace_items,
    "pack_map": lambda m: pack_map(m).to_bytes(),
    "serialize_pickle": lambda m: state(deserialize_map(serialize_map(m, "pickle"))),
}


class TestBackedMapContract:
    @pytest.mark.parametrize("method", sorted(SURFACE))
    def test_backed_equals_eager(self, method):
        assert SURFACE[method](backed()) == SURFACE[method](eager())

    def test_surface_table_covers_every_public_method(self):
        public = {n for n in vars(KeyedMap)
                  if not n.startswith("_") and n not in ("from_trusted_items",
                                                         "from_packed", "packed")}
        dunders = {"len", "contains", "iter", "getitem", "setitem", "delitem"}
        assert public <= set(SURFACE) and dunders <= set(SURFACE)

    @pytest.mark.parametrize("op", [
        len,
        KeyedMap.clear,
        KeyedMap.clone,
        pack_map,
        lambda m: serialize_map(m, "columnar"),
        lambda m: KeyedMap().replace_contents(m),
        lambda m: KeyedMap().merge_map(m, merge_sum_count),
        lambda m: m.merge_map(backed({7: (1.0, 1), 8: (2.0, 2)}), merge_sum_count),
    ], ids=["len", "clear", "clone", "pack_map", "serialize_columnar",
            "replace_contents", "merge_map_into_empty", "merge_map_backed"])
    def test_array_level_methods_build_no_objects(self, op, monkeypatch):
        m = backed()
        monkeypatch.setattr(type(m.packed), "objects", lambda self: pytest.fail(
            "materialised objects"))
        op(m)

    def test_state_nbytes_leaves_the_map_backed(self):
        # The audit measures objects built for it; the map keeps its columns.
        m = backed()
        assert m.state_nbytes() == eager().state_nbytes()
        assert m.packed is not None

    def test_materialised_backed_map_iterates_in_ascending_key_order(self):
        assert list(backed()) == [2, 7, 40]
        assert list(eager()) == [7, 2, 40]  # object-built: insertion order


class TestBackedMapAliasing:
    def test_mutation_never_writes_through_to_the_backing(self):
        m = backed()
        packed = m.packed
        before = packed.to_bytes()
        m[7].total = 99.0          # materialises, then mutates an object
        m[3] = SumCountObj(3.0, 3)
        assert m.packed is None
        assert packed.to_bytes() == before
        # ...and pack_map now repacks from the objects.
        repacked = pack_map(m)
        assert repacked is not packed
        assert repacked.keys.tolist() == [2, 3, 7, 40]
        assert repacked.records["total"].tolist() == [-0.25, 3.0, 99.0, 8.0]

    def test_pack_map_of_backed_map_is_the_live_backing(self):
        m = backed()
        assert pack_map(m) is m.packed

    def test_clone_of_backed_map_shares_no_arrays(self):
        m = backed()
        c = m.clone()
        assert c.packed is not None and c.packed is not m.packed
        assert not np.shares_memory(c.packed.keys, m.packed.keys)
        assert not np.shares_memory(c.packed.records, m.packed.records)
        c.merge_map(backed({7: (1.0, 1)}), merge_sum_count)  # in-place merge_from
        assert m[7].total == 1.5

    def test_replace_contents_moves_ownership(self):
        source = backed()
        packed = source.packed
        target = KeyedMap({1: SumCountObj(0.0, 0)})
        target.replace_contents(source)
        assert target.packed is packed
        assert len(source) == 0 and source.packed is None
        source[5] = SumCountObj(5.0, 5)  # the drained map is reusable
        assert state(target) == state(eager())

    def test_merge_map_adoption_copies(self):
        # Local combination: the combination map adopts a reduction
        # map's columns; reusing the reduction map must not reach it.
        red = backed()
        com = KeyedMap()
        com.merge_map(red, merge_sum_count)
        assert com.packed is not None and com.packed is not red.packed
        assert not np.shares_memory(com.packed.records, red.packed.records)
        com.merge_map(red, merge_sum_count)  # merge_from mutates com's backing
        assert state(red) == state(eager())
        assert com[7].total == 3.0 and com[7].count == 4

    def test_backed_merge_matches_merge_callback(self):
        a, b = {1: (1.0, 1), 5: (2.0, 2)}, {0: (4.0, 1), 5: (0.5, 1), 9: (1.0, 1)}
        via_arrays = backed(a)
        via_arrays.merge_map(backed(b), merge_sum_count)
        via_objects = eager(a)
        via_objects.merge_map(eager(b), merge_sum_count)
        assert via_arrays.packed is not None
        assert state(via_arrays) == state(via_objects)

    def test_schema_mismatch_falls_back_to_merge_callback(self):
        counts = pack_map(KeyedMap({1: CountObj(2)})).to_map()
        m = backed({1: (1.0, 1)})
        calls = []
        m.merge_map(counts, lambda red, com: calls.append(type(red)) or com)
        assert calls == [CountObj] and m.packed is None


def test_concurrent_readers_never_see_a_half_materialised_map():
    # Engine threads share the combination map read-only (gen_key reads
    # it); whichever reader materialises it, none may find it empty.
    contents = {k: (float(k), k) for k in range(2000)}
    failures = []

    def read(m, start):
        start.wait(timeout=10)
        try:
            if len(m) != 2000 or m[1999].count != 1999 or 0 not in m:
                failures.append("partial view")
        except KeyError as exc:
            failures.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            m, start = backed(contents), threading.Event()
            threads = [threading.Thread(target=read, args=(m, start))
                       for _ in range(8)]
            for t in threads:
                t.start()
            start.set()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not failures
