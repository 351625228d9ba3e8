"""Paper Table 1 parity: every documented API function exists here.

Table 1 lists nine functions provided by the runtime and seven
implemented by the user.  This test file is the checklist, mapping each
C++ signature to its Python counterpart — it fails if a rename ever
breaks the correspondence documented in docs/API.md.
"""

import inspect

import numpy as np
import pytest

import repro.core
from repro.core import EnginePolicy, ExecutionPolicy, RedObj, Scheduler


class TestRuntimeProvidedFunctions:
    """Table 1, upper half: functions provided by the runtime."""

    def test_1_sched_args(self):
        # Function 1's (int num_threads, size_t chunk_size,
        # const void* extra_data, int num_iters) are fields of the policy.
        args = ExecutionPolicy(
            engine=EnginePolicy(num_threads=2),
            chunk_size=4,
            extra_data=[1],
            num_iters=3,
        )
        assert (args.engine.num_threads, args.chunk_size, args.extra_data,
                args.num_iters) == (2, 4, [1], 3)
        # ... and the policy is the only configuration class exported.
        assert [n for n in repro.core.__all__ if n.endswith("Args")] == []
        # ... and no export names an optional compiler hook.
        assert [n for n in repro.core.__all__
                if "NJIT" in n.upper() or "NUMBA" in n.upper()] == []

    def test_2_scheduler_constructor(self):
        # explicit Scheduler(args) — the parameter is function 1's configuration
        sig = inspect.signature(Scheduler.__init__)
        assert "args" in sig.parameters

    def test_3_set_global_combination(self):
        # void set_global_combination(bool flag) — enabled by default
        sched = _CountAll(ExecutionPolicy())
        assert sched._global_combination is True
        sched.set_global_combination(False)
        assert sched._global_combination is False

    def test_4_get_combination_map(self):
        # const map<int, unique_ptr<RedObj>>& get_combination_map() const
        sched = _CountAll(ExecutionPolicy())
        sched.run(np.zeros(3))
        com_map = sched.get_combination_map()
        assert set(com_map.keys()) == {0}

    def test_5_run_single_key_time_sharing(self):
        # void run(const In* in, size_t in_len, Out* out, size_t out_len)
        sched = _CountAll(ExecutionPolicy())
        out = np.zeros(1)
        assert sched.run(np.zeros(5), out) is out
        assert out[0] == 5

    def test_6_run2_multi_key_time_sharing(self):
        # void run2(...) — gen_keys path
        sched = _CountPairs(ExecutionPolicy())
        sched.run2(np.zeros(4))
        assert {k: v.count for k, v in sched.get_combination_map().items()} == {
            0: 4, 1: 4,
        }

    def test_7_feed_space_sharing(self):
        # void feed(const In* in, size_t in_len)
        sched = _CountAll(ExecutionPolicy(buffer_capacity=2))
        sched.feed(np.zeros(3))
        assert len(sched._feed_buffer()) == 1

    def test_8_run_space_sharing(self):
        # void run(Out* out, size_t out_len) — data comes from feed()
        sched = _CountAll(ExecutionPolicy(buffer_capacity=2))
        sched.feed(np.zeros(7))
        out = np.zeros(1)
        sched.run(None, out)
        assert out[0] == 7

    def test_9_run2_space_sharing(self):
        # void run2(Out* out, size_t out_len)
        sched = _CountPairs(ExecutionPolicy(buffer_capacity=2))
        sched.feed(np.zeros(2))
        sched.run2(None)
        assert sched.get_combination_map()[1].count == 2


class TestUserImplementedFunctions:
    """Table 1, lower half: functions implemented by the user."""

    def test_1_gen_key(self):
        assert "combination_map" in inspect.signature(Scheduler.gen_key).parameters

    def test_2_gen_keys(self):
        assert "keys" in inspect.signature(Scheduler.gen_keys).parameters

    def test_3_accumulate_is_abstract(self):
        with pytest.raises(NotImplementedError):
            Scheduler(ExecutionPolicy()).accumulate(None, None, None, 0)

    def test_4_merge_is_abstract(self):
        with pytest.raises(NotImplementedError):
            Scheduler(ExecutionPolicy()).merge(None, None)

    def test_5_process_extra_data_default_noop(self):
        Scheduler(ExecutionPolicy()).process_extra_data({"any": 1}, None)

    def test_6_post_combine_default_noop(self):
        Scheduler(ExecutionPolicy()).post_combine(None)

    def test_7_convert_required_only_with_output(self):
        with pytest.raises(NotImplementedError):
            Scheduler(ExecutionPolicy()).convert(None, np.zeros(1), 0)


class TestSection4Extension:
    def test_trigger_on_red_obj(self):
        # Algorithm 2's trigger(): default false on the base class.
        assert RedObj().trigger() is False


# -- minimal applications used above -------------------------------------
class _Count(RedObj):
    __slots__ = ("count",)

    def __init__(self):
        self.count = 0


class _CountAll(Scheduler):
    def accumulate(self, chunk, data, red_obj, key):
        red_obj = red_obj or _Count()
        red_obj.count += 1
        return red_obj

    def merge(self, red_obj, com_obj):
        com_obj.count += red_obj.count
        return com_obj

    def convert(self, red_obj, out, key):
        out[key] = red_obj.count


class _CountPairs(_CountAll):
    def gen_keys(self, chunk, data, keys, combination_map):
        keys.extend([0, 1])
