"""Scheduler: Algorithm 1 execution flow."""

import numpy as np
import pytest

from repro.analytics import CountObj, SumCountObj
from repro.comm import spmd_launch
from repro.core import EnginePolicy, ExecutionPolicy, KeyedMap, Scheduler


class ParityCount(Scheduler):
    """Counts even/odd integers: key 0 or 1, CountObj value."""

    def gen_key(self, chunk, data, combination_map):
        return int(data[chunk.start]) % 2

    def accumulate(self, chunk, data, red_obj, key):
        if red_obj is None:
            red_obj = CountObj()
        red_obj.count += 1
        return red_obj

    def merge(self, red_obj, com_obj):
        com_obj.count += red_obj.count
        return com_obj

    def convert(self, red_obj, out, key):
        out[key] = red_obj.count


class IterativeMean(Scheduler):
    """Single key; post_combine computes a running mean and resets.

    Exercises the seeded-reduction-map path (Algorithm 1 line 6) with the
    identity-after-post_combine contract.
    """

    seed_reduction_maps = True

    def process_extra_data(self, extra_data, combination_map):
        if 0 not in combination_map:
            combination_map[0] = SumCountObj()

    def accumulate(self, chunk, data, red_obj, key):
        red_obj.total += float(data[chunk.start])
        red_obj.count += 1
        return red_obj

    def merge(self, red_obj, com_obj):
        com_obj.total += red_obj.total
        com_obj.count += red_obj.count
        return com_obj

    def post_combine(self, combination_map):
        obj = combination_map[0]
        self.last_mean = obj.total / obj.count if obj.count else None
        obj.total = 0.0
        obj.count = 0


class TestBasicRun:
    def test_counts_match(self):
        data = np.array([0, 1, 2, 3, 4, 5, 6], dtype=float)
        app = ParityCount(ExecutionPolicy())
        app.run(data)
        counts = {k: v.count for k, v in app.get_combination_map().items()}
        assert counts == {0: 4, 1: 3}

    def test_returns_combination_map_without_out(self):
        app = ParityCount(ExecutionPolicy())
        result = app.run(np.zeros(3))
        assert isinstance(result, KeyedMap)

    def test_out_array_filled_and_returned(self):
        app = ParityCount(ExecutionPolicy())
        out = np.zeros(2, dtype=np.int64)
        returned = app.run(np.array([1.0, 2.0, 3.0]), out)
        assert returned is out
        assert list(out) == [1, 2]

    def test_keys_beyond_out_len_skipped(self):
        app = ParityCount(ExecutionPolicy())
        out = np.zeros(1, dtype=np.int64)  # key 1 does not fit
        app.run(np.array([1.0, 2.0]), out)
        assert out[0] == 1

    def test_multidim_input_flattened(self):
        app = ParityCount(ExecutionPolicy())
        app.run(np.arange(6, dtype=float).reshape(2, 3))
        assert app.get_combination_map()[0].count == 3

    def test_empty_input(self):
        app = ParityCount(ExecutionPolicy())
        app.run(np.empty(0))
        assert len(app.get_combination_map()) == 0

    def test_results_accumulate_across_runs(self):
        # The combination map persists across time-steps unless reset().
        app = ParityCount(ExecutionPolicy())
        app.run(np.array([2.0]))
        app.run(np.array([4.0]))
        assert app.get_combination_map()[0].count == 2

    def test_reset_clears_state(self):
        app = ParityCount(ExecutionPolicy())
        app.run(np.array([2.0]))
        app.reset()
        assert len(app.get_combination_map()) == 0

    def test_list_input_accepted(self):
        app = ParityCount(ExecutionPolicy())
        app.run([1.0, 2.0, 3.0])
        assert app.get_combination_map()[1].count == 2


class TestPartitioningKnobs:
    @pytest.mark.parametrize("threads", [1, 2, 5])
    @pytest.mark.parametrize("block", [None, 3, 100])
    def test_result_invariant_to_threads_and_blocks(self, threads, block):
        data = np.arange(31, dtype=float)
        app = ParityCount(
            ExecutionPolicy(engine=EnginePolicy(num_threads=threads), block_size=block)
        )
        app.run(data)
        counts = {k: v.count for k, v in app.get_combination_map().items()}
        assert counts == {0: 16, 1: 15}

    def test_real_thread_pool_matches_sequential(self):
        data = np.arange(200, dtype=float)
        seq = ParityCount(ExecutionPolicy(engine=EnginePolicy(num_threads=4)))
        par = ParityCount(
            ExecutionPolicy(engine=EnginePolicy(backend="thread", num_threads=4))
        )
        seq.run(data)
        par.run(data)
        assert {k: v.count for k, v in seq.get_combination_map().items()} == {
            k: v.count for k, v in par.get_combination_map().items()
        }

    def test_copy_input_does_not_change_results(self):
        data = np.arange(10, dtype=float)
        a = ParityCount(ExecutionPolicy())
        b = ParityCount(ExecutionPolicy(copy_input=True))
        a.run(data)
        b.run(data)
        assert a.get_combination_map()[0].count == b.get_combination_map()[0].count


class TestIterativeSeeding:
    def test_num_iters_runs_iterations(self):
        data = np.array([1.0, 2.0, 3.0])
        app = IterativeMean(ExecutionPolicy(num_iters=4))
        app.run(data)
        assert app.telemetry.counter("run.iterations_run") == 4
        assert app.last_mean == 2.0

    def test_seeded_maps_do_not_double_count(self):
        # The identity contract: post_combine resets mergeable fields, so
        # seeding clones into several thread maps must not multiply-count.
        data = np.arange(12, dtype=float)
        app = IterativeMean(
            ExecutionPolicy(engine=EnginePolicy(num_threads=4), num_iters=3)
        )
        app.run(data)
        assert app.last_mean == pytest.approx(5.5)

    @pytest.mark.parametrize("schema", [True, False])
    def test_each_thread_gets_a_private_copy(self, schema):
        """A map with a schema seeds by array copy (no object until one is
        read); a schemaless one clones its objects."""

        class Bare(SumCountObj):
            __slots__ = ()

            def fields(self):
                return None

        app = IterativeMean(ExecutionPolicy(engine=EnginePolicy(num_threads=3)))
        app.combination_map_[0] = SumCountObj(2.5, 1) if schema else Bare(2.5, 1)
        maps = app._make_reduction_maps()
        assert [m.packed is not None for m in maps] == [schema] * 3
        maps[0][0].total += 1.0
        assert type(maps[1][0]) is type(app.combination_map_[0])
        assert (maps[1][0].total, maps[1][0].count) == (2.5, 1)
        assert app.combination_map_[0].total == 2.5


class TestGlobalCombination:
    def test_results_rank_invariant(self):
        data = np.arange(40, dtype=float)

        def body(comm):
            part = np.array_split(data, comm.size)[comm.rank]
            app = ParityCount(ExecutionPolicy(), comm)
            app.run(part)
            return {k: v.count for k, v in app.get_combination_map().items()}

        for n in (1, 2, 4):
            for counts in spmd_launch(n, body, timeout=30):
                assert counts == {0: 20, 1: 20}

    def test_disabled_global_combination_keeps_local_results(self):
        data = np.arange(6, dtype=float)

        def body(comm):
            part = np.array_split(data, comm.size)[comm.rank]
            app = ParityCount(ExecutionPolicy(), comm)
            app.set_global_combination(False)
            app.run(part)
            return sum(v.count for v in app.get_combination_map().values())

        totals = spmd_launch(2, body, timeout=30)
        assert totals == [3, 3]  # each rank kept only its partition

    def test_global_combination_counter(self):
        def body(comm):
            app = ParityCount(ExecutionPolicy(num_iters=3), comm)
            app.run(np.arange(4, dtype=float))
            return app.telemetry.counter("run.global_combinations")

        assert spmd_launch(2, body, timeout=30) == [3, 3]


class TestStats:
    def test_chunk_and_accumulate_counting(self):
        app = ParityCount(ExecutionPolicy())
        app.run(np.arange(10, dtype=float))
        assert app.telemetry.counter("run.chunks_processed") == 10
        assert app.telemetry.counter("run.accumulate_calls") == 10
        assert app.telemetry.counter("run.runs") == 1

    def test_peak_objects_tracked(self):
        app = ParityCount(ExecutionPolicy())
        app.run(np.arange(10, dtype=float))
        assert app.telemetry.counter("run.peak_red_objects") >= 2

    def test_reset_stats(self):
        app = ParityCount(ExecutionPolicy())
        app.run(np.arange(4, dtype=float))
        app.reset_stats()
        assert app.telemetry.counter("run.runs") == 0


class TestRun2Fallback:
    def test_run2_defaults_to_gen_key(self):
        # Without a gen_keys override, run2 degrades to run.
        data = np.array([1.0, 2.0, 3.0, 4.0])
        a = ParityCount(ExecutionPolicy())
        b = ParityCount(ExecutionPolicy())
        a.run(data)
        b.run2(data)
        assert {k: v.count for k, v in a.get_combination_map().items()} == {
            k: v.count for k, v in b.get_combination_map().items()
        }


class TestErrors:
    def test_accumulate_must_return_red_obj(self):
        class Broken(ParityCount):
            def accumulate(self, chunk, data, red_obj, key):
                return None

        # The error names the offending application class and the key,
        # not just the type contract.
        with pytest.raises(TypeError, match=r"Broken\.accumulate\(\)"):
            Broken(ExecutionPolicy()).run(np.zeros(1))

    def test_convert_required_when_out_given(self):
        class NoConvert(Scheduler):
            def accumulate(self, chunk, data, red_obj, key):
                return CountObj(1)

            def merge(self, red_obj, com_obj):
                return com_obj

        with pytest.raises(NotImplementedError, match="convert"):
            NoConvert(ExecutionPolicy()).run(np.zeros(1), np.zeros(1))
