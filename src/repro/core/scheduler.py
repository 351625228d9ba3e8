"""The Smart runtime scheduler (paper Sections 3.1, 3.4; Algorithms 1-2).

A :class:`Scheduler` subclass *is* an analytics application: the user
overrides the seven callbacks of the paper's Table 1 ("functions
implemented by the user") and the runtime provides the nine launch
functions ("functions provided by the runtime") — here folded into
:meth:`run` / :meth:`run2` (time sharing takes data explicitly; space
sharing feeds data via :meth:`feed` and calls ``run``/``run2`` with
``data=None``).

Execution flow per :meth:`run` (Algorithm 1):

1. ``process_extra_data`` initializes the combination map if needed.
2. For each iteration: reduction maps are (optionally) seeded from the
   combination map, the partition is processed block by block, each block
   split across threads, each split chunk by chunk —
   ``gen_key``/``gen_keys`` then ``accumulate`` (no intermediate key-value
   pair is ever materialized).
3. Early emission (Algorithm 2): after each accumulate, ``trigger()`` may
   finalize the reduction object straight into the output and drop it
   from the reduction map.
4. Local combination merges the per-thread reduction maps into the local
   combination map; global combination merges local maps across ranks
   (serialize → gather to master → merge → broadcast back).
5. ``post_combine`` updates state between iterations; ``convert`` writes
   the remaining combination map into the output array.

Python adaptation of the C++ signatures: references cannot be passed, so
``accumulate`` *returns* the (possibly newly allocated) reduction object
and ``merge`` *returns* the combined object; ``convert`` receives the
output array plus the key instead of ``out[key]``.
"""

from __future__ import annotations

import itertools
from typing import Any, Sequence

import numpy as np

from ..comm.interface import Communicator
from ..comm.local import LocalComm
from ..comm.reduce_ops import NANOVERLAY
from ..faults import EngineFaultError, FaultPlan
from ..telemetry import Recorder
from .batch import ColumnarAccumulator, array_form_stands
from .chunk import Chunk, Split, iter_blocks, make_splits
from .circular_buffer import CircularBuffer
from .engine import ExecutionEngine, create_engine
from .engine.base import join_keys
from .maps import KeyedMap
from .policy import ExecutionPolicy
from .red_obj import RedObj, ensure_red_obj
from .serialization import PackedMap, global_combine, pack_map


#: The paper's Table-1 map callbacks a batch kernel stands in for.
_MAP_CALLBACKS = frozenset({"gen_key", "gen_keys", "accumulate"})

#: Scheduler attributes that never ship to engine workers: parent-owned
#: infrastructure (locks, pools, arrays viewed through shared memory) and
#: state the process engine transfers through its own channels (the
#: layout context travels in the run header, the combination map in the
#: per-iteration delta, the input partition through shared memory).
_ENGINE_LOCAL_ATTRS = frozenset(
    {
        "policy",
        "comm",
        "combination_map_",
        "telemetry",
        "fault_plan",
        "data_",
        "out_",
        "global_offset_",
        "total_len_",
        "_engine",
        "_fed",
    }
)


class Scheduler:
    """Base class for Smart analytics applications.

    Parameters
    ----------
    args:
        Runtime configuration (Table 1, function 1): an
        :class:`~repro.core.policy.ExecutionPolicy`, kept as
        :attr:`policy`.
    comm:
        Communicator for global combination.  Defaults to a single-rank
        :class:`~repro.comm.local.LocalComm`; in-situ SPMD programs pass
        their rank's communicator (paper Listing 1/2).

    Class attributes subclasses may set
    -----------------------------------
    seed_reduction_maps:
        When True (iterative applications such as k-means), every
        reduction map is seeded with a clone of the combination map at
        the start of each iteration — Algorithm 1 line 6.  Requires the
        identity-after-``post_combine`` contract documented on
        :class:`~repro.core.red_obj.RedObj`.
    """

    seed_reduction_maps: bool = False

    def __init__(
        self,
        args: ExecutionPolicy,
        comm: Communicator | None = None,
    ):
        #: The layered runtime configuration this scheduler executes.
        if not isinstance(args, ExecutionPolicy):
            raise TypeError(
                "args must be an ExecutionPolicy, e.g. "
                "ExecutionPolicy(engine=EnginePolicy(num_threads=2)); "
                f"got {type(args).__name__}"
            )
        self.policy: ExecutionPolicy = args
        self.comm: Communicator = comm if comm is not None else LocalComm()
        self.combination_map_ = KeyedMap()
        self.telemetry = Recorder()
        #: Optional :class:`~repro.faults.FaultPlan` consulted by the
        #: execution engine (worker kill/hang injection).  ``None`` — the
        #: default — keeps every injection hook a no-op.
        self.fault_plan: FaultPlan | None = None
        self._engine: ExecutionEngine | None = None
        self._global_combination = True
        self._fed: CircularBuffer | None = None
        self._extra_processed = False
        # Per-run context visible to user callbacks (paper exposes the same
        # names with trailing underscores).
        self.data_: np.ndarray | None = None
        self.out_: np.ndarray | None = None
        self.global_offset_: int = 0
        self.total_len_: int = 0

    # ------------------------------------------------------------------
    # API implemented by the user (paper Table 1, lower half)
    # ------------------------------------------------------------------
    def gen_key(
        self, chunk: Chunk, data: np.ndarray, combination_map: KeyedMap
    ) -> int:
        """Generate the single key for a unit chunk.

        Read only ``chunk``'s elements, ``data[chunk.start:chunk.start +
        chunk.size]`` (Table 1).  The process engine's workers see only
        their own splits' bytes: a read past them gets bytes the engine
        never copied, and a silently wrong result (the ``residency`` property
        of :mod:`repro.verify` catches it).  This holds for every
        callback that takes ``data``.

        Default: key 0 — single-reduction-object applications (e.g.
        logistic regression) need not override.
        """
        return 0

    def gen_keys(
        self,
        chunk: Chunk,
        data: np.ndarray,
        keys: list[int],
        combination_map: KeyedMap,
    ) -> None:
        """Generate multiple keys for a unit chunk (``run2`` path),
        reading only ``chunk``'s elements, as :meth:`gen_key` does.

        Default: delegates to :meth:`gen_key`, so ``run2`` degrades to
        ``run`` for single-key applications.
        """
        keys.append(self.gen_key(chunk, data, combination_map))

    def accumulate(
        self, chunk: Chunk, data: np.ndarray, red_obj: RedObj | None, key: int
    ) -> RedObj:
        """Accumulate the unit chunk onto a reduction object, reading only
        ``chunk``'s elements, as :meth:`gen_key` does.

        ``red_obj`` is ``None`` when the key has no object yet (and the
        application does not seed reduction maps); implementations must
        create and return one in that case.

        Python adaptation note: the C++ API locates the object by key
        before calling ``accumulate`` and passes only the object
        reference; here the key is passed along too, which window
        applications with key-dependent weights (Savitzky-Golay, Gaussian
        kernel) use to know which window position they are contributing
        to.
        """
        raise NotImplementedError

    def merge(self, red_obj: RedObj, com_obj: RedObj) -> RedObj:
        """Merge ``red_obj`` into ``com_obj``; return the combined object."""
        raise NotImplementedError

    def process_extra_data(self, extra_data: Any, combination_map: KeyedMap) -> None:
        """Initialize the combination map from the extra input (optional)."""

    def post_combine(self, combination_map: KeyedMap) -> None:
        """Update reduction objects after the combination phase (optional)."""

    def convert(self, red_obj: RedObj, out: np.ndarray, key: int) -> None:
        """Write ``red_obj``'s final value into ``out`` at ``key`` (optional).

        Required only when :meth:`run` is given an output array or when
        early emission is used.
        """
        raise NotImplementedError(
            f"{type(self).__name__} received an output array but does not "
            "implement convert()"
        )

    def convert_rows(
        self, cls: type, keys: np.ndarray, records: np.ndarray, out: np.ndarray
    ) -> None:
        """Array form of :meth:`convert` (optional): write packed ``records``
        of reduction-object class ``cls`` into ``out`` at ``keys``.  The
        default is the adapter: one object and one ``convert`` per row."""
        for key, obj in zip(keys.tolist(), PackedMap(cls, keys, records, ()).objects()):
            self.convert(obj, out, key)

    def converged(self, combination_map: KeyedMap, iteration: int) -> bool:
        """Early-termination test for iterative applications (optional).

        Called after ``post_combine`` of every iteration with the
        (globally combined, identical-on-all-ranks) combination map and
        the 0-based iteration index.  Returning True ends the iteration
        loop before ``policy.num_iters`` — e.g. k-means stopping once
        centroids move less than a tolerance.  Because the map is
        identical on every rank, any deterministic predicate keeps the
        SPMD ranks in lockstep.  Default: never converge early.
        """
        return False

    # Optional batch fast path ------------------------------------------
    def make_accumulator(self, start: int, stop: int) -> ColumnarAccumulator:
        """Build the :class:`~repro.core.batch.ColumnarAccumulator` for a
        split covering local elements ``[start, stop)``.

        Applications implementing :meth:`batch_reduce` must override this
        to declare the key window their kernel scatters into (e.g. all
        histogram buckets, or the grid cells a split's positions touch)
        and to supply a freshly constructed reduction object as the row
        prototype: ``ColumnarAccumulator(CountObj(), 0, num_buckets)``.
        """
        raise NotImplementedError(
            f"{type(self).__name__} implements batch_reduce() but not "
            "make_accumulator(); the batch map path needs the key window "
            "and row prototype"
        )

    def batch_reduce(
        self, data: np.ndarray, start: int, stop: int, acc: ColumnarAccumulator
    ) -> None:
        """Batch fast path over ``[start, stop)``: scatter the whole split
        into preallocated columns — zero per-element ``gen_key`` /
        ``accumulate`` calls, zero reduction-map dict writes.  It reads
        only ``data[start:stop]``, as :meth:`gen_key` does.

        Kernels update ``acc.column(name)`` with ``np.bincount`` /
        ``np.add.at``-style scatters and must record every touched key in
        ``acc.contrib``.  Must produce exactly the state the scalar loop
        would: present contributions to each key in ascending element
        order (``np.bincount`` and ``np.add.at`` apply updates in input
        order, so this also fixes the float grouping).  ``map_path="auto"``
        runs it whenever it still describes the application (see
        :meth:`_resolve_map_path`); the conformance kit diffs it against
        the scalar oracle.
        """
        raise NotImplementedError

    def _resolve_map_path(self) -> str:
        """The map-phase implementation this run uses for each split.

        ``"auto"`` is the application's batch kernel when it has one,
        else the scalar loop.  A subclass that overrides ``gen_key`` /
        ``gen_keys`` / ``accumulate`` *below* the class defining
        ``batch_reduce`` changed the map semantics the kernel encodes,
        so ``auto`` falls back to the scalar loop for it.  Forcing
        ``"batch"`` on an application without a kernel fails with the
        subclass named.
        """
        path = self.policy.engine.map_path
        if path == "scalar":
            return path
        for cls in type(self).__mro__:
            if cls is Scheduler:
                break
            if "batch_reduce" in vars(cls):
                return "batch"
            if path == "auto" and _MAP_CALLBACKS & vars(cls).keys():
                return "scalar"
        if path == "batch":
            raise TypeError(
                f"map_path='batch' but {type(self).__name__} does not "
                "implement batch_reduce()"
            )
        return "scalar"

    # Optional state-delta hooks ----------------------------------------
    def mutable_state(self) -> dict:
        """Iteration-mutable scheduler state shipped to engine workers.

        The process engine splits worker dispatch into an immutable
        *core* (callbacks, the policy, constants — sent to each worker
        once and kept in its loop) and a small per-iteration *delta*
        carrying the combination map plus this dictionary.  The default ships every
        instance attribute that is not parent-owned infrastructure —
        always correct, at the cost of re-shipping everything each
        iteration.  Iterative applications whose ``post_combine``
        mutates little outside the combination map (k-means) override
        this together with :meth:`load_state` to ship only that state.
        Overrides must cover **everything** worker callbacks read that
        changes between iterations; anything omitted is frozen at its
        value when the core was published.
        """
        return {
            name: value
            for name, value in self.__dict__.items()
            if name not in _ENGINE_LOCAL_ATTRS
        }

    def load_state(self, state: dict) -> None:
        """Install a :meth:`mutable_state` payload (worker side)."""
        self.__dict__.update(state)

    # ------------------------------------------------------------------
    # API provided by the runtime (paper Table 1, upper half)
    # ------------------------------------------------------------------
    def set_global_combination(self, flag: bool) -> None:
        """Enable/disable global combination (enabled by default).

        Disabling it turns this job into a per-partition preprocessing
        stage whose local output feeds the next Smart job in a pipeline
        (paper Section 3.1).
        """
        self._global_combination = bool(flag)

    def get_combination_map(self) -> KeyedMap:
        """The combination map (global result after a combined run)."""
        return self.combination_map_

    def feed(self, data: np.ndarray) -> None:
        """Space-sharing producer call: copy one time-step's output in.

        Blocks while the circular buffer is full, exactly like the paper's
        producer/consumer coupling (Section 3.2).
        """
        arr = np.array(data, copy=True)  # space sharing requires its own copy
        self._feed_buffer().put(arr)

    def close_feed(self) -> None:
        """Signal that no further time-steps will be fed."""
        self._feed_buffer().close()

    def run(
        self,
        data: np.ndarray | Sequence | None = None,
        out: np.ndarray | None = None,
        *,
        global_offset: int | None = None,
        total_len: int | None = None,
    ) -> Any:
        """Run the analytics, generating a single key per unit chunk.

        Time sharing passes the simulation partition as ``data`` (the
        runtime processes it through a read pointer — no copy unless
        ``policy.copy_input``).  Space sharing passes ``data=None`` to
        consume the next fed partition.

        Returns ``out`` when provided, else the combination map.
        """
        return self._run_impl(data, out, False, global_offset, total_len)

    def run2(
        self,
        data: np.ndarray | Sequence | None = None,
        out: np.ndarray | None = None,
        *,
        global_offset: int | None = None,
        total_len: int | None = None,
    ) -> Any:
        """Run the analytics, generating multiple keys per unit chunk.

        The window-based applications use this path (``gen_keys`` maps an
        element to every window position it contributes to).
        """
        return self._run_impl(data, out, True, global_offset, total_len)

    def reset(self) -> None:
        """Clear accumulated analytics state (combination map) and context.

        Statistics are preserved; use :meth:`reset_stats` for those.
        """
        self.combination_map_ = KeyedMap()
        self._extra_processed = False
        self.data_ = None
        self.out_ = None

    def reset_stats(self) -> None:
        """Zero the ``run.*`` counters (engine-lifetime counters persist)."""
        self.telemetry.reset(prefix="run.")

    def current_state_nbytes(self) -> int:
        """Approximate bytes held in the combination map right now."""
        return self.combination_map_.state_nbytes()

    # ------------------------------------------------------------------
    # Execution engine + telemetry
    # ------------------------------------------------------------------
    @property
    def engine(self) -> ExecutionEngine:
        """The intra-rank execution engine (created lazily, started once).

        The backend is chosen by the policy's
        :class:`~repro.core.policy.EnginePolicy` at first use and lives
        for the scheduler's lifetime — pooled engines create exactly one
        worker pool (telemetry counter ``engine.pools_created``).  Call
        :meth:`close` to release it.
        """
        if self._engine is None:
            self._engine = create_engine(
                self.policy.engine, telemetry=self.telemetry
            )
            self._engine.start()
        return self._engine

    def close(self) -> None:
        """Shut down the execution engine (worker pools).  Idempotent.

        A closed scheduler may run again: the next run recreates the
        engine (and its pool) from the policy.
        """
        if self._engine is not None:
            self._engine.shutdown()
            self._engine = None

    def __enter__(self) -> "Scheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def telemetry_snapshot(self) -> dict:
        """One structured snapshot of every runtime statistic.

        Merges the scheduler's recorder (``run.*`` counters,
        ``engine.*`` counters and timers) with the communicator's
        traffic profiler (as ``comm.*`` ops) and live state gauges, so
        harnesses, calibration, and benchmarks read a single view.
        ``run.peak_red_objects`` is the memory-efficiency headline: the
        most reduction objects held at once across the thread-local maps
        and the combination map (paper Sections 4.1-4.2).
        """
        snap = self.telemetry.snapshot()
        snap["engine"] = (
            self._engine.name if self._engine is not None
            else self.policy.engine.backend
        )
        snap["policy"] = self.policy.fingerprint()
        snap["counters"]["run.state_nbytes"] = self.combination_map_.state_nbytes()
        snap["counters"]["run.state_objects"] = len(self.combination_map_)
        profiler = getattr(self.comm, "profiler", None)
        if profiler is not None:
            for op, (calls, nbytes) in profiler.snapshot().items():
                snap["ops"][f"comm.{op}"] = {"calls": calls, "bytes": nbytes}
        return snap

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _feed_buffer(self) -> CircularBuffer:
        if self._fed is None:
            self._fed = CircularBuffer(self.policy.buffer_capacity)
        return self._fed

    def _resolve_layout(
        self, n: int, global_offset: int | None, total_len: int | None, multi_key: bool
    ) -> tuple[int, int]:
        """Determine this partition's global offset and the global length.

        Window-based (multi-key) analytics need positional context.  When
        the caller does not supply it, it is derived collectively from the
        partition sizes (an allgather), matching how in-situ partitions
        are laid out rank by rank.
        """
        if global_offset is not None and total_len is not None:
            return global_offset, total_len
        if self.comm.size == 1:
            return (global_offset or 0), (total_len if total_len is not None else n)
        if not multi_key and global_offset is None and total_len is None:
            # Single-key analytics never read positions globally.
            return 0, n
        sizes = self.comm.allgather(n)
        offset = sum(sizes[: self.comm.rank]) if global_offset is None else global_offset
        total = sum(sizes) if total_len is None else total_len
        return offset, total

    def _run_impl(
        self,
        data: np.ndarray | Sequence | None,
        out: np.ndarray | None,
        multi_key: bool,
        global_offset: int | None,
        total_len: int | None,
    ) -> Any:
        if data is None:
            data = self._feed_buffer().get()
        arr = np.asarray(data)
        if arr.ndim != 1:
            arr = arr.reshape(-1)
        if self.policy.copy_input:
            # Fig. 9 comparison point: an implementation involving an
            # extra copy of the simulation output.
            arr = arr.copy()
        n = int(arr.shape[0])
        offset, total = self._resolve_layout(n, global_offset, total_len, multi_key)
        self.data_ = arr
        self.out_ = out
        self.global_offset_ = offset
        self.total_len_ = total
        self.telemetry.inc("run.runs")

        policy = self.policy
        self.process_extra_data(policy.extra_data, self.combination_map_)

        engine = self.engine
        # Each block's early-emitted keys, per iteration: a key emitted in
        # one iteration may be rebuilt by a later one, and only the *final*
        # iteration decides whether the convert sweep below must write it.
        emitted: list[np.ndarray] = []
        fault_policy = policy.fault
        try:
            engine.begin_run(self, arr, out, multi_key)
            for iteration in range(policy.num_iters):
                self.telemetry.inc("run.iterations_run")
                # Replay loop: a worker lost mid-iteration surfaces as
                # EngineFaultError *after* the engine replaced the
                # worker.  The combination map is only mutated below, once
                # every block completes, so restarting the iteration from
                # fresh reduction maps is consistent (and, reduction being
                # deterministic, bit-exact with a fault-free run).
                for attempt in itertools.count(1):
                    emitted = []
                    red_maps = self._make_reduction_maps()
                    try:
                        for bstart, bstop in iter_blocks(n, policy.block_size):
                            splits = make_splits(
                                bstart, bstop, policy.engine.num_threads, policy.chunk_size
                            )
                            emitted.append(engine.map_splits(splits, red_maps))
                            self.telemetry.observe_max(
                                "run.peak_red_objects",
                                sum(len(m) for m in red_maps)
                                + len(self.combination_map_),
                            )
                        break
                    except EngineFaultError:
                        self.telemetry.inc("faults.engine_failures")
                        if not fault_policy.retry_step(attempt, self.telemetry):
                            raise
                # Local combination: per-thread reduction maps fold into the
                # local combination map (Algorithm 1 lines 11-17).
                for red_map in red_maps:
                    self.combination_map_.merge_map(red_map, self.merge)
                # Global combination + redistribution (lines 3-4 of the next
                # iteration happen here as the broadcast back).
                if self._global_combination and self.comm.size > 1:
                    self.combination_map_ = global_combine(
                        self.comm, self.combination_map_, self.merge,
                        combine=self.policy.combine,
                    )
                    self.telemetry.inc("run.global_combinations")
                self.post_combine(self.combination_map_)
                engine.invalidate_state()
                self.telemetry.observe_max(
                    "run.peak_red_objects", len(self.combination_map_))
                if self.converged(self.combination_map_, iteration):
                    # The map is identical on all ranks after global
                    # combination, so every rank breaks together.
                    break
        finally:
            engine.end_run()

        if out is not None:
            out_len = out.shape[0]
            written = join_keys(emitted)  # by early emission, already
            packed = self.combination_map_.packed
            if packed is not None:  # the same selection, on columns
                keep = (packed.keys >= 0) & (packed.keys < out_len)
                if len(written):
                    keep &= np.isin(packed.keys, written, invert=True)
                rest = PackedMap(packed.cls, packed.keys[keep], packed.records[keep], ())
                self._convert_entries(rest.to_map(), out)
                return out
            done = set(written.tolist())
            for key, red_obj in self.combination_map_.sorted_items():
                if 0 <= key < out_len and key not in done:
                    self.convert(red_obj, out, key)
            return out
        return self.combination_map_

    def _convert_entries(self, entries: KeyedMap, out: np.ndarray) -> np.ndarray:
        """Write every entry's final value into ``out``; return the keys
        (``int64``).  A backing goes through :meth:`convert_rows` and builds
        no objects, unless a subclass overrode ``convert`` below it."""
        packed = entries.packed
        if packed is None or not array_form_stands(type(self), "convert_rows", "convert"):
            for key, red_obj in entries.items():
                self.convert(red_obj, out, key)
            return np.fromiter(entries.keys(), np.int64, len(entries))
        self.convert_rows(packed.cls, packed.keys, packed.records, out)
        return packed.keys

    def _make_reduction_maps(self, count: int | None = None) -> list[KeyedMap]:
        """An iteration's fresh reduction maps, one per thread (a process
        engine worker derives its own thread's: ``count=1``)."""
        threads = range(self.policy.engine.num_threads if count is None else count)
        if not self.seed_reduction_maps:
            return [KeyedMap() for _ in threads]
        # Seed by array copy where the map has a schema: no per-object deepcopy.
        packed = pack_map(self.combination_map_)
        if packed is None:
            return [self.combination_map_.clone() for _ in threads]
        return [KeyedMap.from_packed(packed.copy()) for _ in threads]

    def _reduce_split(
        self,
        split: Split,
        red_map: KeyedMap,
        data: np.ndarray,
        out: np.ndarray | None,
        multi_key: bool,
        capture: KeyedMap | None = None,
    ) -> np.ndarray:
        """Reduce one split on the resolved map path; return its emitted keys.

        ``capture`` is the process engine's hook: when given, early-emitted
        entries land in it instead of being converted here (the parent
        process converts them into its output array).
        """
        if self._resolve_map_path() == "batch":
            emitted = self._reduce_split_batch(split, red_map, data, out, capture)
        else:
            emitted = self._reduce_split_scalar(
                split, red_map, data, multi_key, out, capture
            )
        self.telemetry.inc(
            "run.chunks_processed", -(-len(split) // self.policy.chunk_size)
        )
        if len(emitted):
            self.telemetry.inc("run.early_emissions", len(emitted))
        return emitted

    def _reduce_split_scalar(
        self, split: Split, red_map: KeyedMap, data: np.ndarray,
        multi_key: bool, out: np.ndarray | None, capture: KeyedMap | None,
    ) -> np.ndarray:
        """The paper's map loop (Algorithm 2): ``gen_key`` → ``accumulate``
        chunk by chunk, emitting an object as soon as it triggers."""
        com_map = self.combination_map_
        key_buf: list[int] = []
        emitted: list[int] = []
        emit = not self.policy.disable_early_emission
        # Hot loop: stats are batched per split and map writes skip the
        # dict update when accumulate mutated the existing object in place
        # (the overwhelmingly common case) — a measured ~25% win on the
        # scalar path without changing semantics.
        accumulates_n = 0
        get_existing = red_map.get
        for chunk in split.chunks(self.policy.chunk_size):
            if multi_key:
                key_buf.clear()
                self.gen_keys(chunk, data, key_buf, com_map)
                keys: Sequence[int] = key_buf
            else:
                keys = (self.gen_key(chunk, data, com_map),)
            for key in keys:
                existing = get_existing(key)
                red_obj = self.accumulate(chunk, data, existing, key)
                if red_obj is None:
                    raise TypeError(
                        f"{type(self).__name__}.accumulate() returned None "
                        f"for key {key}; accumulate() must return the "
                        "(possibly newly created) reduction object"
                    )
                if red_obj is not existing:
                    red_map[key] = ensure_red_obj(red_obj)
                accumulates_n += 1
                if emit and red_obj.trigger():
                    # Early emission (Algorithm 2 lines 5-7).
                    if capture is not None:
                        capture[key] = red_obj
                    elif out is not None:
                        self.convert(red_obj, out, key)
                    del red_map[key]
                    emitted.append(key)
        self.telemetry.inc("run.accumulate_calls", accumulates_n)
        return np.array(emitted, dtype=np.int64)

    def _reduce_split_batch(
        self, split: Split, red_map: KeyedMap, data: np.ndarray,
        out: np.ndarray | None, capture: KeyedMap | None,
    ) -> np.ndarray:
        """Batch kernel: scatter the whole split into a preallocated
        columnar accumulator, then fold touched rows back into the map.

        Bit-exactness: the accumulator is seeded from ``red_map`` before
        the kernel runs, so in-order scatters continue from prior totals
        exactly like scalar in-place mutation, and the fold *replaces*
        touched entries rather than merging subtotals (merging would
        regroup the float additions).  Early emission is one sweep over
        the touched rows — the same keys the scalar loop could newly
        trigger — that hands the fired rows on as columns.
        """
        acc = self.make_accumulator(split.start, split.stop)
        acc.load_from(red_map)
        self.batch_reduce(data, split.start, split.stop, acc)
        self.telemetry.inc("run.batch_reduce_calls")
        self.telemetry.inc("run.batch_elements", len(split))
        # Published at 0 so telemetry consumers can tell "no scalar
        # accumulate() ran" from "counter never recorded".
        self.telemetry.inc("run.accumulate_calls", 0)
        fired = None if self.policy.disable_early_emission else acc.take_fired()
        acc.fold_into(red_map)
        if not fired:
            return join_keys([])
        if capture is not None:
            capture.replace_contents(fired.to_map())
        elif out is not None:
            self._convert_entries(fired.to_map(), out)
        return fired.keys


def merge_distributed_output(comm: Communicator, out: np.ndarray) -> np.ndarray:
    """Assemble a complete output array from per-rank partial outputs.

    Window-based analytics with early emission write most results into the
    local output of the rank that owned the window (paper Section 4.2);
    only boundary keys flow through global combination.  This helper
    merges every rank's partial output — positions a rank did not write
    must be NaN — and every rank receives the full array.

    The merge is a NaN-aware elementwise allreduce (reduce to the master,
    broadcast back) through :data:`~repro.comm.reduce_ops.NANOVERLAY`:
    partials overlay in rank order, so written positions win exactly as
    they did under the previous sequential overlay of a full allgather.
    The allgather moved O(P·N) per rank; this path moves O(N), and the
    modeled per-rank savings are recorded as the ``merge_output_saved``
    comm op.
    """
    if comm.size == 1:
        return out
    merged = comm.reduce(out, op=NANOVERLAY, root=0)
    merged = comm.bcast(merged, root=0)
    profiler = getattr(comm, "profiler", None)
    if profiler is not None:
        saved = max(comm.size - 2, 0) * int(np.asarray(out).nbytes)
        if saved:
            profiler.record("merge_output_saved", nbytes=saved)
    return merged
