"""Smart core runtime — the paper's primary contribution.

Public surface:

* :class:`Scheduler` — subclass to write an analytics application
  (override ``gen_key``/``gen_keys``, ``accumulate``, ``merge``, and
  optionally ``process_extra_data``, ``post_combine``, ``convert``,
  ``trigger`` on the reduction object).
* :class:`ExecutionPolicy` (holding an :class:`EnginePolicy` and a
  :class:`CombinePolicy`) — runtime configuration (Table 1, function 1).
* :class:`RedObj` — reduction object base class.
* :class:`TimeSharingDriver` / :class:`SpaceSharingDriver` — the
  paper's two in-situ modes: in turns through a read pointer, or
  concurrently through the circular buffer.
"""

from .._lazy import lazy_exports

# The runtime's spine loads with the package (forked workers run it and
# import nothing after the fork); every other name loads on first use.
from . import engine, policy, scheduler, serialization, worker  # noqa: F401

__getattr__, __dir__ = lazy_exports(__name__, {
    ".batch": ("ColumnarAccumulator",),
    ".checkpoint": ("CheckpointError", "load_checkpoint", "save_checkpoint"),
    ".chunk": ("Chunk", "Split", "iter_blocks", "make_splits"),
    ".circular_buffer": ("BufferClosed", "CircularBuffer"),
    ".elastic": ("ElasticTier", "StagingWorkerError"),
    ".engine": ("ExecutionEngine", "ProcessEngine", "SerialEngine", "ThreadEngine",
                "create_engine"),
    ".maps": ("KeyedMap",),
    ".policy": ("COMBINE_ALGORITHMS", "ENGINE_BACKENDS", "MAP_PATHS", "CombinePolicy",
                "EnginePolicy", "ExecutionPolicy"),
    ".red_obj": ("Field", "RedObj", "ensure_red_obj"),
    ".scheduler": ("Scheduler", "merge_distributed_output"),
    ".serialization": ("WIRE_FORMATS", "WIRE_VERSION", "PackedMap", "deserialize_map",
                       "global_combine", "pack_map", "serialize_map"),
    ".space_sharing": ("CoreSplit", "SpaceSharingDriver", "SpaceSharingResult"),
    ".time_sharing": ("StepTiming", "TimeSharingDriver", "TimeSharingResult"),
})

__all__ = [
    "BufferClosed",
    "CheckpointError",
    "load_checkpoint",
    "save_checkpoint",
    "Chunk",
    "CircularBuffer",
    "ColumnarAccumulator",
    "CombinePolicy",
    "COMBINE_ALGORITHMS",
    "CoreSplit",
    "ENGINE_BACKENDS",
    "EnginePolicy",
    "ExecutionEngine",
    "ExecutionPolicy",
    "Field",
    "KeyedMap",
    "MAP_PATHS",
    "PackedMap",
    "WIRE_FORMATS",
    "WIRE_VERSION",
    "pack_map",
    "ProcessEngine",
    "SerialEngine",
    "ThreadEngine",
    "create_engine",
    "RedObj",
    "Scheduler",
    "SpaceSharingDriver",
    "SpaceSharingResult",
    "Split",
    "StepTiming",
    "TimeSharingDriver",
    "TimeSharingResult",
    "deserialize_map",
    "ensure_red_obj",
    "ElasticTier",
    "StagingWorkerError",
    "global_combine",
    "iter_blocks",
    "make_splits",
    "merge_distributed_output",
    "serialize_map",
]
