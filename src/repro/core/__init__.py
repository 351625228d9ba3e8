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
* :class:`SmartPipeline` — chained Smart jobs with local-only stages.
"""

from .batch import ColumnarAccumulator
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .chunk import Chunk, Split, iter_blocks, make_splits
from .engine import (
    ExecutionEngine,
    ProcessEngine,
    SerialEngine,
    ThreadEngine,
    create_engine,
)
from .elastic import ElasticTier, StagingWorkerError
from .circular_buffer import BufferClosed, CircularBuffer
from .maps import KeyedMap
from .pipeline import PipelineStage, SmartPipeline
from .policy import (
    COMBINE_ALGORITHMS,
    ENGINE_BACKENDS,
    MAP_PATHS,
    CombinePolicy,
    EnginePolicy,
    ExecutionPolicy,
)
from .red_obj import Field, RedObj, ensure_red_obj
from .scheduler import RunStats, Scheduler, merge_distributed_output
from .serialization import (
    WIRE_FORMATS,
    WIRE_VERSION,
    PackedMap,
    deserialize_map,
    global_combine,
    pack_map,
    serialize_map,
)
from .space_sharing import CoreSplit, SpaceSharingDriver, SpaceSharingResult
from .time_sharing import StepTiming, TimeSharingDriver, TimeSharingResult

# Imported last: autotune reaches into repro.perfmodel, whose package
# init imports analytics (and, through it, names bound above in this
# partially initialized package).
from .autotune import PolicyAdvisor  # noqa: E402

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
    "PolicyAdvisor",
    "PackedMap",
    "WIRE_FORMATS",
    "WIRE_VERSION",
    "pack_map",
    "ProcessEngine",
    "SerialEngine",
    "ThreadEngine",
    "create_engine",
    "PipelineStage",
    "RedObj",
    "RunStats",
    "Scheduler",
    "SmartPipeline",
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
