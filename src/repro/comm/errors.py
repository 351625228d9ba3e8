"""Errors raised by the communication substrate.

The substrate mimics MPI error behaviour: a failure on any rank aborts the
whole SPMD job, and every other rank that is blocked inside a communication
call observes :class:`CommAborted` rather than hanging forever.
"""

from __future__ import annotations


class CommError(RuntimeError):
    """Base class for all communication-substrate errors."""


class CommAborted(CommError):
    """The SPMD job was aborted (typically because a peer rank raised).

    Mirrors ``MPI_Abort`` semantics: once any rank calls abort (or dies with
    an exception), all ranks blocked in communication calls raise this.

    When the teardown path knows who started the abort, the origin rides
    along so :class:`SpmdError` aggregation can point peers' secondary
    failures at the root cause:

    Attributes
    ----------
    origin_rank:
        The rank whose failure initiated the abort (``None`` when the
        abort came from outside the rank set, e.g. a watchdog).
    origin_exc_type:
        Class name of the originating exception (``None`` if unknown).
    """

    def __init__(
        self,
        message: str = "SPMD job aborted",
        *,
        origin_rank: int | None = None,
        origin_exc_type: str | None = None,
    ):
        if origin_rank is not None:
            origin = f"aborted by rank {origin_rank}"
            if origin_exc_type:
                origin += f" ({origin_exc_type})"
            message = f"{message} [{origin}]"
        super().__init__(message)
        self.origin_rank = origin_rank
        self.origin_exc_type = origin_exc_type


class CommTimeoutError(CommError):
    """A per-call communication deadline expired.

    Raised on the rank whose ``recv`` or collective exceeded the
    cluster's per-call ``deadline`` (distinct from :class:`CommAborted`,
    which peers observe once the job is torn down).  Gives supervised
    recovery a precise signal — "this call stalled" — instead of only
    the coarse whole-job barrier timeout.

    Attributes
    ----------
    source:
        Peer rank the stalled call was waiting on (for a collective, the
        peer whose message it was waiting for).
    tag:
        Message tag of the stalled call (for a collective, the internal
        collective tag).
    deadline_seconds:
        The per-call deadline that expired.  Supervised recovery and the
        chaos reports read these attributes instead of parsing the
        message.
    """

    def __init__(
        self,
        message: str,
        *,
        source: int | None = None,
        tag: int | None = None,
        deadline_seconds: float | None = None,
    ):
        context = []
        if source is not None:
            context.append(f"source={source}")
        if tag is not None:
            context.append(f"tag={tag}")
        if deadline_seconds is not None:
            context.append(f"deadline={deadline_seconds:g}s")
        if context:
            message = f"{message} [{', '.join(context)}]"
        super().__init__(message)
        self.source = source
        self.tag = tag
        self.deadline_seconds = deadline_seconds


class FrameCorruptionError(CommError):
    """A message arrived corrupt at its receiving call.

    On process ranks (:mod:`repro.comm.process`) the corruption is an
    injected ``network:truncate``, which marks the message; the receive
    raises this, naming the source and tag, instead of delivering it.
    """


class RankMismatchError(CommError):
    """Ranks called different collectives at the same point.

    Raised on the rank that received another call's collective message;
    the message names both calls and both ranks.
    """


class InvalidRankError(CommError, ValueError):
    """A point-to-point call referenced a rank outside ``[0, size)``."""


class SpmdError(CommError):
    """One or more ranks of an SPMD launch raised an exception.

    The first failing rank's exception is chained as ``__cause__``, so
    tracebacks show the root failure rather than just this aggregate;
    exceptions carrying a ``fault_context`` attribute (injected faults)
    have that context appended to their entry in the message.

    Attributes
    ----------
    failures:
        Mapping from rank to the exception that rank raised.
    first_rank:
        Lowest rank that failed.
    first_failure:
        That rank's exception (also ``self.__cause__``).
    """

    def __init__(self, failures: dict[int, BaseException]):
        self.failures = dict(failures)
        self.first_rank = min(self.failures)
        self.first_failure = self.failures[self.first_rank]
        parts = []
        for rank, exc in sorted(self.failures.items()):
            entry = f"rank {rank}: {type(exc).__name__}: {exc}"
            fault_context = getattr(exc, "fault_context", None)
            if fault_context:
                entry += f" [{fault_context}]"
            parts.append(entry)
        super().__init__(
            f"SPMD launch failed on {len(self.failures)} rank(s) "
            f"(first failure: rank {self.first_rank}): " + "; ".join(parts)
        )
        self.__cause__ = self.first_failure
