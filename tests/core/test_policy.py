"""The layered policy objects: validation parity, fingerprints, warn-once."""

from __future__ import annotations

import warnings

import pytest

from repro.core import (
    COMBINE_ALGORITHMS,
    ENGINE_BACKENDS,
    CombinePolicy,
    EnginePolicy,
    ExecutionPolicy,
    SchedArgs,
)
from repro.core.policy import (
    fault_fingerprint,
    parse_fault,
    reset_warn_once,
    warn_once,
)
from repro.faults import FaultPolicy
from repro.verify import Config


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"chunk_size": 0},
        {"num_iters": 0},
        {"block_size": 0},
        {"buffer_capacity": 0},
    ])
    def test_rejects_nonpositive_shape_knobs(self, kwargs):
        with pytest.raises(ValueError):
            ExecutionPolicy(**kwargs)

    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="engine must be one of"):
            EnginePolicy(backend="cuda")

    def test_rejects_unknown_algorithm_and_wire(self):
        with pytest.raises(ValueError, match="combine_algorithm"):
            CombinePolicy(algorithm="ring")
        with pytest.raises(ValueError, match="wire_format"):
            CombinePolicy(wire_format="arrow")

    def test_rejects_unknown_fault_mode(self):
        with pytest.raises(ValueError):
            ExecutionPolicy(fault="best_effort")


class TestValidationParity:
    """SchedArgs, ExecutionPolicy, and the conformance matrix all reject
    the same inputs — with the same message, because all three call the
    one policy-layer ``validate()``."""

    BAD = [
        {"num_threads": 0},
        {"wire_format": "arrow"},
        {"combine_algorithm": "ring"},
        {"residency": "pinned"},
    ]

    @pytest.mark.parametrize("kwargs", BAD)
    def test_facade_and_matrix_reject_identically(self, kwargs):
        with pytest.raises(ValueError) as sched_err:
            SchedArgs(**kwargs)
        with pytest.raises(ValueError) as matrix_err:
            Config(workload="histogram", **kwargs).validate()
        assert str(sched_err.value) == str(matrix_err.value)

    def test_bad_engine_rejected_everywhere(self):
        # The facade's engine field is nullable, so its message carries
        # an extra "or None"; both still reject through the same domain.
        with pytest.raises(ValueError, match="engine must be one of"):
            SchedArgs(engine="cuda")
        with pytest.raises(ValueError, match="engine must be one of"):
            Config(workload="histogram", engine="cuda").validate()

    def test_matrix_accepts_what_facade_accepts(self):
        SchedArgs(engine="thread", num_threads=3, wire_format="columnar")
        Config(workload="histogram", engine="thread", num_threads=3,
               wire_format="columnar").validate()

    def test_matrix_rejects_matrix_only_axes(self):
        with pytest.raises(ValueError, match="fault must be one of"):
            Config(workload="histogram", fault="disk-full").validate()
        with pytest.raises(ValueError, match="driver must be one of"):
            Config(workload="histogram", driver="teleport").validate()


class TestFingerprint:
    def test_default_round_trip(self):
        p = ExecutionPolicy()
        assert ExecutionPolicy.parse(p.fingerprint()) == p

    def test_non_default_round_trip(self):
        p = ExecutionPolicy(
            engine=EnginePolicy(backend="process", num_threads=4,
                                residency="off"),
            combine=CombinePolicy(algorithm="allreduce",
                                  wire_format="columnar"),
            fault=FaultPolicy.retry(max_attempts=5, backoff=0.25),
            chunk_size=3,
            num_iters=7,
            block_size=128,
            buffer_capacity=2,
            copy_input=True,
            disable_early_emission=True,
        )
        assert ExecutionPolicy.parse(p.fingerprint()) == p

    def test_fault_token_round_trip(self):
        for policy in (
            FaultPolicy(),
            FaultPolicy.retry(),
            FaultPolicy.retry(max_attempts=7, backoff=0.5),
            FaultPolicy(mode="retry", backoff_factor=3.0, task_deadline=1.5),
        ):
            token = fault_fingerprint(policy)
            parsed = parse_fault(token)
            assert fault_fingerprint(parsed) == token
            assert parsed.mode == policy.mode
            assert parsed.max_attempts == policy.max_attempts

    def test_parse_rejects_unknown_axis(self):
        with pytest.raises(ValueError, match="unknown policy axis"):
            ExecutionPolicy.parse("engine=serial,quantum=1")

    def test_partial_parse_fills_defaults(self):
        p = ExecutionPolicy.parse("engine=thread,threads=2")
        assert p == ExecutionPolicy(
            engine=EnginePolicy(backend="thread", num_threads=2))

    def test_matrix_policy_fingerprint_round_trips(self):
        config = Config(workload="kmeans", engine="thread", num_threads=2,
                        block_size=256)
        policy = config.execution_policy()
        assert ExecutionPolicy.parse(config.policy_fingerprint()) == policy
        # Block rounding (chunk 3): 256 → 255, named in the fingerprint.
        assert policy.block_size == 255


class TestFacade:
    def test_every_knob_lowers(self):
        args = SchedArgs(
            num_threads=4, chunk_size=3, num_iters=2, block_size=99,
            engine="process", combine_algorithm="tree",
            wire_format="columnar", residency="off",
            fault_policy=FaultPolicy.retry(), buffer_capacity=8,
            copy_input=True, disable_early_emission=True,
        )
        p = args.policy
        assert p.engine == EnginePolicy("process", 4, "off")
        assert p.combine == CombinePolicy("tree", "columnar")
        assert p.resolved_fault_policy.mode == "retry"
        assert (p.chunk_size, p.num_iters, p.block_size) == (3, 2, 99)
        assert p.copy_input and p.disable_early_emission
        assert p.buffer_capacity == 8

    def test_facade_notice_fires_once_per_process(self):
        reset_warn_once()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            SchedArgs()
            SchedArgs(num_threads=2)
            SchedArgs(engine="thread")
        notices = [w for w in caught
                   if issubclass(w.category, PendingDeprecationWarning)]
        assert len(notices) == 1


class TestWarnOnce:
    def test_warn_once_is_per_key(self):
        reset_warn_once()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            warn_once("k1", "first")
            warn_once("k1", "first")
            warn_once("k2", "second")
        assert [str(w.message) for w in caught] == ["first", "second"]


class TestEvolveAndCoerce:
    def test_evolve_validates(self):
        p = ExecutionPolicy()
        with pytest.raises(ValueError):
            p.evolve(chunk_size=0)
        q = p.evolve(combine=CombinePolicy(algorithm="allreduce"))
        assert q.combine_algorithm == "allreduce"
        assert p.combine_algorithm == "gather"  # immutable original
        # One spelling: the flat read-only views are not fields.
        for flat in (dict(num_threads=4), dict(wire_format="columnar")):
            with pytest.raises(TypeError):
                p.evolve(**flat)

    def test_coerce_accepts_facade_and_policy(self):
        p = ExecutionPolicy()
        assert ExecutionPolicy.coerce(p) is p
        assert ExecutionPolicy.coerce(SchedArgs()) == p
        with pytest.raises(TypeError):
            ExecutionPolicy.coerce({"engine": "serial"})

    def test_constants_cover_engine_registry(self):
        assert set(ENGINE_BACKENDS) == {"serial", "thread", "process"}
        assert set(COMBINE_ALGORITHMS) == {"gather", "tree", "allreduce"}
