"""The layered policy objects: validation parity and fingerprints."""

from __future__ import annotations

import pytest

from repro.core import (
    COMBINE_ALGORITHMS,
    ENGINE_BACKENDS,
    CombinePolicy,
    EnginePolicy,
    ExecutionPolicy,
    Scheduler,
)
from repro.core.policy import fault_fingerprint, parse_fault
from repro.faults import FaultPolicy
from repro.verify import Config, Workload


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

    def test_rejects_a_block_that_cuts_a_chunk(self):
        """Blocks are cut at element counts, so one that is not a whole
        number of chunks would split a point between two blocks."""
        match = r"block_size=10 .*chunk_size=4"
        with pytest.raises(ValueError, match=match):
            ExecutionPolicy(chunk_size=4, block_size=10)
        with pytest.raises(ValueError, match=match):
            ExecutionPolicy.parse("chunk=4,block=10")
        assert ExecutionPolicy(chunk_size=4, block_size=12).block_size == 12

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

    @pytest.mark.parametrize("build, message", [
        (lambda: ExecutionPolicy(engine="thread"),
         "engine must be an EnginePolicy, e.g. EnginePolicy(backend='thread'); "
         "got str"),
        (lambda: ExecutionPolicy(combine="tree"),
         "combine must be a CombinePolicy, e.g. CombinePolicy(algorithm='tree'); "
         "got str"),
        (lambda: Scheduler({"engine": "serial"}),
         "args must be an ExecutionPolicy, e.g. "
         "ExecutionPolicy(engine=EnginePolicy(num_threads=2)); got dict"),
    ], ids=["engine", "combine", "scheduler-args"])
    def test_wrong_type_names_the_expected_class(self, build, message):
        with pytest.raises(TypeError) as err:
            build()
        assert str(err.value) == message


class TestValidationParity:
    """The policies and the conformance matrix reject the same inputs —
    with the same message, because the matrix's flat axes lower onto the
    one policy-layer ``validate()``."""

    # A bad value on a matrix axis, and the nested policy it lowers to.
    BAD = [
        ({"num_threads": 0}, lambda: EnginePolicy(num_threads=0)),
        ({"wire_format": "arrow"}, lambda: CombinePolicy(wire_format="arrow")),
        ({"combine_algorithm": "ring"}, lambda: CombinePolicy(algorithm="ring")),
        ({"map_path": "simd"}, lambda: EnginePolicy(map_path="simd")),
    ]

    @pytest.mark.parametrize("kwargs", BAD)
    def test_facade_and_matrix_reject_identically(self, kwargs):
        axis, build_policy = kwargs
        with pytest.raises(ValueError) as policy_err:
            build_policy()
        with pytest.raises(ValueError) as matrix_err:
            Config(workload="histogram", **axis).validate()
        assert str(policy_err.value) == str(matrix_err.value)

    def test_bad_engine_rejected_everywhere(self):
        with pytest.raises(ValueError, match="engine must be one of"):
            EnginePolicy(backend="cuda")
        with pytest.raises(ValueError, match="engine must be one of"):
            Config(workload="histogram", engine="cuda").validate()

    def test_matrix_accepts_what_facade_accepts(self):
        ExecutionPolicy(
            engine=EnginePolicy(backend="thread", num_threads=3),
            combine=CombinePolicy(wire_format="columnar"),
        )
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
        # Every default but ``extra_data`` (None; a fingerprint omits it).
        assert p.extra_data is None
        assert p.fingerprint() == (
            "engine=serial,threads=1,map=auto,algo=gather,"
            "wire=pickle,fault=fail_fast,chunk=1,iters=1,block=0,capacity=4,"
            "copy=0,hold=0"
        )

    def test_non_default_round_trip(self):
        p = ExecutionPolicy(
            engine=EnginePolicy(backend="process", num_threads=4,
                                map_path="scalar"),
            combine=CombinePolicy(algorithm="tree",
                                  wire_format="columnar"),
            fault=FaultPolicy.retry(max_attempts=5, backoff=0.25),
            chunk_size=3,
            num_iters=7,
            block_size=129,
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
            FaultPolicy.retry(task_deadline=1.5),
            FaultPolicy.degrade(task_deadline=0.25),
            # Past the 6 significant digits a "%g" token would keep.
            FaultPolicy.retry(backoff=0.0123456789, task_deadline=1.23456789),
        ):
            token = fault_fingerprint(policy)
            parsed = parse_fault(token)
            assert parsed == policy
            assert fault_fingerprint(parsed) == token
            p = ExecutionPolicy(fault=policy)
            assert ExecutionPolicy.parse(p.fingerprint()) == p

    def test_parse_rejects_unknown_axis(self):
        for text, message in [
            ("engine=serial,quantum=1", "unknown policy axis 'quantum'"),
            # The process engine's input residency is not a choice.
            ("residency=auto", "unknown policy axis 'residency'"),
            ("copy=maybe", "policy axis 'copy' in 'copy=maybe'.*got 'maybe'"),
            ("hold=no", "policy axis 'hold' in 'hold=no'.*got 'no'"),
            ("engine=thread,engine=serial",
             "policy axis 'engine' given twice in 'engine=thread,engine=serial'"),
            # The backoff schedule has one knob, the base delay.
            ("fault=retry:factor=3", "unknown fault-policy knob 'factor'"),
            ("fault=retry:cap=0.5", "unknown fault-policy knob 'cap'"),
            ("fault=retry:jitter=0.25", "unknown fault-policy knob 'jitter'"),
            ("fault=retry:bseed=7", "unknown fault-policy knob 'bseed'"),
        ]:
            with pytest.raises(ValueError, match=message):
                ExecutionPolicy.parse(text)
        assert ExecutionPolicy.parse("copy=true,hold=0") == ExecutionPolicy(
            copy_input=True)

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


class TestEvolveAndCoerce:
    def test_evolve_validates(self):
        p = ExecutionPolicy()
        with pytest.raises(ValueError):
            p.evolve(chunk_size=0)
        q = p.evolve(combine=CombinePolicy(algorithm="tree"))
        assert q.combine.algorithm == "tree"
        assert p.combine.algorithm == "gather"  # immutable original
        # One spelling: a nested policy's fields are not fields here.
        for flat in (dict(num_threads=4), dict(wire_format="columnar")):
            with pytest.raises(TypeError):
                p.evolve(**flat)

    def test_constants_cover_engine_registry(self):
        assert set(ENGINE_BACKENDS) == {"serial", "thread", "process"}
        assert COMBINE_ALGORITHMS == ("gather", "tree")


@pytest.mark.parametrize("statement,error", [
    ("from repro.core import PolicyAdvisor", ImportError),
    ("from repro.verify import advised_config", ImportError),
    ("from repro.verify import run_autotune", ImportError),
    ("import repro.core.autotune", ImportError),
    ("import repro.verify.policy_check", ImportError),
    ("from repro.service import AdmissionController", ImportError),
    ("import repro.service.admission", ImportError),
    ("from repro.core import SmartPipeline", ImportError),
    ("from repro.core import PipelineStage", ImportError),
    ("import repro.core.pipeline", ImportError),
    ("ExecutionPolicy.auto", AttributeError),
    ("Workload.schema_mergeable", AttributeError),
])
def test_removed_names_stay_removed(statement, error):
    # No alias or shim brings back a deleted name: a policy is built from
    # its fields alone, the service's queue admits its jobs, and no
    # pipeline object chains jobs.
    with pytest.raises(error):
        exec(statement)
