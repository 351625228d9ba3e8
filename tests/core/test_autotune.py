"""Launch-time advice: the advisor picks the engine and the wire."""

from __future__ import annotations

from repro.core import ExecutionPolicy, PolicyAdvisor
from repro.core.autotune import PROCESS_ENGINE_MIN_ELEMENTS


class TestPolicyAdvisor:
    def test_deterministic(self):
        hints = dict(elements=4096, threads=2, schema_mergeable=True,
                     has_batch_path=True)
        a = PolicyAdvisor().advise(**hints)
        b = PolicyAdvisor().advise(**hints)
        assert a == b
        assert a.fingerprint() == b.fingerprint()

    def test_auto_is_the_advisor(self):
        hints = dict(elements=2048, schema_mergeable=True)
        assert ExecutionPolicy.auto(**hints) == PolicyAdvisor().advise(**hints)

    def test_engine_choice(self):
        adv = PolicyAdvisor()
        assert adv.advise(elements=10**6, threads=1).engine.backend == "serial"
        assert adv.advise(elements=1000, threads=4).engine.backend == "thread"
        big = PROCESS_ENGINE_MIN_ELEMENTS
        assert adv.advise(elements=big, threads=4).engine.backend == "process"
        # A batch kernel keeps large loops numpy-bound.
        assert adv.advise(elements=big, threads=4,
                          has_batch_path=True).engine.backend == "thread"

    def test_wire_tracks_schema_and_no_algorithm_is_chosen(self):
        adv = PolicyAdvisor()
        mergeable = adv.advise(schema_mergeable=True).combine
        schemaless = adv.advise(schema_mergeable=False).combine
        assert mergeable.wire_format == "columnar"
        assert schemaless.wire_format == "pickle"
        # The key vote combines mergeable maps whatever the algorithm;
        # the rest take the paper's gather.
        assert mergeable.algorithm == schemaless.algorithm == "gather"

    def test_overrides_pass_through(self):
        p = PolicyAdvisor().advise(threads=2, copy_input=True, fault="retry")
        assert p.copy_input
        assert p.fault.mode == "retry"

    def test_telemetry_records_advice(self):
        from repro.telemetry import Recorder

        rec = Recorder()
        PolicyAdvisor(telemetry=rec).advise(schema_mergeable=True)
        counters = rec.counters("policy.")
        assert counters["policy.advice"] == 1
        assert counters["policy.advice.engine.serial"] == 1
        assert counters["policy.advice.wire.columnar"] == 1
        assert not any(name.startswith("policy.advice.algo.") for name in counters)
