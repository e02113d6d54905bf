"""The engine against its frozen reference outputs.

Before the engine became one struct-of-arrays tick loop, two loops (a
per-instance object loop and the vector loop) were kept bit-identical.
The object loop's outputs on the representative campaigns are frozen in
``engine_reference.json`` (see ``reference_campaigns.py``): TickStats,
MetricsWindows, observability accessor values and crash outages
through rescales and instance crashes, for the smoke wordcount
pipeline, the windowed Nexmark Q5 job (Flink and Heron runtimes), and
a Timely deployment (shared-worker water-filling budgets). Equality
is exact (``==`` on floats), not approximate.
"""

import json

import pytest

from repro.dataflow.physical import PhysicalPlan
from repro.engine.runtimes import FlinkRuntime, HeronRuntime
from repro.engine.simulator import EngineConfig, Simulator
from repro.engine.vectorized import VectorEngine
from repro.errors import EngineError
from repro.workloads.wordcount import (
    flink_wordcount_graph,
    flink_wordcount_initial_parallelism,
)
from tests.engine.reference_campaigns import (
    CAMPAIGNS,
    accessor_fingerprint,
    canonical,
    load_reference,
    materialized_instances,
    q5_accessor_simulator,
)


@pytest.fixture(scope="module")
def reference():
    return load_reference()


def assert_matches_reference(reference, key):
    """Run campaign ``key`` and compare it entry by entry (so a failure
    names the first diverging tick) against the frozen outputs."""
    # A JSON round trip gives live values the fixture's exact types.
    produced = json.loads(json.dumps(CAMPAIGNS[key]()))
    expected = reference[key]
    assert len(produced) == len(expected)
    for index, (got, want) in enumerate(zip(produced, expected)):
        assert got == want, f"{key}: first divergence at entry {index}"


class TestCampaignEquivalence:
    def test_wordcount_flink(self, reference):
        assert_matches_reference(reference, "wordcount_flink")

    @pytest.mark.parametrize(
        "runtime_cls", [FlinkRuntime, HeronRuntime]
    )
    def test_nexmark_q5_windowed(self, reference, runtime_cls):
        assert_matches_reference(
            reference, f"q5_windowed_{runtime_cls.name}"
        )

    def test_nexmark_q3_timely(self, reference):
        assert_matches_reference(reference, "q3_timely")


class TestAccessorEquivalence:
    """The observability accessors report the frozen values
    mid-campaign (not only at collections)."""

    def test_accessors_identical_every_tick(self, reference):
        sim = q5_accessor_simulator()
        expected = reference["q5_accessors_every_tick"]
        for tick, want in enumerate(expected):
            sim.step()
            got = json.loads(
                json.dumps(canonical(accessor_fingerprint(sim)))
            )
            assert got == want, f"first divergence at tick {tick}"

    def test_utilization_nonzero_under_load(self, reference):
        sim = q5_accessor_simulator()
        sim.run_for(30.0)
        utilization = sim.utilization("hot_items")
        assert 0.0 < utilization <= 1.0
        assert utilization == reference["q5_utilization_after_30s"]

    def test_unknown_operator_rejected_identically(self):
        sim = q5_accessor_simulator()
        with pytest.raises(EngineError):
            sim.queue_length("nope")
        with pytest.raises(EngineError):
            sim.max_fill_fraction("nope")

    def test_materialized_instances_match(self, reference):
        """Inspecting Simulator._instances sees the frozen queues and
        window state."""
        sim = q5_accessor_simulator()
        sim.run_for(20.0)
        got = json.loads(json.dumps(materialized_instances(sim)))
        assert got == reference["q5_materialized_after_20s"]


class TestBackendSelection:
    def _plan(self):
        return PhysicalPlan(
            flink_wordcount_graph(),
            flink_wordcount_initial_parallelism(),
            max_parallelism=24,
        )

    def test_engine_env_is_ignored(self, monkeypatch, reference):
        """``REPRO_ENGINE`` selected a tick loop in earlier releases.
        Tooling still exports it, so it is ignored rather than
        rejected, and changes nothing."""
        for value in ("object", "vector", "gpu"):
            monkeypatch.setenv("REPRO_ENGINE", value)
            sim = Simulator(
                self._plan(), FlinkRuntime(), EngineConfig(tick=0.5)
            )
            assert isinstance(sim._engine, VectorEngine)
            assert_matches_reference(reference, "wordcount_flink")

    def test_unknown_backend_rejected(self):
        """The backend knob is gone: any ``backend=`` is unknown."""
        with pytest.raises(TypeError):
            Simulator(
                self._plan(), FlinkRuntime(), EngineConfig(tick=0.5),
                backend="vector",
            )
