"""Property-based tests of fault-schedule determinism.

The fault subsystem's core promise is replayability: a
:class:`FaultSchedule` built from the same events and seed injects
byte-identical faults into two independent simulator runs. Every
schedule below is randomly generated by hypothesis, then replayed
twice.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.manager import DS2Controller, ManagerConfig
from repro.core.policy import DS2Policy
from repro.dataflow.graph import Edge, LogicalGraph
from repro.dataflow.operators import (
    CostModel,
    RateSchedule,
    map_operator,
    sink,
    source,
)
from repro.dataflow.physical import PhysicalPlan
from repro.dataflow.state import SavepointModel
from repro.engine.runtimes import FlinkRuntime
from repro.engine.simulator import EngineConfig, Simulator
from repro.faults import (
    PROFILES,
    CampaignGenerator,
    CampaignRunner,
    CampaignTargets,
    FaultInjector,
    FaultSchedule,
    InstanceCrash,
    MetricCorruption,
    MetricDropout,
    MetricLag,
)

OPERATORS = ("src", "op")

times = st.floats(
    min_value=0.0, max_value=30.0, allow_nan=False,
    allow_infinity=False,
)
durations = st.floats(
    min_value=1.0, max_value=30.0, allow_nan=False,
    allow_infinity=False,
)
operators = st.sampled_from(OPERATORS)

events = st.one_of(
    st.builds(
        InstanceCrash,
        time=times,
        operator=operators,
        index=st.integers(min_value=0, max_value=3),
    ),
    st.builds(
        MetricDropout,
        time=times,
        duration=durations,
        operator=operators,
        fraction=st.floats(min_value=0.1, max_value=1.0),
    ),
    st.builds(MetricLag, time=times, duration=durations),
    st.builds(
        MetricCorruption,
        time=times,
        duration=durations,
        operator=operators,
        amplitude=st.floats(min_value=0.1, max_value=0.9),
    ),
)

schedules = st.builds(
    FaultSchedule,
    events=st.lists(events, min_size=0, max_size=4),
    seed=st.integers(min_value=0, max_value=2**16),
)


def replay(schedule, collections=5, interval=10.0):
    """Run one injected simulation; return its full observable trace."""
    graph = LogicalGraph(
        [
            source("src", rate=RateSchedule.constant(1000.0)),
            map_operator("op", costs=CostModel(processing_cost=1e-4)),
            sink("snk"),
        ],
        [Edge("src", "op"), Edge("op", "snk")],
    )
    simulator = Simulator(
        PhysicalPlan(graph, {"src": 2, "op": 2}),
        FlinkRuntime(savepoint=SavepointModel.instant()),
        EngineConfig(tick=0.5, track_record_latency=False),
    )
    injector = FaultInjector(simulator, schedule)
    windows = []
    rates = []
    for _ in range(collections):
        end = injector.time + interval
        while injector.time < end - 1e-9:
            injector.step()
        windows.append(injector.collect_metrics())
        rates.append(injector.source_target_rates())
    return windows, rates, injector.injection_log


class TestSameSeedReplaysIdentically:
    @given(schedule=schedules)
    @settings(max_examples=25, deadline=None)
    def test_trace_is_reproducible(self, schedule):
        first = replay(schedule)
        second = replay(schedule)
        assert first == second

    @given(
        events=st.lists(events, min_size=1, max_size=4),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_schedule_equality_follows_seed(self, events, seed):
        assert FaultSchedule(events, seed=seed) == FaultSchedule(
            list(events), seed=seed
        )
        assert FaultSchedule(events, seed=seed) != FaultSchedule(
            list(events), seed=seed + 1
        )


# ----------------------------------------------------------------------
# Campaign determinism: same profile + seed + index replays byte-for-
# byte, all the way down to the SASO scorecards.
# ----------------------------------------------------------------------

CAMPAIGN_TARGETS = CampaignTargets(sources=("src",), operators=("op",))

profile_names = st.sampled_from(sorted(PROFILES))
master_seeds = st.integers(min_value=0, max_value=2**16)
campaign_indices = st.integers(min_value=0, max_value=50)


class TestCampaignScheduleDeterminism:
    @given(
        profile=profile_names,
        seed=master_seeds,
        campaign=campaign_indices,
    )
    @settings(max_examples=50, deadline=None)
    def test_same_inputs_same_schedule(self, profile, seed, campaign):
        first = CampaignGenerator(
            PROFILES[profile], CAMPAIGN_TARGETS, seed=seed
        ).schedule(campaign)
        second = CampaignGenerator(
            PROFILES[profile], CAMPAIGN_TARGETS, seed=seed
        ).schedule(campaign)
        assert first == second

    @given(
        profile=profile_names,
        seed=master_seeds,
        campaign=campaign_indices,
    )
    @settings(max_examples=25, deadline=None)
    def test_seed_and_index_both_matter(self, profile, seed, campaign):
        generator = CampaignGenerator(
            PROFILES[profile], CAMPAIGN_TARGETS, seed=seed
        )
        bumped = CampaignGenerator(
            PROFILES[profile], CAMPAIGN_TARGETS, seed=seed + 1
        )
        assert generator.schedule(campaign) != generator.schedule(
            campaign + 1
        )
        assert generator.schedule(campaign) != bumped.schedule(campaign)


def _campaign_runner():
    graph = LogicalGraph(
        [
            source("src", rate=RateSchedule.constant(1000.0)),
            map_operator("op", costs=CostModel(processing_cost=1e-4)),
            sink("snk"),
        ],
        [Edge("src", "op"), Edge("op", "snk")],
    )

    def ds2():
        return DS2Controller(
            DS2Policy(graph),
            ManagerConfig(
                warmup_intervals=0,
                activation_intervals=1,
                target_ratio=1.0,
            ),
        )

    return graph, CampaignRunner(
        graph=graph,
        runtime=FlinkRuntime(savepoint=SavepointModel.instant()),
        initial_parallelism={"src": 2, "op": 2, "snk": 1},
        controllers={"ds2": ds2},
        policy_interval=30.0,
        engine_config=EngineConfig(tick=0.5, track_record_latency=False),
    )


class TestCampaignScorecardDeterminism:
    def test_same_campaigns_identical_scorecards(self):
        """The full pipeline — sampling, injection, control loop,
        scoring — replays to byte-identical scorecards."""
        graph, runner = _campaign_runner()
        generator = CampaignGenerator(
            PROFILES["smoke"], CampaignTargets.from_graph(graph), seed=9
        )
        first = runner.run(generator, 2).scorecards
        second = runner.run(generator, 2).scorecards
        assert first == second
        assert [card.controller for card in first] == ["ds2", "ds2"]
        assert [card.campaign for card in first] == [0, 1]
