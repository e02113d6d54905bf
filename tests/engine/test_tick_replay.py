"""Tick replay is invisible: every run equals the same run with replay
switched off.

A tick whose inputs repeat the previous tick's is not run through the
operator loop; :meth:`VectorEngine.replay_tick` re-applies the previous
tick's increments instead (see ``docs/engine.md``). These tests run each
campaign twice, once as is and once with ``VectorEngine.repeats``
patched to refuse every tick, and require the two to agree bit for bit
on every tick: TickStats, the queue arrays and their conservation
counters, window state, the state model and the source backlogs, plus
every collected MetricsWindow. Floats are compared through ``repr`` so
that ``-0.0`` and ``0.0`` differ.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataflow.graph import Edge, LogicalGraph
from repro.dataflow.operators import (
    CostModel,
    RateSchedule,
    session_window,
    sink,
    source,
    tumbling_window,
)
from repro.dataflow.physical import PhysicalPlan
from repro.engine.runtimes import FlinkRuntime, HeronRuntime, TimelyRuntime
from repro.engine.simulator import EngineConfig, Simulator
from repro.engine.vectorized import VectorEngine
from repro.faults.injector import FaultInjector
from repro.faults.schedule import parse_faults
from repro.telemetry.spans import SpanProfiler, profiling
from repro.workloads.nexmark import get_query
from repro.workloads.wordcount import (
    HERON_COUNT_LIMIT,
    HERON_FLATMAP_LIMIT,
    HERON_SOURCE_RATE,
    flink_wordcount_graph,
    heron_wordcount_graph,
    wordcount_graph,
)

Build = Callable[[], Any]


def tick_fingerprint(sim: Simulator, stats: Any) -> Tuple[str, ...]:
    """Everything a tick leaves behind, as exact strings and bytes."""
    engine = sim._engine
    clocks = [
        (op.win_next_fire, op.win_last_check)
        for op in engine._ops.values()
    ]
    return (
        repr(stats),
        engine._q_len.tobytes().hex(),
        engine._q_pushed.tobytes().hex(),
        engine._q_popped.tobytes().hex(),
        engine._fire_backlog.tobytes().hex(),
        engine._win_buffered.tobytes().hex(),
        repr(clocks),
        repr(sim.state_model.snapshot()),
        repr({name: sim.source_backlog(name) for name in sim.graph.sources()}),
    )


def run_campaign(
    build: Build,
    ticks: int,
    collect_every: int = 20,
    actions: Optional[Dict[int, Callable[[Any], Any]]] = None,
) -> Tuple[List[Tuple[str, ...]], List[str], int]:
    """Step the simulator (or fault-injecting proxy) ``build`` returns
    for ``ticks`` ticks, collecting a window every ``collect_every``
    and running ``actions[tick]`` before that tick. Returns the tick
    fingerprints, the windows' reprs and the replayed-tick count."""
    target = build()
    sim = target.simulator if isinstance(target, FaultInjector) else target
    actions = actions or {}
    ticks_seen: List[Tuple[str, ...]] = []
    windows: List[str] = []
    for tick in range(ticks):
        if tick in actions:
            actions[tick](target)
        stats = target.step()
        ticks_seen.append(tick_fingerprint(sim, stats))
        if (tick + 1) % collect_every == 0:
            windows.append(repr(target.collect_metrics()))
    return ticks_seen, windows, sim.replayed_ticks


def never_repeats(self, budgets, dt, end_time):
    return False


def assert_replay_invisible(
    monkeypatch: pytest.MonkeyPatch, build: Build, ticks: int, **kwargs: Any
) -> int:
    """Run ``build`` with and without replay; require equal outputs on
    every tick and return how many ticks were replayed."""
    replayed_ticks, replayed_windows, replayed = run_campaign(
        build, ticks, **kwargs
    )
    with monkeypatch.context() as patch:
        patch.setattr(VectorEngine, "repeats", never_repeats)
        looped_ticks, looped_windows, looped = run_campaign(
            build, ticks, **kwargs
        )
    assert looped == 0
    assert len(replayed_ticks) == len(looped_ticks)
    for tick, (got, want) in enumerate(zip(replayed_ticks, looped_ticks)):
        assert got == want, f"first divergence at tick {tick}"
    assert replayed_windows == looped_windows
    return replayed


def heron_wordcount(flatmap: int = 1, count: int = 1) -> Simulator:
    """Dhalion's starting point: the Heron wordcount at 1 x 1, its
    source blocked by backpressure."""
    graph = heron_wordcount_graph()
    plan = PhysicalPlan(
        graph,
        {"source": 1, "flatmap": flatmap, "count": count, "sink": 1},
        max_parallelism=64,
    )
    return Simulator(plan, HeronRuntime(), EngineConfig(tick=0.5))


def flink_wordcount() -> Simulator:
    graph = flink_wordcount_graph()
    plan = PhysicalPlan(
        graph,
        {"source": 1, "flatmap": 10, "count": 5, "sink": 1},
        max_parallelism=32,
    )
    return Simulator(plan, FlinkRuntime(), EngineConfig(tick=0.5))


def timely_q3() -> Simulator:
    """Nexmark Q3 on Timely: a two-input join (multi-port pops) and
    shared-worker water-filled budgets."""
    graph = get_query("Q3").timely_graph()
    plan = PhysicalPlan(
        graph, {name: 4 for name in graph.names}, max_parallelism=8
    )
    return Simulator(plan, TimelyRuntime(), EngineConfig(tick=0.25))


def draining_windows() -> Simulator:
    """A tumbling window fed for 20 s, then idle, beside a session
    (staggered) window that never receives input: once the tumbling
    branch has drained, the ticks between its fires repeat."""
    graph = LogicalGraph(
        operators=[
            source(
                "events",
                rate=RateSchedule.phases([(0.0, 2000.0), (20.0, 0.0)]),
            ),
            tumbling_window("tumbling", length=5.0, fire_selectivity=0.5),
            sink("out"),
            source("idle", rate=RateSchedule.constant(0.0)),
            session_window(
                "sessions", length=4.0, gap=1.0, fire_selectivity=0.2
            ),
            sink("idle_out"),
        ],
        edges=[
            Edge("events", "tumbling"),
            Edge("tumbling", "out"),
            Edge("idle", "sessions"),
            Edge("sessions", "idle_out"),
        ],
    )
    plan = PhysicalPlan(
        graph,
        {
            "events": 1,
            "tumbling": 3,
            "out": 1,
            "idle": 1,
            "sessions": 2,
            "idle_out": 1,
        },
        max_parallelism=8,
    )
    return Simulator(plan, FlinkRuntime(), EngineConfig(tick=0.25))


class TestReplayEquivalence:
    def test_heron_wordcount_replays(self, monkeypatch):
        """The Figure 1 starting point, then a redeploy to a shape whose
        steady state repeats, and a crash."""
        replayed = assert_replay_invisible(
            monkeypatch,
            heron_wordcount,
            ticks=900,
            actions={
                600: lambda sim: sim.rescale({"flatmap": 12, "count": 25}),
                750: lambda sim: sim.fail_instance("count", 3),
            },
        )
        assert replayed > 0

    def test_flink_wordcount(self, monkeypatch):
        replayed = assert_replay_invisible(
            monkeypatch,
            flink_wordcount,
            ticks=400,
            actions={200: lambda sim: sim.rescale({"count": 7})},
        )
        assert replayed > 0

    def test_timely_join(self, monkeypatch):
        replayed = assert_replay_invisible(
            monkeypatch,
            timely_q3,
            ticks=400,
            actions={
                200: lambda sim: sim.fail_instance("incremental_join", 1)
            },
        )
        assert replayed > 0

    def test_windows(self, monkeypatch):
        replayed = assert_replay_invisible(
            monkeypatch, draining_windows, ticks=400
        )
        assert replayed > 0

    @pytest.mark.parametrize(
        "runtime,graph,flatmap,count,ticks",
        [
            (HeronRuntime, heron_wordcount_graph, 3, 1, 300),
            (FlinkRuntime, flink_wordcount_graph, 5, 2, 60),
        ],
    )
    def test_clamped_pushes(
        self, monkeypatch, runtime, graph, flatmap, count, ticks
    ):
        """A replay after a tick whose bounded pushes were clamped adds
        the accepted amounts, not the requested ones."""
        clamped_before_replay = []
        clamped = [False]
        replay_clamped = VectorEngine._replay_clamped
        replay_tick = VectorEngine.replay_tick

        def spy_clamp(route, columns, amounts):
            fixes = replay_clamped(route, columns, amounts)
            for j, accepted in route.clamped:
                if accepted != amounts[:, j].tolist():
                    clamped[0] = True
            return fixes

        def spy_replay(self, dt, end_time):
            clamped_before_replay.append(clamped[0])
            return replay_tick(self, dt, end_time)

        def build() -> Simulator:
            clamped[0] = False
            plan = PhysicalPlan(
                graph(),
                {"source": 1, "flatmap": flatmap, "count": count, "sink": 1},
                max_parallelism=16,
            )
            return Simulator(plan, runtime(), EngineConfig(tick=0.5))

        monkeypatch.setattr(
            VectorEngine, "_replay_clamped", staticmethod(spy_clamp)
        )
        monkeypatch.setattr(VectorEngine, "replay_tick", spy_replay)
        original_run = VectorEngine.run_tick

        def run_tick(self, budgets, dt, end_time):
            clamped[0] = False
            return original_run(self, budgets, dt, end_time)

        monkeypatch.setattr(VectorEngine, "run_tick", run_tick)
        assert_replay_invisible(monkeypatch, build, ticks=ticks)
        assert any(clamped_before_replay)

    def test_fault_injector_crash_and_dropout(self, monkeypatch):
        def build() -> FaultInjector:
            return FaultInjector(
                heron_wordcount(flatmap=12, count=25),
                parse_faults(
                    "crash@60:count#2,dropout@20+80:flatmap*0.5,"
                    "crash@150:flatmap"
                ),
            )

        replayed = assert_replay_invisible(monkeypatch, build, ticks=500)
        assert replayed > 0

    def test_span_structure_unchanged(self, monkeypatch):
        """Replayed ticks keep the engine.tick / engine.allocate /
        engine.window_fire span counts."""

        def structure(patched: bool) -> Any:
            profiler = SpanProfiler()
            with monkeypatch.context() as patch:
                if patched:
                    patch.setattr(VectorEngine, "repeats", never_repeats)
                with profiling(profiler):
                    sim = draining_windows()
                    sim.run_for(100.0)
            return sim.replayed_ticks, profiler.structure()

        replayed, with_replay = structure(patched=False)
        none, without = structure(patched=True)
        assert replayed > 0 and none == 0
        assert with_replay == without


class TestReplayPredicate:
    def test_ticks_around_a_window_fire_run_the_loop(self):
        """Neither the tick that fires a window nor the one after it is
        replayed, even when the fire leaves the state unchanged."""
        sim = draining_windows()
        tumbling = sim._engine._ops["tumbling"]
        sim.run_for(40.0)
        fires = 0
        for _ in range(200):
            next_fire = tumbling.win_next_fire
            before = sim.replayed_ticks
            sim.step()
            if tumbling.win_next_fire != next_fire:
                assert sim.replayed_ticks == before
                sim.step()
                assert sim.replayed_ticks == before
                fires += 1
        assert fires > 0
        assert sim.replayed_ticks > 0

    def test_replayed_ticks_is_read_only(self):
        sim = heron_wordcount()
        with pytest.raises(AttributeError):
            sim.replayed_ticks = 3

    def test_cost_jitter_refuses_replay(self):
        """The same job replays without noise and never with it: the
        factors are redrawn every tick."""
        replayed = {}
        for jitter in (0.0, 0.1):
            graph = heron_wordcount_graph()
            plan = PhysicalPlan(
                graph,
                {"source": 1, "flatmap": 12, "count": 25, "sink": 1},
                max_parallelism=64,
            )
            sim = Simulator(
                plan,
                HeronRuntime(),
                EngineConfig(tick=0.5, cost_jitter=jitter),
            )
            sim.run_for(100.0)
            replayed[jitter] = sim.replayed_ticks
        assert replayed[0.0] > 0
        assert replayed[0.1] == 0

    def test_first_tick_after_redeploy_runs_the_loop(self):
        sim = heron_wordcount(flatmap=12, count=25)
        sim.run_for(100.0)
        before = sim.replayed_ticks
        assert before > 0
        sim.fail_instance("count", 0)
        # Heron restarts the container: the outage ticks, then the tick
        # after the redeploy, run no replay.
        while sim.in_outage:
            sim.step()
        sim.step()
        assert sim.replayed_ticks == before

    def _steady(self) -> Tuple[Simulator, Dict[str, Any], float, float]:
        """A replaying Heron simulator plus this tick's budgets."""
        sim = heron_wordcount(flatmap=12, count=25)
        sim.run_for(100.0)
        assert sim.replayed_ticks > 0
        dt = sim.config.tick
        budgets = sim.runtime.budgets_batch(
            sim.plan, sim._engine.estimate_demands(dt), dt
        )
        return sim, budgets, dt, sim.time + dt

    def test_budget_change_refuses_replay(self):
        sim, budgets, dt, end = self._steady()
        engine = sim._engine
        assert engine.repeats(budgets, dt, end)
        changed = {name: array.copy() for name, array in budgets.items()}
        changed["count"][0] *= 0.5
        assert not engine.repeats(changed, dt, end)

    def test_reused_writable_budgets_refuse_replay(self):
        """A runtime that refills one writable array in place cannot
        prove its budgets unchanged."""
        sim, budgets, dt, end = self._steady()
        engine = sim._engine
        copies = {name: array.copy() for name, array in budgets.items()}
        assert engine.repeats(copies, dt, end)
        assert not engine.repeats(copies, dt, end)

    def test_state_change_refuses_replay(self):
        sim, budgets, dt, end = self._steady()
        engine = sim._engine
        engine._q_len[0] = -0.0 if engine._q_len[0] == 0.0 else 0.0
        assert not engine.repeats(budgets, dt, end)

    def test_source_want_change_refuses_replay(self):
        """Once the backlog no longer caps ``want``, the source's
        request differs, and so does the tick."""
        sim, budgets, dt, end = self._steady()
        sim._source_backlog["source"] += 1e6
        assert not sim._engine.repeats(budgets, dt, end)


@settings(max_examples=12, deadline=None)
@given(
    rate=st.floats(min_value=1_000.0, max_value=4 * HERON_SOURCE_RATE),
    catchup=st.floats(min_value=1.0, max_value=4.0),
    flatmap=st.integers(min_value=1, max_value=6),
    count=st.integers(min_value=1, max_value=8),
    heron=st.booleans(),
)
def test_replay_invisible_property(rate, catchup, flatmap, count, heron):
    """Over source rates, catch-up factors and initial parallelism, on
    the Heron and Flink runtimes."""

    def build() -> Simulator:
        graph = (
            wordcount_graph(
                rate=RateSchedule.constant(rate),
                flatmap_cost=CostModel(processing_cost=1e-5),
                count_cost=CostModel(processing_cost=1e-6),
                flatmap_rate_limit=HERON_FLATMAP_LIMIT,
                count_rate_limit=HERON_COUNT_LIMIT,
            )
            if heron
            else flink_wordcount_graph(phase1_rate=rate, phase2_rate=rate)
        )
        plan = PhysicalPlan(
            graph,
            {"source": 1, "flatmap": flatmap, "count": count, "sink": 1},
            max_parallelism=16,
        )
        runtime = HeronRuntime() if heron else FlinkRuntime()
        return Simulator(
            plan,
            runtime,
            EngineConfig(tick=0.5, source_catchup_factor=catchup),
        )

    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_replay_invisible(
            monkeypatch,
            build,
            ticks=150,
            actions={75: lambda sim: sim.rescale({"count": count + 1})},
        )
