"""Performance of the simulator itself.

Not a paper figure: these benchmarks measure how fast the substrate
simulates virtual time, which bounds how cheaply the experiment suite
can be re-run. Unlike the experiment benchmarks (deterministic one-shot
runs), these use proper multi-round timing.
"""

from repro.dataflow.physical import PhysicalPlan
from repro.engine.runtimes import FlinkRuntime, TimelyRuntime
from repro.engine.simulator import EngineConfig, Simulator
from repro.workloads.nexmark import get_query
from repro.workloads.wordcount import flink_wordcount_graph


def test_engine_throughput_wordcount(benchmark):
    """Ticks/second on the 33-instance Flink wordcount deployment."""
    graph = flink_wordcount_graph()
    plan = PhysicalPlan(
        graph,
        {"source": 1, "flatmap": 22, "count": 13, "sink": 1},
        max_parallelism=36,
    )
    sim = Simulator(
        plan,
        FlinkRuntime(),
        EngineConfig(tick=0.1, track_record_latency=False),
    )
    sim.run_for(5.0)  # warm the queues

    benchmark(sim.run_for, 10.0)  # 100 ticks per round

    # Sanity: simulated faster than real time by a wide margin.
    stats = benchmark.stats.stats
    assert stats.mean < 10.0


def test_engine_throughput_windowed_query(benchmark):
    """Ticks/second on Q5 (sliding window) at its optimum."""
    query = get_query("Q5")
    graph = query.flink_graph()
    plan = PhysicalPlan(
        graph, query.initial_parallelism(graph, 16), max_parallelism=36
    )
    sim = Simulator(
        plan,
        FlinkRuntime(),
        EngineConfig(tick=0.25, track_record_latency=True),
    )
    sim.run_for(10.0)
    benchmark(sim.run_for, 10.0)


def test_engine_throughput_timely(benchmark):
    """Ticks/second under the shared-worker (water-filling) model."""
    query = get_query("Q3")
    graph = query.timely_graph()
    plan = PhysicalPlan(graph, {name: 4 for name in graph.names})
    sim = Simulator(
        plan,
        TimelyRuntime(),
        EngineConfig(
            tick=0.1, track_record_latency=False, epoch_seconds=1.0
        ),
    )
    sim.run_for(5.0)
    benchmark(sim.run_for, 5.0)


def test_policy_evaluation_speed(benchmark):
    """One full model evaluation (Eq. 7/8) on a live metrics window —
    the paper highlights that DS2 decisions take milliseconds."""
    from repro.core import compute_optimal_parallelism

    query = get_query("Q3")
    graph = query.flink_graph()
    plan = PhysicalPlan(
        graph, query.initial_parallelism(graph, 20), max_parallelism=36
    )
    sim = Simulator(
        plan,
        FlinkRuntime(),
        EngineConfig(tick=0.25, track_record_latency=False),
    )
    sim.run_for(30.0)
    window = sim.collect_metrics()
    rates = sim.source_target_rates()

    result = benchmark(
        compute_optimal_parallelism, graph, window, rates
    )
    assert result.estimates

    # Milliseconds, as the paper claims for the decision itself.
    assert benchmark.stats.stats.mean < 0.05
