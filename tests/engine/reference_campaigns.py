"""Frozen engine reference: campaigns and their committed outputs.

The engine's outputs on five representative campaigns are committed in
``engine_reference.json`` beside this module. They were recorded from
the per-instance object tick loop before it was retired, so comparing
the current tick loop against them keeps every behaviour the old
object-vs-vector equivalence suite checked: TickStats, MetricsWindows,
accessor values, crash and rescale handling, window state.

Equality is exact (``==`` on floats). Every value is stored in the JSON
form of :func:`canonical`, and Python's float ``repr`` round-trips
through JSON without loss.

Regenerate (only for an intentional behaviour change, and say why in
the change log)::

    PYTHONPATH=src python -m tests.engine.reference_campaigns
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.dataflow.physical import InstanceId, PhysicalPlan
from repro.engine.runtimes import FlinkRuntime, HeronRuntime, TimelyRuntime
from repro.engine.simulator import EngineConfig, Simulator
from repro.workloads.nexmark import get_query
from repro.workloads.wordcount import (
    flink_wordcount_graph,
    flink_wordcount_initial_parallelism,
)

FIXTURE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "engine_reference.json"
)


def canonical(value: Any) -> Any:
    """``value`` as plain JSON data: dataclasses become field dicts,
    instance ids become ``"op[index]"`` strings, tuples become lists."""
    if isinstance(value, InstanceId):
        return str(value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict) or hasattr(value, "items"):
        return {
            (str(k) if isinstance(k, InstanceId) else k): canonical(v)
            for k, v in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    return value


def accessor_fingerprint(sim: Simulator) -> Dict[str, Any]:
    """The Simulator observability accessors, all operators."""
    return {
        "time": sim.time,
        "total_queued": sim.total_queued_records(),
        "pending": sim.pending_records(),
        "backpressured": list(sim.backpressured_operators()),
        "operators": {
            name: [
                sim.queue_length(name),
                sim.pending_records(name),
                sim.max_fill_fraction(name),
                sim.utilization(name),
            ]
            for name in sim.graph.topological_order()
        },
    }


def run_campaign(
    sim: Simulator,
    ticks: int,
    rescale: Optional[Dict[str, int]] = None,
    fail: Optional[Tuple[str, int]] = None,
) -> List[Any]:
    """Three phases of ``ticks`` steps with a collection after each;
    a rescale after phase 0 and an instance crash after phase 1.
    Returns every TickStats, window, accessor fingerprint and crash
    outage produced along the way, canonicalised."""
    trace: List[Any] = []
    for phase in range(3):
        for _ in range(ticks):
            trace.append(canonical(sim.step()))
        trace.append(canonical(accessor_fingerprint(sim)))
        trace.append(canonical(sim.collect_metrics()))
        if phase == 0 and rescale is not None:
            sim.rescale(rescale)
        if phase == 1 and fail is not None:
            trace.append(sim.fail_instance(*fail))
    return trace


def _wordcount_flink() -> List[Any]:
    graph = flink_wordcount_graph()
    parallelism = flink_wordcount_initial_parallelism()
    names = list(parallelism)
    plan = PhysicalPlan(graph, parallelism, max_parallelism=24)
    sim = Simulator(
        plan, FlinkRuntime(), EngineConfig(tick=0.5, cost_jitter=0.1)
    )
    return run_campaign(
        sim,
        ticks=120,
        rescale={names[1]: max(1, parallelism[names[1]] - 4)},
        fail=(names[2], 0),
    )


def _q5_windowed(runtime_cls: type) -> Callable[[], List[Any]]:
    def campaign() -> List[Any]:
        query = get_query("Q5")
        graph = query.flink_graph()
        parallelism = query.initial_parallelism(graph, 32)
        plan = PhysicalPlan(graph, parallelism, max_parallelism=36)
        sim = Simulator(
            plan,
            runtime_cls(),
            EngineConfig(
                tick=0.25, track_record_latency=True, cost_jitter=0.1
            ),
        )
        return run_campaign(
            sim, ticks=150, rescale={"hot_items": 20}, fail=("hot_items", 3)
        )

    return campaign


def _q3_timely() -> List[Any]:
    query = get_query("Q3")
    graph = query.timely_graph()
    parallelism = {name: 4 for name in graph.names}
    plan = PhysicalPlan(graph, parallelism, max_parallelism=8)
    sim = Simulator(plan, TimelyRuntime(), EngineConfig(tick=0.25))
    return run_campaign(sim, ticks=150)


def q5_accessor_simulator() -> Simulator:
    """A Q5 job on Flink at 16 slots, the accessor campaigns' subject."""
    query = get_query("Q5")
    graph = query.flink_graph()
    parallelism = query.initial_parallelism(graph, 16)
    plan = PhysicalPlan(graph, parallelism, max_parallelism=36)
    return Simulator(
        plan,
        FlinkRuntime(),
        EngineConfig(tick=0.25, track_record_latency=True),
    )


def _accessors_every_tick() -> List[Any]:
    sim = q5_accessor_simulator()
    trace = []
    for _ in range(200):
        sim.step()
        trace.append(canonical(accessor_fingerprint(sim)))
    return trace


def _utilization_under_load() -> float:
    sim = q5_accessor_simulator()
    sim.run_for(30.0)
    return sim.utilization("hot_items")


def materialized_instances(sim: Simulator) -> Dict[str, Any]:
    """Per-instance queue and window state as ``_instances`` shows it."""
    return {
        name: [
            {
                "iid": str(inst.iid),
                "fire_backlog": inst.fire_backlog,
                "total_queue_length": inst.total_queue_length,
                "window": (
                    None
                    if inst.window is None
                    else [inst.window.buffered, inst.window.next_fire]
                ),
            }
            for inst in instances
        ]
        for name, instances in sim._instances.items()
    }


def _materialized_after_20s() -> Dict[str, Any]:
    sim = q5_accessor_simulator()
    sim.run_for(20.0)
    return materialized_instances(sim)


#: Fixture key -> the campaign that produces it.
CAMPAIGNS: Dict[str, Callable[[], Any]] = {
    "wordcount_flink": _wordcount_flink,
    "q5_windowed_flink": _q5_windowed(FlinkRuntime),
    "q5_windowed_heron": _q5_windowed(HeronRuntime),
    "q3_timely": _q3_timely,
    "q5_accessors_every_tick": _accessors_every_tick,
    "q5_utilization_after_30s": _utilization_under_load,
    "q5_materialized_after_20s": _materialized_after_20s,
}


def load_reference() -> Dict[str, Any]:
    with open(FIXTURE, encoding="utf-8") as handle:
        reference: Dict[str, Any] = json.load(handle)
    return reference


def write_reference(path: str = FIXTURE) -> None:
    document = {key: campaign() for key, campaign in CAMPAIGNS.items()}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, separators=(",", ":"), sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    write_reference()
