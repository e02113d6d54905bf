#!/usr/bin/env python
"""Profile the simulator tick loop.

Produces the committed performance artifact that backs
``docs/performance.md``: ``benchmarks/output/profile_tick.txt`` holds

* cProfile hot-function tables on a wide cell (Nexmark Q5 with 256
  slots, nearly all of them on the windowed operator) and a narrow one
  (the Flink wordcount job at two instances per operator, the shape
  chaos campaigns and sweeps run), so regressions show up as a changed
  ranking rather than a vague slowdown;
* ticks/second on Q5 across a parallelism sweep, showing how the
  per-tick cost grows with the instance count;
* the Dhalion Figure 1 run (``run_dhalion()``, Heron wordcount grown
  to 27 x 45 instances): how many of its ticks replay the previous
  tick instead of running the operator loop, and the microseconds per
  replayed tick against a tick that runs the loop.

Usage::

    PYTHONPATH=src python scripts/profile_tick.py [--quick]

``--quick`` shortens the measured windows (~5x faster, noisier
numbers) for local iteration; the committed artifact is produced by a
full run. The simulation itself is deterministic virtual time — only
the wall-clock timings vary between runs.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import os
import pathlib
import pstats
import re
import statistics
import sys
import time
from typing import Callable, Dict, List

from repro.dataflow.physical import PhysicalPlan
from repro.engine.runtimes import FlinkRuntime
from repro.engine.simulator import EngineConfig, Simulator, TickStats
from repro.experiments.comparison import run_dhalion
from repro.workloads.nexmark import get_query
from repro.workloads.wordcount import flink_wordcount_graph

OUTPUT_DIR = pathlib.Path(__file__).resolve().parent.parent / (
    "benchmarks/output"
)

#: Parallelism sweep for the throughput table (total slots handed to
#: ``initial_parallelism``; Q5 gives them to the windowed operator).
SWEEP = (32, 64, 128, 256, 512)

#: The wide profiled cell.
WIDE_SLOTS = 256

#: Directory prefix of installed modules (stdlib and site-packages).
INSTALL_PREFIX = re.compile(r"/\S*/(?:site-packages|lib/python[0-9.]+)/")


def wide_simulator(slots: int = WIDE_SLOTS) -> Simulator:
    """The Q5 cell: Flink runtime, sliding window, record latency
    tracking on (the most instrumented configuration)."""
    query = get_query("Q5")
    graph = query.flink_graph()
    parallelism = query.initial_parallelism(graph, slots)
    plan = PhysicalPlan(
        graph,
        parallelism,
        max_parallelism=max(parallelism.values()) + 8,
    )
    return Simulator(
        plan,
        FlinkRuntime(),
        EngineConfig(tick=0.25, track_record_latency=True),
    )


def narrow_simulator() -> Simulator:
    """The wordcount job at two instances per operator. Without noise
    it settles into a backpressured steady state whose ticks all
    replay the previous one; cost jitter keeps every tick on the
    operator loop, whose per-operator cost this table ranks."""
    graph = flink_wordcount_graph()
    plan = PhysicalPlan(
        graph, {name: 2 for name in graph.names}, max_parallelism=8
    )
    return Simulator(
        plan,
        FlinkRuntime(),
        EngineConfig(
            tick=0.25, track_record_latency=True, cost_jitter=0.05
        ),
    )


def measure_ticks_per_second(sim: Simulator, seconds: float) -> float:
    """Steady-state wall-clock ticks/second after a warm-up."""
    sim.run_for(5.0)
    ticks = 0
    start = time.perf_counter()  # repro: allow[REPRO101] — profiler measures wall clock
    while time.perf_counter() - start < seconds:  # repro: allow[REPRO101]
        sim.step()
        ticks += 1
    return ticks / (time.perf_counter() - start)  # repro: allow[REPRO101]


def profile_cell(build: Callable[[], Simulator], virtual: float) -> str:
    """cProfile hot-function table for ``virtual`` simulated seconds."""
    sim = build()
    sim.run_for(5.0)
    profiler = cProfile.Profile()
    profiler.enable()
    sim.run_for(virtual)
    profiler.disable()
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats("tottime").print_stats(20)
    # Keep the table with paths relative to the repository or to the
    # Python installation, so the artifact names no local directory.
    root = str(pathlib.Path(__file__).resolve().parent.parent) + os.sep
    return "\n".join(
        INSTALL_PREFIX.sub("", line.replace(root, ""))
        for line in stream.getvalue().splitlines()
        if line.strip()
    )


def throughput_table(seconds: float) -> str:
    rows: List[str] = [f"{'slots':>6} {'ticks/s':>10}"]
    for slots in SWEEP:
        tps = measure_ticks_per_second(wide_simulator(slots), seconds)
        rows.append(f"{slots:>6} {tps:>10.0f}")
    return "\n".join(rows)


def dhalion_replay_table() -> str:
    """Step times of the Dhalion Figure 1 run by kind of tick: those
    that replayed the previous tick, those that ran the operator loop,
    and outage ticks (the job down for a redeploy)."""
    durations: Dict[str, List[float]] = {
        "replayed": [], "loop": [], "outage": []
    }
    step = Simulator.step

    def timed_step(sim: Simulator) -> TickStats:
        replayed = sim.replayed_ticks
        start = time.perf_counter()  # repro: allow[REPRO101]
        stats = step(sim)
        elapsed = time.perf_counter() - start  # repro: allow[REPRO101]
        if stats.in_outage:
            kind = "outage"
        elif sim.replayed_ticks > replayed:
            kind = "replayed"
        else:
            kind = "loop"
        durations[kind].append(elapsed)
        return stats

    Simulator.step = timed_step  # type: ignore[method-assign]
    try:
        run_dhalion()
    finally:
        Simulator.step = step  # type: ignore[method-assign]
    rows = [f"{'ticks':<10} {'count':>6} {'median us':>10} {'total s':>8}"]
    for kind, values in durations.items():
        median = statistics.median(values) * 1e6 if values else 0.0
        rows.append(
            f"{kind:<10} {len(values):>6} {median:>10.1f} "
            f"{sum(values):>8.3f}"
        )
    return "\n".join(rows)


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="short measurement windows for local iteration",
    )
    args = parser.parse_args(argv)
    seconds = 0.5 if args.quick else 3.0
    virtual = 20.0 if args.quick else 100.0

    OUTPUT_DIR.mkdir(exist_ok=True)
    sections = []
    for label, build in (
        (f"nexmark-q5 slots={WIDE_SLOTS}", wide_simulator),
        ("wordcount p=2", narrow_simulator),
    ):
        print(f"profiling {label} ...", flush=True)
        sections.append(
            f"== cProfile: {label} ({virtual:.0f}s virtual) ==\n"
            + profile_cell(build, virtual)
        )
    print("timing the Dhalion Figure 1 run ...", flush=True)
    sections.append(
        "== Dhalion Figure 1 (run_dhalion: Heron wordcount, 8,000 ticks, "
        "1x1 -> 27x45).\nreplayed = ticks proven to repeat the previous "
        "tick, which re-apply its\nincrements instead of running the "
        "operator loop; loop = every other active\ntick. "
        f"{os.cpu_count()} cores. ==\n" + dhalion_replay_table()
    )
    print("measuring throughput ...", flush=True)
    sections.append(
        "== Throughput, Nexmark Q5 (Flink runtime, tick=0.25s, record "
        "latency\ntracking on). slots = total instances requested from "
        "initial_parallelism;\nQ5 assigns them to the windowed hot_items "
        f"operator. {os.cpu_count()} cores. ==\n"
        + throughput_table(seconds)
    )
    text = "\n\n".join(sections)
    (OUTPUT_DIR / "profile_tick.txt").write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
