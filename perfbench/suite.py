"""The four benchmark workloads.

Each workload pins its own engine backend and job count, turns the
benchmark seed into one of a few committed input variants, and reduces
its result to a small output record that is compared against
``reference.json``.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.experiments.accuracy import run_figure8
from repro.experiments.chaos import chaos_report, run_chaos
from repro.experiments.comparison import run_dhalion
from repro.sweeps.grid import compile_grid, run_sweep
from repro.sweeps.report import build_sweep_report, render_sweep_json
from repro.sweeps.spec import spec_from_document
from repro.telemetry.progress import CellEvent, ProgressListener
from repro.workloads.nexmark import get_query

SIZES = ("full", "tiny")


@dataclass
class Outcome:
    """What one pass of a workload produced."""

    output: Dict[str, Any]
    #: Units of work the output covers: campaign cells, figure points
    #: or controlled runs.
    units: int
    quarantined: int = 0
    #: Host seconds of benchmark-side phases (report fold, rendering).
    phases: Dict[str, float] = field(default_factory=dict)


def _now() -> float:
    """Host seconds: the benchmark measures the real clock."""
    return time.perf_counter()  # repro: allow[REPRO101]


class CellTimes(ProgressListener):
    """Progress sink collecting per-cell heartbeats (parent clock)."""

    def __init__(self) -> None:
        self.events: List[Tuple[str, float, Optional[float]]] = []

    def on_event(self, event: CellEvent) -> None:
        self.events.append((event.kind, _now(), event.duration))

    def durations(self) -> List[float]:
        return [
            d for kind, _, d in self.events if kind == "done" and d is not None
        ]

    def span(self) -> float:
        """Parent-observed seconds from the first cell start to the
        last cell done: the executor's busy window."""
        stamps = [t for kind, t, _ in self.events if kind in ("start", "done")]
        return max(stamps) - min(stamps) if stamps else 0.0


#: Runs one pass in the given directory; the campaign workloads hand
#: the optional listener to their executor.
Job = Callable[[str, Optional[CellTimes]], Outcome]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    backend: str
    jobs: int
    #: Campaign master seeds the benchmark seed selects from; ``(0,)``
    #: marks a paper figure whose inputs have no seed.
    variants: Tuple[int, ...]
    prepare: Callable[[str, int], Job]

    def variant(self, seed: int) -> int:
        return self.variants[seed % len(self.variants)]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- fig1-dhalion-wide -------------------------------------------------


def _prepare_fig1(size: str, variant: int) -> Job:
    duration = 4000.0 if size == "full" else 300.0

    def job(workdir: str, cells: Optional[CellTimes]) -> Outcome:
        result = run_dhalion(duration=duration)
        events = [
            [event.time, sorted(event.applied.items())]
            for event in result.run.loop_result.events
        ]
        return Outcome(
            output={
                "steps": result.steps,
                "final": [result.final_flatmap, result.final_count],
                "events_sha256": _sha256(json.dumps(events)),
            },
            units=1,
        )

    return job


# -- chaos-mixed-narrow ------------------------------------------------


def _prepare_chaos(size: str, variant: int) -> Job:
    if size == "full":
        options = dict(profile="mixed", campaigns=2)
    else:
        options = dict(profile="smoke", campaigns=1, include_recovery=False)

    def job(workdir: str, cells: Optional[CellTimes]) -> Outcome:
        result = run_chaos(
            jobs=1, seed=variant, progress=cells, **options
        )
        return Outcome(
            output={
                "report_sha256": _sha256(chaos_report(result)),
                "cells": len(result.scorecards),
            },
            units=len(result.scorecards),
        )

    return job


# -- fig8-q5-latency ---------------------------------------------------


def _prepare_fig8(size: str, variant: int) -> Job:
    query = get_query("Q5")
    options: Dict[str, Any] = {}
    if size == "tiny":
        options = dict(
            offsets=(-4, 0), duration=30.0, convergence_duration=120.0
        )

    def job(workdir: str, cells: Optional[CellTimes]) -> Outcome:
        points = run_figure8(query, **options)
        return Outcome(
            output={
                "points": [
                    [
                        point.main_parallelism,
                        point.achieved_rate,
                        point.backpressured,
                        [point.latency.quantile(q) for q in (0.5, 0.95, 0.99)],
                    ]
                    for point in points
                ]
            },
            units=len(points),
        )

    return job


# -- sweep-smoke-pool --------------------------------------------------


def _smoke_grid(seed: int, campaigns: int) -> Dict[str, Any]:
    """The committed smoke grid (tests/sweeps/smoke_grid.toml) with more
    campaigns per scenario, so per-cell costs dominate."""
    return {
        "sweep": {
            "name": "smoke-grid",
            "campaigns": campaigns,
            "seed": seed,
            "tick": 2.0,
            "margin_threshold": 0.0,
        },
        "axes": {
            "profile": ["smoke"],
            "rate": [1.0, 1.25],
            "burstiness": [1.0, 3.0],
            "controller": ["ds2", "dhalion"],
            "runtime": ["heron"],
        },
    }


def _prepare_sweep(size: str, variant: int) -> Job:
    campaigns = 16 if size == "full" else 1
    spec = spec_from_document(_smoke_grid(variant, campaigns))
    # Validates every cell before the timed phase (run_sweep compiles
    # the grid again itself).
    started = _now()
    compile_grid(spec)
    compile_s = _now() - started

    def job(workdir: str, cells: Optional[CellTimes]) -> Outcome:
        journal = os.path.join(workdir, "sweep.journal")
        result = run_sweep(
            spec, jobs=2, checkpoint=journal, progress=cells
        )
        started = _now()
        report = build_sweep_report(result)
        built = _now()
        text = render_sweep_json(report)
        rendered = _now()
        coverage = result.coverage
        if coverage is None:
            raise RuntimeError("checkpointed sweep reported no coverage")
        return Outcome(
            output={
                "sensitivity_sha256": _sha256(text),
                "coverage_complete": coverage.complete,
                "cells": coverage.cells,
            },
            units=coverage.cells,
            quarantined=coverage.quarantined,
            phases={
                "sweeps.compile_grid": compile_s,
                "sweeps.build_sweep_report": built - started,
                "sweeps.render_sweep_json": rendered - built,
            },
        )

    return job


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="fig1-dhalion-wide",
            why=(
                "Dhalion Figure 1 on the vector engine: the engine is "
                "98% of the work; 41% repeated and 15% outage ticks"
            ),
            backend="vector",
            jobs=1,
            variants=(0,),
            prepare=_prepare_fig1,
        ),
        Workload(
            name="chaos-mixed-narrow",
            why=(
                "repro run chaos path on the object engine: narrow "
                "ticks, crashes, rescales, fault injection, controllers"
            ),
            backend="object",
            jobs=1,
            variants=(1, 2, 3, 4),
            prepare=_prepare_chaos,
        ),
        Workload(
            name="fig8-q5-latency",
            why=(
                "Figure 8 on Q5: the only window fires, per-record "
                "latency and savepoint rescales; 3% repeated ticks"
            ),
            backend="object",
            jobs=1,
            variants=(0,),
            prepare=_prepare_fig8,
        ),
        Workload(
            name="sweep-smoke-pool",
            why=(
                "128 short cells through the checkpointed 2-worker "
                "pool: cell build, pickling, fsync and report fold"
            ),
            backend="object",
            jobs=2,
            variants=(1, 2, 3, 4),
            prepare=_prepare_sweep,
        ),
    )
}
