"""Per-layer timing for the traced benchmark run.

The program has no spans of its own around most layer boundaries, so
this module times calls into each layer from the outside: it replaces
chosen *class* methods with timing wrappers for the duration of a
traced pass and restores them afterwards. Module-level functions are
never rebound: the campaign executors pickle their worker entry points
by import path, and a rebound entry point fails to pickle (every cell
would be quarantined while the run still "succeeds").

Each wrapped call records its duration and the time covered by nested
wrapped calls, so a layer's self time is its duration minus the part
of it spent in other measured layers.

Process pools fork from the traced parent and inherit the wrappers. A
fork handler resets the child's counters. After every control-loop run
(one per campaign cell) the child writes what it counted since its
previous write to a new ``worker-<pid>-<n>.json`` in the run's scratch
directory and starts again from zero, so each write costs the same
however many cells came before it. The parent merges those files into
its own totals. A write's own duration is carried in the child's next
file as ``spool_s``, so the benchmark can take it out of cell times.
"""

from __future__ import annotations

import functools
import json
import os
import time
import weakref
from typing import Any, Callable, Dict, List, Tuple

# (metric name, module, class, method) for every timed boundary.
# Methods a subclass inherits (HeronRuntime from FlinkRuntime) are
# covered by wrapping the defining class.
TARGETS: List[Tuple[str, str, str, str]] = [
    ("engine.simulator.step", "repro.engine.simulator", "Simulator", "step"),
    ("engine.simulator.collect_metrics", "repro.engine.simulator",
     "Simulator", "collect_metrics"),
    ("engine.simulator.rescale", "repro.engine.simulator",
     "Simulator", "rescale"),
    ("engine.simulator.fail_instance", "repro.engine.simulator",
     "Simulator", "fail_instance"),
    ("engine.simulator.force_outage", "repro.engine.simulator",
     "Simulator", "force_outage"),
    ("engine.vectorized.run_operator", "repro.engine.vectorized",
     "VectorEngine", "run_operator"),
    ("engine.vectorized.run_source", "repro.engine.vectorized",
     "VectorEngine", "run_source"),
    ("engine.vectorized.estimate_demands", "repro.engine.vectorized",
     "VectorEngine", "estimate_demands"),
    ("engine.runtimes.budgets", "repro.engine.runtimes",
     "FlinkRuntime", "budgets"),
    ("engine.runtimes.budgets", "repro.engine.runtimes",
     "TimelyRuntime", "budgets"),
    ("engine.runtimes.budgets_batch", "repro.engine.runtimes",
     "FlinkRuntime", "budgets_batch"),
    ("engine.runtimes.budgets_batch", "repro.engine.runtimes",
     "TimelyRuntime", "budgets_batch"),
    ("engine.metrics_manager.record", "repro.engine.metrics_manager",
     "MetricsManager", "record"),
    ("engine.metrics_manager.record_block", "repro.engine.metrics_manager",
     "MetricsManager", "record_block"),
    ("engine.metrics_manager.advance", "repro.engine.metrics_manager",
     "MetricsManager", "advance"),
    ("engine.latency.observe_tick", "repro.engine.latency",
     "RecordLatencyTracker", "observe_tick"),
    ("dataflow.windowing.maybe_fire", "repro.dataflow.windowing",
     "WindowState", "maybe_fire"),
    ("dataflow.state.record_processed", "repro.dataflow.state",
     "StateModel", "record_processed"),
    ("dataflow.state.record_processed_block", "repro.dataflow.state",
     "StateModel", "record_processed_block"),
    ("faults.injector.step", "repro.faults.injector",
     "FaultInjector", "step"),
    ("faults.injector.fired", "repro.faults.injector",
     "FaultInjector", "_note"),
    ("core.controller.ControlLoop.run", "repro.core.controller",
     "ControlLoop", "run"),
    ("core.manager.DS2Controller.on_metrics", "repro.core.manager",
     "DS2Controller", "on_metrics"),
    ("core.baselines.dhalion.DhalionController.on_metrics",
     "repro.core.baselines.dhalion", "DhalionController", "on_metrics"),
    ("core.policy.DS2Policy.decide", "repro.core.policy",
     "DS2Policy", "decide"),
    ("faults.campaigns.cell_specs", "repro.faults.campaigns",
     "CampaignRunner", "cell_specs"),
    ("faults.checkpoint.record_cell", "repro.faults.checkpoint",
     "CheckpointJournal", "record_cell"),
    ("faults.checkpoint.record_heartbeat", "repro.faults.checkpoint",
     "CheckpointJournal", "record_heartbeat"),
    ("telemetry.registry.merge_snapshot", "repro.telemetry.registry",
     "MetricsRegistry", "merge_snapshot"),
]

STEP = "engine.simulator.step"
CONTROL_LOOP = "core.controller.ControlLoop.run"
_CONTROLLERS = (
    "core.manager.DS2Controller.on_metrics",
    "core.baselines.dhalion.DhalionController.on_metrics",
)


class LayerTracer:
    """Timing wrappers around :data:`TARGETS` plus the counters the
    benchmark derives from their arguments and return values."""

    def __init__(self, spool_dir: str) -> None:
        self._spool_dir = spool_dir
        self._patched: List[Tuple[type, str, Any]] = []
        self._active = False
        self._fork_hooked = False
        self._parent_pid = os.getpid()
        self.reset()

    def reset(self) -> None:
        self._stack: List[List[float]] = []
        self._previous: "weakref.WeakKeyDictionary[Any, Tuple]" = (
            weakref.WeakKeyDictionary()
        )
        self._spools = 0
        self._clear_counters()

    def _clear_counters(self) -> None:
        # name -> [calls, seconds, seconds covered by nested calls]
        self.stats: Dict[str, List[float]] = {}
        self.step_durations: List[float] = []
        self.outage_ticks = 0
        self.repeat_ticks = 0
        self.virtual_outage_s = 0.0
        self.actions = 0
        #: Seconds pool workers spent writing their counters.
        self.spool_s = 0.0

    # -- installation --------------------------------------------------

    def install(self) -> None:
        import importlib

        for name, module_path, class_name, method in TARGETS:
            cls = getattr(importlib.import_module(module_path), class_name)
            original = cls.__dict__[method]
            setattr(cls, method, self._wrap(name, original))
            self._patched.append((cls, method, original))
        if not self._fork_hooked:
            # Fork handlers cannot be removed; the handler checks
            # whether this tracer is still installed.
            os.register_at_fork(after_in_child=self._after_fork_in_child)
            self._fork_hooked = True
        self._active = True

    def uninstall(self) -> None:
        for cls, method, original in reversed(self._patched):
            setattr(cls, method, original)
        self._patched.clear()
        self._active = False

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    # -- wrappers ------------------------------------------------------

    def _wrap(self, name: str, original: Callable) -> Callable:
        clock = time.perf_counter
        tracer = self

        @functools.wraps(original)
        def timed(*args: Any, **kwargs: Any) -> Any:
            frame = [0.0]
            tracer._stack.append(frame)
            started = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - started
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][0] += elapsed
                entry = tracer.stats.get(name)
                if entry is None:
                    entry = tracer.stats[name] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += frame[0]
            tracer._observe(name, args, result, elapsed)
            return result

        return timed

    def _observe(
        self, name: str, args: Tuple, result: Any, elapsed: float
    ) -> None:
        if name == STEP:
            self.step_durations.append(elapsed)
            if result.in_outage:
                self.outage_ticks += 1
            # TickStats minus its timestamp: a repeat means the tick
            # left every observable quantity as the previous one did.
            observable = (
                result.source_emitted,
                result.source_desired,
                result.sink_consumed,
                result.queue_lengths,
                result.backpressured,
                result.in_outage,
            )
            simulator = args[0]
            if self._previous.get(simulator) == observable:
                self.repeat_ticks += 1
            self._previous[simulator] = observable
        elif name == "engine.simulator.rescale":
            self.virtual_outage_s += float(result)
        elif name == "engine.simulator.force_outage":
            # Crash recovery (fail_instance) and timed-out rescales
            # both take their outage through force_outage.
            self.virtual_outage_s += float(args[1])
        elif name in _CONTROLLERS:
            if result is not None:
                self.actions += 1
        elif name == CONTROL_LOOP and os.getpid() != self._parent_pid:
            if not self._stack:
                self._spool()

    # -- worker processes ----------------------------------------------

    def _after_fork_in_child(self) -> None:
        if self._active:
            # The child starts from zero; the parent keeps its totals.
            self.reset()

    def _spool(self) -> None:
        started = time.perf_counter()  # repro: allow[REPRO101]
        self._spools += 1
        path = os.path.join(
            self._spool_dir, f"worker-{os.getpid()}-{self._spools}.json"
        )
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(self.snapshot(), handle)
        os.replace(tmp, path)
        self._clear_counters()
        self.spool_s = time.perf_counter() - started  # repro: allow[REPRO101]

    def snapshot(self) -> Dict[str, Any]:
        return {
            "stats": self.stats,
            "step_durations": self.step_durations,
            "outage_ticks": self.outage_ticks,
            "repeat_ticks": self.repeat_ticks,
            "virtual_outage_s": self.virtual_outage_s,
            "actions": self.actions,
            "spool_s": self.spool_s,
        }

    def merge_workers(self) -> None:
        """Fold every spooled worker snapshot into this tracer."""
        for entry in os.listdir(self._spool_dir):
            if not (entry.startswith("worker-") and entry.endswith(".json")):
                continue
            path = os.path.join(self._spool_dir, entry)
            with open(path, encoding="utf-8") as handle:
                payload = json.load(handle)
            os.remove(path)
            for name, (calls, seconds, covered) in payload["stats"].items():
                entry_stats = self.stats.setdefault(name, [0, 0.0, 0.0])
                entry_stats[0] += calls
                entry_stats[1] += seconds
                entry_stats[2] += covered
            self.step_durations.extend(payload["step_durations"])
            self.outage_ticks += payload["outage_ticks"]
            self.repeat_ticks += payload["repeat_ticks"]
            self.virtual_outage_s += payload["virtual_outage_s"]
            self.actions += payload["actions"]
            self.spool_s += payload["spool_s"]
