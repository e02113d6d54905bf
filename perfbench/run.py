"""Repository benchmark: four workloads, end-to-end and per-layer metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig1-dhalion-wide --seed 1 \\
        --seconds 25 --trace 0

``--trace 0`` repeats the workload within ``--seconds`` (at least one
pass) and reports the end-to-end metrics (medians over the passes),
with times in calibrated seconds (see ``speedometer.py``).
``--trace 1`` runs one untraced pass, then traced passes within
``--seconds`` (at least one), and reports the
per-layer metrics, the tracing overhead, and checks the deterministic
counts. Every pass's output is checked against ``reference.json``;
the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``, and the exit code is 1 when
any output was wrong, 2 when the program cannot be found. See
``README.md`` beside this file for why each workload exists.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from layertrace import CONTROL_LOOP, TARGETS, LayerTracer
from speedometer import INTERVAL_S, REFERENCE_KERNEL_S, Speedometer

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")

#: Fresh processes timed for ``setup_s``; their lower quartile is
#: reported, which discards cold file caches.
SETUP_SAMPLES = 11

END_TO_END: List[Tuple[str, str]] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
]

#: Boundaries ``layertrace`` wraps only to count calls or to read
#: their arguments; they get no calls/s/self_s metrics of their own.
COUNTED_ONLY = {
    "engine.simulator.rescale",
    "engine.simulator.fail_instance",
    "engine.simulator.force_outage",
    "faults.injector.fired",
    CONTROL_LOOP,
}

#: Layer boundaries timed by ``layertrace`` (calls, s, self_s each).
TIMED_LAYERS = [
    name
    for name in dict.fromkeys(target[0] for target in TARGETS)
    if name not in COUNTED_ONLY
]

#: (name, unit, better) of every metric ``--trace 1`` reports.
PER_LAYER: List[Tuple[str, str, str]] = [
    (f"{layer}.{suffix}", unit, "lower")
    for layer in TIMED_LAYERS
    for suffix, unit in (("calls", "count"), ("s", "s"), ("self_s", "s"))
] + [
    ("engine.simulator.step.p50_us", "us", "lower"),
    ("engine.simulator.step.p99_us", "us", "lower"),
    ("engine.simulator.step.self_share", "ratio", "lower"),
    ("engine.simulator.step.outage_ticks", "count", "lower"),
    ("engine.simulator.step.repeat_ticks", "count", "lower"),
    ("engine.simulator.step.repeat_ratio", "ratio", "lower"),
    ("engine.simulator.rescale.calls", "count", "lower"),
    ("engine.simulator.fail_instance.calls", "count", "lower"),
    ("engine.simulator.outage_virtual_s", "s", "lower"),
    ("faults.injector.faults_fired", "count", "lower"),
    ("core.controller.decisions", "count", "lower"),
    ("core.controller.actions", "count", "lower"),
    ("core.controller.action_ratio", "ratio", "lower"),
    ("faults.campaigns.cells", "count", "higher"),
    ("faults.campaigns.cell_p50_s", "s", "lower"),
    ("faults.campaigns.cell_p90_s", "s", "lower"),
    ("faults.campaigns.cell_outside_loop_s", "s", "lower"),
    ("faults.campaigns.pool_transfer_s", "s", "lower"),
    ("faults.campaigns.busy_ratio", "ratio", "higher"),
    ("faults.checkpoint.appends", "count", "lower"),
    ("sweeps.compile_grid.s", "s", "lower"),
    ("sweeps.build_sweep_report.s", "s", "lower"),
    ("sweeps.render_sweep_json.s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.traced_wall_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


@dataclass
class Pass:
    """One timed run of a workload and the verdict on its output."""

    #: Host seconds and CPU seconds (pool workers included).
    wall: float
    cpu: float
    #: Per-cell heartbeats (traced runs only), or None.
    cells: Any
    outcome: Any = None
    error: Optional[str] = None
    units: int = 0
    failed: int = 0
    #: Deterministic counts of a traced pass.
    counts: Optional[Dict[str, int]] = None
    #: The pass's host-speed sampler (untraced passes only), or None.
    meter: Optional[Speedometer] = None

    @property
    def cal_wall(self) -> float:
        """``wall`` without the sampler's own time, at reference speed."""
        assert self.meter is not None
        return (self.wall - self.meter.handler_s) * self.meter.wall_factor(
            self.cpu - self.meter.handler_cpu_s
        )

    @property
    def cal_cpu(self) -> float:
        """``cpu`` without the sampler's own time, at reference speed."""
        assert self.meter is not None
        return (self.cpu - self.meter.handler_cpu_s) * self.meter.factor()


def _now() -> float:
    """Host seconds: the benchmark measures the real clock."""
    return time.perf_counter()  # repro: allow[REPRO101]


def _cpu_seconds() -> float:
    times = os.times()
    return (
        times.user + times.system + times.children_user
        + times.children_system
    )


def run_pass(
    job: Any, workdir: str, expected: Dict[str, Any], cells: Any = None,
    calibrate: bool = False,
) -> Pass:
    """Run ``job`` once in a fresh directory and check its output.

    ``cells`` is an optional progress listener handed to the campaign
    executors; without one they take their plain, heartbeat-free path.
    With ``calibrate`` a :class:`Speedometer` samples the host's speed
    during the pass (traced passes go without, so that its samples do
    not land in layer times).
    """
    passdir = tempfile.mkdtemp(prefix="pass-", dir=workdir)
    outcome = error = None
    meter = Speedometer() if calibrate else None
    with meter or contextlib.nullcontext():
        cpu0 = _cpu_seconds()
        started = _now()
        try:
            outcome = job(passdir, cells)
        except Exception as exc:  # noqa: BLE001 — a failed pass
            error = f"{type(exc).__name__}: {exc}"
        wall, cpu = _now() - started, _cpu_seconds() - cpu0
    result = Pass(wall, cpu, cells, outcome, error, meter=meter)
    shutil.rmtree(passdir, ignore_errors=True)
    if outcome is None:
        result.units = result.failed = int(expected.get("units", 1))
    else:
        result.units = outcome.units
        problems = []
        if json.loads(json.dumps(outcome.output)) != expected.get("output"):
            result.failed = outcome.units
            problems.append("output differs from the reference")
        if outcome.quarantined:
            result.failed = max(result.failed, outcome.quarantined)
            problems.append(f"{outcome.quarantined} cell(s) quarantined")
        result.error = "; ".join(problems) or None
    return result


def measure_setup(name: str, size: str, variant: int) -> float:
    """Calibrated seconds a fresh interpreter takes to import the program
    and build the workload: the lower quartile of ``SETUP_SAMPLES``
    processes, each sampling its own host speed."""
    probe = (
        "import sys, time\n"
        "sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "from speedometer import Speedometer\n"
        "with Speedometer() as meter:\n"
        "    started = time.perf_counter()\n"
        "    import suite\n"
        "    workload = suite.WORKLOADS[sys.argv[3]]\n"
        "    workload.prepare(sys.argv[4], int(sys.argv[5]))\n"
        "    took = time.perf_counter() - started\n"
        "print((took - meter.handler_s) * meter.factor())\n"
    )
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", probe, SRC, BENCH_DIR, name, size,
             str(variant)],
            cwd=ROOT, capture_output=True, text=True,
            timeout=120, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.quantiles(samples, n=4)[0]


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _quantile(values: List[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def tracer_counts(tracer: LayerTracer) -> Dict[str, int]:
    """The deterministic counts ``tracer`` has accumulated so far."""
    calls = {name: entry[0] for name, entry in tracer.stats.items()}
    return {
        "ticks": calls.get("engine.simulator.step", 0),
        "outage_ticks": tracer.outage_ticks,
        "repeat_ticks": tracer.repeat_ticks,
        "decisions": calls.get("core.manager.DS2Controller.on_metrics", 0)
        + calls.get("core.baselines.dhalion.DhalionController.on_metrics", 0),
        "actions": tracer.actions,
        "faults_fired": calls.get("faults.injector.fired", 0),
        "rescale_calls": calls.get("engine.simulator.rescale", 0),
        "fail_instance_calls": calls.get("engine.simulator.fail_instance", 0),
        "journal_appends": calls.get("faults.checkpoint.record_cell", 0)
        + calls.get("faults.checkpoint.record_heartbeat", 0),
    }


def _out_of_time(started: float, passes: List[Pass], seconds: float) -> bool:
    """Whether another pass as long as the last one would overrun the
    measuring window; keeps a run within ``seconds`` plus set-up."""
    return _now() - started + passes[-1].wall > seconds


def measure_untraced(
    job: Any, seconds: float, workdir: str, expected: Dict[str, Any]
) -> Tuple[Dict[str, float], List[Pass]]:
    passes: List[Pass] = []
    started = _now()
    while True:
        passes.append(run_pass(job, workdir, expected, calibrate=True))
        last = passes[-1]
        if last.outcome is None or _out_of_time(started, passes, seconds):
            break
    return {
        "wall_s": statistics.median(p.cal_wall for p in passes),
        "cpu_s": statistics.median(p.cal_cpu for p in passes),
    }, passes


def measure_traced(
    job: Any, seconds: float, workdir: str, expected: Dict[str, Any],
    jobs: int,
) -> Tuple[Dict[str, float], List[Pass]]:
    from suite import CellTimes  # needs the program on sys.path

    # Every pass here carries a progress listener for per-cell times,
    # so the untraced pass is the like-for-like overhead baseline. It
    # counts toward ``seconds`` and is the source of cell and pool
    # timings.
    started = _now()
    untraced = run_pass(job, workdir, expected, CellTimes())
    passes = [untraced]
    spool = tempfile.mkdtemp(prefix="spool-", dir=workdir)
    tracer = LayerTracer(spool)
    traced: List[Pass] = []
    phases: Dict[str, float] = {}
    reference_counts = expected.get("counts")
    previous = tracer_counts(tracer)
    with tracer:
        while not traced or not _out_of_time(started, traced, seconds):
            current = run_pass(job, workdir, expected, CellTimes())
            tracer.merge_workers()
            traced.append(current)
            passes.append(current)
            if current.outcome is None:
                break
            for name, value in current.outcome.phases.items():
                phases[name] = phases.get(name, 0.0) + value
            cumulative = tracer_counts(tracer)
            counts = {
                name: cumulative[name] - previous[name] for name in cumulative
            }
            counts["cells"] = len(current.cells.durations())
            previous = cumulative
            current.counts = counts
            if counts != reference_counts and current.failed == 0:
                current.failed = current.units
                current.error = (
                    f"deterministic counts {counts} differ from the "
                    f"reference {reference_counts}"
                )
    n = len(traced)
    metrics: Dict[str, float] = {}
    for layer in TIMED_LAYERS:
        calls, total, covered = tracer.stats.get(layer, (0, 0.0, 0.0))
        metrics[f"{layer}.calls"] = calls / n
        metrics[f"{layer}.s"] = total / n
        metrics[f"{layer}.self_s"] = (total - covered) / n
    step_calls, step_s, step_covered = tracer.stats.get(
        "engine.simulator.step", (0, 0.0, 0.0)
    )
    durations = tracer.step_durations
    metrics["engine.simulator.step.p50_us"] = _quantile(durations, 0.5) * 1e6
    metrics["engine.simulator.step.p99_us"] = _quantile(durations, 0.99) * 1e6
    metrics["engine.simulator.step.self_share"] = (
        (step_s - step_covered) / step_s if step_s else 0.0
    )
    metrics["engine.simulator.step.outage_ticks"] = tracer.outage_ticks / n
    metrics["engine.simulator.step.repeat_ticks"] = tracer.repeat_ticks / n
    metrics["engine.simulator.step.repeat_ratio"] = (
        tracer.repeat_ticks / step_calls if step_calls else 0.0
    )
    counts = tracer_counts(tracer)
    metrics["engine.simulator.rescale.calls"] = counts["rescale_calls"] / n
    metrics["engine.simulator.fail_instance.calls"] = (
        counts["fail_instance_calls"] / n
    )
    metrics["engine.simulator.outage_virtual_s"] = tracer.virtual_outage_s / n
    metrics["faults.injector.faults_fired"] = counts["faults_fired"] / n
    metrics["core.controller.decisions"] = counts["decisions"] / n
    metrics["core.controller.actions"] = counts["actions"] / n
    metrics["core.controller.action_ratio"] = (
        counts["actions"] / counts["decisions"] if counts["decisions"] else 0.0
    )
    # Cell times and pool use come from the untraced pass.
    cell_s = untraced.cells.durations()
    span = untraced.cells.span()
    metrics["faults.campaigns.cells"] = len(cell_s)
    metrics["faults.campaigns.cell_p50_s"] = _quantile(cell_s, 0.5)
    metrics["faults.campaigns.cell_p90_s"] = _quantile(cell_s, 0.9)
    metrics["faults.campaigns.busy_ratio"] = (
        sum(cell_s) / (jobs * span) if span else 0.0
    )
    metrics["faults.campaigns.pool_transfer_s"] = (
        jobs * span - sum(cell_s) if span else 0.0
    )
    traced_cell_s = sum(sum(p.cells.durations()) for p in traced)
    loop_s = tracer.stats.get(CONTROL_LOOP, (0, 0.0, 0.0))[1]
    # Pool workers write their counters inside the cell, after the
    # control loop; that is the tracer's time, not the program's.
    metrics["faults.campaigns.cell_outside_loop_s"] = (
        (traced_cell_s - loop_s - tracer.spool_s) / n
        if traced_cell_s else 0.0
    )
    metrics["faults.checkpoint.appends"] = counts["journal_appends"] / n
    for name in (
        "sweeps.compile_grid",
        "sweeps.build_sweep_report",
        "sweeps.render_sweep_json",
    ):
        metrics[f"{name}.s"] = phases.get(name, 0.0) / n
    traced_wall = statistics.median(p.wall for p in traced)
    metrics["trace.untraced_wall_s"] = untraced.wall
    metrics["trace.traced_wall_s"] = traced_wall
    metrics["trace.overhead_ratio"] = traced_wall / untraced.wall - 1.0
    return metrics, passes


def environment(
    workload: Any, size: str, seed: int, variant: int
) -> Dict[str, Any]:
    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "workload": workload.name,
        "size": size,
        "seed": seed,
        "variant": variant,
        "backend": workload.backend,
        "jobs": workload.jobs,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "reference_kernel_s": REFERENCE_KERNEL_S,
        "sample_interval_s": INTERVAL_S,
    }


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny runs a seconds-long version (self-tests)",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    for path in (BENCH_DIR, SRC):
        if path not in sys.path:
            sys.path.insert(0, path)
    import suite

    workload = suite.WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"perfbench: unknown workload {args.workload!r} (expected "
            f"{', '.join(suite.WORKLOADS)})",
            file=sys.stderr,
        )
        return 2
    # Each workload pins its backend and job count; ambient settings
    # would otherwise change what is measured.
    os.environ.pop("REPRO_JOBS", None)
    os.environ["REPRO_ENGINE"] = workload.backend
    variant = workload.variant(args.seed)
    with open(REFERENCE, encoding="utf-8") as handle:
        reference = json.load(handle)
    expected = (
        reference.get(workload.name, {})
        .get(args.size, {})
        .get(str(variant), {})
    )
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    saved_tmp = (os.environ.get("TMPDIR"), tempfile.tempdir)
    os.environ["TMPDIR"] = tempfile.tempdir = workdir
    try:
        job = workload.prepare(args.size, variant)
        if args.trace:
            metrics, passes = measure_traced(
                job, args.seconds, workdir, expected, workload.jobs
            )
            units = [(name, unit) for name, unit, _ in PER_LAYER]
        else:
            metrics, passes = measure_untraced(
                job, args.seconds, workdir, expected
            )
            metrics["setup_s"] = measure_setup(
                workload.name, args.size, variant
            )
            metrics["peak_rss_mb"] = peak_rss_mb()
            units = END_TO_END
    finally:
        if saved_tmp[0] is None:
            os.environ.pop("TMPDIR", None)
        else:
            os.environ["TMPDIR"] = saved_tmp[0]
        tempfile.tempdir = saved_tmp[1]
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.units for p in passes)
    failed = sum(p.failed for p in passes)
    print(json.dumps({"environment": environment(
        workload, args.size, args.seed, variant)}))
    for index, p in enumerate(passes):
        calibrated = (
            f" (calibrated: wall {p.cal_wall:.4f} s, cpu {p.cal_cpu:.4f} s,"
            f" speed factor {p.meter.factor():.4f},"
            f" {p.meter.steal_s:.2f} s stolen)" if p.meter else ""
        )
        print(f"pass {index}: wall {p.wall:.4f} s, cpu {p.cpu:.4f} s"
              f"{calibrated}, {p.units} units, {p.failed} failed"
              + (f": {p.error}" if p.error else ""))
    for name, unit in units:
        print(f"{name} {metrics[name]:.6g} {unit}")
    print(
        f"error_rate {failed / attempted:.6g} ratio "
        f"({failed} of {attempted} units failed, {len(passes)} passes)"
    )
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units
        },
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
