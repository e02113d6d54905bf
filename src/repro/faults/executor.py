"""The campaign executor: where cells run and what a failure costs.

Every chaos run and every parameter sweep is a batch of independent
``(seed, campaign, controller)`` cells. :class:`CampaignExecutor` is the
one backend that runs them, along two axes:

* **Placement.** Cells run inline (in this process) when ``jobs == 1``
  or only one cell is pending, otherwise on a process pool of ``jobs``
  workers.
* **Failure policy.** ``retry=None`` fails fast: inline, the cell's
  own exception propagates; on the pool, a
  :class:`~repro.errors.FaultInjectionError` names the cell, carries
  the worker traceback, and pending cells are cancelled. A
  :class:`CellRetryPolicy` retries failed cells in rounds with capped
  exponential backoff (the control loop's curve, see
  :mod:`repro.core.backoff`) and quarantines those that exhaust the
  budget: the batch *completes* and reports its
  :class:`CampaignCoverage` instead of aborting.

Orthogonal to both: an optional checkpoint journal
(:mod:`repro.faults.checkpoint`; cells already journaled are not
re-run, every completed cell is fsynced the moment it finishes), an
optional per-cell wall-clock budget (``cell_timeout``, SIGALRM in the
executing process), progress heartbeats, and SIGINT/SIGTERM draining:
in-flight cells finish and are journaled, then
:class:`CampaignInterrupted` says how far the batch got.
A hard-killed parent cannot drain at all; its pool workers notice the
death and exit on their own (:func:`exit_with_parent`).

Determinism contract: placement, policy and resumption never change
results. Each cell meters into a private registry and profiler; the
snapshots are folded into the ambient sinks in canonical cell order
after the batch, so scorecards, merged telemetry and span structure are
byte-identical inline, on a pool, fresh, or resumed.
"""

from __future__ import annotations

import concurrent.futures
import os
import signal
import threading
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.backoff import capped_backoff, invalid_backoff_reason
from repro.errors import FaultInjectionError
from repro.faults.campaigns import (
    CampaignCellSpec,
    CellKey,
    SasoScorecard,
    _cell_label,
    resolve_jobs,
    run_campaign_cell,
)
from repro.telemetry.progress import (
    NULL_PROGRESS,
    CellEvent,
    ProgressListener,
)
from repro.telemetry.registry import (
    MetricsRegistry,
    active_registry,
    metering,
    wall_clock,
)
from repro.telemetry.spans import (
    SpanProfiler,
    active_profiler,
    profiling,
)

if TYPE_CHECKING:
    from repro.faults.checkpoint import CheckpointJournal

#: A cell body: spec in, scorecard out. Injectable on the executor so
#: tests can exercise retry/timeout/quarantine with controlled bodies;
#: must be a module-level callable to cross into pool workers.
CellRunner = Callable[[CampaignCellSpec], SasoScorecard]


# ----------------------------------------------------------------------
# Failure-policy types
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CellRetryPolicy:
    """Bounded retry for campaign cells (capped exponential backoff).

    Same curve as the control loop's
    :class:`~repro.core.controller.RetryConfig`, in wall seconds: the
    first retry waits ``initial_backoff_seconds``, each further retry
    multiplies by ``backoff_base``, capped at ``max_backoff_seconds``.
    After ``max_attempts`` total attempts the cell is quarantined.
    """

    max_attempts: int = 3
    backoff_base: float = 2.0
    initial_backoff_seconds: float = 0.25
    max_backoff_seconds: float = 4.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise FaultInjectionError("max_attempts must be >= 1")
        reason = invalid_backoff_reason(
            base=self.backoff_base,
            initial=self.initial_backoff_seconds,
            cap=self.max_backoff_seconds,
            base_name="backoff_base",
            initial_name="initial_backoff_seconds",
            cap_name="max_backoff_seconds",
        )
        if reason is not None:
            raise FaultInjectionError(reason)

    def backoff_seconds(self, attempt: int) -> float:
        """Seconds to wait after failed attempt ``attempt`` (1-based)."""
        if attempt < 1:
            raise FaultInjectionError("attempt must be >= 1")
        return capped_backoff(
            attempt,
            base=self.backoff_base,
            initial=self.initial_backoff_seconds,
            cap=self.max_backoff_seconds,
        )


@dataclass(frozen=True)
class QuarantinedCell:
    """A cell that exhausted its retry budget."""

    key: CellKey
    attempts: int
    error: str
    traceback: str = ""


@dataclass(frozen=True)
class CampaignCoverage:
    """Exactly which cells of a batch produced scorecards."""

    cells: int
    completed: int
    quarantined: int
    quarantined_cells: Tuple[QuarantinedCell, ...] = ()

    @property
    def complete(self) -> bool:
        return self.quarantined == 0 and self.completed == self.cells


@dataclass(frozen=True)
class CampaignOutcome:
    """Everything a batch produced.

    ``by_index`` maps each completed spec index to its scorecard, in
    canonical order (quarantined cells are absent); ``resumed`` counts
    cells recovered from the journal rather than run live.
    """

    by_index: Dict[int, SasoScorecard]
    coverage: CampaignCoverage
    resumed: int

    @property
    def scorecards(self) -> List[SasoScorecard]:
        """The completed cells' scorecards in canonical order."""
        return list(self.by_index.values())


class CampaignInterrupted(Exception):
    """A campaign was stopped by SIGINT/SIGTERM.

    In-flight cells were drained and journaled; ``completed``/``cells``
    say how far the run got, ``path`` names the journal to resume from
    (``None`` when the run had no checkpoint).
    """

    def __init__(
        self,
        message: str,
        *,
        completed: int,
        cells: int,
        path: Optional[str] = None,
    ) -> None:
        super().__init__(message)
        self.completed = completed
        self.cells = cells
        self.path = path


# ----------------------------------------------------------------------
# Signals: per-cell deadlines and soft termination
# ----------------------------------------------------------------------

class _CellTimeout(Exception):
    """Raised inside a cell when its SIGALRM deadline fires."""


def _raise_cell_timeout(signum: int, frame: object) -> None:
    raise _CellTimeout()


@contextmanager
def _cell_alarm(timeout: Optional[float]) -> Iterator[None]:
    """Arm a per-cell wall-clock deadline via SIGALRM.

    Works in the executing process's main thread (both inline cells
    and process-pool workers qualify); elsewhere, or on platforms
    without SIGALRM, the deadline is simply not enforced. Without a
    ``timeout`` SIGALRM is left untouched.
    """
    usable = (
        timeout is not None
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return
    assert timeout is not None
    previous = signal.signal(signal.SIGALRM, _raise_cell_timeout)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@contextmanager
def _terminate_as_interrupt() -> Iterator[None]:
    """Map SIGTERM onto KeyboardInterrupt for the enclosed block.

    An executor killed softly (``kill PID``) then drains and flushes
    exactly like one stopped with Ctrl-C. Signal handlers are a
    main-thread-only facility; elsewhere the block runs unchanged.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return

    def _handler(signum: int, frame: object) -> None:
        raise KeyboardInterrupt()

    previous = signal.signal(signal.SIGTERM, _handler)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


#: Seconds between a pool worker's checks that its parent still lives.
PARENT_POLL_SECONDS = 0.2


# repro: worker-entry
def exit_with_parent() -> None:
    """Pool-worker initializer: exit as soon as the parent is gone.

    A parent that is hard-killed (SIGKILL) cannot shut its pool down,
    and its workers would block forever on the call queue. A daemon
    thread watches the worker's parent pid; once the worker has been
    re-parented, it exits at once, even mid-cell.
    """
    parent = os.getppid()
    pause = threading.Event()

    def watch() -> None:
        while os.getppid() == parent:
            pause.wait(PARENT_POLL_SECONDS)
        os._exit(1)

    threading.Thread(
        target=watch, name="repro-parent-watch", daemon=True
    ).start()


# ----------------------------------------------------------------------
# The worker body
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CellOutcome:
    """One cell attempt, as it crosses back from where it ran.

    A success carries the scorecard, the cell's telemetry snapshot,
    its span payload (when the parent profiles), its wall-clock
    duration and the executing pid. A failure has no scorecard and
    carries the error, the traceback formatted where it still existed,
    and whether the cell ran out of time.
    """

    index: int
    key: CellKey
    scorecard: Optional[SasoScorecard] = None
    telemetry: Dict[str, object] = field(default_factory=dict)
    spans: Optional[Dict[str, object]] = None
    duration: float = 0.0
    worker: int = 0
    error: str = ""
    traceback: str = ""
    timed_out: bool = False


# repro: worker-entry
def execute_cell(
    index: int,
    spec: CampaignCellSpec,
    runner: CellRunner = run_campaign_cell,
    timeout: Optional[float] = None,
    propagate: bool = False,
) -> CellOutcome:
    """Run one cell attempt into a private registry and profiler.

    Module-level and picklable: inline cells and pool workers run this
    same body. Telemetry lands in a fresh registry whose snapshot the
    parent folds back (workers inherit the parent's ambient registry
    under fork, but must not count into it); spans are recorded only
    when the parent's ambient profiler is enabled. Failures are
    *returned* with their traceback, because ``concurrent.futures``
    pickles exceptions without one; with ``propagate`` (inline
    fail-fast) the cell's own exception is re-raised instead. A missed
    deadline is always returned. KeyboardInterrupt is never caught:
    interrupts belong to the executor.
    """
    registry = MetricsRegistry()
    profiler: Optional[SpanProfiler] = (
        SpanProfiler() if active_profiler().enabled else None
    )
    started = wall_clock()
    try:
        with _cell_alarm(timeout), metering(registry):
            if profiler is None:
                card = runner(spec)
            else:
                with profiling(profiler):
                    card = runner(spec)
    except _CellTimeout:
        return CellOutcome(
            index=index,
            key=spec.key,
            error=f"cell exceeded its {timeout or 0.0:g}s timeout",
            timed_out=True,
        )
    except Exception as error:  # noqa: BLE001 — judged by the policy
        if propagate:
            raise
        return CellOutcome(
            index=index,
            key=spec.key,
            error=f"{type(error).__name__}: {error}",
            traceback=traceback.format_exc(),
        )
    return CellOutcome(
        index=index,
        key=spec.key,
        scorecard=card,
        telemetry=registry.snapshot(),
        spans=None if profiler is None else profiler.to_dict(),
        duration=wall_clock() - started,
        worker=os.getpid(),
    )


# ----------------------------------------------------------------------
# The executor
# ----------------------------------------------------------------------

_Absorb = Callable[[CellOutcome], None]


class CampaignExecutor:
    """Runs campaign cells: placement × failure policy.

    Args:
        jobs: Worker processes; 1 runs every cell inline, ``None``
            consults ``$REPRO_JOBS``.
        retry: ``None`` fails fast; a :class:`CellRetryPolicy` retries
            then quarantines.
        cell_timeout: Wall-clock budget of one attempt (SIGALRM in the
            executing process); an over-budget cell is a failure.
        journal: Checkpoint journal to resume from and record into.
        progress: Heartbeat sink; with a journal, heartbeats are
            journaled too.
        pool_timeout: Deadlock guard on the pool: the longest wait for
            the rest of a round's cells.
        runner: The cell body (tests inject failing ones).
        sleep: Backoff sleeper (tests inject a recorder).
    """

    def __init__(
        self,
        *,
        jobs: Optional[int] = 1,
        retry: Optional[CellRetryPolicy] = None,
        cell_timeout: Optional[float] = None,
        journal: Optional["CheckpointJournal"] = None,
        progress: Optional[ProgressListener] = None,
        pool_timeout: Optional[float] = None,
        runner: CellRunner = run_campaign_cell,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if cell_timeout is not None and cell_timeout <= 0:
            raise FaultInjectionError(
                f"cell_timeout must be > 0, got {cell_timeout}"
            )
        self._jobs = resolve_jobs(jobs)
        self._retry = retry
        self._cell_timeout = cell_timeout
        self._journal = journal
        self._progress = (
            progress if progress is not None else NULL_PROGRESS
        )
        self._pool_timeout = pool_timeout
        self._runner = runner
        self._sleep = sleep

    @property
    def jobs(self) -> int:
        return self._jobs

    def run_cells(
        self, specs: Sequence[CampaignCellSpec]
    ) -> List[SasoScorecard]:
        """One scorecard per spec, in spec order; a quarantined cell
        is an error here. Callers that want a partial batch plus its
        coverage use :meth:`execute`."""
        outcome = self.execute(specs)
        coverage = outcome.coverage
        if coverage.quarantined:
            labels = ", ".join(
                _cell_label(cell.key)
                for cell in coverage.quarantined_cells
            )
            raise FaultInjectionError(
                f"{coverage.quarantined} campaign cell(s) exhausted "
                f"their retry budget: {labels}"
            )
        return outcome.scorecards

    def execute(
        self, specs: Sequence[CampaignCellSpec]
    ) -> CampaignOutcome:
        """Run the batch: resume, attempt in rounds, quarantine what
        is left, fold telemetry in canonical order."""
        specs = list(specs)
        journal = self._journal
        done: Dict[int, CellOutcome] = {}
        if journal is not None:
            for index, cell in journal.match(specs).items():
                done[index] = CellOutcome(
                    index=index,
                    key=cell.key,
                    scorecard=cell.scorecard,
                    telemetry=cell.telemetry,
                    spans=cell.spans,
                )
            for count, index in enumerate(sorted(done), start=1):
                self._beat("resume", specs, index, count)
        resumed = len(done)
        failures: Dict[int, CellOutcome] = {}

        def absorb(outcome: CellOutcome) -> None:
            index = outcome.index
            spec = specs[index]
            if outcome.scorecard is not None:
                if journal is not None:
                    journal.record_cell(
                        spec,
                        outcome.scorecard,
                        outcome.telemetry,
                        spans=outcome.spans,
                        duration=outcome.duration,
                        worker=outcome.worker,
                    )
                done[index] = outcome
                failures.pop(index, None)
                self._beat(
                    "done", specs, index, len(done),
                    worker=outcome.worker, duration=outcome.duration,
                )
                return
            if self._retry is None:
                message = (
                    f"campaign cell {_cell_label(spec.key)} failed: "
                    f"{outcome.error}"
                )
                if outcome.traceback:
                    message += (
                        f"\n--- worker traceback ---\n"
                        f"{outcome.traceback.rstrip()}"
                    )
                raise FaultInjectionError(message)
            failures[index] = outcome
            self._beat("retry", specs, index, len(done))

        pending = [i for i in range(len(specs)) if i not in done]
        attempts = 1 if self._retry is None else self._retry.max_attempts
        quarantined: List[QuarantinedCell] = []
        try:
            with _terminate_as_interrupt():
                if self._jobs > 1 and pending:
                    self._ensure_submittable(specs, pending)
                for attempt in range(1, attempts + 1):
                    if not pending:
                        break
                    if self._retry is not None and attempt > 1:
                        self._sleep(
                            self._retry.backoff_seconds(attempt - 1)
                        )
                    if self._jobs == 1 or len(pending) == 1:
                        self._run_inline(specs, pending, absorb, done)
                    else:
                        self._run_pool(specs, pending, absorb, done)
                    pending = sorted(failures)
                for index in pending:
                    failure = failures[index]
                    if journal is not None:
                        journal.record_quarantine(
                            specs[index],
                            attempts=attempts,
                            error=failure.error,
                        )
                    quarantined.append(
                        QuarantinedCell(
                            key=failure.key,
                            attempts=attempts,
                            error=failure.error,
                            traceback=failure.traceback,
                        )
                    )
                    self._beat("quarantine", specs, index, len(done))
        except KeyboardInterrupt:
            path = journal.path if journal is not None else None
            raise CampaignInterrupted(
                f"campaign interrupted after {len(done)} of "
                f"{len(specs)} cells"
                + (
                    f"; completed cells are checkpointed in {path!r}"
                    if path is not None
                    else " (no checkpoint: completed cells are lost)"
                ),
                completed=len(done),
                cells=len(specs),
                path=path,
            ) from None
        # Canonical-order fold: merging is commutative for counters,
        # histograms and span counts, but gauges are last-write-wins,
        # so the order must not depend on where or when cells ran.
        registry = active_registry()
        profiler = active_profiler()
        for index in sorted(done):
            if registry.enabled:
                registry.merge_snapshot(done[index].telemetry)
            profiler.merge(done[index].spans)
        cards = {
            index: outcome.scorecard
            for index, outcome in sorted(done.items())
            if outcome.scorecard is not None
        }
        return CampaignOutcome(
            by_index=cards,
            coverage=CampaignCoverage(
                cells=len(specs),
                completed=len(cards),
                quarantined=len(quarantined),
                quarantined_cells=tuple(quarantined),
            ),
            resumed=resumed,
        )

    # -- one round ------------------------------------------------------

    def _run_inline(
        self,
        specs: Sequence[CampaignCellSpec],
        pending: Sequence[int],
        absorb: _Absorb,
        done: Dict[int, CellOutcome],
    ) -> None:
        for index in pending:
            self._beat(
                "start", specs, index, len(done), worker=os.getpid()
            )
            absorb(
                execute_cell(
                    index,
                    specs[index],
                    self._runner,
                    self._cell_timeout,
                    propagate=self._retry is None,
                )
            )

    def _run_pool(
        self,
        specs: Sequence[CampaignCellSpec],
        pending: Sequence[int],
        absorb: _Absorb,
        done: Dict[int, CellOutcome],
    ) -> None:
        pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=min(self._jobs, len(pending)),
            initializer=exit_with_parent,
        )
        waiting: Dict["concurrent.futures.Future[CellOutcome]", int] = {}

        def settle(
            future: "concurrent.futures.Future[CellOutcome]",
        ) -> CellOutcome:
            index = waiting.pop(future)
            try:
                return future.result()
            except Exception as error:
                # Hard worker deaths (BrokenProcessPool) and results
                # that fail to cross back: a failed attempt.
                return CellOutcome(
                    index=index,
                    key=specs[index].key,
                    error=(
                        f"worker died: {type(error).__name__}: {error}"
                    ),
                )

        # Only a finished round may block in shutdown: on error or
        # interrupt, waiting for in-flight cells could hang on a wedged
        # one, so queued cells are cancelled and the pool abandoned.
        graceful = False
        try:
            try:
                for index in pending:
                    future = pool.submit(
                        execute_cell,
                        index,
                        specs[index],
                        self._runner,
                        self._cell_timeout,
                    )
                    waiting[future] = index
                    self._beat("start", specs, index, len(done))
                self._drain(waiting, settle, absorb, specs)
            except KeyboardInterrupt:
                # Graceful drain: stop feeding the pool, let cells
                # already on a worker finish, journal them, then stop.
                pool.shutdown(wait=False, cancel_futures=True)
                started = [f for f in waiting if not f.cancelled()]
                finished, _ = concurrent.futures.wait(
                    started, timeout=self._drain_grace()
                )
                for future in finished:
                    outcome = settle(future)
                    if outcome.scorecard is not None:
                        absorb(outcome)
                raise
            graceful = True
        finally:
            pool.shutdown(wait=graceful, cancel_futures=True)

    def _drain(
        self,
        waiting: Dict["concurrent.futures.Future[CellOutcome]", int],
        settle: Callable[
            ["concurrent.futures.Future[CellOutcome]"], CellOutcome
        ],
        absorb: _Absorb,
        specs: Sequence[CampaignCellSpec],
    ) -> None:
        """Absorb cells as they finish. With progress on, wake every
        0.2 s so the renderer can refresh ETAs and report stalls;
        ``pool_timeout`` bounds the whole drain either way."""
        deadline = (
            None
            if self._pool_timeout is None
            else wall_clock() + self._pool_timeout
        )
        poll = 0.2 if self._progress.enabled else None
        while waiting:
            wait_for = poll
            if deadline is not None:
                left = max(0.0, deadline - wall_clock())
                wait_for = left if poll is None else min(poll, left)
            finished, _ = concurrent.futures.wait(
                list(waiting),
                timeout=wait_for,
                return_when=concurrent.futures.FIRST_COMPLETED,
            )
            for future in finished:
                absorb(settle(future))
            self._progress.tick()
            if (
                not finished
                and deadline is not None
                and wall_clock() >= deadline
            ):
                labels = ", ".join(
                    sorted(
                        _cell_label(specs[index].key)
                        for index in waiting.values()
                    )
                )
                raise FaultInjectionError(
                    f"campaign cells still pending after "
                    f"{self._pool_timeout}s: {labels}"
                )

    def _drain_grace(self) -> float:
        """Seconds to wait for in-flight cells on interrupt."""
        if self._cell_timeout is not None:
            return self._cell_timeout + 5.0
        if self._pool_timeout is not None:
            return self._pool_timeout
        return 60.0

    def _beat(
        self,
        kind: str,
        specs: Sequence[CampaignCellSpec],
        index: int,
        completed: int,
        *,
        worker: Optional[int] = None,
        duration: Optional[float] = None,
    ) -> None:
        """Deliver one heartbeat: render it and, when the batch is
        journaled, durably append it so a resumed run can report what
        the dead run was doing. Heartbeats are additive observability:
        never read back into scorecards, traces, or telemetry."""
        progress = self._progress
        if not progress.enabled:
            return
        event = CellEvent(
            kind=kind,
            index=index,
            key=specs[index].key,
            completed=completed,
            total=len(specs),
            worker=worker,
            duration=duration,
        )
        progress.on_event(event)
        if self._journal is not None:
            self._journal.record_heartbeat(event.to_payload())

    @staticmethod
    def _ensure_submittable(
        specs: Sequence[CampaignCellSpec], pending: Sequence[int]
    ) -> None:
        """Reject unpicklable controller factories before the pool
        spins up: a configuration error poisoning every cell, not a
        flaky cell to retry (static counterpart: the REPRO2xx
        pickle-safety rules)."""
        # Local import: repro.analysis must stay importable without
        # the faults stack.
        from repro.analysis.parallel import ensure_parallel_safe
        from repro.analysis.rules import AnalysisError

        for index in pending:
            spec = specs[index]
            try:
                ensure_parallel_safe(
                    spec.controller_factory,
                    context=(
                        f"campaign cell {_cell_label(spec.key)} "
                        "controller_factory"
                    ),
                )
            except AnalysisError as error:
                raise FaultInjectionError(str(error)) from error


__all__ = [
    "CampaignCoverage",
    "CampaignExecutor",
    "CampaignInterrupted",
    "CampaignOutcome",
    "CellOutcome",
    "CellRetryPolicy",
    "CellRunner",
    "QuarantinedCell",
    "execute_cell",
]
