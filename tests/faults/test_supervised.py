"""Supervision suite: retry, quarantine, timeouts, interrupt/resume.

The journal's durability contract lives in test_checkpoint.py; this
file covers the executor's retry policy and signal handling around it:

* bounded retry with capped exponential backoff (injected fake sleep
  asserts the exact wait sequence),
* quarantine of cells that exhaust the budget — the batch completes
  with coverage annotated instead of aborting, on both the in-process
  and the process-pool paths,
* per-cell SIGALRM wall-clock deadlines,
* SIGTERM mid-campaign -> `CampaignInterrupted` naming the journal,
  then a resume that completes the batch with identical scorecards,
* `CampaignRunner.run` under a retry policy emitting the same trace
  and scorecards as the fail-fast path,
* the chaos report's coverage annotation.
"""

import dataclasses
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.errors import FaultInjectionError
from repro.experiments.chaos import chaos_report, run_chaos
from repro.faults.campaigns import run_campaign_cell
from repro.faults.checkpoint import CheckpointJournal
from repro.faults.executor import (
    CampaignExecutor,
    CampaignInterrupted,
    CellRetryPolicy,
)
from repro.telemetry.progress import ProgressListener
from repro.telemetry.tracer import Tracer, tracing
from tests.faults.test_checkpoint import (
    CLI_ARGS,
    HEADER,
    _cli_env,
    _generator,
    _runner,
    _specs,
)

POOL_TIMEOUT = 180.0


# ----------------------------------------------------------------------
# Runners (module-level where the process pool needs to pickle them)
# ----------------------------------------------------------------------

def _fail_dhalion(spec):
    """Poison exactly the dhalion cells; everything else is real."""
    if spec.controller == "dhalion":
        raise ValueError("injected poison")
    return run_campaign_cell(spec)


def _sleep_forever(spec):
    time.sleep(30.0)
    return run_campaign_cell(spec)


class _Flaky:
    """Fail the first ``failures`` attempts of selected cells.

    In-process only (carries mutable state), which is exactly where the
    backoff sequence is observable through an injected sleep.
    """

    def __init__(self, failures_by_key):
        self.failures = dict(failures_by_key)
        self.attempts = {}

    def __call__(self, spec):
        count = self.attempts.get(spec.key, 0) + 1
        self.attempts[spec.key] = count
        if count <= self.failures.get(spec.key, 0):
            raise RuntimeError(f"flaky attempt {count}")
        return run_campaign_cell(spec)


class _TerminateAt:
    """Deliver SIGTERM to ourselves when a specific cell comes up."""

    def __init__(self, key):
        self.key = key

    def __call__(self, spec):
        if spec.key == self.key:
            os.kill(os.getpid(), signal.SIGTERM)
        return run_campaign_cell(spec)


class _TerminateOnFirstStart(ProgressListener):
    """Deliver SIGTERM to ourselves when the first cell is submitted."""

    def __init__(self):
        self.sent = False

    def on_event(self, event):
        if event.kind != "start" or self.sent:
            return
        self.sent = True
        # Without an executor-installed handler, SIGTERM would kill
        # the test process instead of failing the test.
        assert signal.getsignal(signal.SIGTERM) not in (
            signal.SIG_DFL,
            None,
        ), "no SIGTERM handler installed around the campaign"
        os.kill(os.getpid(), signal.SIGTERM)


class TestRetryPolicy:
    def test_backoff_sequence_is_capped_exponential(self):
        policy = CellRetryPolicy()
        waits = [policy.backoff_seconds(n) for n in range(1, 7)]
        assert waits == [0.25, 0.5, 1.0, 2.0, 4.0, 4.0]

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"max_attempts": 0}, "max_attempts"),
            ({"backoff_base": 0.5}, "backoff_base"),
            ({"initial_backoff_seconds": 0.0}, "initial_backoff"),
            (
                {
                    "initial_backoff_seconds": 2.0,
                    "max_backoff_seconds": 1.0,
                },
                "max_backoff",
            ),
        ],
    )
    def test_invalid_policy_rejected(self, kwargs, match):
        with pytest.raises(FaultInjectionError, match=match):
            CellRetryPolicy(**kwargs)

    def test_attempt_must_be_positive(self):
        with pytest.raises(FaultInjectionError, match="attempt"):
            CellRetryPolicy().backoff_seconds(0)

    def test_executor_rejects_bad_limits(self):
        with pytest.raises(FaultInjectionError, match="jobs"):
            CampaignExecutor(jobs=0)
        with pytest.raises(FaultInjectionError, match="cell_timeout"):
            CampaignExecutor(cell_timeout=0.0)


class TestRetryAndQuarantine:
    def test_flaky_cell_retried_with_exact_backoff(self):
        specs = _specs(campaigns=1)
        flaky = _Flaky({specs[0].key: 2})
        sleeps = []
        supervisor = CampaignExecutor(
            retry=CellRetryPolicy(), runner=flaky, sleep=sleeps.append
        )
        outcome = supervisor.execute(specs)
        assert outcome.coverage.complete
        assert sleeps == [0.25, 0.5]
        assert flaky.attempts[specs[0].key] == 3
        # Retries re-run the same deterministic cell, so the batch
        # still matches an unsupervised run exactly.
        assert outcome.scorecards == CampaignExecutor().run_cells(specs)

    def test_poison_cell_quarantined_serially(self):
        specs = _specs(campaigns=1)
        sleeps = []
        supervisor = CampaignExecutor(
            runner=_fail_dhalion,
            retry=CellRetryPolicy(max_attempts=2),
            sleep=sleeps.append,
        )
        outcome = supervisor.execute(specs)
        cov = outcome.coverage
        assert (cov.cells, cov.completed, cov.quarantined) == (3, 2, 1)
        assert not cov.complete
        (cell,) = cov.quarantined_cells
        assert cell.key == next(
            s.key for s in specs if s.controller == "dhalion"
        )
        assert cell.attempts == 2
        assert "ValueError: injected poison" in cell.error
        assert "injected poison" in cell.traceback
        # One backoff between the two rounds, none after the last.
        assert sleeps == [0.25]
        good = [s for s in specs if s.controller != "dhalion"]
        assert outcome.scorecards == CampaignExecutor().run_cells(good)

    def test_run_cells_contract_turns_quarantine_into_error(self):
        specs = _specs(campaigns=1)
        supervisor = CampaignExecutor(
            runner=_fail_dhalion,
            retry=CellRetryPolicy(max_attempts=1),
            sleep=lambda _: None,
        )
        with pytest.raises(
            FaultInjectionError, match="retry budget.*dhalion"
        ):
            supervisor.run_cells(specs)

    def test_poison_cell_quarantined_on_pool(self):
        specs = _specs(campaigns=1)
        supervisor = CampaignExecutor(
            jobs=2,
            runner=_fail_dhalion,
            retry=CellRetryPolicy(max_attempts=2),
            sleep=lambda _: None,
            pool_timeout=POOL_TIMEOUT,
        )
        outcome = supervisor.execute(specs)
        cov = outcome.coverage
        assert (cov.cells, cov.completed, cov.quarantined) == (3, 2, 1)
        (cell,) = cov.quarantined_cells
        assert cell.attempts == 2
        assert "ValueError: injected poison" in cell.error
        good = [s for s in specs if s.controller != "dhalion"]
        assert outcome.scorecards == CampaignExecutor().run_cells(good)


class TestCellTimeout:
    def test_over_budget_cell_is_a_failed_attempt(self):
        specs = _specs(campaigns=1)[:1]
        supervisor = CampaignExecutor(
            runner=_sleep_forever,
            retry=CellRetryPolicy(max_attempts=1),
            cell_timeout=0.2,
            sleep=lambda _: None,
        )
        start = time.monotonic()  # repro: allow[REPRO101] — test timeout guard
        outcome = supervisor.execute(specs)
        assert time.monotonic() - start < 10.0  # repro: allow[REPRO101]
        (cell,) = outcome.coverage.quarantined_cells
        assert cell.error == "cell exceeded its 0.2s timeout"

    def test_timeout_applies_without_checkpoint(self):
        """Fail fast: an over-budget cell aborts an un-checkpointed
        run, naming the cell."""
        with pytest.raises(FaultInjectionError) as caught:
            run_chaos(
                profile="smoke",
                campaigns=1,
                include_recovery=False,
                cell_timeout=0.001,
            )
        message = str(caught.value)
        assert "(seed=1, campaign=0, controller='ds2')" in message
        assert "exceeded its 0.001s timeout" in message


class TestInterruptAndResume:
    def test_sigterm_drains_then_resume_completes(self, tmp_path):
        path = str(tmp_path / "chaos.ckpt")
        specs = _specs(campaigns=2)
        assert len(specs) == 6
        with CheckpointJournal.open(path, HEADER) as journal:
            supervisor = CampaignExecutor(
                retry=CellRetryPolicy(),
                runner=_TerminateAt(specs[3].key),
                journal=journal,
            )
            with pytest.raises(CampaignInterrupted) as caught:
                supervisor.execute(specs)
        interrupted = caught.value
        assert interrupted.completed == 3
        assert interrupted.cells == 6
        assert interrupted.path == path
        assert path in str(interrupted)

        with CheckpointJournal.open(
            path, HEADER, resume=True
        ) as journal:
            outcome = CampaignExecutor(
                retry=CellRetryPolicy(), journal=journal
            ).execute(specs)
        assert outcome.resumed == 3
        assert outcome.coverage.complete
        assert outcome.scorecards == CampaignExecutor().run_cells(specs)

    def test_interrupt_without_journal_says_cells_are_lost(self):
        specs = _specs(campaigns=1)
        supervisor = CampaignExecutor(
            retry=CellRetryPolicy(), runner=_TerminateAt(specs[1].key)
        )
        with pytest.raises(CampaignInterrupted) as caught:
            supervisor.execute(specs)
        assert caught.value.path is None
        assert "no checkpoint" in str(caught.value)

    def test_sigterm_without_checkpoint_on_pool(self):
        with pytest.raises(CampaignInterrupted) as caught:
            run_chaos(
                profile="smoke",
                campaigns=1,
                tick=2.0,
                include_recovery=False,
                jobs=2,
                progress=_TerminateOnFirstStart(),
            )
        assert caught.value.path is None
        assert caught.value.cells == 3
        assert "no checkpoint" in str(caught.value)

    def test_cli_sigterm_without_checkpoint_exits_130(self):
        # Own session, so pool workers orphaned by a failing run can be
        # reaped with the whole group.
        process = subprocess.Popen(
            [sys.executable, "-m", "repro"]
            + CLI_ARGS
            + ["--jobs", "2", "--progress"],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            env=_cli_env(),
            start_new_session=True,
        )
        try:
            # The first heartbeat proves the campaign is running.
            line = process.stderr.readline()
            while line and " start " not in line:
                line = process.stderr.readline()
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=POOL_TIMEOUT) == 130
            stderr = process.stderr.read()
        finally:
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            process.wait(timeout=60)
            process.stderr.close()
        assert "no checkpoint" in stderr
        assert "resume with" not in stderr


class TestSupervisedCampaignDriver:
    def test_matches_plain_campaign_runner_trace(self):
        runner = _runner()
        plain_tracer = Tracer()
        with tracing(plain_tracer):
            plain = runner.run(_generator(), 2).scorecards
        supervised_tracer = Tracer()
        with tracing(supervised_tracer):
            outcome = runner.run(
                _generator(),
                2,
                executor=CampaignExecutor(retry=CellRetryPolicy()),
            )
        assert outcome.scorecards == plain
        assert outcome.coverage.complete
        assert (
            supervised_tracer.to_jsonl() == plain_tracer.to_jsonl()
        )

    def test_quarantine_traced_instead_of_aborting(self):
        tracer = Tracer()
        with tracing(tracer):
            outcome = _runner().run(
                _generator(),
                1,
                executor=CampaignExecutor(
                    runner=_fail_dhalion,
                    retry=CellRetryPolicy(max_attempts=1),
                    sleep=lambda _: None,
                ),
            )
        assert outcome.coverage.quarantined == 1
        (event,) = tracer.events("campaign.quarantine")
        assert event.data["controller"] == "dhalion"
        assert "injected poison" in event.data["error"]
        assert len(tracer.events("campaign.cell")) == 2
        assert len(tracer.events("campaign.end")) == 1


class TestChaosReportCoverage:
    def test_report_annotates_coverage_and_quarantine(self, tmp_path):
        result = run_chaos(
            profile="smoke",
            campaigns=1,
            tick=2.0,
            include_recovery=False,
            checkpoint=str(tmp_path / "chaos.ckpt"),
        )
        report = chaos_report(result)
        assert "Coverage: 3/3 cells completed, 0 quarantined" in report

        quarantined = dataclasses.replace(
            result,
            coverage=dataclasses.replace(
                result.coverage,
                completed=2,
                quarantined=1,
                quarantined_cells=(
                    dataclasses.replace(
                        result.coverage.quarantined_cells[0]
                        if result.coverage.quarantined_cells
                        else _quarantined_stub(),
                        attempts=3,
                    ),
                ),
            ),
        )
        report = chaos_report(quarantined)
        assert "Coverage: 2/3 cells completed, 1 quarantined" in report
        assert (
            "quarantined (seed=1, campaign=0, controller='dhalion') "
            "after 3 attempt(s): ValueError: injected poison"
        ) in report


def _quarantined_stub():
    from repro.faults.executor import QuarantinedCell

    return QuarantinedCell(
        key=(1, 0, "dhalion"),
        attempts=3,
        error="ValueError: injected poison",
    )
