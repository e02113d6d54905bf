"""One executor, every configuration: placement × policy × journal.

`CampaignExecutor` runs cells inline (`jobs=1`) or on a process pool,
fails fast (`retry=None`) or retries then quarantines, with or without
a checkpoint journal. None of these choices may change what a batch
produces: on the smoke profile every combination must yield the same
scorecards, the same folded telemetry, the same span structure, and
the same per-cell heartbeat kinds as the inline, fail-fast,
unjournaled run.
"""

import dataclasses

import pytest

from repro.experiments.chaos import resolve_workload
from repro.faults.campaigns import (
    PROFILES,
    CampaignGenerator,
    CampaignTargets,
)
from repro.faults.checkpoint import (
    CheckpointJournal,
    JournalHeader,
    load_journal,
)
from repro.faults.executor import CampaignExecutor, CellRetryPolicy
from repro.telemetry.progress import ProgressListener
from repro.telemetry.registry import MetricsRegistry, metering
from repro.telemetry.spans import SpanProfiler, profiling
from repro.workloads.wordcount import heron_wordcount_graph

POOL_TIMEOUT = 180.0

HEADER = JournalHeader(
    profile="smoke",
    workload="wordcount",
    seed=1,
    campaigns=1,
    controllers=("dhalion", "ds2", "ds2-legacy"),
)


class _Recorder(ProgressListener):
    def __init__(self):
        self.events = []

    def on_event(self, event):
        self.events.append(event)


def _kinds_per_cell(beats):
    """``index -> [kind, ...]`` in emission order."""
    per_cell = {}
    for index, kind in beats:
        per_cell.setdefault(index, []).append(kind)
    return per_cell


def _comparable(snapshot):
    """The folded snapshot minus host timing: wall-clock histograms
    keep their (deterministic) observation counts only."""
    metrics = []
    for metric in snapshot["metrics"]:
        if metric["type"] == "histogram":
            metric = dict(metric)
            metric["samples"] = [
                {"labels": sample["labels"], "count": sample["count"]}
                for sample in metric["samples"]
            ]
        metrics.append(metric)
    return metrics


def _run(tmp_path, *, jobs, retry, journaled):
    runner = resolve_workload("wordcount").runner(2.0)
    generator = CampaignGenerator(
        PROFILES["smoke"],
        CampaignTargets.from_graph(heron_wordcount_graph()),
        seed=1,
    )
    recorder = _Recorder()
    registry = MetricsRegistry()
    profiler = SpanProfiler()
    journal = None
    if journaled:
        path = str(tmp_path / "matrix.jsonl")
        journal = CheckpointJournal.open(path, HEADER)
    try:
        with metering(registry), profiling(profiler):
            outcome = runner.run(
                generator,
                1,
                executor=CampaignExecutor(
                    jobs=jobs,
                    retry=retry,
                    journal=journal,
                    progress=recorder,
                    pool_timeout=POOL_TIMEOUT,
                ),
            )
    finally:
        if journal is not None:
            journal.close()
    beats = [(event.index, event.kind) for event in recorder.events]
    if journaled:
        # Journaled heartbeats mirror what the listener saw.
        assert [
            (beat["index"], beat["event"])
            for beat in load_journal(path).heartbeats
        ] == beats
    assert outcome.coverage.complete
    return {
        "scorecards": [
            dataclasses.asdict(card) for card in outcome.scorecards
        ],
        "telemetry": _comparable(registry.snapshot()),
        "spans": profiler.structure(),
        "heartbeats": _kinds_per_cell(beats),
    }


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    return _run(
        tmp_path_factory.mktemp("reference"),
        jobs=1,
        retry=None,
        journaled=False,
    )


@pytest.mark.parametrize("journaled", [False, True],
                         ids=["no-journal", "journal"])
@pytest.mark.parametrize("retry", [None, CellRetryPolicy()],
                         ids=["fail-fast", "retry"])
@pytest.mark.parametrize("jobs", [1, 2], ids=["inline", "pool"])
def test_smoke_matrix_is_identical(
    tmp_path, reference, jobs, retry, journaled
):
    result = _run(tmp_path, jobs=jobs, retry=retry, journaled=journaled)
    assert result["scorecards"] == reference["scorecards"]
    assert len(result["scorecards"]) == 3
    assert result["telemetry"] == reference["telemetry"]
    assert result["spans"] == reference["spans"]
    assert result["heartbeats"] == reference["heartbeats"]
    assert result["heartbeats"] == {
        index: ["start", "done"] for index in range(3)
    }
