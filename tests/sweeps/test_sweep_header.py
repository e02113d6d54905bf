"""`repro report` on sweep journals — and on everything older.

The journal header gained optional ``sweep``/``cells`` fields
(schema-versioned extension): a journal written by ``repro sweep run``
names its grid spec in every report rendering, while plain chaos
journals — including every journal written before sweeps existed —
keep their exact on-disk bytes and their "chaos run report" headline.
Both directions are regression-locked here; the committed
``tests/faults/golden_report.json`` byte-gate covers the old direction
end-to-end in ``scripts/check.sh``.
"""

import json
from pathlib import Path

from repro.experiments.chaos import resolve_workload
from repro.faults.campaigns import (
    PROFILES,
    CampaignGenerator,
    CampaignTargets,
)
from repro.faults.checkpoint import CheckpointJournal, JournalHeader
from repro.faults.executor import CampaignExecutor
from repro.sweeps import SweepSpec, run_sweep, sweep_label
from repro.telemetry.reports import (
    build_report,
    render_report_json,
    render_report_markdown,
    render_report_text,
)
from repro.workloads.wordcount import heron_wordcount_graph

SWEEP_SPEC = SweepSpec.build(
    "header-probe",
    axes={
        "profile": ["smoke"],
        "rate": [1.0],
        "controller": ["ds2", "dhalion"],
        "runtime": ["heron"],
    },
    tick=2.0,
)


def _chaos_journal(path):
    """A journal exactly as pre-sweep `repro run chaos` wrote it."""
    runner = resolve_workload("wordcount").runner(2.0)
    generator = CampaignGenerator(
        PROFILES["smoke"],
        CampaignTargets.from_graph(heron_wordcount_graph()),
        seed=1,
    )
    specs = runner.cell_specs(generator, 1)
    header = JournalHeader(
        profile="smoke",
        workload="wordcount",
        seed=1,
        campaigns=1,
        controllers=tuple(
            sorted({spec.controller for spec in specs})
        ),
    )
    with CheckpointJournal.open(path, header) as journal:
        CampaignExecutor(journal=journal).run_cells(specs)
    return specs


def test_sweep_journal_report_names_the_spec(tmp_path):
    path = str(tmp_path / "sweep.jsonl")
    run_sweep(SWEEP_SPEC, checkpoint=path)
    label = sweep_label(SWEEP_SPEC)
    report = build_report(path)
    assert report.sweep == label

    text = render_report_text(report)
    assert text.startswith(
        f"sweep run report — spec={label} workload=wordcount seed=1"
    )
    assert "cells: 2/2 completed" in text

    payload = json.loads(render_report_json(report))
    assert payload["header"]["sweep"] == label
    assert payload["coverage"]["expected"] == 2

    markdown = render_report_markdown(report)
    assert "# Sweep run report" in markdown
    assert f"- **sweep**: `{label}`" in markdown


def test_chaos_journal_report_unchanged(tmp_path):
    """Old direction: a plain chaos journal has no sweep key on disk,
    parses fine, and renders without any sweep line."""
    path = str(tmp_path / "chaos.jsonl")
    specs = _chaos_journal(path)

    header_line = Path(path).read_text().splitlines()[0]
    assert '"sweep"' not in header_line
    assert '"cells"' not in header_line

    report = build_report(path)
    assert report.sweep is None
    # Without the cells field, expected coverage still factors as
    # campaigns x controllers.
    assert report.cells_expected == len(specs)

    text = render_report_text(report)
    assert text.startswith("chaos run report — profile=smoke")
    assert "sweep" not in text

    payload = json.loads(render_report_json(report))
    assert "sweep" not in payload["header"]

    markdown = render_report_markdown(report)
    assert "# Chaos run report" in markdown
    assert "sweep" not in markdown
