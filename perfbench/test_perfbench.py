"""Self-tests of the benchmark, at the tiny size.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import layertrace  # noqa: E402
import run  # noqa: E402
import speedometer  # noqa: E402
import suite  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)


def _cli(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--size", "tiny",
         "--seconds", "0.1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_runner():
    assert BENCHMARK["workloads"] == [
        {"name": w.name, "why": w.why} for w in suite.WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == (
        run.END_TO_END
    )
    assert [
        (m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]
    ] == run.PER_LAYER


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(suite.WORKLOADS))
def test_every_metric_is_printed_with_its_unit(workload, trace):
    done = _cli("--workload", workload, "--seed", "3", "--trace", trace)
    assert done.returncode == 0, done.stdout + done.stderr
    result = _result(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {
        name: entry["unit"] for name, entry in result["metrics"].items()
    } == {m["name"]: m["unit"] for m in declared}
    lines = done.stdout.splitlines()
    for metric in declared:
        assert any(
            line.startswith(f"{metric['name']} ")
            and line.endswith(f" {metric['unit']}")
            for line in lines
        ), metric["name"]
    environment = json.loads(lines[0])["environment"]
    assert environment["backend"] == suite.WORKLOADS[workload].backend
    assert environment["jobs"] == suite.WORKLOADS[workload].jobs
    assert {"nproc", "python", "numpy"} <= set(environment)


def test_wrong_reference_digest_fails(tmp_path, monkeypatch, capsys):
    with open(run.REFERENCE, encoding="utf-8") as handle:
        reference = json.load(handle)
    for entry in reference["chaos-mixed-narrow"]["tiny"].values():
        entry["output"]["report_sha256"] = "0" * 64
    wrong = tmp_path / "reference.json"
    wrong.write_text(json.dumps(reference))
    monkeypatch.setattr(run, "REFERENCE", str(wrong))
    monkeypatch.setenv("REPRO_ENGINE", "object")
    code = run.main([
        "--workload", "chaos-mixed-narrow", "--size", "tiny",
        "--seconds", "0.1", "--seed", "1",
    ])
    out = capsys.readouterr().out
    assert code == 1
    result = _result(out)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert "differs from the reference" in out


def test_induced_quarantine_fails(monkeypatch, capsys):
    from repro.core.baselines.dhalion import DhalionController

    def broken(self, observation):
        raise RuntimeError("induced controller failure")

    monkeypatch.setenv("REPRO_ENGINE", "object")
    monkeypatch.setattr(DhalionController, "on_metrics", broken)
    code = run.main([
        "--workload", "sweep-smoke-pool", "--size", "tiny",
        "--seconds", "0.1", "--seed", "1",
    ])
    out = capsys.readouterr().out
    assert code == 1
    result = _result(out)
    assert result["correct"] is False and result["failed"] > 0
    assert "quarantined" in out
    error_rate = next(
        line for line in out.splitlines() if line.startswith("error_rate ")
    )
    assert float(error_rate.split()[1]) > 0


def test_tracer_restores_every_method(tmp_path):
    import importlib

    originals = {
        (module, cls, method): importlib.import_module(module).__dict__[
            cls
        ].__dict__[method]
        for _, module, cls, method in layertrace.TARGETS
    }
    with layertrace.LayerTracer(str(tmp_path)):
        pass
    for (module, cls, method), original in originals.items():
        owner = getattr(importlib.import_module(module), cls)
        assert owner.__dict__[method] is original


def test_speedometer_samples_and_restores_the_alarm():
    import signal
    import time

    def previous(signum, frame):
        raise AssertionError("the sampler's timer outlived its block")

    original = signal.signal(signal.SIGALRM, previous)
    try:
        with speedometer.Speedometer() as meter:
            deadline = time.perf_counter() + 0.3  # repro: allow[REPRO101]
            while time.perf_counter() < deadline:  # repro: allow[REPRO101]
                pass
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        assert signal.getsignal(signal.SIGALRM) is previous
    finally:
        signal.signal(signal.SIGALRM, original)
    assert len(meter.samples) > 5
    assert 0 < meter.handler_cpu_s <= meter.handler_s < 0.2
    mean = sum(meter.samples) / len(meter.samples)
    assert meter.factor() == speedometer.REFERENCE_KERNEL_S / mean
    assert meter.steal_s >= 0
    assert meter.wall_factor(0.3) <= meter.factor()


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        BENCH_DIR, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = _cli("--workload", "fig1-dhalion-wide", cwd=str(tmp_path))
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
