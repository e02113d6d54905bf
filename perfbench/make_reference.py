"""Regenerate ``reference.json`` from the program as it is now.

Usage (from the repository root)::

    python3 perfbench/make_reference.py [--size full|tiny] [--workload NAME]

Runs one untraced and one traced pass of every (workload, size,
variant), requires both passes to produce the same output, and records
that output, its unit count and the traced pass's deterministic counts.
Only regenerate when a change is meant to alter what the program
computes; the benchmark's output gate exists to catch the other case.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--size", action="append", choices=("full", "tiny"))
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()
    sys.path.insert(0, run.SRC)
    import suite

    try:
        with open(run.REFERENCE, encoding="utf-8") as handle:
            reference = json.load(handle)
    except FileNotFoundError:
        reference = {}
    for name in args.workload or list(suite.WORKLOADS):
        workload = suite.WORKLOADS[name]
        os.environ.pop("REPRO_JOBS", None)
        os.environ["REPRO_ENGINE"] = workload.backend
        for size in args.size or list(suite.SIZES):
            for variant in workload.variants:
                workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT)
                try:
                    job = workload.prepare(size, variant)
                    _, passes = run.measure_traced(
                        job, 1e-3, workdir, {}, workload.jobs
                    )
                finally:
                    shutil.rmtree(workdir, ignore_errors=True)
                untraced, traced = passes
                for p in passes:
                    if p.outcome is None:
                        print(f"{name}/{size}/{variant}: {p.error}")
                        return 1
                if untraced.outcome.output != traced.outcome.output:
                    print(f"{name}/{size}/{variant}: traced output differs")
                    return 1
                entry = {
                    "output": json.loads(json.dumps(traced.outcome.output)),
                    "units": traced.outcome.units,
                    "counts": traced.counts,
                }
                reference.setdefault(name, {}).setdefault(size, {})[
                    str(variant)
                ] = entry
                print(f"{name}/{size}/{variant}: {json.dumps(entry)}")
    with open(run.REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
