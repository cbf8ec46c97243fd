"""Regenerate reference.json, the stored series of the simulate workloads.

    python3 perfbench/make_reference.py

Runs every simulate workload, full size and smoke size, for each of the
POOL initial-condition seeds, through the same child process as a benchmark
run (without the reference comparison), and stores the series.csv text each
one writes.  Run it from the root of a checkout only when a change is meant
to move the results, and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run


def series_for(workload: str, seed: int, smoke: bool) -> str:
    job = run.make_job(workload, seed, smoke)
    cdir = run.WORK / f"reference-{os.getpid()}"
    shutil.rmtree(cdir, ignore_errors=True)
    try:
        child = run.run_child(job, cdir, trace=False)
        if child.problems:
            raise RuntimeError(f"{workload} seed {seed}: {child.problems}")
        return (cdir / "out" / "series.csv").read_text()
    finally:
        shutil.rmtree(cdir, ignore_errors=True)


def main() -> int:
    table: dict = {}
    for size, smoke in (("full", False), ("smoke", True)):
        table[size] = {}
        for workload in run.WORKLOADS:
            if not workload.startswith("sim_"):
                continue
            table[size][workload] = {
                str(s): series_for(workload, s, smoke) for s in range(run.POOL)
            }
            print(f"{size} {workload}: {run.POOL} series", flush=True)
    run.REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
