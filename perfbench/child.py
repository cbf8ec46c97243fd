"""One benchmark child: set up, then make one timed call of the torusmhd CLI.

Usage: ``python child.py JOB.json``, started by ``run.py`` with the working
directory set to the job's own directory.  The job names the input files to
write, the set-up CLI calls (the run that makes the monitor's snapshots) and
the timed call.  The child writes ``result.json`` with the CLOCK_MONOTONIC
times around the timed call, ``setup.out``/``call.out`` with what the CLI
printed, and, when the job is traced, ``spans.json``.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time


def main(job_path: str) -> int:
    with open(job_path) as fh:
        job = json.load(fh)
    from torusmhd import cli

    for name, doc in job["inputs"].items():
        with open(name, "w") as fh:
            json.dump(doc, fh)
    with open("setup.out", "w") as out, contextlib.redirect_stdout(out):
        for argv in job["setup"]:
            rc = cli.main(argv)
            if rc != 0:
                print(f"set-up call {argv} exited {rc}", file=sys.stderr)
                return 1

    entry = cli.main
    rec = None
    if job["trace"]:
        import spans

        rec = spans.Recorder(job["run_id"])
        spans.install(rec)
        entry = rec.wrap(spans.ROOT, cli.main)

    with open("call.out", "w") as out, contextlib.redirect_stdout(out):
        t_call = time.monotonic()
        rc = entry(job["argv"])
        t_end = time.monotonic()
    with open("result.json", "w") as fh:
        json.dump({"t_call": t_call, "t_end": t_end, "rc": rc}, fh)
    if rec is not None:
        with open("spans.json", "w") as fh:
            json.dump(rec.dump(), fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
