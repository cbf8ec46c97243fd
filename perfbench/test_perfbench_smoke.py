"""Smoke test of the benchmark harness at toy size (dim 2, M=16).

Runs every workload's smoke variant through the traced path, which starts
two untraced and two traced children, alternating, with the first child of
one workload marked failed, and shows that each output check fires on a
deliberately corrupted copy of a good output.  It then makes one untraced
run through the command line, and shows that the command refuses to run
without the program beside it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import checks
import run
import spans

SEED = 5
# the workload whose first child is marked failed after it has run
FAULTY = "sim_mhd4_m16"


def _corrupt_csv(path: Path, column: str, factor: float) -> None:
    cols, rows = checks.parse_csv(path.read_text())
    i = cols.index(column)
    rows[-1][i] = repr(float(rows[-1][i]) * factor + 1e-3)
    path.write_text("\n".join([",".join(cols)] + [",".join(r) for r in rows]) + "\n")


def _assert_checks_fire(workload: str, cdir: Path) -> None:
    job = run.make_job(workload, SEED, smoke=True)
    stdout = (cdir / "call.out").read_text()
    assert checks.check_exit(3)
    assert checks.check_deterministic(b"a", b"b")
    if job.kind == "simulate":
        out = cdir / "out"
        ref = run.reference_series(workload, SEED, smoke=True)
        assert not checks.check_simulate(out, stdout, ref)
        assert checks.check_simulate(out, stdout.replace("completed", "diverged"), ref)
        good = (out / "series.csv").read_text()
        _corrupt_csv(out / "series.csv", "defect", 0.0)
        assert any("defect" in p for p in checks.check_simulate(out, stdout, ref))
        (out / "series.csv").write_text(good)
        _corrupt_csv(out / "series.csv", "energy", 1.0 + 1e-6)
        assert any("reference" in p for p in checks.check_simulate(out, stdout, ref))
    elif job.kind == "monitor":
        snaps = cdir / "snaps"
        assert not checks.check_monitor(snaps, stdout, job.dim)
        good = (snaps / "replay.csv").read_text()
        _corrupt_csv(snaps / "replay.csv", "energy", 1.0)
        assert any("energy" in p for p in checks.check_monitor(snaps, stdout, job.dim))
        (snaps / "replay.csv").write_text(good)
        last = sorted(snaps.glob("state_*.spc4"))[-1]
        raw = bytearray(last.read_bytes())
        payload = np.frombuffer(raw, dtype="<c16", offset=52)
        payload[np.flatnonzero(payload)[:2]] *= 1.5
        last.write_bytes(bytes(raw))
        assert any("gradu_LN" in p for p in checks.check_monitor(snaps, stdout, job.dim))
    else:
        assert not checks.check_verify(stdout, job.suite)
        assert checks.check_verify(stdout.replace("PASS", "FAIL"), job.suite)


def test_smoke_harness(tmp_path, monkeypatch, capsys):
    real_run_child = run.run_child

    def first_child_fails(job, cdir, *args, **kwargs):
        child = real_run_child(job, cdir, *args, **kwargs)
        if cdir.parent.name == FAULTY and cdir.name == "child0":
            child.problems.append("injected failure")
            child.output = b""
        return child

    monkeypatch.setattr(run, "run_child", first_child_fails)
    for workload in run.WORKLOADS:
        work = tmp_path / workload
        children = run.run_children(workload, SEED, 0.0, trace=True, smoke=True,
                                     work=work, keep=True)
        failed = workload == FAULTY
        # later children are compared with the first correct one, not child 0
        assert [c.problems for c in children] == [["injected failure"] if failed else [],
                                                  [], [], []]
        metrics, problems = run.trace_metrics(workload, children, smoke=True)
        assert problems == []
        assert set(metrics) == set(spans.METRIC_UNITS)
        capsys.readouterr()
        assert run.report(workload, children, trace=True, smoke=True) == 0
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert (result["correct"], result["attempted"], result["failed"]) == (
            not failed, 4, int(failed))
        assert set(result["metrics"]) == set(spans.METRIC_UNITS)
        _assert_checks_fire(workload, work / "child0")

    argv = ["--workload", "sim_nse3_m48", "--seed", str(SEED), "--seconds", "0",
            "--trace", "0"]
    assert run.main(argv + ["--smoke"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 2, 0)
    assert set(result["metrics"]) == set(run.E2E_UNITS)

    # without the program beside it the benchmark refuses to run
    shutil.copytree(run.BENCH_DIR, tmp_path / "bare" / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    bare = subprocess.run([sys.executable, "perfbench/run.py", *argv], cwd=tmp_path / "bare",
                          capture_output=True, text=True, timeout=120)
    assert bare.returncode != 0 and bare.stdout == ""
