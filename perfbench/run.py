"""torusmhd benchmark: four workloads through the public CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout; the program is imported from
``src/``.  Load is a closed loop with one client: this process starts one
child (``child.py``) at a time, each a fresh interpreter that writes its
inputs, makes the set-up calls and then one timed ``torusmhd.cli.main``
call.  Children run until ``--seconds`` would be exceeded (at least two, so
that determinism is checked).  With ``--trace 1`` the run is two untraced
and two traced children, alternating, and it reports per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``failed`` counts
children that exited non-zero or failed an output check (the fail rate is
``failed / attempted``).  See README.md for the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import checks
import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CHILD = BENCH_DIR / "child.py"
REFERENCE = BENCH_DIR / "reference.json"
WORK = ROOT / ".bench_work"

# the workload seed picks one of POOL initial conditions, each with a stored
# reference series (see make_reference.py)
POOL = 16
MIN_CHILDREN = 2
# no child starts once the run could pass this, so the run ends within 180 s
HARD_LIMIT_S = 140.0
CHILD_TIMEOUT_S = 170.0
BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

E2E_UNITS = {"wall_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MiB", "setup_s": "s"}
# the traced run checks that each workload stresses the layers it was built for
SHARE_PREDICTIONS = {
    "sim_mhd4_m16": (("dynamics.step_share", ">=", 0.9), ("dynamics.record_share", "<", 0.05)),
    "monitor_mhd4_m16": (("dynamics.record_share", ">=", 0.7),),
}


def fft_threads() -> int:
    """FFT workers for the CLI's --threads: every core this process may use."""
    return len(os.sched_getaffinity(0))


# -- workloads -----------------------------------------------------------------


def _config(dim, m, steps, seed, b_amplitude=0.0, record_every=1, snapshot_every=0,
            criteria=(), bootstrap=False) -> dict:
    dt = 2e-3
    return {
        "dim": dim,
        "modes_per_axis": m,
        "nu": 0.05,
        "eta": 0.05,
        "dt": dt,
        "t_end": steps * dt,
        "initial": {"preset": "random_divfree", "seed": seed, "b_amplitude": b_amplitude},
        "record_every": record_every,
        "snapshot_every": snapshot_every,
        "criteria": list(criteria),
        "monitor_bootstrap": bootstrap,
    }


CLASSICAL_U_66 = {"theorem": "CLASSICAL_U", "pairs": {"u": [6, 6]}}
T14_SMALL = {"theorem": "T1_4", "smallness": True}
T15_DPI = {"theorem": "T1_5", "pairs": {"dpi3": [3, 2], "dpi4": [3, 2]}}


@dataclass(frozen=True)
class Job:
    """What one child does: inputs to write, set-up calls, the timed call."""

    kind: str  # simulate, monitor or verify
    inputs: dict
    setup: list
    argv: list
    dim: int = 0
    suite: str = ""

    def to_json(self, trace: bool, run_id: str) -> dict:
        return {"inputs": self.inputs, "setup": self.setup, "argv": self.argv,
                "trace": trace, "run_id": run_id}


def _simulate_job(cfg: dict, threads: list[str]) -> Job:
    argv = threads + ["simulate", "--config", "run.json", "--out", "out"]
    return Job("simulate", {"run.json": cfg}, [], argv, cfg["dim"])


def _monitor_job(dim: int, m: int, seed: int, spec_criteria, threads: list[str]) -> Job:
    # one step with a snapshot at both ends gives two snapshots to replay
    live = _config(dim, m, 1, seed, b_amplitude=0.5, snapshot_every=1)
    spec = _config(dim, m, 1, seed, criteria=spec_criteria, bootstrap=True)
    setup = [threads + ["simulate", "--config", "live.json", "--out", "snaps"]]
    argv = threads + ["monitor", "--in", "snaps", "--spec", "spec.json"]
    return Job("monitor", {"live.json": live, "spec.json": spec}, setup, argv, dim)


def _verify_job(suite: str, seed: int, threads: list[str]) -> Job:
    argv = threads + ["verify", "--suite", suite, "--n", "1", "--seed", str(seed)]
    return Job("verify", {}, [], argv, suite=suite)


def make_job(workload: str, seed: int, smoke: bool = False) -> Job:
    """The child job of a workload; the seed picks the initial condition."""
    s = seed % POOL
    threads = ["--threads", str(fft_threads())]
    if workload == "sim_mhd4_m16":
        if smoke:
            return _simulate_job(_config(2, 16, 3, s, 0.5, record_every=3), threads)
        return _simulate_job(_config(4, 16, 8, s, 0.5, record_every=8), threads)
    if workload == "monitor_mhd4_m16":
        if smoke:
            return _monitor_job(2, 16, s, [CLASSICAL_U_66], threads)
        return _monitor_job(4, 16, s, [T14_SMALL, T15_DPI], threads)
    if workload == "sim_nse3_m48":
        dim, m = (2, 16) if smoke else (3, 48)
        cfg = _config(dim, m, 2, s, record_every=1, snapshot_every=2,
                      criteria=[CLASSICAL_U_66], bootstrap=True)
        return _simulate_job(cfg, threads)
    if workload == "verify_identities":
        return _verify_job("scaling" if smoke else "identities", s, threads)
    raise ValueError(f"unknown workload '{workload}'")


WORKLOADS = ("sim_mhd4_m16", "monitor_mhd4_m16", "sim_nse3_m48", "verify_identities")


def reference_series(workload: str, seed: int, smoke: bool) -> str | None:
    """Stored series.csv of a simulate workload at this seed, if any."""
    if not workload.startswith("sim_"):
        return None
    table = json.loads(REFERENCE.read_text())
    return table["smoke" if smoke else "full"][workload][str(seed % POOL)]


# -- children ------------------------------------------------------------------


@dataclass
class Child:
    """One finished child: peak RSS, timings, units of work and problems."""

    rss_mib: float
    duration_s: float = 0.0
    setup_s: float = float("nan")
    wall_s: float = float("nan")
    units: int = 0
    problems: list[str] = field(default_factory=list)
    output: bytes = b""
    spans: dict | None = None


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("TORUSMHD_THREADS", None)
    env.update(BLAS_ENV)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def _wait(proc: subprocess.Popen, timeout_s: float) -> tuple[int, float]:
    """Exit code and peak RSS (MiB) of a child, killed after the timeout."""
    deadline = time.monotonic() + timeout_s
    try:
        while not (done := os.wait4(proc.pid, os.WNOHANG))[0]:
            if time.monotonic() > deadline:
                proc.kill()
                done = os.wait4(proc.pid, 0)
                break
            time.sleep(0.005)
    except BaseException:
        # interrupted while the child runs: stop it before leaving
        proc.kill()
        os.wait4(proc.pid, 0)
        raise
    _, status, usage = done
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def _read_output(job: Job, cdir: Path, reference: str | None, child: Child) -> None:
    """Units of work, the bytes compared for determinism, and the output check."""
    stdout = (cdir / "call.out").read_text()
    if job.kind == "simulate":
        path = cdir / "out" / "series.csv"
        child.units = round(job.inputs["run.json"]["t_end"] / job.inputs["run.json"]["dt"])
        child.problems += checks.check_simulate(cdir / "out", stdout, reference)
    elif job.kind == "monitor":
        path = cdir / "snaps" / "replay.csv"
        child.units = len(list((cdir / "snaps").glob("state_*.spc4")))
        child.problems += checks.check_monitor(cdir / "snaps", stdout, job.dim)
    else:
        path = cdir / "call.out"
        child.units = sum(1 for line in stdout.splitlines() if line.startswith("check: "))
        child.problems += checks.check_verify(stdout, job.suite)
    child.output = path.read_bytes() if path.is_file() else b""


def run_child(job: Job, cdir: Path, trace: bool, reference: str | None = None,
              timeout_s: float = CHILD_TIMEOUT_S) -> Child:
    """Start one child in ``cdir``, wait for it, read its timings, check it.

    A simulate child's series is compared with ``reference`` when one is given.
    """
    cdir.mkdir(parents=True)
    (cdir / "job.json").write_text(json.dumps(job.to_json(trace, cdir.name)))
    with open(cdir / "child.log", "wb") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(CHILD), "job.json"], cwd=cdir,
                                env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=log, stderr=subprocess.STDOUT)
        code, rss = _wait(proc, timeout_s)
    child = Child(rss)
    child.problems += checks.check_exit(code, "child exit code")
    result = cdir / "result.json"
    if code == 0 and result.is_file():
        times = json.loads(result.read_text())
        child.setup_s = times["t_call"] - t_spawn
        child.wall_s = times["t_end"] - times["t_call"]
        child.problems += checks.check_exit(times["rc"], "CLI exit code")
        _read_output(job, cdir, reference, child)
        if trace:
            child.spans = json.loads((cdir / "spans.json").read_text())
    elif code == 0:
        child.problems.append("child wrote no result.json")
    if child.problems:
        log_tail = (cdir / "child.log").read_text(errors="replace").strip().splitlines()[-5:]
        child.problems += [f"  log: {line}" for line in log_tail]
    child.duration_s = time.monotonic() - t_spawn
    return child


def run_children(workload: str, seed: int, seconds: float, trace: bool, smoke: bool,
                 work: Path, keep: bool = False) -> list[Child]:
    """The children of one run, in order; ``keep`` leaves their directories.

    Untraced, children start while the next one is expected to end within
    ``seconds`` (at least MIN_CHILDREN).  Traced, untraced and traced
    children alternate, two of each.  Every child must write the same bytes as
    the first correct one (series.csv, replay.csv or the verify report).
    """
    job = make_job(workload, seed, smoke)
    reference = reference_series(workload, seed, smoke)
    plan = [False, True, False, True] if trace else None
    children: list[Child] = []
    t0 = time.monotonic()
    while True:
        i = len(children)
        if plan is not None and i == len(plan):
            break
        elapsed = time.monotonic() - t0
        if plan is None and i >= MIN_CHILDREN:
            expected = statistics.median(c.duration_s for c in children)
            if elapsed + expected > min(seconds, HARD_LIMIT_S):
                break
        traced = plan[i] if plan is not None else False
        cdir = work / f"child{i}"
        child = run_child(job, cdir, traced, reference, max(10.0, CHILD_TIMEOUT_S - elapsed))
        first = next((c for c in children if not c.problems), None)
        if first is not None and not child.problems:
            child.problems += checks.check_deterministic(first.output, child.output)
        children.append(child)
        if not keep:
            shutil.rmtree(cdir, ignore_errors=True)
    return children


# -- metrics -------------------------------------------------------------------


def e2e_metrics(children: list[Child]) -> dict[str, float]:
    timed = [c for c in children if not c.problems]
    return {
        "wall_s": statistics.median(c.wall_s for c in timed),
        "work_per_s": statistics.median(c.units / c.wall_s for c in timed),
        "peak_rss_mb": statistics.median(c.rss_mib for c in timed),
        "setup_s": statistics.median(c.setup_s for c in timed),
    }


def trace_metrics(workload: str, children: list[Child], smoke: bool) -> tuple[dict, list[str]]:
    """Per-layer metrics and the problems found in the trace itself.

    ``trace.overhead_s`` is the median over the correct (untraced, traced)
    pairs of children run one after the other, of the traced child's wall
    time less the untraced one's, so that drift between pairs cancels.
    """
    pairs = [(a, b) for a, b in zip(children, children[1:])
             if a.spans is None and b.spans is not None and not (a.problems or b.problems)]
    if not pairs:
        return {}, ["no untraced child followed by a traced child to compare"]
    dumps = [c.spans for c in children if c.spans is not None and not c.problems]
    metrics = spans.layer_metrics(dumps)
    metrics["trace.overhead_s"] = statistics.median(b.wall_s - a.wall_s for a, b in pairs)
    problems = [f"exact count {name} differs between traced runs"
                for name in spans.count_mismatches(dumps)]
    for name, op, bound in () if smoke else SHARE_PREDICTIONS.get(workload, ()):
        value = metrics[name]
        if not (value >= bound if op == ">=" else value < bound):
            problems.append(f"workload design: {name} = {value:.3f}, expected {op} {bound}")
    return metrics, problems


def environment() -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "cpu_count": os.cpu_count(),
        "fft_threads": fft_threads(),
        "blas_env": BLAS_ENV,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="toy sizes (dim 2, M=16, the scaling suite), for the smoke test")
    args = parser.parse_args(argv)
    if not (SRC / "torusmhd" / "cli.py").is_file():
        print(f"error: {SRC / 'torusmhd'} not found; run from a torusmhd checkout",
              file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        children = run_children(args.workload, args.seed, args.seconds, bool(args.trace),
                                args.smoke, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return report(args.workload, children, bool(args.trace), args.smoke)


def report(workload: str, children: list[Child], trace: bool, smoke: bool) -> int:
    """Print the children, the problems, the metrics and, last, the JSON result."""
    problems = [f"child {i}: {p}" for i, c in enumerate(children) for p in c.problems]
    failed = sum(1 for c in children if c.problems)
    good = [c for c in children if not c.problems]
    if trace:
        metrics, trace_problems = trace_metrics(workload, children, smoke)
        problems += trace_problems
        units = spans.METRIC_UNITS
    else:
        metrics = e2e_metrics(children) if good else {}
        units = E2E_UNITS
    print(f"workload {workload}  children {len(children)}  "
          f"environment {json.dumps(environment())}")
    for c in good:
        print(f"  child setup_s={c.setup_s:.4f} wall_s={c.wall_s:.4f} "
              f"peak_rss_mb={c.rss_mib:.1f} units={c.units}")
    for p in problems:
        print(f"problem: {p}")
    if not metrics:
        print("error: no child finished with a correct output", file=sys.stderr)
        return 1
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    print(f"fail_rate = {failed}/{len(children)}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(children),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
