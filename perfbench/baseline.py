"""Record the benchmark's baseline: ten seeds per workload plus a traced run.

    python3 perfbench/baseline.py

Runs ``run.py`` as a separate process for each of ten seeds and each
workload listed in BENCHMARK.json, exactly as documented, with
``run_seconds`` from BENCHMARK.json.  For every end-to-end metric it
reports the median, the quartiles and their distance as a share of the
median, next to the metric's bound.  It then makes one traced run per
workload and writes everything, with the machine it ran on, to
``perfbench/BASELINE.json``.
"""

from __future__ import annotations

import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import run

BENCHMARK = run.ROOT / "BENCHMARK.json"
OUT = run.BENCH_DIR / "BASELINE.json"
SEEDS = range(1, 11)


def _one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[float]]:
    """The run's JSON result and the wall_s of each of its correct children."""
    cmd = [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=400)
    if done.returncode != 0:
        raise RuntimeError(f"{cmd} exited {done.returncode}: {done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    walls = [float(line.split("wall_s=")[1].split()[0]) for line in lines
             if line.startswith("  child ")]
    return json.loads(lines[-1]), walls


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def machine() -> dict:
    """CPU, caches, memory, commit and source size of the recording machine."""
    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read(index / "level").strip()
        kind = _read(index / "type").strip()
        caches[f"L{level} {kind}"] = _read(index / "size").strip()
    mem = next((line.split(":", 1)[1].strip() for line in _read("/proc/meminfo").splitlines()
                if line.startswith("MemTotal")), "")
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT,
                            capture_output=True, text=True).stdout.strip()
    dirty = subprocess.run(["git", "status", "--porcelain"], cwd=run.ROOT,
                           capture_output=True, text=True).stdout.strip()
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((run.SRC / "torusmhd").glob("*.py")))
    return {
        **run.environment(),
        "cpu_model": cpu,
        "caches": caches,
        "mem_total": mem,
        "commit": commit + (" (with uncommitted changes)" if dirty else ""),
        "src_lines": src_lines,
    }


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / med,
            "values": values}


def main() -> int:
    bench = json.loads(BENCHMARK.read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {"run_seconds": bench["run_seconds"], "machine": machine(), "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs, child_walls = zip(*(_one_run(workload, seed, bench["run_seconds"], 0)
                                  for seed in SEEDS))
        entry = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {},
            "child_wall_s": child_walls,
        }
        for name in bounds:
            s = spread([r["metrics"][name]["value"] for r in runs])
            entry["end_to_end"][name] = s
            flag = "" if s["iqr_share"] < bounds[name] / 3 else "  <-- above bound/3"
            print(f"{workload} {name}: median {s['median']:.4g}  iqr/median "
                  f"{s['iqr_share']:.4f}  bound {bounds[name]}{flag}", flush=True)
        traced, _ = _one_run(workload, 1, bench["run_seconds"], 1)
        entry["traced"] = {"correct": traced["correct"],
                           "metrics": {k: v["value"] for k, v in traced["metrics"].items()}}
        print(f"{workload}: correct {entry['correct']}, failed {entry['failed']}"
              f"/{entry['attempted']}, traced correct {traced['correct']}", flush=True)
        record["workloads"][workload] = entry
    OUT.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
