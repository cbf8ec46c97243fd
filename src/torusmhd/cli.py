"""Command-line front end: simulate, verify, monitor.

Exit codes are part of the contract: 0 success, 2 configuration error
(including a monitor spec whose grid or diffusivities differ from a
snapshot's), 3 diverged run, 4 I/O error (including a malformed snapshot,
one whose fields break an invariant, or two snapshots in one directory that
hold the same time), 5 verification failure.  argparse usage errors also
exit 2, which is the configuration-error code on purpose.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .criteria import bootstrap_trigger, verdicts
from .dynamics import MhdState, Recorder, dissipation_rate, simulate
from .grid import set_fft_workers
from .norms import accumulate
from . import io as tio
from .verify import SUITES, run_suite, suite_passed

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_IO = 4
EXIT_VERIFY = 5

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torusmhd",
        description="Pseudo-spectral incompressible MHD on the periodic torus "
        "with regularity-criterion monitoring.",
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=None,
        help="FFT worker threads (default all cores)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a configured simulation")
    p_sim.add_argument("--config", required=True, help="JSON configuration file")
    p_sim.add_argument("--out", required=True, help="output directory")

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("--suite", required=True, choices=SUITES)
    p_ver.add_argument("--seed", type=int, default=42)
    p_ver.add_argument("--n", type=int, default=20, help="ensemble size")

    p_mon = sub.add_parser(
        "monitor", help="recompute criteria from stored snapshots"
    )
    p_mon.add_argument("--in", dest="indir", required=True, help="snapshot directory")
    p_mon.add_argument("--spec", required=True, help="JSON monitoring configuration")
    return parser


def _resolve_threads(n: int | None) -> None:
    if n is not None and n < 1:
        raise tio.ConfigError(f"thread count must be >= 1, got {n}")
    set_fft_workers(n)


def cmd_simulate(args) -> int:
    config = tio.load_config(args.config)
    out = Path(args.out)
    # a second run's files would mix with the first's in one inventory
    if any(any(out.glob(name)) for name in ("state_*.spc4", tio.SERIES_NAME, tio.MANIFEST_NAME)):
        raise tio.ConfigError(f"{out} already holds a run; give --out a fresh directory")
    out.mkdir(parents=True, exist_ok=True)
    started = time.time()

    def sink(step: int, state: MhdState) -> None:
        tio.write_state_snapshot(out / tio.state_filename(step), state)

    result = simulate(config, snapshot_sink=sink)
    tio.write_series_csv(out / tio.SERIES_NAME, result.series)
    tio.write_manifest(out, result, started=started, finished=time.time())
    last = result.series.last()
    print(f"status: {result.status}")
    print(f"records: {len(result.series)}")
    print(f"energy: {last['energy']!r}")
    print(f"defect: {last['defect']!r}")
    for label, verdict in verdicts(last, config.criteria, result.status).items():
        print(f"criterion {label}: {verdict}")
    print(f"wrote {out / tio.SERIES_NAME} and {out / tio.MANIFEST_NAME}")
    return EXIT_OK if result.status == "completed" else EXIT_DIVERGED


def cmd_verify(args) -> int:
    if args.n < 1:
        raise tio.ConfigError("--n must be >= 1")
    reports = run_suite(args.suite, seed=args.seed, n=args.n)
    for rep in reports:
        print(rep.summary())
        print()
    ok = suite_passed(reports)
    print(f"suite {args.suite}: {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_monitor(args) -> int:
    spec_cfg = tio.load_config(args.spec)
    indir = Path(args.indir)
    snaps = tio.list_state_snapshots(indir)
    if not snaps:
        raise tio.ConfigError(f"{indir}: no state snapshots to monitor")

    spec_grid = spec_cfg.make_grid()
    recorder = Recorder(spec_cfg)
    # the ledger's dissipation integral: the trapezoid of the sampled rates
    dissipation = rate = None
    for t, path in snaps:
        state = tio.read_state_snapshot(path)
        g = state.grid
        if g != spec_grid:
            raise tio.ConfigError(
                f"{path}: snapshot grid {g.dim}x{g.modes_per_axis} of side "
                f"{g.side_length!r} does not match the spec's "
                f"{spec_grid.dim}x{spec_grid.modes_per_axis} of side {spec_grid.side_length!r}"
            )
        if (state.nu, state.eta) != (spec_cfg.nu, spec_cfg.eta):
            raise tio.ConfigError(
                f"{path}: snapshot diffusivities nu={state.nu!r}, eta={state.eta!r} "
                f"do not match the spec's nu={spec_cfg.nu!r}, eta={spec_cfg.eta!r}"
            )
        prev_rate, rate = rate, dissipation_rate(state)
        dissipation = accumulate(dissipation, prev_rate, rate, 1.0, recorder.dt_to(t))
        recorder.record(t, state, dissipation)

    replay_csv = indir / "replay.csv"
    tio.write_series_csv(replay_csv, recorder)
    row = recorder.last()
    print(f"replayed {len(snaps)} snapshots from {indir}")
    print(f"defect: {row['defect']!r}")
    # a replay reads stored finite states, so it never diverges
    verdict = verdicts(row, spec_cfg.criteria, "completed")
    for spec in spec_cfg.criteria:
        finite = "finite" if verdict[spec.label] == "accumulators_finite" else "DIVERGENT"
        vals = "  ".join(f"{key}={v!r}" for key, v in spec.accumulated(row).items())
        print(f"criterion {spec.label}: accumulators {finite}  {vals}")
    if spec_cfg.monitor_bootstrap:
        print(f"bootstrap_trigger: {bootstrap_trigger(row)!r}")
    print(f"wrote {replay_csv}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _resolve_threads(args.threads)
        if args.command == "simulate":
            return cmd_simulate(args)
        if args.command == "verify":
            return cmd_verify(args)
        return cmd_monitor(args)
    except tio.SnapshotFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except tio.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
