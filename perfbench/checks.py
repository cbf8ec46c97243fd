"""Output checks for benchmark runs.

Each check returns a list of problems, empty when the output is right, so
that a run can report every way it failed.  None of them import torusmhd:
they read the files the CLI wrote, and the monitor check recomputes a norm
from the raw snapshot bytes with numpy alone.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

# |defect| of the energy ledger against the initial energy; runs at this
# commit stay near 1e-15, the integrator's rounding level
DEFECT_BOUND = 1e-12
# series against the stored reference, relative to each value and to the
# largest magnitude in its column (columns that start at zero)
REFERENCE_RTOL = 1e-9
# replayed L^dim norm of grad u against the numpy recomputation
GRADIENT_RTOL = 1e-9

_SPC4_HEADER = struct.Struct("<4s4I4d")


def parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.strip().splitlines()
    if not lines:
        return [], []
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _column(cols: list[str], rows: list[list[str]], name: str) -> list[float]:
    i = cols.index(name)
    return [float(r[i]) for r in rows]


def check_exit(code: int, what: str = "exit code") -> list[str]:
    return [] if code == 0 else [f"{what} {code}"]


def compare_series(text: str, reference: str) -> list[str]:
    """Series within REFERENCE_RTOL of the reference, column by column.

    The ledger defect is rounding noise and is bounded by
    :func:`check_simulate` instead.
    """
    cols, rows = parse_csv(text)
    rcols, rrows = parse_csv(reference)
    if cols != rcols:
        return [f"series columns {cols} differ from the reference {rcols}"]
    if len(rows) != len(rrows):
        return [f"series has {len(rows)} rows, the reference {len(rrows)}"]
    problems = []
    for name in cols:
        if name == "defect":
            continue
        got = _column(cols, rows, name)
        want = _column(cols, rrows, name)
        scale = max(abs(v) for v in want)
        for i, (g, w) in enumerate(zip(got, want)):
            if not abs(g - w) <= REFERENCE_RTOL * (abs(w) + scale):
                problems.append(f"series {name}[{i}] = {g!r}, reference {w!r}")
                break
    return problems


def check_simulate(out_dir: Path, stdout: str, reference: str | None) -> list[str]:
    problems = []
    if "status: completed" not in stdout.splitlines():
        problems.append("simulate did not print 'status: completed'")
    path = out_dir / "series.csv"
    if not path.is_file():
        return problems + [f"{path.name} missing"]
    text = path.read_text()
    cols, rows = parse_csv(text)
    if "energy" not in cols or "defect" not in cols or not rows:
        return problems + ["series.csv lacks the energy and defect columns"]
    e0 = _column(cols, rows, "energy")[0]
    worst = max(abs(d) for d in _column(cols, rows, "defect"))
    if not worst <= DEFECT_BOUND * e0:
        problems.append(f"|defect| {worst:.3e} exceeds {DEFECT_BOUND:g} x initial energy {e0!r}")
    if reference is not None:
        problems += compare_series(text, reference)
    return problems


def read_spc4(path: Path) -> tuple[int, int, float, np.ndarray]:
    """(dim, modes per axis, side length, coefficients) of an SPC4 file."""
    raw = path.read_bytes()
    magic, _version, dim, m, count, side, _t, _nu, _eta = _SPC4_HEADER.unpack_from(raw)
    if magic != b"SPC4":
        raise ValueError(f"{path}: not an SPC4 file")
    coeffs = np.frombuffer(raw, dtype="<c16", offset=_SPC4_HEADER.size)
    return dim, m, side, coeffs.reshape((count,) + (m,) * dim)


def gradient_norm(path: Path) -> float:
    """L^dim norm of grad u on the 2M collocation grid, from the raw payload.

    The velocity is the first ``dim`` components.  Each derivative is
    sampled in turn with numpy's real inverse FFT (the field is real, so
    the half spectrum determines it) and only |grad u|^2 is kept, so memory
    stays at one padded component.
    """
    dim, m, side, coeffs = read_spc4(path)
    k = np.fft.fftfreq(m, 1.0 / m)
    fine_m = 2 * m
    shape, axes = (fine_m,) * dim, tuple(range(dim))
    idx = np.ix_(*[np.rint(k).astype(int) % fine_m] * dim)
    sq = np.zeros(shape)
    fine = np.zeros(shape, dtype=complex)
    for i in range(dim):
        for a in range(dim):
            kappa = (2.0 * math.pi / side) * k.reshape((1,) * a + (m,) + (1,) * (dim - a - 1))
            fine[idx] = 1j * kappa * coeffs[i]
            half = fine[..., : fine_m // 2 + 1]
            sq += (np.fft.irfftn(half, s=shape, axes=axes) * fine_m**dim) ** 2
    cell = (side / fine_m) ** dim
    return float((cell * np.sum(sq ** (dim / 2.0))) ** (1.0 / dim))


def check_monitor(snap_dir: Path, stdout: str, dim: int) -> list[str]:
    """Replay against the live run that wrote the snapshots."""
    problems = []
    if not any(line.startswith("replayed ") for line in stdout.splitlines()):
        problems.append("monitor did not print 'replayed ...'")
    live, replay = snap_dir / "series.csv", snap_dir / "replay.csv"
    if not (live.is_file() and replay.is_file()):
        return problems + ["series.csv or replay.csv missing"]
    lcols, lrows = parse_csv(live.read_text())
    rcols, rrows = parse_csv(replay.read_text())
    if len(lrows) != len(rrows):
        return problems + [f"replay has {len(rrows)} rows, the live run {len(lrows)}"]
    shared = ["energy"] + (["W", "X", "Y", "Z"] if dim == 4 else [])
    for name in shared:
        if name not in lcols or name not in rcols:
            problems.append(f"column {name} missing")
            continue
        li, ri = lcols.index(name), rcols.index(name)
        for n, (lr, rr) in enumerate(zip(lrows, rrows)):
            if lr[li] != rr[ri]:
                problems.append(f"replay {name}[{n}] = {rr[ri]}, live run {lr[li]}")
                break
    if "gradu_LN" not in rcols:
        return problems + ["replay lacks gradu_LN"]
    snaps = sorted(snap_dir.glob("state_*.spc4"))
    replayed = _column(rcols, rrows, "gradu_LN")
    if len(snaps) != len(replayed):
        return problems + [f"{len(snaps)} snapshots but {len(replayed)} replay rows"]
    for n, (path, got) in enumerate(zip(snaps, replayed)):
        want = gradient_norm(path)
        if not abs(got - want) <= GRADIENT_RTOL * abs(want):
            problems.append(f"replay gradu_LN[{n}] = {got!r}, numpy {want!r}")
    return problems


def check_verify(stdout: str, suite: str) -> list[str]:
    if f"suite {suite}: PASS" in stdout.splitlines():
        return []
    return [f"verify did not print 'suite {suite}: PASS'"]


def check_deterministic(first: bytes, other: bytes) -> list[str]:
    """Runs of one input at one thread count must write the same bytes."""
    if other == first:
        return []
    return ["output differs from the first child's (not deterministic)"]
