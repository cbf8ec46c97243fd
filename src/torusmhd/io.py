"""On-disk formats: snapshots, series tables, configs, run manifests.

Snapshot files hold raw spectral coefficients on the full ``(M,)*dim``
layout with a fixed 52-byte header, so a stored run can be replayed bit for
bit; the reader gathers the stored band and checks it against its mirror
positions -k (Hermitian symmetry) and the rest of the array (band limit).
The series file is the run's table (:class:`~torusmhd.dynamics.Recorder`) as
plain CSV, its columns in the table's order, each named once; floats are
written with ``repr`` so repeated runs of the same configuration produce
byte-identical files that read back bit for bit.  A config document is the
fields of :class:`~torusmhd.dynamics.SimConfig`, one key each in field order,
with ``initial`` the fields of its :class:`~torusmhd.dynamics.InitialCondition`:
a scalar's kind is its default's, and only ``criteria`` and ``free_axes`` are
written and read by hand.  Every file is renamed into place once complete, so
a failed write leaves no partial file behind.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import re
import struct
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path
from typing import Iterable

import numpy as np

from .criteria import CriterionSpec, Theorem
from .dynamics import InitialCondition, MhdState, Recorder, SimConfig, SimResult
from .field import SpectralField
from .grid import Grid, make_grid

__all__ = [
    "SnapshotFormatError",
    "ConfigError",
    "Snapshot",
    "write_state_snapshot",
    "read_snapshot",
    "read_state_snapshot",
    "state_filename",
    "list_state_snapshots",
    "write_series_csv",
    "read_series_csv",
    "config_to_dict",
    "config_from_dict",
    "load_config",
    "file_sha256",
    "write_manifest",
    "read_manifest",
    "MANIFEST_NAME",
    "SERIES_NAME",
]


class SnapshotFormatError(ValueError):
    """A snapshot file is malformed; the message names the file."""


class ConfigError(ValueError):
    """A configuration document is invalid; the message names the key."""


def _write_atomic(path: str | Path, chunks: Iterable[bytes]) -> None:
    """Write ``chunks`` under a temporary name beside ``path``, then rename it there."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# -- spectral snapshots -------------------------------------------------------

SNAPSHOT_MAGIC = b"SPC4"
SNAPSHOT_VERSION = 1
# magic, version, dim, modes per axis, component count; then side length,
# time, nu, eta; payload follows as little-endian complex128, component-major
_HEADER = struct.Struct("<4s4I4d")
# relative to the largest coefficient of the field checked
_INVARIANT_TOL = 1e-12


@dataclass(frozen=True)
class Snapshot:
    grid: Grid
    time: float
    nu: float
    eta: float
    coeffs: np.ndarray  # (components,) + (M,)*dim, the full layout, a read-only view


def write_state_snapshot(path: str | Path, state: MhdState) -> None:
    """Store a full state: velocity components first, then magnetic."""
    g = state.grid
    header = _HEADER.pack(
        SNAPSHOT_MAGIC,
        SNAPSHOT_VERSION,
        g.dim,
        g.modes_per_axis,
        2 * g.dim,
        g.side_length,
        state.time,
        state.nu,
        state.eta,
    )
    fields = (*state.u.coeffs, *state.b.coeffs)
    payload = (g.unfold(c).astype("<c16", copy=False).tobytes() for c in fields)
    _write_atomic(path, itertools.chain((header,), payload))


def _read_header(path: Path) -> tuple[int, int, int, float, float, float, float]:
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
    if len(raw) < _HEADER.size:
        raise SnapshotFormatError(f"{path}: truncated header ({len(raw)} bytes)")
    magic, version, dim, m, count, side, time, nu, eta = _HEADER.unpack(raw)
    if magic != SNAPSHOT_MAGIC:
        raise SnapshotFormatError(f"{path}: bad magic {magic!r}")
    if version != SNAPSHOT_VERSION:
        raise SnapshotFormatError(f"{path}: unsupported version {version}")
    if dim not in (2, 3, 4):
        raise SnapshotFormatError(f"{path}: dimension {dim} out of range")
    if m < 8 or m % 2:
        raise SnapshotFormatError(f"{path}: modes per axis {m} invalid")
    if count < 1 or not (0 < side < math.inf):
        raise SnapshotFormatError(f"{path}: invalid component count or side length")
    if not math.isfinite(time):
        raise SnapshotFormatError(f"{path}: non-finite time {time!r}")
    return dim, m, count, side, time, nu, eta


def read_snapshot(path: str | Path) -> Snapshot:
    path = Path(path)
    dim, m, count, side, time, nu, eta = _read_header(path)
    expected = count * m**dim
    with open(path, "rb") as fh:
        fh.seek(_HEADER.size)
        data = np.frombuffer(fh.read(), dtype="<c16")
    if data.size != expected:
        raise SnapshotFormatError(
            f"{path}: payload holds {data.size} coefficients, expected {expected}"
        )
    coeffs = data.reshape((count,) + (m,) * dim)
    if not np.all(np.isfinite(coeffs)):
        raise SnapshotFormatError(f"{path}: payload contains non-finite values")
    return Snapshot(make_grid(dim, m, side), time, nu, eta, coeffs)


def read_state_snapshot(path: str | Path) -> MhdState:
    """Load a state snapshot, refusing any field that breaks an invariant.

    u and b must each be real and inside the band, both checked on the band
    positions of the full array read: |c(k) - conj(c(-k))| over the band, and
    max |c| off it.  They must also be divergence-free, and the diffusivities
    finite and non-negative; every such failure is a
    :class:`SnapshotFormatError` naming the file.
    """
    snap = read_snapshot(path)
    g = snap.grid
    if snap.coeffs.shape[0] != 2 * g.dim:
        raise SnapshotFormatError(
            f"{path}: state snapshots need {2 * g.dim} components, "
            f"found {snap.coeffs.shape[0]}"
        )
    m = g.modes_per_axis
    plus, minus = g._embedding(0, m), g._embedding(0, m, -1)
    fields = []
    for name, full in (("u", snap.coeffs[: g.dim]), ("b", snap.coeffs[g.dim :])):
        # the band's k_last >= 0 half is kept; the symmetry and the band limit
        # that make the rest redundant are checked, a component at a time
        band = g.gather(full, m)
        symmetry = largest = outside = 0.0
        for c, kept in zip(full, band):
            symmetry = max(symmetry, float(np.abs(kept - np.conj(c[minus])).max()))
            mag = np.abs(c)
            largest = max(largest, float(mag.max()))
            mag[plus] = mag[minus] = 0.0
            outside = max(outside, float(mag.max()))
            del mag  # freed before the next component's is made, not when replaced
        tol = _INVARIANT_TOL * (largest or 1.0)
        defects = {
            "is not Hermitian-symmetric": symmetry,
            "has content outside the band limit": outside,
        }
        for what, defect in defects.items():
            if defect > tol:
                raise SnapshotFormatError(f"{path}: {name} {what} (defect {defect:.3e})")
        fields.append(SpectralField(g, band))
    try:
        return MhdState(*fields, snap.time, snap.nu, snap.eta)
    except ValueError as exc:
        raise SnapshotFormatError(f"{path}: {exc}") from None


_STATE_RE = re.compile(r"^state_(\d{8})\.spc4$")


def state_filename(step: int) -> str:
    return f"state_{step:08d}.spc4"


def list_state_snapshots(directory: str | Path) -> list[tuple[float, Path]]:
    """State snapshot files under a directory, ordered by stored time.

    Two files holding the same time (a stale or copied snapshot) make the
    order ambiguous and raise :class:`SnapshotFormatError` naming both.
    """
    directory = Path(directory)
    entries: list[tuple[float, Path]] = []
    for p in sorted(directory.iterdir()):
        if _STATE_RE.match(p.name):
            _dim, _m, _c, _side, time, _nu, _eta = _read_header(p)
            entries.append((time, p))
    entries.sort(key=lambda e: e[0])
    for (t0, p0), (t1, p1) in zip(entries, entries[1:]):
        if t0 == t1:
            raise SnapshotFormatError(f"{p0} and {p1} both hold time {t0!r}")
    return entries


# -- series table -------------------------------------------------------------

SERIES_NAME = "series.csv"
MANIFEST_NAME = "manifest.json"
MANIFEST_VERSION = 1


def write_series_csv(path: str | Path, series: Recorder) -> None:
    """Write the run's table: a header of its columns, then one line per row."""
    lines = [",".join(series.columns)]
    lines += (",".join(map(repr, row)) for row in zip(series.times, *series.records.values()))
    _write_atomic(path, [("\n".join(lines) + "\n").encode()])


def read_series_csv(path: str | Path) -> dict[str, list[float]]:
    """The table of a series file by column, refusing a column named twice."""
    text = Path(path).read_text().strip().splitlines()
    if not text:
        raise ValueError(f"{path}: empty series file")
    cols = text[0].split(",")
    out: dict[str, list[float]] = {}
    for c in cols:
        if c in out:
            raise ValueError(f"{path}: column '{c}' appears twice in the header")
        out[c] = []
    for line in text[1:]:
        parts = line.split(",")
        if len(parts) != len(cols):
            raise ValueError(f"{path}: ragged row '{line}'")
        for c, v in zip(cols, parts):
            out[c].append(float(v))
    return out


# -- configuration documents --------------------------------------------------

# the kinds a scalar field's default may have, named as the errors name them
_KINDS = {bool: "a boolean", int: "an integer", float: "a number", str: "a string"}
# the fields of SimConfig that are no scalars, each read by config_from_dict
_COMPOSITES = ("initial", "criteria", "free_axes")


def _num_out(v: float):
    if math.isinf(v):
        return "inf"
    return v


def _num_in(v, path: str) -> float:
    if v == "inf":
        return math.inf
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"expected a number or \"inf\" at '{path}', got {v!r}")
    return float(v)


def _criterion_to_dict(spec: CriterionSpec) -> dict:
    entry: dict = {"theorem": spec.theorem.value}
    if spec.smallness:
        entry["smallness"] = True
    else:
        entry["pairs"] = {comp: [_num_out(p), _num_out(r)] for comp, (p, r) in spec.pairs}
    return entry


def config_to_dict(config: SimConfig) -> dict:
    """The config document: one key per field of :class:`SimConfig`, in field order."""
    doc = {f.name: getattr(config, f.name) for f in fields(config)}
    doc["initial"] = asdict(config.initial)
    doc["criteria"] = [_criterion_to_dict(s) for s in config.criteria]
    doc["free_axes"] = list(config.free_axes)
    return doc


def _check_keys(doc: dict, allowed: tuple[str, ...], where: str) -> None:
    for k in doc:
        if k not in allowed:
            raise ConfigError(f"unknown config key '{where}{k}'")


def _criterion_from_dict(doc: dict, path: str) -> CriterionSpec:
    if not isinstance(doc, dict):
        raise ConfigError(f"expected an object at '{path}'")
    _check_keys(doc, ("theorem", "smallness", "pairs"), f"{path}.")
    if "theorem" not in doc:
        raise ConfigError(f"missing 'theorem' at '{path}'")
    try:
        theorem = Theorem(doc["theorem"])
    except ValueError:
        raise ConfigError(
            f"unknown theorem '{doc['theorem']}' at '{path}.theorem'"
        ) from None
    smallness = doc.get("smallness", False)
    if not isinstance(smallness, bool):
        raise ConfigError(f"'{path}.smallness' must be a boolean")
    if smallness:
        if "pairs" in doc:
            raise ConfigError(
                f"'{path}.pairs' conflicts with smallness mode; remove one"
            )
        try:
            return CriterionSpec(theorem, smallness=True)
        except ValueError as exc:
            raise ConfigError(f"at '{path}': {exc}") from None
    pairs_doc = doc.get("pairs")
    if not isinstance(pairs_doc, dict):
        raise ConfigError(f"'{path}.pairs' must map components to [p, r]")
    pairs = []
    for comp, pr in pairs_doc.items():
        if not (isinstance(pr, list) and len(pr) == 2):
            raise ConfigError(f"'{path}.pairs.{comp}' must be a [p, r] pair")
        p = _num_in(pr[0], f"{path}.pairs.{comp}[0]")
        r = _num_in(pr[1], f"{path}.pairs.{comp}[1]")
        pairs.append((comp, (p, r)))
    try:
        return CriterionSpec(theorem, tuple(pairs))
    except ValueError as exc:
        raise ConfigError(f"at '{path}': {exc}") from None


def _scalars(doc: dict, cls: type, where: str) -> dict:
    """The scalar fields of ``cls`` that ``doc`` sets, refusing a key that is
    no field of ``cls`` and a value of another kind than the field's default
    (a bool is no number; a float field accepts integers too)."""
    known = fields(cls)
    _check_keys(doc, tuple(f.name for f in known), where)
    out: dict = {}
    for f in known:
        kind = type(f.default_factory() if f.default is MISSING else f.default)
        if kind not in _KINDS:
            if f.name not in _COMPOSITES:
                raise TypeError(f"{cls.__name__}.{f.name} is no scalar and has no config reader")
            continue
        if f.name in doc:
            v = doc[f.name]
            if isinstance(v, bool) != (kind is bool) or not isinstance(
                v, (int, float) if kind is float else kind
            ):
                raise ConfigError(f"'{where}{f.name}' must be {_KINDS[kind]}, got {v!r}")
            out[f.name] = float(v) if kind is float else v
    return out


def config_from_dict(doc: dict) -> SimConfig:
    """Build a configuration from a parsed JSON document.

    Unknown keys anywhere in the document are errors naming the offending
    dotted path; value errors from the configuration itself pass through
    as :class:`ConfigError`.
    """
    if not isinstance(doc, dict):
        raise ConfigError("the configuration document must be a JSON object")
    kwargs = _scalars(doc, SimConfig, "")
    if "free_axes" in doc:
        fa = doc["free_axes"]
        if not (isinstance(fa, list) and len(fa) == 2 and all(isinstance(a, int) and not isinstance(a, bool) for a in fa)):
            raise ConfigError("'free_axes' must be a list of two integers")
        kwargs["free_axes"] = tuple(fa)
    if "initial" in doc:
        ini = doc["initial"]
        if not isinstance(ini, dict):
            raise ConfigError("'initial' must be an object")
        ikw = _scalars(ini, InitialCondition, "initial.")
        try:
            kwargs["initial"] = InitialCondition(**ikw)
        except ValueError as exc:
            raise ConfigError(f"at 'initial': {exc}") from None
    if "criteria" in doc:
        crits = doc["criteria"]
        if not isinstance(crits, list):
            raise ConfigError("'criteria' must be a list")
        kwargs["criteria"] = tuple(
            _criterion_from_dict(c, f"criteria[{i}]") for i, c in enumerate(crits)
        )
    try:
        return SimConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def load_config(path: str | Path) -> SimConfig:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from None
    return config_from_dict(doc)


# -- run manifest -------------------------------------------------------------


def file_sha256(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(
    directory: str | Path,
    result: SimResult,
    started: float | None = None,
    finished: float | None = None,
) -> dict:
    """Summarize a stored run: config echo, columns, checksums of outputs.

    Every file in the directory (the manifest itself excepted) enters the
    inventory, so an interrupted or diverged run's partial outputs are
    visible together with the recorded status.
    """
    from . import __version__

    directory = Path(directory)
    files = {}
    for p in sorted(directory.iterdir()):
        if p.name == MANIFEST_NAME or not p.is_file():
            continue
        files[p.name] = file_sha256(p)
    manifest = {
        "format": "torusmhd-run",
        "format_version": MANIFEST_VERSION,
        "package_version": __version__,
        "status": result.status,
        "seed": result.series.config.initial.seed,
        "started_unix": started,
        "finished_unix": finished,
        "records": len(result.series),
        "columns": result.series.columns,
        "config": config_to_dict(result.series.config),
        "files": files,
    }
    _write_atomic(directory / MANIFEST_NAME, [(json.dumps(manifest, indent=2) + "\n").encode()])
    return manifest


def read_manifest(directory: str | Path) -> dict:
    path = Path(directory) / MANIFEST_NAME
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise SnapshotFormatError(f"{path}: not valid JSON ({exc})") from None
