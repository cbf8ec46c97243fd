"""Spans around the calls into each torusmhd layer, and the per-layer metrics
made from them.

A traced child (``child.py`` with ``"trace": true`` in its job) calls
:func:`install` after its set-up and before the timed CLI call.  It
replaces every public function of the layer modules, and
``Grid.sample``/``Grid.analyze``, with a wrapper that records a span.  Each function is rebound in every namespace
that holds it (``dynamics.lp_norm``, ``criteria.lp_norm``, ``cli.simulate``,
...), because callers look it up there and not in the defining module.
Nothing under ``src/`` changes.  Spans stay in memory until the child dumps
them at exit; :func:`layer_metrics` turns them into the per-layer metrics in
the parent, which never imports torusmhd.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import statistics
import time
import tracemalloc
import types

LAYER_MODULES = ("grid", "field", "norms", "criteria", "dynamics", "io", "verify")
GRID_METHODS = ("sample", "analyze")
STEP = "dynamics.step_ifrk4"
RECORD = "dynamics.compute_record"
# tracemalloc slows every allocation, so it runs only inside these two
PEAK_ALLOC = frozenset({STEP, RECORD})
ROOT = "cli.main"
MIB = float(2**20)
# a complex128 FFT reads and writes 16 bytes per point and component
FFT_BYTES_PER_POINT = 32

TIMED = (
    "grid.analyze",
    "grid.sample",
    "dynamics.step_ifrk4",
    "dynamics.compute_record",
    "dynamics.pressure_solve",
    "norms.lp_norm",
    "criteria.monitored_field",
    "norms.wxyz",
    "io.read_state_snapshot",
    "io.write_state_snapshot",
    "io.write_series_csv",
    "io.write_manifest",
)
VERIFY_REPORTS = (
    "prop31_ensemble",
    "nonlinear_split_ensemble",
    "commutator_leibniz_report",
    "dissipative_ensemble",
    "dissipative_analytic_quartic",
    "troisi_dilation_identity",
    "scaling_report",
    "prop31_divfree_control",
    "prop31_aliased_control",
)
# counts that must repeat exactly between two traced runs of one input
EXACT_COUNTS = (
    "grid.analyze.calls_per_step",
    "grid.sample.calls_per_step",
    "grid.analyze.points",
    "grid.fft_mb_per_step",
    "norms.lp_norm.calls_per_record",
    "field.gradient.calls_per_record",
)
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _metric_units() -> dict[str, str]:
    units = {
        "grid.analyze.calls_per_step": "count",
        "grid.sample.calls_per_step": "count",
        "grid.analyze.points": "count",
        "grid.fft_mb_per_step": "MiB_computed",
    }
    for name in TIMED:
        units[f"{name}.p50_ms"] = "ms"
        units[f"{name}.tail_ms"] = "ms"
        units[f"{name}.tail_pct"] = "%"
        units[f"{name}.n"] = "count"
    units.update(
        {
            "dynamics.step_ifrk4.peak_alloc_mb": "MiB",
            "dynamics.compute_record.peak_alloc_mb": "MiB",
            "dynamics.step_share": "fraction",
            "dynamics.record_share": "fraction",
            "norms.lp_norm.calls_per_record": "count",
            "field.gradient.calls_per_record": "count",
            "io.bytes_read": "bytes",
            "io.bytes_written": "bytes",
        }
    )
    for fn in VERIFY_REPORTS:
        units[f"verify.{fn}.s"] = "s"
    units["cli.self_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


METRIC_UNITS = _metric_units()


# -- recording (child side) ----------------------------------------------------


def _sample_extra(args, kwargs):
    grid, coeffs = args[0], args[1]
    m_eval = args[2] if len(args) > 2 else kwargs.get("m_eval")
    m = m_eval or grid.eval_modes
    return [m**grid.dim, math.prod(coeffs.shape[: coeffs.ndim - grid.dim])]


def _analyze_extra(args, kwargs):
    grid, values = args[0], args[1]
    return [values.shape[-1] ** grid.dim, math.prod(values.shape[: values.ndim - grid.dim])]


def _file_size(args, kwargs):
    return os.path.getsize(args[0])


def _manifest_size(args, kwargs):
    return os.path.getsize(os.path.join(args[0], "manifest.json"))


# bytes each io function moves, read off the file it names once it returns;
# read_state_snapshot is counted through the read_snapshot call it makes
_IO_READS = {
    "io.read_snapshot": _file_size,
    "io.load_config": _file_size,
    "io.read_series_csv": _file_size,
    "io.read_manifest": _manifest_size,
}
_IO_WRITES = {
    "io.write_state_snapshot": _file_size,
    "io.write_scalar_snapshot": _file_size,
    "io.write_series_csv": _file_size,
    "io.save_config": _file_size,
    "io.write_manifest": _manifest_size,
}
_EXTRA = {"grid.sample": _sample_extra, "grid.analyze": _analyze_extra, **_IO_READS, **_IO_WRITES}


class Recorder:
    """Spans of one process, kept in memory.

    A span is ``[id, parent id, name, start s, end s, extra]``; ids are
    positions in :attr:`spans`, so a parent always precedes its children.
    ``extra`` is the transform size ``[points, components]``, the bytes an
    io call moved, or the peak traced allocation in bytes.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        extra = _EXTRA.get(name)
        peak = name in PEAK_ALLOC

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else -1, name, 0.0, 0.0, None]
            spans.append(span)
            stack.append(span[0])
            malloc = peak and not tracemalloc.is_tracing()
            if malloc:
                tracemalloc.start()
            span[3] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()
                if malloc:
                    span[5] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if extra is not None:
                span[5] = extra(args, kwargs)
            return out

        return traced

    def dump(self) -> dict:
        return {"run_id": self.run_id, "spans": self.spans}


def install(rec: Recorder) -> None:
    """Route every public layer function and the Grid transforms through ``rec``."""
    package = importlib.import_module("torusmhd")
    cli = importlib.import_module("torusmhd.cli")
    mods = [importlib.import_module(f"torusmhd.{m}") for m in LAYER_MODULES]
    namespaces = [package, cli, *mods]
    for mod in mods:
        short = mod.__name__.rsplit(".", 1)[1]
        for attr in mod.__all__:
            fn = getattr(mod, attr)
            if not isinstance(fn, types.FunctionType) or fn.__module__ != mod.__name__:
                continue
            wrapped = rec.wrap(f"{short}.{attr}", fn)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is fn:
                        setattr(ns, key, wrapped)
    grid_cls = importlib.import_module("torusmhd.grid").Grid
    for meth in GRID_METHODS:
        setattr(grid_cls, meth, rec.wrap(f"grid.{meth}", getattr(grid_cls, meth)))


# -- aggregation (parent side) -------------------------------------------------


def _tail(values: list[float]) -> tuple[float, float]:
    """Highest listed percentile with at least ten samples beyond it."""
    n = len(values)
    for q in TAIL_PERCENTILES:
        if n * (1.0 - q / 100.0) >= 10:
            cuts = statistics.quantiles(values, n=1000, method="inclusive")
            return cuts[int(round(q * 10)) - 1], q
    return 0.0, 0.0


class _Run:
    """Index over the spans of one traced child."""

    def __init__(self, dump: dict):
        self.spans = dump["spans"]
        self.by_name: dict[str, list[list]] = {}
        for s in self.spans:
            self.by_name.setdefault(s[2], []).append(s)
        roots = self.by_name.get(ROOT, [])
        if len(roots) != 1:
            raise ValueError(f"traced run has {len(roots)} '{ROOT}' spans, expected 1")
        self.root = roots[0]
        self.wall = self.root[4] - self.root[3]
        # nearest enclosing step / record of each span (-1 when none)
        self.in_step = [-1] * len(self.spans)
        self.in_record = [-1] * len(self.spans)
        for s in self.spans:
            i, parent = s[0], s[1]
            self.in_step[i] = i if s[2] == STEP else (self.in_step[parent] if parent >= 0 else -1)
            self.in_record[i] = i if s[2] == RECORD else (self.in_record[parent] if parent >= 0 else -1)

    def named(self, name: str) -> list[list]:
        return self.by_name.get(name, [])

    def outermost(self, name: str) -> list[list]:
        """Spans of ``name`` not nested in another span of the same name."""
        out = []
        for s in self.named(name):
            parent = s[1]
            while parent >= 0 and self.spans[parent][2] != name:
                parent = self.spans[parent][1]
            if parent < 0:
                out.append(s)
        return out

    def total(self, name: str) -> float:
        return sum(s[4] - s[3] for s in self.outermost(name))

    def per(self, name: str, inside: list[int], over: str) -> float:
        denom = len(self.named(over))
        if denom == 0:
            return 0.0
        return sum(1 for s in self.named(name) if inside[s[0]] >= 0) / denom

    def counts(self) -> dict[str, float]:
        n_steps = len(self.named(STEP))
        fft_bytes = sum(
            FFT_BYTES_PER_POINT * s[5][0] * s[5][1]
            for name in ("grid.sample", "grid.analyze")
            for s in self.named(name)
            if self.in_step[s[0]] >= 0
        )
        points = [s[5][0] for s in self.named("grid.analyze")]
        return {
            "grid.analyze.calls_per_step": self.per("grid.analyze", self.in_step, STEP),
            "grid.sample.calls_per_step": self.per("grid.sample", self.in_step, STEP),
            "grid.analyze.points": statistics.median_low(points) if points else 0,
            "grid.fft_mb_per_step": fft_bytes / n_steps / MIB if n_steps else 0.0,
            "norms.lp_norm.calls_per_record": self.per("norms.lp_norm", self.in_record, RECORD),
            "field.gradient.calls_per_record": self.per("field.gradient", self.in_record, RECORD),
        }

    def io_bytes(self, table: dict) -> int:
        return sum(s[5] for name in table for s in self.named(name))


def count_mismatches(dumps: list[dict]) -> list[str]:
    """Names of the exact counts that differ between traced runs."""
    counts = [_Run(d).counts() for d in dumps]
    return [k for k in EXACT_COUNTS if any(c[k] != counts[0][k] for c in counts[1:])]


def layer_metrics(dumps: list[dict]) -> dict[str, float]:
    """Per-layer metrics from one or more traced runs of one input.

    Timings pool the spans of all runs; counts come from the first run,
    and :func:`count_mismatches` checks that the others agree.
    """
    runs = [_Run(d) for d in dumps]
    first = runs[0]
    out: dict[str, float] = dict(first.counts())
    for name in TIMED:
        ms = [1e3 * (s[4] - s[3]) for r in runs for s in r.named(name)]
        tail, pct = _tail(ms)
        out[f"{name}.p50_ms"] = statistics.median(ms) if ms else 0.0
        out[f"{name}.tail_ms"] = tail
        out[f"{name}.tail_pct"] = pct
        out[f"{name}.n"] = len(ms)
    for name in (STEP, RECORD):
        peaks = [s[5] / MIB for r in runs for s in r.named(name) if s[5] is not None]
        out[f"{name}.peak_alloc_mb"] = statistics.median(peaks) if peaks else 0.0
    out["dynamics.step_share"] = statistics.median(r.total(STEP) / r.wall for r in runs)
    out["dynamics.record_share"] = statistics.median(r.total(RECORD) / r.wall for r in runs)
    out["io.bytes_read"] = first.io_bytes(_IO_READS)
    out["io.bytes_written"] = first.io_bytes(_IO_WRITES)
    for fn in VERIFY_REPORTS:
        out[f"verify.{fn}.s"] = statistics.median(r.total(f"verify.{fn}") for r in runs)
    self_s = []
    for r in runs:
        children = sum(s[4] - s[3] for s in r.spans if s[1] == r.root[0])
        self_s.append(r.wall - children)
    out["cli.self_s"] = statistics.median(self_s)
    return out
