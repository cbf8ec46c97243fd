"""Numerical verification of the analytical building blocks.

Two kinds of checks live here.  Identity checks evaluate both sides of an
exact equality with independent quadratures and report relative residuals
against hard thresholds.  Inequality checks estimate the hidden constants
empirically: they report the largest LHS/RHS ratio over an ensemble and are
never pass/fail against a theoretical constant, only against finiteness and
stability under refinement.

Every check returns a :class:`VerificationReport`; suites bundle the
ensemble drivers plus the negative controls that prove the identity checks
are not vacuous.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from statistics import median as _median
from typing import Callable, Iterable

import numpy as np

from .grid import Grid, make_grid
from .field import (
    SpectralField,
    check_divfree,
    gradient,
    partial_derivative,
    sample_part,
    synth_random_divfree,
    synth_random_field,
    rescale_field,
)
from .norms import energy, l2_norm, lp_norm
from .dynamics import (
    MhdState,
    SimConfig,
    InitialCondition,
    mhd_rhs,
    pressure_solve,
    simulate,
    single_mode_state,
)

__all__ = [
    "VerificationReport",
    "elementary_report",
    "check_troisi",
    "windowed_field",
    "windowed_ensemble",
    "troisi_dilation_identity",
    "check_commutator",
    "commutator_ensemble",
    "commutator_leibniz_report",
    "band_pair",
    "PROP31_MODES",
    "check_prop31",
    "prop31_ensemble",
    "prop31_divfree_control",
    "prop31_aliased_control",
    "check_nonlinear_split",
    "nonlinear_split_ensemble",
    "check_dissipative_identity",
    "dissipative_ensemble",
    "dissipative_analytic_quartic",
    "check_scaling",
    "scaling_report",
    "LpBalanceData",
    "collect_lp_balance",
    "balance_run_config",
    "check_lp_pressure_balance",
    "refinement_drift",
    "run_suite",
    "suite_passed",
    "SUITES",
]


@dataclass(frozen=True)
class VerificationReport:
    """Result of one check over one or more samples.

    ``kind`` is "identity" (samples are relative residuals, threshold is an
    upper bound), "ratio" (samples are LHS/RHS ratios, threshold optional),
    or "negative_control" (samples are residuals of a deliberately broken
    input; the check passes only when every sample EXCEEDS the threshold).
    """

    name: str
    kind: str
    samples: tuple[float, ...]
    threshold: float | None = None
    excluded: int = 0
    details: tuple[dict, ...] = ()

    def __post_init__(self):
        if self.kind not in ("identity", "ratio", "negative_control"):
            raise ValueError(f"unknown report kind '{self.kind}'")

    @property
    def n(self) -> int:
        return len(self.samples)

    @property
    def max(self) -> float:
        return max(self.samples) if self.samples else math.nan

    @property
    def median(self) -> float:
        return _median(self.samples) if self.samples else math.nan

    @property
    def passed(self) -> bool:
        if not self.samples:
            return False
        if self.kind == "negative_control":
            return min(self.samples) > (self.threshold or 0.0)
        if self.threshold is not None:
            return all(s <= self.threshold for s in self.samples)
        # empirical ratio check: finiteness is the only hard requirement
        return all(math.isfinite(s) for s in self.samples)

    def summary(self) -> str:
        lines = [
            f"check: {self.name}",
            f"kind: {self.kind}   n: {self.n}   excluded: {self.excluded}",
            f"max: {self.max:.6e}   median: {self.median:.6e}",
        ]
        if self.threshold is not None:
            rel = "must exceed" if self.kind == "negative_control" else "threshold"
            lines.append(f"{rel}: {self.threshold:.3e}")
        lines.append(f"result: {'pass' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def _rel(lhs: float, rhs: float, anchor: float = 0.0) -> float:
    """Residual relative to the larger side, with an absolute floor."""
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), abs(anchor), 1e-300)


def refinement_drift(coarse: VerificationReport, fine: VerificationReport) -> float:
    """Relative movement of the empirical max ratio under refinement."""
    return abs(coarse.max - fine.max) / max(abs(fine.max), 1e-300)


def _drift_report(
    name: str, coarse: VerificationReport, fine: VerificationReport
) -> VerificationReport:
    """The refinement drift as an identity held to 5%."""
    detail = {"coarse_max": coarse.max, "fine_max": fine.max}
    return VerificationReport(
        name, "identity", (refinement_drift(coarse, fine),), 5e-2, details=(detail,)
    )


def _pooled(
    name: str, kind: str, threshold: float | None, reports: list[VerificationReport]
) -> VerificationReport:
    """One report over the samples and details of several, in order."""
    samples = tuple(x for r in reports for x in r.samples)
    details = tuple(d for r in reports for d in r.details)
    return VerificationReport(name, kind, samples, threshold, details=details)


# -- elementary inequality ----------------------------------------------------


def elementary_report(n: int = 1000, seed: int = 0) -> VerificationReport:
    """Randomized sweep reporting the LHS/RHS ratio (must stay <= 1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.0, 1e3, n)
    b = rng.uniform(0.0, 1e3, n)
    p = rng.uniform(0.0, 8.0, n)
    lhs = (a + b) ** p
    rhs = 2.0**p * (a**p + b**p)
    ratios = np.where(rhs > 0, lhs / np.where(rhs > 0, rhs, 1.0), 1.0)
    return VerificationReport(
        "elementary_power_sum", "ratio", tuple(float(r) for r in ratios), threshold=1.0
    )


# -- compactly windowed test functions ----------------------------------------


def _bump(t: np.ndarray) -> np.ndarray:
    # the standard smooth bump, supported on |t| < 1, normalized to peak 1
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - ti * ti))
    return out


def _bump_derivative(t: np.ndarray) -> np.ndarray:
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    out[inside] = _bump(ti) * (-2.0 * ti / (1.0 - ti * ti) ** 2)
    return out


# ensemble family: product bumps wide enough that the default band captures
# them, modulated by a few low-mode waves (drift under refinement stays
# well inside the 5% stability budget)
_WINDOW_WIDTH_LO = 1.40
_WINDOW_WIDTH_HI = 1.75
_WINDOW_JITTER = 0.10
_WINDOW_WAVES = 3


def _window_values(grid: Grid, m_eval: int, seed: int) -> np.ndarray:
    dim, side_length = grid.dim, grid.side_length
    rng = np.random.default_rng(seed)
    unit = side_length / (2.0 * np.pi)
    widths = rng.uniform(_WINDOW_WIDTH_LO, _WINDOW_WIDTH_HI, dim) * unit
    jitter = rng.uniform(-_WINDOW_JITTER, _WINDOW_JITTER, dim) * unit
    xs = grid.coordinates(m_eval)
    f = np.ones((m_eval,) * dim)
    for a in range(dim):
        f = f * _bump((xs[a] - (side_length / 2.0 + jitter[a])) / widths[a])
    modulation = np.zeros((m_eval,) * dim)
    for _ in range(_WINDOW_WAVES):
        k = rng.integers(-1, 2, dim)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        amp = rng.standard_normal()
        arg = phase + sum((2.0 * np.pi / side_length) * k[a] * xs[a] for a in range(dim))
        modulation = modulation + amp * np.cos(arg)
    return f * (0.5 + 0.6 * modulation)


def windowed_field(grid: Grid, seed: int) -> SpectralField:
    """One compactly supported scalar from the frozen window family.

    Sampling resolution is capped so refinement studies in dimension 4 stay
    affordable; the window family is smooth enough that the cap is
    immaterial.
    """
    m = min(grid.eval_modes, 48) if grid.dim == 4 else grid.eval_modes
    vals = _window_values(grid, m, seed)
    return SpectralField.from_samples(grid, vals[None])


def windowed_ensemble(grid: Grid, seed: int = 0) -> Callable[[int], SpectralField]:
    """Field generator for :func:`check_troisi`: index -> windowed scalar."""

    def make(index: int) -> SpectralField:
        return windowed_field(grid, seed + index)

    return make


def check_troisi(
    ensemble: Callable[[int], SpectralField], n: int
) -> VerificationReport:
    """Anisotropic L^4 inequality: ratio of ||f||_4 to prod_i ||d_i f||^{1/4}.

    Degenerate samples (any directional derivative essentially zero) are
    excluded and counted.  The reported max is the empirical constant.
    """
    if n < 1:
        raise ValueError("ensemble size must be >= 1")
    ratios: list[float] = []
    details: list[dict] = []
    excluded = 0
    for i in range(n):
        f = ensemble(i)
        g = f.grid
        if f.components != 1:
            raise ValueError("check_troisi expects scalar fields")
        dnorms = [l2_norm(partial_derivative(f, a)) for a in range(g.dim)]
        top = max(dnorms)
        if top == 0.0 or min(dnorms) <= 1e-13 * top:
            excluded += 1
            continue
        l4 = lp_norm(f, 4, m_eval=g.alias_free_modes(4, 0))
        denom = 1.0
        for d in dnorms:
            denom *= d**0.25
        ratios.append(l4 / denom)
        details.append({"l4": l4, "derivative_norms": tuple(dnorms)})
    return VerificationReport(
        "troisi_l4", "ratio", tuple(ratios), excluded=excluded, details=tuple(details)
    )


def troisi_dilation_identity(
    width: float = 0.95, factor: float = 2.0, n_quad: int = 4096
) -> VerificationReport:
    """Per-axis dilation leaves the L^4 ratio invariant; verified exactly.

    Uses the separable product structure of a pure bump: every integral on
    both sides factorizes into one-dimensional quadratures, so the change
    of variables can be checked to rounding instead of grid accuracy.
    """
    side = 2.0 * np.pi

    def product_ratio(widths: tuple[float, ...]) -> float:
        x = np.arange(n_quad) * (side / n_quad)
        h = side / n_quad
        i4, i2, d2 = [], [], []
        for w in widths:
            t = (x - side / 2.0) / w
            bv = _bump(t)
            dv = _bump_derivative(t) / w
            i4.append(h * float(np.sum(bv**4)))
            i2.append(h * float(np.sum(bv**2)))
            d2.append(h * float(np.sum(dv**2)))
        l4 = float(np.prod(i4)) ** 0.25
        denom = 1.0
        for a in range(4):
            v = d2[a]
            for a2 in range(4):
                if a2 != a:
                    v *= i2[a2]
            denom *= v**0.125
        return l4 / denom

    iso = product_ratio((width,) * 4)
    dilated = product_ratio((factor * width, width, width, width))
    return VerificationReport(
        "troisi_dilation_invariance",
        "identity",
        (_rel(iso, dilated),),
        threshold=1e-12,
        details=({"isotropic": iso, "dilated": dilated},),
    )


# -- commutator estimate ------------------------------------------------------


_COMMUTATOR_SUP_MODES = 48


def _commutator(f: SpectralField, g: SpectralField, s: float) -> tuple:
    """(fine grid, f and g samples on its points, coefficients of
    A^s(fg) - f A^s g on it) for scalar f, g of one grid.

    Products of two K-band fields occupy band 2K, held whole by a grid of
    their own on the size where they are exact up to 2K, so all coefficient
    arithmetic is exact for band-limited inputs.
    """
    if s <= 0:
        raise ValueError(f"the symbol order must be positive, got {s}")
    grid = f.grid
    if g.grid != grid:
        raise ValueError("f and g must share a grid")
    if f.components != 1 or g.components != 1:
        raise ValueError("check_commutator expects scalar fields")
    k2 = 2 * grid.band_limit
    m = grid.alias_free_modes(2, k2)
    fine = Grid(grid.dim, m, grid.side_length, k2)
    fs = grid.sample(f.coeffs, m)
    gs = grid.sample(g.coeffs, m)
    lam_fg = fine.k_power(s)[None] * fine.analyze(fs * gs)
    lam_g = grid.k_power(s)[None] * g.coeffs
    return fine, fs, gs, lam_fg - fine.analyze(fs * grid.sample(lam_g, m))


def check_commutator(
    f: SpectralField, g: SpectralField, s: float, sup_modes: int | None = None
) -> VerificationReport:
    """Ratio of the commutator norm ||A^s(fg) - f A^s g||_2 to its estimate.

    The estimating expression uses the exponent tuple (2, inf, 2, 2, inf):
    ||grad f||_inf ||A^{s-1} g||_2 + ||A^s f||_2 ||g||_inf.  The commutator is
    exact (:func:`_commutator`); the sups are collocation maxima.
    """
    fine, _fs, _gs, comm = _commutator(f, g, s)
    comm_l2 = math.sqrt(fine.parseval_sum(np.abs(comm) ** 2))
    grid = f.grid
    sup_m = sup_modes or (
        _COMMUTATOR_SUP_MODES if grid.dim == 4 else grid.eval_modes
    )
    grad_f_inf = lp_norm(gradient(f), math.inf, m_eval=sup_m)
    g_inf = lp_norm(g, math.inf, m_eval=sup_m)
    lam_sm1_g = math.sqrt(grid.parseval_sum(grid.k_power(s - 1.0) ** 2 * np.abs(g.coeffs) ** 2))
    lam_s_f = math.sqrt(grid.parseval_sum(grid.k_power(s) ** 2 * np.abs(f.coeffs) ** 2))
    rhs = grad_f_inf * lam_sm1_g + lam_s_f * g_inf
    ratio = comm_l2 / rhs if rhs > 0 else (0.0 if comm_l2 == 0 else math.inf)
    return VerificationReport(
        f"commutator_s{s:g}", "ratio", (ratio,),
        details=({"commutator_l2": comm_l2, "estimate": rhs},),
    )


def _leibniz_residual(f: SpectralField, g: SpectralField) -> float:
    """Largest coefficient of A^2(fg) - f A^2 g minus its Leibniz form
    -(Delta f) g - 2 grad f . grad g, relative to the larger of the two."""
    fine, fs, gs, comm = _commutator(f, g, 2.0)
    grid, m = f.grid, fine.modes_per_axis
    t1 = grid.sample(-grid.k_squared[None] * f.coeffs, m) * gs
    t2 = np.zeros_like(fs)
    for a in range(grid.dim):
        t2 = t2 + sample_part(f, 0, a, m) * sample_part(g, 0, a, m)
    leibniz = fine.analyze(-t1 - 2.0 * t2)
    scale = max(np.abs(comm).max(), np.abs(leibniz).max(), 1e-300)
    return float(np.abs(comm - leibniz).max() / scale)


def band_pair(
    grid: Grid, seed: int, content_modes: int = 16, decay: float = 4.0
) -> tuple[SpectralField, SpectralField]:
    """A scalar pair whose mode content is fixed independently of the grid.

    Coefficients are drawn on a reference layout and embedded exactly, so a
    refinement study evaluates identical functions on both grids; any drift
    in an exactly-computed functional would expose a layout bug.
    """
    ref = Grid(grid.dim, content_modes, grid.side_length)
    f0 = synth_random_field(ref, 1, seed, decay=decay)
    g0 = synth_random_field(ref, 1, seed + 10_000, decay=decay)
    if grid.band_limit < ref.band_limit:
        raise ValueError("target grid band cannot hold the reference content")
    return tuple(SpectralField(grid, ref.embed(f.coeffs, grid)) for f in (f0, g0))


def commutator_ensemble(
    n: int, seed: int = 0, s: float = 2.5, modes_per_axis: int = 16, dim: int = 4
) -> VerificationReport:
    if n < 1:
        raise ValueError("ensemble size must be >= 1")
    grid = make_grid(dim, modes_per_axis)
    reports = [check_commutator(*band_pair(grid, seed + i), s) for i in range(n)]
    return _pooled(f"commutator_s{s:g}_ensemble", "ratio", None, reports)


def commutator_leibniz_report(
    n: int, seed: int = 0, modes_per_axis: int = 16, dim: int = 4
) -> VerificationReport:
    """The integer-order case is an exact identity; residuals are hard-gated."""
    grid = make_grid(dim, modes_per_axis)
    residuals = tuple(_leibniz_residual(*band_pair(grid, seed + i)) for i in range(n))
    return VerificationReport("commutator_leibniz_s2", "identity", residuals, threshold=1e-11)


# -- the anisotropic-Laplacian decomposition ----------------------------------

PROP31_MODES = ("identity_22", "identity_30_line1", "bound_20", "bound_21")

# headline identities are measured against their own magnitude; the cubic
# gauge enters only as a floor so symmetric fields whose pairing vanishes
# identically do not divide rounding noise by itself
_GAUGE_FLOOR = 1e-3


def _samples(
    f: SpectralField, m: int, axes: Iterable[int | None] = (None,), rows: slice = slice(None)
) -> np.ndarray:
    """Samples on m of f (axis None) or of its first derivatives, on ``rows``
    of the first axis, indexed [axis][component], filled one component at a
    time."""
    axes = tuple(axes)
    out = np.empty((len(axes), f.components, len(range(m)[rows])) + (m,) * (f.grid.dim - 1))
    for i, a in enumerate(axes):
        for c in range(f.components):
            out[i, c] = sample_part(f, c, a, m, rows)
    return out


class _PlaneWorkspace:
    """Shared collocation samples for the plane-Laplacian checks, on m points.

    Second derivatives are sampled lazily.  On ``alias_free_modes(3, 0)``
    every cubic integrates exactly, and so does a quadratic product analysed
    back onto the band, since 3K + 1 is also ``alias_free_modes(2, K)``.
    """

    def __init__(self, u: SpectralField, b: SpectralField | None, m: int):
        self.g, self.m, self.u, self.b = u.grid, m, u, b
        axes = range(u.grid.dim)
        self.us = _samples(u, m)[0]
        self.bs = _samples(b, m)[0] if b is not None else None
        self.dus = _samples(u, m, axes)
        self.dbs = _samples(b, m, axes) if b is not None else None
        self._second: dict[tuple[int, int], np.ndarray] = {}

    def quad(self, values: np.ndarray) -> float:
        return float(self.g.quadrature(values))

    def d2(self, axis_outer: int, comp: int, axis_inner: int) -> np.ndarray:
        """Samples of d_{axis_outer} d_{axis_inner} u_comp."""
        key = (axis_outer, comp, axis_inner)
        if key not in self._second:
            g = self.g
            sym = -g.wave_axes[axis_outer] * g.wave_axes[axis_inner]
            self._second[key] = g.sample(sym[None] * self.u.coeffs[comp : comp + 1], self.m)[0]
        return self._second[key]

    def gauge(self) -> float:
        """Cubic magnitude anchor for residuals whose sides may vanish."""
        gu = np.sqrt((self.dus**2).sum(axis=(0, 1)))
        if self.dbs is not None:
            gu = gu + np.sqrt((self.dbs**2).sum(axis=(0, 1)))
        return self.quad(gu**3)

    def plane_lap_samples(self, field: SpectralField, axes=(0, 1)) -> np.ndarray:
        g = self.g
        sym = -(g.wave_axes[axes[0]] ** 2 + g.wave_axes[axes[1]] ** 2)
        return g.sample(sym[None] * field.coeffs, self.m)

    def triples(self, ks, is_, js=range(4)) -> float:
        """-sum over k, i, j of int d_k u_i d_i u_j d_k u_j."""
        d = self.dus
        return -sum(
            self.quad(d[k, i] * d[i, j] * d[k, j]) for k in ks for i in is_ for j in js
        )

    def convection(self, vel_samples: np.ndarray, dtarget: np.ndarray) -> np.ndarray:
        # (v . grad) f with dtarget[axis][comp] the target's derivative samples
        return np.einsum("i...,ij...->j...", vel_samples, dtarget)


def _pair_chain_residuals(w: _PlaneWorkspace) -> dict[str, float]:
    """The in-plane cubic expansion and its divergence-substitution steps."""
    q = w.quad
    dus = w.dus
    a = dus[0, 0]
    bb = dus[1, 1]
    cd = dus[2, 2] + dus[3, 3]
    anchor = w.gauge()

    first_sum = w.triples(range(2), range(2), range(2))
    terms = [
        -q(a**3),
        -q(dus[1, 0] * a * dus[1, 0]),
        -q(a * dus[0, 1] * dus[0, 1]),
        -q(dus[1, 0] * dus[0, 1] * bb),
        -q(dus[0, 1] * dus[1, 0] * a),
        -q(bb * dus[1, 0] * dus[1, 0]),
        -q(dus[0, 1] * bb * dus[0, 1]),
        -q(bb**3),
    ]
    res: dict[str, float] = {}
    res["expansion"] = _rel(first_sum, sum(terms), anchor)

    i18 = terms[0] + terms[7]
    step1 = q(a**2 * bb + a**2 * cd + bb**2 * a + bb**2 * cd)
    res["pair_18_divergence"] = _rel(i18, step1, anchor)
    res["pair_18_regroup"] = _rel(q(a**2 * bb + bb**2 * a), -q(a * bb * cd), anchor)
    res["pair_18_combined"] = _rel(i18, q(-a * bb * cd + (a**2 + bb**2) * cd), anchor)

    # integrate the free-axis divergence terms by parts onto u3, u4
    d3ab = w.d2(2, 0, 0) * bb + a * w.d2(2, 1, 1)
    d4ab = w.d2(3, 0, 0) * bb + a * w.d2(3, 1, 1)
    d3sq = 2.0 * a * w.d2(2, 0, 0) + 2.0 * bb * w.d2(2, 1, 1)
    d4sq = 2.0 * a * w.d2(3, 0, 0) + 2.0 * bb * w.d2(3, 1, 1)
    u3 = w.us[2]
    u4 = w.us[3]
    res["pair_18_parts_cross"] = _rel(-q(a * bb * cd), q(u3 * d3ab + u4 * d4ab), anchor)
    res["pair_18_parts_square"] = _rel(
        q((a**2 + bb**2) * cd), -q(u3 * d3sq + u4 * d4sq), anchor
    )

    res["pair_26"] = _rel(terms[1] + terms[5], q(dus[1, 0] ** 2 * cd), anchor)
    res["pair_37"] = _rel(terms[2] + terms[6], q(dus[0, 1] ** 2 * cd), anchor)
    res["pair_45"] = _rel(terms[3] + terms[4], q(dus[1, 0] * dus[0, 1] * cd), anchor)
    return res


def _identity_22_report(w: _PlaneWorkspace) -> VerificationReport:
    """The headline identity and its pair chain, reported by the worst residual."""
    main, detail = _identity_22_residual(w)
    chain = _pair_chain_residuals(w)
    detail.update(chain)
    worst = max(main, *chain.values())
    return VerificationReport("prop31_identity_22", "identity", (worst,), 1e-10, details=(detail,))


def _identity_22_residual(w: _PlaneWorkspace) -> tuple[float, dict]:
    conv = w.convection(w.us, w.dus)
    lap12 = w.plane_lap_samples(w.u)
    lhs = w.quad(np.einsum("j...,j...->...", conv, lap12))
    rhs = w.triples(range(2), range(4))
    anchor = _GAUGE_FLOOR * w.gauge()
    return _rel(lhs, rhs, anchor), {"lhs": lhs, "rhs": rhs}


def _mixed_pairing(w: _PlaneWorkspace, lap12_u: np.ndarray) -> float:
    """The three mixed velocity/magnetic terms of the in-plane pairing."""
    lap12_b = w.plane_lap_samples(w.b)
    return w.quad(
        np.einsum("j...,j...->...", w.convection(w.us, w.dbs), lap12_b)
        - np.einsum("j...,j...->...", w.convection(w.bs, w.dbs), lap12_u)
        - np.einsum("j...,j...->...", w.convection(w.bs, w.dus), lap12_b)
    )


def _identity_30_residual(w: _PlaneWorkspace) -> tuple[float, dict]:
    if w.bs is None:
        raise ValueError("the mixed identity needs a magnetic field (b = 0 is fine)")
    lhs = _mixed_pairing(w, w.plane_lap_samples(w.u))
    rhs = 0.0
    for k in range(2):
        for i in range(4):
            for j in range(4):
                rhs -= w.quad(w.dus[k, i] * w.dbs[i, j] * w.dbs[k, j])
                rhs += w.quad(
                    w.dbs[k, i] * w.dbs[i, j] * w.dus[k, j]
                    + w.dbs[k, i] * w.dus[i, j] * w.dbs[k, j]
                )
    anchor = _GAUGE_FLOOR * w.gauge()
    return _rel(lhs, rhs, anchor), {"lhs": lhs, "rhs": rhs}


def _plane_hessian_sq(w: _PlaneWorkspace, f: SpectralField) -> np.ndarray:
    """Pointwise squared magnitude of the mixed Hessian d_a d_k f_j, k <= 2."""
    ax = w.g.wave_axes
    return sum(
        (w.g.sample((-ax[a] * ax[k])[None] * f.coeffs, w.m) ** 2).sum(axis=0)
        for a in range(4)
        for k in range(2)
    )


def _bound_values(w: _PlaneWorkspace, which: str) -> tuple[float, float]:
    conv_uu = w.convection(w.us, w.dus)
    lap12_u = w.plane_lap_samples(w.u)
    lhs = w.quad(np.einsum("j...,j...->...", conv_uu, lap12_u))
    if w.bs is not None:
        lhs += _mixed_pairing(w, lap12_u)

    grad_u = np.sqrt((w.dus**2).sum(axis=(0, 1)))
    if which == "bound_20":
        g2u = np.sqrt(_plane_hessian_sq(w, w.u))
        rhs = w.quad((np.abs(w.us[2]) + np.abs(w.us[3])) * grad_u * g2u)
        if w.bs is not None:
            grad_b = np.sqrt((w.dbs**2).sum(axis=(0, 1)))
            g2b = np.sqrt(_plane_hessian_sq(w, w.b))
            babs = np.sqrt((w.bs**2).sum(axis=0))
            rhs += w.quad(babs * (grad_u + grad_b) * (g2u + g2b))
    else:
        grad_u3 = np.sqrt((w.dus[:, 2] ** 2).sum(axis=0))
        grad_u4 = np.sqrt((w.dus[:, 3] ** 2).sum(axis=0))
        grad12_u = np.sqrt((w.dus[:2] ** 2).sum(axis=(0, 1)))
        rhs = w.quad((grad_u3 + grad_u4) * grad12_u * grad_u)
        if w.bs is not None:
            grad_b = np.sqrt((w.dbs**2).sum(axis=(0, 1)))
            grad12_b = np.sqrt((w.dbs[:2] ** 2).sum(axis=(0, 1)))
            rhs += w.quad(grad_b * grad12_b * grad_u)
    return lhs, rhs


def check_prop31(
    u: SpectralField,
    b: SpectralField | None,
    mode: str,
    enforce_divfree: bool = True,
) -> VerificationReport:
    """Exact decomposition of the in-plane Laplacian convection pairing.

    ``identity_22`` checks the integrated-by-parts cubic expansion together
    with every divergence-substitution step of the in-plane pair chain;
    ``identity_30_line1`` the analogous expansion of the three mixed
    velocity/magnetic terms; ``bound_20`` and ``bound_21`` evaluate both
    sides of the two final estimates and report the magnitude ratio
    |LHS|/RHS (their constants are empirical).

    The identities are cubic and exact on ``alias_free_modes(3, 0)``; the
    bounds' majorants are not polynomials and keep ``eval_modes``.

    ``enforce_divfree=False`` skips the precondition so negative controls
    can demonstrate the identities genuinely consume incompressibility.
    """
    if mode not in PROP31_MODES:
        raise ValueError(f"mode must be one of {PROP31_MODES}, got '{mode}'")
    g = u.grid
    if g.dim != 4:
        raise ValueError("the decomposition is specific to dimension 4")
    if u.components != 4 or (b is not None and b.components != 4):
        raise ValueError("u and b must have four components")
    if enforce_divfree:
        check_divfree(u, "u")
        if b is not None:
            check_divfree(b, "b")
    if mode == "identity_30_line1" and b is None:
        b = SpectralField.zeros(g, 4)
    exact = mode.startswith("identity")
    w = _PlaneWorkspace(u, b, g.alias_free_modes(3, 0) if exact else g.eval_modes)

    if mode == "identity_22":
        return _identity_22_report(w)
    if mode == "identity_30_line1":
        res, detail = _identity_30_residual(w)
        return VerificationReport(
            "prop31_identity_30_line1", "identity", (res,), 1e-10, details=(detail,)
        )
    lhs, rhs = _bound_values(w, mode)
    if rhs > 0:
        ratio = abs(lhs) / rhs
    else:
        # degenerate flows (2D-embedded, say) zero the majorant exactly;
        # the pairing must then vanish too, up to rounding against the
        # cubic scale
        ratio = 0.0 if abs(lhs) <= 1e-11 * max(w.gauge(), 1.0) else math.inf
    return VerificationReport(
        f"prop31_{mode}", "ratio", (ratio,), details=({"lhs": lhs, "rhs": rhs},)
    )


def _random_pair(grid: Grid, seed: int, with_b: bool) -> tuple[SpectralField, SpectralField | None]:
    u = synth_random_divfree(grid, 4, seed, decay=3.0)
    b = synth_random_divfree(grid, 4, seed + 500_000, decay=3.0, amplitude=0.7) if with_b else None
    return u, b


def prop31_ensemble(
    mode: str, n: int, seed: int = 42, modes_per_axis: int = 16, with_b: bool = True
) -> VerificationReport:
    grid = make_grid(4, modes_per_axis)
    reports = [check_prop31(*_random_pair(grid, seed + i, with_b), mode) for i in range(n)]
    if mode.startswith("identity"):
        return _pooled(f"prop31_{mode}_ensemble", "identity", 1e-10, reports)
    return _pooled(f"prop31_{mode}_ensemble", "ratio", None, reports)


def prop31_divfree_control(
    n: int = 3, seed: int = 42, modes_per_axis: int = 16
) -> VerificationReport:
    """Gradient-contaminated velocity must break the pair chains badly."""
    grid = make_grid(4, modes_per_axis)
    samples = []
    for i in range(n):
        u, _ = _random_pair(grid, seed + i, with_b=False)
        phi = synth_random_field(grid, 1, seed + 900_000 + i, decay=3.0)
        contaminated = u + gradient(phi)
        rep = check_prop31(contaminated, None, "identity_22", enforce_divfree=False)
        samples.append(rep.samples[0])
    return VerificationReport(
        "prop31_divfree_negative_control",
        "negative_control",
        tuple(samples),
        threshold=1e-3,
    )


def prop31_aliased_control(seed: int = 42, modes_per_axis: int = 16) -> VerificationReport:
    """Content beyond the standard band must leave a visible residual.

    A field drawn on band M/2 - 1 is sampled on the points the rule sizes for
    the standard band M/3 of the same M: at M = 16 the band-7 cubic aliases
    on 16 points.
    """
    m = modes_per_axis
    wide = synth_random_divfree(Grid(4, m, 2.0 * np.pi, m // 2 - 1), 4, seed, decay=2.0)
    rep = _identity_22_report(_PlaneWorkspace(wide, None, make_grid(4, m).alias_free_modes(3, 0)))
    return VerificationReport(
        "prop31_aliasing_negative_control",
        "negative_control",
        rep.samples,
        threshold=1e-3,
    )


# -- operator-splitting identity ----------------------------------------------


def check_nonlinear_split(u: SpectralField) -> VerificationReport:
    """Split of the convection operator over plane and free axes.

    Checks the pointwise (dealiased coefficient) identity for the operator
    split, and the integrated free-plane pairing against the sum of its two
    partial-range derivative forms.
    """
    g = u.grid
    if g.dim != 4 or u.components != 4:
        raise ValueError("the split check expects a four-component field in dim 4")
    w = _PlaneWorkspace(u, None, g.alias_free_modes(3, 0))
    conv = w.convection(w.us, w.dus)
    conv_plane = np.einsum("i...,ij...->j...", w.us[:2], w.dus[:2])
    conv_free = np.einsum("i...,ij...->j...", w.us[2:], w.dus[2:])
    total = g.analyze(conv)
    plane = g.analyze(conv_plane)
    free = g.analyze(conv_free)
    scale = max(float(np.abs(total).max()), 1e-300)
    pointwise = float(np.abs(total - plane - free).max()) / scale

    lhs = w.quad(np.einsum("j...,j...->...", conv, w.plane_lap_samples(u, (2, 3))))
    split_sum = w.triples((2, 3), (0, 1)) + w.triples((2, 3), (2, 3))
    integral = _rel(lhs, split_sum, _GAUGE_FLOOR * w.gauge())
    worst = max(pointwise, integral)
    return VerificationReport(
        "nonlinear_split",
        "identity",
        (worst,),
        1e-10,
        details=({"pointwise": pointwise, "integral": integral},),
    )


def nonlinear_split_ensemble(
    n: int, seed: int = 9, modes_per_axis: int = 16
) -> VerificationReport:
    grid = make_grid(4, modes_per_axis)
    reports = [
        check_nonlinear_split(synth_random_divfree(grid, 4, seed + i, decay=3.0))
        for i in range(n)
    ]
    return _pooled("nonlinear_split_ensemble", "identity", 1e-10, reports)


# -- dissipative lower-bound identity -----------------------------------------


def check_dissipative_identity(
    u_comp: SpectralField, p: float, m_quad: int | None = None
) -> VerificationReport:
    """-int (Delta u) |u|^{p-2} u against (4(p-1)/p^2) int |grad |u|^{p/2}|^2.

    The right side is evaluated through the chain rule as
    (p-1) int |u|^{p-2} |grad u|^2, which is identical almost everywhere and
    avoids differentiating the cusp of |u|^{p/2}.  For p in {2, 4} both sides
    are degree-p polynomials, exact on ``alias_free_modes(p, 0)``.  Other
    powers are not band-limited and integrate approximately on ``m_quad``
    points (default ``eval_modes``); the residual tightens under refinement.
    Both sides stream the grid slab by slab (``Grid.slabs``), |u|^{p-2} made
    once per slab, and add the slab quadratures in slab order.
    """
    if p <= 1:
        raise ValueError(f"the identity needs p > 1, got {p}")
    if u_comp.components != 1:
        raise ValueError("expected a scalar component field")
    g = u_comp.grid
    exact = p in (2.0, 4.0)
    m = g.alias_free_modes(int(p), 0) if exact else (m_quad or g.eval_modes)
    lhs_slabs, rhs_slabs = [], []
    for rows in g.slabs(m):
        us = sample_part(u_comp, 0, m_eval=m, rows=rows)
        lap = g.sample(-g.k_squared[None] * u_comp.coeffs, m, rows)[0]
        weight = np.abs(us) ** (p - 2.0)
        lhs_slabs.append(g.quadrature(lap * weight * us))
        del us, lap  # freed before the gradient is sampled
        grads = _samples(u_comp, m, range(g.dim), rows)[:, 0]
        rhs_slabs.append(g.quadrature(weight * np.square(grads, out=grads).sum(axis=0)))
        del grads, weight
    lhs = -sum(lhs_slabs)
    rhs = (p - 1.0) * sum(rhs_slabs)
    threshold = 1e-11 if exact else 1e-6
    return VerificationReport(
        f"dissipative_identity_p{p:g}",
        "identity",
        (_rel(lhs, rhs),),
        threshold,
        details=({"lhs": lhs, "rhs": rhs, "m_quad": m},),
    )


def dissipative_ensemble(
    p: float,
    n: int,
    seed: int = 3,
    modes_per_axis: int = 8,
    pad: int = 256,
    dim: int = 2,
    decay: float = 4.0,
) -> VerificationReport:
    """Random-scalar sweep of the dissipative identity.

    The default lives on the 2-torus: fractional powers put quadrature
    accuracy at a premium, and pad 256 brings generic samples below the
    1e-6 bar with two orders to spare.  Its 2048^2 grid streams four
    slabs, about 40 MiB traced.
    The exact cases p in {2, 4} ignore ``pad``, integrate on the rule's
    size, pass at machine precision in any dimension and cover the 4-torus.
    """
    grid = make_grid(dim, modes_per_axis)
    reports = [
        check_dissipative_identity(
            synth_random_field(grid, 1, seed + i, decay=decay), p, m_quad=pad * modes_per_axis
        )
        for i in range(n)
    ]
    name = f"dissipative_identity_p{p:g}_ensemble"
    return _pooled(name, "identity", reports[0].threshold, reports)


def dissipative_analytic_quartic(modes_per_axis: int = 16) -> VerificationReport:
    """u = sin x1 on the 4-torus at p = 4: both sides equal 3 (2 pi)^4 / 8."""
    f = single_mode_state(make_grid(4, modes_per_axis)).u.component(1)
    rep = check_dissipative_identity(f, 4.0)
    lhs = rep.details[0]["lhs"]
    rhs = rep.details[0]["rhs"]
    exact = 3.0 * (2.0 * np.pi) ** 4 / 8.0
    worst = max(_rel(lhs, exact), _rel(rhs, exact))
    return VerificationReport(
        "dissipative_identity_analytic_quartic",
        "identity",
        (worst,),
        1e-6,
        details=({"lhs": lhs, "rhs": rhs, "exact": exact},),
    )


# -- scaling laws -------------------------------------------------------------


def check_scaling(
    u: SpectralField, b: SpectralField | None, lam: int
) -> VerificationReport:
    """Dilation symmetry: the L^2 law and the equivariance of the full RHS.

    ``rescale_field`` realises f -> lam f(lam x) on the torus of side L/lam,
    under which the squared L^2 mass scales by lam^{2-N} and the transport
    plus diffusion right-hand side picks up lam^3 in function values, i.e.
    equals lam^2 times the rescale of the original RHS.
    """
    g = u.grid
    n = g.dim
    b0 = b if b is not None else SpectralField.zeros(g, n)
    state = MhdState(u, b0, 0.0, 1.0, 1.0)
    e0 = energy(u, b0)
    ul = rescale_field(u, lam)
    bl = rescale_field(b0, lam)
    el = energy(ul, bl)
    norm_res = _rel(el, float(lam) ** (2 - n) * e0)

    du, db = mhd_rhs(state)
    state_l = MhdState(ul, bl, 0.0, 1.0, 1.0)
    dul, dbl = mhd_rhs(state_l)
    exp_u = rescale_field(du, lam) * float(lam**2)
    exp_b = rescale_field(db, lam) * float(lam**2)
    scale = max(float(np.abs(exp_u.coeffs).max()), float(np.abs(exp_b.coeffs).max()), 1e-300)
    defect = max(np.abs(dul.coeffs - exp_u.coeffs).max(), np.abs(dbl.coeffs - exp_b.coeffs).max())
    rhs_res = float(defect) / scale
    worst = max(norm_res, rhs_res)
    return VerificationReport(
        f"scaling_lambda{lam}_dim{n}",
        "identity",
        (worst,),
        1e-11,
        details=({"norm_residual": norm_res, "rhs_residual": rhs_res},),
    )


def scaling_report(
    seed: int = 0, lams: tuple[int, ...] = (1, 2, 3), dims: tuple[int, ...] = (2, 4)
) -> VerificationReport:
    reports = []
    for dim in dims:
        grid = make_grid(dim, 16)
        u = synth_random_divfree(grid, dim, seed, decay=3.0)
        b = synth_random_divfree(grid, dim, seed + 1, decay=3.0, amplitude=0.6)
        for lam in lams:
            rep = check_scaling(u, b, lam)
            detail = {**rep.details[0], "dim": dim, "lam": lam}
            reports.append(dataclasses.replace(rep, details=(detail,)))
    return _pooled("scaling_laws", "identity", 1e-11, reports)


# -- L^p pressure balance along a run -----------------------------------------


@dataclass(frozen=True)
class LpBalanceData:
    """Per-record scalar terms of the single-component L^p balance."""

    component: int
    p: float
    q: float
    nu: float
    times: tuple[float, ...]
    lp_power: tuple[float, ...]
    dissipation: tuple[float, ...]
    pressure_term: tuple[float, ...]
    majorant: tuple[float, ...]


def _require_balance_exponents(p: float, q: float) -> None:
    if p <= 2:
        raise ValueError(f"the balance needs p > 2, got {p}")
    lo = 2.0 * p / (p + 1.0)
    if not (lo < q < p):
        raise ValueError(
            f"q must lie in (2p/(p+1), p) = ({lo:g}, {p:g}), got {q}"
        )


def _balance_terms(
    u: SpectralField, pi: SpectralField, component: int, p: float, q: float, nu: float
) -> tuple[float, float, float, float]:
    g = u.grid
    m = g.eval_modes
    us = sample_part(u, component, m_eval=m)
    absu = np.abs(us)
    lp_pow = float(g.quadrature(absu**p))
    grads = _samples(u.component(component), m, range(g.dim))[:, 0]
    diss = nu * (p - 1.0) * float(g.quadrature(absu ** (p - 2.0) * (grads**2).sum(axis=0)))
    dpi = sample_part(pi, 0, component, m)
    press = -float(g.quadrature(dpi * absu ** (p - 2.0) * us))
    # the Holder majorant ||d_i pi||_q ||u_i||_{(p-1)q'}^{p-1}, from the same samples
    pq = (p - 1.0) * (q / (q - 1.0))
    dpi_q = g.quadrature(np.abs(dpi) ** q) ** (1.0 / q)
    u_pq = g.quadrature(absu**pq) ** (1.0 / pq)
    majorant = dpi_q * u_pq ** (p - 1.0)
    return lp_pow, diss, press, majorant


def balance_run_config(
    t_end: float = 0.15,
    modes_per_axis: int = 16,
    nu: float = 0.2,
    dt: float = 1e-3,
    seed: int = 11,
) -> SimConfig:
    """The canonical hydrodynamic run the balance check is calibrated on.

    Every step is recorded: the centered time difference of the L^p mass is
    second order in the record spacing and at coarser cadences its error,
    not the quadrature, dominates the residual.
    """
    return SimConfig(
        dim=4,
        modes_per_axis=modes_per_axis,
        nu=nu,
        eta=nu,
        dt=dt,
        t_end=t_end,
        initial=InitialCondition(
            preset="random_divfree", seed=seed, decay=3.0, amplitude=0.5
        ),
        record_every=1,
    )


def collect_lp_balance(
    config: SimConfig, component: int, p: float, q: float
) -> LpBalanceData:
    """Run the configured simulation, collecting balance terms per record.

    Streams: only scalar series are retained, so arbitrarily long runs fit
    in memory.  The run must be hydrodynamic (no magnetic seed).
    """
    _require_balance_exponents(p, q)
    if config.initial.b_amplitude > 0:
        raise ValueError("the pressure balance is a hydrodynamic statement; run with b = 0")
    if config.snapshot_every not in (0, config.record_every):
        raise ValueError("snapshots, when enabled, must align with every record")
    times: list[float] = []
    series: list[tuple[float, float, float, float]] = []
    cfg = dataclasses.replace(config, snapshot_every=config.record_every)

    def sink(n: int, state: MhdState) -> None:
        pi = pressure_solve(state.u)
        times.append(state.time)
        series.append(_balance_terms(state.u, pi, component, p, q, config.nu))

    result = simulate(cfg, snapshot_sink=sink)
    if result.status != "completed":
        raise RuntimeError(f"balance run did not complete: {result.status}")
    return LpBalanceData(
        component, p, q, config.nu, tuple(times), *map(tuple, zip(*series))
    )


def check_lp_pressure_balance(data: LpBalanceData) -> VerificationReport:
    """Discrete three-term balance with centered time differencing.

    At every interior record the residual of
    (1/p) d/dt ||u_i||_p^p + nu (p-1) int |u_i|^{p-2} |grad u_i|^2 = pressure term
    is reported relative to the largest term, and the Holder majorant must
    dominate the pressure term's magnitude on every sample.
    """
    if len(data.times) < 3:
        raise ValueError("need at least three records for a centered difference")
    t = np.asarray(data.times)
    a = np.asarray(data.lp_power)
    spacing = np.diff(t)
    if spacing.min() <= 0 or _rel(spacing.min(), spacing.max()) > 1e-9:
        raise ValueError("records must be uniformly spaced in time")
    residuals = []
    details = []
    majorant_ok = True
    for k in range(1, len(t) - 1):
        dadt = (a[k + 1] - a[k - 1]) / (t[k + 1] - t[k - 1])
        lhs = dadt / data.p + data.dissipation[k]
        press = data.pressure_term[k]
        scale = max(abs(dadt / data.p), abs(data.dissipation[k]), abs(press), 1e-300)
        residuals.append(abs(lhs - press) / scale)
        dominated = data.majorant[k] >= abs(press) * (1.0 - 1e-12)
        majorant_ok = majorant_ok and dominated
        details.append(
            {
                "t": float(t[k]),
                "ddt_term": dadt / data.p,
                "dissipation": data.dissipation[k],
                "pressure_term": press,
                "majorant": data.majorant[k],
                "dominated": dominated,
            }
        )
    report = VerificationReport(
        f"lp_pressure_balance_p{data.p:g}_q{data.q:g}",
        "identity",
        tuple(residuals),
        1e-4,
        details=tuple(details),
    )
    if not majorant_ok:
        # a failed domination is a failed check regardless of the residuals
        report = VerificationReport(
            report.name, report.kind, report.samples, -1.0, details=report.details
        )
    return report


# -- suites -------------------------------------------------------------------

SUITES = ("identities", "inequalities", "scaling", "all")


def run_suite(suite: str, seed: int = 42, n: int = 20) -> list[VerificationReport]:
    """Assemble the named suite of reports.

    ``identities`` covers every hard-thresholded equality plus the negative
    controls; ``inequalities`` the empirical-constant estimates with their
    refinement stability; ``scaling`` the dilation laws alone.  ``all`` runs
    everything, including the (slow) pressure-balance run.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite '{suite}' (one of {SUITES})")
    if n < 1:
        raise ValueError("ensemble size must be >= 1")
    reports: list[VerificationReport] = []
    if suite in ("identities", "all"):
        reports.append(prop31_ensemble("identity_22", n, seed))
        reports.append(prop31_ensemble("identity_30_line1", n, seed))
        reports.append(nonlinear_split_ensemble(n, seed))
        reports.append(commutator_leibniz_report(min(n, 10), seed))
        reports.append(dissipative_ensemble(2.0, min(n, 10), seed, dim=4))
        reports.append(dissipative_ensemble(3.0, min(n, 10), seed))
        reports.append(dissipative_analytic_quartic())
        reports.append(troisi_dilation_identity())
        reports.append(scaling_report(seed))
        reports.append(prop31_divfree_control(3, seed))
        reports.append(prop31_aliased_control(seed))
    if suite in ("inequalities", "all"):
        grid = make_grid(4, 16)
        fine = make_grid(4, 32)
        base = check_troisi(windowed_ensemble(grid, seed), n)
        refined = check_troisi(windowed_ensemble(fine, seed), n)
        reports.append(base)
        reports.append(_drift_report("troisi_l4_refinement_drift", base, refined))
        cbase = commutator_ensemble(min(n, 25), seed)
        cfine = commutator_ensemble(min(n, 25), seed, modes_per_axis=32)
        reports.append(cbase)
        reports.append(_drift_report("commutator_refinement_drift", cbase, cfine))
        reports.append(prop31_ensemble("bound_20", max(3, n // 4), seed))
        reports.append(prop31_ensemble("bound_21", max(3, n // 4), seed))
        reports.append(elementary_report(10_000, seed))
    if suite == "scaling":
        reports.append(scaling_report(seed))
    if suite == "all":
        data = collect_lp_balance(balance_run_config(), component=2, p=6.5, q=2.0)
        reports.append(check_lp_pressure_balance(data))
    return reports


def suite_passed(reports: Iterable[VerificationReport]) -> bool:
    """True when every thresholded check passes and every control fails right."""
    return all(r.passed for r in reports)
