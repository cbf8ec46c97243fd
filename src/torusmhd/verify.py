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
import functools
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
from .norms import energy, l2_norm, lp_norm, lp_norms
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


def _pooled(name: str, reports: list[VerificationReport]) -> VerificationReport:
    """One report over the samples and details of several, in order, with
    the kind and threshold they share."""
    if not reports:
        raise ValueError("ensemble size must be >= 1")
    ((kind, threshold),) = {(r.kind, r.threshold) for r in reports}
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


def check_troisi(grid: Grid, n: int, seed: int) -> VerificationReport:
    """Anisotropic L^4 inequality: ratio of ||f||_4 to prod_i ||d_i f||^{1/4}
    over the windowed scalars ``windowed_field(grid, seed + i)``, i < n.

    Degenerate samples (any directional derivative essentially zero) are
    excluded and counted.  The reported max is the empirical constant.
    """
    if n < 1:
        raise ValueError("ensemble size must be >= 1")
    ratios: list[float] = []
    details: list[dict] = []
    excluded = 0
    for i in range(n):
        f = windowed_field(grid, seed + i)
        dnorms = [l2_norm(partial_derivative(f, a)) for a in range(grid.dim)]
        top = max(dnorms)
        if top == 0.0 or min(dnorms) <= 1e-13 * top:
            excluded += 1
            continue
        l4 = lp_norm(f, 4, m_eval=grid.alias_free_modes(4, 0))
        denom = 1.0
        for d in dnorms:
            denom *= d**0.25
        ratios.append(l4 / denom)
        details.append({"l4": l4, "derivative_norms": tuple(dnorms)})
    return VerificationReport(
        "troisi_l4", "ratio", tuple(ratios), excluded=excluded, details=tuple(details)
    )


def troisi_dilation_identity() -> VerificationReport:
    """Per-axis dilation leaves the L^4 ratio invariant; verified exactly.

    Uses the separable product structure of a pure bump: every integral on
    both sides factorizes into one-dimensional quadratures, so the change
    of variables can be checked to rounding instead of grid accuracy.  A
    bump of width 0.95 is stretched twofold along one axis, on 4096 points.
    """
    side, width, n_quad = 2.0 * np.pi, 0.95, 4096

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
    dilated = product_ratio((2.0 * width, width, width, width))
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


def band_pair(grid: Grid, seed: int) -> tuple[SpectralField, SpectralField]:
    """A scalar pair whose mode content is fixed independently of the grid.

    Coefficients are drawn on a reference M = 16 layout and embedded
    exactly, so a refinement study evaluates identical functions on both
    grids; any drift in an exactly-computed functional would expose a
    layout bug.
    """
    ref = make_grid(grid.dim, 16, grid.side_length)
    f0 = synth_random_field(ref, 1, seed, decay=4.0)
    g0 = synth_random_field(ref, 1, seed + 10_000, decay=4.0)
    if grid.band_limit < ref.band_limit:
        raise ValueError("target grid band cannot hold the reference content")
    return tuple(SpectralField(grid, ref.embed(f.coeffs, grid)) for f in (f0, g0))


def commutator_ensemble(n: int, seed: int = 0, modes_per_axis: int = 16) -> VerificationReport:
    """The s = 2.5 commutator ratio over n band pairs on the 4-torus."""
    grid = make_grid(4, modes_per_axis)
    reports = [check_commutator(*band_pair(grid, seed + i), 2.5) for i in range(n)]
    return _pooled("commutator_s2.5_ensemble", reports)


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


# the distinct in-plane Hessian entries d_a d_k, k < 2, with a >= k
_HESSIAN_ENTRIES = tuple((a, k) for a in range(4) for k in range(2) if a >= k)


class _PlaneWorkspace:
    """Collocation samples and sums of the Prop. 3.1 checks, on m points.

    Fields are named "u" and "b".  Each sample is taken once, on first use:
    values, first derivatives, and second derivatives d_a d_k f_j or their
    sums (plane Laplacians).  b is always a field, and a zero b (the
    hydrodynamic case) is never sampled: every pairing, triple sum or
    magnitude of a zero field is 0.0.  On ``alias_free_modes(3, 0)`` every
    cubic integrates exactly, and so does a quadratic product analysed back
    onto the band, since 3K + 1 is also ``alias_free_modes(2, K)``.
    """

    def __init__(self, u: SpectralField, b: SpectralField, m: int):
        self.g, self.m = u.grid, m
        self.fields = {"u": u, "b": b}
        self.zero = {name for name, f in self.fields.items() if not np.any(f.coeffs)}
        self._cache: dict[tuple, np.ndarray] = {}

    def _cached(self, key: tuple, make: Callable[[], np.ndarray]) -> np.ndarray:
        if key not in self._cache:
            self._cache[key] = make()
        return self._cache[key]

    def quad(self, values: np.ndarray) -> float:
        return float(self.g.quadrature(values))

    def values(self, f: str) -> np.ndarray:
        """Samples of f, indexed [component]."""
        return self._cached((f,), lambda: _samples(self.fields[f], self.m)[0])

    def grad(self, f: str) -> np.ndarray:
        """Samples of d_a f_j, indexed [a][j]."""
        return self._cached((f, "grad"), lambda: _samples(self.fields[f], self.m, range(4)))

    def _second(self, f: str, j: int, pairs: tuple[tuple[int, int], ...]) -> np.ndarray:
        """Samples of the sum over ``pairs`` (a, k) of d_a d_k f_j."""
        ax = self.g.wave_axes
        sym = -sum(ax[a] * ax[k] for a, k in pairs)
        return self.g.sample(sym[None] * self.fields[f].coeffs[j : j + 1], self.m)[0]

    def second(self, f: str, j: int, *pairs: tuple[int, int]) -> np.ndarray:
        """:meth:`_second`, sampled once."""
        return self._cached((f, j, pairs), lambda: self._second(f, j, pairs))

    def norm(
        self, f: str, order: int, axes: slice = slice(None), comps: slice = slice(None)
    ) -> np.ndarray | float:
        """Pointwise Euclidean norm, over j in ``comps``, of f_j (order 0), of
        d_a f_j for a in ``axes`` (order 1), or over all j of the in-plane
        Hessian d_a d_k f_j, k < 2 (order 2)."""
        if f in self.zero:
            return 0.0
        if order == 0:
            return np.sqrt((self.values(f)[comps] ** 2).sum(axis=0))
        if order == 1:
            return np.sqrt((self.grad(f)[axes, comps] ** 2).sum(axis=(0, 1)))
        # one component's Hessian at a time, d_0 d_1 = d_1 d_0 sampled once
        sq = 0.0
        for j in range(4):
            h = {(a, k): self._second(f, j, ((a, k),)) for a, k in _HESSIAN_ENTRIES}
            sq = sq + sum(h[max(a, k), min(a, k)] ** 2 for a in range(4) for k in range(2))
        return np.sqrt(sq)

    @functools.cached_property
    def gauge(self) -> float:
        """Cubic magnitude anchor for residuals whose sides may vanish."""
        return self.quad((self.norm("u", 1) + self.norm("b", 1)) ** 3)

    def convection(self, v: str, f: str, axes: slice = slice(None)) -> np.ndarray:
        """sum over i in ``axes`` of v_i d_i f_j, indexed [j]."""
        return np.einsum("i...,ij...->j...", self.values(v)[axes], self.grad(f)[axes])

    def pairing(self, v: str, f: str, h: str, plane: tuple[int, int] = (0, 1)) -> float:
        """int ((v . grad) f) . Delta_plane h."""
        if self.zero & {v, f, h}:
            return 0.0
        lap = np.stack([self.second(h, j, *((a, a) for a in plane)) for j in range(4)])
        return self.quad(np.einsum("j...,j...->...", self.convection(v, f), lap))

    def triples(
        self, f: str, g: str, h: str, ks=range(2), is_=range(4), js=range(4)
    ) -> float:
        """-sum over k, i, j of int d_k f_i d_i g_j d_k h_j."""
        if self.zero & {f, g, h}:
            return 0.0
        df, dg, dh = self.grad(f), self.grad(g), self.grad(h)
        return -sum(
            self.quad(df[k, i] * dg[i, j] * dh[k, j]) for k in ks for i in is_ for j in js
        )

    @staticmethod
    def mixed(term: Callable[[str, str, str], float]) -> float:
        """The three mixed velocity/magnetic terms of a pairing or triple sum."""
        return term("u", "b", "b") - term("b", "b", "u") - term("b", "u", "b")


def _pair_chain_residuals(w: _PlaneWorkspace) -> dict[str, float]:
    """The in-plane cubic expansion and its divergence-substitution steps."""
    q = w.quad
    dus = w.grad("u")
    a = dus[0, 0]
    bb = dus[1, 1]
    cd = dus[2, 2] + dus[3, 3]
    anchor = w.gauge

    first_sum = w.triples("u", "u", "u", range(2), range(2), range(2))
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
    d = {(ax, j): w.second("u", j, (ax, j)) for ax in (2, 3) for j in (0, 1)}
    d3ab = d[2, 0] * bb + a * d[2, 1]
    d4ab = d[3, 0] * bb + a * d[3, 1]
    d3sq = 2.0 * a * d[2, 0] + 2.0 * bb * d[2, 1]
    d4sq = 2.0 * a * d[3, 0] + 2.0 * bb * d[3, 1]
    u3, u4 = w.values("u")[2:]
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
    lhs, rhs = w.pairing("u", "u", "u"), w.triples("u", "u", "u")
    chain = _pair_chain_residuals(w)
    worst = max(_rel(lhs, rhs, _GAUGE_FLOOR * w.gauge), *chain.values())
    detail = {"lhs": lhs, "rhs": rhs, **chain}
    return VerificationReport("prop31_identity_22", "identity", (worst,), 1e-10, details=(detail,))


def _bound_values(w: _PlaneWorkspace, which: str) -> tuple[float, float]:
    """The in-plane pairing and the majorant of bound 20 or 21."""
    grad_u, grad_b = w.norm("u", 1), w.norm("b", 1)
    if which == "bound_20":
        g2u, g2b = w.norm("u", 2), w.norm("b", 2)
        free = w.norm("u", 0, comps=slice(2, 3)) + w.norm("u", 0, comps=slice(3, 4))
        rhs = w.quad(free * grad_u * g2u)
        rhs += w.quad(w.norm("b", 0) * (grad_u + grad_b) * (g2u + g2b))
    else:
        free = w.norm("u", 1, comps=slice(2, 3)) + w.norm("u", 1, comps=slice(3, 4))
        plane = slice(0, 2)
        rhs = w.quad(free * w.norm("u", 1, axes=plane) * grad_u)
        rhs += w.quad(grad_b * w.norm("b", 1, axes=plane) * grad_u)
    return w.pairing("u", "u", "u") + w.mixed(w.pairing), rhs


def check_prop31(u: SpectralField, b: SpectralField, mode: str) -> VerificationReport:
    """Exact decomposition of the in-plane Laplacian convection pairing.

    ``identity_22`` checks the integrated-by-parts cubic expansion together
    with every divergence-substitution step of the in-plane pair chain;
    ``identity_30_line1`` the analogous expansion of the three mixed
    velocity/magnetic terms; ``bound_20`` and ``bound_21`` evaluate both
    sides of the two final estimates and report the magnitude ratio
    |LHS|/RHS (their constants are empirical).

    The identities are cubic and exact on ``alias_free_modes(3, 0)``; the
    bounds' majorants are not polynomials and keep ``eval_modes``.  Both
    fields must be divergence-free; the negative controls, which show the
    identities consume incompressibility, build their workspace directly.
    """
    if mode not in PROP31_MODES:
        raise ValueError(f"mode must be one of {PROP31_MODES}, got '{mode}'")
    g = u.grid
    if g.dim != 4:
        raise ValueError("the decomposition is specific to dimension 4")
    if u.components != 4 or b.components != 4:
        raise ValueError("u and b must have four components")
    check_divfree(u, "u")
    check_divfree(b, "b")
    exact = mode.startswith("identity")
    w = _PlaneWorkspace(u, b, g.alias_free_modes(3, 0) if exact else g.eval_modes)

    if mode == "identity_22":
        return _identity_22_report(w)
    if mode == "identity_30_line1":
        lhs, rhs = w.mixed(w.pairing), w.mixed(w.triples)
        res, detail = _rel(lhs, rhs, _GAUGE_FLOOR * w.gauge), {"lhs": lhs, "rhs": rhs}
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
        ratio = 0.0 if abs(lhs) <= 1e-11 * max(w.gauge, 1.0) else math.inf
    return VerificationReport(
        f"prop31_{mode}", "ratio", (ratio,), details=({"lhs": lhs, "rhs": rhs},)
    )


def prop31_ensemble(mode: str, n: int, seed: int = 42) -> VerificationReport:
    """``check_prop31`` over n random divergence-free pairs on the M = 16 grid."""
    grid = make_grid(4, 16)
    reports = [
        check_prop31(
            synth_random_divfree(grid, 4, seed + i, decay=3.0),
            synth_random_divfree(grid, 4, seed + i + 500_000, decay=3.0, amplitude=0.7),
            mode,
        )
        for i in range(n)
    ]
    return _pooled(f"prop31_{mode}_ensemble", reports)


def prop31_divfree_control(
    n: int = 3, seed: int = 42, modes_per_axis: int = 16
) -> VerificationReport:
    """Gradient-contaminated velocity must break the pair chains badly."""
    grid = make_grid(4, modes_per_axis)
    zero = SpectralField.zeros(grid, 4)
    samples = []
    for i in range(n):
        u = synth_random_divfree(grid, 4, seed + i, decay=3.0)
        phi = synth_random_field(grid, 1, seed + 900_000 + i, decay=3.0)
        w = _PlaneWorkspace(u + gradient(phi), zero, grid.alias_free_modes(3, 0))
        samples.append(_identity_22_report(w).samples[0])
    return VerificationReport(
        "prop31_divfree_negative_control", "negative_control", tuple(samples), threshold=1e-3
    )


def prop31_aliased_control(seed: int = 42, modes_per_axis: int = 16) -> VerificationReport:
    """Content beyond the standard band must leave a visible residual.

    A field drawn on band M/2 - 1 is sampled on the points the rule sizes for
    the standard band M/3 of the same M: at M = 16 the band-7 cubic aliases
    on 16 points.
    """
    m = modes_per_axis
    wide_grid = Grid(4, m, 2.0 * np.pi, m // 2 - 1)
    wide = synth_random_divfree(wide_grid, 4, seed, decay=2.0)
    zero = SpectralField.zeros(wide_grid, 4)
    rep = _identity_22_report(_PlaneWorkspace(wide, zero, make_grid(4, m).alias_free_modes(3, 0)))
    return VerificationReport(
        "prop31_aliasing_negative_control", "negative_control", rep.samples, threshold=1e-3
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
    w = _PlaneWorkspace(u, SpectralField.zeros(g, 4), g.alias_free_modes(3, 0))
    total, plane, free = (
        g.analyze(w.convection("u", "u", axes))
        for axes in (slice(None), slice(0, 2), slice(2, 4))
    )
    scale = max(float(np.abs(total).max()), 1e-300)
    pointwise = float(np.abs(total - plane - free).max()) / scale

    lhs = w.pairing("u", "u", "u", plane=(2, 3))
    split_sum = sum(w.triples("u", "u", "u", (2, 3), is_) for is_ in ((0, 1), (2, 3)))
    integral = _rel(lhs, split_sum, _GAUGE_FLOOR * w.gauge)
    detail = {"pointwise": pointwise, "integral": integral}
    return VerificationReport(
        "nonlinear_split", "identity", (max(pointwise, integral),), 1e-10, details=(detail,)
    )


def nonlinear_split_ensemble(n: int, seed: int = 9) -> VerificationReport:
    grid = make_grid(4, 16)
    reports = [
        check_nonlinear_split(synth_random_divfree(grid, 4, seed + i, decay=3.0))
        for i in range(n)
    ]
    return _pooled("nonlinear_split_ensemble", reports)


# -- dissipative lower-bound identity -----------------------------------------


def _slab_integrals(u: SpectralField, p: float, m: int, g_hat: np.ndarray) -> tuple[float, float]:
    """(int g |u|^{p-2} u, int |u|^{p-2} |grad u|^2) on m points for a scalar u
    and the scalar g of band coefficients ``g_hat``, streamed slab by slab
    (``Grid.slabs``): |u|^{p-2} is made once per slab and the slab
    quadratures are added in slab order.  A slab holds at most five arrays
    for the first (u, g, |u|^{p-2} and two products) and dim + 3 for the
    second (|u|^{p-2}, dim gradient rows, one derivative and its half layout).
    """
    grid = u.grid
    g_slabs, grad_slabs = [], []
    for rows in grid.slabs(m, max(5, grid.dim + 3)):
        us = sample_part(u, 0, m_eval=m, rows=rows)
        g_samples = grid.sample(g_hat, m, rows)[0]
        weight = np.abs(us) ** (p - 2.0)
        g_slabs.append(grid.quadrature(g_samples * weight * us))
        del us, g_samples  # freed before the gradient is sampled
        grads = _samples(u, m, range(grid.dim), rows)[:, 0]
        grad_slabs.append(grid.quadrature(weight * np.square(grads, out=grads).sum(axis=0)))
        del grads, weight
    return sum(g_slabs), sum(grad_slabs)


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
    Both sides stream the grid in slabs (:func:`_slab_integrals`, g = Delta u).
    """
    if p <= 1:
        raise ValueError(f"the identity needs p > 1, got {p}")
    if u_comp.components != 1:
        raise ValueError("expected a scalar component field")
    g = u_comp.grid
    exact = p in (2.0, 4.0)
    m = g.alias_free_modes(int(p), 0) if exact else (m_quad or g.eval_modes)
    lap_side, grad_side = _slab_integrals(u_comp, p, m, -g.k_squared[None] * u_comp.coeffs)
    lhs, rhs = -lap_side, (p - 1.0) * grad_side
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
) -> VerificationReport:
    """Random-scalar sweep of the dissipative identity.

    The default lives on the 2-torus: fractional powers put quadrature
    accuracy at a premium, and pad 256 brings generic samples below the
    1e-6 bar with two orders to spare.  Its 2048^2 grid streams six
    slabs, about 27 MiB traced.
    The exact cases p in {2, 4} ignore ``pad``, integrate on the rule's
    size, pass at machine precision in any dimension and cover the 4-torus.
    """
    grid = make_grid(dim, modes_per_axis)
    reports = [
        check_dissipative_identity(
            synth_random_field(grid, 1, seed + i, decay=4.0), p, m_quad=pad * modes_per_axis
        )
        for i in range(n)
    ]
    return _pooled(f"dissipative_identity_p{p:g}_ensemble", reports)


def dissipative_analytic_quartic() -> VerificationReport:
    """u = sin x1 on the 4-torus (M = 16) at p = 4: both sides equal 3 (2 pi)^4 / 8."""
    f = single_mode_state(make_grid(4, 16)).u.component(1)
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


def check_scaling(u: SpectralField, b: SpectralField, lam: int) -> VerificationReport:
    """Dilation symmetry: the L^2 law and the equivariance of the full RHS.

    ``rescale_field`` realises f -> lam f(lam x) on the torus of side L/lam,
    under which the squared L^2 mass scales by lam^{2-N} and the transport
    plus diffusion right-hand side picks up lam^3 in function values, i.e.
    equals lam^2 times the rescale of the original RHS.
    """
    n = u.grid.dim
    state = MhdState(u, b, 0.0, 1.0, 1.0)
    e0 = energy(u, b)
    ul = rescale_field(u, lam)
    bl = rescale_field(b, lam)
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


def scaling_report(seed: int = 0) -> VerificationReport:
    """``check_scaling`` at lam = 1, 2, 3 on random MHD pairs in dims 2 and 4."""
    reports = []
    for dim in (2, 4):
        grid = make_grid(dim, 16)
        u = synth_random_divfree(grid, dim, seed, decay=3.0)
        b = synth_random_divfree(grid, dim, seed + 1, decay=3.0, amplitude=0.6)
        for lam in (1, 2, 3):
            rep = check_scaling(u, b, lam)
            detail = {**rep.details[0], "dim": dim, "lam": lam}
            reports.append(dataclasses.replace(rep, details=(detail,)))
    return _pooled("scaling_laws", reports)


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
    """||u_i||_p^p, the dissipation, the pressure term and its Holder majorant
    ||d_i pi||_q ||u_i||_{(p-1)q'}^{p-1}: one L^p pass and one slab pass."""
    g = u.grid
    pq = (p - 1.0) * (q / (q - 1.0))
    request = {"u": ([("u", None, component)], (p, pq)), "dpi": ([("pi", component, 0)], (q,))}
    norms = lp_norms({"u": u, "pi": pi}, request)
    dpi_hat = pi.coeffs * (1j * g.wave_axes[component])
    pressure, grad_side = _slab_integrals(u.component(component), p, g.eval_modes, dpi_hat)
    majorant = norms["dpi", q] * norms["u", pq] ** (p - 1.0)
    return norms["u", p] ** p, nu * (p - 1.0) * grad_side, -pressure, majorant


def balance_run_config(t_end: float = 0.15, modes_per_axis: int = 16) -> SimConfig:
    """The canonical hydrodynamic run the balance check is calibrated on:
    nu = 0.2, dt = 1e-3, random divergence-free seed 11.

    Every step is recorded: the centered time difference of the L^p mass is
    second order in the record spacing and at coarser cadences its error,
    not the quadrature, dominates the residual.
    """
    return SimConfig(
        dim=4,
        modes_per_axis=modes_per_axis,
        nu=0.2,
        eta=0.2,
        dt=1e-3,
        t_end=t_end,
        initial=InitialCondition(preset="random_divfree", seed=11, decay=3.0, amplitude=0.5),
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
        pi = pressure_solve(state.u, state.b)
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
    dominate the pressure term's magnitude: an undominated record's sample
    is inf, its residual kept in the details.
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
    for k in range(1, len(t) - 1):
        dadt = (a[k + 1] - a[k - 1]) / (t[k + 1] - t[k - 1])
        lhs = dadt / data.p + data.dissipation[k]
        press = data.pressure_term[k]
        scale = max(abs(dadt / data.p), abs(data.dissipation[k]), abs(press), 1e-300)
        residual = abs(lhs - press) / scale
        dominated = data.majorant[k] >= abs(press) * (1.0 - 1e-12)
        residuals.append(residual if dominated else math.inf)
        details.append(
            {
                "t": float(t[k]),
                "ddt_term": dadt / data.p,
                "dissipation": data.dissipation[k],
                "pressure_term": press,
                "majorant": data.majorant[k],
                "residual": residual,
                "dominated": dominated,
            }
        )
    return VerificationReport(
        f"lp_pressure_balance_p{data.p:g}_q{data.q:g}",
        "identity",
        tuple(residuals),
        1e-4,
        details=tuple(details),
    )


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
        base = check_troisi(grid, n, seed)
        refined = check_troisi(fine, n, seed)
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
