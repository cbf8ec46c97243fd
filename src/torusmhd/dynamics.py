"""Incompressible MHD dynamics on the torus.

The momentum and induction equations are advanced in coefficient space.
Quadratic products follow the 3/2 rule: u and b are sampled together on the
smallest even fast FFT size above 3K (``Grid.alias_free_modes(2, K)``), where
every product of two K-band fields is exact on the retained band.  One loop
forms the stress u_i u_j - b_i b_j, shared by the momentum term and
:func:`pressure_solve`, then the antisymmetric induction u_i b_j - b_i u_j,
and analyses them dim at a time.  The pressure is eliminated per mode by the
Leray projection, and diffusion is integrated exactly by the integrating
factor inside the RK4 stages.  A scalar quadrature of the dissipation rate
rides along the same stages so the energy ledger (the table's ``defect``)
closes to the integrator's own order.  Its endpoint nonlinearity, cached on
the new state, is the next step's first stage ("first same as last", Dormand
& Prince 1980): a viscous run of N steps makes 4N + 1 nonlinear evaluations,
an inviscid one 4N.

Time-step guidance: diffusion costs nothing (it is exact), so stability is
set by advection.  A conservative bound is dt <= 1.5 / (kappa_max * V_max)
with kappa_max = 2*pi*K/L and V_max the collocation maximum of |u| + |b|;
see :func:`advective_dt_bound`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dfield
from functools import cached_property
from typing import Callable

import numpy as np

from .criteria import PRESSURE_TAGS, SPLIT_TAGS, CriterionSpec, bootstrap_columns, monitored_norms
from .field import SpectralField, check_divfree, _leray_raw, synth_random_divfree
from .grid import Grid, make_grid
from .norms import accumulate, energy, lp_norm, wxyz

__all__ = [
    "MhdState",
    "SimConfig",
    "InitialCondition",
    "SimResult",
    "Recorder",
    "DivergedError",
    "pressure_solve",
    "mhd_rhs",
    "step_ifrk4",
    "simulate",
    "compute_record",
    "initial_state",
    "taylor_green_state",
    "single_mode_state",
    "advective_dt_bound",
]


class DivergedError(RuntimeError):
    """The integration produced non-finite coefficients."""


@dataclass(frozen=True)
class MhdState:
    """Velocity/magnetic pair at one instant, plus the diffusivities.

    Both fields carry one component per axis, share the grid, and must be
    divergence-free to rounding.  NSE runs simply carry b identically zero.
    Nothing writes into a state's arrays once it is built (the presets fill
    theirs first), which is what lets :attr:`nonlinearity` be cached.
    """

    u: SpectralField
    b: SpectralField
    time: float = 0.0
    nu: float = 1.0
    eta: float = 1.0

    def __post_init__(self):
        g = self.u.grid
        if self.b.grid != g:
            raise ValueError("u and b must share a grid")
        for name, f in (("u", self.u), ("b", self.b)):
            if f.components != g.dim:
                raise ValueError(f"{name} needs {g.dim} components, has {f.components}")
            if not np.all(np.isfinite(f.coeffs)):
                raise ValueError(f"{name} has non-finite coefficients")
            check_divfree(f, name)
        if not (0 <= self.nu < math.inf and 0 <= self.eta < math.inf):
            raise ValueError("diffusivities must be finite and non-negative")

    @property
    def grid(self) -> Grid:
        return self.u.grid

    @property
    def has_b(self) -> bool:
        return bool(np.any(self.b.coeffs))

    @cached_property
    def nonlinearity(self) -> tuple[np.ndarray, np.ndarray | None]:
        """The projected (N_u, N_b), N_b None without b, computed on first use
        (overflowing quietly) and kept: a step's last stage is the next's first."""
        with np.errstate(over="ignore", invalid="ignore"):
            return _nonlinear(self.grid, self.u.coeffs, self.b.coeffs if self.has_b else None)


# -- nonlinear terms ----------------------------------------------------------


def _product_samples(
    g: Grid, u: np.ndarray, b: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray | None]:
    m = g.alias_free_modes(2, g.band_limit)
    both = g.sample(u if b is None else np.concatenate((u, b)), m)
    return both[: g.dim], (both[g.dim :] if b is not None else None)


def _products(g: Grid, us: np.ndarray, bs: np.ndarray | None, induction: bool = True):
    """(kind, i, j, spectrum) of S_ij = u_i u_j - b_i b_j, i <= j, then (with b and
    ``induction``) of A_ij = u_i b_j - b_i u_j, i < j, analysed dim at a time."""
    n = g.dim
    pairs = [("S", i, j) for i in range(n) for j in range(i, n)]
    if bs is not None and induction:
        pairs += [("A", i, j) for i in range(n) for j in range(i + 1, n)]
    buf = np.empty((n,) + us.shape[1:])
    for chunk in (pairs[start : start + n] for start in range(0, len(pairs), n)):
        for out, (kind, i, j) in zip(buf, chunk):
            x, y = (bs, us) if kind == "A" else (us, bs)
            np.multiply(us[i], x[j], out=out)
            if bs is not None:
                out -= bs[i] * y[j]
        for (kind, i, j), spec in zip(chunk, g.analyze(buf[: len(chunk)])):
            yield kind, i, j, spec


def _nonlinear(
    g: Grid, u: np.ndarray, b: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Projected -d_i (u_i u_j - b_i b_j) and -d_i (u_i b_j - b_i u_j)."""
    us, bs = _product_samples(g, u, b)
    k = g.wave_axes
    du = np.zeros((g.dim,) + g.shape, dtype=complex)
    db = np.zeros_like(du) if b is not None else None
    for kind, i, j, s in _products(g, us, bs):
        if kind == "S":
            du[j] -= 1j * k[i] * s
            if i != j:
                du[i] -= 1j * k[j] * s
        else:
            # the induction tensor is antisymmetric: A_ji = -A_ij
            db[j] -= 1j * k[i] * s
            db[i] += 1j * k[j] * s
    du = _leray_raw(g, du)
    if db is not None:
        db = _leray_raw(g, db)
    return du, db


def dissipation_rate(state: MhdState) -> float:
    """Instantaneous 2(nu ||grad u||^2 + eta ||grad b||^2), exact via Parseval."""
    power = state.nu * np.abs(state.u.coeffs) ** 2 + state.eta * np.abs(state.b.coeffs) ** 2
    return 2.0 * state.grid.parseval_sum(state.grid.k_squared * power)


# Above this the per-mode decay over one step is so close to complete that
# the slow variable is frozen at its initial value instead of interpolated;
# it also keeps the unwinding exponentials representable.
_FITTED_Z_CUT = 40.0


def _hermite_weights(z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Quadrature weights for ∫_0^1 e^{-z τ} q(τ) dτ with q cubic Hermite.

    Returns the weights of q(1) - q(0), q'(0) and q'(1); the constant part
    of q is integrated by the caller against the stepper's own decay factor.
    Built from the moments mu_j = ∫ τ^j e^{-z τ} dτ; at z = 0 the weights
    reduce to the derivative-corrected trapezoid (1/2, 1/12, -1/12).
    """
    small = z < 0.5
    zs = np.where(small, 1.0, z)
    ez = np.exp(-zs)
    mu1 = (1.0 - (1.0 + zs) * ez) / zs**2
    mu2 = (2.0 - (2.0 + zs * (2.0 + zs)) * ez) / zs**3
    mu3 = (3.0 * mu2 - ez) / zs
    # series mu_j = sum_n (-z)^n / (n! (n+j+1)); 18 terms reach roundoff at z=0.5
    s1 = np.zeros_like(z)
    s2 = np.zeros_like(z)
    s3 = np.zeros_like(z)
    term = np.ones_like(z)
    for n in range(18):
        s1 += term / (n + 2)
        s2 += term / (n + 3)
        s3 += term / (n + 4)
        term *= -z / (n + 1)
    mu1 = np.where(small, s1, mu1)
    mu2 = np.where(small, s2, mu2)
    mu3 = np.where(small, s3, mu3)
    w1 = 3.0 * mu2 - 2.0 * mu3
    wp0 = mu3 - 2.0 * mu2 + mu1
    wp1 = mu3 - mu2
    return w1, wp0, wp1


def _dissipation_increment(
    g: Grid,
    dt: float,
    diff: float,
    f0: np.ndarray,
    stages: tuple[np.ndarray, np.ndarray, np.ndarray],
    n_end: np.ndarray,
    e: np.ndarray,
    weights: tuple[np.ndarray, np.ndarray, np.ndarray] | None,
) -> float:
    """∫ 2 diff ||grad field||^2 over one step, from slow-variable data.

    The slow variable is the integrating-factor variable
    v(s) = e^{+diff k^2 s} field(s): ``f0`` is the field at the step start,
    ``stages`` the RK4 nonlinearities (n1, n2 + n3, n4), ``n_end`` that of
    the completed step, ``e`` the rounded half-step decay the stepper applies,
    and ``weights`` the :func:`_hermite_weights` of z = 2 diff dt k^2, shared
    by u and b when nu = eta.  The d0 term is anchored on the squared per-step
    decay assembled from ``e`` instead of a fresh exp(-z), which keeps the
    pure-diffusion part of the ledger consistent with the state update to
    rounding noise; the cubic Hermite correction then carries only the O(dt)
    nonlinear modulation, where weight roundoff is harmless.
    """
    if diff == 0.0:
        return 0.0
    # unwinding exponentials for the slow-variable samples; modes past the
    # fitted cutoff never use them, so the exponent can be clamped
    ei = np.exp(np.minimum(diff * g.k_squared[None] * (dt / 2), _FITTED_Z_CUT / 2))
    n1, n23, n4 = stages
    # the unwound endpoint is assembled from the stage terms directly so no
    # e^{+x} e^{-x} round trip ever touches the O(1) f0 part
    v1 = f0 + (dt / 6) * (n1 + 2.0 * (ei * n23) + ei * (ei * n4))
    # one-sided derivatives of |v|^2 at the step ends, in units of the step
    d0p = 2.0 * dt * np.sum((f0.conj() * n1).real, axis=0)
    d1p = 2.0 * dt * np.sum((v1.conj() * (ei * (ei * n_end))).real, axis=0)
    d0, d1 = _mode_power(f0), _mode_power(v1)
    decay = ((e * e) * (e * e))[0]
    z = (2.0 * diff * dt) * g.k_squared
    w1, wp0, wp1 = weights
    corr = z * ((d1 - d0) * w1 + d0p * wp0 + d1p * wp1)
    # past the cutoff the clamped unwinding makes the end samples
    # meaningless, so the slow factor is frozen at its start value
    tot = d0 * (1.0 - decay) + np.where(z > _FITTED_Z_CUT, 0.0, corr)
    return g.parseval_sum(tot)


def _mode_power(coeffs: np.ndarray) -> np.ndarray:
    # sum over components of |c|^2, leaving the mode axes
    return np.sum(coeffs.real**2 + coeffs.imag**2, axis=0)


# -- public operators ---------------------------------------------------------


def pressure_solve(u: SpectralField, b: SpectralField) -> SpectralField:
    """Mean-zero pressure balancing the momentum nonlinearity.

    Solves Delta pi = -d_i d_j (u_i u_j - b_i b_j) per mode from exactly
    dealiased products, returning the band-limited scalar field.  A zero b
    is not sampled.
    """
    g = u.grid
    if u.components != g.dim:
        raise ValueError("pressure_solve needs one velocity component per axis")
    bc = b.coeffs if np.any(b.coeffs) else None
    us, bs = _product_samples(g, u.coeffs, bc)
    pi_hat = np.zeros(g.shape, dtype=complex)
    for _kind, i, j, s in _products(g, us, bs, induction=False):
        w = g.wave_axes[i] * g.wave_axes[j] / g.k_squared_safe
        pi_hat -= (w if i == j else 2.0 * w) * s
    pi_hat[(0,) * g.dim] = 0.0
    return SpectralField(g, pi_hat[None])


def mhd_rhs(state: MhdState) -> tuple[SpectralField, SpectralField]:
    """Full right-hand side (nonlinear transport + diffusion), projected."""
    g = state.grid
    du, db = state.nonlinearity
    k2 = g.k_squared[None]
    du = du - state.nu * k2 * state.u.coeffs
    db = (0.0 if db is None else db) - state.eta * k2 * state.b.coeffs
    return SpectralField(g, du), SpectralField(g, db)


def step_ifrk4(state: MhdState, dt: float) -> tuple[MhdState, float]:
    """One integrating-factor RK4 step.

    Diffusion is applied exactly through the integrating factor; the RK4
    stages see only the nonlinear terms, the first of them the state's cached
    :attr:`MhdState.nonlinearity`; stage states die once evaluated, and n2, n3
    live on only as their sum.  Returns the new state, validated once at its
    time :func:`_next_time`, and the dissipation integral over the step,
    quadratured per mode from the end values and slopes of the slow variable
    (the end slope is the new state's nonlinearity, the next step's first
    stage) so the energy ledger closes below the integrator's own residual.
    Raises :class:`DivergedError` when the step produces non-finite values.
    """
    if not (dt > 0):
        raise ValueError(f"dt must be positive, got {dt}")
    g = state.grid
    u0, b0 = state.u.coeffs, state.b.coeffs
    has_b = state.has_b
    nu, eta = state.nu, state.eta
    k2 = g.k_squared[None]
    h = dt / 2
    eu = np.exp(-nu * k2 * h)
    eb = np.exp(-eta * k2 * h)

    # a blowup ends as DivergedError below, so the overflow on the way there
    # is expected and not worth a warning per stage
    with np.errstate(over="ignore", invalid="ignore"):
        n1u, n1b = state.nonlinearity
        n2u, n2b = _nonlinear(g, eu * (u0 + h * n1u), eb * (b0 + h * n1b) if has_b else None)
        n3u, n3b = _nonlinear(g, eu * u0 + h * n2u, eb * b0 + h * n2b if has_b else None)
        u4 = eu * (eu * u0 + dt * n3u)
        b4 = eb * (eb * b0 + dt * n3b) if has_b else None
        n23u = np.add(n2u, n3u, out=n2u)
        n23b = np.add(n2b, n3b, out=n2b) if has_b else None
        del n2u, n2b, n3u, n3b
        n4u, n4b = _nonlinear(g, u4, b4)
        del u4, b4
        u_new = eu * (eu * u0 + (dt / 6) * (eu * n1u + 2 * n23u)) + (dt / 6) * n4u
        b_new = b0
        if has_b:
            b_new = eb * (eb * b0 + (dt / 6) * (eb * n1b + 2 * n23b)) + (dt / 6) * n4b

        t_new = _next_time(state.time, dt)
        if not (np.all(np.isfinite(u_new)) and np.all(np.isfinite(b_new))):
            raise DivergedError(f"non-finite coefficients at t={t_new:.6g}")
        new = MhdState(SpectralField(g, u_new), SpectralField(g, b_new), t_new, nu, eta)

        dinc = 0.0
        if nu != 0.0 or eta != 0.0:
            nnu, nnb = new.nonlinearity
            rates = {nu, eta} if has_b else {nu}
            weights = {d: _hermite_weights((2.0 * d * dt) * g.k_squared) for d in rates if d}
            dinc = _dissipation_increment(g, dt, nu, u0, (n1u, n23u, n4u), nnu, eu, weights.get(nu))
            if has_b:
                # a b that decayed to exactly zero leaves the new state without N_b
                nnb = 0.0 if nnb is None else nnb
                dinc += _dissipation_increment(
                    g, dt, eta, b0, (n1b, n23b, n4b), nnb, eb, weights.get(eta)
                )
    return new, dinc


def _next_time(t: float, dt: float) -> float:
    """t + dt, taken as (n + 1) * dt when t is the whole multiple n * dt, so
    a clock started on the dt lattice stays on it bit for bit."""
    n = round(t / dt) if math.isfinite(t / dt) else 0
    return (n + 1) * dt if n * dt == t else t + dt


def advective_dt_bound(state: MhdState) -> float:
    """Conservative stable step for the explicit advective stage."""
    g = state.grid
    kmax = 2 * np.pi * g.band_limit / g.side_length
    vmax = lp_norm(state.u, math.inf)
    if state.has_b:
        vmax += lp_norm(state.b, math.inf)
    return 1.5 / max(kmax * vmax, 1e-30)


# -- configuration and driver -------------------------------------------------


@dataclass(frozen=True)
class InitialCondition:
    """Initial-state recipe for :func:`simulate`."""

    preset: str = "taylor_green"
    seed: int = 0
    decay: float = 3.0
    amplitude: float = 1.0
    b_amplitude: float = 0.0

    _PRESETS = ("zero", "taylor_green", "single_mode", "random_divfree")

    def __post_init__(self):
        if self.preset not in self._PRESETS:
            raise ValueError(
                f"unknown preset '{self.preset}' (one of {self._PRESETS})"
            )
        if not (0 < self.decay < math.inf):
            raise ValueError(f"spectral decay must be positive and finite, got {self.decay}")
        if not all(map(math.isfinite, (self.amplitude, self.b_amplitude))):
            raise ValueError("amplitude and b_amplitude must be finite")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class SimConfig:
    """Complete description of one simulation.

    ``t_end`` is a whole number of ``dt`` steps; ``record_every`` and
    ``snapshot_every`` are step counts, and snapshots must align with records
    so a replay sees the same sample times.  ``free_axes`` (1-based) picks the
    two monitored component axes; the anisotropic plane is the other two.
    """

    dim: int = 4
    modes_per_axis: int = 16
    side_length: float = 2.0 * np.pi
    nu: float = 1.0
    eta: float = 1.0
    dt: float = 1e-3
    t_end: float = 0.1
    initial: InitialCondition = dfield(default_factory=InitialCondition)
    record_every: int = 1
    snapshot_every: int = 0
    criteria: tuple[CriterionSpec, ...] = ()
    monitor_bootstrap: bool = False
    free_axes: tuple[int, int] = (3, 4)

    def __post_init__(self):
        # the grid's own checks, so a bad grid is refused before any run
        self.make_grid()
        for name in ("dt", "t_end", "nu", "eta"):
            v, positive = getattr(self, name), name in ("dt", "t_end")
            if not (0 < v < math.inf if positive else 0 <= v < math.inf):
                sign = "positive" if positive else "non-negative"
                raise ValueError(f"{name} must be {sign} and finite, got {v}")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")
        if self.snapshot_every < 0:
            raise ValueError("snapshot_every must be >= 0")
        if self.snapshot_every and self.snapshot_every % self.record_every:
            raise ValueError(
                "snapshot_every must be a multiple of record_every so replays "
                "see record-aligned states"
            )
        labels = [s.label for s in self.criteria]
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate criterion theorems in one run")
        if self.dim != 4:
            for s in self.criteria:
                for comp, _ in s.pairs:
                    if comp in SPLIT_TAGS:
                        raise ValueError(
                            f"criterion {s.label} monitors '{comp}', which needs "
                            f"the two-component split of dim 4 (dim is {self.dim})"
                        )
        for s in self.criteria:
            if s.classical:
                s.check_admissible(self.dim)
        fa = tuple(self.free_axes)
        # the two-axis split only exists in dim 4; lower dims keep the default
        if self.dim != 4 and fa != (3, 4):
            raise ValueError(f"free_axes is the dim-4 split; dim {self.dim} keeps (3, 4), got {fa}")
        if len(fa) != 2 or len(set(fa)) != 2 or not all(1 <= a <= 4 for a in fa):
            raise ValueError(f"free_axes must be two distinct 1-based axes <= 4, got {fa}")
        if self.n_steps < 1:
            raise ValueError("t_end must cover at least one step")
        if abs(self.n_steps * self.dt - self.t_end) > 1e-9 * self.t_end:
            raise ValueError(
                f"t_end {self.t_end} is not a whole number of steps of dt {self.dt}"
            )

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))

    @property
    def free_axes0(self) -> tuple[int, int]:
        return (self.free_axes[0] - 1, self.free_axes[1] - 1)

    @property
    def columns(self) -> tuple[tuple[str, str, float, str, float], ...]:
        """Every (norm column, quantity, p, accumulator column, r) of a record:
        each criterion's :attr:`~torusmhd.criteria.CriterionSpec.columns` in
        turn, then the bootstrap's."""
        boot = bootstrap_columns(self.dim) if self.monitor_bootstrap else ()
        return tuple(c for s in self.criteria for c in s.columns) + boot

    def make_grid(self) -> Grid:
        return make_grid(self.dim, self.modes_per_axis, self.side_length)


def taylor_green_state(
    grid: Grid, nu: float = 1.0, eta: float = 1.0, amplitude: float = 1.0
) -> MhdState:
    """Planar vortex array in the first two axes; exactly pressure-balanced
    so the nonlinearity is a pure gradient and the flow decays by diffusion."""
    # u1 = cos(k x1) sin(k x2), u2 = -sin(k x1) cos(k x2) with k = 2*pi/L: the
    # modes (s1, s2) = (+-1, +-1), written on the band; in dim 2, s2 is k_last,
    # so the s2 = -1 modes are the conjugates of stored ones
    coeffs = np.zeros((grid.dim,) + grid.shape, dtype=complex)
    q = amplitude / 4.0
    for s1 in (1, -1):
        for s2 in (1, -1) if grid.dim > 2 else (1,):
            at = (s1, s2) + (0,) * (grid.dim - 2)
            coeffs[(0,) + at] = -1j * q * s2
            coeffs[(1,) + at] = 1j * q * s1
    u = SpectralField(grid, coeffs)
    return MhdState(u, SpectralField.zeros(grid, grid.dim), 0.0, nu, eta)


def single_mode_state(
    grid: Grid, nu: float = 1.0, eta: float = 1.0, amplitude: float = 1.0
) -> MhdState:
    """u = amplitude * sin(2*pi*x1/L) e2: self-advection vanishes, so the
    exact evolution is pure diffusive decay of the single mode."""
    coeffs = np.zeros((grid.dim,) + grid.shape, dtype=complex)
    sel1 = (1, 1) + (0,) * (grid.dim - 1)
    selm = (1, -1) + (0,) * (grid.dim - 1)
    coeffs[sel1] = -0.5j * amplitude
    coeffs[selm] = 0.5j * amplitude
    u = SpectralField(grid, coeffs)
    return MhdState(u, SpectralField.zeros(grid, grid.dim), 0.0, nu, eta)


def initial_state(config: SimConfig, grid: Grid | None = None) -> MhdState:
    g = grid or config.make_grid()
    ic = config.initial
    if ic.preset == "zero":
        z = SpectralField.zeros(g, g.dim)
        return MhdState(z, z, 0.0, config.nu, config.eta)
    if ic.preset == "taylor_green":
        return taylor_green_state(g, config.nu, config.eta, ic.amplitude)
    if ic.preset == "single_mode":
        return single_mode_state(g, config.nu, config.eta, ic.amplitude)
    # "random_divfree", the last of InitialCondition's presets
    u = synth_random_divfree(g, g.dim, ic.seed, ic.decay, ic.amplitude)
    if ic.b_amplitude > 0:
        b = synth_random_divfree(g, g.dim, ic.seed + 1, ic.decay, ic.b_amplitude)
    else:
        b = SpectralField.zeros(g, g.dim)
    return MhdState(u, b, 0.0, config.nu, config.eta)


def compute_record(
    u: SpectralField,
    b: SpectralField,
    config: SimConfig,
) -> dict[str, float]:
    """One row of diagnostics for a state: the energy, W, X, Y, Z in dim 4, and
    the norm column of each of :attr:`SimConfig.columns`, all from one request
    to :func:`~torusmhd.criteria.monitored_norms` (one sampling pass, which
    samples no part of a zero b).  This single code path serves both the live
    run and snapshot replay, so the two produce identical values for
    identical states.
    """
    row: dict[str, float] = {"energy": energy(u, b)}
    if config.dim == 4:
        plane = tuple(a for a in range(4) if a not in config.free_axes0)
        row.update(wxyz(u, b, plane=plane)._asdict())
    cols = config.columns
    pi = pressure_solve(u, b) if any(q in PRESSURE_TAGS for _n, q, *_ in cols) else None
    request: dict[str, list[float]] = {}
    for _norm, q, p, _acc, _r in cols:
        request.setdefault(q, []).append(p)
    norms = monitored_norms(request, u, b, pi, config.free_axes0)
    row.update({norm: norms[q, p] for norm, q, p, _acc, _r in cols})
    return row


def series_columns(config: SimConfig) -> tuple[str, ...]:
    """The columns of a run's table after the time, in series.csv order: the
    energy, the ledger, W, X, Y, Z in dim 4, then each norm followed by the
    accumulator it feeds.  Each column appears once; a norm that two criteria
    share keeps its first place."""
    cols = ["energy", "dissipation_integral", "defect"]
    if config.dim == 4:
        cols += ["W", "X", "Y", "Z"]
    cols += [c for norm, _q, _p, acc, _r in config.columns for c in (norm, acc)]
    return tuple(dict.fromkeys(cols))


class Recorder:
    """The run's table, and the record and accumulate loop of a live run and
    of a replay that fills it.

    One row per record: the time, then one value per column of
    :func:`series_columns` (the series.csv order, fixed at construction): the
    diagnostics, the ledger's dissipation integral and defect (the first
    row's energy minus this row's, minus the integral), and every
    accumulator, advanced from the previous row.  The table is the only store
    of these values; times must be strictly increasing.  The defect vanishes
    for the exact dynamics; along a run it is the time integrator's error.
    The integral stays with the caller, since a live run sums the steps'
    increments and a replay takes the trapezoid of the sampled rates.
    """

    def __init__(self, config: SimConfig):
        self.config = config
        self.times: list[float] = []
        self.records: dict[str, list[float]] = {col: [] for col in series_columns(config)}

    def __len__(self) -> int:
        return len(self.times)

    @property
    def columns(self) -> list[str]:
        return ["time", *self.records]

    def last(self) -> dict[str, float]:
        """The latest row by column, time left out; empty before the first record."""
        return {col: vals[-1] for col, vals in self.records.items()} if self.times else {}

    def dt_to(self, t: float) -> float:
        """Width of the record interval ending at t (0 for the first record)."""
        return t - self.times[-1] if self.times else 0.0

    def record(self, t: float, state: MhdState, dissipation_integral: float) -> None:
        """Record the state at time t as one row of the table."""
        if self.times and t <= self.times[-1]:
            raise ValueError(
                f"record times must be strictly increasing ({t} after {self.times[-1]})"
            )
        # a run heading for divergence can overflow |u|^p here; inf is the
        # honest record for that, no warning needed
        with np.errstate(over="ignore"):
            row = compute_record(state.u, state.b, self.config)
        initial = self.records["energy"][0] if self.times else row["energy"]
        row.update(
            dissipation_integral=dissipation_integral,
            defect=initial - row["energy"] - dissipation_integral,
        )
        # the first record (an empty last row, dt 0) seeds the sups with the
        # initial value and the integrals at 0
        last, dt = self.last(), self.dt_to(t)
        for norm, _q, _p, acc, r in self.config.columns:
            row[acc] = accumulate(last.get(acc), last.get(norm), row[norm], r, dt)
        self.times.append(float(t))
        for col, vals in self.records.items():
            vals.append(float(row[col]))


@dataclass
class SimResult:
    """Everything a run produced (file writing is the caller's business): its
    status, "completed" or "diverged", its table, which ends at the final
    state, the last finite one if the run diverged, and that state."""

    status: str
    series: Recorder
    final_state: MhdState


def simulate(
    config: SimConfig,
    initial: MhdState | None = None,
    snapshot_sink: Callable[[int, MhdState], None] | None = None,
) -> SimResult:
    """Run the configured simulation.

    Records diagnostics on the record cadence, hands states on the snapshot
    cadence to ``snapshot_sink``, and returns cleanly with status
    ``"diverged"`` if the integration blows up, after recording the last
    finite state if the cadence had not.
    """
    grid = config.make_grid()
    if initial is not None and initial.grid != grid:
        raise ValueError("initial state grid does not match the configuration")
    state = initial if initial is not None else initial_state(config, grid)
    dissipation = 0.0
    recorder = Recorder(config)
    n_steps = config.n_steps
    status = "completed"

    for n in range(n_steps + 1):
        t = state.time
        if n % config.record_every == 0 or n == n_steps:
            recorder.record(t, state, dissipation)
            at_snapshot = config.snapshot_every and (
                n % config.snapshot_every == 0 or n == n_steps
            )
            if at_snapshot and snapshot_sink is not None:
                snapshot_sink(n, state)
        if n == n_steps:
            break
        try:
            state, dinc = step_ifrk4(state, config.dt)
        except DivergedError:
            status = "diverged"
            if n % config.record_every:
                recorder.record(t, state, dissipation)
            break
        dissipation += dinc
    return SimResult(status, recorder, state)
