"""Collocation/spectral grids on the periodic N-torus.

A :class:`Grid` fixes the torus dimension, the FFT size per axis, the
physical side length, and the band limit used for dealiasing.  All transform
plumbing (padded sampling, analysis, quadrature) lives here so that field
operations elsewhere can stay purely algebraic.

Coefficient convention: a real field is represented by complex coefficients
``c[k]`` with ``f(x) = sum_k c[k] exp(i kappa . x)`` where
``kappa = 2*pi*k/L``.  Only the band |k_a| <= K is stored, and only its
k_last >= 0 half, in shape ``(2K+1,)*(dim-1) + (K+1,)`` (FFT order 0..K,
-K..-1, then k_last = 0..K); the modes with k_last < 0 are conj(c[-k]).  So
the layout is the dealiasing truncation: :meth:`Grid.analyze` keeps the band.

On m points a leading axis holds the band's k = 0..K and -K..-1 slabs at
positions 0..K and m-K..m-1, and k_last = 0..K sits at 0..K.
:meth:`Grid.sample` places and inverse-transforms the band one leading axis
at a time, each pass only on lines that hold band content, then makes one
``irfft`` along k_last; :meth:`Grid.analyze` makes one batched ``rfftn`` and
:meth:`Grid.gather` copies the band's slab blocks out of it.  The full
``(M,)*dim`` layout appears only in snapshot files and the seeded draw, where
one index map also places each mode's mirror -k (:meth:`Grid.unfold`).  A
lattice sum of |c|^2 is :meth:`Grid.parseval_sum`, with
:attr:`Grid.parseval_weight` 2 for k_last > 0 and 1 on the plane k_last = 0.

Quadratures of what is not a polynomial in the coefficients stream the grid
in slabs, consecutive row blocks of the first axis (:meth:`Grid.slabs`):
``Grid.sample(coeffs, m, rows)`` cuts the rows right after the first pass,
so a slab is the full sample's rows bit for bit.  The caller says how many
slab-sized arrays its pass holds, and the grid is cut into as few slabs as
keep them within 2^22 points (32 MiB of float64), but never more than 8,
since every slab redoes the first pass: about 1-2% of a sample's time at
dim-4 M = 16, 4-6% at dim-3 M = 48, on a 2-core x86-64 box.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.fft as sfft

__all__ = ["Grid", "make_grid", "set_fft_workers"]

TWO_PI = 2.0 * np.pi

_FFT_WORKERS = -1

_SLAB_BUDGET = 2**22  # point-arrays a slab pass may hold: 32 MiB of float64


def set_fft_workers(n: int | None) -> None:
    """Set the FFT worker-thread count (None or <=0 means all cores)."""
    global _FFT_WORKERS
    _FFT_WORKERS = n if n and n > 0 else -1


@dataclass(frozen=True)
class Grid:
    """Periodic torus grid with a fixed dealiasing band.

    Use :func:`make_grid` to construct validated instances; the raw
    constructor accepts any band that fits on the M points of an axis
    (2K + 1 <= M), so debug grids (e.g. deliberately aliased ones for
    negative controls) remain expressible.

    Attributes
    ----------
    dim : int
        Torus dimension.
    modes_per_axis : int
        The FFT size M of every axis, and of the snapshot files' full layout.
    side_length : float
        Physical period L of every axis.
    band_limit : int
        Retained band K: coefficients vanish unless |k_a| <= K for all axes.

    Products and quadratures polynomial in the coefficients are evaluated
    on :meth:`alias_free_modes` for their degree, the rest on :attr:`eval_modes`.
    """

    dim: int
    modes_per_axis: int
    side_length: float
    band_limit: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be positive, got {self.dim}")
        if self.modes_per_axis < 2 or self.modes_per_axis % 2:
            raise ValueError(
                f"modes_per_axis must be even and >= 2, got {self.modes_per_axis}"
            )
        if not (self.side_length > 0):
            raise ValueError(f"side_length must be positive, got {self.side_length}")
        if self.band_limit < 1:
            raise ValueError(f"band_limit must be >= 1, got {self.band_limit}")
        if 2 * self.band_limit + 1 > self.modes_per_axis:
            raise ValueError(f"band_limit {self.band_limit} does not fit on M = "
                             f"{self.modes_per_axis} points (needs 2K + 1 <= M)")

    # -- derived geometry -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        """The stored band, one array axis per torus axis."""
        n = self.band_limit
        return (2 * n + 1,) * (self.dim - 1) + (n + 1,)

    @property
    def volume(self) -> float:
        return self.side_length**self.dim

    @property
    def eval_modes(self) -> int:
        """The fixed 2M grid for what is not a polynomial in the coefficients:
        L^p magnitudes, sups, and outside functions sampled for projection."""
        return 2 * self.modes_per_axis

    def alias_free_modes(self, degree: int, band: int) -> int:
        """Smallest even fast FFT size m >= M on which a product of ``degree``
        K-band fields is exact up to wavenumber ``band``.

        The product reaches degree*K and aliases onto k - m, which stays
        beyond ``band`` when m > degree*K + band; (2, K) is the 3/2 rule of
        Orszag (1971), (4, 0) makes the quadrature of a quartic exact.
        """
        m = max(self.modes_per_axis, degree * self.band_limit + band + 1)
        while (m := sfft.next_fast_len(m)) % 2:
            m += 1
        return m

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        """Integer wavenumbers along one leading axis of the band, FFT order."""
        n = self.band_limit
        return np.r_[0 : n + 1, -n:0]

    def _axis_wavenumbers(self, axis: int) -> np.ndarray:
        k = self.wavenumbers if axis < self.dim - 1 else np.arange(self.shape[-1])
        return k.reshape((1,) * axis + (k.size,) + (1,) * (self.dim - axis - 1))

    @cached_property
    def wave_axes(self) -> tuple[np.ndarray, ...]:
        """Physical wavenumbers kappa_a, one broadcast-ready array per axis."""
        scale = TWO_PI / self.side_length
        return tuple(scale * self._axis_wavenumbers(a) for a in range(self.dim))

    @cached_property
    def k_squared(self) -> np.ndarray:
        return sum(k**2 for k in self.wave_axes)

    @cached_property
    def k_squared_safe(self) -> np.ndarray:
        # 1.0 at the mean mode so division is safe; callers zero it themselves
        return np.where(self.k_squared > 0, self.k_squared, 1.0)

    def k_power(self, s: float) -> np.ndarray:
        """The symbol |kappa|^s of Lambda^s, set to 0 at the mean mode."""
        return np.where(self.k_squared > 0, self.k_squared_safe ** (s / 2.0), 0.0)

    @cached_property
    def parseval_weight(self) -> np.ndarray:
        """How often a stored mode counts in a full-lattice sum, by k_last: 2 for
        k_last > 0, standing also for -k, 1 on the plane k_last = 0 (K < M/2,
        so the band never reaches the Nyquist plane)."""
        w = np.full(self.shape[-1], 2.0)
        w[0] = 1.0
        return w

    def parseval_sum(self, density: np.ndarray) -> float:
        """vol * the full-lattice sum of a per-mode density given on the stored
        band, over every axis: with density |c|^2 it is ||f||_2^2."""
        return self.volume * float(np.sum(density * self.parseval_weight))

    def unfold(self, coeffs: np.ndarray) -> np.ndarray:
        """The full ``(M,)*dim`` layout of band coefficients: conj(c) at -k,
        then c at +k (so the plane k_last = 0 keeps the stored values), and
        every mode outside the band zero."""
        m = self.modes_per_axis
        lead = coeffs.ndim - self.dim
        full = np.zeros(coeffs.shape[:lead] + (m,) * self.dim, dtype=complex)
        full[self._embedding(lead, m, -1)] = np.conj(coeffs)
        full[self._embedding(lead, m)] = coeffs
        return full

    def coordinates(self, m_eval: int | None = None) -> tuple[np.ndarray, ...]:
        """Collocation coordinates along each axis of the evaluation grid."""
        m = m_eval or self.eval_modes
        x = np.arange(m) * (self.side_length / m)
        return tuple(
            x.reshape((1,) * a + (m,) + (1,) * (self.dim - a - 1))
            for a in range(self.dim)
        )

    # -- transforms -------------------------------------------------------

    def _spatial_axes(self, arr: np.ndarray) -> tuple[int, ...]:
        return tuple(range(arr.ndim - self.dim, arr.ndim))

    def _embedding(self, lead: int, m_eval: int, sign: int = 1) -> tuple:
        # index of every stored mode k, or with sign = -1 of its mirror -k, on
        # m_eval points per axis of the full layout (and k_last = 0..K of the
        # half layout), or with m_eval = 2K' + 1 in the band layout of K' >= K
        ks = [self.wavenumbers] * (self.dim - 1) + [np.arange(self.shape[-1])]
        return (slice(None),) * lead + np.ix_(*[(sign * k) % m_eval for k in ks])

    def _fine(self, m_eval: int) -> int:
        if m_eval < self.modes_per_axis:
            raise ValueError("evaluation grid must be at least as fine as the grid")
        return m_eval

    def _slabs(self, m_eval: int) -> tuple[tuple[slice, slice], ...]:
        # a leading axis's band slabs k = 0..K and -K..-1, each paired with
        # its positions 0..K and m-K..m-1 on m_eval points
        n = self.band_limit
        return (slice(0, n + 1), slice(0, n + 1)), (slice(n + 1, None), slice(m_eval - n, m_eval))

    def _spread(self, x: np.ndarray, axis: int, m_eval: int, pad: bool) -> np.ndarray:
        # x with leading axis ``axis`` placed on m_eval points, zeros between
        # its slabs; with ``pad`` also k_last padded to m_eval//2 + 1
        shape = list(x.shape)
        shape[axis] = m_eval
        if pad:
            shape[-1] = m_eval // 2 + 1
        out = np.zeros(shape, dtype=complex)
        at, k_last = (slice(None),) * axis, slice(0, x.shape[-1])
        for band, fine in self._slabs(m_eval):
            out[at + (fine, ..., k_last)] = x[at + (band,)]
        return out

    @staticmethod
    def _pad(x: np.ndarray, m_eval: int) -> np.ndarray:
        # x with k_last padded to m_eval//2 + 1
        out = np.zeros(x.shape[:-1] + (m_eval // 2 + 1,), dtype=complex)
        out[..., : x.shape[-1]] = x
        return out

    def _leading_axes(self, arr: np.ndarray) -> range:
        return range(arr.ndim - self.dim, arr.ndim - 1)

    def embed(self, coeffs: np.ndarray, target: Grid) -> np.ndarray:
        """These band coefficients on ``target``'s band: the modes both bands
        hold are copied, a wider target band is zero beyond them and a
        narrower one drops the rest."""
        if target.dim != self.dim:
            raise ValueError(f"cannot embed a dim-{self.dim} band in dim {target.dim}")
        lead = coeffs.ndim - self.dim
        if target.band_limit < self.band_limit:
            return coeffs[target._embedding(lead, 2 * self.band_limit + 1)]
        out = np.zeros(coeffs.shape[:lead] + target.shape, dtype=coeffs.dtype)
        out[self._embedding(lead, 2 * target.band_limit + 1)] = coeffs
        return out

    def gather(self, coeffs_fine: np.ndarray, m_eval: int) -> np.ndarray:
        """Extract this grid's band from an m_eval ``rfftn`` half layout (or the
        full layout, whose k_last = 0..K sit at the same positions), copied
        once, slab block by slab block, into a C-order array."""
        lead = coeffs_fine.shape[: coeffs_fine.ndim - self.dim]
        out = np.empty(lead + self.shape, dtype=coeffs_fine.dtype)
        k_last = slice(0, self.band_limit + 1)
        for block in itertools.product(self._slabs(m_eval), repeat=self.dim - 1):
            band = tuple(b for b, _fine in block)
            fine = tuple(f for _band, f in block)
            out[(..., *band, k_last)] = coeffs_fine[(..., *fine, k_last)]
        return out

    def slabs(self, m: int, arrays: int) -> list[slice]:
        """Consecutive row blocks of the first axis of an m-point grid, the
        slabs in which quadratures stream :meth:`sample`.

        ``arrays`` is how many slab-sized arrays the caller's pass holds at
        once.  The grid is cut into the fewest n <= 8 slabs of ceil(m/n) rows
        each whose arrays fit in 2^22 points together (32 MiB of float64),
        about n = min(8, ceil(m^dim * arrays / 2^22)); past 8 slabs the budget
        gives way.  The cap bounds repeated work: each slab redoes the first
        leading axis's pass, about 2% of a dim-4 sample.  A dim-4 M = 16
        record (three open sums, so 5 arrays on 32^4 points) is 2 slabs, a
        dim-3 M = 48 one (3 arrays on 96^3) is 1 and a dim-4 M >= 32 one 8.
        """
        fit = _SLAB_BUDGET // (m ** (self.dim - 1) * arrays)  # rows within budget
        n = min(8, -(-m // fit)) if fit else 8
        rows = -(-m // n)
        return [slice(r, min(r + rows, m)) for r in range(0, m, rows)]

    def sample(
        self, coeffs: np.ndarray, m_eval: int | None = None, rows: slice | None = None
    ) -> np.ndarray:
        """Evaluate coefficients on the (padded) collocation grid.

        Returns real values of shape ``lead + (m_eval,)*dim``, or with ``rows``
        (a slice of the first spatial axis, e.g. one of :meth:`slabs`) only
        those rows of it.  The band is placed and transformed one leading axis
        at a time: each complex ``ifft`` pass runs on an array m_eval long on
        the axes done so far and band-sized on the rest, so it touches only
        lines that hold band content (FFT pruning, Markel 1971).  The last
        leading axis's placement pads k_last to m_eval//2 + 1 and transforms
        only its first K + 1 columns, so the closing ``irfft`` along k_last
        needs no padding copy.  These are the 1-D passes, in the same order,
        that pocketfft's n-D ``irfftn`` makes of the band embedded in the half
        layout, and the values are the same bits.  ``rows`` are cut right
        after the first pass (in dim 2 before k_last is padded), and every
        later pass works on lines of its own, so a slab is the full sample's
        rows bit for bit.
        """
        m = self._fine(m_eval or self.eval_modes)
        cut = rows is not None and range(m)[rows] != range(m)
        kept = slice(0, self.band_limit + 1)
        x = coeffs
        axes = self._leading_axes(coeffs)
        for axis in axes:
            x = self._spread(x, axis, m, pad=axis == axes[-1] and not cut)
            lines = x[..., kept]
            done = sfft.ifft(
                lines, axis=axis, norm="forward", overwrite_x=True, workers=_FFT_WORKERS
            )
            if not np.may_share_memory(done, x):  # overwrite_x allows, not promises
                lines[...] = done
            if cut:
                x, cut = x[(slice(None),) * axis + (rows,)], False
                if axis == axes[-1]:
                    x = self._pad(x, m)
        out = sfft.irfft(x, n=m, norm="forward", overwrite_x=True, workers=_FFT_WORKERS)
        return out[..., rows] if cut else out  # dim 1: no leading axis to cut

    def analyze(self, values: np.ndarray) -> np.ndarray:
        """Transform real collocation values back to band coefficients, with
        one batched ``rfftn`` whose band is kept and the rest dropped.

        The input may live on any grid at least as fine as M; content that
        aliases onto the band on those points stays in it, so callers sample
        on a size that keeps their products exact on the band.
        """
        spec = sfft.rfftn(
            values, axes=self._spatial_axes(values), norm="forward", workers=_FFT_WORKERS
        )
        return self.gather(spec, values.shape[-1])

    def quadrature(self, values: np.ndarray) -> float | np.ndarray:
        """Trapezoid (= rectangle, periodic) quadrature over the torus.

        Exact for integrands band-limited below the sampling resolution.
        Sums over the trailing ``dim`` axes.
        """
        m_eval = values.shape[-1]
        w = (self.side_length / m_eval) ** self.dim
        out = w * values.sum(axis=self._spatial_axes(values))
        return float(out) if np.ndim(out) == 0 else out


def make_grid(dim: int, modes_per_axis: int, side_length: float = TWO_PI) -> Grid:
    """Validated grid constructor.

    The band limit is fixed at ``floor(M/3)``, so the 3/2 rule of
    :meth:`Grid.alias_free_modes` keeps quadratic products on M points
    whenever 3K < M, and the quadrature of a cubic on 3K + 1.
    """
    if dim not in (2, 3, 4):
        raise ValueError(f"dim must be one of 2, 3, 4, got {dim}")
    if modes_per_axis < 8:
        raise ValueError(f"modes_per_axis must be >= 8, got {modes_per_axis}")
    if modes_per_axis % 2:
        raise ValueError(f"modes_per_axis must be even, got {modes_per_axis}")
    if not (0 < side_length < math.inf):
        raise ValueError(f"side_length must be positive and finite, got {side_length}")
    return Grid(dim, modes_per_axis, float(side_length), modes_per_axis // 3)
