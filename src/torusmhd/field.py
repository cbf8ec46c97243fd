"""Band-limited vector fields on the torus and the operators acting on them.

Everything here is exact in coefficient space: derivatives and Fourier
multipliers act mode by mode, the Leray projection is the per-mode
orthogonal projection onto divergence-free vectors, and rescaling moves a
field onto the shrunken torus without touching its integer mode content.
A field stores only the band |k_a| <= K (see :mod:`torusmhd.grid`), so it is
band-limited by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .grid import Grid

__all__ = [
    "SpectralField",
    "check_divfree",
    "leray_project",
    "rescale_field",
    "synth_random_divfree",
    "synth_random_field",
    "divergence",
    "gradient",
    "partial_derivative",
    "sample_part",
]

_DIVFREE_TOL = 1e-10


@dataclass(frozen=True)
class SpectralField:
    """A real field stored as complex Fourier coefficients.

    ``coeffs`` has shape ``(components,) + grid.shape``, the band's k_last >= 0
    half: the modes with k_last < 0 are conj(c(-k)) of stored ones, and no mode
    outside the band exists.  Only the self-conjugate plane k_last = 0 can
    break the symmetry of a real field; the named constructors keep it, and
    :func:`torusmhd.io.read_state_snapshot` checks it on the files it reads.
    """

    grid: Grid
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim != self.grid.dim + 1 or c.shape[1:] != self.grid.shape:
            raise ValueError(
                f"coefficient shape {c.shape} does not match grid "
                f"(components,) + {self.grid.shape}"
            )
        object.__setattr__(self, "coeffs", c)

    # -- constructors -----------------------------------------------------

    @classmethod
    def zeros(cls, grid: Grid, components: int) -> "SpectralField":
        return cls(grid, np.zeros((components,) + grid.shape, dtype=complex))

    @classmethod
    def from_samples(cls, grid: Grid, values: np.ndarray) -> "SpectralField":
        """Build a field from real collocation values (band-projected)."""
        vals = np.asarray(values, dtype=float)
        if vals.ndim == grid.dim:
            vals = vals[None]
        return cls(grid, grid.analyze(vals))

    # -- basic queries ----------------------------------------------------

    @property
    def components(self) -> int:
        return self.coeffs.shape[0]

    def component(self, i: int) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs[i : i + 1])

    def sample(self, m_eval: int | None = None) -> np.ndarray:
        return self.grid.sample(self.coeffs, m_eval)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "SpectralField") -> "SpectralField":
        self._check_compatible(other)
        return SpectralField(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        self._check_compatible(other)
        return SpectralField(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, scalar: float) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs * float(scalar))

    __rmul__ = __mul__

    def _check_compatible(self, other: "SpectralField") -> None:
        if other.grid != self.grid or other.components != self.components:
            raise ValueError("fields live on different grids or component counts")


def partial_derivative(field: SpectralField, axis: int) -> SpectralField:
    return SpectralField(field.grid, field.coeffs * (1j * field.grid.wave_axes[axis]))


def sample_part(
    field: SpectralField,
    component: int,
    axis: int | None = None,
    m_eval: int | None = None,
    rows: slice | None = None,
) -> np.ndarray:
    """Samples of one component of a field, or of its first derivative along ``axis``,
    on the ``rows`` of the first axis that :meth:`Grid.sample` keeps.

    One component at a time keeps the transform buffers at one scalar
    field's size.
    """
    coeffs = field.coeffs[component : component + 1]
    if axis is not None:
        coeffs = coeffs * (1j * field.grid.wave_axes[axis])
    return field.grid.sample(coeffs, m_eval, rows)[0]


def gradient(field: SpectralField) -> SpectralField:
    """Stack all first derivatives: components ordered (axis, component)."""
    g = field.grid
    parts = [1j * g.wave_axes[a] * field.coeffs for a in range(g.dim)]
    return SpectralField(g, np.concatenate(parts, axis=0))


def divergence(field: SpectralField) -> SpectralField:
    g = field.grid
    if field.components != g.dim:
        raise ValueError("divergence needs one component per axis")
    div = sum(1j * g.wave_axes[a] * field.coeffs[a] for a in range(g.dim))
    return SpectralField(g, div[None])


def leray_project(field: SpectralField) -> SpectralField:
    """Per-mode projection onto divergence-free vectors; mean mode untouched."""
    g = field.grid
    if field.components != g.dim:
        raise ValueError("leray projection needs one component per axis")
    return SpectralField(g, _leray_raw(g, field.coeffs))


def check_divfree(field: SpectralField, name: str) -> None:
    """Raise unless the divergence vanishes to rounding, relative to kmax * max|c|."""
    g = field.grid
    div = divergence(field).coeffs
    scale = float(np.abs(field.coeffs).max())
    kmax = 2 * np.pi * g.band_limit / g.side_length
    bound = _DIVFREE_TOL * max(kmax * scale, 1e-30)
    worst = float(np.abs(div).max())
    if worst > bound:
        raise ValueError(
            f"{name} is not divergence-free (defect {worst:.3e}, bound {bound:.3e})"
        )


def _leray_raw(g: Grid, coeffs: np.ndarray) -> np.ndarray:
    div = sum(g.wave_axes[a] * coeffs[a] for a in range(g.dim))
    frac = div / g.k_squared_safe
    out = coeffs.copy()
    for a in range(g.dim):
        out[a] -= g.wave_axes[a] * frac
    return out


def rescale_field(field: SpectralField, lam: int) -> SpectralField:
    """The dilation f -> lam * f(lam x) realised on the torus of side L/lam.

    Integer lam wraps the dilated field an exact whole number of times
    around the original period, so the integer mode content is unchanged;
    only the amplitude and the physical side length move.
    """
    lam_i = int(lam)
    if lam_i != lam or lam_i < 1:
        raise ValueError(f"rescale factor must be a positive integer, got {lam}")
    g = field.grid
    out_grid = replace(g, side_length=g.side_length / lam_i)
    return SpectralField(out_grid, lam_i * field.coeffs)


def _hermitian_noise(grid: Grid, components: int, rng: np.random.Generator) -> np.ndarray:
    """The band of 0.5 (a + conj(a(-k))) for complex noise a on the full layout.

    The stream is every real part, then every imaginary part, drawn on the
    full ``(M,)*dim`` layout, so each seed keeps its field; each real array is
    kept only at +k and -k of the band, and nothing is symmetrised at full size.
    """
    m = grid.modes_per_axis
    shape = (components,) + (m,) * grid.dim
    at = (grid._embedding(1, m), grid._embedding(1, m, -1))

    def kept() -> list[np.ndarray]:
        x = rng.standard_normal(shape)
        return [x[i] for i in at]

    (re_p, re_m), (im_p, im_m) = kept(), kept()
    # C order, as gather gives, so the normalizing sum adds in the same order
    return np.ascontiguousarray(0.5 * ((re_p + 1j * im_p) + np.conj(re_m + 1j * im_m)))


def _shaped_noise(
    grid: Grid, components: int, seed: int, decay: float
) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = _hermitian_noise(grid, components, rng)
    return a * grid.k_power(-decay)[None]


def _normalized(grid: Grid, coeffs: np.ndarray, amplitude: float) -> np.ndarray:
    norm = np.sqrt(grid.parseval_sum(np.abs(coeffs) ** 2))
    if norm == 0:
        raise ValueError("degenerate random draw, cannot normalize")
    return coeffs * (amplitude / norm)


def synth_random_field(
    grid: Grid,
    components: int,
    seed: int,
    decay: float = 3.0,
    amplitude: float = 1.0,
) -> SpectralField:
    """Mean-zero random band-limited field with |k|^(-decay) coefficients.

    Deterministic in the seed; the L2 norm is normalized to ``amplitude``.
    """
    coeffs = _shaped_noise(grid, components, seed, decay)
    return SpectralField(grid, _normalized(grid, coeffs, amplitude))


def synth_random_divfree(
    grid: Grid,
    components: int,
    seed: int,
    decay: float = 3.0,
    amplitude: float = 1.0,
) -> SpectralField:
    """Divergence-free variant of :func:`synth_random_field`.

    Requires one component per axis so the per-mode projection applies.
    """
    noise = _shaped_noise(grid, components, seed, decay)
    coeffs = leray_project(SpectralField(grid, noise)).coeffs
    del noise  # freed before normalizing: on small runs this draw sets the peak RSS
    return SpectralField(grid, _normalized(grid, coeffs, amplitude))

