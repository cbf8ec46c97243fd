"""The stored band, the k_last >= 0 half of |k_a| <= K, against the full
complex layout it stands for.

Every reference here is written out on the full ``(M,)*dim`` layout with
numpy's complex FFTs and plain sums, independently of the package's
transforms, mirror and Parseval weight.  Besides the standard grids, each
check runs on raw grids of the widest band an M-point axis stores,
K = M/2 - 1, the band of the aliased negative control.
"""

import math

import numpy as np
import pytest

from torusmhd.dynamics import (
    MhdState,
    _dissipation_increment,
    _hermite_weights,
    dissipation_rate,
)
from torusmhd.field import SpectralField, synth_random_divfree
from torusmhd.grid import Grid, make_grid
from torusmhd.norms import energy, l2_norm, wxyz
from torusmhd.verify import check_commutator

from conftest import reversed_conj


def _grids():
    for dim, m in ((2, 16), (3, 12), (4, 8)):
        yield pytest.param(make_grid(dim, m), id=f"{dim}-{m}")
    for dim, m in ((2, 16), (4, 8)):
        yield pytest.param(Grid(dim, m, 2 * np.pi, m // 2 - 1), id=f"{dim}-{m}-wide")


GRIDS = list(_grids())


def kvec(g, m=None):
    """Full-layout integer wavenumbers on m points per axis, one
    broadcast-ready array per axis."""
    m = m or g.modes_per_axis
    k = np.rint(np.fft.fftfreq(m, 1.0 / m)).astype(int)
    return [k.reshape((1,) * a + (m,) + (1,) * (g.dim - a - 1)) for a in range(g.dim)]


def kappa(g, m=None):
    return [(2 * np.pi / g.side_length) * k for k in kvec(g, m)]


def full_mask(g, band=None, m=None):
    band = g.band_limit if band is None else band
    mask = True
    for k in kvec(g, m):
        mask = mask & (np.abs(k) <= band)
    return mask


def full_banded(g, seed, components=1):
    """Seeded Hermitian band-limited coefficients on the full layout."""
    rng = np.random.default_rng(seed)
    shape = (components,) + (g.modes_per_axis,) * g.dim
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return 0.5 * (c + reversed_conj(c, g.dim)) * full_mask(g)


def full_divfree(g, seed, decay, amp):
    """The seeded divergence-free draw, made on the full layout: symmetrised
    noise, |k|^-decay on the band, the per-mode Leray projection and the L2
    normalization, all over (M,)*dim."""
    dim, m = g.dim, g.modes_per_axis
    rng = np.random.default_rng(seed)
    shape = (dim,) + (m,) * dim
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    a = 0.5 * (a + reversed_conj(a, dim))
    kap = kappa(g)
    k2 = sum(k**2 for k in kap)
    a = a * symbol(k2, -decay) * full_mask(g)
    div = sum(kap[i] * a[i] for i in range(dim)) / np.where(k2 > 0, k2, 1.0)
    a = a - np.stack([kap[i] * div for i in range(dim)])
    return a * (amp / math.sqrt(g.volume * np.sum(np.abs(a) ** 2)))


def symbol(k2, s):
    """|kappa|^s, 0 at the mean mode."""
    return np.where(k2 > 0, np.where(k2 > 0, k2, 1.0) ** (s / 2), 0.0)


def full_sample(g, full, m):
    """Samples on m points per axis through the full complex inverse FFT."""
    out = np.zeros(full.shape[:1] + (m,) * g.dim, dtype=complex)
    idx = np.ix_(*[k.ravel() % m for k in kvec(g)])
    out[(slice(None),) + idx] = full
    return np.fft.ifftn(out, axes=tuple(range(1, g.dim + 1))).real * m**g.dim


def band(g, full):
    """The stored band of full-layout coefficients, picked by plain slicing."""
    n = g.band_limit
    for axis in range(full.ndim - g.dim, full.ndim - 1):
        full = np.concatenate(
            (full.take(range(n + 1), axis), full.take(range(-n, 0), axis)), axis=axis
        )
    return full[..., : n + 1]


def rel(a, b):
    return abs(a - b) / abs(b)


@pytest.mark.parametrize("g", GRIDS)
def test_sample_and_analyze_match_the_full_complex_path(g):
    m = g.modes_per_axis
    full = full_banded(g, seed=g.dim, components=2)
    c = band(g, full)
    assert c.shape == (2,) + g.shape
    for m_eval in (m, g.alias_free_modes(2, g.band_limit), g.eval_modes):
        want = full_sample(g, full, m_eval)
        got = g.sample(c, m_eval)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
        back = g.analyze(got)
        assert np.abs(back - c).max() <= 1e-14 * np.abs(c).max()


@pytest.mark.parametrize("g", GRIDS)
def test_unfold_restores_the_full_layout(g):
    full = full_banded(g, seed=10 + g.dim, components=3)
    assert np.array_equal(g.unfold(band(g, full)), full)
    assert np.array_equal(g.gather(full, g.modes_per_axis), band(g, full))


@pytest.mark.parametrize("g", GRIDS)
def test_parseval_weight_counts_every_mode_once(g):
    # Hermitian band data on the whole lattice; the wide grids reach the
    # planes |k_last| = M/2 - 1 next to the Nyquist plane, which no band holds
    full = full_banded(g, seed=g.dim, components=2)
    want = g.volume * float(np.sum(np.abs(full) ** 2))
    assert rel(g.parseval_sum(np.abs(band(g, full)) ** 2), want) <= 1e-14


@pytest.mark.parametrize("g", GRIDS)
def test_seeded_draw_is_the_full_layout_draw(g):
    # each seed keeps the field it gave when fields were drawn and stored
    # on the full layout
    a = full_divfree(g, 5, 2.5, 0.8)
    got = synth_random_divfree(g, g.dim, 5, decay=2.5, amplitude=0.8).coeffs
    assert np.abs(got - band(g, a)).max() <= 1e-14 * np.abs(a).max()


@pytest.mark.parametrize("g", GRIDS)
def test_parseval_sums_match_the_full_layout(g):
    fu, fb = full_divfree(g, 7, 1.0, 1.0), full_divfree(g, 8, 1.0, 0.6)
    u, b = SpectralField(g, band(g, fu)), SpectralField(g, band(g, fb))
    vol = g.volume
    kap = kappa(g)
    k2 = sum(k**2 for k in kap)

    def full_sum(weight, *fields):
        return vol * sum(float(np.sum(weight * np.abs(f) ** 2)) for f in fields)

    assert rel(l2_norm(u), math.sqrt(full_sum(1.0, fu))) <= 1e-14
    assert rel(energy(u, b), full_sum(1.0, fu, fb)) <= 1e-14
    st = MhdState(u, b, 0.0, 0.3, 0.7)
    want = 2 * 0.3 * full_sum(k2, fu) + 2 * 0.7 * full_sum(k2, fb)
    assert rel(dissipation_rate(st), want) <= 1e-14
    for s in (0.5, 1.5, 2.5):
        density = g.k_power(s) ** 2 * np.abs(u.coeffs) ** 2
        assert rel(g.parseval_sum(density), full_sum(symbol(k2, s) ** 2, fu)) <= 1e-14
    if g.dim == 4:
        kp = kap[0] ** 2 + kap[2] ** 2
        vals = wxyz(u, b, plane=(0, 2))
        for got, weight in zip(vals, (kp, k2, kp * k2, k2 * k2)):
            assert rel(got, full_sum(weight, fu, fb)) <= 1e-14

    # the ledger's step sum: with no nonlinearity, each mode loses the
    # fraction 1 - e^{-2 nu k^2 dt} of its power
    nu, dt = 0.4, 0.05
    e = np.exp(-nu * g.k_squared[None] * (dt / 2))
    zero = np.zeros_like(u.coeffs)
    weights = _hermite_weights((2.0 * nu * dt) * g.k_squared)
    got = _dissipation_increment(g, dt, nu, u.coeffs, (zero,) * 3, zero, e, weights)
    ef = np.exp(-nu * k2 * (dt / 2))
    assert rel(got, full_sum(1.0 - (ef * ef) * (ef * ef), fu)) <= 1e-14


def test_commutator_sums_match_the_full_layout():
    g = make_grid(2, 16)
    ff, fh = full_banded(g, 4), full_banded(g, 5)
    s = 1.5
    rep = check_commutator(SpectralField(g, band(g, ff)), SpectralField(g, band(g, fh)), s)
    k2b = 2 * g.band_limit
    m = g.alias_free_modes(2, k2b)
    fs, hs = full_sample(g, ff, m)[0], full_sample(g, fh, m)[0]
    fine_mask = full_mask(g, k2b, m)
    kf2 = sum(k**2 for k in kappa(g, m))
    k2 = sum(k**2 for k in kappa(g))
    fg = np.fft.fftn(fs * hs) / m**2 * fine_mask
    f_lam_h = np.fft.fftn(fs * full_sample(g, symbol(k2, s) * fh, m)[0]) / m**2 * fine_mask
    comm = symbol(kf2, s) * fg - f_lam_h
    vol = g.volume
    want = math.sqrt(vol * np.sum(np.abs(comm) ** 2))
    assert rel(rep.details[0]["commutator_l2"], want) <= 1e-14
    sup = g.eval_modes
    grad_f = np.sqrt(sum(full_sample(g, 1j * k * ff, sup)[0] ** 2 for k in kappa(g)))
    lam_h = math.sqrt(vol * np.sum(symbol(k2, s - 1) ** 2 * np.abs(fh) ** 2))
    lam_f = math.sqrt(vol * np.sum(symbol(k2, s) ** 2 * np.abs(ff) ** 2))
    estimate = grad_f.max() * lam_h + lam_f * np.abs(full_sample(g, fh, sup)).max()
    assert rel(rep.details[0]["estimate"], estimate) <= 1e-14
