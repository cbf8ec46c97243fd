import numpy as np
import pytest

from torusmhd.field import (
    SpectralField,
    divergence,
    gradient,
    leray_project,
    partial_derivative,
    rescale_field,
    synth_random_divfree,
    synth_random_field,
)
from torusmhd.grid import make_grid

from conftest import field_from_function, reversed_conj


def test_from_samples_band_projects(grid2):
    xs = grid2.coordinates()
    # mode 7 is beyond the band limit 5 and must be dropped
    vals = np.cos(3 * xs[0]) + np.sin(7 * xs[1]) + 0 * xs[1]
    f = SpectralField.from_samples(grid2, vals)
    assert f.coeffs.shape == (1, 11, 6)
    assert np.abs(f.coeffs[0, 3, 0] - 0.5) < 1e-14
    assert np.abs(f.sample()[0] - np.cos(3 * xs[0])).max() < 1e-14


def test_component_and_mean(grid2):
    f = synth_random_field(grid2, 3, seed=0)
    assert f.components == 3
    assert f.component(1).components == 1
    # the mean mode of every component
    assert np.allclose(f.coeffs[:, 0, 0], 0.0, atol=1e-15)


def test_partial_derivative_matches_closed_form():
    g = make_grid(2, 16, side_length=4.0)
    kap = 2 * np.pi / 4.0
    f = field_from_function(g, lambda x, y: np.sin(kap * x) * np.cos(2 * kap * y))
    df = partial_derivative(f, 0)
    xs = g.coordinates()
    want = kap * np.cos(kap * xs[0]) * np.cos(2 * kap * xs[1])
    assert np.abs(df.sample()[0] - want).max() < 1e-12


def test_gradient_and_divergence_consistency(grid3):
    f = synth_random_field(grid3, 1, seed=5)
    grads = gradient(f)
    assert grads.components == 3
    for a in range(3):
        assert np.allclose(
            grads.coeffs[a], partial_derivative(f, a).coeffs[0], atol=0
        )
    # div grad = laplacian
    lap = -grid3.k_squared[None] * f.coeffs
    assert np.abs(divergence(grads).coeffs - lap).max() < 1e-12
    with pytest.raises(ValueError, match="one component per axis"):
        divergence(f)


def test_multiplier_symbols(grid2):
    # |kappa|^s on the lattice: sqrt(k^2) at s = 1, 1 at s = 0 off the mean
    # mode, 0 at the mean mode for every s, including negative ones
    assert np.allclose(grid2.k_power(1.0), np.sqrt(grid2.k_squared))
    off_mean = grid2.k_squared > 0
    assert np.array_equal(grid2.k_power(0.0), off_mean.astype(float))
    neg = grid2.k_power(-3.0)
    assert neg[0, 0] == 0.0
    assert np.allclose(neg[off_mean], grid2.k_squared[off_mean] ** -1.5)


def test_fractional_laplacian_closes_integer_power(grid2):
    f = synth_random_field(grid2, 1, seed=9)
    twice = grid2.k_power(2.0)[None] * f.coeffs
    lap = -grid2.k_squared[None] * f.coeffs
    assert np.abs(twice + lap).max() < 1e-12
    # Lambda^1 applied twice is Lambda^2
    once = grid2.k_power(1.0)[None] * f.coeffs
    assert np.abs(grid2.k_power(1.0)[None] * once - twice).max() < 1e-12


def test_leray_kills_divergence_and_is_idempotent(grid4):
    f = synth_random_field(grid4, 4, seed=11)
    p = leray_project(f)
    assert np.abs(divergence(p).coeffs).max() < 1e-13
    again = leray_project(p)
    assert np.abs(again.coeffs - p.coeffs).max() < 1e-14
    # gradients project to zero
    phi = synth_random_field(grid4, 1, seed=12)
    killed = leray_project(gradient(phi))
    assert np.abs(killed.coeffs).max() < 1e-13


def test_synth_divfree_seeded(grid3):
    f1 = synth_random_divfree(grid3, 3, seed=42)
    f2 = synth_random_divfree(grid3, 3, seed=42)
    assert np.array_equal(f1.coeffs, f2.coeffs)
    assert np.abs(divergence(f1).coeffs).max() < 1e-13
    # a real field: the k_last = 0 plane, the only one that can break it,
    # is Hermitian
    full = grid3.unfold(f1.coeffs)
    assert np.abs(full - reversed_conj(full, 3)).max() < 1e-12 * np.abs(full).max()
    with pytest.raises(ValueError):
        synth_random_divfree(grid3, 2, seed=0)


def test_synth_divfree_peak_memory_holds_no_full_complex_array():
    # the draw keeps each full-layout real array only at +k and -k of the
    # band, so one dim-4 M = 16 draw's traced peak stays below one real
    # array of the full layout plus four band fields (3.2 MiB measured;
    # 12.0 when the complex noise was symmetrised on the full layout)
    import tracemalloc

    g = make_grid(4, 16)
    one = synth_random_divfree(g, 4, seed=7).coeffs.nbytes
    full_real = 4 * 16**4 * 8
    tracemalloc.start()
    try:
        synth_random_divfree(g, 4, seed=7)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < full_real + 4 * one, (peak - full_real) / one


def test_synth_amplitude_normalization(grid2):
    from torusmhd.norms import l2_norm

    f = synth_random_field(grid2, 2, seed=1, amplitude=0.7)
    assert l2_norm(f) == pytest.approx(0.7, rel=1e-12)


def test_rescale_field_dilation_pointwise():
    # lam * f(lam x) on the shrunken torus, checked against direct samples
    g = make_grid(2, 16)
    f = synth_random_field(g, 1, seed=21)
    lam = 3
    rf = rescale_field(f, lam)
    assert rf.grid.side_length == pytest.approx(2 * np.pi / lam)
    m = 32
    xs_small = rf.grid.coordinates(m)
    vals = rf.sample(m)
    # evaluate f at lam*x via its own coefficient sum over the full lattice
    full = g.unfold(f.coeffs)
    k = np.fft.fftfreq(16, 1.0 / 16).astype(int)
    direct = np.zeros((m, m))
    for i, ki in enumerate(k):
        for j, kj in enumerate(k):
            c = full[0, i, j]
            if c == 0:
                continue
            direct = direct + np.real(
                c * np.exp(1j * lam * (ki * xs_small[0] + kj * xs_small[1]))
            )
    assert np.abs(vals[0] - lam * direct).max() < 1e-11
    with pytest.raises(ValueError):
        rescale_field(f, 0)
    with pytest.raises(ValueError):
        rescale_field(f, 1.5)


def test_arithmetic_and_compatibility(grid2):
    f = synth_random_field(grid2, 1, seed=30)
    h = synth_random_field(grid2, 1, seed=31)
    s = f + h - 0.5 * f
    assert np.allclose(s.coeffs, 0.5 * f.coeffs + h.coeffs)
    other = synth_random_field(make_grid(2, 32), 1, seed=30)
    with pytest.raises(ValueError):
        _ = f + other
    with pytest.raises(ValueError, match="does not match grid"):
        SpectralField(grid2, np.zeros((1, 3, 3)))
