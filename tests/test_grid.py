import numpy as np
import pytest
import scipy.fft as sfft
from hypothesis import given, settings, strategies as st

from torusmhd import grid as tgrid
from torusmhd.criteria import CriterionSpec, Theorem
from torusmhd.dynamics import SimConfig, compute_record
from torusmhd.field import synth_random_divfree, synth_random_field
from torusmhd.grid import Grid, make_grid, set_fft_workers

from conftest import reversed_conj


def test_make_grid_validation():
    with pytest.raises(ValueError):
        make_grid(5, 16)
    with pytest.raises(ValueError):
        make_grid(2, 6)
    with pytest.raises(ValueError):
        make_grid(2, 17)
    with pytest.raises(ValueError):
        make_grid(2, 16, side_length=0.0)
    g = make_grid(3, 12, side_length=3.0)
    assert g.band_limit == 4
    assert g.shape == (9, 9, 5)  # the band |k_a| <= 4, k_last >= 0
    assert g.volume == pytest.approx(27.0)
    assert g.eval_modes == 24


def test_raw_grid_allows_debug_bands():
    # the raw constructor is the escape hatch for deliberately aliased grids,
    # up to the widest band an M-point axis can store, K = M/2 - 1
    g = Grid(2, 16, 2 * np.pi, 7)
    assert g.band_limit == 7
    assert g.shape == (15, 8)
    with pytest.raises(ValueError):
        Grid(2, 16, 2 * np.pi, -1)
    with pytest.raises(ValueError, match="does not fit"):
        Grid(2, 16, 2 * np.pi, 8)
    # no sentinel band: make_grid is the one place that picks K = M // 3
    with pytest.raises(ValueError, match="band_limit"):
        Grid(2, 16, 2 * np.pi, 0)
    with pytest.raises(TypeError):
        Grid(2, 16)
    # a line is no torus the package builds
    with pytest.raises(ValueError, match="dim must be >= 2"):
        Grid(1, 16, 2 * np.pi, 5)
    with pytest.raises(ValueError, match="modes_per_axis"):
        Grid(2, 15, 2 * np.pi, 5)
    with pytest.raises(ValueError, match="side_length"):
        Grid(2, 16, 0.0, 5)


def test_wavenumbers_layout(grid2):
    # FFT order over the band: 0..K, then -K..-1
    k = grid2.wavenumbers
    kk = grid2.band_limit
    assert k[0] == 0 and k[1] == 1 and k[-1] == -1
    assert k.size == 2 * kk + 1 and k[kk] == kk and k[kk + 1] == -kk
    assert k.min() == -kk and k.max() == kk


def test_band_mask_counts(grid2):
    # (2K+1)^(dim-1) (K+1) stored modes: the band is the layout
    for g in (grid2, make_grid(4, 12)):
        kk = 2 * g.band_limit + 1
        assert g.shape == (kk,) * (g.dim - 1) + (g.band_limit + 1,)
        assert np.prod(g.shape) == kk ** (g.dim - 1) * (g.band_limit + 1)


def test_sample_analyze_roundtrip(grid2):
    c = _banded(grid2, 0)
    vals = grid2.sample(c)
    back = grid2.analyze(vals)
    assert np.abs(back - c).max() < 1e-13


def test_sample_matches_direct_sum():
    g = make_grid(2, 8)
    c = np.zeros((1,) + g.shape, dtype=complex)
    c[0, 1, 2] = 0.3 - 0.2j  # its partner c[-1, -2] = 0.3 + 0.2j is implied
    xs = g.coordinates(g.eval_modes)
    direct = 2 * np.real((0.3 - 0.2j) * np.exp(1j * (xs[0] + 2 * xs[1])))
    assert np.abs(g.sample(c)[0] - direct).max() < 1e-13


def test_embed_then_truncate_returns_the_band(grid2):
    rng = np.random.default_rng(1)
    c = rng.standard_normal((3,) + grid2.shape) + 1j * rng.standard_normal((3,) + grid2.shape)
    kk = grid2.band_limit
    for wide in (make_grid(2, 48), Grid(2, 20, grid2.side_length, kk)):
        up = grid2.embed(c, wide)
        assert up.shape == (3,) + wide.shape
        # the band sits at k mod 2K' + 1, and nothing else is filled
        k = grid2.wavenumbers
        assert np.array_equal(up[:, k % (2 * wide.band_limit + 1)][..., : kk + 1], c)
        assert np.count_nonzero(up) == np.count_nonzero(c)
        assert np.array_equal(wide.embed(up, grid2), c)
    with pytest.raises(ValueError):
        grid2.embed(c, make_grid(3, 16))


def test_analyze_gathers_the_sampled_band(grid2):
    # analyze keeps the band of an rfftn by gather, from any m >= M points
    c = synth_random_field(grid2, 3, seed=1).coeffs
    for m in (grid2.modes_per_axis, 48):
        back = grid2.analyze(grid2.sample(c, m))
        assert back.shape == c.shape
        assert np.abs(back - c).max() <= 1e-13 * np.abs(c).max()


def _unpruned_sample(g, coeffs, m_eval=None, rows=None):
    # the band placed by the index map into the m half layout, then one
    # batched irfftn over every line of it, cut to ``rows``: the reference
    # the pruned passes of Grid.sample must reproduce bit for bit
    m = m_eval or g.eval_modes
    lead = coeffs.ndim - g.dim
    spread = np.zeros(
        coeffs.shape[:lead] + (m,) * (g.dim - 1) + (m // 2 + 1,), dtype=complex
    )
    spread[g._embedding(lead, m)] = coeffs
    return sfft.irfftn(
        spread, s=(m,) * g.dim, axes=tuple(range(lead, coeffs.ndim)),
        norm="forward", workers=tgrid._FFT_WORKERS,
    )[(slice(None),) * lead + (rows or slice(None),)]


@pytest.mark.parametrize("dim,m", [(2, 16), (3, 12), (4, 8), (4, 12)])
def test_pruned_sample_is_the_unpruned_irfftn_bit_for_bit(dim, m):
    rng = np.random.default_rng(dim * m)
    for k in sorted({1, m // 3, (m - 1) // 2}):
        g = Grid(dim, m, 2 * np.pi, k)
        sizes = {m, g.eval_modes} | {
            g.alias_free_modes(degree, band) for degree in (2, 3, 4) for band in (0, k)
        }
        for m_eval in sorted(s for s in sizes if s <= 2 * m):
            for lead in ((1,), (3,), (2, 2)):
                shape = lead + g.shape
                c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                got = g.sample(c, m_eval)
                assert got.shape == lead + (m_eval,) * dim
                assert np.array_equal(got, _unpruned_sample(g, c, m_eval)), (k, m_eval, lead)
    with pytest.raises(ValueError):
        g.sample(c, m - 2)


def test_sample_rows_are_the_full_sample_rows():
    # a slab is cut after the first pass; every later pass and the closing
    # irfft run line by line, so the rows come out as the same bits
    for dim, m in ((2, 16), (3, 12), (4, 8)):
        g = make_grid(dim, m)
        rng = np.random.default_rng(dim * m + 1)
        sizes = {g.eval_modes} | {
            g.alias_free_modes(degree, band)
            for degree in (2, 3, 4) for band in (0, g.band_limit)
        }
        for m_eval in sorted(sizes):
            blocks = (slice(0, 1), slice(m_eval - 1, m_eval),
                      slice(m_eval // 3, m_eval // 3 + m_eval // 4), slice(0, m_eval))
            for lead in ((1,), (3,)):
                c = rng.standard_normal(lead + g.shape) + 1j * rng.standard_normal(lead + g.shape)
                full = g.sample(c, m_eval)
                for rows in blocks:
                    got = g.sample(c, m_eval, rows)
                    want = full[(slice(None),) * len(lead) + (rows,)]
                    assert np.array_equal(got, want), (dim, m_eval, lead, rows)


def _check_slabs(dim, m, arrays, slabs):
    # the rows once, in order, at most 8 slabs of ceil(m/n) rows but the
    # last, and within 2^22 point-arrays unless the cap of ceil(m/8) rows
    # binds, which can leave fewer than 8 slabs (m = 49: 7 of 7 rows)
    assert [r for rows in slabs for r in range(m)[rows]] == list(range(m))
    assert len(slabs) <= 8
    rows = -(-m // len(slabs))
    assert all(len(range(m)[s]) == rows for s in slabs[:-1])
    assert rows == -(-m // 8) or rows * m ** (dim - 1) * arrays <= 2**22


def test_slabs_cover_the_rows_once_in_order():
    # as few slabs as keep the pass's arrays within 2^22 points, at most 8:
    # the monitor's dim-4 M = 16 record (5 arrays) is 2, a dim-3 M = 48 one
    # (3 arrays) 1, and the dissipative identity's 2048^2 grid (5) is 6
    counts = {(4, 16, 32, 5): 2, (3, 48, 96, 3): 1, (2, 8, 2048, 5): 6,
              (4, 32, 64, 5): 8, (4, 48, 96, 5): 8}
    for (dim, modes, m, arrays), count in counts.items():
        assert len(make_grid(dim, modes).slabs(m, arrays)) == count, (dim, modes, m)
    for dim in (2, 3, 4):
        g = make_grid(dim, 8)
        for m in (8, 24, 49, 50, 96, 144, 2048):
            for arrays in (1, 3, 5, 8):
                _check_slabs(dim, m, arrays, g.slabs(m, arrays))


@settings(derandomize=True, deadline=None, max_examples=30)
@given(data=st.data())
def test_slab_and_roundtrip_properties(data):
    dim = data.draw(st.sampled_from((2, 3, 4)), label="dim")
    modes = data.draw(st.sampled_from({2: (8, 10, 16, 24), 3: (8, 12, 16), 4: (8, 10)}[dim]))
    g = make_grid(dim, modes)
    c = synth_random_field(g, 1, data.draw(st.integers(0, 2**16), label="seed")).coeffs
    m = g.eval_modes
    start = data.draw(st.integers(0, m - 1), label="start")
    rows = slice(start, data.draw(st.integers(start + 1, m), label="stop"))
    assert np.array_equal(g.sample(c, m, rows), g.sample(c, m)[:, rows])
    back = g.analyze(g.sample(c, modes))
    assert np.abs(back - c).max() <= 1e-13 * np.abs(c).max()
    m_slab = data.draw(st.integers(2, 2048), label="m_slab")
    arrays = data.draw(st.integers(1, 8), label="arrays")
    _check_slabs(dim, m_slab, arrays, g.slabs(m_slab, arrays))


def test_sample_peak_memory_is_the_output_and_one_half_layout():
    # each pruned pass lives on a band-sized array until the last, whose
    # m-point half layout the irfft reads without a padding copy: one dim-4
    # M = 16 component on eval_modes and u, b on the product grid both peak
    # at the output, one half layout and about a kilobyte of array headers
    import tracemalloc

    g = make_grid(4, 16)
    rng = np.random.default_rng(16)
    for lead, m in ((1, g.eval_modes), (8, g.alias_free_modes(2, g.band_limit))):
        c = rng.standard_normal((lead,) + g.shape) + 0j
        values = lead * m**4 * 8
        half = lead * m ** (g.dim - 1) * (m // 2 + 1) * 16
        tracemalloc.start()
        try:
            g.sample(c, m)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < values + half + c.nbytes, (lead, peak - values - half)


def test_record_is_the_unpruned_record(monkeypatch):
    # every L^p norm of a criterion record, the pressure solve's product-grid
    # sample included, is the same float as with the unpruned transform
    g = make_grid(4, 12)
    u = synth_random_divfree(g, 4, 12)
    b = synth_random_divfree(g, 4, 112, amplitude=0.5)
    cfg = SimConfig(
        dim=4,
        modes_per_axis=12,
        criteria=(
            CriterionSpec(Theorem.T1_4, smallness=True),
            CriterionSpec(Theorem.T1_5, pairs=(("dpi3", (3, 2)), ("dpi4", (3, 2)))),
        ),
        monitor_bootstrap=True,
    )
    got = compute_record(u, b, cfg)
    monkeypatch.setattr(Grid, "sample", _unpruned_sample)
    want = compute_record(u, b, cfg)
    assert got == want
    assert {"L2.4_grad_b", "L3_dpi4", "gradu_LN", "gradb_LN"} <= set(got)


def test_monitor_record_streams_in_two_slabs(monkeypatch):
    # the monitor's dim-4 M = 16 record (T1.4 smallness, T1.5, bootstrap)
    # keeps three sums open, so its 32^4 points stream in 2 slabs: the traced
    # peak stays under 24 MiB (40.8 as one slab), and the norms are the
    # one-slab norms but for the order their slab quadratures are added in
    import tracemalloc

    g = make_grid(4, 16)
    u = synth_random_divfree(g, 4, 7)
    b = synth_random_divfree(g, 4, 107, amplitude=0.5)
    cfg = SimConfig(
        dim=4,
        modes_per_axis=16,
        criteria=(
            CriterionSpec(Theorem.T1_4, smallness=True),
            CriterionSpec(Theorem.T1_5, pairs=(("dpi3", (3, 2)), ("dpi4", (3, 2)))),
        ),
        monitor_bootstrap=True,
    )
    tracemalloc.start()
    try:
        got = compute_record(u, b, cfg)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 24 * 2**20, peak / 2**20
    monkeypatch.setattr(Grid, "slabs", lambda self, m, arrays: [slice(0, m)])
    whole = compute_record(u, b, cfg)
    assert got.keys() == whole.keys()
    exact = {"energy", "W", "X", "Y", "Z"}
    assert {k: got[k] for k in exact} == {k: whole[k] for k in exact}
    for col in got.keys() - exact:
        assert got[col] == pytest.approx(whole[col], rel=1e-14, abs=0), col


def test_quadrature_parseval(grid2):
    c = _banded(grid2, 2)
    vals = grid2.sample(c)
    # int |f|^2 = V * sum |c_k|^2 over the full lattice for band-limited f
    # on the padded grid
    lhs = grid2.quadrature(vals**2)
    rhs = grid2.volume * float(np.sum(np.abs(grid2.unfold(c)) ** 2))
    assert lhs == pytest.approx(rhs, rel=1e-13)


def test_quadrature_constant():
    g = make_grid(3, 8, side_length=2.0)
    vals = np.full((16, 16, 16), 1.5)
    assert g.quadrature(vals) == pytest.approx(1.5 * 8.0, rel=1e-14)


def test_fft_workers_roundtrip():
    old = tgrid._FFT_WORKERS
    try:
        set_fft_workers(2)
        assert tgrid._FFT_WORKERS == 2
        set_fft_workers(None)
        assert tgrid._FFT_WORKERS == -1
    finally:
        set_fft_workers(old if old > 0 else None)


@pytest.mark.parametrize(
    "m,degree,band,want",
    [
        (16, 2, 5, 16),
        (16, 2, 10, 22),
        (16, 4, 0, 22),
        (16, 3, 0, 16),
        (12, 3, 0, 14),
        (12, 2, 4, 14),
        (48, 2, 16, 50),
    ],
)
def test_alias_free_modes_table(m, degree, band, want):
    g = make_grid(3, m)
    assert g.alias_free_modes(degree, band) == want


def test_alias_free_modes_has_no_cliff():
    # at M = 24 the 3K = M product grid used to double to 48
    sizes = {m: make_grid(4, m).alias_free_modes(2, m // 3) for m in (24, 32)}
    assert sizes[24] < sizes[32]


def _banded(g, seed):
    # symmetrised on the full (M,)*dim layout, then gathered to the stored band
    rng = np.random.default_rng(seed)
    shape = (1,) + (g.modes_per_axis,) * g.dim
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return g.gather(0.5 * (c + reversed_conj(c, g.dim)), g.modes_per_axis)


@pytest.mark.parametrize("dim,m", [(2, 12), (2, 16), (3, 12)])
def test_alias_free_modes_are_exact(dim, m):
    g = make_grid(dim, m)
    k = g.band_limit
    a, b = _banded(g, 3), _banded(g, 4)
    ref_m = 4 * m
    for band in (k, 2 * k):
        size = g.alias_free_modes(2, band)
        fine = Grid(dim, size, g.side_length, band)
        got = fine.analyze(g.sample(a, size) * g.sample(b, size))
        ref = Grid(dim, ref_m, g.side_length, band)
        want = ref.analyze(g.sample(a, ref_m) * g.sample(b, ref_m))
        assert np.abs(got - want).max() < 1e-13 * np.abs(want).max()
    size = g.alias_free_modes(4, 0)
    quartic = g.quadrature((g.sample(a, size) * g.sample(b, size)) ** 2)
    exact = g.quadrature((g.sample(a, ref_m) * g.sample(b, ref_m)) ** 2)
    assert quartic == pytest.approx(exact, rel=1e-13)
    c = _banded(g, 5)
    size = g.alias_free_modes(3, 0)
    cubic = g.quadrature(g.sample(a, size) * g.sample(b, size) * g.sample(c, size))
    exact = g.quadrature(g.sample(a, ref_m) * g.sample(b, ref_m) * g.sample(c, ref_m))
    assert cubic == pytest.approx(exact, rel=1e-13)
    if 3 * k >= m:
        # the base grid itself aliases the stress back into the band
        prod = g.analyze(g.sample(a, m) * g.sample(b, m))
        size = g.alias_free_modes(2, k)
        exact_prod = g.analyze(g.sample(a, size) * g.sample(b, size))
        assert np.abs(prod - exact_prod).max() > 1e-6
