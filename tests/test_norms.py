import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torusmhd.field import (
    SpectralField,
    partial_derivative,
    sample_part,
    synth_random_divfree,
    synth_random_field,
)
from torusmhd.grid import make_grid
from torusmhd.norms import (
    accumulate,
    energy,
    l2_norm,
    lp_norm,
    lp_norms,
    wxyz,
)

from conftest import field_from_function


def cos_field(grid):
    return field_from_function(grid, lambda *xs: np.cos(xs[0]) + 0 * xs[-1])


def test_lp_norm_cosine_closed_forms(grid2):
    f = cos_field(grid2)
    V = grid2.volume
    # int |cos|^p over one period: p=2 -> pi, p=4 -> 3pi/4 per 2pi of length
    assert lp_norm(f, 2) == pytest.approx(math.sqrt(V / 2), rel=1e-13)
    want4 = (2 * np.pi * (3 * np.pi / 4)) ** 0.25
    assert lp_norm(f, 4) == pytest.approx(want4, rel=1e-12)
    assert lp_norm(f, math.inf) == pytest.approx(1.0, rel=1e-10)


def test_lp_norm_odd_exponent_brute_force(grid2):
    f = synth_random_field(grid2, 2, seed=4)
    p = 3.7
    m = 96  # much finer than default padding
    vals = f.sample(m)
    mag = np.sqrt(np.sum(vals**2, axis=0))
    want = (grid2.quadrature(mag**p)) ** (1 / p)
    assert lp_norm(f, p, m_eval=m) == pytest.approx(want, rel=1e-14)
    # default padding is close for this smooth field
    assert lp_norm(f, p) == pytest.approx(want, rel=1e-6)


def test_lp_norms_keys_sharing_a_part_keep_their_own_sums(grid2):
    # "uv" and "ud" start on the same part and go on with different ones:
    # each adds into a buffer of its own, so neither sees the other's parts
    f = synth_random_field(grid2, 2, seed=9)
    u, v, du = ("f", None, 0), ("f", None, 1), ("f", 0, 0)
    got = lp_norms({"f": f}, {"uv": ([u, v], (3.0,)), "ud": ([u, du], (3.0,))})
    assert got["uv", 3.0] == lp_norm(f, 3.0)
    ud = np.concatenate((f.coeffs[:1], partial_derivative(f, 0).coeffs[:1]))
    assert got["ud", 3.0] == lp_norm(SpectralField(grid2, ud), 3.0)
    with pytest.raises(ValueError, match="distinct"):
        lp_norms({"f": f}, {"uu": ([u, u], (2.0,))})


def test_lp_norms_serve_a_repeated_exponent_once(grid2):
    # 4 and 4.0 are one exponent: asking twice gives the norm, not a sum
    f = synth_random_field(grid2, 2, seed=5)
    parts = [("f", None, c) for c in range(2)]
    once = lp_norms({"f": f}, {"f": (parts, (2.0, 4, math.inf))})
    twice = lp_norms({"f": f}, {"f": (parts, (2.0, 4, math.inf, 2.0, 4.0, math.inf))})
    assert twice == once


def test_lp_norms_stream_a_large_grid_in_slabs():
    # 144^3 points are three slabs for the pass's 3 arrays (one sum, one
    # part's samples, its half layout): the sup is the full-grid max exactly,
    # the quadrature adds the slabs' sums, and memory stays a few slabs deep
    g = make_grid(3, 72)
    m = g.eval_modes
    slabs = g.slabs(m, 3)
    assert len(slabs) == 3
    f = synth_random_field(g, 3, seed=72)
    parts = [("f", None, c) for c in range(3)]
    tracemalloc.start()
    try:
        got = lp_norms({"f": f}, {"f": (parts, (6.0, math.inf))})
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * len(range(m)[slabs[0]]) * m**2 * 8
    mag = np.sqrt(sum(sample_part(f, c) ** 2 for c in range(3)))
    assert got["f", math.inf] == mag.max()
    assert got["f", 6.0] == pytest.approx(g.quadrature(mag**6) ** (1 / 6), rel=1e-13)


def test_nan_exponents_are_refused(grid2):
    f = synth_random_field(grid2, 2, seed=4)
    with pytest.raises(ValueError, match="p must be"):
        lp_norm(f, float("nan"))
    with pytest.raises(ValueError, match="exponent r"):
        accumulate(None, None, 1.0, float("nan"), 0.0)


def test_l2_norm_parseval_equivalence(grid3):
    f = synth_random_field(grid3, 3, seed=6)
    assert l2_norm(f) == pytest.approx(lp_norm(f, 2), rel=1e-12)
    assert l2_norm(f) == pytest.approx(1.0, rel=1e-12)


def test_energy_additivity(grid2):
    u = synth_random_field(grid2, 2, seed=9, amplitude=0.6)
    b = synth_random_field(grid2, 2, seed=10, amplitude=0.8)
    assert energy(u, SpectralField.zeros(grid2, 2)) == pytest.approx(0.36, rel=1e-12)
    assert energy(u, b) == pytest.approx(0.36 + 0.64, rel=1e-12)


def test_wxyz_pointwise_orderings(grid4):
    u = synth_random_field(grid4, 4, seed=12)
    zero = SpectralField.zeros(grid4, 4)
    e = l2_norm(u) ** 2
    vals = wxyz(u, zero, plane=(0, 1))
    # plane gradient below full gradient, mixed weight below Laplacian,
    # and Cauchy-Schwarz between X and Z
    assert 0 < vals.W <= vals.X
    assert vals.Y <= vals.Z
    assert vals.X**2 <= e * vals.Z * (1 + 1e-12)
    with pytest.raises(ValueError):
        wxyz(u, zero, plane=(0, 0))
    u2 = synth_random_field(make_grid(2, 16), 2, seed=12)
    with pytest.raises(ValueError):
        wxyz(u2, SpectralField.zeros(u2.grid, 2))


def test_wxyz_single_mode_closed_form():
    g = make_grid(4, 12)
    import torusmhd.field as tf

    c = np.zeros((4,) + g.shape, dtype=complex)
    # divergence-free single mode: k = e_1, amplitude along axis 2
    c[2, 1, 0, 0, 0] = 0.5
    c[2, -1, 0, 0, 0] = 0.5
    u = tf.SpectralField(g, c)
    e = l2_norm(u) ** 2
    vals = wxyz(u, tf.SpectralField.zeros(g, 4), plane=(0, 1))
    assert vals.X == pytest.approx(e * 1.0, rel=1e-12)  # |k|^2 = 1
    assert vals.W == pytest.approx(e * 1.0, rel=1e-12)  # k lies in the plane
    assert vals.Z == pytest.approx(e * 1.0, rel=1e-12)


def test_wxyz_overflow_reads_inf_not_nan():
    # |c|^2 overflows to inf; the modes a functional weighs by zero (the
    # mean, and the free axes for W) must add 0.0, not 0 * inf = nan
    g = make_grid(4, 12)
    zero = SpectralField.zeros(g, 4)
    for seed in (3, 4):
        u = synth_random_divfree(g, 4, seed, amplitude=1e200)
        with np.errstate(over="ignore", invalid="raise"):
            vals = wxyz(u, zero)
        assert vals == (math.inf,) * 4, (seed, vals)
    # a finite state keeps the product's bits: each functional is the
    # weighted Parseval sum, zero-weight modes included as 0.0
    u = synth_random_divfree(g, 4, 3)
    b = synth_random_divfree(g, 4, 4, amplitude=0.6)
    k2p = g.wave_axes[0] ** 2 + g.wave_axes[1] ** 2
    k2 = g.k_squared
    want = [
        sum(g.parseval_sum(w * np.abs(f.coeffs) ** 2) for f in (u, b))
        for w in (k2p, k2, k2p * k2, k2 * k2)
    ]
    assert list(wxyz(u, b)) == want


def test_accumulate_trapezoid_matches_closed_form():
    # f(t) = t on [0, 1]: int f^r dt = 1/(r+1); trapezoid of t^2 with dt=1e-3
    dt = 1e-3
    n = 1000
    # the first record seeds the integral at 0, whatever the interval
    assert accumulate(None, None, 7.0, 2.0, dt) == 0.0
    total = prev = None
    for i in range(n + 1):
        total = accumulate(total, prev, i * dt, 2.0, dt if i else 0.0)
        prev = i * dt
    assert total == pytest.approx(1.0 / 3.0, abs=1e-6)


def test_accumulate_sup_mode():
    v = accumulate(None, None, 5.0, math.inf, 0.0)
    assert v == 5.0  # the first record seeds the sup
    v = accumulate(v, 5.0, 3.0, math.inf, 1.0)
    assert v == 5.0  # sup keeps the earlier maximum
    assert accumulate(v, 3.0, 9.0, math.inf, 1.0) == 9.0


def test_accumulate_sup_keeps_a_nan_record():
    # a NaN after a finite row turns the sup NaN, as it does an integral,
    # and a finite row after it leaves it NaN
    nan = float("nan")
    v = accumulate(1.0, 1.0, nan, math.inf, 0.1)
    assert math.isnan(v)
    assert math.isnan(accumulate(v, nan, 2.0, math.inf, 0.1))
    assert math.isnan(accumulate(1.0, 1.0, nan, 2.0, 0.1))
    # finite records keep their bits, signed zeros included
    assert math.copysign(1.0, accumulate(0.0, 0.0, -0.0, math.inf, 0.1)) == 1.0
    assert math.copysign(1.0, accumulate(-0.0, 0.0, 0.0, math.inf, 0.1)) == -1.0


def test_accumulate_overflow_is_inf():
    # finite records whose r-th power is past the float range
    assert accumulate(0.0, 1e200, 1e200, 2.0, 0.0) == 0.0  # a zero-width interval adds nothing
    assert accumulate(0.0, 1e200, 1e200, 2.0, 0.5) == math.inf
    assert accumulate(1e200, 1e200, 1e200, math.inf, 0.5) == 1e200


@settings(derandomize=True, deadline=None)
@given(
    acc=st.floats(min_value=0.0, allow_infinity=False),
    prev=st.floats(min_value=0.0, allow_infinity=False),
    rate=st.floats(min_value=0.0, allow_infinity=False),
    dt=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
)
def test_accumulate_at_r_one_is_the_plain_trapezoid(acc, prev, rate, dt):
    # a replay's ledger integrates the dissipation rate as this accumulator
    # at r = 1, so it must be the trapezoid step itself, bit for bit
    plain = acc + 0.5 * dt * (prev + rate)
    assert float(accumulate(acc, prev, rate, 1.0, dt)).hex() == plain.hex()
