import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from torusmhd.dynamics import InitialCondition, initial_state, pressure_solve, taylor_green_state
from torusmhd.field import SpectralField, sample_part, synth_random_divfree, synth_random_field
from torusmhd.grid import Grid, make_grid
from torusmhd.norms import l2_norm
from torusmhd.verify import (
    LpBalanceData,
    VerificationReport,
    _balance_terms,
    balance_run_config,
    band_pair,
    check_commutator,
    check_dissipative_identity,
    check_lp_pressure_balance,
    check_nonlinear_split,
    check_prop31,
    check_scaling,
    check_troisi,
    collect_lp_balance,
    commutator_ensemble,
    commutator_leibniz_report,
    dissipative_analytic_quartic,
    dissipative_ensemble,
    elementary_report,
    nonlinear_split_ensemble,
    prop31_aliased_control,
    prop31_divfree_control,
    prop31_ensemble,
    refinement_drift,
    run_suite,
    scaling_report,
    suite_passed,
    troisi_dilation_identity,
    windowed_field,
)

from conftest import reversed_conj

# ------------------------------------------------------------------ reports


def test_report_kinds_and_pass_logic():
    ok = VerificationReport("a", "identity", (1e-12, 3e-11), threshold=1e-10)
    assert ok.passed and ok.max == 3e-11 and ok.n == 2
    bad = VerificationReport("a", "identity", (1e-9,), threshold=1e-10)
    assert not bad.passed
    assert VerificationReport("r", "ratio", (2.0, 0.3)).passed
    assert not VerificationReport("r", "ratio", (math.inf,)).passed
    ctrl = VerificationReport("c", "negative_control", (0.5, 0.2), threshold=1e-3)
    assert ctrl.passed
    weak = VerificationReport("c", "negative_control", (0.5, 1e-5), threshold=1e-3)
    assert not weak.passed
    assert not VerificationReport("e", "identity", (), threshold=1.0).passed
    with pytest.raises(ValueError, match="kind"):
        VerificationReport("x", "equality", (0.0,))
    text = ok.summary()
    assert "check: a" in text and "result: pass" in text
    assert "result: FAIL" in bad.summary()


def test_refinement_drift_arithmetic():
    a = VerificationReport("a", "ratio", (1.0,))
    b = VerificationReport("b", "ratio", (1.05,))
    assert refinement_drift(a, b) == pytest.approx(0.05 / 1.05)


# --------------------------------------------------------------- elementary


def test_elementary_inequality():
    rep = elementary_report(200, seed=1)
    assert rep.kind == "ratio" and rep.threshold == 1.0
    assert rep.passed
    with pytest.raises(ValueError):
        elementary_report(0)


# ------------------------------------------------------- windowed functions


def test_windowed_family_reproducible(grid2):
    f1 = windowed_field(grid2, seed=7)
    f2 = windowed_field(grid2, seed=7)
    assert np.array_equal(f1.coeffs, f2.coeffs)
    f3 = windowed_field(grid2, seed=8)
    assert not np.array_equal(f1.coeffs, f3.coeffs)
    full = grid2.unfold(f1.coeffs)
    assert np.abs(full - reversed_conj(full, 2)).max() < 1e-12 * np.abs(full).max()


def test_troisi_ratios_finite(grid2):
    rep = check_troisi(grid2, 4, seed=0)
    assert rep.kind == "ratio"
    assert rep.n >= 1
    assert all(math.isfinite(s) and s > 0 for s in rep.samples)
    again = check_troisi(grid2, 4, seed=0)
    assert rep.samples == again.samples
    with pytest.raises(ValueError):
        check_troisi(grid2, 0, seed=0)


def test_troisi_dilation_invariance():
    rep = troisi_dilation_identity()
    assert rep.passed
    assert rep.samples[0] < 1e-12


# --------------------------------------------------------------- commutator


def test_commutator_leibniz_is_exact_2d():
    rep = commutator_leibniz_report(2, seed=0, modes_per_axis=16, dim=2)
    assert rep.passed
    assert rep.max < 1e-11


def test_commutator_leibniz_report_takes_no_sup(monkeypatch):
    # the identity compares coefficients only; the estimate's sups are not needed
    import torusmhd.verify as tv

    calls = []
    lp_norm = tv.lp_norm
    monkeypatch.setattr(tv, "lp_norm", lambda *a, **k: calls.append(a) or lp_norm(*a, **k))
    rep = commutator_leibniz_report(1, seed=0, modes_per_axis=16, dim=2)
    assert rep.passed
    assert calls == []


def test_commutator_validation(grid2, grid3):
    f, g = band_pair(grid2, seed=0)
    with pytest.raises(ValueError, match="positive"):
        check_commutator(f, g, 0.0)
    h = synth_random_field(grid3, 1, seed=0)
    with pytest.raises(ValueError, match="grid"):
        check_commutator(f, h, 2.0)
    vec = synth_random_divfree(grid2, 2, seed=0)
    with pytest.raises(ValueError, match="scalar"):
        check_commutator(vec, g, 2.0)


def test_band_pair_content_is_grid_independent():
    coarse = make_grid(2, 16)
    fine = make_grid(2, 32)
    f16, g16 = band_pair(coarse, seed=5)
    f32, g32 = band_pair(fine, seed=5)
    assert l2_norm(f16) == pytest.approx(l2_norm(f32), rel=1e-14)
    assert l2_norm(g16) == pytest.approx(l2_norm(g32), rel=1e-14)
    tiny = make_grid(2, 8)
    with pytest.raises(ValueError, match="band"):
        band_pair(tiny, seed=5)
    r16 = check_commutator(f16, g16, 2.5, sup_modes=64).samples[0]
    r32 = check_commutator(f32, g32, 2.5, sup_modes=64).samples[0]
    assert r16 == pytest.approx(r32, rel=1e-12)


# ------------------------------------------------- plane-split decomposition


def test_prop31_identities(grid4):
    u = synth_random_divfree(grid4, 4, seed=1)
    b = synth_random_divfree(grid4, 4, seed=2, amplitude=0.7)
    for mode in ("identity_22", "identity_30_line1"):
        rep = check_prop31(u, b, mode)
        assert rep.passed, rep.summary()
        assert rep.max < 1e-10
    # hydrodynamic specialisation
    rep = check_prop31(u, SpectralField.zeros(grid4, 4), "identity_22")
    assert rep.passed


def test_prop31_bounds(grid4):
    u = synth_random_divfree(grid4, 4, seed=1)
    b = synth_random_divfree(grid4, 4, seed=2, amplitude=0.7)
    for mode in ("bound_20", "bound_21"):
        rep = check_prop31(u, b, mode)
        assert rep.passed
        assert math.isfinite(rep.samples[0])
        # empirical constants sit well below 1 for smooth data
        assert rep.samples[0] < 1.0


def test_prop31_bounds_share_one_pairing(grid4):
    # both bounds read the same in-plane pairing, whichever majorant is made
    for seed in (1, 2, 3):
        u = synth_random_divfree(grid4, 4, seed=seed)
        b = synth_random_divfree(grid4, 4, seed=seed + 1, amplitude=0.7)
        lhs = [check_prop31(u, b, mode).details[0]["lhs"] for mode in ("bound_20", "bound_21")]
        assert lhs[0] == lhs[1], (seed, [x.hex() for x in lhs])


def test_prop31_degenerate_flow_zeroes_the_ratio(grid4):
    # planar vortex: both free components vanish, majorant and pairing with it
    st = taylor_green_state(grid4)
    rep = check_prop31(st.u, st.b, "bound_20")
    assert rep.samples[0] == 0.0


def test_prop31_validation(grid2, grid4):
    u2 = synth_random_divfree(grid2, 2, seed=0)
    with pytest.raises(ValueError, match="dimension 4"):
        check_prop31(u2, SpectralField.zeros(grid2, 2), "identity_22")
    u = synth_random_divfree(grid4, 4, seed=1)
    zero = SpectralField.zeros(grid4, 4)
    with pytest.raises(ValueError, match="mode"):
        check_prop31(u, zero, "identity_99")
    scal = synth_random_field(grid4, 1, seed=3)
    with pytest.raises(ValueError, match="components"):
        check_prop31(scal, zero, "identity_22")
    from torusmhd.field import gradient

    contaminated = u + gradient(scal)
    with pytest.raises(ValueError, match="divergence"):
        check_prop31(contaminated, zero, "identity_22")


def test_prop31_negative_controls():
    ctrl = prop31_divfree_control(1, seed=42, modes_per_axis=12)
    assert ctrl.kind == "negative_control"
    assert ctrl.passed
    assert min(ctrl.samples) > 1e-3
    aliased = prop31_aliased_control(seed=42, modes_per_axis=12)
    assert aliased.passed
    assert aliased.samples[0] > 1e-3
    # the band-5 field aliases the same cubic it did when it was stored on
    # the M = 12 layout (the residual measured then)
    assert aliased.samples[0] == pytest.approx(0.02632904099048316, rel=1e-12)


def test_prop31_pinned_on_grid4(grid4, sample_calls):
    # the bound ratios and control residuals of fixed fields, and the
    # components each report hands to Grid.sample, summed
    u = synth_random_divfree(grid4, 4, seed=1)
    b = synth_random_divfree(grid4, 4, seed=2, amplitude=0.7)
    zero = SpectralField.zeros(grid4, 4)
    ratios = {
        ("bound_20", True): 0.0005888636648100374,
        ("bound_20", False): 0.0027644232749479197,
        ("bound_21", True): 0.0018789672486843629,
        ("bound_21", False): 0.0037301084749236145,
    }
    for (mode, with_b), want in ratios.items():
        rep = check_prop31(u, b if with_b else zero, mode)
        assert rep.samples[0] == pytest.approx(want, rel=1e-12), (mode, with_b)
    assert check_prop31(u, zero, "identity_30_line1").samples == (0.0,)

    def components(run):
        sample_calls.clear()
        run()
        return sum(lead for lead, _m in sample_calls)

    counts = {
        "identity_22": components(lambda: check_prop31(u, b, "identity_22")),
        "identity_22_no_b": components(lambda: check_prop31(u, zero, "identity_22")),
        "identity_30_line1": components(lambda: check_prop31(u, b, "identity_30_line1")),
        "identity_30_line1_no_b": components(lambda: check_prop31(u, zero, "identity_30_line1")),
        "nonlinear_split": components(lambda: check_nonlinear_split(u)),
        "bound_20": components(lambda: check_prop31(u, b, "bound_20")),
        "bound_21": components(lambda: check_prop31(u, b, "bound_21")),
    }
    controls = {}
    counts["divfree_control"] = components(
        lambda: controls.update(divfree=prop31_divfree_control(1, 42, 12).samples[0])
    )
    counts["aliased_control"] = components(
        lambda: controls.update(aliased=prop31_aliased_control(42, 12).samples[0])
    )
    assert controls["divfree"] == pytest.approx(0.38128538329616585, rel=1e-12)
    assert controls["aliased"] == pytest.approx(0.02632904099048115, rel=1e-12)
    # values of u and b, 16 first derivatives each, and each second
    # derivative at most once: identity 22 samples b's derivatives for the
    # gauge only, a zero b is not sampled, and bound 20 samples its
    # Hessians' entries, d_0 d_1 = d_1 d_0 once (7 axis pairs of 4
    # components per field), apart from the pairing's plane Laplacians
    assert counts == {
        "identity_22": 4 + 16 + 4 + 4 + 16,
        "identity_22_no_b": 4 + 16 + 4 + 4,
        "identity_30_line1": 2 * (4 + 16 + 4),
        "identity_30_line1_no_b": 16,
        "nonlinear_split": 4 + 16 + 4,
        "bound_20": 2 * (4 + 16 + 28 + 4),
        "bound_21": 2 * (4 + 16 + 4),
        "divfree_control": 4 + 16 + 4 + 4,
        "aliased_control": 4 + 16 + 4 + 4,
    }


def test_nonlinear_split_identity(grid4):
    u = synth_random_divfree(grid4, 4, seed=4)
    rep = check_nonlinear_split(u)
    assert rep.passed
    assert rep.max < 1e-10
    with pytest.raises(ValueError, match="dim 4"):
        check_nonlinear_split(synth_random_divfree(make_grid(2, 16), 2, seed=4))


def test_exact_quadratures_sample_on_the_rule(monkeypatch):
    g = make_grid(4, 16)
    u = synth_random_divfree(g, 4, seed=1)
    b = synth_random_divfree(g, 4, seed=2, amplitude=0.7)
    f = synth_random_field(g, 1, seed=3)
    sizes = []
    sample = Grid.sample

    def recording(self, coeffs, m_eval=None, rows=None):
        sizes.append(m_eval or self.eval_modes)
        return sample(self, coeffs, m_eval, rows)

    monkeypatch.setattr(Grid, "sample", recording)
    # the cubic identities and the split, on 3K + 1 = 16 points
    reports = [check_prop31(u, b, mode) for mode in ("identity_22", "identity_30_line1")]
    reports.append(check_nonlinear_split(u))
    assert set(sizes) == {g.alias_free_modes(3, 0)} == {16}
    for p in (2.0, 4.0):
        sizes.clear()
        rep = check_dissipative_identity(f, p)
        reports.append(rep)
        assert set(sizes) == {g.alias_free_modes(int(p), 0)}
        assert rep.details[0]["m_quad"] == g.alias_free_modes(int(p), 0)
    assert all(r.passed for r in reports), [r.summary() for r in reports]


# ------------------------------------------------------ dissipative identity


def test_dissipative_identity_exact_cases(grid2):
    f = synth_random_field(grid2, 1, seed=6)
    rep = check_dissipative_identity(f, 2.0)
    assert rep.passed and rep.max < 1e-11
    rep4 = dissipative_analytic_quartic()
    assert rep4.passed
    exact = 3.0 * (2.0 * math.pi) ** 4 / 8.0
    assert rep4.details[0]["exact"] == pytest.approx(exact, rel=0, abs=0)
    assert rep4.details[0]["lhs"] == pytest.approx(exact, rel=1e-10)
    with pytest.raises(ValueError):
        check_dissipative_identity(f, 1.0)
    vec = synth_random_divfree(grid2, 2, seed=7)
    with pytest.raises(ValueError, match="scalar"):
        check_dissipative_identity(vec, 3.0)


def test_dissipative_identity_streams_its_2048_grid():
    # pad 256 on the 2-torus: 2048^2 points in six slabs for the identity's 5
    # arrays, whose quadratures add up to both sides as quadratured over the
    # whole grid at once
    f = synth_random_field(make_grid(2, 8), 1, 7, decay=4.0)
    assert len(f.grid.slabs(2048, 5)) == 6
    tracemalloc.start()
    try:
        rep = check_dissipative_identity(f, 3.0, m_quad=2048)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 80 * 2**20
    whole = {"lhs": float.fromhex("0x1.f1d14f3232915p-3"), "rhs": float.fromhex("0x1.f1d14f01e139cp-3")}
    for side, want in whole.items():
        assert rep.details[0][side] == pytest.approx(want, rel=1e-14), side
    # a difference of near-equal sides: one last bit of lhs moves it ~1e-8
    assert rep.passed and rep.max < 1e-6


def test_dissipative_fractional_refinement():
    maxima = [
        dissipative_ensemble(3.0, 2, seed=3, modes_per_axis=8, pad=pad).max
        for pad in (16, 64, 256)
    ]
    assert maxima[0] > maxima[1] > maxima[2]
    assert maxima[2] < 1e-6


# ------------------------------------------------------------------ scaling


def test_scaling_laws(grid2):
    rep = scaling_report(seed=0)
    assert rep.passed
    assert rep.max < 1e-11
    u = synth_random_divfree(grid2, 2, seed=1)
    single = check_scaling(u, SpectralField.zeros(grid2, 2), 2)
    assert single.passed


# --------------------------------------------------------------- lp balance


def synthetic_balance(majorant_factor: float) -> LpBalanceData:
    p = 4.0
    times = tuple(0.1 * k for k in range(5))
    a = tuple(2.0 + t * t for t in times)  # d/dt is exact under centered diff
    diss = (1.5,) * 5
    press = tuple(2.0 * t / p + 1.5 for t in times)
    major = tuple(abs(v) * majorant_factor for v in press)
    return LpBalanceData(2, p, 2.0, 0.2, times, a, diss, press, major)


def test_lp_balance_check_logic():
    good = check_lp_pressure_balance(synthetic_balance(1.1))
    assert good.passed
    assert good.max < 1e-12
    undominated = check_lp_pressure_balance(synthetic_balance(0.5))
    assert not undominated.passed
    # each undominated record is an inf sample against the usual threshold,
    # its residual kept in the details
    assert undominated.threshold == 1e-4 and undominated.max == math.inf
    assert "max: inf" in undominated.summary()
    assert all(d["residual"] < 1e-12 and not d["dominated"] for d in undominated.details)
    with pytest.raises(ValueError, match="three records"):
        check_lp_pressure_balance(
            LpBalanceData(2, 4.0, 2.0, 0.2, (0.0, 0.1), (1.0, 1.0), (0.0,) * 2, (0.0,) * 2, (0.0,) * 2)
        )
    bad_t = LpBalanceData(
        2, 4.0, 2.0, 0.2, (0.0, 0.1, 0.3), (1.0,) * 3, (0.0,) * 3, (0.0,) * 3, (0.0,) * 3
    )
    with pytest.raises(ValueError, match="uniform"):
        check_lp_pressure_balance(bad_t)


def test_balance_input_validation():
    cfg = balance_run_config()
    with pytest.raises(ValueError, match="p > 2"):
        collect_lp_balance(cfg, 2, 2.0, 1.5)
    with pytest.raises(ValueError, match="q must lie"):
        collect_lp_balance(cfg, 2, 4.0, 4.0)
    magnetic = dataclasses.replace(
        cfg,
        initial=InitialCondition(preset="random_divfree", seed=1, b_amplitude=0.5),
    )
    with pytest.raises(ValueError, match="hydrodynamic"):
        collect_lp_balance(magnetic, 2, 6.5, 2.0)
    misaligned = dataclasses.replace(cfg, record_every=1, snapshot_every=2)
    with pytest.raises(ValueError, match="align"):
        collect_lp_balance(misaligned, 2, 6.5, 2.0)


def test_lp_balance_holds_along_a_short_run():
    # the suite-all check end to end on a short run; at M = 8 the residual
    # (1.6e-4) exceeds the threshold, at M = 12 it is 2.4e-5
    data = collect_lp_balance(balance_run_config(t_end=0.006, modes_per_axis=12), 2, 6.5, 2.0)
    assert len(data.times) == 7
    report = check_lp_pressure_balance(data)
    assert report.passed, max(report.samples)
    assert all(d["dominated"] for d in report.details)


def full_grid_balance_terms(u, pi, component, p, q, nu):
    """The four balance terms as full-grid quadratures on eval_modes."""
    g = u.grid
    m = g.eval_modes
    us = sample_part(u, component, m_eval=m)
    absu = np.abs(us)
    lp_pow = float(g.quadrature(absu**p))
    grads = np.stack([sample_part(u, component, a, m) for a in range(g.dim)])
    diss = nu * (p - 1.0) * float(g.quadrature(absu ** (p - 2.0) * (grads**2).sum(axis=0)))
    dpi = sample_part(pi, 0, component, m)
    press = -float(g.quadrature(dpi * absu ** (p - 2.0) * us))
    pq = (p - 1.0) * (q / (q - 1.0))
    dpi_q = g.quadrature(np.abs(dpi) ** q) ** (1.0 / q)
    u_pq = g.quadrature(absu**pq) ** (1.0 / pq)
    return lp_pow, diss, press, dpi_q * u_pq ** (p - 1.0)


def test_balance_terms_match_full_grid_quadratures():
    # the balance run's initial state at M = 16: one L^p pass and one slab
    # pass give the full-grid terms, in a fraction of their memory
    cfg = balance_run_config()
    st = initial_state(cfg)
    pi = pressure_solve(st.u, st.b)
    args = (st.u, pi, 2, 6.5, 2.0, cfg.nu)
    want = full_grid_balance_terms(*args)
    tracemalloc.start()
    try:
        got = _balance_terms(*args)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    for name, a, b in zip(("lp_power", "dissipation", "pressure", "majorant"), got, want):
        assert a == pytest.approx(b, rel=1e-13), name
    assert peak <= 40 * 2**20, peak / 2**20


# ------------------------------------------------------------------- suites


def test_ensembles_refuse_an_empty_ensemble():
    for pooled in (
        lambda: prop31_ensemble("bound_20", 0),
        lambda: nonlinear_split_ensemble(0),
        lambda: commutator_ensemble(0),
        lambda: dissipative_ensemble(2.0, 0),
    ):
        with pytest.raises(ValueError, match="ensemble size"):
            pooled()


def test_suite_dispatch():
    reports = run_suite("scaling", seed=0)
    assert len(reports) == 1
    assert suite_passed(reports)
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("everything")
    with pytest.raises(ValueError):
        run_suite("scaling", n=0)
