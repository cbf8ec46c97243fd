import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from torusmhd import dynamics
from torusmhd.criteria import (
    PRESSURE_TAGS,
    CriterionSpec,
    Theorem,
    admissible,
    bootstrap_columns,
    bootstrap_trigger,
    gronwall_rhs,
    monitored_field,
    monitored_norms,
    p_label,
    verdicts,
)
from torusmhd.field import (
    gradient,
    partial_derivative,
    synth_random_divfree,
    synth_random_field,
)
from torusmhd.dynamics import (
    InitialCondition,
    MhdState,
    Recorder,
    SimConfig,
    simulate,
)
from torusmhd.field import SpectralField
from torusmhd.norms import lp_norm, wxyz

INF = math.inf


# ---------------------------------------------------------------- admissible


def test_velocity_region_boundary():
    # closed boundary 6/p + 4/r <= 1 with p > 6 strict
    assert admissible(Theorem.T1_1, 8, 16)
    assert not admissible(Theorem.T1_1, 8, 15)
    assert admissible(Theorem.T1_1, 8, 17)
    # the endpoint exponent is reachable only through the smallness clause
    assert not admissible(Theorem.T1_1, 6, INF)
    assert not admissible(Theorem.T1_1, 6, 100)
    assert admissible(Theorem.T1_1, INF, 4)
    assert not admissible(Theorem.T1_1, INF, 3)
    assert admissible(Theorem.T1_1, INF, INF)
    # exact rational arithmetic on the boundary: one part in 16000 decides
    assert admissible(Theorem.T1_1, Fraction(8), Fraction(16))
    assert not admissible(Theorem.T1_1, Fraction(8), Fraction(15999, 1000))
    # mirrored region with the magnetic component
    assert admissible(Theorem.T1_3, 8, 16)
    assert not admissible(Theorem.T1_3, 8, 15)


def test_gradient_region_branches_meet_at_four():
    # both branch bounds give r = 4 at p = 4
    assert admissible(Theorem.T1_2, 4, 4)
    assert not admissible(Theorem.T1_2, 4, Fraction(399, 100))
    # just above p = 4 the other branch formula takes over, continuously
    assert admissible(Theorem.T1_2, Fraction(41, 10), 4)
    assert not admissible(Theorem.T1_2, Fraction(39, 10), 4)
    # below the lower endpoint nothing is admissible, r notwithstanding
    assert not admissible(Theorem.T1_2, Fraction(12, 5), INF)
    assert not admissible(Theorem.T1_2, 2, INF)
    assert admissible(Theorem.T1_2, INF, 2)
    assert not admissible(Theorem.T1_2, INF, Fraction(199, 100))
    assert admissible(Theorem.T1_4, 4, 4)
    assert not admissible(Theorem.T1_4, 4, Fraction(399, 100))


def test_pressure_region_is_open():
    assert admissible(Theorem.T1_5, 2, 4)
    # the scaling line itself is excluded
    assert not admissible(Theorem.T1_5, 2, 3)
    assert admissible(Theorem.T1_5, 2, Fraction(301, 100))
    assert admissible(Theorem.T1_5, 2, INF)
    assert not admissible(Theorem.T1_5, Fraction(12, 7), 100)
    assert not admissible(Theorem.T1_5, 6, 100)
    assert admissible(Theorem.T1_5, Fraction(599, 100), INF)


def test_classical_regions_track_dimension():
    assert admissible(Theorem.CLASSICAL_U, 5, 5, dim=3)
    assert not admissible(Theorem.CLASSICAL_U, 5, 5, dim=4)
    assert admissible(Theorem.CLASSICAL_U, 8, 4, dim=4)
    assert not admissible(Theorem.CLASSICAL_U, 4, INF, dim=4)
    assert admissible(Theorem.CLASSICAL_U, INF, 2, dim=4)

    # gradient criterion: equality line with r capped at min(2, d/(d-2))
    assert admissible(Theorem.CLASSICAL_GRADU, 4, 2, dim=4)
    assert admissible(Theorem.CLASSICAL_GRADU, 6, Fraction(3, 2), dim=4)
    assert not admissible(Theorem.CLASSICAL_GRADU, 5, 2, dim=4)
    assert not admissible(Theorem.CLASSICAL_GRADU, INF, 1, dim=4)
    assert admissible(Theorem.CLASSICAL_GRADU, 2, 2, dim=2)
    assert admissible(Theorem.CLASSICAL_GRADU, 3, 2, dim=3)

    assert admissible(Theorem.CLASSICAL_GRADPI, Fraction(4, 3), INF, dim=4)
    assert not admissible(Theorem.CLASSICAL_GRADPI, Fraction(4, 3), 100, dim=4)
    assert admissible(Theorem.CLASSICAL_GRADPI, 2, 4, dim=4)
    assert not admissible(Theorem.CLASSICAL_GRADPI, Fraction(13, 10), INF, dim=4)


def test_admissible_rejects_exponents_below_one():
    with pytest.raises(ValueError):
        admissible(Theorem.T1_1, 0.5, 4)
    with pytest.raises(ValueError):
        admissible(Theorem.T1_1, 8, 0)
    with pytest.raises(ValueError):
        admissible(Theorem.T1_5, -1, 4)


# each region in cross-multiplied integer form, at p = P/D and r = R/D


def _velocity_region(P, R, D):  # T1.1, T1.3: p > 6 and r(p - 6) >= 4p
    return P > 6 * D and R * (P - 6 * D) >= 4 * P * D


def _gradient_region(P, R, D):  # T1.2, T1.4
    if 5 * P > 12 * D and P <= 4 * D:  # 12/5 < p <= 4: 12r + 8p <= 5pr
        return 12 * R * D + 8 * P * D <= 5 * P * R
    return P > 4 * D and 2 * R * D + 2 * P * D <= P * R  # p > 4: 2r + 2p <= pr


def _pressure_region(P, R, D):  # T1.5: 12/7 < p < 6 and 12r + 6p < 8pr
    return 7 * P > 12 * D and P < 6 * D and 12 * R * D + 6 * P * D < 8 * P * R


# (region, p anchors: the straight edges and points along the curved one,
# 1/r on the curved edge as a function of p)
_REGIONS = {
    Theorem.T1_1: (_velocity_region, (6, 7, 8, 10, 14), lambda p: Fraction(1, 4) - 3 / (2 * p)),
    Theorem.T1_2: (
        _gradient_region,
        (Fraction(12, 5), 3, 4, 6, 8),
        lambda p: Fraction(5, 8) - 3 / (2 * p) if p <= 4 else Fraction(1, 2) - 1 / p,
    ),
    Theorem.T1_5: (_pressure_region, (Fraction(12, 7), 2, 3, 4, 6), lambda p: Fraction(4, 3) - 2 / p),
}
_REGIONS[Theorem.T1_3] = _REGIONS[Theorem.T1_1]
_REGIONS[Theorem.T1_4] = _REGIONS[Theorem.T1_2]


@st.composite
def _near_an_edge(draw):
    """(theorem, P, R, D): p = P/D and r = R/D on or a few 1/D next to an edge,
    with D = 2^k, so both are exact floats."""
    theorem = draw(st.sampled_from(sorted(_REGIONS, key=lambda t: t.value)))
    _region, anchors, inv_r = _REGIONS[theorem]
    d = 2 ** draw(st.integers(2, 10))
    p = max(round(draw(st.sampled_from(anchors)) * d) + draw(st.integers(-4, 4)), d)
    inv = inv_r(Fraction(p, d))
    r_edge = round(d / inv) if inv > 0 else draw(st.integers(d, 64 * d))
    return theorem, p, max(r_edge + draw(st.integers(-4, 4)), d), d


@settings(derandomize=True, deadline=None, max_examples=400)
@given(_near_an_edge())
@example((Theorem.T1_1, 8, 16, 1))
@example((Theorem.T1_2, 4, 4, 1))
@example((Theorem.T1_4, 6, 3, 1))
@example((Theorem.T1_5, 2, 3, 1))
@example((Theorem.T1_5, 6, 100, 1))
def test_admissible_on_region_edges(case):
    theorem, P, R, D = case
    region = _REGIONS[theorem][0]
    assert admissible(theorem, P / D, R / D) == region(P, R, D), (theorem, P / D, R / D)


def test_p_label():
    assert p_label(6) == "6"
    assert p_label(2.5) == "2.5"
    assert p_label(INF) == "inf"
    assert p_label(Fraction(12, 5)) == "2.4"


# ------------------------------------------------------------- CriterionSpec


def test_spec_smallness_fills_endpoint_pairs():
    spec = CriterionSpec(Theorem.T1_1, smallness=True)
    assert spec.pairs == (("u3", (6.0, INF)), ("u4", (6.0, INF)))
    spec2 = CriterionSpec(Theorem.T1_2, smallness=True)
    assert spec2.pairs == (("grad_u3", (2.4, INF)), ("grad_u4", (2.4, INF)))
    with pytest.raises(ValueError):
        CriterionSpec(Theorem.T1_5, smallness=True)
    with pytest.raises(ValueError):
        CriterionSpec(Theorem.CLASSICAL_U, smallness=True)


def test_spec_requires_exactly_the_monitored_components():
    with pytest.raises(ValueError):
        CriterionSpec(Theorem.T1_1, pairs=(("u3", (8, 16)),))
    with pytest.raises(ValueError):
        CriterionSpec(
            Theorem.T1_1,
            pairs=(("u3", (8, 16)), ("u4", (8, 16)), ("b", (8, 16))),
        )
    with pytest.raises(ValueError, match="admissible region"):
        CriterionSpec(Theorem.T1_1, pairs=(("u3", (8, 15)), ("u4", (8, 16))))


def test_spec_labels_and_keys():
    spec = CriterionSpec(Theorem.T1_1, pairs=(("u3", (8, 16)), ("u4", (8, 16))))
    assert spec.label == "T1_1"
    assert spec.columns == (
        ("L8_u3", "u3", 8.0, "acc_T1_1_u3", 16.0),
        ("L8_u4", "u4", 8.0, "acc_T1_1_u4", 16.0),
    )
    pspec = CriterionSpec(Theorem.T1_5, pairs=(("dpi3", (2.5, 4)), ("dpi4", (4, 2))))
    norms = [(norm, q) for norm, q, *_ in pspec.columns]
    assert norms == [("L2.5_dpi3", "dpi3"), ("L4_dpi4", "dpi4")]
    assert {q for _n, q in norms} <= PRESSURE_TAGS
    assert bootstrap_columns(3) == (
        ("gradu_LN", "grad_u", 3, "acc_bootstrap_gradu_LN", 2.0),
        ("gradb_LN", "grad_b", 3, "acc_bootstrap_gradb_LN", 2.0),
    )


# ----------------------------------------------------------- monitored_field


def test_monitored_field_resolution(grid4, rng):
    u = synth_random_divfree(grid4, 4, seed=3)
    b = synth_random_divfree(grid4, 4, seed=4)
    pi = synth_random_field(grid4, 1, seed=5)

    assert np.array_equal(monitored_field("u", u, b).coeffs, u.coeffs)
    assert np.array_equal(
        monitored_field("u3", u, b).coeffs, u.component(2).coeffs
    )
    assert np.array_equal(
        monitored_field("u4", u, b).coeffs, u.component(3).coeffs
    )
    assert np.array_equal(
        monitored_field("u3", u, b, free_axes=(0, 1)).coeffs,
        u.component(0).coeffs,
    )
    assert np.array_equal(monitored_field("b", u, b).coeffs, b.coeffs)
    assert np.array_equal(
        monitored_field("grad_u3", u, b).coeffs,
        gradient(u.component(2)).coeffs,
    )
    assert np.array_equal(
        monitored_field("grad_b", u, b).coeffs, gradient(b).coeffs
    )
    assert np.array_equal(
        monitored_field("dpi3", u, b, pi).coeffs,
        partial_derivative(pi, 2).coeffs,
    )
    assert np.array_equal(
        monitored_field("dpi4", u, b, pi).coeffs,
        partial_derivative(pi, 3).coeffs,
    )
    assert np.array_equal(
        monitored_field("grad_pi", u, b, pi).coeffs, gradient(pi).coeffs
    )


def test_monitored_field_errors(grid4):
    u = synth_random_divfree(grid4, 4, seed=3)
    zero = SpectralField.zeros(grid4, 4)
    # no magnetic field is a zero b, whose quantities are zero fields
    assert not np.any(monitored_field("b", u, zero).coeffs)
    with pytest.raises(ValueError, match="pressure"):
        monitored_field("dpi3", u, zero, None)
    with pytest.raises(ValueError, match="unknown"):
        monitored_field("vorticity", u, zero)


def test_free_axes_must_fit_the_dimension(grid3):
    u = synth_random_divfree(grid3, 3, seed=3)
    zero = SpectralField.zeros(grid3, 3)
    assert monitored_field("u3", u, zero).components == 1
    for tag in ("u4", "grad_u4"):
        with pytest.raises(ValueError, match=f"'{tag}'.*dimension 3"):
            monitored_field(tag, u, zero)
    with pytest.raises(ValueError, match="'u4'.*dimension 3"):
        monitored_norms({"u4": (2.0,)}, u, zero)


@pytest.mark.parametrize("grid_name", ["grid2", "grid3", "grid4"])
def test_monitored_norms_match_batched_reference(grid_name, request):
    g = request.getfixturevalue(grid_name)
    u = synth_random_divfree(g, g.dim, seed=3)
    b = synth_random_divfree(g, g.dim, seed=4)
    pi = synth_random_field(g, 1, seed=5)
    tags = ["u", "b", "grad_u", "grad_b", "grad_pi"]
    if g.dim == 4:
        tags += ["u3", "grad_u4", "dpi3"]
    exponents = (2.0, 3.5, 6.0, INF)
    got = monitored_norms({t: exponents for t in tags}, u, b, pi)
    assert set(got) == {(t, p) for t in tags for p in exponents}
    for t in tags:
        vals = monitored_field(t, u, b, pi).sample()
        mag = np.sqrt((vals**2).sum(axis=0))
        for p in exponents:
            want = mag.max() if p == INF else g.quadrature(mag**p) ** (1.0 / p)
            assert got[t, p] == pytest.approx(want, rel=1e-14, abs=0.0), (t, p)


def test_monitored_norms_zero_field_is_zero_unsampled(grid4, sample_calls):
    u = synth_random_divfree(grid4, 4, seed=3)
    zero = SpectralField.zeros(grid4, 4)
    exponents = (2.0, 3.0, INF)
    got = monitored_norms({"u3": (2.0,), "b": exponents, "grad_b": exponents}, u, zero)
    assert {k: v for k, v in got.items() if k[0] != "u3"} == {
        (t, p): 0.0 for t in ("b", "grad_b") for p in exponents
    }
    # only u3's one part is sampled
    assert sample_calls == [(1, grid4.eval_modes)]
    assert got["u3", 2.0] == pytest.approx(lp_norm(monitored_field("u3", u, zero), 2), rel=1e-14)


# ------------------------------------------------------------------ monitor


def recorded(monkeypatch, spec, rows, bootstrap=False):
    """The last row of the table a Recorder builds from these diagnostics
    rows, at t = 0, 0.1, ..."""
    cfg = SimConfig(dim=4, modes_per_axis=8, criteria=(spec,), monitor_bootstrap=bootstrap)
    fixed = dict(energy=1.0, W=0.0, X=0.0, Y=0.0, Z=0.0)
    it = iter(rows)
    monkeypatch.setattr(dynamics, "compute_record", lambda u, b, c: {**fixed, **next(it)})
    rec = Recorder(cfg)
    for n in range(len(rows)):
        rec.record(0.1 * n, SimpleNamespace(u=None, b=None), 0.0)
    return rec.last()


def test_monitor_status_seeding():
    # the first record seeds every accumulator column of the one row:
    # integrals at 0, sups at the first value
    spec = CriterionSpec(Theorem.CLASSICAL_U, pairs=(("u", (8, INF)),))
    cfg = SimConfig(dim=2, modes_per_axis=16, criteria=(spec,), monitor_bootstrap=True)
    g = cfg.make_grid()
    rec = Recorder(cfg)
    state = MhdState(synth_random_divfree(g, 2, seed=1), SpectralField.zeros(g, 2))
    rec.record(0.0, state, 0.0)
    first = rec.records["L8_u"][0]
    assert first > 0.0
    last = rec.last()
    assert {k: v for k, v in last.items() if k.startswith("acc_")} == {
        "acc_CLASSICAL_U_u": first,
        "acc_bootstrap_gradu_LN": 0.0,
        "acc_bootstrap_gradb_LN": 0.0,
    }
    assert spec.accumulated(last) == {"acc_CLASSICAL_U_u": first}
    assert rec.records["acc_CLASSICAL_U_u"] == [first]


def test_monitor_update_trapezoid_and_sup(monkeypatch):
    spec = CriterionSpec(Theorem.T1_1, pairs=(("u3", (8, 16)), ("u4", (8, 16))))
    rows = [{"L8_u3": 2.0, "L8_u4": 3.0}, {"L8_u3": 1.0, "L8_u4": 4.0}]
    row = recorded(monkeypatch, spec, rows[:1])
    assert spec.accumulated(row) == {"acc_T1_1_u3": 0.0, "acc_T1_1_u4": 0.0}
    acc = spec.accumulated(recorded(monkeypatch, spec, rows))
    want_u3 = 0.1 * (2.0**16 + 1.0**16) / 2
    want_u4 = 0.1 * (3.0**16 + 4.0**16) / 2
    assert acc["acc_T1_1_u3"] == pytest.approx(want_u3, rel=1e-15)
    assert acc["acc_T1_1_u4"] == pytest.approx(want_u4, rel=1e-15)


def test_monitor_update_smallness_tracks_sup_only(monkeypatch):
    spec = CriterionSpec(Theorem.T1_1, smallness=True)
    rows = [{"L6_u3": 2.0, "L6_u4": 5.0}, {"L6_u3": 3.0, "L6_u4": 1.0}]
    row = recorded(monkeypatch, spec, rows)
    # r = inf accumulators carry the running sup, not an integral
    assert spec.accumulated(row) == {"acc_T1_1_u3": 3.0, "acc_T1_1_u4": 5.0}


def test_monitor_update_missing_tag_names_it(monkeypatch):
    spec = CriterionSpec(
        Theorem.T1_3,
        pairs=(("u3", (8, 16)), ("u4", (8, 16)), ("b", (8, 16))),
    )
    with pytest.raises(KeyError, match="L8_b"):
        recorded(monkeypatch, spec, [{"L8_u3": 1.0, "L8_u4": 1.0}])


def test_monitor_detects_divergent_accumulator():
    # a Taylor-Green array so large that |u|^8 overflows, over one step short
    # enough to stay finite: the run completes, its L^8 records are inf, and
    # so is the accumulator
    spec = CriterionSpec(Theorem.CLASSICAL_U, pairs=(("u", (8, 4)),))
    cfg = SimConfig(
        dim=2,
        modes_per_axis=16,
        dt=1e-45,
        t_end=1e-45,
        initial=InitialCondition(preset="taylor_green", amplitude=1e40),
        criteria=(spec,),
    )
    res = simulate(cfg)
    assert res.status == "completed"
    assert res.series.last()["acc_CLASSICAL_U_u"] == INF
    assert verdicts(res.series.last(), cfg.criteria, res.status) == {
        "CLASSICAL_U": "accumulator_divergent"
    }


def test_verdicts_read_only_each_criterion_accumulators():
    t11 = CriterionSpec(Theorem.T1_1, pairs=(("u3", (8, 16)), ("u4", (8, 16))))
    cu = CriterionSpec(Theorem.CLASSICAL_U, pairs=(("u", (8, 4)),))
    row = {"L8_u": math.nan, "acc_T1_1_u3": 1.0, "acc_T1_1_u4": 2.0, "acc_CLASSICAL_U_u": 3.0}
    # a NaN norm column is no accumulator: both verdicts stay finite
    assert verdicts(row, (t11, cu), "completed") == {
        "T1_1": "accumulators_finite",
        "CLASSICAL_U": "accumulators_finite",
    }
    # an overflowed accumulator reads inf, or NaN where an inf met a zero
    for bad in (INF, -INF, math.nan):
        assert verdicts({**row, "acc_T1_1_u4": bad}, (t11, cu), "completed") == {
            "T1_1": "accumulator_divergent",
            "CLASSICAL_U": "accumulators_finite",
        }
    # a diverged run's verdict is its status, whatever its last row holds
    for acc in (3.0, INF, math.nan):
        assert verdicts({**row, "acc_CLASSICAL_U_u": acc}, (t11, cu), "diverged") == {
            "T1_1": "diverged",
            "CLASSICAL_U": "diverged",
        }
    assert verdicts(row, (), "completed") == {}
    with pytest.raises(KeyError, match="acc_CLASSICAL_U_u"):
        verdicts({"acc_T1_1_u3": 1.0, "acc_T1_1_u4": 2.0}, (t11, cu), "completed")


def test_bootstrap_trigger_sums_gradient_accumulators(monkeypatch):
    spec = CriterionSpec(Theorem.CLASSICAL_U, pairs=(("u", (8, 4)),))
    rows = [
        {"L8_u": 1.0, "gradu_LN": 2.0, "gradb_LN": 1.0},
        {"L8_u": 1.0, "gradu_LN": 4.0, "gradb_LN": 3.0},
    ]
    row = recorded(monkeypatch, spec, rows, bootstrap=True)
    # trapezoid of the squares over dt = 0.1: (4+16)/2*0.1 + (1+9)/2*0.1
    assert bootstrap_trigger(row) == pytest.approx(1.0 + 0.5, rel=1e-15)

    with pytest.raises(ValueError, match="gradb_LN"):
        bootstrap_trigger({"gradu_LN": 1.0, "acc_bootstrap_gradu_LN": 0.0})


# ------------------------------------------------------------- gronwall_rhs


def test_gronwall_rhs_velocity_family(grid4):
    u = synth_random_divfree(grid4, 4, seed=11)
    b = synth_random_divfree(grid4, 4, seed=12)
    spec = CriterionSpec(Theorem.T1_3, pairs=(
        ("u3", (8, 16)), ("u4", (8, 16)), ("b", (8, 16)),
    ))
    out = gronwall_rhs(u, b, spec)
    vals = wxyz(u, b, plane=(0, 1))
    assert out["W"] == vals.W and out["X"] == vals.X
    assert out["Y"] == vals.Y and out["Z"] == vals.Z
    # exponents at p = 8: norm 2p/(p-2), X (p-4)/(p-2), Z 2/(p-2)
    for comp in ("u3", "u4", "b"):
        n = lp_norm(monitored_field(comp, u, b), 8)
        want = n ** (16 / 6) * vals.X ** (4 / 6) * vals.Z ** (2 / 6)
        assert out[f"rhs_T1_3_{comp}"] == pytest.approx(want, rel=1e-12)


def test_gronwall_rhs_velocity_endpoint(grid4):
    u = synth_random_divfree(grid4, 4, seed=13)
    zero = SpectralField.zeros(grid4, 4)
    spec = CriterionSpec(Theorem.T1_1, smallness=True)
    out = gronwall_rhs(u, zero, spec)
    vals = wxyz(u, zero, plane=(0, 1))
    n3 = lp_norm(u.component(2), 6.0)
    # the pinned endpoint keeps its finite-p exponents (3, 1/2, 1/2)
    want = n3**3 * math.sqrt(vals.X * vals.Z)
    assert out["rhs_T1_1_u3"] == pytest.approx(want, rel=1e-12)


def test_gronwall_rhs_gradient_family(grid4):
    u = synth_random_divfree(grid4, 4, seed=14)
    zero = SpectralField.zeros(grid4, 4)
    vals = wxyz(u, zero, plane=(0, 1))

    spec4 = CriterionSpec(Theorem.T1_2, pairs=(
        ("grad_u3", (4, 4)), ("grad_u4", (4, 4)),
    ))
    out4 = gronwall_rhs(u, zero, spec4)
    n = lp_norm(gradient(u.component(2)), 4)
    # p = 4 sits on the branch seam: exponents (2, 1, 0) from either side
    assert out4["rhs_T1_2_grad_u3"] == pytest.approx(n**2 * vals.X, rel=1e-12)

    spec3 = CriterionSpec(Theorem.T1_2, pairs=(
        ("grad_u3", (3, 12)), ("grad_u4", (3, 12)),
    ))
    out3 = gronwall_rhs(u, zero, spec3)
    n = lp_norm(gradient(u.component(2)), 3)
    want = n ** (12 / 5) * vals.X ** (4 / 5) * vals.Z ** (1 / 5)
    assert out3["rhs_T1_2_grad_u3"] == pytest.approx(want, rel=1e-12)

    spec6 = CriterionSpec(Theorem.T1_2, pairs=(
        ("grad_u3", (6, 3)), ("grad_u4", (6, 3)),
    ))
    out6 = gronwall_rhs(u, zero, spec6)
    n = lp_norm(gradient(u.component(2)), 6)
    assert out6["rhs_T1_2_grad_u3"] == pytest.approx(n**1.5 * vals.X, rel=1e-12)


def test_gronwall_rhs_respects_free_axes(grid4):
    u = synth_random_divfree(grid4, 4, seed=15)
    zero = SpectralField.zeros(grid4, 4)
    spec = CriterionSpec(Theorem.T1_1, pairs=(("u3", (8, 16)), ("u4", (8, 16))))
    out = gronwall_rhs(u, zero, spec, free_axes=(0, 1))
    vals = wxyz(u, zero, plane=(2, 3))
    n = lp_norm(u.component(0), 8)
    want = n ** (16 / 6) * vals.X ** (4 / 6) * vals.Z ** (2 / 6)
    assert out["rhs_T1_1_u3"] == pytest.approx(want, rel=1e-12)


def test_gronwall_rhs_rejections(grid2, grid4):
    u4 = synth_random_divfree(grid4, 4, seed=16)
    zero4 = SpectralField.zeros(grid4, 4)
    pspec = CriterionSpec(Theorem.T1_5, pairs=(("dpi3", (2, 4)), ("dpi4", (2, 4))))
    with pytest.raises(ValueError, match="Gronwall"):
        gronwall_rhs(u4, zero4, pspec)
    cspec = CriterionSpec(Theorem.CLASSICAL_U, pairs=(("u", (8, 4)),))
    with pytest.raises(ValueError, match="Gronwall"):
        gronwall_rhs(u4, zero4, cspec)
    u2 = synth_random_divfree(grid2, 2, seed=17)
    vspec = CriterionSpec(Theorem.T1_1, pairs=(("u3", (8, 16)), ("u4", (8, 16))))
    with pytest.raises(ValueError, match="dim-4"):
        gronwall_rhs(u2, SpectralField.zeros(grid2, 2), vspec, free_axes=(0, 1))
