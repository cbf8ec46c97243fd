import math

import numpy as np
import pytest

from torusmhd.criteria import CriterionSpec, Theorem, verdicts
from torusmhd.dynamics import (
    DivergedError,
    InitialCondition,
    MhdState,
    Recorder,
    SimConfig,
    advective_dt_bound,
    compute_record,
    dissipation_rate,
    initial_state,
    mhd_rhs,
    pressure_solve,
    series_columns,
    simulate,
    single_mode_state,
    step_ifrk4,
    taylor_green_state,
)
from torusmhd.field import SpectralField, gradient, synth_random_divfree
from torusmhd.grid import Grid, make_grid
from torusmhd.norms import energy, l2_norm, lp_norm, wxyz

from conftest import l2_inner


def mhd_pair(grid, seed, amp=1.0, bamp=0.5):
    u = synth_random_divfree(grid, grid.dim, seed, amplitude=amp)
    b = synth_random_divfree(grid, grid.dim, seed + 100, amplitude=bamp)
    return u, b


# -------------------------------------------------------------------- state


def test_state_validation(grid2):
    u = synth_random_divfree(grid2, 2, seed=0)
    z = SpectralField.zeros(grid2, 2)
    MhdState(u, z)
    with pytest.raises(ValueError, match="components"):
        MhdState(SpectralField.zeros(grid2, 1), z)
    bad = np.zeros((2,) + grid2.shape, dtype=complex)
    bad[0, 1, 0] = 1.0  # pure x1 mode with an x1 component: divergent
    with pytest.raises(ValueError, match="divergence"):
        MhdState(SpectralField(grid2, bad), z)
    with pytest.raises(ValueError, match="non-negative"):
        MhdState(u, z, nu=-1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="non-negative"):
            MhdState(u, z, nu=bad)
    with pytest.raises(ValueError, match="share a grid"):
        MhdState(u, SpectralField.zeros(make_grid(2, 32), 2))
    nan = u.coeffs.copy()
    nan[1, 1, 1] = math.nan
    with pytest.raises(ValueError, match="non-finite"):
        MhdState(SpectralField(grid2, nan), z)
    assert not MhdState(u, z).has_b
    assert MhdState(u, u).has_b


# ---------------------------------------------------------------- pressure


def test_taylor_green_pressure_closed_form(grid2):
    amp = 2.0
    st = taylor_green_state(grid2, amplitude=amp)
    pi = pressure_solve(st.u, st.b)
    m = grid2.modes_per_axis
    want = np.zeros((m, m), dtype=complex)
    # -amp^2 (cos 2x1 + cos 2x2)/4 in coefficients, on the full layout
    want[2 % m, 0] = -(amp**2) / 8
    want[-2 % m, 0] = -(amp**2) / 8
    want[0, 2 % m] = -(amp**2) / 8
    want[0, -2 % m] = -(amp**2) / 8
    assert np.max(np.abs(grid2.unfold(pi.coeffs[0]) - want)) < 1e-13 * amp**2


def test_taylor_green_writes_the_band(grid2, grid3, grid4):
    # the four modes go straight onto the band: the same bits as the
    # full-layout construction folded to it
    amp = 1.7
    for g in (grid2, grid3, grid4):
        m = g.modes_per_axis
        full = np.zeros((g.dim,) + (m,) * g.dim, dtype=complex)
        for s1 in (1, -1):
            for s2 in (1, -1):
                at = (s1 % m, s2 % m) + (0,) * (g.dim - 2)
                full[(0,) + at] = -1j * (amp / 4) * s2
                full[(1,) + at] = 1j * (amp / 4) * s1
        got = taylor_green_state(g, amplitude=amp).u.coeffs
        assert got.tobytes() == g.gather(full, m).tobytes()


def test_taylor_green_rhs_is_pure_diffusion(grid2, grid4):
    for g in (grid2, grid4):
        st = taylor_green_state(g, nu=0.3)
        du, db = mhd_rhs(st)
        # the nonlinearity is a pure gradient, removed by the projection;
        # both active modes sit on |k|^2 = 2
        assert np.max(np.abs(du.coeffs + 2 * 0.3 * st.u.coeffs)) < 1e-14
        assert not np.any(db.coeffs)


def test_pressure_balances_advection(grid2, grid3):
    # grid3 has 3K = M, so its products take the 3/2-rule size above M
    for g in (grid2, grid3):
        u, b = mhd_pair(g, seed=21)
        st = MhdState(u, b, nu=0.0, eta=0.0)
        du, _db = mhd_rhs(st)
        pi = pressure_solve(u, b)

        # independent advective stress: T_i = sum_j u_j d_j u_i - b_j d_j b_i,
        # from pointwise products on the padded grid
        m = g.eval_modes
        us = g.sample(u.coeffs, m)
        bs = g.sample(b.coeffs, m)
        adv = np.zeros((g.dim,) + g.shape, dtype=complex)
        for i in range(g.dim):
            acc = np.zeros((m,) * g.dim)
            for j in range(g.dim):
                dui = g.sample(1j * g.wave_axes[j] * u.coeffs[i], m)
                dbi = g.sample(1j * g.wave_axes[j] * b.coeffs[i], m)
                acc = acc + us[j] * dui.real - bs[j] * dbi.real
            adv[i] = g.analyze(acc)

        resid = du.coeffs + adv + gradient(pi).coeffs
        scale = np.max(np.abs(du.coeffs))
        assert np.max(np.abs(resid)) < 1e-12 * scale
    g4 = make_grid(4, 8)
    with pytest.raises(ValueError, match="one velocity component per axis"):
        pressure_solve(SpectralField.zeros(g4, 2), SpectralField.zeros(g4, 4))


def test_one_analysis_per_product(grid2, grid3, grid4, monkeypatch):
    # the stress is symmetric and the induction antisymmetric: dim(dim+1)/2
    # analysed products for u alone, dim^2 with b, and the pressure reuses
    # the stress; products are analysed in batches of at most dim
    calls = []
    analyze = Grid.analyze

    def counted(self, values):
        calls.append(values.shape)
        return analyze(self, values)

    monkeypatch.setattr(Grid, "analyze", counted)
    for g in (grid2, grid3, grid4):
        u, b = mhd_pair(g, seed=24)
        zero = SpectralField.zeros(g, g.dim)
        pairs = g.dim * (g.dim + 1) // 2
        size = g.alias_free_modes(2, g.band_limit)
        for bb, want in ((b, g.dim**2), (zero, pairs)):
            calls.clear()
            mhd_rhs(MhdState(u, bb))
            assert sum(shape[0] for shape in calls) == want
            assert len(calls) == -(-want // g.dim)
            assert {shape[1:] for shape in calls} == {(size,) * g.dim}
        calls.clear()
        pressure_solve(u, b)
        assert sum(shape[0] for shape in calls) == pairs
        assert {shape[1:] for shape in calls} == {(size,) * g.dim}


def test_rhs_outputs_divergence_free(grid2):
    u, b = mhd_pair(grid2, seed=22)
    st = MhdState(u, b)
    du, db = mhd_rhs(st)
    for f in (du, db):
        div = sum(grid2.wave_axes[a] * f.coeffs[a] for a in range(2))
        assert np.max(np.abs(div)) < 1e-11 * np.max(np.abs(f.coeffs))


def test_nonlinear_exchange_is_skew(grid2, grid3):
    for g in (grid2, grid3):
        u, b = mhd_pair(g, seed=23)
        st = MhdState(u, b, nu=0.0, eta=0.0)
        du, db = mhd_rhs(st)
        drift = l2_inner(du, u) + l2_inner(db, b)
        scale = l2_norm(du) * l2_norm(u) + l2_norm(db) * l2_norm(b)
        assert abs(drift) < 1e-11 * scale


# ----------------------------------------------------------------- stepping


def test_single_mode_diffuses_exactly(grid3):
    nu = 0.7
    st = single_mode_state(grid3, nu=nu, amplitude=1.5)
    dt = 0.01
    total = 0.0
    for _ in range(20):
        st, dinc = step_ifrk4(st, dt)
        total += dinc
    t = 20 * dt
    want = 1.5 * math.exp(-nu * t)
    sel = (1, 1) + (0,) * (grid3.dim - 1)
    assert st.u.coeffs[sel] == pytest.approx(-0.5j * want, rel=1e-13)
    # ledger closes against the analytic dissipation integral
    e_init = l2_norm(single_mode_state(grid3, nu=nu, amplitude=1.5).u) ** 2
    diss_exact = e_init * -math.expm1(-2 * nu * t)
    assert total == pytest.approx(diss_exact, rel=1e-12)


def test_step_rejects_bad_dt(grid2):
    st = taylor_green_state(grid2)
    with pytest.raises(ValueError):
        step_ifrk4(st, 0.0)
    with pytest.raises(ValueError):
        step_ifrk4(st, -0.1)


def test_step_convergence_order_four(grid2):
    u, b = mhd_pair(grid2, seed=31, amp=1.0, bamp=0.5)
    base = MhdState(u, b, nu=0.05, eta=0.05)
    T = 0.1

    def run(dt):
        st = base
        for _ in range(round(T / dt)):
            st, _ = step_ifrk4(st, dt)
        return st

    ref = run(T / 80)
    errs = []
    for dt in (T / 5, T / 10):
        st = run(dt)
        errs.append(
            float(np.max(np.abs(st.u.coeffs - ref.u.coeffs)))
            + float(np.max(np.abs(st.b.coeffs - ref.b.coeffs)))
        )
    order = math.log2(errs[0] / errs[1])
    assert 3.5 < order < 4.5


def test_dissipation_rate_matches_gradient_norm(grid2):
    u, b = mhd_pair(grid2, seed=33)
    st = MhdState(u, b, nu=0.4, eta=0.9)
    want = 0.4 * 2 * l2_norm(gradient(u)) ** 2 + 0.9 * 2 * l2_norm(gradient(b)) ** 2
    assert dissipation_rate(st) == pytest.approx(want, rel=1e-12)


def test_advective_dt_bound(grid2):
    st = single_mode_state(grid2, amplitude=2.0)
    kmax = grid2.band_limit  # side 2*pi
    assert advective_dt_bound(st) == pytest.approx(1.5 / (kmax * 2.0), rel=1e-6)
    # b's sup adds to u's
    both = MhdState(st.u, st.u)
    assert advective_dt_bound(both) == pytest.approx(1.5 / (kmax * 4.0), rel=1e-6)


# ----------------------------------------------------------- configuration


def test_initial_condition_validation():
    with pytest.raises(ValueError, match="preset"):
        InitialCondition(preset="vortex_sheet")
    with pytest.raises(ValueError, match="decay"):
        InitialCondition(decay=0.0)


def test_sim_config_validation():
    ok = SimConfig(dim=2, modes_per_axis=16, t_end=0.01)
    assert ok.n_steps == 10
    assert ok.free_axes0 == (2, 3)
    with pytest.raises(ValueError, match="dt"):
        SimConfig(dim=2, dt=0.0)
    with pytest.raises(ValueError, match="t_end"):
        SimConfig(dim=2, t_end=-1.0)
    with pytest.raises(ValueError, match="record_every"):
        SimConfig(dim=2, record_every=0)
    with pytest.raises(ValueError, match="multiple"):
        SimConfig(dim=2, record_every=3, snapshot_every=4)
    with pytest.raises(ValueError, match="snapshot_every must be >= 0"):
        SimConfig(dim=2, snapshot_every=-1)
    spec = CriterionSpec(Theorem.T1_1, pairs=(("u3", (8, 16)), ("u4", (8, 16))))
    with pytest.raises(ValueError, match="duplicate"):
        SimConfig(criteria=(spec, spec))
    with pytest.raises(ValueError, match="dim is 2"):
        SimConfig(dim=2, criteria=(spec,))
    # classical monitors are dimension-generic
    cu = CriterionSpec(Theorem.CLASSICAL_U, pairs=(("u", (8, 4)),))
    SimConfig(dim=2, criteria=(cu,))
    with pytest.raises(ValueError, match="free_axes"):
        SimConfig(free_axes=(3, 3))
    with pytest.raises(ValueError, match="free_axes"):
        SimConfig(free_axes=(0, 4))
    with pytest.raises(ValueError, match="at least one step"):
        SimConfig(dim=2, dt=0.1, t_end=0.01)
    with pytest.raises(ValueError, match="t_end 0.25 is not a whole number of steps of dt 0.1"):
        SimConfig(dim=2, dt=0.1, t_end=0.25)
    # 0.3 / 0.1 is 2.9999999999999996 in floating point, yet three whole steps
    assert SimConfig(dim=2, dt=0.1, t_end=0.3).n_steps == 3


def test_initial_state_presets():
    cfg = SimConfig(dim=2, modes_per_axis=16, initial=InitialCondition(preset="zero"))
    st = initial_state(cfg)
    assert not np.any(st.u.coeffs) and not np.any(st.b.coeffs)

    cfg = SimConfig(
        dim=2,
        modes_per_axis=16,
        initial=InitialCondition(
            preset="random_divfree", seed=5, amplitude=2.0, b_amplitude=0.25
        ),
    )
    st = initial_state(cfg)
    assert l2_norm(st.u) == pytest.approx(2.0, rel=1e-12)
    assert l2_norm(st.b) == pytest.approx(0.25, rel=1e-12)
    assert st.has_b

    cfg = SimConfig(dim=2, modes_per_axis=16)  # taylor_green default
    assert not initial_state(cfg).has_b


# ----------------------------------------------------------------- simulate


def test_simulate_cadence_and_states():
    cfg = SimConfig(
        dim=2,
        modes_per_axis=16,
        nu=0.1,
        dt=1e-3,
        t_end=0.01,
        initial=InitialCondition(preset="random_divfree", seed=1),
        record_every=3,
        snapshot_every=6,
    )
    snapped = []
    res = simulate(cfg, snapshot_sink=lambda _n, st: snapped.append(st.time))
    assert res.status == "completed"
    assert res.series.times == [n * 1e-3 for n in (0, 3, 6, 9, 10)]
    assert snapped == [n * 1e-3 for n in (0, 6, 10)]
    assert len(res.series.records["defect"]) == len(res.series.times)
    assert res.final_state.time == pytest.approx(0.01, abs=0)
    # energy must not grow
    e = res.series.records["energy"]
    assert all(b <= a * (1 + 1e-12) for a, b in zip(e, e[1:]))
    with pytest.raises(ValueError, match="does not match the configuration"):
        simulate(cfg, initial=initial_state(cfg, make_grid(2, 8)))


def test_simulate_matches_manual_stepping():
    # the hand loop rebuilds each state from its coefficients before every
    # step, so no cached nonlinearity is carried: the run must match it bit
    # for bit, state, records and ledger
    for dim, m, b_amplitude in ((2, 16, 0.5), (3, 12, 0.0)):
        cfg = SimConfig(
            dim=dim,
            modes_per_axis=m,
            nu=0.2,
            eta=0.1,
            dt=2e-3,
            t_end=0.01,
            initial=InitialCondition(preset="random_divfree", seed=9, b_amplitude=b_amplitude),
            criteria=(CriterionSpec(Theorem.CLASSICAL_U, pairs=(("u", (8, 4)),)),),
            monitor_bootstrap=True,
        )
        res = simulate(cfg)
        g = cfg.make_grid()
        st = initial_state(cfg)
        e0 = energy(st.u, st.b)
        dissipation = 0.0
        rows, defects = [], []
        for n in range(cfg.n_steps + 1):
            rows.append(compute_record(st.u, st.b, cfg))
            defects.append(e0 - energy(st.u, st.b) - dissipation)
            if n == cfg.n_steps:
                break
            fresh = MhdState(
                SpectralField(g, st.u.coeffs.copy()),
                SpectralField(g, st.b.coeffs.copy()),
                st.time,
                st.nu,
                st.eta,
            )
            st, dinc = step_ifrk4(fresh, cfg.dt)
            dissipation += dinc
        assert np.array_equal(res.final_state.u.coeffs, st.u.coeffs)
        assert np.array_equal(res.final_state.b.coeffs, st.b.coeffs)
        assert len(res.series) == len(rows)
        for n, row in enumerate(rows):
            assert {tag: res.series.records[tag][n] for tag in row} == row
        assert res.series.records["defect"] == defects


# (nu, eta), named by nu alone where the two are equal
_DIFFUSIVITIES = ((0.2, 0.2), (0.0, 0.0), (0.0, 0.05), (0.05, 0.0), (0.05, 0.2))


@pytest.mark.parametrize(
    "nu, eta", _DIFFUSIVITIES, ids=[str(n) if n == e else f"{n}-{e}" for n, e in _DIFFUSIVITIES]
)
@pytest.mark.parametrize("b_amplitude", [0.5, 0.0])
def test_simulate_reuses_the_last_stage(monkeypatch, nu, eta, b_amplitude):
    # each step's first stage is the previous step's ledger endpoint, so a
    # diffusive run evaluates one nonlinearity more than its 4 per step, and
    # an ideal run, which needs no endpoint, exactly 4 per step; with a zero
    # or unequal diffusivity the ledger still closes to rounding
    import torusmhd.dynamics as dyn

    calls = []
    real = dyn._nonlinear
    monkeypatch.setattr(dyn, "_nonlinear", lambda g, u, b: calls.append(b is None) or real(g, u, b))
    cfg = SimConfig(
        dim=2,
        modes_per_axis=16,
        nu=nu,
        eta=eta,
        dt=1e-3,
        t_end=0.005,
        initial=InitialCondition(preset="random_divfree", seed=4, b_amplitude=b_amplitude),
    )
    series = simulate(cfg).series
    assert len(calls) == 4 * cfg.n_steps + (1 if nu or eta else 0)
    assert set(calls) == {b_amplitude == 0.0}
    assert max(map(abs, series.records["defect"])) <= 1e-12 * series.records["energy"][0]


def test_simulate_ledger_survives_b_decaying_to_zero():
    # with a huge eta, b underflows to exactly zero in one step: the new state
    # then has no N_b, and the ledger still counts all of b's energy as lost
    cfg = SimConfig(
        dim=2,
        modes_per_axis=16,
        nu=0.1,
        eta=1e6,
        dt=1e-2,
        t_end=0.03,
        initial=InitialCondition(preset="random_divfree", seed=3, b_amplitude=0.5),
    )
    res = simulate(cfg)
    assert res.status == "completed"
    assert not np.any(res.final_state.b.coeffs)
    last = res.series.last()
    assert last["dissipation_integral"] > 0.5**2
    assert abs(last["defect"]) < 1e-4 * res.series.records["energy"][0]


def test_step_peak_memory_holds_no_stage_states():
    # low-storage stages: the stage states die once evaluated and n2, n3
    # live only as their sum, so one dim-4 M = 12 MHD step's traced peak
    # stays below 38 band coefficient arrays of 0.233 MB (34.2 measured, the
    # product-grid transforms being most of it; 35.1 when gather copied the
    # band twice, 41.1 when n3 and the fourth stage state are kept to the
    # end of the step)
    import tracemalloc

    cfg = SimConfig(
        dim=4,
        modes_per_axis=12,
        nu=0.05,
        eta=0.05,
        dt=2e-3,
        t_end=2e-3,
        initial=InitialCondition(preset="random_divfree", seed=7, b_amplitude=0.5),
    )
    st = initial_state(cfg)
    one = st.u.coeffs.nbytes
    tracemalloc.start()
    try:
        step_ifrk4(st, cfg.dt)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 38 * one, peak / one


def test_simulate_zero_initial_stays_zero():
    cfg = SimConfig(
        dim=2,
        modes_per_axis=16,
        t_end=0.005,
        initial=InitialCondition(preset="zero"),
        criteria=(CriterionSpec(Theorem.CLASSICAL_U, pairs=(("u", (8, 4)),)),),
    )
    res = simulate(cfg)
    assert all(v == 0.0 for v in res.series.records["energy"])
    assert res.series.records["defect"] == [0.0] * len(res.series)
    assert res.series.records["acc_CLASSICAL_U_u"] == [0.0] * len(res.series)
    assert verdicts(res.series.last(), cfg.criteria, res.status) == {
        "CLASSICAL_U": "accumulators_finite"
    }


def test_simulate_b_zero_stays_zero():
    cfg = SimConfig(
        dim=2,
        modes_per_axis=16,
        t_end=0.01,
        initial=InitialCondition(preset="random_divfree", seed=2),
    )
    res = simulate(cfg)
    assert not np.any(res.final_state.b.coeffs)


def test_simulate_diffusion_only_ledger_is_exact():
    nu = 0.7
    cfg = SimConfig(
        dim=2,
        modes_per_axis=16,
        nu=nu,
        dt=1e-3,
        t_end=0.05,
        initial=InitialCondition(preset="single_mode", amplitude=1.5),
    )
    res = simulate(cfg)
    e0, last = res.series.records["energy"][0], res.series.last()
    diss_exact = e0 * -math.expm1(-2 * nu * cfg.t_end)
    assert last["dissipation_integral"] == pytest.approx(diss_exact, rel=1e-12)
    assert abs(last["defect"]) <= 1e-12 * e0


def test_simulate_ledger_order_under_strong_nonlinearity():
    # the ledger defect is the integrator's own error: under a strongly
    # nonlinear MHD flow it must fall at fourth order with the step
    defects = []
    for dt in (4e-3, 2e-3, 1e-3):
        cfg = SimConfig(
            dim=2,
            modes_per_axis=32,
            nu=0.02,
            eta=0.02,
            dt=dt,
            t_end=0.2,
            record_every=1000,
            initial=InitialCondition(
                preset="random_divfree", seed=3, decay=2.0, amplitude=20.0, b_amplitude=10.0
            ),
        )
        series = simulate(cfg).series
        defects.append(abs(series.last()["defect"]) / series.records["energy"][0])
    orders = [math.log2(a / b) for a, b in zip(defects, defects[1:])]
    assert min(orders) >= 4.0, (defects, orders)


def test_simulate_validates_each_state_once(monkeypatch):
    import torusmhd.dynamics as dyn

    checked = []
    real = dyn.check_divfree
    monkeypatch.setattr(dyn, "check_divfree", lambda f, name: checked.append(name) or real(f, name))
    cfg = SimConfig(
        dim=2,
        modes_per_axis=16,
        dt=1e-3,
        t_end=0.005,
        initial=InitialCondition(preset="random_divfree", seed=1, b_amplitude=0.5),
    )
    res = simulate(cfg)
    # the initial state and one state per step, u and b each
    assert checked == ["u", "b"] * (cfg.n_steps + 1)
    assert res.final_state.time == 5 * 1e-3
    assert res.series.times == [n * 1e-3 for n in range(6)]


def test_recorder_table_and_time_guard():
    # the columns are fixed at construction; a row at a time that is not
    # after the last one is refused and leaves the table as it was
    cfg = SimConfig(dim=2, modes_per_axis=8)
    rec = Recorder(cfg)
    assert len(rec) == 0 and rec.last() == {}
    assert rec.columns == ["time", *series_columns(cfg)]
    state = initial_state(cfg)
    rec.record(0.0, state, 0.0)
    for t in (0.0, -1.0):
        with pytest.raises(ValueError, match="strictly increasing"):
            rec.record(t, state, 0.0)
    rec.record(1.0, state, 0.5)
    assert len(rec) == 2 and rec.times == [0.0, 1.0]
    assert list(rec.records) == list(series_columns(cfg))
    assert rec.last() == {col: vals[1] for col, vals in rec.records.items()}
    assert rec.last()["dissipation_integral"] == 0.5


def test_simulate_criteria_columns_4d():
    spec = CriterionSpec(Theorem.T1_1, pairs=(("u3", (8, 16)), ("u4", (8, 16))))
    cfg = SimConfig(
        dim=4,
        modes_per_axis=8,
        dt=1e-3,
        t_end=0.003,
        initial=InitialCondition(preset="random_divfree", seed=3),
        criteria=(spec,),
        monitor_bootstrap=True,
    )
    res = simulate(cfg)
    assert "L8_u3" in res.series.records
    assert "L8_u4" in res.series.records
    assert "gradu_LN" in res.series.records
    assert verdicts(res.series.last(), cfg.criteria, res.status) == {"T1_1": "accumulators_finite"}
    assert res.series.last()["acc_T1_1_u3"] > 0.0
    # one row per record: the series.csv columns, each norm before its accumulator
    assert res.series.columns == ["time", *series_columns(cfg)] == [
        "time", "energy", "dissipation_integral", "defect", "W", "X", "Y", "Z",
        "L8_u3", "acc_T1_1_u3", "L8_u4", "acc_T1_1_u4",
        "gradu_LN", "acc_bootstrap_gradu_LN", "gradb_LN", "acc_bootstrap_gradb_LN",
    ]
    assert cfg.columns == (
        ("L8_u3", "u3", 8.0, "acc_T1_1_u3", 16.0),
        ("L8_u4", "u4", 8.0, "acc_T1_1_u4", 16.0),
        ("gradu_LN", "grad_u", 4, "acc_bootstrap_gradu_LN", 2.0),
        ("gradb_LN", "grad_b", 4, "acc_bootstrap_gradb_LN", 2.0),
    )


def test_compute_record_free_axes():
    g = make_grid(4, 8)
    u = synth_random_divfree(g, 4, seed=4)
    cfg = SimConfig(dim=4, modes_per_axis=8, free_axes=(1, 2))
    zero = SpectralField.zeros(g, 4)
    row = compute_record(u, zero, cfg)
    vals = wxyz(u, zero, plane=(2, 3))
    assert row["W"] == vals.W and row["Z"] == vals.Z


def test_compute_record_serves_a_shared_exponent_once():
    # the bootstrap and the classical criterion at (4, 2) both ask for
    # grad_u at p = 4: both columns are its one L^4 norm
    g = make_grid(4, 8)
    u, b = mhd_pair(g, 6)
    spec = CriterionSpec(Theorem.CLASSICAL_GRADU, pairs=(("grad_u", (4, 2)),))
    cfg = SimConfig(dim=4, modes_per_axis=8, criteria=(spec,), monitor_bootstrap=True)
    row = compute_record(u, b, cfg)
    assert row["gradu_LN"] == row["L4_grad_u"]
    assert row["L4_grad_u"] == pytest.approx(lp_norm(gradient(u), 4), rel=1e-14)


def test_compute_record_samples_each_part_once(sample_calls):
    g = make_grid(4, 8)
    u, b = mhd_pair(g, 6)
    cfg = SimConfig(
        dim=4,
        modes_per_axis=8,
        criteria=(
            CriterionSpec(Theorem.T1_4, smallness=True),
            CriterionSpec(Theorem.T1_5, pairs=(("dpi3", (3, 2)), ("dpi4", (3, 2)))),
        ),
        monitor_bootstrap=True,
    )
    compute_record(u, b, cfg)
    # L^p samples live on the evaluation grid; the pressure solve samples
    # u and b together, once, on the product grid
    lp_calls = [lead for lead, m in sample_calls if m == g.eval_modes]
    assert set(lp_calls) == {1}
    # 16 derivatives of u (grad_u3, grad_u4, gradu_LN), 16 of b (grad_b,
    # gradb_LN) and the two pressure partials
    assert len(lp_calls) == 16 + 16 + 2
    assert [c for c in sample_calls if c[1] != g.eval_modes] == [(8, 8)]


def test_compute_record_samples_no_part_of_a_zero_b(sample_calls):
    g = make_grid(4, 8)
    u = synth_random_divfree(g, 4, seed=6)
    cfg = SimConfig(
        dim=4,
        modes_per_axis=8,
        criteria=(CriterionSpec(Theorem.T1_4, smallness=True),),
        monitor_bootstrap=True,
    )
    row = compute_record(u, SpectralField.zeros(g, 4), cfg)
    # the 16 derivatives of u serve grad_u3, grad_u4 and gradu_LN; b's 16
    # would serve grad_b and gradb_LN, but a zero b is not sampled
    assert sample_calls == [(1, g.eval_modes)] * 16
    assert row["L2.4_grad_b"] == 0.0 and row["gradb_LN"] == 0.0
    assert row["gradu_LN"] > 0.0


def test_simulate_flags_divergence():
    cfg = SimConfig(
        dim=2,
        modes_per_axis=16,
        nu=1e-6,
        eta=1e-6,
        dt=0.5,
        t_end=2.5,
        initial=InitialCondition(preset="random_divfree", seed=8, amplitude=50.0),
        criteria=(CriterionSpec(Theorem.CLASSICAL_U, pairs=(("u", (8, 4)),)),),
    )
    res = simulate(cfg)
    assert res.status == "diverged"
    assert verdicts(res.series.last(), cfg.criteria, res.status) == {"CLASSICAL_U": "diverged"}
    assert len(res.series.times) >= 1
