import dataclasses
import json
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torusmhd.criteria import (
    _THEOREMS,
    SMALLNESS_ENDPOINTS,
    CriterionSpec,
    Theorem,
    admissible,
    bootstrap_columns,
)
from torusmhd.dynamics import (
    InitialCondition, MhdState, SimConfig, series_columns, simulate, step_ifrk4
)
from torusmhd.field import synth_random_divfree, synth_random_field
from torusmhd.grid import Grid, make_grid
from torusmhd import io as tio

from conftest import save_config, write_raw_snapshot


def small_state(grid, seed=0):
    u = synth_random_divfree(grid, grid.dim, seed)
    b = synth_random_divfree(grid, grid.dim, seed + 1, amplitude=0.5)
    return MhdState(u, b, 0.125, 0.7, 0.3)


def tiny_config(**over):
    base = dict(
        dim=2,
        modes_per_axis=16,
        nu=0.5,
        dt=1e-3,
        t_end=0.005,
        initial=InitialCondition(preset="random_divfree", seed=4),
        criteria=(CriterionSpec(Theorem.CLASSICAL_U, pairs=(("u", (8, 4)),)),),
    )
    base.update(over)
    return SimConfig(**base)


# ---------------------------------------------------------------- snapshots


def test_state_snapshot_roundtrip(grid2, tmp_path):
    st = small_state(grid2)
    path = tmp_path / "state_00000005.spc4"
    tio.write_state_snapshot(path, st)
    back = tio.read_state_snapshot(path)
    assert back.grid == grid2
    assert back.time == st.time and back.nu == st.nu and back.eta == st.eta
    assert np.array_equal(back.u.coeffs, st.u.coeffs)
    assert np.array_equal(back.b.coeffs, st.b.coeffs)

    # byte-identical rewrites
    other = tmp_path / "again.spc4"
    tio.write_state_snapshot(other, st)
    assert other.read_bytes() == path.read_bytes()


def test_stepped_state_snapshot_roundtrip_is_bit_exact(grid3, tmp_path):
    # a stepped state's k_last = 0 plane is Hermitian only to rounding; the
    # file holds its full layout and the read slices the half back out
    st = small_state(grid3)
    for _ in range(2):
        st, _dinc = step_ifrk4(st, 1e-3)
    path = tmp_path / tio.state_filename(2)
    tio.write_state_snapshot(path, st)
    assert path.stat().st_size == 52 + 16 * 6 * 12**3
    back = tio.read_state_snapshot(path)
    assert back.time == st.time
    assert np.array_equal(back.u.coeffs, st.u.coeffs)
    assert np.array_equal(back.b.coeffs, st.b.coeffs)


def test_scalar_snapshot_roundtrip(grid2, tmp_path):
    f = synth_random_field(grid2, 1, seed=3)
    path = tmp_path / "pi.spc4"
    full = grid2.unfold(f.coeffs)  # files hold the full (M,)*dim layout
    write_raw_snapshot(path, grid2, full, time=0.25)
    snap = tio.read_snapshot(path)
    assert snap.time == 0.25
    assert np.array_equal(snap.coeffs, full)


def header_bytes(**over):
    fields = dict(
        magic=tio.SNAPSHOT_MAGIC,
        version=tio.SNAPSHOT_VERSION,
        dim=2,
        m=16,
        count=1,
        side=2 * math.pi,
        time=0.0,
        nu=0.0,
        eta=0.0,
    )
    fields.update(over)
    return struct.pack(
        "<4s4I4d",
        fields["magic"],
        fields["version"],
        fields["dim"],
        fields["m"],
        fields["count"],
        fields["side"],
        fields["time"],
        fields["nu"],
        fields["eta"],
    )


def test_snapshot_errors_name_the_file(tmp_path):
    p = tmp_path / "bad.spc4"

    p.write_bytes(b"SP")
    with pytest.raises(tio.SnapshotFormatError, match="truncated"):
        tio.read_snapshot(p)

    p.write_bytes(header_bytes(magic=b"NOPE") + b"\0" * 4096)
    with pytest.raises(tio.SnapshotFormatError, match="bad magic"):
        tio.read_snapshot(p)

    p.write_bytes(header_bytes(version=9) + b"\0" * 4096)
    with pytest.raises(tio.SnapshotFormatError, match="version 9"):
        tio.read_snapshot(p)

    p.write_bytes(header_bytes(dim=5) + b"\0" * 4096)
    with pytest.raises(tio.SnapshotFormatError, match="dimension 5"):
        tio.read_snapshot(p)

    p.write_bytes(header_bytes(m=7) + b"\0" * 4096)
    with pytest.raises(tio.SnapshotFormatError, match="modes per axis 7"):
        tio.read_snapshot(p)

    p.write_bytes(header_bytes(side=math.inf) + b"\0" * 4096)
    with pytest.raises(tio.SnapshotFormatError, match="side length"):
        tio.read_snapshot(p)

    p.write_bytes(header_bytes(time=math.nan) + b"\0" * 4096)
    with pytest.raises(tio.SnapshotFormatError, match="non-finite time"):
        tio.read_snapshot(p)

    p.write_bytes(header_bytes() + b"\0" * 64)  # wrong payload size
    with pytest.raises(tio.SnapshotFormatError, match="payload"):
        tio.read_snapshot(p)

    good = np.zeros((1, 16, 16), dtype="<c16")
    good[0, 0, 0] = math.inf
    p.write_bytes(header_bytes() + good.tobytes())
    with pytest.raises(tio.SnapshotFormatError, match="non-finite"):
        tio.read_snapshot(p)

    # error messages carry the path so batch replays can name the culprit
    try:
        tio.read_snapshot(p)
    except tio.SnapshotFormatError as exc:
        assert "bad.spc4" in str(exc)


def test_read_state_snapshot_needs_full_state(grid2, tmp_path):
    f = synth_random_field(grid2, 1, seed=2)
    path = tmp_path / "state_00000001.spc4"
    write_raw_snapshot(path, grid2, grid2.unfold(f.coeffs))
    with pytest.raises(tio.SnapshotFormatError, match="components"):
        tio.read_state_snapshot(path)


def test_state_snapshot_refuses_broken_fields(tmp_path):
    # dim 3, M = 12 keeps |k| <= K = 4; every field below is divergence-free
    # unless said otherwise, so only the invariant named breaks.  Files hold
    # the full (M,)*dim layout.
    g = make_grid(3, 12)
    shape = (6, 12, 12, 12)
    path = tmp_path / tio.state_filename(0)

    def refused(coeffs, match):
        write_raw_snapshot(path, g, coeffs, nu=0.1, eta=0.1)
        with pytest.raises(tio.SnapshotFormatError, match=match) as info:
            tio.read_state_snapshot(path)
        assert path.name in str(info.value)

    outside = np.zeros(shape, dtype=complex)
    outside[1, 5, 0, 0] = outside[1, -5, 0, 0] = 0.3  # a real mode at k1 = 5 > K
    refused(outside, "band")
    lone = np.zeros(shape, dtype=complex)
    lone[1, 1, 0, 0] = 0.2j  # no conjugate partner at k1 = -1
    refused(lone, "Hermitian")
    lone_b = np.zeros(shape, dtype=complex)
    lone_b[4, 1, 0, 0] = 0.2j  # the same in b
    refused(lone_b, "Hermitian")
    divergent = np.zeros(shape, dtype=complex)
    divergent[0, 1, 0, 0] = divergent[0, -1, 0, 0] = 0.3  # u1 along k1
    refused(divergent, "divergence-free")
    mirror_only = np.zeros(shape, dtype=complex)
    mirror_only[1, 1, 0, -1] = 0.2j  # k_last < 0, no partner at k = (-1, 0, 1)
    refused(mirror_only, "Hermitian")
    stray = np.zeros(shape, dtype=complex)
    stray[1, 5, 0, 0] = 0.3  # k1 = 5 > K, no partner at k1 = -5
    refused(stray, "band")
    fine = outside.copy()
    fine[1, 5, 0, 0] = fine[1, -5, 0, 0] = 0.0
    fine[1, 1, 0, 0], fine[1, -1, 0, 0] = 0.2j, -0.2j
    write_raw_snapshot(path, g, fine, nu=0.1, eta=0.1)
    assert np.array_equal(g.unfold(tio.read_state_snapshot(path).u.coeffs), fine[:3])


def test_state_snapshot_read_peak_memory_is_the_file_and_the_band(tmp_path):
    # the checks run a full-layout component at a time, one |c| alive at a
    # time, the payload is not copied and gather copies the band once, so
    # one dim-4 M = 16 read's traced peak stays below the file's bytes, one
    # complex full-layout component and the u and b bands (9.73 MiB measured
    # for an 8 MiB file, 0.75 bands above the file and the component; 10.0
    # when the last component's |c| was alive while the next one's was made,
    # 16.5 when the checks and a second payload copy were full size)
    import tracemalloc

    g = make_grid(4, 16)
    st = small_state(g, seed=7)
    path = tmp_path / tio.state_filename(0)
    tio.write_state_snapshot(path, st)
    bands = st.u.coeffs.nbytes + st.b.coeffs.nbytes
    component = 16 * 16**4
    tracemalloc.start()
    try:
        tio.read_state_snapshot(path)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size + component + bands, peak - path.stat().st_size


def test_failed_snapshot_write_leaves_no_file(grid2, tmp_path, monkeypatch):
    # a write that dies mid-payload, here on the third component, leaves no
    # truncated snapshot for a listing to find, and no temporary file
    st = small_state(grid2)
    path = tmp_path / tio.state_filename(4)
    unfold = Grid.unfold
    calls = []

    def failing(self, coeffs):
        calls.append(coeffs)
        if len(calls) == 3:
            raise OSError("disk full")
        return unfold(self, coeffs)

    monkeypatch.setattr(Grid, "unfold", failing)
    with pytest.raises(OSError, match="disk full"):
        tio.write_state_snapshot(path, st)
    assert len(calls) == 3
    assert list(tmp_path.iterdir()) == []
    assert tio.list_state_snapshots(tmp_path) == []

    # over an existing snapshot, the failed write leaves the old file whole
    monkeypatch.setattr(Grid, "unfold", unfold)
    tio.write_state_snapshot(path, st)
    good = path.read_bytes()
    monkeypatch.setattr(Grid, "unfold", failing)
    calls.clear()
    with pytest.raises(OSError, match="disk full"):
        tio.write_state_snapshot(path, MhdState(st.u, st.b, 0.5, st.nu, st.eta))
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
    assert path.read_bytes() == good


def test_state_snapshot_refuses_nan_diffusivity(grid2, tmp_path):
    path = tmp_path / tio.state_filename(0)
    tio.write_state_snapshot(path, small_state(grid2))
    raw = bytearray(path.read_bytes())
    struct.pack_into("<d", raw, struct.calcsize("<4s4I2d"), math.nan)  # nu
    path.write_bytes(bytes(raw))
    assert math.isnan(tio.read_snapshot(path).nu)
    with pytest.raises(tio.SnapshotFormatError, match="diffusivities"):
        tio.read_state_snapshot(path)


def test_state_listing_orders_and_filters(grid2, tmp_path):
    times = {0: 0.0, 30: 0.03, 10: 0.01}
    for step, t in times.items():
        st = small_state(grid2)
        st = MhdState(st.u, st.b, t, st.nu, st.eta)
        tio.write_state_snapshot(tmp_path / tio.state_filename(step), st)
    (tmp_path / "state_123.spc4").write_bytes(b"decoy")
    (tmp_path / "other.spc4").write_bytes(b"decoy")
    (tmp_path / "series.csv").write_text("time\n0\n")
    listed = tio.list_state_snapshots(tmp_path)
    assert [t for t, _p in listed] == [0.0, 0.01, 0.03]
    assert [p.name for _t, p in listed] == [
        "state_00000000.spc4",
        "state_00000010.spc4",
        "state_00000030.spc4",
    ]
    assert tio.state_filename(7) == "state_00000007.spc4"


# ------------------------------------------------------------------- series


def test_series_roundtrip_exact(tmp_path):
    cfg = tiny_config()
    res = simulate(cfg)
    path = tmp_path / tio.SERIES_NAME
    tio.write_series_csv(path, res.series)
    table = tio.read_series_csv(path)
    cols = res.series.columns
    assert list(table) == cols
    assert cols[:4] == ["time", "energy", "dissipation_integral", "defect"]
    assert "L8_u" in cols and "acc_CLASSICAL_U_u" in cols
    # repr round-trips every float bit-exactly
    assert table == {"time": res.series.times, **res.series.records}


def test_series_csv_refuses_a_repeated_column(tmp_path):
    # read by name, a repeated column would hold two values per row
    path = tmp_path / "dup.csv"
    path.write_text("time,L6_u3,acc_T1_1_u3,L6_u3\n0.0,1.0,0.5,1.0\n")
    with pytest.raises(ValueError, match="'L6_u3' appears twice"):
        tio.read_series_csv(path)


def test_series_csv_errors(tmp_path):
    empty = tmp_path / "e.csv"
    empty.write_text("")
    with pytest.raises(ValueError, match="empty"):
        tio.read_series_csv(empty)
    ragged = tmp_path / "r.csv"
    ragged.write_text("a,b\n1.0\n")
    with pytest.raises(ValueError, match="ragged"):
        tio.read_series_csv(ragged)


# ------------------------------------------------------------------- config


def full_config():
    return SimConfig(
        dim=4,
        modes_per_axis=12,
        nu=0.8,
        eta=0.6,
        dt=2e-3,
        t_end=0.01,
        initial=InitialCondition(
            preset="random_divfree", seed=11, decay=2.5, amplitude=1.5, b_amplitude=0.5
        ),
        record_every=2,
        snapshot_every=4,
        criteria=(
            CriterionSpec(Theorem.T1_1, pairs=(("u3", (8, 16)), ("u4", (math.inf, 4)))),
            CriterionSpec(Theorem.T1_2, smallness=True),
        ),
        monitor_bootstrap=True,
        free_axes=(2, 4),
    )


def test_config_document_roundtrip(tmp_path):
    cfg = full_config()
    doc = json.loads(json.dumps(tio.config_to_dict(cfg)))
    assert tio.config_from_dict(doc) == cfg
    path = tmp_path / "run.json"
    save_config(path, cfg)
    assert tio.load_config(path) == cfg
    # infinite exponents travel as the string "inf"
    assert doc["criteria"][0]["pairs"]["u4"][0] == "inf"


_EXPONENTS = (1.0, 1.5, 2.0, 2.4, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 12.0, 16.0, math.inf)
# the admissible (p, r) among these, by theorem and dim; the split theorems
# exist only in dim 4
_PAIRS = {
    (theorem, dim): pairs
    for theorem in Theorem
    for dim in ((2, 3, 4) if _THEOREMS[theorem][1] == "classical" else (4,))
    if (pairs := [(p, r) for p in _EXPONENTS for r in _EXPONENTS
                  if admissible(theorem, p, r, dim)])
}


@st.composite
def sim_configs(draw):
    """Valid configurations: every field drawn, criteria with finite and
    infinite exponents, smallness specs and free axes in dim 4."""
    dim = draw(st.sampled_from((2, 3, 4)))
    specs = []
    for theorem in draw(st.lists(st.sampled_from(list(Theorem)), unique=True, max_size=3)):
        if dim == 4 and theorem in SMALLNESS_ENDPOINTS and draw(st.booleans()):
            specs.append(CriterionSpec(theorem, smallness=True))
        elif (theorem, dim) in _PAIRS:
            pair = st.sampled_from(_PAIRS[theorem, dim])
            pairs = tuple((c, draw(pair)) for c in _THEOREMS[theorem][0])
            specs.append(CriterionSpec(theorem, pairs))
    dt = draw(st.floats(1e-6, 1.0))
    record_every = draw(st.integers(1, 5))
    return SimConfig(
        dim=dim,
        modes_per_axis=draw(st.sampled_from(range(8, 66, 2))),
        side_length=draw(st.floats(1e-3, 1e3)),
        nu=draw(st.floats(0.0, 10.0)),
        eta=draw(st.floats(0.0, 10.0)),
        dt=dt,
        t_end=dt * draw(st.integers(1, 1000)),
        initial=InitialCondition(
            preset=draw(st.sampled_from(InitialCondition._PRESETS)),
            seed=draw(st.integers(0, 2**31)),
            decay=draw(st.floats(0.1, 10.0)),
            amplitude=draw(st.floats(-1e3, 1e3)),
            b_amplitude=draw(st.floats(0.0, 1e3)),
        ),
        record_every=record_every,
        snapshot_every=record_every * draw(st.integers(0, 3)),
        criteria=tuple(specs),
        monitor_bootstrap=draw(st.booleans()),
        free_axes=tuple(draw(st.permutations((1, 2, 3, 4)))[:2]) if dim == 4 else (3, 4),
    )


@settings(derandomize=True, deadline=None)
@given(cfg=sim_configs())
def test_config_document_roundtrip_property(cfg):
    assert tio.config_from_dict(json.loads(json.dumps(tio.config_to_dict(cfg)))) == cfg


@settings(derandomize=True, deadline=None)
@given(cfg=sim_configs())
def test_series_columns_follow_the_record_plan_property(cfg):
    # the table's columns are read off cfg.columns, and nothing else
    plan = cfg.columns
    head = ["energy", "dissipation_integral", "defect"] + ["W", "X", "Y", "Z"] * (cfg.dim == 4)
    cols = series_columns(cfg)
    assert cols == tuple(dict.fromkeys(head + [c for n, _q, _p, a, _r in plan for c in (n, a)]))
    accs = [acc for _n, _q, _p, acc, _r in plan]
    assert len(set(accs)) == len(accs)
    for norm, _q, _p, acc, _r in plan:
        assert cols.count(acc) == 1 and cols.index(norm) < cols.index(acc)
    if cfg.monitor_bootstrap:
        boot = bootstrap_columns(cfg.dim)
        assert plan[-2:] == boot
        assert cols[-4:] == tuple(c for n, _q, _p, a, _r in boot for c in (n, a))
    row = dict.fromkeys(cols, 0.0)
    for spec in cfg.criteria:
        assert list(spec.accumulated(row)) == [acc for _n, _q, _p, acc, _r in spec.columns]


def test_classical_pairs_follow_the_run_dimension():
    # u in L^5(L^5) is admissible in dim 3 (3/5 + 2/5 = 1) but not in dim 4
    doc = {
        "dim": 3,
        "modes_per_axis": 12,
        "criteria": [{"theorem": "CLASSICAL_U", "pairs": {"u": [5, 5]}}],
    }
    assert tio.config_from_dict(doc).criteria[0].pairs == (("u", (5.0, 5.0)),)
    with pytest.raises(tio.ConfigError, match="admissible region in dim 4"):
        tio.config_from_dict({**doc, "dim": 4})
    # grad u in L^4(L^2) sits on the dim-4 scaling line, not the dim-2 one
    doc = {
        "dim": 2,
        "modes_per_axis": 12,
        "criteria": [{"theorem": "CLASSICAL_GRADU", "pairs": {"grad_u": [4, 2]}}],
    }
    with pytest.raises(tio.ConfigError, match="admissible region in dim 2"):
        tio.config_from_dict(doc)
    assert tio.config_from_dict({**doc, "dim": 4}).criteria[0].label == "CLASSICAL_GRADU"


def test_config_document_keys_are_the_dataclass_fields():
    doc = tio.config_to_dict(SimConfig())
    assert list(doc) == [f.name for f in dataclasses.fields(SimConfig)]
    assert list(doc["initial"]) == [f.name for f in dataclasses.fields(InitialCondition)]


def _wrong_kind(default):
    """A JSON value of another kind than ``default``'s (a bool for a number,
    a string for a bool, a number for a string, a float for an integer)."""
    if isinstance(default, bool):
        return "yes"
    return {int: 2.5, float: True, str: 7}[type(default)]


# every scalar field by its dotted key, with a value of the wrong kind
_WRONG_KINDS = {
    prefix + f.name: _wrong_kind(getattr(cls(), f.name))
    for cls, prefix in ((SimConfig, ""), (InitialCondition, "initial."))
    for f in dataclasses.fields(cls)
    if isinstance(getattr(cls(), f.name), (bool, int, float, str))
}


@pytest.mark.parametrize("key", list(_WRONG_KINDS))
def test_config_refuses_a_scalar_of_the_wrong_kind(key):
    head, _, name = key.rpartition(".")
    doc = {name: _WRONG_KINDS[key]}
    with pytest.raises(tio.ConfigError, match=rf"'{re.escape(key)}' must be"):
        tio.config_from_dict({head: doc} if head else doc)


def test_config_reader_refuses_a_field_it_cannot_read():
    @dataclasses.dataclass(frozen=True)
    class Grown:
        dim: int = 4
        axes: tuple[int, ...] = (1, 2)

    with pytest.raises(TypeError, match="Grown.axes"):
        tio._scalars({}, Grown, "")


def test_config_rejects_unknown_keys():
    with pytest.raises(tio.ConfigError, match="'viscosity'"):
        tio.config_from_dict({"viscosity": 1.0})
    with pytest.raises(tio.ConfigError, match="'initial.kind'"):
        tio.config_from_dict({"initial": {"kind": "zero"}})
    with pytest.raises(tio.ConfigError, match=r"'criteria\[0\].bogus'"):
        tio.config_from_dict({"criteria": [{"theorem": "T1_1", "bogus": 1}]})


@pytest.mark.parametrize(
    "doc,msg",
    [
        ({"dim": 2.5}, "integer"),
        ({"dt": "fast"}, "number"),
        ({"monitor_bootstrap": 1}, "boolean"),
        ({"free_axes": [1]}, "two integers"),
        ({"initial": {"seed": True}}, "integer"),
        ({"initial": {"preset": 7}}, "string"),
        ({"initial": {"preset": "vortex"}}, "preset"),
        ({"criteria": {"theorem": "T1_1"}}, "list"),
        ({"criteria": [{"pairs": {}}]}, "missing 'theorem'"),
        ({"criteria": [{"theorem": "T9"}]}, "unknown theorem"),
        ({"criteria": [{"theorem": "T1_1", "smallness": True, "pairs": {}}]}, "conflicts"),
        ({"criteria": [{"theorem": "T1_5", "smallness": True}]}, "smallness"),
        ({"criteria": [{"theorem": "T1_1", "pairs": []}]}, "map components"),
        ({"criteria": [{"theorem": "T1_1", "pairs": {"u3": [8]}}]}, r"\[p, r\] pair"),
        (
            {"criteria": [{"theorem": "T1_1", "pairs": {"u3": [8, 15], "u4": [8, 16]}}]},
            "admissible",
        ),
        ({"dim": 2, "dt": -1.0}, "dt"),
        ({"dim": 5}, "dim must be one of"),
        ({"modes_per_axis": 7}, "modes_per_axis"),
        ({"side_length": -1}, "side_length"),
        ({"initial": {"preset": "random_divfree", "seed": -1}}, "seed"),
        ({"nu": math.nan}, "nu"),
        ({"eta": math.inf}, "eta"),
        ({"t_end": math.inf}, "t_end"),
        ({"side_length": math.inf}, "side_length"),
        ({"initial": {"amplitude": math.nan}}, "amplitude"),
        # 0.15 is one and a half steps of 0.1: refused, not run to 0.1 or 0.2
        ({"dim": 2, "modes_per_axis": 8, "dt": 0.1, "t_end": 0.15}, "whole number of steps"),
        ({"criteria": [{"theorem": "T1_1", "pairs": {"u3": [8, "16"], "u4": [8, 16]}}]}, "number"),
        ({"criteria": ["T1_1"]}, r"object at 'criteria\[0\]'"),
        ({"criteria": [{"theorem": "T1_1", "smallness": "yes"}]}, "boolean"),
        (["dim", 4], "JSON object"),
        ({"initial": "zero"}, "'initial' must be an object"),
    ],
)
def test_config_rejects_bad_values(doc, msg):
    with pytest.raises(tio.ConfigError, match=msg):
        tio.config_from_dict(doc)


def test_load_config_bad_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(tio.ConfigError, match="not valid JSON"):
        tio.load_config(p)


# ----------------------------------------------------------------- manifest


def test_manifest_inventory(tmp_path):
    cfg = tiny_config(snapshot_every=5)
    res = simulate(
        cfg,
        snapshot_sink=lambda n, st: tio.write_state_snapshot(
            tmp_path / tio.state_filename(n), st
        ),
    )
    tio.write_series_csv(tmp_path / tio.SERIES_NAME, res.series)
    (tmp_path / "notes.txt").write_text("scratch\n")
    # a subdirectory is no file of the run
    (tmp_path / "plots").mkdir()
    man = tio.write_manifest(tmp_path, res, started=1.0, finished=2.0)
    again = tio.read_manifest(tmp_path)
    assert again == man
    assert man["format"] == "torusmhd-run"
    assert man["format_version"] == tio.MANIFEST_VERSION
    assert man["status"] == "completed"
    assert man["records"] == len(res.series)
    assert man["columns"] == res.series.columns
    assert man["config"] == tio.config_to_dict(cfg)
    assert tio.MANIFEST_NAME not in man["files"]
    assert set(man["files"]) == {
        "series.csv",
        "notes.txt",
        "state_00000000.spc4",
        "state_00000005.spc4",
    }
    name = "series.csv"
    assert man["files"][name] == tio.file_sha256(tmp_path / name)


def test_read_manifest_bad_json(tmp_path):
    (tmp_path / tio.MANIFEST_NAME).write_text("nope")
    with pytest.raises(tio.SnapshotFormatError, match="not valid JSON"):
        tio.read_manifest(tmp_path)
