import json
import math
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest

from torusmhd import cli
from torusmhd import io as tio
from torusmhd.criteria import CriterionSpec, Theorem
from torusmhd.dynamics import InitialCondition, MhdState, SimConfig, initial_state

from conftest import save_config


def write_config(path, **over):
    base = dict(
        dim=2,
        modes_per_axis=16,
        nu=0.5,
        dt=1e-3,
        t_end=0.004,
        record_every=2,
        snapshot_every=2,
        initial=InitialCondition(preset="random_divfree", seed=5),
    )
    base.update(over)
    save_config(path, SimConfig(**base))
    return path


def test_simulate_writes_run_directory(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.json")
    out = tmp_path / "out"
    code = cli.main(["simulate", "--config", str(cfg), "--out", str(out)])
    assert code == cli.EXIT_OK
    text = capsys.readouterr().out
    assert "status: completed" in text
    assert "records: 3" in text
    man = tio.read_manifest(out)
    assert man["status"] == "completed"
    names = sorted(p.name for p in out.iterdir())
    assert tio.SERIES_NAME in names and tio.MANIFEST_NAME in names
    assert "state_00000000.spc4" in names and "state_00000004.spc4" in names


def test_simulate_is_deterministic(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.json")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
    capsys.readouterr()
    assert (out1 / "series.csv").read_bytes() == (out2 / "series.csv").read_bytes()
    assert (
        out1 / "state_00000004.spc4"
    ).read_bytes() == (out2 / "state_00000004.spc4").read_bytes()


def test_simulate_reports_divergence(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "run.json",
        nu=1e-6,
        dt=0.5,
        t_end=2.0,
        record_every=1,
        snapshot_every=1,
        initial=InitialCondition(preset="random_divfree", seed=0, amplitude=50.0),
    )
    out = tmp_path / "out"
    code = cli.main(["simulate", "--config", str(cfg), "--out", str(out)])
    assert code == cli.EXIT_DIVERGED
    assert "status: diverged" in capsys.readouterr().out
    # partial outputs still land on disk with the status recorded
    assert tio.read_manifest(out)["status"] == "diverged"


def test_diverged_run_ends_its_table_at_the_last_finite_state(tmp_path, capsys):
    # off the record cadence the run still records the state it stopped at,
    # the one whose energy and defect it prints; at record_every = 1 that
    # state is already a row, and both runs end on the same one
    tables = {}
    for every in (4, 1):
        cfg = write_config(
            tmp_path / f"run{every}.json",
            nu=1e-6,
            dt=0.5,
            t_end=4.0,
            record_every=every,
            snapshot_every=0,
            initial=InitialCondition(preset="random_divfree", seed=0, amplitude=50.0),
        )
        out = tmp_path / f"out{every}"
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_DIVERGED
        printed = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines()[:4])
        table = tables[every] = tio.read_series_csv(out / tio.SERIES_NAME)
        assert printed["status"] == "diverged"
        assert int(printed["records"]) == len(table["time"]) == tio.read_manifest(out)["records"]
        assert float(printed["energy"]) == table["energy"][-1]
        assert float(printed["defect"]) == table["defect"][-1]
    every4, every1 = tables[4], tables[1]
    assert every4["time"][-1] % 2.0 != 0.0  # off the cadence of record_every = 4
    for col in ("time", "energy", "dissipation_integral", "defect"):
        assert every4[col][-1] == every1[col][-1], col


def test_simulate_overflowing_records_end_divergent(tmp_path, capsys):
    # a Taylor-Green array of amplitude 1e60 has a finite L^3 norm, whose
    # sixth power passes the float range; one step short enough to stay
    # finite completes with an infinite accumulator instead of crashing
    cfg = write_config(
        tmp_path / "run.json",
        dt=1e-60,
        t_end=1e-60,
        snapshot_every=0,
        initial=InitialCondition(preset="taylor_green", amplitude=1e60),
        criteria=(CriterionSpec(Theorem.CLASSICAL_U, pairs=(("u", (3, 6)),)),),
    )
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_OK
    text = capsys.readouterr().out
    assert "status: completed" in text
    assert "criterion CLASSICAL_U: accumulator_divergent" in text
    series = tio.read_series_csv(out / tio.SERIES_NAME)
    assert all(math.isfinite(v) for v in series["L3_u"])
    assert series["acc_CLASSICAL_U_u"][-1] == math.inf


def test_monitor_reads_the_overflowing_run_divergent(tmp_path, capsys):
    # the run of the test above, with a snapshot at each end of its step:
    # the replay reads the verdict simulate printed, in monitor's words
    cfg = write_config(
        tmp_path / "run.json",
        dt=1e-60,
        t_end=1e-60,
        record_every=1,
        snapshot_every=1,
        initial=InitialCondition(preset="taylor_green", amplitude=1e60),
        criteria=(CriterionSpec(Theorem.CLASSICAL_U, pairs=(("u", (3, 6)),)),),
    )
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_OK
    assert "criterion CLASSICAL_U: accumulator_divergent" in capsys.readouterr().out
    assert cli.main(["monitor", "--in", str(out), "--spec", str(cfg)]) == cli.EXIT_OK
    text = capsys.readouterr().out
    assert "replayed 2 snapshots" in text
    assert "criterion CLASSICAL_U: accumulators DIVERGENT  acc_CLASSICAL_U_u=inf" in text


def test_simulate_refuses_an_out_directory_holding_a_run(tmp_path, capsys):
    out = tmp_path / "out"
    first = write_config(tmp_path / "first.json")
    assert cli.main(["simulate", "--config", str(first), "--out", str(out)]) == cli.EXIT_OK
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert "state_00000004.spc4" in before
    second = write_config(
        tmp_path / "second.json",
        t_end=0.002,
        initial=InitialCondition(preset="random_divfree", seed=6),
    )
    capsys.readouterr()
    assert cli.main(["simulate", "--config", str(second), "--out", str(out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and str(out) in err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    # each of the run's files alone marks the directory as used
    for name in ("state_00000000.spc4", tio.SERIES_NAME, tio.MANIFEST_NAME):
        used = tmp_path / f"used_{name}"
        used.mkdir()
        (used / name).write_bytes(before[name])
        assert cli.main(["simulate", "--config", str(second), "--out", str(used)]) == 2
        assert sorted(p.name for p in used.iterdir()) == [name]
    capsys.readouterr()


def test_config_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"viscosity": 1.0}))
    assert cli.main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    bad.write_text("{not json")
    assert cli.main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    # grid-level values are refused while the config is built, not mid-run
    bad.write_text(json.dumps({"dim": 2, "modes_per_axis": 7}))
    assert cli.main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert "modes_per_axis" in err
    # a t_end between two steps is refused, not rounded to either
    bad.write_text(json.dumps({"dim": 2, "modes_per_axis": 8, "dt": 0.1, "t_end": 0.15}))
    assert cli.main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "whole number of steps" in capsys.readouterr().err
    # json reads NaN and Infinity tokens; the constructors refuse them
    for doc in (
        '{"nu": NaN}',
        '{"eta": Infinity}',
        '{"t_end": Infinity}',
        '{"side_length": Infinity}',
        '{"initial": {"amplitude": NaN}}',
    ):
        bad.write_text(doc)
        assert cli.main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert "must be" in capsys.readouterr().err


def test_free_axes_below_dim_4_exits_2(tmp_path, capsys):
    # the two-axis split exists only in dim 4: a lower dim keeps the default
    bad = tmp_path / "bad.json"
    for doc in (
        {"dim": 2, "modes_per_axis": 8, "free_axes": [7, 7]},
        {"dim": 3, "modes_per_axis": 8, "free_axes": [1, 2]},
    ):
        with pytest.raises(tio.ConfigError, match=f"free_axes.*dim {doc['dim']}"):
            tio.config_from_dict(doc)
        bad.write_text(json.dumps(doc))
        assert cli.main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert "free_axes" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    doc = {"dim": 3, "modes_per_axis": 8, "free_axes": [3, 4]}
    assert tio.config_from_dict(doc).free_axes == (3, 4)


def test_missing_config_exits_4(tmp_path, capsys):
    code = cli.main(
        ["simulate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]
    )
    assert code == cli.EXIT_IO
    assert "i/o error" in capsys.readouterr().err


def test_verify_scaling_suite_passes(capsys):
    code = cli.main(["verify", "--suite", "scaling", "--seed", "3", "--n", "2"])
    assert code == cli.EXIT_OK
    text = capsys.readouterr().out
    assert "suite scaling: PASS" in text
    assert "result: pass" in text


def test_verify_identities_suite_passes(capsys):
    # the suite the verify_identities benchmark workload runs, at its --n 1
    code = cli.main(["verify", "--suite", "identities", "--n", "1"])
    text = capsys.readouterr().out
    assert code == cli.EXIT_OK
    assert "suite identities: PASS" in text


def test_verify_inequalities_suite_passes(capsys):
    # the only Tier-1 run of the suite that builds both refinement-drift reports
    code = cli.main(["verify", "--suite", "inequalities", "--n", "1"])
    text = capsys.readouterr().out
    assert code == cli.EXIT_OK
    assert "suite inequalities: PASS" in text


def test_verify_rejects_empty_ensemble(capsys):
    assert cli.main(["verify", "--suite", "scaling", "--n", "0"]) == 2
    capsys.readouterr()


def monitor_config(path):
    cfg = SimConfig(
        dim=4,
        modes_per_axis=8,
        nu=0.4,
        eta=0.3,
        dt=1e-3,
        t_end=0.006,
        record_every=3,
        snapshot_every=3,
        initial=InitialCondition(
            preset="random_divfree", seed=9, amplitude=1.0, b_amplitude=0.5
        ),
        criteria=(CriterionSpec(Theorem.T1_1, pairs=(("u3", (8, 16)), ("u4", (8, 16)))),),
        monitor_bootstrap=True,
    )
    save_config(path, cfg)
    return cfg


def test_monitor_replays_stored_run(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    cfg = monitor_config(cfg_path)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    code = cli.main(["monitor", "--in", str(out), "--spec", str(cfg_path)])
    assert code == cli.EXIT_OK
    text = capsys.readouterr().out
    assert "replayed 3 snapshots" in text
    assert "criterion T1_1: accumulators finite" in text
    assert "bootstrap_trigger:" in text

    run_table = tio.read_series_csv(out / tio.SERIES_NAME)
    replay_table = tio.read_series_csv(out / "replay.csv")
    # snapshots at every record and one record path, so every column agrees
    # bit for bit except the ledger, which the replay integrates by trapezoid
    ledger = {"dissipation_integral", "defect"}
    assert list(replay_table) == list(run_table)
    assert {"acc_T1_1_u3", "acc_bootstrap_gradu_LN"} <= set(run_table)
    for col in set(run_table) - ledger:
        assert replay_table[col] == run_table[col], col
    assert f"defect: {replay_table['defect'][-1]!r}" in text


def test_monitor_ledger_is_the_trapezoid_of_the_rates(tmp_path, monkeypatch, capsys):
    # three snapshots of one state at spacing 0.5, replayed with rates 2, 4, 6
    cfg_path = tmp_path / "spec.json"
    cfg = monitor_config(cfg_path)
    state = initial_state(cfg)
    for n in range(3):
        moved = MhdState(state.u, state.b, 0.5 * n, cfg.nu, cfg.eta)
        tio.write_state_snapshot(tmp_path / tio.state_filename(n), moved)
    rates = iter((2.0, 4.0, 6.0))
    monkeypatch.setattr(cli, "dissipation_rate", lambda state: next(rates))
    assert cli.main(["monitor", "--in", str(tmp_path), "--spec", str(cfg_path)]) == cli.EXIT_OK
    assert "defect: -4.0" in capsys.readouterr().out
    replay = tio.read_series_csv(tmp_path / "replay.csv")
    assert replay["dissipation_integral"] == [0.0, 1.5, 4.0]
    assert replay["defect"] == [0.0, -1.5, -4.0]


def test_shared_norm_columns_read_back_once(tmp_path, monkeypatch, capsys):
    # T1_1 and T1_3 smallness both monitor L6_u3 and L6_u4: each file names
    # every column once and reads back as the in-memory table, bit for bit
    cfg_path = tmp_path / "run.json"
    save_config(
        cfg_path,
        SimConfig(
            dim=4,
            modes_per_axis=8,
            nu=0.4,
            eta=0.3,
            dt=1e-3,
            t_end=0.002,
            snapshot_every=1,
            initial=InitialCondition(preset="random_divfree", seed=9, b_amplitude=0.5),
            criteria=(
                CriterionSpec(Theorem.T1_1, smallness=True),
                CriterionSpec(Theorem.T1_3, smallness=True),
            ),
            monitor_bootstrap=True,
        ),
    )
    tables = {}
    write = tio.write_series_csv

    def keep(path, series):
        tables[Path(path).name] = series
        write(path, series)

    monkeypatch.setattr(tio, "write_series_csv", keep)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert cli.main(["monitor", "--in", str(out), "--spec", str(cfg_path)]) == 0
    capsys.readouterr()
    assert sorted(tables) == ["replay.csv", tio.SERIES_NAME]
    for name, series in tables.items():
        assert len(series) == 3
        header = (out / name).read_text().splitlines()[0].split(",")
        assert len(header) == len(set(header))
        assert {"L6_u3", "acc_T1_1_u3", "acc_T1_3_u3", "acc_bootstrap_gradb_LN"} <= set(header)
        assert tio.read_series_csv(out / name) == {"time": series.times, **series.records}


def test_monitor_rejects_duplicate_snapshot_times(tmp_path, capsys):
    cfg_path = write_config(tmp_path / "run.json")
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    # a stale copy holds the same stored time as the original
    shutil.copy(out / "state_00000002.spc4", out / "state_00000009.spc4")
    code = cli.main(["monitor", "--in", str(out), "--spec", str(cfg_path)])
    assert code == cli.EXIT_IO
    err = capsys.readouterr().err
    assert "state_00000002.spc4" in err and "state_00000009.spc4" in err


def test_monitor_refuses_nan_header_fields(tmp_path, capsys):
    cfg_path = write_config(tmp_path / "run.json")
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    snap = out / "state_00000002.spc4"
    good = snap.read_bytes()
    # the header's doubles after magic and four counts: side, time, nu, eta
    for slot, name in ((1, "time"), (2, "diffusivities")):
        raw = bytearray(good)
        struct.pack_into("<d", raw, struct.calcsize("<4s4I") + 8 * slot, math.nan)
        snap.write_bytes(bytes(raw))
        code = cli.main(["monitor", "--in", str(out), "--spec", str(cfg_path)])
        assert code == cli.EXIT_IO
        err = capsys.readouterr().err
        assert "state_00000002.spc4" in err and name in err
    assert not (out / "replay.csv").exists()


def test_monitor_refuses_broken_snapshot_exits_4(tmp_path, capsys):
    cfg_path = write_config(tmp_path / "run.json")
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    capsys.readouterr()
    snap = out / "state_00000002.spc4"
    raw = snap.read_bytes()
    head = struct.calcsize("<4s4I4d")
    coeffs = np.frombuffer(raw[head:], dtype="<c16").reshape((4, 16, 16)).copy()
    # a real, divergence-free mode at k1 = 7, beyond the band K = 5
    coeffs[1, 7, 0] = coeffs[1, -7, 0] = 0.3
    snap.write_bytes(raw[:head] + coeffs.tobytes())
    code = cli.main(["monitor", "--in", str(out), "--spec", str(cfg_path)])
    assert code == cli.EXIT_IO
    err = capsys.readouterr().err
    assert "state_00000002.spc4" in err and "band" in err
    assert not (out / "replay.csv").exists()


def test_monitor_without_snapshots_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    monitor_config(cfg_path)
    empty = tmp_path / "empty"
    empty.mkdir()
    assert cli.main(["monitor", "--in", str(empty), "--spec", str(cfg_path)]) == 2
    assert "no state snapshots" in capsys.readouterr().err


def test_monitor_grid_mismatch_exits_2(tmp_path, capsys):
    run_cfg = write_config(tmp_path / "run2d.json")
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(run_cfg), "--out", str(out)]) == 0
    spec_path = tmp_path / "spec4d.json"
    monitor_config(spec_path)
    assert cli.main(["monitor", "--in", str(out), "--spec", str(spec_path)]) == 2
    assert "does not match" in capsys.readouterr().err

    # same dim and modes, another torus side
    side_path = write_config(tmp_path / "run2d_side3.json", side_length=3.0)
    side_out = tmp_path / "out_side3"
    assert cli.main(["simulate", "--config", str(side_path), "--out", str(side_out)]) == 0
    capsys.readouterr()
    assert cli.main(["monitor", "--in", str(side_out), "--spec", str(run_cfg)]) == 2
    err = capsys.readouterr().err
    assert "does not match" in err and "3.0" in err and repr(2 * math.pi) in err

    # same grid, other diffusivities: the replay would ignore the spec's
    visc_path = write_config(tmp_path / "run2d_visc.json", nu=0.5, eta=0.5)
    visc_out = tmp_path / "out_visc"
    assert cli.main(["simulate", "--config", str(visc_path), "--out", str(visc_out)]) == 0
    spec_visc = write_config(tmp_path / "spec2d_visc.json", nu=0.05, eta=0.05)
    capsys.readouterr()
    assert cli.main(["monitor", "--in", str(visc_out), "--spec", str(spec_visc)]) == 2
    err = capsys.readouterr().err
    assert "state_00000000.spc4" in err and "do not match" in err
    assert "nu=0.5, eta=0.5" in err and "nu=0.05, eta=0.05" in err
    assert not (visc_out / "replay.csv").exists()


def test_bad_thread_count_exits_2(capsys):
    assert cli.main(["--threads", "0", "verify", "--suite", "scaling"]) == 2
    assert "thread count" in capsys.readouterr().err
