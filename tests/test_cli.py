import json

import numpy as np
import pytest

from qsync.cli import (
    ConfigError,
    _write_csv,
    analyze_csv,
    main,
    parse_config_text,
    read_trajectory_csv,
    run_scenario,
    scenario_from_mapping,
    scenario_from_preset,
    sweep_from_mapping,
    run_sweep,
)
from qsync.models import PRESET_NAMES, PRESETS
from qsync.syncmeter import AnalysisThresholds

# a fast scenario: collective-decay qubit pair with a weak drive, run long
# enough that the late window sees the slow locked precession
FAST_SCENARIO = """
model = reduced_qubit
param.deltaq1 = 0.08
param.deltaq2 = 0.08
param.Omega = 0.0
param.gamma_eff = 0.25
initial.qubit1 = 0.9486832980505138 0.31622776601683794
initial.qubit2 = 0.8366600265340756 0.5477225575051661
run.t_end = 400
run.sample_dt = 0.5
analysis.window = 40:400
"""


# each preset's scenario, analysis defaults and initial amplitudes, pinned
# to literals
_FIG2_PARAMS = {"delta1": 10.0, "delta2": 10.0, "deltaq1": 0.0, "deltaq2": 0.0,
                "g0": 0.5, "J": -10.0, "kappa": 1.0, "Nc": 4}
_FIG2_INITIAL = [
    (0.9486832980505138, 0.31622776601683794),
    (0.8366600265340756, 0.5477225575051661),
    (1.0, 0.0, 0.0, 0.0),
    (1.0, 0.0, 0.0, 0.0),
]
PRESET_PINS = {
    "fig2a": dict(
        model="cavity_qubit", params={**_FIG2_PARAMS, "Omega": 0.0005},
        t_end=3000.0, sample_dt=2.0, window=(300.0, 1100.0), catalog="pauli",
        thresholds=AnalysisThresholds(), initial=_FIG2_INITIAL,
    ),
    "fig2b": dict(
        model="cavity_qubit", params={**_FIG2_PARAMS, "Omega": 0.0},
        t_end=3000.0, sample_dt=2.0, window=(800.0, 2400.0), catalog="pauli",
        thresholds=AnalysisThresholds(), initial=_FIG2_INITIAL,
    ),
    "fig2c": dict(
        model="cavity_qubit",
        params={**_FIG2_PARAMS, "delta2": 22.5, "deltaq1": 0.08, "deltaq2": 0.02,
                "Omega": 0.001},
        t_end=1000.0, sample_dt=0.5, window=(20.0, 300.0), catalog="pauli",
        thresholds=AnalysisThresholds(), initial=_FIG2_INITIAL,
    ),
    "fig3": dict(
        model="vdp",
        params={"omega1": 1.0, "omega2": 1.0, "J": 0.5, "Omega1": 0.001,
                "Omega2": 0.001, "kappa1": 2.0, "kappa2": 2.0, "N": 12},
        t_end=20.0, sample_dt=0.02, window=(2.0, 12.0), catalog="moments:12",
        thresholds=AnalysisThresholds(tol_freq=0.05),
        initial=[
            (0.5, 0.8660254037844386) + (0.0,) * 10,
            (0.22360679774997896, 0.9746794344808963) + (0.0,) * 10,
        ],
    ),
}


# a small van der Pol pair: its trajectory carries the S_c moments behind `extras`
SMALL_VDP = """
model = vdp
param.omega1 = 1
param.omega2 = 1
param.J = 0
param.Omega1 = 0.1
param.Omega2 = 0.1
param.kappa1 = 0.3
param.kappa2 = 0.3
param.N = 6
initial.mode1 = 1 0 0 0 0 0
initial.mode2 = 1 0 0 0 0 0
run.t_end = 20
run.sample_dt = 0.1
"""


def write_config(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestConfigParsing:
    def test_basic_mapping(self):
        mapping = parse_config_text("a.b = 1\n# comment\nc = x  # inline\n")
        assert mapping == {"a.b": "1", "c": "x"}

    def test_bad_line_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("just words\n")

    def test_scenario_roundtrip(self):
        cfg = scenario_from_mapping(parse_config_text(FAST_SCENARIO))
        assert cfg.model == "reduced_qubit"
        assert cfg.params["gamma_eff"] == pytest.approx(0.25)
        assert cfg.window == (40.0, 400.0)

    def test_missing_t_end_names_key(self):
        text = FAST_SCENARIO.replace("run.t_end = 400\n", "")
        with pytest.raises(ConfigError, match="run.t_end"):
            scenario_from_mapping(parse_config_text(text))

    @pytest.mark.parametrize("t_end, sample_dt, key", [
        ("400", "0", "run.sample_dt"),
        ("1e308", "1e-308", "run.t_end"),   # t_end / sample_dt overflows
    ])
    def test_bad_sample_grid_rejected(self, t_end, sample_dt, key):
        text = FAST_SCENARIO.replace("run.t_end = 400", f"run.t_end = {t_end}")
        text = text.replace("run.sample_dt = 0.5", f"run.sample_dt = {sample_dt}")
        with pytest.raises(ConfigError, match=key):
            scenario_from_mapping(parse_config_text(text))

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="param.bogus"):
            scenario_from_mapping(parse_config_text(FAST_SCENARIO + "param.bogus = 1\n"))

    def test_missing_initial_rejected(self):
        text = "\n".join(
            line for line in FAST_SCENARIO.splitlines() if not line.startswith("initial")
        )
        with pytest.raises(ConfigError, match="initial"):
            scenario_from_mapping(parse_config_text(text))

    def test_unnormalized_amplitudes_rejected(self, tmp_path):
        text = FAST_SCENARIO.replace(
            "initial.qubit1 = 0.9486832980505138 0.31622776601683794",
            "initial.qubit1 = 1.0 1.0",
        )
        cfg = scenario_from_mapping(parse_config_text(text))
        with pytest.raises(ConfigError, match="norm"):
            run_scenario(cfg, tmp_path / "out")

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_preset_scenario_echo(self, name):
        pin = PRESET_PINS[name]
        cfg = scenario_from_preset(name)
        assert cfg.echo() == {
            "model": pin["model"],
            "params": pin["params"],
            "initial": {"preset": name},
            "run": {"t_end": pin["t_end"], "sample_dt": pin["sample_dt"],
                    "rel_tol": 1e-08, "abs_tol": 1e-10},
        }
        assert cfg.window == pin["window"]
        assert cfg.catalog == pin["catalog"]
        assert cfg.thresholds == pin["thresholds"]
        assert [tuple(a) for a in PRESETS[name].initial] == pin["initial"]


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("fastrun")
    cfg = scenario_from_mapping(parse_config_text(FAST_SCENARIO))
    report = run_scenario(cfg, outdir)
    return outdir, report


class TestRunAnalyze:
    def test_output_files_exist(self, run_dir):
        outdir, _ = run_dir
        for name in ("trajectory.csv", "mutual_info.csv", "diagnostics.csv", "report.json"):
            assert (outdir / name).exists()

    def test_stats_json_beside_report(self, run_dir):
        outdir, report = run_dir
        stats = json.loads((outdir / "stats.json").read_text())
        assert set(stats) == {"matvecs", "steps_accepted", "steps_rejected", "h_min",
                              "coordinates", "dim_squared", "renormalizations"}
        assert stats["coordinates"] == stats["dim_squared"] == 16
        assert stats["steps_accepted"] > 0 and stats["h_min"] > 0
        # one matvec per stage: six per attempted step, plus the start-up ones
        attempts = stats["steps_accepted"] + stats["steps_rejected"]
        assert 6 * attempts < stats["matvecs"] <= 6 * attempts + 2 + stats["renormalizations"]
        assert not set(stats) & set(report)
        assert read_trajectory_csv(outdir / "trajectory.csv").stats is None

    def test_report_structure(self, run_dir):
        _, report = run_dir
        assert set(report["pairs"]) == {"sigma_x", "sigma_y", "sigma_z"}
        assert report["chi"] == len(report["synchronized_set"])
        assert report["xi"] == report["chi"] - report["c"] or report["chi"] == 0
        assert "thresholds" in report and "window" in report["thresholds"]
        assert report["scenario"]["model"] == "reduced_qubit"
        assert report["version"]

    def test_csv_full_precision_roundtrip(self, run_dir):
        outdir, _ = run_dir
        csv = read_trajectory_csv(outdir / "trajectory.csv")
        from qsync.cli import _build_model, _initial_state
        from qsync.lindblad import evolve

        cfg = scenario_from_mapping(parse_config_text(FAST_SCENARIO))
        model = _build_model(cfg)
        rho0 = _initial_state(cfg, model)
        traj = evolve(model, rho0, cfg.t_end, cfg.sample_dt, mutual_info_pair=(0, 1))
        assert csv.names == traj.names
        assert np.array_equal(csv.times, traj.times)
        assert np.array_equal(csv.values, traj.values)  # bitwise round-trip

    def test_csv_io_matches_reference_loops(self, tmp_path):
        # the numpy writer and reader against per-value formatting and float()
        rng = np.random.default_rng(0)
        cols = [np.arange(50) * 0.1] + [
            rng.normal(size=50) * 10.0 ** rng.integers(-300, 300, size=50) for _ in range(3)
        ]
        cols[1][0] = -0.0
        path = tmp_path / "t.csv"
        _write_csv(path, ["time", "a", "b", "c"], cols)
        lines = ["time,a,b,c"] + [",".join(f"{c[i]:.17g}" for c in cols) for i in range(50)]
        assert path.read_text() == "\n".join(lines) + "\n"
        traj = read_trajectory_csv(path)
        ref = np.array([[float(tok) for tok in line.split(",")] for line in lines[1:]])
        assert traj.names == ["a", "b", "c"]
        assert traj.times.tobytes() == ref[:, 0].tobytes()
        assert traj.values.tobytes() == ref[:, 1:].tobytes()

    def test_reanalysis_is_field_identical(self, run_dir, tmp_path):
        outdir, report = run_dir
        cfg = scenario_from_mapping(parse_config_text(FAST_SCENARIO))
        re_report = analyze_csv(
            outdir / "trajectory.csv", "pauli", cfg.window, cfg.thresholds,
            tmp_path / "reanalysis",
        )
        assert re_report == report
        on_disk = json.loads((tmp_path / "reanalysis" / "report.json").read_text())
        original = json.loads((outdir / "report.json").read_text())
        assert on_disk == original

    def test_synthetic_two_column_csv_in_phase(self, tmp_path):
        t = np.arange(0.0, 60.0, 0.05)
        wave = 0.4 * np.cos(1.1 * t + 0.2)
        path = tmp_path / "trajectory.csv"
        with open(path, "w") as fh:
            fh.write("time,sigma_x_1,sigma_x_2,sigma_y_1,sigma_y_2,sigma_z_1,sigma_z_2\n")
            for i, ti in enumerate(t):
                row = [ti, wave[i], wave[i], 0.0, 0.0, 0.0, 0.0]
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
        report = analyze_csv(path, "pauli", None, AnalysisThresholds(), tmp_path / "out")
        assert report["pairs"]["sigma_x"]["synced"]
        assert report["pairs"]["sigma_x"]["phase_class"] == "in_phase"
        assert report["synchronized_set"] == ["sigma_x"]
        assert report["scenario"] is None

    def test_reanalysis_recomputes_extras(self, tmp_path):
        cfg = scenario_from_mapping(parse_config_text(SMALL_VDP))
        outdir = tmp_path / "vdp"
        report = run_scenario(cfg, outdir)
        assert set(report["extras"]) == {"s_c_final", "s_c_max", "s_c_min"}
        (outdir / "report.json").unlink()
        re_report = analyze_csv(outdir / "trajectory.csv", "moments:6", None,
                                cfg.thresholds, tmp_path / "re")
        assert re_report["extras"] == report["extras"]
        assert re_report["mutual_info_final"] == report["mutual_info_final"]
        assert re_report["scenario"] is None and re_report["model"] is None

    def test_schema_mismatch_missing_columns(self, tmp_path):
        path = tmp_path / "trajectory.csv"
        t = np.arange(0.0, 10.0, 0.05)
        with open(path, "w") as fh:
            fh.write("time,foo_1,foo_2\n")
            for ti in t:
                fh.write(f"{ti:.17g},0,0\n")
        with pytest.raises(ConfigError, match="sigma_x_1"):
            analyze_csv(path, "pauli", None, AnalysisThresholds(), tmp_path / "out")


class TestSweep:
    def test_one_point_sweep_matches_run(self, tmp_path):
        sweep_text = FAST_SCENARIO + "sweep.axis.param.Omega = 0.0\n"
        spec = sweep_from_mapping(parse_config_text(sweep_text))
        successes = run_sweep(spec, tmp_path / "sweep")
        assert successes == 1
        summary = (tmp_path / "sweep" / "summary.csv").read_text().splitlines()
        assert summary[0] == "point,Omega,chi,c,xi,mutual_info_final,status"
        assert summary[1].endswith("ok")

        cfg = scenario_from_mapping(parse_config_text(FAST_SCENARIO))
        direct = run_scenario(cfg, tmp_path / "direct")
        point = json.loads((tmp_path / "sweep" / "point_0000" / "report.json").read_text())
        assert point["chi"] == direct["chi"]
        assert point["xi"] == direct["xi"]

    def test_grid_cap_refused_before_running(self, tmp_path):
        sweep_text = FAST_SCENARIO + (
            "sweep.axis.param.Omega = " + " ".join(["0.0"] * 9) + "\n"
            "sweep.axis.param.deltaq2 = " + " ".join(["0.1"] * 9) + "\n"
            "sweep.cap = 50\n"
        )
        spec = sweep_from_mapping(parse_config_text(sweep_text))
        with pytest.raises(ConfigError, match="cap"):
            run_sweep(spec, tmp_path / "sweep")
        assert not (tmp_path / "sweep" / "point_0000").exists()

    def test_axis_must_name_model_parameter(self):
        with pytest.raises(ConfigError, match="axis"):
            sweep_from_mapping(parse_config_text(FAST_SCENARIO + "sweep.axis.param.nope = 1\n"))

    def test_partial_failure_recorded(self, tmp_path):
        # second grid point has an invalid (negative) collective rate
        sweep_text = FAST_SCENARIO + "sweep.axis.param.gamma_eff = 0.25 -1.0\n"
        spec = sweep_from_mapping(parse_config_text(sweep_text))
        successes = run_sweep(spec, tmp_path / "sweep")
        assert successes == 1
        rows = (tmp_path / "sweep" / "summary.csv").read_text().splitlines()[1:]
        assert rows[0].endswith("ok")
        assert "error" in rows[1]


class TestMainEntry:
    def test_presets_listing(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out.split()
        assert out == ["fig2a", "fig2b", "fig2c", "fig3"]

    def test_run_with_config(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, FAST_SCENARIO)
        rc = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert rc == 0
        assert (tmp_path / "out" / "report.json").exists()

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, FAST_SCENARIO.replace("run.t_end = 400\n", ""))
        rc = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "run.t_end" in capsys.readouterr().err

    def test_truncation_error_exit_code(self, tmp_path, capsys):
        # resonant strong drive on a tiny vdp truncation blows the guard
        text = """
model = vdp
param.omega1 = 0
param.omega2 = 0
param.J = 0
param.Omega1 = 2.0
param.Omega2 = 0
param.kappa1 = 0
param.kappa2 = 0
param.N = 6
initial.mode1 = 1 0 0 0 0 0
initial.mode2 = 1 0 0 0 0 0
run.t_end = 20
run.sample_dt = 0.5
"""
        cfg_path = write_config(tmp_path, text)
        rc = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert rc == 3
        assert "truncation" in capsys.readouterr().err.lower()

    def test_failed_rerun_leaves_no_report(self, tmp_path):
        out = tmp_path / "o2"
        good = write_config(tmp_path, SMALL_VDP, "good.cfg")
        assert main(["run", "--config", str(good), "--out", str(out)]) == 0
        assert (out / "report.json").exists()
        # strong gain drives the top Fock level past the guard
        bad = write_config(tmp_path, SMALL_VDP.replace("param.Omega1 = 0.1", "param.Omega1 = 5"),
                           "bad.cfg")
        assert main(["run", "--config", str(bad), "--out", str(out)]) == 3
        for name in ("report.json", "trajectory.csv", "mutual_info.csv", "diagnostics.csv"):
            assert not (out / name).exists(), name
        # nothing stale is left to re-analyse
        assert main(["analyze", str(out / "trajectory.csv"), "--out",
                     str(tmp_path / "re")]) == 4

    def test_non_finite_number_exit_code(self, tmp_path, capsys):
        text = FAST_SCENARIO.replace("param.gamma_eff = 0.25", "param.gamma_eff = nan")
        cfg_path = write_config(tmp_path, text)
        rc = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "param.gamma_eff" in err
        assert "Traceback" not in err

    def test_non_finite_amplitude_exit_code(self, tmp_path, capsys):
        text = FAST_SCENARIO.replace(
            "initial.qubit1 = 0.9486832980505138", "initial.qubit1 = nan"
        )
        cfg_path = write_config(tmp_path, text)
        rc = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "initial.qubit1" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--tol-freq", "--tol-phase"])
    def test_non_finite_tolerance_flag_exit_code(self, run_dir, tmp_path, capsys, flag):
        outdir, _ = run_dir
        rc = main([
            "analyze", str(outdir / "trajectory.csv"), flag, "nan",
            "--window", "40:400", "--out", str(tmp_path / "re"),
        ])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and flag in err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "re" / "report.json").exists()

    def test_sweep_bad_sample_grid_exit_code(self, tmp_path, capsys):
        text = FAST_SCENARIO.replace("run.t_end = 400", "run.t_end = 400.2")
        sweep_path = write_config(
            tmp_path, text + "sweep.axis.param.Omega = 0.0 0.001\n", "sweep.cfg"
        )
        rc = main(["sweep", "--config", str(sweep_path), "--out", str(tmp_path / "sw")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "run.t_end" in err
        assert not (tmp_path / "sw" / "summary.csv").exists()

    def test_short_analysis_window_exit_code(self, run_dir, tmp_path, capsys):
        outdir, _ = run_dir
        rc = main([
            "analyze", str(outdir / "trajectory.csv"), "--window", "390:400",
            "--out", str(tmp_path / "re"),
        ])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and "samples" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("defect", ["nan", "header_only", "ragged", "mi_columns",
                                        "report_list"])
    def test_bad_trajectory_csv_exit_code(self, tmp_path, capsys, defect):
        t = np.arange(0.0, 1001.0)
        wave = 0.4 * np.cos(0.3 * t)
        lines = ["time,sigma_x_1,sigma_x_2,sigma_y_1,sigma_y_2,sigma_z_1,sigma_z_2"]
        lines += [",".join(f"{v:.17g}" for v in (ti, w, w, 0, 0, 0, 0))
                  for ti, w in zip(t, wave)]
        if defect == "nan":    # one sigma_x_1 sample inside the window
            cells = lines[500].split(",")
            lines[500] = ",".join([cells[0], "nan"] + cells[2:])
        elif defect == "header_only":
            lines = lines[:1]
        elif defect == "ragged":
            lines[500] = lines[500].rsplit(",", 1)[0]
        elif defect == "mi_columns":   # a sibling mutual_info.csv without its column
            (tmp_path / "mutual_info.csv").write_text("time\n0\n1\n")
        else:                          # a sibling report.json that is no JSON object
            (tmp_path / "report.json").write_text("[]\n")
        path = tmp_path / "trajectory.csv"
        path.write_text("\n".join(lines) + "\n")
        rc = main(["analyze", str(path), "--window", "100:1000",
                   "--out", str(tmp_path / "re")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and str(tmp_path) in err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "re" / "report.json").exists()

    def test_interrupted_csv_write_leaves_no_file(self, tmp_path, capsys, monkeypatch):
        def failing_savetxt(fh, *args, **kwargs):
            fh.write("time,partial\n0,")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savetxt", failing_savetxt)
        cfg_path = write_config(tmp_path, FAST_SCENARIO)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 4
        assert "disk full" in capsys.readouterr().err
        assert not (out / "trajectory.csv").exists()
        assert not (out / "report.json").exists()
        assert not list(out.glob("*.tmp"))

    def test_io_error_exit_code(self, capsys):
        rc = main(["run", "--config", "/nonexistent/path.cfg", "--out", "/tmp/x"])
        assert rc == 4

    def test_analyze_cli(self, tmp_path):
        cfg_path = write_config(tmp_path, FAST_SCENARIO)
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
        rc = main([
            "analyze", str(tmp_path / "out" / "trajectory.csv"),
            "--catalog", "pauli", "--window", "40:400",
            "--out", str(tmp_path / "re"),
        ])
        assert rc == 0
        original = json.loads((tmp_path / "out" / "report.json").read_text())
        renewed = json.loads((tmp_path / "re" / "report.json").read_text())
        assert renewed == original

    def test_sweep_cli_exit_codes(self, tmp_path):
        sweep_path = write_config(
            tmp_path, FAST_SCENARIO + "sweep.axis.param.gamma_eff = -1 -2\n", "sweep.cfg"
        )
        rc = main(["sweep", "--config", str(sweep_path), "--out", str(tmp_path / "sw")])
        assert rc == 5  # no point succeeded
