import concurrent.futures
import contextlib
import csv
import dataclasses
import io
import json
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsync.cli
from conftest import dopri5, tolerances
from qsync.cli import (
    ConfigError,
    _write_csv,
    analyze_csv,
    analyze_trajectory,
    main,
    parse_config_text,
    read_trajectory_csv,
    run_scenario,
    scenario_from_mapping,
    scenario_from_preset,
    sweep_from_mapping,
    run_sweep,
)
from qsync.lindblad import ABS_TOL, REL_TOL, evolve, propagate_dense
from qsync.models import MODELS, PRESET_NAMES, PRESETS
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
_FIG2_INITIAL = {
    "qubit1": (0.9486832980505138, 0.31622776601683794),
    "qubit2": (0.8366600265340756, 0.5477225575051661),
    "cav1": (1.0,),
    "cav2": (1.0,),
}
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
        initial={
            "mode1": (0.5, 0.8660254037844386),
            "mode2": (0.22360679774997896, 0.9746794344808963),
        },
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


def write_pauli_csv(path, t, columns):
    """A pauli trajectory.csv on times t: the given columns, every other one zero."""
    names = [f"sigma_{a}_{k}" for a in "xyz" for k in (1, 2)]
    data = np.column_stack([t] + [columns.get(name, np.zeros_like(t)) for name in names])
    np.savetxt(path, data, fmt="%.17g", delimiter=",", header=",".join(["time"] + names),
               comments="")
    return path


def run_fresh_python(args, stdin=""):
    """Run `python <args>` in a fresh interpreter that imports qsync from this checkout."""
    src = str(Path(qsync.cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, *args], input=stdin, env=env,
                          capture_output=True, text=True, timeout=120)


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
        ("1e15", "0.5", "run.t_end"),       # 2e15 samples: over the cap
    ])
    def test_bad_sample_grid_rejected(self, t_end, sample_dt, key):
        text = FAST_SCENARIO.replace("run.t_end = 400", f"run.t_end = {t_end}")
        text = text.replace("run.sample_dt = 0.5", f"run.sample_dt = {sample_dt}")
        with pytest.raises(ConfigError, match=key):
            scenario_from_mapping(parse_config_text(text))

    @pytest.mark.parametrize("key, value", [
        ("sweep.cap", "2.9"),
        ("sweep.cap", "0"),
        ("sweep.cap", "-1"),
        ("analysis.tol_freq", "-0.5"),
        ("analysis.tol_phase", "-0.5"),
    ])
    def test_bad_run_setting_rejected(self, key, value):
        # refused when the sweep config is parsed, before any point runs
        text = FAST_SCENARIO + f"sweep.axis.param.Omega = 0 0.001\n{key} = {value}\n"
        # the key's own error, not the unknown-key one
        own_error = rf"^({re.escape(key)} must be|key '{re.escape(key)}')"
        with pytest.raises(ConfigError, match=own_error):
            sweep_from_mapping(parse_config_text(text))

    @pytest.mark.parametrize("name", ["amp_min", "fit_tol", "min_cycles", "rank_tol",
                                      "comm_tol"])
    def test_fit_constant_keys_are_unknown(self, name):
        # the fit gates and the rank/commutator tolerances are syncmeter
        # constants: a config that sets one is refused, whatever the value
        for value in ("-0.5", "0.5"):
            text = FAST_SCENARIO + f"analysis.{name} = {value}\n"
            with pytest.raises(ConfigError, match=f"^unknown key 'analysis.{name}'$"):
                scenario_from_mapping(parse_config_text(text))

    @pytest.mark.parametrize("key", ["run.rel_tol", "run.abs_tol"])
    def test_tolerance_keys_are_unknown(self, key):
        # the integrator's error tolerances are lindblad constants: a config
        # that sets one is refused, whatever the value
        for value in ("-1", "0", "1e-3"):
            text = FAST_SCENARIO + f"sweep.axis.param.Omega = 0 0.001\n{key} = {value}\n"
            with pytest.raises(ConfigError, match=f"^unknown key '{re.escape(key)}'$"):
                sweep_from_mapping(parse_config_text(text))

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(AnalysisThresholds)])
    def test_every_tolerance_is_a_key_and_a_flag(self, name, tmp_path, capsys):
        # what a config sets, `run` and `analyze` can set too, so a flagless
        # re-analysis that reads the report.json back covers every field
        cfg = scenario_from_mapping(parse_config_text(
            FAST_SCENARIO + f"analysis.{name} = 0.125\n"))
        assert getattr(cfg.thresholds, name) == 0.125
        flag = "--" + name.replace("_", "-")
        for argv in (["run", "fig2a"], ["analyze", str(tmp_path / "trajectory.csv")]):
            assert main(argv + ["--out", str(tmp_path / "out"), flag, "x"]) == 2
            assert capsys.readouterr().err == (
                f"error: key '{flag}': cannot parse 'x' as a number\n")

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
        cases = [
            (FAST_SCENARIO.replace("initial.qubit1 = 0.9486832980505138 0.31622776601683794",
                                   "initial.qubit1 = 1.0 1.0"),
             "^initial.qubit1: amplitudes have squared norm 2, not 1$"),
            # a list longer than its factor: seven amplitudes for N = 6
            (SMALL_VDP.replace("initial.mode1 = 1 0 0 0 0 0", "initial.mode1 = 1 0 0 0 0 0 0"),
             "^initial.mode1: expected at most 6 amplitudes, got 7$"),
        ]
        for text, message in cases:
            cfg = scenario_from_mapping(parse_config_text(text))
            with pytest.raises(ConfigError, match=message):
                run_scenario(cfg, tmp_path / "out")

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_preset_scenario_echo(self, name):
        pin = PRESET_PINS[name]
        cfg = scenario_from_preset(name)
        assert cfg.echo() == {
            "model": pin["model"],
            "params": pin["params"],
            "initial": {label: [f"{a:.17g}" for a in amps]
                        for label, amps in pin["initial"].items()},
            "run": {"t_end": pin["t_end"], "sample_dt": pin["sample_dt"],
                    "rel_tol": 1e-08, "abs_tol": 1e-10},
        }
        assert cfg.window == pin["window"]
        assert cfg.build()[0].catalog == pin["catalog"]
        assert cfg.thresholds == pin["thresholds"]
        assert {k: tuple(a) for k, a in PRESETS[name].initial.items()} == pin["initial"]

    def test_echo_records_parameter_defaults(self):
        # a config that omits kappa and Nc runs with their defaults, and
        # report.json shows them
        text = "".join(line + "\n" for line in _BASE_CONFIGS["cavity_qubit"].splitlines()
                       if not line.startswith(("param.kappa", "param.Nc")))
        cfg = scenario_from_mapping(parse_config_text(text))
        assert set(cfg.params) == set(_FIG2_PARAMS) - {"kappa", "Nc"} | {"Omega"}
        assert cfg.echo()["params"] == {**_FIG2_PARAMS, "Omega": 0.0005}

    def test_initial_preset_expands_to_amplitudes(self):
        cfg = scenario_from_mapping(parse_config_text(_BASE_CONFIGS["cavity_qubit"]))
        assert cfg.initial == PRESETS["fig2a"].initial
        assert cfg.echo()["initial"] == PRESETS["fig2a"].echo()["initial"]

    def test_initial_preset_refuses_other_initial_keys(self, tmp_path, capsys):
        text = _BASE_CONFIGS["cavity_qubit"] + "initial.qubit1 = 0 1\ninitial.bogus = 1 0\n"
        with pytest.raises(ConfigError, match="initial.qubit1, initial.bogus"):
            scenario_from_mapping(parse_config_text(text))
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_config(tmp_path, text)),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: initial.preset") and "initial.bogus" in err
        assert not out.exists()

    def test_benchmark_harness_view(self, run_dir, tmp_path):
        # what bench/workloads.py and bench/selfcheck.py read of a parsed scenario
        cfg = scenario_from_mapping(parse_config_text(FAST_SCENARIO))
        params_cls, build = MODELS[cfg.model]
        assert build(params_cls(**cfg.params)).dim == 4
        # the reanalyze set-up resolves the catalog through the cli module
        assert [name for name, _ in qsync.cli.resolve_catalog("pauli")] == [
            "sigma_x", "sigma_y", "sigma_z"]
        assert qsync.cli.AnalysisThresholds() == AnalysisThresholds()
        # the bench configs name the model's own catalog
        with_catalog = scenario_from_mapping(parse_config_text(
            FAST_SCENARIO + "analysis.catalog = pauli\n"))
        assert with_catalog.build()[0].catalog == "pauli"
        assert (cfg.window, cfg.thresholds) == ((40.0, 400.0), AnalysisThresholds())
        # a replaced record is not validated; run_scenario refuses it
        off_grid = dataclasses.replace(cfg, t_end=cfg.t_end + cfg.sample_dt / 3)
        with pytest.raises(ValueError, match="multiple of sample_dt"):
            run_scenario(off_grid, tmp_path / "out")
        spec = sweep_from_mapping(parse_config_text(
            FAST_SCENARIO + "sweep.axis.param.Omega = 0 0.001\n"))
        assert (spec.base.t_end, spec.base.sample_dt, spec.cap) == (400.0, 0.5, 64)
        assert dataclasses.replace(spec, cap=1).cap == 1
        # the sweep workload's oracle takes the model, state and times positionally
        model, rho0 = cfg.build()
        times = np.arange(3) * cfg.sample_dt
        states = propagate_dense(model, rho0, times)
        assert [s.matrix.ravel(order="F").shape for s in states] == [(16,)] * 3
        # the transient checks re-analyse a run beside its own report.json,
        # naming its catalog positionally
        outdir, report = run_dir
        again = analyze_csv(outdir / "trajectory.csv", "pauli", cfg.window, cfg.thresholds,
                            tmp_path / "redo")
        assert again == report
        # the transient workloads write each amplitude list zero-padded to
        # its factor's full length, and get the state of the short list
        padded, short = (
            scenario_from_mapping(parse_config_text(
                SMALL_VDP.replace("initial.mode2 = 1 0 0 0 0 0", f"initial.mode2 = {line}")))
            for line in ("0.6+0j 0.8+0j 0+0j 0+0j 0+0j 0+0j", "0.6+0j 0.8+0j"))
        assert np.array_equal(padded.build()[1].matrix, short.build()[1].matrix)
        # the reanalyze workload passes "pauli" for a CSV with no report.json beside it
        bare = tmp_path / "input" / "trajectory.csv"
        bare.parent.mkdir()
        bare.write_bytes((outdir / "trajectory.csv").read_bytes())
        alone = analyze_csv(bare, "pauli", cfg.window, AnalysisThresholds(), tmp_path / "w0")
        assert alone["thresholds"]["catalog"] == "pauli"
        assert alone["pairs"] == report["pairs"] and alone["scenario"] is None


# one valid scenario per model; the property test overwrites some of its keys
_BASE_CONFIGS = {
    "reduced_qubit": FAST_SCENARIO,
    "vdp": SMALL_VDP,
    "cavity_qubit": "model = cavity_qubit\n"
                    + "".join(f"param.{k} = {v}\n" for k, v in _FIG2_PARAMS.items())
                    + "param.Omega = 0.0005\ninitial.preset = fig2a\n"
                    + "run.t_end = 20\nrun.sample_dt = 2\n",
}
_REAL_KEYS = sorted(
    {"model", "initial.preset", "run.t_end", "run.sample_dt", "analysis.window",
     "analysis.catalog", "analysis.tol_freq", "analysis.tol_phase", "sweep.cap"}
    | {f"initial.{label}" for label in ("qubit1", "qubit2", "cav1", "cav2", "mode1", "mode2")}
    | {f"{prefix}{f.name}" for cls, _ in MODELS.values() for f in dataclasses.fields(cls)
       for prefix in ("param.", "sweep.axis.param.")}
)
_NUMBER_TEXT = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "1e308", "-1e308", "1e400", "1e-308", "5e-324",
                     "0", "-0", "1", "2", "0.5", "12", "-3", "1e20", "+", "", "0x10"]),
    st.floats().map(repr),
    st.integers(-10**30, 10**30).map(str),
)
_VALUE_TEXT = st.one_of(
    _NUMBER_TEXT,
    st.sampled_from(sorted(MODELS) + list(PRESET_NAMES) + ["pauli", "moments:3", "moments:x",
                                                            "moments:1", "moments:1e308",
                                                            "moments:10000000"]),
    # ragged or malformed amplitude lists
    st.lists(st.one_of(_NUMBER_TEXT, st.sampled_from(["1j", "nanj", "1+", "(1+2j)", "1e400j"])),
             max_size=6).map(" ".join),
    # malformed and degenerate windows
    st.tuples(_NUMBER_TEXT, _NUMBER_TEXT).map(":".join),
    st.sampled_from([":", "1:2:3", "a:b", "2:1", "1:1"]),
    st.text(max_size=8),
)
_KEY_TEXT = st.one_of(st.sampled_from(_REAL_KEYS), st.text(max_size=8))

# short runs of the cheap base configs: 128 samples, the last 65 in the window
_SHORT_RUNS = {
    "reduced_qubit": FAST_SCENARIO
    + "run.t_end = 32\nrun.sample_dt = 0.25\nanalysis.window = 16:32\n",
    "vdp": SMALL_VDP + "run.t_end = 8\nrun.sample_dt = 0.0625\nanalysis.window = 4:8\n",
}
# edits that keep a run short: parameters only take small values, and the
# run grid stays as given (the parse property above covers the rest)
_PARAM_KEYS = [k for k in _REAL_KEYS if k.startswith("param.")]
_PARAM_TEXT = st.sampled_from(["nan", "inf", "-1", "0", "1e-308", "0.5", "1", "2", "x", ""])
_RUN_KEY_TEXT = st.one_of(
    st.sampled_from([k for k in _REAL_KEYS
                     if not k.startswith(("param.", "sweep.", "run.t_end", "run.sample_dt"))]),
    st.text(max_size=8),
)


class TestConfigProperties:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(base=st.sampled_from(sorted(_BASE_CONFIGS)),
           edits=st.lists(st.tuples(_KEY_TEXT, _VALUE_TEXT), max_size=4),
           sweep=st.booleans())
    def test_parsing_raises_only_config_error(self, base, edits, sweep):
        # any config text is either accepted or refused with a ConfigError;
        # later lines override earlier ones, so the edits replace base keys
        axis = "sweep.axis.param.Omega1 = 0.1 0.2\n" if base == "vdp" else \
            "sweep.axis.param.Omega = 0 0.001\n"
        text = (_BASE_CONFIGS[base] + (axis if sweep else "")
                + "".join(f"{k} = {v}\n" for k, v in edits))
        parse = sweep_from_mapping if sweep else scenario_from_mapping
        try:
            parse(parse_config_text(text))
        except ConfigError:
            pass

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(base=st.sampled_from(sorted(_SHORT_RUNS)),
           edits=st.lists(st.one_of(st.tuples(st.sampled_from(_PARAM_KEYS), _PARAM_TEXT),
                                    st.tuples(_RUN_KEY_TEXT, _VALUE_TEXT)), max_size=4))
    def test_run_exits_with_documented_code(self, tmp_path_factory, base, edits):
        # `qsync run --config` on any such text exits 0 or with a documented
        # code and a one-line message; no exception escapes main
        work = tmp_path_factory.mktemp("cli_property")
        path = write_config(work, _SHORT_RUNS[base] + "".join(f"{k} = {v}\n" for k, v in edits))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(["run", "--config", str(path), "--out", str(work / "out")])
        assert rc in (0, 2, 3, 4, 5)
        if rc:
            assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1


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

    @pytest.mark.parametrize("preset", ["fig2a", "fig2b", "fig2c", "fig3"])
    def test_presets_never_renormalize(self, preset, request):
        # both steppers keep tr rho to rounding on a trace-preserving
        # generator: a renormalization on a preset marks a generator that
        # leaks trace, which the renormalization would otherwise hide
        outdir, _ = request.getfixturevalue(f"{preset}_run")
        assert json.loads((outdir / "stats.json").read_text())["renormalizations"] == 0

    def test_stats_json_beside_report(self, run_dir):
        outdir, report = run_dir
        stats = json.loads((outdir / "stats.json").read_text())
        assert set(stats) == {"propagator", "matvecs", "steps_accepted", "steps_rejected",
                              "h_min", "coordinates", "dim_squared", "renormalizations",
                              "top_level_population"}
        assert stats["coordinates"] == stats["dim_squared"] == 16
        assert stats["top_level_population"] == {}      # qubits only: nothing guarded
        # the reduced model takes the exact propagator: one product with
        # P = expm(L_r dt) per sample after the first, and no adaptive step
        assert stats["propagator"] == "expm"
        assert (stats["matvecs"], stats["steps_accepted"], stats["steps_rejected"],
                stats["h_min"]) == (800, 0, 0, None)
        assert not set(stats) & set(report)
        assert read_trajectory_csv(outdir / "trajectory.csv").stats is None

    def test_tolerances_leave_reduced_run_unchanged(self, run_dir, tmp_path):
        # the exact propagator takes no tolerances: they are echoed, not used
        outdir, _ = run_dir
        with tolerances(1e-3, 1e-4):
            report = run_scenario(scenario_from_mapping(parse_config_text(FAST_SCENARIO)),
                                  tmp_path)
        assert (report["scenario"]["run"]["rel_tol"], report["scenario"]["run"]["abs_tol"]) == (
            1e-3, 1e-4)
        for name in ("trajectory.csv", "mutual_info.csv", "diagnostics.csv", "stats.json"):
            assert (tmp_path / name).read_bytes() == (outdir / name).read_bytes(), name

    def test_report_echoes_integrator_tolerances(self, run_dir):
        outdir, _ = run_dir
        echo = json.loads((outdir / "report.json").read_text())["scenario"]["run"]
        assert echo == {"t_end": 400.0, "sample_dt": 0.5,
                        "rel_tol": REL_TOL, "abs_tol": ABS_TOL}

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
        from qsync.lindblad import evolve

        cfg = scenario_from_mapping(parse_config_text(FAST_SCENARIO))
        model, rho0 = cfg.build()
        traj = evolve(model, rho0, cfg.t_end, cfg.sample_dt)
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

    def test_exact_propagator_keeps_every_verdict(self, tmp_path):
        # a 2x2 reduced-model sweep as shipped, and again with every point
        # stepped by Dopri5 (the forked workers inherit the seam): the
        # summaries agree row for row
        sweep_text = FAST_SCENARIO + ("sweep.axis.param.deltaq2 = 0.02 0.08\n"
                                      "sweep.axis.param.Omega = 0 0.01\n")
        spec = sweep_from_mapping(parse_config_text(sweep_text))
        assert run_sweep(spec, tmp_path / "expm") == 4
        with dopri5():
            assert run_sweep(spec, tmp_path / "dopri5") == 4
        summaries = {}
        for name in ("expm", "dopri5"):
            with open(tmp_path / name / "summary.csv", newline="") as fh:
                summaries[name] = list(csv.DictReader(fh))
            for k in range(4):
                stats = json.loads((tmp_path / name / f"point_{k:04d}" / "stats.json").read_text())
                assert stats["propagator"] == name
        for k, (exact, stepped) in enumerate(zip(summaries["expm"], summaries["dopri5"])):
            for key in ("status", "chi", "c", "xi"):
                assert exact[key] == stepped[key], (key, exact, stepped)
            reports = [json.loads((tmp_path / name / f"point_{k:04d}" / "report.json").read_text())
                       for name in ("expm", "dopri5")]
            assert reports[0]["synchronized_set"] == reports[1]["synchronized_set"]
            assert ({n: p["phase_class"] for n, p in reports[0]["pairs"].items()}
                    == {n: p["phase_class"] for n, p in reports[1]["pairs"].items()})
            assert float(exact["mutual_info_final"]) == pytest.approx(
                float(stepped["mutual_info_final"]), rel=0, abs=1e-6)

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

    def test_value_error_at_a_point_recorded(self, tmp_path, capsys):
        # the exponential over one sample spacing overflows at the second
        # point: a ValueError, recorded in its status, and the sweep exits 0
        path = write_config(tmp_path, FAST_SCENARIO + "sweep.axis.param.gamma_eff = 0.25 1e300\n",
                            "sweep.cfg")
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "sw")]) == 0
        assert capsys.readouterr().err == ""
        with open(tmp_path / "sw" / "summary.csv", newline="") as fh:
            _, ok, failed = csv.reader(fh)
        assert ok[-1] == "ok"
        assert failed[2:] == ["", "", "", "", "error:ValueError: the generator's exponential "
                              "over dt=0.5 is not finite"]

    def test_vdp_default_catalog_follows_each_point(self, tmp_path):
        # no analysis.catalog and no base param.N (VdpParams' default N = 12):
        # each point is analysed with the moments of its own truncation, and
        # the six amplitudes per mode are zero-padded at N = 7
        text = SMALL_VDP.replace("param.N = 6\n", "") + "sweep.axis.param.N = 6 7\n"
        spec = sweep_from_mapping(parse_config_text(text))
        assert spec.axes == [("N", [6, 7])]
        assert [type(v) for v in spec.axes[0][1]] == [int, int]
        assert run_sweep(spec, tmp_path / "sweep") == 2
        for k, n in enumerate((6, 7)):
            report = json.loads(
                (tmp_path / "sweep" / f"point_{k:04d}" / "report.json").read_text())
            assert report["thresholds"]["catalog"] == f"moments:{n}"
            assert report["scenario"]["params"]["N"] == n
        with open(tmp_path / "sweep" / "summary.csv", newline="") as fh:
            _, *rows = csv.reader(fh)
        assert [(row[1], row[-1]) for row in rows] == [("6", "ok"), ("7", "ok")]

    def test_failed_point_message_in_status(self, tmp_path):
        # strong gain on the second point drives the top Fock level past the guard
        sweep_text = SMALL_VDP + "sweep.axis.param.Omega1 = 0.1 5\n"
        spec = sweep_from_mapping(parse_config_text(sweep_text))
        assert run_sweep(spec, tmp_path / "sweep") == 1
        with open(tmp_path / "sweep" / "summary.csv", newline="") as fh:
            header, ok, failed = csv.reader(fh)
        assert header[-1] == "status"
        assert ok[-1] == "ok"
        assert failed[-1].startswith("error:TruncationError: top Fock level of factor")
        assert "raise the truncation" in failed[-1]
        assert not (tmp_path / "sweep" / "summary.csv.tmp").exists()

    def test_aborted_sweep_removes_earlier_summary(self, tmp_path):
        # a sweep that ends with an error leaves no summary.csv of an
        # earlier sweep beside point directories it has emptied
        path = write_config(tmp_path, FAST_SCENARIO + "sweep.axis.param.gamma_eff = 0.25 0.3\n",
                            "sweep.cfg")
        out = tmp_path / "sw"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
        assert (out / "summary.csv").exists()
        shutil.rmtree(out / "point_0001")
        (out / "point_0001").write_text("")       # the point's outputs cannot be written
        (out / "summary.csv.tmp").write_text("")
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 4
        assert not (out / "summary.csv").exists()
        assert not (out / "summary.csv.tmp").exists()


class TestSweepWorkers:
    def test_worker_count(self, monkeypatch):
        assert qsync.cli._sweep_workers(1) == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert [qsync.cli._sweep_workers(n) for n in (1, 2, 3, 16)] == [1, 2, 3, 3]
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert qsync.cli._sweep_workers(16) == 2

    def test_pool_matches_in_process_byte_for_byte(self, tmp_path, monkeypatch):
        spec = sweep_from_mapping(parse_config_text(FAST_SCENARIO + (
            "sweep.axis.param.deltaq2 = 0.02 0.08\nsweep.axis.param.Omega = 0 0.01\n")))
        monkeypatch.setattr(qsync.cli, "_sweep_workers", lambda n: min(n, 2))
        assert run_sweep(spec, tmp_path / "pool") == 4
        monkeypatch.setattr(qsync.cli, "_sweep_workers", lambda n: 1)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_pool)
        assert run_sweep(spec, tmp_path / "inline") == 4
        files = sorted(p.relative_to(tmp_path / "pool")
                       for p in (tmp_path / "pool").rglob("*") if p.is_file())
        assert len(files) == 1 + 4 * 5
        for rel in files:
            assert (tmp_path / "pool" / rel).read_bytes() == (tmp_path / "inline" / rel).read_bytes()

    def test_one_point_starts_no_pool(self, tmp_path, monkeypatch):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_pool)
        spec = sweep_from_mapping(parse_config_text(FAST_SCENARIO + "sweep.axis.param.Omega = 0\n"))
        assert run_sweep(spec, tmp_path / "sw") == 1

    def test_uncaught_exception_reaches_caller(self, tmp_path, monkeypatch):
        # point 0 raises at once while the others take a while: an error
        # that `main` maps to no exit 2 or 3, a RuntimeError other than the
        # integrator's included, comes back unchanged, the points still
        # queued never start, and the workers are gone when run_sweep returns
        monkeypatch.setattr(qsync.cli, "_sweep_workers", lambda n: 2)
        spec = sweep_from_mapping(parse_config_text(
            FAST_SCENARIO + "sweep.axis.param.Omega = " + " ".join(["0"] * 12) + "\n"))
        for error in (LookupError, RuntimeError):
            def fake_run(cfg, point_dir):
                point_dir.mkdir(parents=True)
                if point_dir.name == "point_0000":
                    raise error("no such catalog entry")
                time.sleep(0.2)
                return dict.fromkeys(("chi", "c", "xi", "mutual_info_final"), 0.0)

            monkeypatch.setattr(qsync.cli, "run_scenario", fake_run)
            out = tmp_path / error.__name__
            with pytest.raises(error, match="^no such catalog entry$"):
                run_sweep(spec, out)
            assert multiprocessing.active_children() == []
            assert not (out / "point_0011").exists()
            assert not (out / "summary.csv").exists()

    def test_dead_worker_exit_code(self, tmp_path, monkeypatch, capsys):
        real_run = qsync.cli.run_scenario

        def dying_run(cfg, point_dir):
            if point_dir.name == "point_0001":
                os._exit(1)
            return real_run(cfg, point_dir)

        monkeypatch.setattr(qsync.cli, "run_scenario", dying_run)
        monkeypatch.setattr(qsync.cli, "_sweep_workers", lambda n: 2)
        path = write_config(tmp_path, FAST_SCENARIO + "sweep.axis.param.Omega = 0 0.01\n",
                            "sweep.cfg")
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "sw")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: a sweep worker process died before point ")
        assert err.count("\n") == 1
        assert not (tmp_path / "sw" / "summary.csv").exists()
        assert multiprocessing.active_children() == []


def _no_pool(*args, **kwargs):
    raise AssertionError("a worker pool was started")


# fig2a's parameters and initial state on 64 sample intervals, all in the window
_FIG2A_SHORT = (_BASE_CONFIGS["cavity_qubit"].replace("run.t_end = 20\n", "")
                + "run.t_end = 128\nanalysis.window = 0:128\n")


class TestExcitationCap:
    def test_capped_run_matches_uncapped(self, tmp_path):
        # the cap Nc - 1 = 3 keeps 625 coordinates, sampled by the exact
        # propagator; without it all 4,096 are stepped by Dopri5: the two
        # paths agree on fig2a's and fig2c's parameters
        fig2c = "".join(f"param.{k} = {v}\n" for k, v in PRESET_PINS["fig2c"]["params"].items())
        for name, text in (("fig2a", _FIG2A_SHORT), ("fig2c", _FIG2A_SHORT + fig2c)):
            cfg = scenario_from_mapping(parse_config_text(text))
            report = run_scenario(cfg, tmp_path / name)
            stats = json.loads((tmp_path / name / "stats.json").read_text())
            assert stats["propagator"] == "expm"
            assert stats["coordinates"] == 625
            assert set(stats["top_level_population"]) == {"excitations"}
            assert stats["top_level_population"]["excitations"] < 1e-9
            model, rho0 = cfg.build()
            assert model.excitation_cap == 3
            full = evolve(dataclasses.replace(model, excitation_cap=None), rho0,
                          cfg.t_end, cfg.sample_dt)
            assert (full.stats["coordinates"], full.stats["propagator"]) == (4096, "dopri5")
            capped = read_trajectory_csv(tmp_path / name / "trajectory.csv")
            assert np.max(np.abs(capped.values - full.values)) < 1e-6
            reference = analyze_trajectory(full, model.catalog, cfg.window, cfg.thresholds)
            for key in ("synchronized_set", "chi", "c", "xi"):
                assert report[key] == reference[key]
            for pair_name, pair in report["pairs"].items():
                for key in ("synced", "phase_class"):
                    assert pair[key] == reference["pairs"][pair_name][key]

    def test_top_shell_guard_exit_code(self, tmp_path, capsys):
        # a strong resonant drive fills the top shell N = 3 within a time unit
        text = (_BASE_CONFIGS["cavity_qubit"]
                + "param.delta1 = 0\nparam.delta2 = 0\nparam.J = 0\nparam.Omega = 1\n"
                + "run.sample_dt = 0.125\n")
        out = tmp_path / "out"
        rc = main(["run", "--config", str(write_config(tmp_path, text)), "--out", str(out)])
        assert rc == 3
        assert capsys.readouterr().err.startswith("error: top excitation shell N = 3 ")
        assert not (out / "report.json").exists()

    def test_initial_state_above_the_cap_runs(self, tmp_path):
        # this initial state occupies shell N = 3 = Nc - 1, so the run steps
        # the shells N <= 4, and the cavities' top Fock level N = 3 is guarded
        tilted = "initial.{} = 0.9486832980505138 0.31622776601683794\n"
        text = (_FIG2A_SHORT.replace("initial.preset = fig2a\n", "")
                + "".join(tilted.format(label) for label in ("qubit1", "qubit2", "cav1"))
                + "initial.cav2 = 1\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_config(tmp_path, text)),
                     "--out", str(out)]) == 0
        stats = json.loads((out / "stats.json").read_text())
        assert stats["coordinates"] == 39 ** 2      # basis states with N <= 4
        assert set(stats["top_level_population"]) == {"excitations", "cav1", "cav2"}


class TestImportFootprint:
    def test_cli_import_leaves_scipy_linalg_to_the_oracle(self):
        # a run never loads scipy.linalg: only the oracle propagate_dense
        # imports it, on first call, in a fresh interpreter
        code = (
            "import sys, numpy as np, qsync.cli\n"
            "assert 'scipy.linalg' not in sys.modules, 'loaded by import qsync.cli'\n"
            "from qsync.lindblad import propagate_dense\n"
            "model, rho0 = qsync.cli.scenario_from_mapping(qsync.cli.parse_config_text("
            "sys.stdin.read())).build()\n"
            "states = propagate_dense(model, rho0, [0.5, 1.0])\n"
            "assert 'scipy.linalg' in sys.modules\n"
            "print(np.trace(states[-1].matrix).real)\n"
        )
        done = run_fresh_python(["-c", code], FAST_SCENARIO)
        assert done.returncode == 0, done.stderr
        assert float(done.stdout) == pytest.approx(1.0, abs=1e-12)

    def test_only_evolve_loads_scipy_sparse(self, tmp_path):
        # listing presets, parsing and building a scenario, a config error and
        # re-analysis load no scipy module; evolve loads scipy.sparse to build
        # its generator, and still not scipy.linalg
        t = np.arange(0.0, 60.0, 0.05)
        write_pauli_csv(tmp_path / "trajectory.csv", t, {"sigma_x_1": 0.4 * np.cos(1.1 * t),
                                                         "sigma_x_2": 0.4 * np.cos(1.1 * t)})
        write_config(tmp_path, "model = reduced_qubit\n")
        code = (
            "import sys\n"
            "from pathlib import Path\n"
            "import qsync.cli as c\n"
            "tmp = Path(sys.argv[1])\n"
            "assert 'scipy' not in sys.modules, 'import qsync.cli'\n"
            "assert c.main(['presets']) == 0\n"
            "assert 'scipy' not in sys.modules, 'qsync presets'\n"
            "model, rho0 = c.scenario_from_mapping(c.parse_config_text(sys.stdin.read())).build()\n"
            "assert 'scipy' not in sys.modules, 'parsing and building a scenario'\n"
            "assert c.main(['run', '--config', str(tmp / 'scenario.cfg'),\n"
            "               '--out', str(tmp / 'bad')]) == 2\n"
            "assert 'scipy' not in sys.modules, 'a config error'\n"
            "c.analyze_csv(tmp / 'trajectory.csv', 'pauli', None, c.AnalysisThresholds(),\n"
            "              tmp / 're')\n"
            "assert 'scipy' not in sys.modules, 'analyze_csv'\n"
            "c.evolve(model, rho0, 1.0, 0.5)\n"
            "assert 'scipy.sparse' in sys.modules, 'evolve'\n"
            "assert 'scipy.linalg' not in sys.modules, 'evolve'\n"
        )
        done = run_fresh_python(["-c", code, str(tmp_path)], FAST_SCENARIO)
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "re" / "report.json").exists()


class TestMainEntry:
    def test_presets_listing(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out.split()
        assert out == ["fig2a", "fig2b", "fig2c", "fig3"]

    def test_python_m_qsync(self):
        # `python -m qsync` runs the command line from a checkout, uninstalled
        done = run_fresh_python(["-m", "qsync", "presets"])
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["fig2a", "fig2b", "fig2c", "fig3"]

    def test_run_with_config(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, FAST_SCENARIO)
        rc = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert rc == 0
        assert (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("argv, text, message", [
        (["run"], FAST_SCENARIO.replace("run.t_end = 400\n", ""),
         "missing required key: run.t_end"),
        (["run"], FAST_SCENARIO.replace("initial.qubit1 = 0.9486832980505138 0.31622776601683794",
                                        "initial.qubit1 = ,"),
         "key 'initial.qubit1': empty amplitude list"),
        (["run"], FAST_SCENARIO.replace("model = reduced_qubit\n", ""),
         "missing required key: model"),
        (["run"], FAST_SCENARIO.replace("model = reduced_qubit", "model = bogus"),
         "key 'model': unknown model 'bogus' (known: cavity_qubit, reduced_qubit, vdp)"),
        (["run"], FAST_SCENARIO.replace("param.gamma_eff = 0.25\n", ""),
         "missing required keys: param.gamma_eff"),
        (["sweep"], FAST_SCENARIO, "sweep config needs at least one sweep.axis.param.<name> line"),
        (["sweep"], FAST_SCENARIO + "sweep.axis.param.Omega = ,\n",
         "key 'sweep.axis.param.Omega': empty value list"),
        (["run", "fig2a"], FAST_SCENARIO, "give either a preset or --config, not both"),
        (["run"], None, "run needs a preset name or --config"),
    ], ids=["no_t_end", "empty_amplitudes", "no_model", "unknown_model", "missing_param",
            "no_axis", "empty_axis", "preset_and_config", "neither"])
    def test_config_error_exit_code(self, tmp_path, capsys, argv, text, message):
        # one 'error:' line on stderr, no traceback, and nothing written
        out = tmp_path / "out"
        if text is not None:
            argv = argv + ["--config", str(write_config(tmp_path, text))]
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

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
run.sample_dt = 0.125
"""
        # 81 samples in the default window 10:20, so the run is not refused before it starts
        cfg_path = write_config(tmp_path, text)
        rc = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert rc == 3
        assert "truncation" in capsys.readouterr().err.lower()

    def test_failed_rerun_leaves_no_report(self, tmp_path):
        out = tmp_path / "o2"
        good = write_config(tmp_path, SMALL_VDP, "good.cfg")
        bad_runs = [
            # strong gain drives the top Fock level past the guard
            (SMALL_VDP.replace("param.Omega1 = 0.1", "param.Omega1 = 5"), 3),
            # unnormalised amplitudes: Scenario.build() refuses them
            (SMALL_VDP.replace("initial.mode1 = 1 0", "initial.mode1 = 1 1"), 2),
            # a catalog the model does not record: Scenario.build() refuses it
            (SMALL_VDP + "analysis.catalog = pauli\n", 2),
        ]
        for k, (text, code) in enumerate(bad_runs):
            assert main(["run", "--config", str(good), "--out", str(out)]) == 0
            assert (out / "report.json").exists()
            bad = write_config(tmp_path, text, f"bad{k}.cfg")
            assert main(["run", "--config", str(bad), "--out", str(out)]) == code
            for name in ("report.json", "stats.json", "trajectory.csv", "mutual_info.csv",
                         "diagnostics.csv"):
                assert not (out / name).exists(), (k, name)
            # nothing stale is left to re-analyse
            assert main(["analyze", str(out / "trajectory.csv"), "--out",
                         str(tmp_path / "re")]) == 4

    @pytest.mark.parametrize("model", ["reduced_qubit", "vdp"])
    def test_catalog_other_than_models_refused(self, tmp_path, capsys, model):
        # moments:6 for the qubit pair, and for a vdp pair truncated at N = 8
        # (its six amplitudes per mode are zero-padded)
        text = FAST_SCENARIO if model == "reduced_qubit" else (
            SMALL_VDP.replace("param.N = 6", "param.N = 8"))
        out = tmp_path / "out"
        path = write_config(tmp_path, text + "analysis.catalog = moments:6\n")
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: analysis.catalog 'moments:6' differs")
        assert not (out / "trajectory.csv").exists()
        # the same run with the model's own catalog succeeds
        own = "pauli" if model == "reduced_qubit" else "moments:8"
        path.write_text(text + f"analysis.catalog = {own}\n")
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["thresholds"]["catalog"] == own

    @pytest.mark.parametrize("text", [
        SMALL_VDP.replace("param.N = 6", "param.N = 10000000"),
        FAST_SCENARIO + "analysis.catalog = moments:10000000\n",   # refused when parsed
    ], ids=["param", "catalog"])
    def test_oversized_space_exit_code(self, tmp_path, capsys, text):
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_config(tmp_path, text)),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "exceed the dimension cap of 1024" in err
        assert not out.exists()

    def test_sweep_bad_catalog_exits_before_first_point(self, tmp_path, capsys):
        text = FAST_SCENARIO + "sweep.axis.param.Omega = 0 0.001\nanalysis.catalog = moments:x\n"
        path = write_config(tmp_path, text, "sweep.cfg")
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "sw")]) == 2
        assert capsys.readouterr().err == "error: bad catalog spec 'moments:x'\n"
        assert not (tmp_path / "sw").exists()

    @pytest.mark.parametrize("edit, window", [
        (("analysis.window = 40:400", "analysis.window = 0:10"), "[0.0, 10.0]"),
        # no analysis.window: the default is the second half of the samples
        (("analysis.window = 40:400", "run.t_end = 20"), "[10.0, 20.0]"),
    ], ids=["given", "default"])
    def test_short_run_window_refused_before_integration(self, tmp_path, capsys, edit, window):
        path = write_config(tmp_path, FAST_SCENARIO.replace(*edit))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: window {window} contains 21 samples, needs >= 64\n")
        assert not out.exists()

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

    @pytest.mark.parametrize("flag", ["--tol-freq", "--tol-phase"])
    def test_negative_tolerance_flag_exit_code(self, run_dir, tmp_path, capsys, flag):
        outdir, _ = run_dir
        rc = main(["analyze", str(outdir / "trajectory.csv"), flag, "-0.5",
                   "--window", "40:400", "--out", str(tmp_path / "re")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == f"error: analysis.{flag[2:].replace('-', '_')} must be >= 0, got -0.5\n"
        assert not (tmp_path / "re" / "report.json").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_stiff_parameters_exit_code(self, tmp_path, capsys):
        # at kappa = 1e300 no representable step meets the tolerances, and
        # the error norms that overflow to inf or NaN only reject steps.
        # fig2a's pair at Nc = 5 steps 1,681 coordinates, too many for the
        # exact propagator, so Dopri5 takes them; t_end = 256 gives the
        # default window its 64 samples
        text = (_BASE_CONFIGS["cavity_qubit"].replace("param.Nc = 4\n", "param.Nc = 5\n")
                .replace("param.kappa = 1.0\n", "param.kappa = 1e300\n")
                .replace("run.t_end = 20\n", "run.t_end = 256\n"))
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_config(tmp_path, text)),
                     "--out", str(out)]) == 2
        message = ("step size underflow at t=0 (h=4.29e-15); "
                   "tolerances cannot be met: change the model's parameters")
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (out / "report.json").exists()
        sweep = write_config(tmp_path, text + "sweep.axis.param.Omega = 0.0005\n", "sweep.cfg")
        assert main(["sweep", "--config", str(sweep), "--out", str(tmp_path / "sw")]) == 5
        with open(tmp_path / "sw" / "summary.csv", newline="") as fh:
            _, failed = csv.reader(fh)
        assert failed[-1] == f"error:StepSizeUnderflowError: {message}"

    def test_vanishing_trace_exit_code(self, tmp_path, capsys):
        # the propagator over one sample spacing underflows to zero, so the
        # trace of the next sample is 0: refused, not divided by
        text = FAST_SCENARIO.replace("param.Omega = 0.0", "param.Omega = 1e300").replace(
            "param.gamma_eff = 0.25", "param.gamma_eff = 1e300")
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_config(tmp_path, text)),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: the trace at t=0.5 is 0, not a finite positive number\n")
        assert not (out / "report.json").exists()

    def test_empty_window_flag_exit_code(self, run_dir, tmp_path, capsys):
        # an empty --window is refused, not taken for an absent flag
        outdir, _ = run_dir
        config = str(write_config(tmp_path, FAST_SCENARIO))
        for argv in (["run", "--config", config], ["analyze", str(outdir / "trajectory.csv")]):
            out = tmp_path / argv[0]
            assert main(argv + ["--window", "", "--out", str(out)]) == 2
            assert capsys.readouterr().err == (
                "error: key '--window': window must be 'T0:T1', got ''\n")
            assert not out.exists()

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

    @pytest.mark.parametrize("defect", ["nan", "header_only", "ragged", "narrow",
                                        "time_prefix", "duplicate", "mi_columns", "mi_grid",
                                        "report_list", "report_json"])
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
        elif defect == "narrow":       # every row one column short of the header
            lines[1:] = [line.rsplit(",", 1)[0] for line in lines[1:]]
        elif defect == "time_prefix":  # a first column that only starts with 'time'
            lines[0] = lines[0].replace("time", "timestamp", 1)
        elif defect == "duplicate":    # a second sigma_x_1 column after the catalog
            lines = [f"{line},{line.split(',')[1]}" for line in lines]
        elif defect == "mi_columns":   # a sibling mutual_info.csv without its column
            (tmp_path / "mutual_info.csv").write_text("time\n0\n1\n")
        elif defect == "mi_grid":      # a sibling mutual_info.csv cut short
            (tmp_path / "mutual_info.csv").write_text(
                "time,mutual_info\n" + "".join(f"{ti:.17g},0.1\n" for ti in t[:500]))
        elif defect == "report_list":  # a sibling report.json that is no JSON object
            (tmp_path / "report.json").write_text("[]\n")
        else:                          # a sibling report.json that is no JSON at all
            (tmp_path / "report.json").write_text("{not json\n")
        path = tmp_path / "trajectory.csv"
        path.write_text("\n".join(lines) + "\n")
        # with the catalog given, a CSV that passed every check would analyse
        rc = main(["analyze", str(path), "--catalog", "pauli", "--window", "100:1000",
                   "--out", str(tmp_path / "re")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and str(tmp_path) in err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "re" / "report.json").exists()

    def test_report_is_strict_json(self, tmp_path):
        # a constant sigma_x_2 fits amplitude 0: its partner's amplitude
        # ratio overflows and is recorded as null
        t = np.arange(0.0, 200.5, 0.5)
        path = write_pauli_csv(tmp_path / "trajectory.csv", t,
                               {"sigma_x_1": 0.3 * np.cos(0.5 * t)})
        assert main(["analyze", str(path), "--catalog", "pauli",
                     "--out", str(tmp_path / "re")]) == 0
        text = (tmp_path / "re" / "report.json").read_text()

        def refuse(constant):
            raise AssertionError(f"report.json holds {constant}")

        report = json.loads(text, parse_constant=refuse)
        assert report["pairs"]["sigma_x"]["fit_2"]["amplitude"] == 0.0
        assert report["pairs"]["sigma_x"]["amplitude_ratio"] is None

    @pytest.mark.parametrize("amplitude, offset", [
        (0.75e308, 1e308),      # the window mean overflows
        (1e160, 0.0),           # the fit's squared residuals overflow
    ], ids=["near_max", "fit_overflow"])
    def test_overflowing_column_exit_code(self, tmp_path, capsys, amplitude, offset):
        # finite values too large for the fit's float64 arithmetic
        t = np.arange(0.0, 200.5, 0.5)
        path = write_pauli_csv(tmp_path / "trajectory.csv", t, {
            "sigma_x_1": 0.3 * np.cos(0.5 * t), "sigma_x_2": amplitude * np.cos(0.5 * t) + offset})
        assert main(["analyze", str(path), "--catalog", "pauli",
                     "--out", str(tmp_path / "re")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: column 'sigma_x_2': ") and "float64" in err
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

    def test_analyze_takes_recorded_catalog(self, fig3_run, tmp_path):
        # no --catalog: the moments:12 catalog that fig3's report.json records
        outdir, report = fig3_run
        rc = main(["analyze", str(outdir / "trajectory.csv"), "--window", "2:12",
                   "--tol-freq", "0.05", "--out", str(tmp_path / "re")])
        assert rc == 0
        renewed = json.loads((tmp_path / "re" / "report.json").read_text())
        assert renewed == json.loads((outdir / "report.json").read_text())
        assert renewed["thresholds"]["catalog"] == "moments:12"

    @pytest.mark.parametrize("preset", PRESET_NAMES)
    def test_flagless_analyze_reproduces_report(self, preset, request, tmp_path):
        # window and tolerances come from the run's report.json, so the
        # re-analysis writes the same bytes
        outdir, _ = request.getfixturevalue(f"{preset}_run")
        assert main(["analyze", str(outdir / "trajectory.csv"), "--out", str(tmp_path)]) == 0
        assert (tmp_path / "report.json").read_bytes() == (outdir / "report.json").read_bytes()

    def test_analyze_flag_overrides_only_its_value(self, fig3_run, tmp_path):
        outdir, _ = fig3_run
        assert main(["analyze", str(outdir / "trajectory.csv"), "--tol-phase", "0.5",
                     "--out", str(tmp_path)]) == 0
        record = json.loads((tmp_path / "report.json").read_text())["thresholds"]
        assert (record["window"], record["tol_freq"], record["tol_phase"]) == ([2.0, 12.0],
                                                                               0.05, 0.5)

    @pytest.mark.parametrize("key, value, message", [
        ("window", [300.0, 40.0], "key 'thresholds.window': window must have T1 > T0"),
        ("window", [40.0], "key 'thresholds.window': window must be 'T0:T1'"),
        ("window", ["40", 400.0], "key 'thresholds.window': cannot parse '\"40\"'"),
        ("tol_freq", "0.01", "key 'thresholds.tol_freq': cannot parse '\"0.01\"'"),
        ("tol_phase", True, "key 'thresholds.tol_phase': cannot parse 'true'"),
        ("tol_phase", -0.2, "analysis.tol_phase must be >= 0"),
        ("amp_min", 0.002, "key 'thresholds.amp_min' records 0.002, which this version "
                           "fixes at 0.001"),
        ("fit_tol", 0.5, "key 'thresholds.fit_tol' records 0.5, which"),
        ("min_cycles", 1.0, "key 'thresholds.min_cycles' records 1.0, which"),
        ("rank_tol", 1e-8, "key 'thresholds.rank_tol' records 1e-08, which"),
        ("comm_tol", None, "key 'thresholds.comm_tol' records null, which"),
        ("detrend_deg", 2, "key 'thresholds.detrend_deg' records 2, which"),
    ])
    def test_analyze_refuses_unreproducible_record(self, run_dir, tmp_path, capsys,
                                                   key, value, message):
        outdir, report = run_dir
        for name in ("trajectory.csv", "mutual_info.csv"):
            (tmp_path / name).write_bytes((outdir / name).read_bytes())
        record = {**report["thresholds"], key: value}
        (tmp_path / "report.json").write_text(json.dumps({**report, "thresholds": record}))
        rc = main(["analyze", str(tmp_path / "trajectory.csv"), "--out", str(tmp_path / "re")])
        err = capsys.readouterr().err
        assert rc == 2 and len(err.splitlines()) == 1
        assert err.startswith(f"error: {tmp_path / 'report.json'}: {message}")
        assert not (tmp_path / "re").exists()

    def test_analyze_catalog_other_than_recorded_exit_code(self, fig3_run, tmp_path, capsys):
        outdir, _ = fig3_run
        rc = main(["analyze", str(outdir / "trajectory.csv"), "--catalog", "pauli",
                   "--window", "2:12", "--out", str(tmp_path / "re")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: catalog 'pauli' differs from the catalog 'moments:12'")
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "re" / "report.json").exists()

    def test_analyze_bare_csv_needs_catalog(self, run_dir, tmp_path, capsys):
        outdir, _ = run_dir
        bare = tmp_path / "trajectory.csv"
        bare.write_bytes((outdir / "trajectory.csv").read_bytes())
        args = ["analyze", str(bare), "--window", "40:400", "--out", str(tmp_path / "re")]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bare}:") and "--catalog" in err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "re" / "report.json").exists()
        assert main(args + ["--catalog", "pauli"]) == 0
        # a recorded catalog that is no spec is refused like a bad --catalog
        (tmp_path / "report.json").write_text('{"thresholds": {"catalog": 5}}\n')
        assert main(args) == 2
        assert capsys.readouterr().err.startswith("error: unknown catalog '5'")

    def test_sweep_cli_exit_codes(self, tmp_path):
        sweep_path = write_config(
            tmp_path, FAST_SCENARIO + "sweep.axis.param.gamma_eff = -1 -2\n", "sweep.cfg"
        )
        rc = main(["sweep", "--config", str(sweep_path), "--out", str(tmp_path / "sw")])
        assert rc == 5  # no point succeeded
