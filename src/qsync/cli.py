"""Batch front end: scenario runs, re-analysis, parameter sweeps.

Subcommands
-----------
run       simulate a preset or a config file; writes trajectory.csv,
          mutual_info.csv, diagnostics.csv, stats.json (integrator
          counters) and report.json
analyze   recompute report.json from a trajectory.csv (decoupled from the
          simulation, so thresholds can be revisited after the fact)
sweep     run a grid of scenarios from a sweep config; writes per-point
          directories plus summary.csv
presets   list the built-in scenario names

Config files are flat `key = value` text with dotted sections, for example::

    model = cavity_qubit
    param.delta1 = 10.0
    param.J = -10.0
    ...
    initial.qubit1 = 0.9486832980505138 0.31622776601683794
    run.t_end = 3000
    run.sample_dt = 2
    analysis.window = 300:1100

Configs are checked when parsed, before anything runs: numbers, initial
amplitudes and the --tol-freq/--tol-phase flags must be finite, and
run.t_end must be a positive integer multiple of run.sample_dt, so a sweep
with a bad sample grid fails before its first point.  Models come from
`models.MODELS` and presets from `models.PRESETS`.  A fresh run and a
re-analysis of its trajectory.csv feed the same `lindblad.Trajectory`
through `analyze_trajectory`, which builds every report field except the
scenario echo.  Each output of `run` and `analyze` is written to a
temporary sibling and renamed into place, so a crash never leaves a
partial file under its final name.

Exit codes: 0 ok, 2 config/schema error (including non-finite numbers, an
analysis window too short to fit, or tolerances the integrator cannot
meet), 3 truncation-guard abort, 4 I/O error, 5 sweep with no successful
point.  Every failure prints a one-line `error:` message to stderr.
"""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .lindblad import (
    DEFAULT_ABS_TOL,
    DEFAULT_REL_TOL,
    StepSizeUnderflowError,
    Tolerances,
    Trajectory,
    TruncationError,
    evolve,
)
from .models import MODELS, PRESET_NAMES, PRESETS, moment_catalog, pauli_catalog
from .opalg import DensityMatrix
from .syncmeter import AnalysisThresholds, build_sync_report

SWEEP_CAP_DEFAULT = 64
_RUN_OUTPUTS = ("report.json", "stats.json", "trajectory.csv", "mutual_info.csv",
               "diagnostics.csv")


class ConfigError(ValueError):
    """Configuration or schema problem; maps to exit code 2."""


@dataclass
class ScenarioConfig:
    """Validated run description; serializes verbatim into reports."""

    model: str
    params: dict
    initial: dict              # {'preset': name} or {factor label: [amps...]}
    t_end: float
    sample_dt: float
    rel_tol: float = DEFAULT_REL_TOL
    abs_tol: float = DEFAULT_ABS_TOL
    window: tuple[float, float] | None = None
    thresholds: AnalysisThresholds = field(default_factory=AnalysisThresholds)
    catalog: str | None = None       # 'pauli' or 'moments:<N>'; default by model

    def echo(self) -> dict:
        def amp_text(z):
            z = complex(z)
            if z.imag == 0:
                return f"{z.real:.17g}"
            return f"{z.real:.17g}{z.imag:+.17g}j"

        return {
            "model": self.model,
            "params": dict(self.params),
            "initial": {k: v if isinstance(v, str) else [amp_text(z) for z in v]
                        for k, v in self.initial.items()},
            "run": {
                "t_end": self.t_end,
                "sample_dt": self.sample_dt,
                "rel_tol": self.rel_tol,
                "abs_tol": self.abs_tol,
            },
        }


def _parse_number(key: str, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"key '{key}': cannot parse '{text}' as a number") from None
    if not math.isfinite(value):
        raise ConfigError(f"key '{key}': '{text}' is not a finite number")
    return value


def _parse_amplitudes(key: str, text: str) -> list[complex]:
    out = []
    for token in text.replace(",", " ").split():
        try:
            z = complex(token)
        except ValueError:
            raise ConfigError(
                f"key '{key}': cannot parse amplitude '{token}'"
            ) from None
        if not cmath.isfinite(z):
            raise ConfigError(f"key '{key}': amplitude '{token}' is not finite")
        out.append(z)
    if not out:
        raise ConfigError(f"key '{key}': empty amplitude list")
    return out


def parse_config_text(text: str) -> dict[str, str]:
    """Flat `key = value` lines; '#' starts a comment; later keys override."""
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got '{raw.strip()}'")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        mapping[key] = value
    return mapping


def _parse_window(key: str, text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ConfigError(f"key '{key}': window must be 'T0:T1', got '{text}'")
    t0 = _parse_number(key, parts[0])
    t1 = _parse_number(key, parts[1])
    if not t1 > t0:
        raise ConfigError(f"key '{key}': window must have T1 > T0")
    return (t0, t1)


_ANALYSIS_FLOAT_KEYS = {
    "analysis.tol_freq": "tol_freq",
    "analysis.tol_phase": "tol_phase",
    "analysis.amp_min": "amp_min",
    "analysis.fit_tol": "fit_tol",
    "analysis.min_cycles": "min_cycles",
    "analysis.rank_tol": "rank_tol",
    "analysis.comm_tol": "comm_tol",
}


def scenario_from_mapping(mapping: dict[str, str]) -> ScenarioConfig:
    mapping = dict(mapping)
    model = mapping.pop("model", None)
    if model is None:
        raise ConfigError("missing required key: model")
    if model not in MODELS:
        raise ConfigError(
            f"key 'model': unknown model '{model}' "
            f"(known: {', '.join(sorted(MODELS))})"
        )
    params_cls, _ = MODELS[model]
    param_fields = {f.name: f for f in dataclasses.fields(params_cls)}

    params: dict = {}
    initial: dict = {}
    run: dict = {}
    analysis_overrides: dict = {}
    window = None
    catalog = None
    for key in list(mapping):
        value = mapping.pop(key)
        if key.startswith("param."):
            name = key[len("param."):]
            if name not in param_fields:
                raise ConfigError(f"unknown key '{key}' for model '{model}'")
            typ = param_fields[name].type
            if typ == "int":
                number = _parse_number(key, value)
                if number != int(number):
                    raise ConfigError(f"key '{key}': expected an integer, got '{value}'")
                params[name] = int(number)
            else:
                params[name] = _parse_number(key, value)
        elif key.startswith("initial."):
            name = key[len("initial."):]
            if name == "preset":
                if value not in PRESET_NAMES:
                    raise ConfigError(f"key '{key}': unknown preset '{value}'")
                initial["preset"] = value
            else:
                initial[name] = _parse_amplitudes(key, value)
        elif key in ("run.t_end", "run.sample_dt", "run.rel_tol", "run.abs_tol"):
            run[key.split(".", 1)[1]] = _parse_number(key, value)
        elif key == "analysis.window":
            window = _parse_window(key, value)
        elif key == "analysis.catalog":
            catalog = value
        elif key in _ANALYSIS_FLOAT_KEYS:
            analysis_overrides[_ANALYSIS_FLOAT_KEYS[key]] = _parse_number(key, value)
        else:
            raise ConfigError(f"unknown key '{key}'")

    missing = [n for n, f in param_fields.items()
               if f.default is dataclasses.MISSING and n not in params]
    if missing:
        raise ConfigError(
            f"missing required keys: {', '.join('param.' + n for n in missing)}"
        )
    for req in ("t_end", "sample_dt"):
        if req not in run:
            raise ConfigError(f"missing required key: run.{req}")
    t_end, sample_dt = run["t_end"], run["sample_dt"]
    if not sample_dt > 0:
        raise ConfigError("key 'run.sample_dt': must be positive")
    ratio = t_end / sample_dt
    n_samples = round(ratio) if math.isfinite(ratio) else 0
    if n_samples < 1 or abs(n_samples * sample_dt - t_end) > 1e-9 * max(t_end, 1.0):
        raise ConfigError(
            "key 'run.t_end': must be a positive integer multiple of run.sample_dt"
        )
    if not initial:
        raise ConfigError("missing initial state: provide initial.preset "
                          "or initial.<factor> amplitude lists")

    thresholds = AnalysisThresholds(**analysis_overrides)
    return ScenarioConfig(
        model=model,
        params=params,
        initial=initial,
        t_end=t_end,
        sample_dt=sample_dt,
        rel_tol=run.get("rel_tol", DEFAULT_REL_TOL),
        abs_tol=run.get("abs_tol", DEFAULT_ABS_TOL),
        window=window,
        thresholds=thresholds,
        catalog=catalog,
    )


def scenario_from_preset(name: str) -> ScenarioConfig:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset '{name}' (known: {', '.join(PRESET_NAMES)})")
    preset = PRESETS[name]
    return ScenarioConfig(
        model=preset.model,
        params=dataclasses.asdict(preset.params),
        initial={"preset": name},
        t_end=preset.t_end,
        sample_dt=preset.sample_dt,
        window=preset.window,
        thresholds=preset.thresholds,
        catalog=preset.catalog,
    )


def _build_model(cfg: ScenarioConfig):
    params_cls, builder = MODELS[cfg.model]
    try:
        params = params_cls(**cfg.params)
        model = builder(params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid parameters for model '{cfg.model}': {exc}") from None
    return model


def _initial_state(cfg: ScenarioConfig, model) -> DensityMatrix:
    if "preset" in cfg.initial:
        amps = PRESETS[cfg.initial["preset"]].initial
        if len(amps) != model.layout.nfactors or any(
            len(a) != d for a, d in zip(amps, model.layout.factors)
        ):
            raise ConfigError(
                f"initial.preset '{cfg.initial['preset']}' does not fit model "
                f"factors {model.layout.factors}"
            )
        return DensityMatrix.product_state(model.layout, amps)
    labels = model.layout.labels
    missing = [l for l in labels if l not in cfg.initial]
    if missing:
        raise ConfigError(
            f"missing initial amplitudes for factors: {', '.join('initial.' + m for m in missing)}"
        )
    extra = [k for k in cfg.initial if k not in labels]
    if extra:
        raise ConfigError(f"unknown initial-state keys: {', '.join(extra)}")
    amps = []
    for label, dim in zip(labels, model.layout.factors):
        vec = np.asarray(cfg.initial[label], dtype=complex)
        if vec.size != dim:
            raise ConfigError(
                f"initial.{label}: expected {dim} amplitudes, got {vec.size}"
            )
        norm2 = float(np.sum(np.abs(vec) ** 2))
        if abs(norm2 - 1.0) > 1e-6:
            raise ConfigError(
                f"initial.{label}: amplitudes have squared norm {norm2:.6g}, not 1"
            )
        amps.append(vec)
    return DensityMatrix.product_state(model.layout, amps)


def _catalog_for(cfg_catalog: str | None, model_name: str, params: dict):
    if cfg_catalog is None:
        if model_name == "vdp":
            cfg_catalog = f"moments:{int(params.get('N', 12))}"
        else:
            cfg_catalog = "pauli"
    return resolve_catalog(cfg_catalog)


def resolve_catalog(spec: str):
    """Catalog spec: 'pauli' or 'moments:<N>'."""
    if spec == "pauli":
        return "pauli", pauli_catalog()
    if spec.startswith("moments:"):
        try:
            n = int(spec.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"bad catalog spec '{spec}'") from None
        if n < 2:
            raise ConfigError(f"catalog truncation must be >= 2, got {n}")
        return spec, moment_catalog(n)
    raise ConfigError(f"unknown catalog '{spec}' (use 'pauli' or 'moments:<N>')")


def _write_atomically(path: Path, write):
    """Call `write(fh)` on a temporary sibling, then rename it onto `path`."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w") as fh:
            write(fh)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray]):
    _write_atomically(path, lambda fh: np.savetxt(
        fh, np.column_stack(columns), fmt="%.17g", delimiter=",",
        header=",".join(header), comments=""))


def _write_json(path: Path, obj: dict):
    def dump(fh):
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")

    _write_atomically(path, dump)


def read_trajectory_csv(path: Path) -> Trajectory:
    """The samples of a `time,...` CSV; a malformed or non-finite one is a ConfigError."""
    with open(path) as fh:
        header = fh.readline().strip()
        if not header.startswith("time"):
            raise ConfigError(f"{path}: first column must be 'time'")
        names = header.split(",")[1:]
        body = fh.tell()
        if not any(line.strip() for line in iter(fh.readline, "")):
            raise ConfigError(f"{path}: no data rows")   # loadtxt would only warn
        fh.seek(body)
        try:
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from None
    if data.shape[1] != len(names) + 1:
        raise ConfigError(f"{path}: inconsistent column count")
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        row, col = bad[0]
        raise ConfigError(f"{path}: non-finite value in column "
                          f"'{(['time'] + names)[col]}' of data row {row + 1}")
    return Trajectory(data[:, 0], data[:, 1:], names)


def analyze_trajectory(
    traj: Trajectory,
    catalog_name: str,
    catalog,
    window: tuple[float, float] | None,
    thresholds: AnalysisThresholds,
) -> dict:
    """Every report field but the scenario echo, for fresh runs and CSV re-analysis."""
    if window is None:
        n = len(traj.times)
        window = (float(traj.times[n // 2]), float(traj.times[-1]))
    missing = [col for name, _ in catalog for col in (f"{name}_1", f"{name}_2")
               if col not in traj.names]
    if missing:
        raise ConfigError(f"trajectory lacks catalog columns: {', '.join(missing)}")
    report = build_sync_report(
        traj, catalog, window, thresholds,
        notes={
            "catalog": catalog_name,
            # truncated continuous-variable catalogs only bound the true
            # synchronized-set cardinality from below
            "chi_lower_bound_only": catalog_name.startswith("moments:"),
        },
    )
    report["version"] = __version__
    mi = traj.mutual_info
    report["mutual_info_final"] = None if mi is None else float(mi[-1])
    report["extras"] = _extras_from_trajectory(traj)
    return report


def _extras_from_trajectory(traj: Trajectory) -> dict:
    if "xminus2" not in traj.names or "pminus2" not in traj.names:
        return {}
    var_sum = traj.column("xminus2") + traj.column("pminus2")
    s_c = 1.0 / var_sum
    return {
        "s_c_final": float(s_c[-1]),
        "s_c_max": float(np.max(s_c)),
        "s_c_min": float(np.min(s_c)),
    }


def run_scenario(cfg: ScenarioConfig, outdir: Path) -> dict:
    """Simulate, write outputs, analyze; returns the report dict.

    The outputs an earlier run left in `outdir` are removed before the
    integration starts, so a run that fails leaves no report and no CSV
    that looks current; other files in `outdir` are left alone.  The
    integrator counters go to stats.json, not report.json, which a
    re-analysis must reproduce field for field.
    """
    model = _build_model(cfg)
    rho0 = _initial_state(cfg, model)
    for name in _RUN_OUTPUTS:
        (outdir / name).unlink(missing_ok=True)
    traj = evolve(
        model,
        rho0,
        cfg.t_end,
        cfg.sample_dt,
        Tolerances(rel=cfg.rel_tol, abs=cfg.abs_tol),
        mutual_info_pair=(0, 1),
    )
    outdir.mkdir(parents=True, exist_ok=True)
    _write_csv(
        outdir / "trajectory.csv",
        ["time"] + traj.names,
        [traj.times] + [traj.values[:, j] for j in range(traj.values.shape[1])],
    )
    _write_csv(
        outdir / "mutual_info.csv",
        ["time", "mutual_info"],
        [traj.times, traj.mutual_info],
    )
    _write_csv(
        outdir / "diagnostics.csv",
        ["time", "trace_error", "min_eigenvalue"],
        [traj.times, traj.trace_errors, traj.min_eigenvalues],
    )
    _write_json(outdir / "stats.json", traj.stats)
    catalog_name, catalog = _catalog_for(cfg.catalog, cfg.model, cfg.params)
    report = analyze_trajectory(traj, catalog_name, catalog, cfg.window, cfg.thresholds)
    report["scenario"] = cfg.echo()
    report["model"] = cfg.model
    _write_json(outdir / "report.json", report)
    return report


def analyze_csv(
    csv_path: Path,
    catalog_spec: str,
    window: tuple[float, float] | None,
    thresholds: AnalysisThresholds,
    outdir: Path,
) -> dict:
    """Re-analyze a trajectory.csv with its sibling mutual_info.csv, if any.

    Only the provenance (`scenario`, `model`) comes from a sibling report.json.
    """
    traj = read_trajectory_csv(csv_path)
    catalog_name, catalog = resolve_catalog(catalog_spec)
    mi_path = csv_path.parent / "mutual_info.csv"
    if mi_path.exists():
        mi = read_trajectory_csv(mi_path)
        if mi.names != ["mutual_info"]:
            raise ConfigError(f"{mi_path}: columns must be 'time,mutual_info'")
        traj = dataclasses.replace(traj, mutual_info=mi.values[:, 0])

    report = analyze_trajectory(traj, catalog_name, catalog, window, thresholds)
    sibling = csv_path.parent / "report.json"
    prior = json.loads(sibling.read_text()) if sibling.exists() else {}
    if not isinstance(prior, dict):
        raise ConfigError(f"{sibling}: not a JSON object")
    report["scenario"] = prior.get("scenario")
    report["model"] = prior.get("model")
    outdir.mkdir(parents=True, exist_ok=True)
    _write_json(outdir / "report.json", report)
    return report


# --- sweep -----------------------------------------------------------------


@dataclass
class SweepSpec:
    base: ScenarioConfig
    axes: list[tuple[str, list[float]]]    # (param name, values), file order
    cap: int = SWEEP_CAP_DEFAULT


def sweep_from_mapping(mapping: dict[str, str]) -> SweepSpec:
    mapping = dict(mapping)
    axes: list[tuple[str, list[float]]] = []
    cap = SWEEP_CAP_DEFAULT
    for key in list(mapping):
        if key.startswith("sweep.axis.param."):
            name = key[len("sweep.axis.param."):]
            values = [
                _parse_number(key, tok)
                for tok in mapping.pop(key).replace(",", " ").split()
            ]
            if not values:
                raise ConfigError(f"key '{key}': empty value list")
            axes.append((name, values))
        elif key == "sweep.cap":
            cap = int(_parse_number(key, mapping.pop(key)))
    if not axes:
        raise ConfigError("sweep config needs at least one sweep.axis.param.<name> line")
    base = scenario_from_mapping(mapping)
    params_cls, _ = MODELS[base.model]
    known = {f.name for f in dataclasses.fields(params_cls)}
    for name, _ in axes:
        if name not in known:
            raise ConfigError(
                f"sweep axis 'param.{name}' is not a parameter of model '{base.model}'"
            )
    return SweepSpec(base=base, axes=axes, cap=cap)


def run_sweep(spec: SweepSpec, outdir: Path) -> int:
    """Run the grid; returns the number of successful points."""
    grids = [values for _, values in spec.axes]
    points = list(itertools.product(*grids))
    if len(points) > spec.cap:
        raise ConfigError(
            f"sweep grid has {len(points)} points, exceeding the cap {spec.cap}"
        )
    outdir.mkdir(parents=True, exist_ok=True)
    axis_names = [name for name, _ in spec.axes]
    rows = []
    successes = 0
    for idx, values in enumerate(points):
        cfg = dataclasses.replace(
            spec.base, params={**spec.base.params, **dict(zip(axis_names, values))}
        )
        point_dir = outdir / f"point_{idx:04d}"
        row = {"point": idx, **dict(zip(axis_names, values))}
        try:
            report = run_scenario(cfg, point_dir)
            row.update(
                chi=report["chi"],
                c=report["c"],
                xi=report["xi"],
                mutual_info_final=report["mutual_info_final"],
                status="ok",
            )
            successes += 1
        except (ConfigError, TruncationError, RuntimeError) as exc:
            row.update(chi="", c="", xi="", mutual_info_final="",
                       status=f"error:{type(exc).__name__}")
        rows.append(row)
    header = ["point"] + axis_names + ["chi", "c", "xi", "mutual_info_final", "status"]
    with open(outdir / "summary.csv", "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_summary_cell(row[h]) for h in header) + "\n")
    return successes


def _summary_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


# --- argument parsing / entry point ----------------------------------------


def _add_threshold_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--window", help="analysis window 'T0:T1'")
    parser.add_argument("--tol-freq", help="relative frequency lock tolerance")
    parser.add_argument("--tol-phase", help="phase class tolerance (rad)")


def _thresholds_with_flags(base: AnalysisThresholds, args) -> AnalysisThresholds:
    updates = {}
    if args.tol_freq is not None:
        updates["tol_freq"] = _parse_number("--tol-freq", args.tol_freq)
    if args.tol_phase is not None:
        updates["tol_phase"] = _parse_number("--tol-phase", args.tol_phase)
    return dataclasses.replace(base, **updates) if updates else base


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qsync",
        description="Open-system synchronization simulator and analyzer",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a preset or config")
    p_run.add_argument("preset_pos", nargs="?", default=None,
                       help="preset name (shorthand for --preset)")
    p_run.add_argument("--preset", help=f"one of: {', '.join(PRESET_NAMES)}")
    p_run.add_argument("--config", help="path to a scenario config file")
    p_run.add_argument("--out", required=True, help="output directory")
    _add_threshold_flags(p_run)

    p_an = sub.add_parser("analyze", help="re-analyze a trajectory.csv")
    p_an.add_argument("csv", help="path to trajectory.csv")
    p_an.add_argument("--catalog", default="pauli",
                      help="'pauli' or 'moments:<N>' (default pauli)")
    p_an.add_argument("--out", required=True, help="output directory")
    _add_threshold_flags(p_an)

    p_sw = sub.add_parser("sweep", help="run a parameter sweep")
    p_sw.add_argument("--config", required=True, help="path to a sweep config file")
    p_sw.add_argument("--out", required=True, help="output directory")

    sub.add_parser("presets", help="list preset scenario names")

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (ValueError, StepSizeUnderflowError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TruncationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


def _dispatch(args) -> int:
    if args.command == "presets":
        for name in PRESET_NAMES:
            print(name)
        return 0

    if args.command == "run":
        preset_name = args.preset or args.preset_pos
        if args.preset and args.preset_pos and args.preset != args.preset_pos:
            raise ConfigError("conflicting preset names given")
        if preset_name and args.config:
            raise ConfigError("give either a preset or --config, not both")
        if preset_name:
            cfg = scenario_from_preset(preset_name)
        elif args.config:
            cfg = scenario_from_mapping(
                parse_config_text(Path(args.config).read_text())
            )
        else:
            raise ConfigError("run needs a preset name or --config")
        if args.window:
            cfg = dataclasses.replace(cfg, window=_parse_window("--window", args.window))
        cfg = dataclasses.replace(cfg, thresholds=_thresholds_with_flags(cfg.thresholds, args))
        run_scenario(cfg, Path(args.out))
        return 0

    if args.command == "analyze":
        window = _parse_window("--window", args.window) if args.window else None
        thresholds = _thresholds_with_flags(AnalysisThresholds(), args)
        analyze_csv(Path(args.csv), args.catalog, window, thresholds, Path(args.out))
        return 0

    if args.command == "sweep":
        spec = sweep_from_mapping(parse_config_text(Path(args.config).read_text()))
        successes = run_sweep(spec, Path(args.out))
        return 0 if successes > 0 else 5

    raise ConfigError(f"unknown command {args.command}")


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
