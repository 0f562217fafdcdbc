"""Batch front end: scenario runs, re-analysis, parameter sweeps.

Subcommands
-----------
run       simulate a preset or a config file; writes trajectory.csv,
          mutual_info.csv, diagnostics.csv, stats.json (integrator
          counters) and report.json
analyze   recompute report.json from a trajectory.csv with the catalog,
          window and lock tolerance its run recorded (--window and
          --tol-freq revisit the last two); `run` takes no such flags,
          and `analyze_csv` takes the recorded value for each None.
          Repeated analyses of an unchanged run in one process parse
          its CSVs once; a one-shot `analyze` only adds a hash of them
sweep     run a grid of scenarios from a sweep config, one forked worker
          per available CPU; writes per-point directories plus summary.csv
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

Configs are checked when parsed, before anything runs: numbers and initial
amplitudes must be finite, run.t_end a positive integer multiple of
run.sample_dt of at most `lindblad.MAX_SAMPLES` samples, sweep.cap
positive, analysis.tol_freq >= 0, and analysis.catalog a valid spec, so a
bad sweep config fails before its first point.  The fit gates, the
phase-class half-width and the rank and commutator tolerances are
`syncmeter` constants, and the integrator's error tolerances `lindblad`
constants, not keys.
`initial.preset = NAME` stands for that preset's amplitudes and excludes
other initial.* keys.  `opalg.DensityMatrix.product_state`
zero-pads an initial.* list shorter than its factor, so one list serves every
point of a sweep over a truncation.  Configs and `models.PRESETS`
are `models.Scenario` records; `Scenario.build()` makes the model, which
fixes the catalog its run is analysed with, and refuses a different
analysis.catalog, as `analyze` refuses a --catalog other than the one the
run's report.json records.  A window too short to fit is refused before
the integration.  A fresh run and a re-analysis of its trajectory.csv feed
the same `lindblad.Trajectory` through `analyze_trajectory`, which adds the
version, the final mutual information and the S_c extras to the analysis
fields of `syncmeter.build_sync_report`.  Each output of `run` and
`analyze`, and the sweep's summary.csv, is written to a temporary sibling
and renamed into place, so a crash never leaves a partial file under its
final name.

Exit codes: 0 ok, 2 config/schema error (including non-finite numbers, a
model or catalog over `opalg.MAX_DIM` dimensions, an analysis window too
short to fit, parameters so extreme that the Dopri5 stepper cannot meet
its tolerances with a representable step, parameters whose propagator
overflows, or underflows so that a sample's trace is not a finite positive
number, or a trajectory column too large for the fit's float64
arithmetic, or S_c columns that no state gives), 3 truncation-guard
abort (a top Fock level or the top excitation shell filled), 4 I/O error
(in a sweep, also a worker process that died), 5 sweep with no successful
point.  A sweep point that fails with a cause of exit 2 or 3 is recorded
in its summary.csv `status` cell instead, and the sweep goes on.  Every
failure, a usage error included, prints a one-line `error:` message to
stderr.  report.json and stats.json are strict JSON: a value that is not
finite is refused, not written.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import dataclasses
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .lindblad import (
    StepSizeUnderflowError,
    Trajectory,
    TruncationError,
    evolve,
    sample_count,
    sample_grid,
)
from .models import MODELS, PRESET_NAMES, PRESETS, Scenario, s_c_extras
from .syncmeter import (
    FIXED_THRESHOLDS, RECORD_KEYS, AnalysisThresholds, ConfigError, analysis_window,
    build_sync_report, resolve_catalog,
)

SWEEP_CAP_DEFAULT = 64
_RUN_OUTPUTS = ("report.json", "stats.json", "trajectory.csv", "mutual_info.csv",
               "diagnostics.csv")
_SUMMARY_FIELDS = ("chi", "c", "xi", "mutual_info_final")
# the failures that `main` maps to exit 2 (ConfigError is a ValueError) or,
# for TruncationError, to exit 3; a sweep point records them in its status
_RUN_FAILURES = (ValueError, StepSizeUnderflowError, TruncationError)


def _parse_number(key: str, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"key '{key}': cannot parse '{text}' as a number") from None
    if not math.isfinite(value):
        raise ConfigError(f"key '{key}': '{text}' is not a finite number")
    return value


def _parse_int(key: str, text: str) -> int:
    number = _parse_number(key, text)
    if number != int(number):
        raise ConfigError(f"key '{key}': expected an integer, got '{text}'")
    return int(number)


def _parse_tol_freq(key: str, text: str) -> AnalysisThresholds:
    """The lock tolerance that config key, flag or record `key` sets: a finite number >= 0."""
    value = _parse_number(key, text)
    try:
        return AnalysisThresholds(value)
    except ValueError as exc:
        raise ConfigError(f"key '{key}': {exc}") from None


def _parse_param(key: str, text: str, field: dataclasses.Field):
    """A model parameter: a finite number, and an integer where the field is one."""
    return _parse_int(key, text) if field.type == "int" else _parse_number(key, text)


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


def scenario_from_mapping(mapping: dict[str, str]) -> Scenario:
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
    preset = None
    run: dict = {}
    thresholds = AnalysisThresholds()
    window = None
    catalog = None
    for key in list(mapping):
        value = mapping.pop(key)
        if key.startswith("param."):
            name = key[len("param."):]
            if name not in param_fields:
                raise ConfigError(f"unknown key '{key}' for model '{model}'")
            params[name] = _parse_param(key, value, param_fields[name])
        elif key.startswith("initial."):
            name = key[len("initial."):]
            if name == "preset":
                if value not in PRESETS:
                    raise ConfigError(f"key '{key}': unknown preset '{value}'")
                preset = value
            else:
                initial[name] = _parse_amplitudes(key, value)
        elif key in ("run.t_end", "run.sample_dt"):
            run[key.split(".", 1)[1]] = _parse_number(key, value)
        elif key == "analysis.window":
            window = _parse_window(key, value)
        elif key == "analysis.catalog":
            resolve_catalog(value)          # a malformed spec is refused here
            catalog = value
        elif key == "analysis.tol_freq":
            thresholds = _parse_tol_freq(key, value)
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
    if not run["sample_dt"] > 0:
        raise ConfigError("key 'run.sample_dt': must be positive")
    try:
        sample_count(**run)
    except ValueError as exc:
        raise ConfigError(f"key 'run.t_end': {exc}") from None
    if preset is not None:
        if initial:
            raise ConfigError(
                "initial.preset cannot be combined with "
                + ", ".join("initial." + name for name in initial)
            )
        initial = dict(PRESETS[preset].initial)
    if not initial:
        raise ConfigError("missing initial state: provide initial.preset "
                          "or initial.<factor> amplitude lists")

    return Scenario(
        model=model,
        params=params,
        initial=initial,
        **run,                       # t_end and sample_dt
        window=window,
        catalog=catalog,
        thresholds=thresholds,
    )


def scenario_from_preset(name: str) -> Scenario:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset '{name}' (known: {', '.join(PRESET_NAMES)})")
    return PRESETS[name]


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
        json.dump(obj, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")

    _write_atomically(path, dump)


def read_trajectory_csv(path: Path) -> Trajectory:
    """The samples of a `time,...` CSV; a malformed or non-finite one, or one whose
    times do not strictly increase, is a ConfigError."""
    with open(path) as fh:
        columns = fh.readline().strip().split(",")
        if columns[0] != "time" or len(set(columns)) != len(columns):
            raise ConfigError(f"{path}: header must be 'time' then unique column names")
        body = fh.tell()
        if not any(line.strip() for line in iter(fh.readline, "")):
            raise ConfigError(f"{path}: no data rows")   # loadtxt would only warn
        fh.seek(body)
        try:
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from None
    if data.shape[1] != len(columns):
        raise ConfigError(f"{path}: inconsistent column count")
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        row, col = bad[0]
        raise ConfigError(f"{path}: non-finite value in column "
                          f"'{columns[col]}' of data row {row + 1}")
    stalls = np.flatnonzero(np.diff(data[:, 0]) <= 0)
    if stalls.size:
        raise ConfigError(f"{path}: time column is not strictly increasing "
                          f"at data row {stalls[0] + 2}")
    return Trajectory(data[:, 0], data[:, 1:], columns[1:])


def analyze_trajectory(
    traj: Trajectory,
    catalog: str,
    window: tuple[float, float] | None,
    thresholds: AnalysisThresholds,
) -> dict:
    """Every report field but the scenario echo, for fresh runs and CSV re-analysis:
    `build_sync_report`'s, then the version, final mutual information and S_c extras."""
    report = build_sync_report(traj, catalog, window, thresholds)
    report["version"] = __version__
    mi = traj.mutual_info
    report["mutual_info_final"] = None if mi is None else float(mi[-1])
    report["extras"] = s_c_extras(traj)
    return report


def run_scenario(cfg: Scenario, outdir: Path) -> dict:
    """Simulate, write outputs, analyze with the model's catalog; returns the report dict.

    The outputs an earlier run left in `outdir` are removed first, so a run
    that fails, in `cfg.build()` or later, leaves no report and no CSV that
    looks current; other files in `outdir` are left alone.  A window too
    short to fit is refused before the integration.  The integrator
    counters go to stats.json, not report.json, which a re-analysis must
    reproduce field for field.
    """
    for name in _RUN_OUTPUTS:
        (outdir / name).unlink(missing_ok=True)
    model, rho0 = cfg.build()
    analysis_window(sample_grid(cfg.t_end, cfg.sample_dt), cfg.window)
    traj = evolve(model, rho0, cfg.t_end, cfg.sample_dt)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_csv(outdir / "trajectory.csv", ["time"] + traj.names, [traj.times, *traj.values.T])
    _write_csv(outdir / "mutual_info.csv", ["time", "mutual_info"], [traj.times, traj.mutual_info])
    _write_csv(outdir / "diagnostics.csv", ["time", "trace_error", "min_eigenvalue"],
               [traj.times, traj.trace_errors, traj.min_eigenvalues])
    _write_json(outdir / "stats.json", traj.stats)
    report = analyze_trajectory(traj, model.catalog, cfg.window, cfg.thresholds)
    report["scenario"] = cfg.echo()
    report["model"] = cfg.model
    _write_json(outdir / "report.json", report)
    return report


def recorded_analysis(
    csv_path: Path,
    catalog: str | None,
    window: tuple[float, float] | None,
    thresholds: AnalysisThresholds | None,
) -> tuple[str, tuple[float, float] | None, AnalysisThresholds, dict]:
    """The catalog, window, thresholds and provenance that analyse `csv_path`.

    A None argument takes what the report.json beside `csv_path` records
    under `thresholds`, else the default (the second half of the run,
    `AnalysisThresholds()`); a given catalog must match the recorded one.
    That report is read once and its whole record is checked: a malformed
    value, a constant other than `FIXED_THRESHOLDS`, or a key this version
    does not write, is a ConfigError naming the file and key.  The provenance is its `scenario` and `model`.
    """
    sibling = csv_path.parent / "report.json"
    recorded_window, recorded_thresholds = None, AnalysisThresholds()
    try:
        prior = json.loads(sibling.read_text()) if sibling.exists() else {}
        if not isinstance(prior, dict):
            raise ConfigError("not a JSON object")
        record = prior.get("thresholds", {})
        if not isinstance(record, dict):
            raise ConfigError("key 'thresholds' is not a JSON object")
        for key, value in record.items():
            if key not in RECORD_KEYS:
                raise ConfigError(f"key 'thresholds.{key}' is not one this version "
                                  "records")
            # a recorded number is re-parsed from its JSON text: strings,
            # booleans and nulls fail like a malformed config value
            text = (":".join(map(json.dumps, value)) if isinstance(value, list)
                    else json.dumps(value))
            if key in FIXED_THRESHOLDS and value != FIXED_THRESHOLDS[key]:
                raise ConfigError(f"key 'thresholds.{key}' records {text}, which this "
                                  f"version fixes at {FIXED_THRESHOLDS[key]!r}")
            if key == "window":
                recorded_window = _parse_window(f"thresholds.{key}", text)
            elif key == "tol_freq":
                recorded_thresholds = _parse_tol_freq(f"thresholds.{key}", text)
    except ValueError as exc:       # malformed JSON, not UTF-8, or a refused value
        raise ConfigError(f"{sibling}: {exc}") from None
    recorded_catalog = record.get("catalog")
    if catalog is None:
        catalog = recorded_catalog
    elif recorded_catalog not in (None, catalog):
        raise ConfigError(f"catalog '{catalog}' differs from the catalog "
                          f"'{recorded_catalog}' recorded in {sibling}")
    if catalog is None:
        raise ConfigError(f"{csv_path}: no report.json beside it records the catalog; "
                          "give --catalog")
    return (catalog, recorded_window if window is None else window,
            recorded_thresholds if thresholds is None else thresholds,
            {"scenario": prior.get("scenario"), "model": prior.get("model")})


def _digests(csv_path: Path, mi_path: Path) -> tuple[bytes, bytes | None]:
    """SHA-256 of trajectory.csv and of its sibling mutual_info.csv (None where absent)."""
    import hashlib      # not at module level: `import qsync.cli` would pay for it

    def digest(path: Path) -> bytes:
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 16), b""):
                h.update(block)
        return h.digest()

    csv_digest = digest(csv_path)
    try:
        return csv_digest, digest(mi_path)
    except FileNotFoundError:
        return csv_digest, None


# the last run `_read_run` parsed: (`_digests` of its files, its read-only Trajectory)
_last_read: tuple = (None, None)


def _read_run(csv_path: Path) -> Trajectory:
    """`read_trajectory_csv(csv_path)` with its sibling mutual_info.csv, if any, attached.

    The result is kept for the content it was parsed from: a second call on
    the same bytes parses nothing.  It is kept only if both files still
    hash as they did before the parse, and never after a failed one.
    """
    global _last_read
    mi_path = csv_path.parent / "mutual_info.csv"
    key = _digests(csv_path, mi_path)
    kept_key, kept = _last_read         # one read: another thread may replace it
    if kept_key == key:
        return kept
    traj = read_trajectory_csv(csv_path)
    if key[1] is not None:
        mi = read_trajectory_csv(mi_path)
        if mi.names != ["mutual_info"] or not np.array_equal(mi.times, traj.times):
            raise ConfigError(f"{mi_path}: columns must be 'time,mutual_info' on the "
                              f"time column of {csv_path}")
        traj = dataclasses.replace(traj, mutual_info=mi.values[:, 0])
    for array in (traj.times, traj.values, traj.mutual_info):
        if array is not None:
            array.flags.writeable = False
    if _digests(csv_path, mi_path) == key:
        _last_read = (key, traj)
    return traj


def analyze_csv(
    csv_path: Path,
    catalog: str | None,
    window: tuple[float, float] | None,
    thresholds: AnalysisThresholds | None,
    outdir: Path,
) -> dict:
    """Re-analyze a trajectory.csv with its sibling mutual_info.csv, if any.

    A None `catalog`, `window` or `thresholds` takes what the run recorded,
    else the default (`recorded_analysis`), as an absent `analyze` flag does.
    The report.json beside the CSV is read on every call, but the two CSVs
    are parsed once per content: repeated analyses of an unchanged run, say
    under several windows, only hash its files again (`_read_run`).
    """
    traj = _read_run(csv_path)
    catalog, window, thresholds, provenance = recorded_analysis(
        csv_path, catalog, window, thresholds)
    report = analyze_trajectory(traj, catalog, window, thresholds) | provenance
    outdir.mkdir(parents=True, exist_ok=True)
    _write_json(outdir / "report.json", report)
    return report


# --- sweep -----------------------------------------------------------------


@dataclass
class SweepSpec:
    base: Scenario
    axes: list[tuple[str, list[float]]]    # (param name, values), file order
    cap: int = SWEEP_CAP_DEFAULT


def sweep_from_mapping(mapping: dict[str, str]) -> SweepSpec:
    mapping = dict(mapping)
    axis_text: dict[str, str] = {}
    cap = SWEEP_CAP_DEFAULT
    for key in list(mapping):
        if key.startswith("sweep.axis.param."):
            axis_text[key[len("sweep.axis.param."):]] = mapping.pop(key)
        elif key == "sweep.cap":
            cap = _parse_int(key, mapping.pop(key))
            if cap < 1:
                raise ConfigError(f"key '{key}': must be a positive integer")
    if not axis_text:
        raise ConfigError("sweep config needs at least one sweep.axis.param.<name> line")
    base = scenario_from_mapping(mapping)
    param_fields = {f.name: f for f in dataclasses.fields(MODELS[base.model][0])}
    axes = []
    for name, text in axis_text.items():
        if name not in param_fields:
            raise ConfigError(
                f"sweep axis 'param.{name}' is not a parameter of model '{base.model}'"
            )
        key = f"sweep.axis.param.{name}"
        values = [_parse_param(key, tok, param_fields[name])
                  for tok in text.replace(",", " ").split()]
        if not values:
            raise ConfigError(f"key '{key}': empty value list")
        axes.append((name, values))
    return SweepSpec(base=base, axes=axes, cap=cap)


def _sweep_workers(n_points: int) -> int:
    """Worker processes for a sweep of `n_points`: one per usable CPU, at most one per point."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:          # no CPU affinity on this platform
        cpus = os.cpu_count() or 1
    return min(n_points, cpus)


def _sweep_point(cfg: Scenario, point_dir: Path) -> dict:
    """Run one grid point; returns its summary columns after the grid values.

    A failure that `main` maps to exit 2 or 3 (`_RUN_FAILURES`) goes into
    the `status` cell; anything else, an `OSError` included, ends the sweep.
    """
    try:
        report = run_scenario(cfg, point_dir)
    except _RUN_FAILURES as exc:
        return dict.fromkeys(_SUMMARY_FIELDS, "") | {
            "status": f"error:{type(exc).__name__}: {exc}"}
    return {key: report[key] for key in _SUMMARY_FIELDS} | {"status": "ok"}


def run_sweep(spec: SweepSpec, outdir: Path) -> int:
    """Run the grid; returns the number of successful points.

    The points run in forked worker processes, `_sweep_workers` of them, and
    in this process where that is one or `fork` is not available; either way
    each point runs `_sweep_point` and summary.csv lists them in grid order.
    The summary.csv of an earlier sweep is removed before the first point.
    A worker that dies raises `OSError`; no worker outlives the call.
    """
    import concurrent.futures
    import multiprocessing

    grids = [values for _, values in spec.axes]
    points = list(itertools.product(*grids))
    if len(points) > spec.cap:
        raise ConfigError(
            f"sweep grid has {len(points)} points, exceeding the cap {spec.cap}"
        )
    outdir.mkdir(parents=True, exist_ok=True)
    for name in ("summary.csv", "summary.csv.tmp"):
        (outdir / name).unlink(missing_ok=True)
    axis_names = [name for name, _ in spec.axes]
    jobs = [(dataclasses.replace(spec.base, params={**spec.base.params,
                                                    **dict(zip(axis_names, values))}),
             outdir / f"point_{idx:04d}")
            for idx, values in enumerate(points)]
    workers = _sweep_workers(len(jobs))
    if workers > 1 and "fork" in multiprocessing.get_all_start_methods():
        pool = concurrent.futures.ProcessPoolExecutor(
            workers, mp_context=multiprocessing.get_context("fork"))
        try:
            futures = [pool.submit(_sweep_point, *job) for job in jobs]
            results = []
            for idx, future in enumerate(futures):
                try:
                    results.append(future.result())
                except concurrent.futures.BrokenExecutor as exc:
                    raise OSError(
                        f"a sweep worker process died before point {idx} finished: {exc}"
                    ) from exc
        finally:
            pool.shutdown(cancel_futures=True)
    else:
        results = [_sweep_point(*job) for job in jobs]
    rows = [{"point": idx, **dict(zip(axis_names, values)), **result}
            for idx, (values, result) in enumerate(zip(points, results))]
    header = ["point"] + axis_names + [*_SUMMARY_FIELDS, "status"]

    def write(fh):
        out = csv.writer(fh, lineterminator="\n")   # QUOTE_MINIMAL: only messages get quoted
        out.writerow(header)
        out.writerows([f"{row[h]:.17g}" if isinstance(row[h], float) else str(row[h])
                       for h in header] for row in rows)

    _write_atomically(outdir / "summary.csv", write)
    return sum(result["status"] == "ok" for result in results)


# --- argument parsing / entry point ----------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors, its subparsers' too, raise ConfigError: `main` prints one `error:` line."""

    def error(self, message):
        raise ConfigError(message)


def main(argv=None) -> int:
    parser = _Parser(
        prog="qsync", description="Open-system synchronization simulator and analyzer")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a preset or config")
    p_run.add_argument("preset", nargs="?", default=None,
                       help=f"preset name, one of: {', '.join(PRESET_NAMES)}")
    p_run.add_argument("--config", help="path to a scenario config file")
    p_run.add_argument("--out", required=True, help="output directory")

    p_an = sub.add_parser("analyze", help="re-analyze a trajectory.csv (window and "
                          "tolerance default to those its report.json records)")
    p_an.add_argument("csv", help="path to trajectory.csv")
    p_an.add_argument("--catalog", help="'pauli' or 'moments:<N>' (default, and checked "
                      "against: the catalog in the report.json beside the CSV)")
    p_an.add_argument("--out", required=True, help="output directory")
    p_an.add_argument("--window", help="analysis window 'T0:T1'")
    p_an.add_argument("--tol-freq", help="relative frequency lock tolerance")

    p_sw = sub.add_parser("sweep", help="run a parameter sweep")
    p_sw.add_argument("--config", required=True, help="path to a sweep config file")
    p_sw.add_argument("--out", required=True, help="output directory")

    sub.add_parser("presets", help="list preset scenario names")

    try:
        return _dispatch(parser.parse_args(argv))
    except (*_RUN_FAILURES, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4 if isinstance(exc, OSError) else 3 if isinstance(exc, TruncationError) else 2


def _dispatch(args) -> int:
    if args.command == "presets":
        for name in PRESET_NAMES:
            print(name)
        return 0

    if args.command == "run":
        if args.preset and args.config:
            raise ConfigError("give either a preset or --config, not both")
        if args.preset:
            cfg = scenario_from_preset(args.preset)
        elif args.config:
            cfg = scenario_from_mapping(parse_config_text(Path(args.config).read_text()))
        else:
            raise ConfigError("run needs a preset name or --config")
        run_scenario(cfg, Path(args.out))
        return 0

    if args.command == "analyze":
        # an absent flag is None: analyze_csv takes the recorded value
        window = None if args.window is None else _parse_window("--window", args.window)
        thresholds = (None if args.tol_freq is None
                      else _parse_tol_freq("--tol-freq", args.tol_freq))
        analyze_csv(Path(args.csv), args.catalog, window, thresholds, Path(args.out))
        return 0

    if args.command == "sweep":
        spec = sweep_from_mapping(parse_config_text(Path(args.config).read_text()))
        successes = run_sweep(spec, Path(args.out))
        return 0 if successes > 0 else 5


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
