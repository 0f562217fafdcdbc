#!/usr/bin/env python3
"""qsync benchmark runner.

    python3 bench/run.py --workload fig2a_transient --seed 1 --seconds 16 --trace 0

Run from the root of a source checkout; qsync is imported from its `src/`.
One client in one process runs each operation to completion before starting
the next (closed loop).  BLAS and OpenMP are pinned to one thread.

--trace 0 repeats the workload's pass (its fixed set of operations) for about
--seconds of pass time and reports the end-to-end metrics:

    run_s        median wall time of one pass
    setup_s      median wall time of a fresh interpreter that imports
                 qsync.cli and parses the workload's config

Both are rescaled to host speed before the median is taken.  A fixed
calibration kernel runs before and after every pass, and each pass time is
multiplied by CAL_REF_S / (mean of those two kernel times).  A fresh
interpreter that only imports numpy and scipy runs before and after every
timed interpreter, and each setup time is multiplied by IMPORT_REF_S / (mean
of those two baseline times).  The raw wall times are printed and kept in the
result file.
    peak_rss_mb  ru_maxrss of this process after the passes, before the
                 benchmark computes its references
    ok_frac      operations that passed every check / operations attempted

--trace 1 runs untraced passes for half of --seconds, then traced passes for
the other half, and reports per-layer metrics per pass (see bench/README.md).

Every operation's output is checked in both modes.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Everything the run writes goes under bench/out/.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import envinfo

for _var in envinfo.THREAD_VARS:       # before numpy loads BLAS
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DEFAULT_SEED = 1
HELDOUT_SEED = 20231    # for checking a claim on inputs its author did not tune against
SETUP_REPEATS = 5
# run_s is rescaled to a host on which the calibration kernel
# (envinfo.calibration_s) takes CAL_REF_S, and setup_s to one on which a fresh
# interpreter running BASELINE_CODE (qsync's own third-party imports) takes
# IMPORT_REF_S; see bench/README.md.
CAL_REF_S = 0.2
IMPORT_REF_S = 0.4
BASELINE_CODE = "import numpy, scipy.linalg, scipy.sparse"

E2E_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "ok_frac": "ratio"}
LAYER_UNITS = {
    "lindblad.evolve.calls": "count",
    "lindblad.samples": "count",
    "lindblad.evolve.self_s": "s",
    "lindblad.evolve.us_per_sample": "us",
    "opalg.partial_trace.calls": "count",
    "opalg.partial_trace.s": "s",
    "opalg.von_neumann_entropy.calls": "count",
    "opalg.von_neumann_entropy.s": "s",
    "syncmeter.fit_oscillation.calls": "count",
    "syncmeter.fit_oscillation.s": "s",
    "syncmeter.build_sync_report.s": "s",
    "cli.read_trajectory_csv.calls": "count",
    "cli.read_trajectory_csv.s": "s",
    "cli.analyze_csv.self_s": "s",
    "cli.run_scenario.self_s": "s",
    "cli.files_written": "count",
    "cli.bytes_written": "bytes",
    "models.build.calls": "count",
    "models.build.s": "s",
    "check.max_obs_dev": "absolute",
    "check.max_freq_rel_err": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.spans": "count",
    "host.calibration_s": "s",
}


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked (no qsync sources, or a foreign qsync)."""


def import_qsync():
    """Import qsync from this checkout's src/, and from nowhere else."""
    if not (SRC / "qsync" / "__init__.py").is_file():
        raise SetupError(f"no qsync sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import qsync

    found = Path(qsync.__file__).resolve().parent
    if found != (SRC / "qsync").resolve():
        raise SetupError(f"imported qsync from {found}, expected {SRC / 'qsync'}")
    return qsync


def _dir_usage(path: Path) -> tuple[int, int]:
    files = [p for p in path.rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


def timed_passes(wl, work: Path, seconds: float, tag: str,
                 tracer=None) -> tuple[list[dict], list[float]]:
    """Run passes for about `seconds` of pass time (at least one pass).

    Another pass starts only while it is expected to end nearer `seconds`
    than stopping now.  The calibration kernel runs before the first pass and
    after every pass, outside the timed region; its times are returned with
    the passes.
    """
    passes: list[dict] = []
    cals = [envinfo.calibration_s()]
    elapsed = 0.0
    while not passes or elapsed + elapsed / len(passes) / 2 < seconds:
        outdir = work / f"{tag}{len(passes)}"
        if tracer is not None:
            tracer.active = True
        t0 = time.perf_counter()
        ops = wl.run_pass(outdir, tracer)
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
        cals.append(envinfo.calibration_s())
        files, nbytes = _dir_usage(outdir) if outdir.exists() else (0, 0)
        passes.append({"s": dt, "ops": ops, "outdir": outdir,
                       "files": files, "bytes": nbytes})
        elapsed += dt
    return passes, cals


def scaled(times: list[float], refs: list[float], ref_s: float) -> float:
    """Median of `times`, each rescaled to a host on which the reference task
    takes `ref_s`; refs[i] and refs[i + 1] are the reference task's times
    just before and just after times[i]."""
    return statistics.median(t * ref_s * 2.0 / (refs[i] + refs[i + 1])
                             for i, t in enumerate(times))


def check_passes(wl, passes: list[dict], stats) -> list[str]:
    """Run the output checks on every operation; returns failure messages."""
    messages = []
    for p in passes:
        for op in p["ops"]:
            if op.error is None:
                try:
                    op.problems = wl.check(op, stats)
                except Exception as exc:  # unreadable or missing output
                    op.problems = [f"check raised {type(exc).__name__}: {exc}"]
            if op.failed:
                detail = op.error or "; ".join(op.problems)
                messages.append(f"{p['outdir'].name}/{op.label}: {detail}")
        shutil.rmtree(p["outdir"], ignore_errors=True)
    return messages


def measure_setup(wl, work: Path, repeats: int) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters importing qsync.cli and parsing the config.

    A fresh interpreter running BASELINE_CODE is timed before each of them
    and after the last; returns both lists of times.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def timed(code: list[str]) -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", *code], env=env, cwd=work, check=True,
                       capture_output=True, timeout=120)
        return time.perf_counter() - t0

    timed(wl.setup_command())           # warms bytecode and page caches
    times, baselines = [], [timed([BASELINE_CODE])]
    for _ in range(repeats):
        times.append(timed(wl.setup_command()))
        baselines.append(timed([BASELINE_CODE]))
    return times, baselines


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    q = statistics.quantiles(values, n=4)
    return [q[0], statistics.median(values), q[2]]


def layer_metrics(rows: dict, traced: list[dict], untraced: list[dict], cals: dict,
                  stats, n_checked: int, build: tuple[int, float]) -> dict:
    """Per-layer metrics per traced pass, from the span summary and the checks."""
    n = len(traced)

    def get(name, key):
        return rows.get(name, {}).get(key, 0) / n

    samples = stats.samples / n_checked
    evolve_self = get("lindblad.evolve", "self_s")
    traced_s = scaled([p["s"] for p in traced], cals["traced"], CAL_REF_S)
    untraced_s = scaled([p["s"] for p in untraced], cals["plain"], CAL_REF_S)
    return {
        "lindblad.evolve.calls": get("lindblad.evolve", "calls"),
        "lindblad.samples": samples,
        "lindblad.evolve.self_s": evolve_self,
        "lindblad.evolve.us_per_sample": evolve_self / samples * 1e6 if samples else 0.0,
        "opalg.partial_trace.calls": get("opalg.partial_trace", "calls"),
        "opalg.partial_trace.s": get("opalg.partial_trace", "s"),
        "opalg.von_neumann_entropy.calls": get("opalg.von_neumann_entropy", "calls"),
        "opalg.von_neumann_entropy.s": get("opalg.von_neumann_entropy", "s"),
        "syncmeter.fit_oscillation.calls": get("syncmeter.fit_oscillation", "calls"),
        "syncmeter.fit_oscillation.s": get("syncmeter.fit_oscillation", "s"),
        "syncmeter.build_sync_report.s": get("syncmeter.build_sync_report", "s"),
        "cli.read_trajectory_csv.calls": get("cli.read_trajectory_csv", "calls"),
        "cli.read_trajectory_csv.s": get("cli.read_trajectory_csv", "s"),
        "cli.analyze_csv.self_s": get("cli.analyze_csv", "self_s"),
        "cli.run_scenario.self_s": get("cli.run_scenario", "self_s"),
        "cli.files_written": statistics.median(p["files"] for p in traced),
        "cli.bytes_written": statistics.median(p["bytes"] for p in traced),
        "models.build.calls": build[0],
        "models.build.s": build[1],
        "check.max_obs_dev": stats.max_obs_dev,
        "check.max_freq_rel_err": stats.max_freq_rel_err,
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
        "trace.spans": sum(row["calls"] for row in rows.values()) / n,
        "host.calibration_s": statistics.median(cals["plain"] + cals["traced"]),
    }


def run_workload(wl, seconds: float, trace: bool, work: Path,
                 setup_repeats: int = SETUP_REPEATS) -> dict:
    """Measure one workload; returns counts, metrics and the details behind them."""
    import tracing
    import workloads

    work.mkdir(parents=True, exist_ok=True)
    wl.prepare(work)
    stats = workloads.CheckStats()
    tracer = None
    if not trace:
        passes, cals = timed_passes(wl, work, seconds, "pass")
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        checked = passes
    else:
        untraced, cals_plain = timed_passes(wl, work, seconds / 2, "plain")
        tracer = tracing.Tracer()
        tracer.install()
        wrapped_sites = tracer.bound_sites()
        try:
            traced, cals_traced = timed_passes(wl, work, seconds / 2, "traced", tracer)
        finally:
            tracer.uninstall()
        checked = untraced + traced
    wl.compute_expected(OUT / "refcache")
    messages = check_passes(wl, checked, stats)
    attempted = sum(len(p["ops"]) for p in checked)
    failed = sum(op.failed for p in checked for op in p["ops"])
    if not trace:
        setup, baselines = measure_setup(wl, work, setup_repeats)
        wall = [p["s"] for p in passes]
        metrics = {
            "run_s": scaled(wall, cals, CAL_REF_S),
            "setup_s": scaled(setup, baselines, IMPORT_REF_S),
            "peak_rss_mb": peak_kib / 1024.0,
            "ok_frac": (attempted - failed) / attempted,
        }
        detail = {"pass_s": wall, "calibration_s": cals,
                  "wall_run_s": statistics.median(wall), "setup_wall_s": setup,
                  "setup_baseline_s": baselines}
    else:
        t0 = time.perf_counter()
        n_builds = wl.build_models()
        build = (n_builds, time.perf_counter() - t0 if n_builds else 0.0)
        rows = tracer.summary()
        cals = {"plain": cals_plain, "traced": cals_traced}
        metrics = layer_metrics(rows, traced, untraced, cals, stats, len(checked), build)
        detail = {
            "pass_s": [p["s"] for p in untraced],
            "traced_pass_s": [p["s"] for p in traced],
            "calibration_s": cals_plain + cals_traced,
            "wrapped_sites": wrapped_sites,
            "layers": {k: {f: v / len(traced) for f, v in row.items()}
                       for k, row in sorted(rows.items(), key=lambda kv: -kv[1]["self_s"])},
        }
    return {"attempted": attempted, "failed": failed, "messages": messages,
            "metrics": metrics, "detail": detail, "tracer": tracer}


def _print_report(name: str, seed: int, trace: bool, result: dict, units: dict):
    d = result["detail"]
    q1, med, q3 = _quartiles(d["pass_s"])
    print(f"workload {name}  seed {seed}  trace {int(trace)}: {len(d['pass_s'])} untraced "
          f"passes, wall s per pass: mean {statistics.fmean(d['pass_s']):.4f}, "
          f"median {med:.4f} (q1 {q1:.4f}, q3 {q3:.4f}); calibration kernel s: "
          f"median {statistics.median(d['calibration_s']):.4f} (reference {CAL_REF_S})")
    for key, value in result["metrics"].items():
        print(f"  {key:34s} {value:.6g} {units[key]}")
    print(f"  {'fail_frac':34s} {result['failed'] / result['attempted']:.6g} ratio "
          f"({result['failed']} failed / {result['attempted']} attempted)")
    if trace:
        print(f"  per-layer table (per traced pass, {len(d['traced_pass_s'])} passes, "
              f"{d['wrapped_sites']} wrapped bindings; wall seconds):")
        print(f"    {'span':40s} {'calls':>10s} {'total_s':>10s} {'self_s':>10s}")
        for span, row in d["layers"].items():
            print(f"    {span:40s} {row['calls']:10.1f} {row['s']:10.4f} {row['self_s']:10.4f}")
    for msg in result["messages"][:20]:
        print(f"FAILED {msg}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qsync benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_qsync()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload '{args.workload}' "
              f"(known: {', '.join(workloads.WORKLOAD_NAMES)})", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / "work" / f"{tag}-{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload](args.seed)
    try:
        result = run_workload(wl, args.seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = LAYER_UNITS if trace else E2E_UNITS
    env = envinfo.environment(ROOT, SRC)
    detail = result["detail"]
    if trace:
        result["tracer"].write(OUT / "spans" / f"{tag}.jsonl")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "attempted": result["attempted"],
              "failed": result["failed"], "failures": result["messages"],
              "metrics": result["metrics"], "detail": detail}
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1, default=str))

    _print_report(args.workload, args.seed, trace, result, units)
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
