#!/usr/bin/env python3
"""Self-check of the benchmark's output checks, at tiny workload sizes.

    python3 bench/selfcheck.py

Runs every workload once unchanged (no operation may fail), then once per
injected fault, through the same `run_workload` that run.py uses, and
requires each fault to be counted as failed operations:

* a perturbed reference (fig2a_transient, fig3_transient, sweep_reduced);
* a flipped planted verdict and a shifted planted frequency (reanalyze);
* a broken diagnostics.csv, a broken report.json and a raising operation
  (fig2a_transient), a broken sweep status and a raising sweep (sweep_reduced).

It also requires the metric names and units run.py prints to match
BENCHMARK.json.  Exits 0 when every case behaves as expected, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys

import run  # sets the BLAS thread variables before numpy is imported

run.import_qsync()

import workloads as W  # noqa: E402

SEED = 7


class PerturbedReference:
    def compute_expected(self, cache_dir):
        super().compute_expected(cache_dir)
        shift = 2 * W.OBS_TOL
        if isinstance(self.reference, list):
            self.reference = [ref + shift for ref in self.reference]
        else:
            self.reference = self.reference + shift


class FlippedVerdict:
    def compute_expected(self, cache_dir):
        synced, omegas = self.planted["sigma_z"]
        self.planted = {**self.planted, "sigma_z": (not synced, omegas)}


class ShiftedFrequency:
    def compute_expected(self, cache_dir):
        synced, (w1, w2) = self.planted["sigma_x"]
        self.planted = {**self.planted,
                        "sigma_x": (synced, (w1 * (1 + 2 * W.FREQ_REL_TOL), w2))}


class BrokenDiagnostics:
    def run_pass(self, outdir, tracer=None):
        ops = super().run_pass(outdir, tracer)
        path = outdir / "diagnostics.csv"
        lines = path.read_text().splitlines()
        time_, _, min_eig = lines[-1].split(",")
        lines[-1] = f"{time_},{10 * W.TRACE_ERR_MAX!r},{min_eig}"
        path.write_text("\n".join(lines) + "\n")
        return ops


class BrokenReport:
    def run_pass(self, outdir, tracer=None):
        ops = super().run_pass(outdir, tracer)
        path = outdir / "report.json"
        report = json.loads(path.read_text())
        report["chi"] += 1
        path.write_text(json.dumps(report))
        return ops


class BrokenStatus:
    def run_pass(self, outdir, tracer=None):
        ops = super().run_pass(outdir, tracer)
        path = outdir / "summary.csv"
        lines = path.read_text().splitlines()
        lines[1] = lines[1].rsplit(",", 1)[0] + ",error:RuntimeError"
        path.write_text("\n".join(lines) + "\n")
        return ops


class RaisingScenario:
    def prepare(self, workdir):
        super().prepare(workdir)
        self.cfg = dataclasses.replace(self.cfg, t_end=self.cfg.t_end + self.cfg.sample_dt / 3)


class RaisingSweep:
    def prepare(self, workdir):
        super().prepare(workdir)
        self.spec = dataclasses.replace(self.spec, cap=1)


# (workload, fault mixin or None, expectation): "none" = no failed operation,
# "all" = every operation failed, "some" = at least one failed.
CASES = [
    ("fig2a_transient", None, "none"),
    ("fig3_transient", None, "none"),
    ("sweep_reduced", None, "none"),
    ("reanalyze", None, "none"),
    ("fig2a_transient", PerturbedReference, "all"),
    ("fig3_transient", PerturbedReference, "all"),
    ("sweep_reduced", PerturbedReference, "all"),
    ("reanalyze", FlippedVerdict, "all"),
    ("reanalyze", ShiftedFrequency, "all"),
    ("fig2a_transient", BrokenDiagnostics, "all"),
    ("fig2a_transient", BrokenReport, "all"),
    ("fig2a_transient", RaisingScenario, "all"),
    ("sweep_reduced", BrokenStatus, "some"),
    ("sweep_reduced", RaisingSweep, "all"),
]


def units_match() -> bool:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = ({m["name"]: m["unit"] for m in spec["end_to_end"]},
                {m["name"]: m["unit"] for m in spec["per_layer"]})
    ok = declared == (run.E2E_UNITS, run.LAYER_UNITS)
    print(f"{'ok  ' if ok else 'FAIL'} metric names and units match BENCHMARK.json")
    return ok


def main() -> int:
    bad = 0 if units_match() else 1
    for name, fault, expect in CASES:
        cls = W.WORKLOADS[name]
        if fault is not None:
            cls = type(f"{fault.__name__}{cls.__name__}", (fault, cls), {})
        wl = cls(SEED, tiny=True)
        work = run.OUT / "selfcheck" / f"{name}-{fault.__name__ if fault else 'clean'}"
        trace = fault is not None
        try:
            result = run.run_workload(wl, 0.0, trace, work, setup_repeats=1)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        failed, attempted = result["failed"], result["attempted"]
        ok = {"none": failed == 0, "all": failed == attempted,
              "some": 0 < failed}[expect] and attempted > 0
        bad += not ok
        label = fault.__name__ if fault else "clean"
        first = result["messages"][0] if result["messages"] else ""
        print(f"{'ok  ' if ok else 'FAIL'} {name:16s} {label:18s} trace {int(trace)} "
              f"failed {failed}/{attempted} (expected {expect})  {first[:90]}")
    print(f"{len(CASES) + 1 - bad}/{len(CASES) + 1} cases as expected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
