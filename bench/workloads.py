"""The four benchmark workloads: seeded inputs, operations and output checks.

Each workload turns a seed into the inputs qsync receives (config text or a
trajectory CSV), runs a fixed set of operations through qsync's public API
(`run_scenario`, `run_sweep`, `analyze_csv`) and checks every output against
an expectation the benchmark computes itself.  One *pass* is that fixed set
of operations; run.py repeats passes and reports the median pass time.

Operations per pass:

* fig2a_transient, fig3_transient: one scenario run;
* sweep_reduced: one sweep of 16 grid points (one operation per point);
* reanalyze: one re-analysis per sliding window (8 windows).

The parameter values are literal copies of the preset values at the time the
benchmark was written, so a later change to a preset does not silently change
a workload.  Import this module only after qsync's `src/` is on sys.path (see
run.import_qsync); qsync functions are looked up as module attributes at call
time, so the traced run's rebinding reaches them.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import sparse

from qsync import cli
from qsync.lindblad import propagate_dense
from qsync.models import (
    CavityQubitParams,
    ReducedQubitParams,
    VdpParams,
    build_cavity_qubit,
    build_reduced_qubit,
    build_vdp,
)
from qsync.opalg import DensityMatrix

OBS_TOL = 1e-6          # acceptance criterion 5: integrator vs reference
TRACE_ERR_MAX = 1e-8    # diagnostics.csv: |tr rho - 1|
MIN_EIG_MIN = -1e-8     # diagnostics.csv: smallest eigenvalue
FREQ_REL_TOL = 1e-3     # reanalyze: planted vs recovered frequency
REF_VERSION = "expm_multiply-csr-v1"

WORKLOAD_NAMES = ("fig2a_transient", "fig3_transient", "sweep_reduced", "reanalyze")


@dataclass
class OpResult:
    """One operation of one pass: its output location and any failure."""

    label: str
    outdir: Path
    error: str | None = None
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.problems)


@dataclass
class CheckStats:
    """Largest deviations the output checks measured (diagnostic only)."""

    max_obs_dev: float = 0.0
    max_freq_rel_err: float = 0.0
    samples: int = 0


def _amp_text(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g}j"


def _amp_line(amps) -> str:
    return " ".join(_amp_text(complex(z)) for z in amps)


def _two_level(rng: np.random.Generator, lo: float, hi: float) -> np.ndarray:
    """Seeded superposition sqrt(1-p)|0> + e^{i phi} sqrt(p)|1>."""
    p = rng.uniform(lo, hi)
    phi = rng.uniform(0.0, 2.0 * np.pi)
    return np.array([np.sqrt(1.0 - p), np.sqrt(p) * np.exp(1j * phi)])


def _padded(amps: np.ndarray, dim: int) -> np.ndarray:
    out = np.zeros(dim, dtype=complex)
    out[: len(amps)] = amps
    return out


def _config_text(lines: dict) -> str:
    return "".join(f"{k} = {v}\n" for k, v in lines.items())


def _read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def _expectations(states: np.ndarray, observables) -> np.ndarray:
    """Real tr(rho O) for column-stacked vec(rho) rows; tr(rho O) = vec(rho).O.ravel()."""
    cols = [np.real(states @ np.asarray(op.matrix).ravel()) for _, op in observables]
    return np.column_stack(cols)


def sparse_liouvillian(model):
    """Column-stacked CSR Liouvillian from the model's public H and dissipators.

    vec(A rho B) = (B^T kron A) vec(rho); each channel (rate, L) adds
    rate * (2 L rho L^dag - L^dag L rho - rho L^dag L).
    """
    d = model.dim
    eye = sparse.identity(d, dtype=complex, format="csr")
    h = sparse.csr_matrix(model.hamiltonian.matrix)
    liou = -1j * (sparse.kron(eye, h) - sparse.kron(h.T, eye))
    for dis in model.dissipators:
        lop = sparse.csr_matrix(dis.jump.matrix)
        ldl = (lop.conj().T @ lop).tocsr()
        liou = liou + dis.rate * (
            2.0 * sparse.kron(lop.conj(), lop)
            - sparse.kron(eye, ldl)
            - sparse.kron(ldl.T, eye)
        )
    return liou.tocsr()


def _model_digest(model, rho0, times) -> str:
    h = hashlib.sha256(REF_VERSION.encode())
    h.update(np.ascontiguousarray(model.hamiltonian.matrix).tobytes())
    for dis in model.dissipators:
        h.update(np.float64(dis.rate).tobytes())
        h.update(np.ascontiguousarray(dis.jump.matrix).tobytes())
    for name, op in model.observables:
        h.update(name.encode())
        h.update(np.ascontiguousarray(op.matrix).tobytes())
    h.update(np.ascontiguousarray(rho0.matrix).tobytes())
    h.update(np.ascontiguousarray(times).tobytes())
    return h.hexdigest()


def expm_reference(model, rho0, times: np.ndarray, cache_dir: Path) -> np.ndarray:
    """Observable values at `times` from scipy's expm_multiply, cached by input hash."""
    # imported here so it does not count in the timed process's peak RSS
    from scipy.sparse.linalg import expm_multiply

    key = _model_digest(model, rho0, times)
    path = cache_dir / f"{key}.npy"
    if path.exists():
        return np.load(path)
    liou = sparse_liouvillian(model)
    vec0 = np.asarray(rho0.matrix).ravel(order="F").astype(complex)
    states = expm_multiply(
        liou, vec0, start=float(times[0]), stop=float(times[-1]),
        num=len(times), endpoint=True,
    )
    values = _expectations(states, model.observables)
    cache_dir.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp.npy")
    np.save(tmp, values)
    tmp.replace(path)
    return values


def check_trajectory(outdir: Path, names: list[str], ref: np.ndarray,
                     times: np.ndarray, stats: CheckStats) -> list[str]:
    """Observables within OBS_TOL of `ref`, plus the diagnostics.csv invariants."""
    problems = []
    header, data = _read_csv(outdir / "trajectory.csv")
    if header[1:] != names or data.shape != (len(times), len(names) + 1):
        return [f"trajectory.csv columns {header[1:]} / shape {data.shape} unexpected"]
    if not np.allclose(data[:, 0], times, rtol=0, atol=1e-9):
        problems.append("trajectory.csv time grid differs from the requested grid")
    dev = float(np.max(np.abs(data[:, 1:] - ref)))
    stats.max_obs_dev = max(stats.max_obs_dev, dev)
    stats.samples += data.shape[0]
    if not dev <= OBS_TOL:
        problems.append(f"observable deviation {dev:.3g} from reference exceeds {OBS_TOL:g}")
    _, diag = _read_csv(outdir / "diagnostics.csv")
    trace_err = float(np.max(diag[:, 1]))
    min_eig = float(np.min(diag[:, 2]))
    if not trace_err <= TRACE_ERR_MAX:
        problems.append(f"trace error {trace_err:.3g} exceeds {TRACE_ERR_MAX:g}")
    if not min_eig >= MIN_EIG_MIN:
        problems.append(f"smallest eigenvalue {min_eig:.3g} below {MIN_EIG_MIN:g}")
    return problems


class Workload:
    """Base: subclasses set `name`, build inputs in __init__ and define run_pass/check."""

    name = ""

    def __init__(self, seed: int, tiny: bool = False):
        self.tiny = tiny
        self.rng = np.random.default_rng([seed, WORKLOAD_NAMES.index(self.name)])

    def prepare(self, workdir: Path):
        """Write input files qsync reads; parse configs (outside the timed region)."""

    def setup_command(self) -> list[str]:
        """`python -c` source and arguments: import qsync.cli and parse the config."""
        raise NotImplementedError

    def run_pass(self, outdir: Path, tracer=None) -> list[OpResult]:
        raise NotImplementedError

    def compute_expected(self, cache_dir: Path):
        """Reference data for the checks (outside the timed region)."""

    def check(self, op: OpResult, stats: CheckStats) -> list[str]:
        raise NotImplementedError

    def build_models(self) -> int:
        """Call the model build function directly once per build a pass performs."""
        return 0


def _start_op(tracer, pass_dir: Path, label: str):
    """Tag the spans that follow with this operation's id, <pass>/<operation>."""
    if tracer is not None:
        tracer.op_id = f"{pass_dir.name}/{label}"


def _guarded(op: OpResult, fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # an operation that raises counts as failed
        op.error = f"{type(exc).__name__}: {exc}"
        return None


class _Transient(Workload):
    """Shared shape of the two preset transients: one run_scenario per pass."""

    catalog = ""

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed, tiny)
        self.text = _config_text(self._config())

    def prepare(self, workdir: Path):
        self.config_path = workdir / "scenario.cfg"
        self.config_path.write_text(self.text)
        self.cfg = cli.scenario_from_mapping(cli.parse_config_text(self.text))
        n = int(round(self.cfg.t_end / self.cfg.sample_dt))
        self.times = np.arange(n + 1) * self.cfg.sample_dt

    def setup_command(self) -> list[str]:
        return ["import sys, qsync.cli as c\n"
                "c.scenario_from_mapping(c.parse_config_text(open(sys.argv[1]).read()))\n",
                str(self.config_path)]

    def run_pass(self, outdir: Path, tracer=None) -> list[OpResult]:
        op = OpResult("run", outdir)
        _start_op(tracer, outdir, op.label)
        _guarded(op, cli.run_scenario, self.cfg, outdir)
        return [op]

    def _model(self):
        return self.build_fn(self.params_cls(**self.cfg.params))

    def compute_expected(self, cache_dir: Path):
        model = self._model()
        rho0 = DensityMatrix.product_state(model.layout, self.amplitudes)
        self.names = model.observable_names()
        self.reference = expm_reference(model, rho0, self.times, cache_dir)

    def check(self, op: OpResult, stats: CheckStats) -> list[str]:
        problems = check_trajectory(op.outdir, self.names, self.reference, self.times, stats)
        redo = op.outdir / "reanalysis"
        cli.analyze_csv(op.outdir / "trajectory.csv", self.catalog, self.cfg.window,
                        self.cfg.thresholds, redo)
        original = json.loads((op.outdir / "report.json").read_text())
        again = json.loads((redo / "report.json").read_text())
        if again != original:
            diff = sorted(k for k in set(original) | set(again)
                          if original.get(k) != again.get(k))
            problems.append(f"analyze_csv round trip differs from report.json in {diff}")
        return problems

    def build_models(self) -> int:
        self._model()
        return 1


class Fig2aTransient(_Transient):
    """fig2a preset (driven cavity-qubit pair, D=64) on a shortened horizon."""

    name = "fig2a_transient"
    catalog = "pauli"
    params_cls, build_fn = CavityQubitParams, staticmethod(build_cavity_qubit)

    def _config(self) -> dict:
        nc = 4
        qubits = [_two_level(self.rng, 0.05, 0.45) for _ in range(2)]
        vacuum = _padded(np.array([1.0]), nc)
        self.amplitudes = [*qubits, vacuum, vacuum]
        # 64 sample intervals of the preset's sample_dt: the fit needs 64
        # samples in the window (MIN_WINDOW_SAMPLES).
        dt = 0.25 if self.tiny else 2.0
        t_end = 64 * dt
        return {
            "model": "cavity_qubit",
            "param.delta1": 10.0, "param.delta2": 10.0,
            "param.deltaq1": 0.0, "param.deltaq2": 0.0,
            "param.g0": 0.5, "param.J": -10.0, "param.Omega": 5e-4,
            "param.kappa": 1.0, "param.Nc": nc,
            "initial.qubit1": _amp_line(qubits[0]),
            "initial.qubit2": _amp_line(qubits[1]),
            "initial.cav1": _amp_line(vacuum),
            "initial.cav2": _amp_line(vacuum),
            "run.t_end": f"{t_end:g}",
            "run.sample_dt": f"{dt:g}",
            "analysis.window": f"0:{t_end + dt / 2:g}",
            "analysis.catalog": self.catalog,
        }


class Fig3Transient(_Transient):
    """fig3 preset (van der Pol pair, N=12, D=144) on a shortened horizon."""

    name = "fig3_transient"
    catalog = "moments:12"
    params_cls, build_fn = VdpParams, staticmethod(build_vdp)

    def _config(self) -> dict:
        n = 12
        modes = [_padded(_two_level(self.rng, 0.05, 0.95), n) for _ in range(2)]
        self.amplitudes = modes
        dt = 0.005 if self.tiny else 0.02
        t_end = 64 * dt
        return {
            "model": "vdp",
            "param.omega1": 1.0, "param.omega2": 1.0, "param.J": 0.5,
            "param.Omega1": 1e-3, "param.Omega2": 1e-3,
            "param.kappa1": 2.0, "param.kappa2": 2.0, "param.N": n,
            "initial.mode1": _amp_line(modes[0]),
            "initial.mode2": _amp_line(modes[1]),
            "run.t_end": f"{t_end:g}",
            "run.sample_dt": f"{dt:g}",
            "analysis.window": f"0:{t_end + dt / 2:g}",
            "analysis.catalog": self.catalog,
            "analysis.tol_freq": 0.05,
        }


class SweepReduced(Workload):
    """run_sweep over a seeded (deltaq2, Omega) grid of the reduced two-qubit model."""

    name = "sweep_reduced"

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed, tiny)
        side = 2 if tiny else 4
        self.qubits = [_two_level(self.rng, 0.05, 0.45) for _ in range(2)]
        self.deltaq2 = np.sort(self.rng.uniform(0.0, 0.16, side))
        self.omega = np.sort(self.rng.uniform(0.0, 0.02, side))
        t_end = 64.0 if tiny else 200.0
        self.base = {
            "model": "reduced_qubit",
            "param.deltaq1": 0.08,
            "param.deltaq2": f"{self.deltaq2[0]:.17g}",
            "param.Omega": f"{self.omega[0]:.17g}",
            "param.gamma_eff": 0.25,
            "initial.qubit1": _amp_line(self.qubits[0]),
            "initial.qubit2": _amp_line(self.qubits[1]),
            "run.t_end": f"{t_end:g}",
            "run.sample_dt": 0.5,
            "sweep.axis.param.deltaq2": " ".join(f"{v:.17g}" for v in self.deltaq2),
            "sweep.axis.param.Omega": " ".join(f"{v:.17g}" for v in self.omega),
        }
        self.text = _config_text(self.base)
        self.points = list(itertools.product(self.deltaq2, self.omega))

    def prepare(self, workdir: Path):
        self.config_path = workdir / "sweep.cfg"
        self.config_path.write_text(self.text)
        self.spec = cli.sweep_from_mapping(cli.parse_config_text(self.text))
        n = int(round(self.spec.base.t_end / self.spec.base.sample_dt))
        self.times = np.arange(n + 1) * self.spec.base.sample_dt

    def setup_command(self) -> list[str]:
        return ["import sys, qsync.cli as c\n"
                "c.sweep_from_mapping(c.parse_config_text(open(sys.argv[1]).read()))\n",
                str(self.config_path)]

    def run_pass(self, outdir: Path, tracer=None) -> list[OpResult]:
        probe = OpResult("sweep", outdir)
        _start_op(tracer, outdir, probe.label)
        _guarded(probe, cli.run_sweep, self.spec, outdir)
        return [
            OpResult(f"point_{i:04d}", outdir, error=probe.error)
            for i in range(len(self.points))
        ]

    def _model(self, deltaq2: float, omega: float):
        return build_reduced_qubit(ReducedQubitParams(
            deltaq1=0.08, deltaq2=float(deltaq2), Omega=float(omega), gamma_eff=0.25))

    def compute_expected(self, cache_dir: Path):
        self.reference = []
        for deltaq2, omega in self.points:
            model = self._model(deltaq2, omega)
            rho0 = DensityMatrix.product_state(model.layout, self.qubits)
            states = propagate_dense(model, rho0, self.times)
            flat = np.array([s.matrix.ravel(order="F") for s in states])
            self.reference.append(_expectations(flat, model.observables))
        self.names = self._model(*self.points[0]).observable_names()

    def check(self, op: OpResult, stats: CheckStats) -> list[str]:
        idx = int(op.label.split("_")[1])
        with open(op.outdir / "summary.csv") as fh:
            header = fh.readline().strip().split(",")
            rows = [dict(zip(header, line.strip().split(","))) for line in fh if line.strip()]
        row = rows[idx] if idx < len(rows) else {}
        if row.get("status") != "ok":
            return [f"sweep status {row.get('status')!r}, expected 'ok'"]
        got = (float(row["deltaq2"]), float(row["Omega"]))
        if got != tuple(float(v) for v in self.points[idx]):
            return [f"summary.csv row {idx} has grid values {got}, expected {self.points[idx]}"]
        point_dir = op.outdir / op.label
        return check_trajectory(point_dir, self.names, self.reference[idx], self.times, stats)

    def build_models(self) -> int:
        for point in self.points:
            self._model(*point)
        return len(self.points)


class Reanalyze(Workload):
    """analyze_csv over sliding windows of a synthetic Pauli trajectory.csv.

    sigma_x and sigma_y are planted as locked pairs (one frequency per pair,
    different amplitude and phase per subsystem); sigma_z is an unlocked pair
    whose relative frequency mismatch is at least 10x the default tol_freq.
    """

    name = "reanalyze"
    DT = 0.05
    WINDOW_SPAN = 250.0

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed, tiny)
        rows = 2_000 if tiny else 20_000
        n_windows = 2 if tiny else 8
        rng = self.rng
        omega_x, omega_y, omega_z = rng.uniform(0.4, 1.2, 3)
        self.planted = {
            "sigma_x": (True, (omega_x, omega_x)),
            "sigma_y": (True, (omega_y, omega_y)),
            "sigma_z": (False, (omega_z, omega_z * (1.0 + rng.uniform(0.15, 0.3)))),
        }
        t = np.arange(rows) * self.DT
        columns = {}
        for name, (_, omegas) in self.planted.items():
            for k, omega in enumerate(omegas, start=1):
                amp = rng.uniform(0.2, 0.5)
                phase = rng.uniform(-np.pi, np.pi)
                offset = rng.uniform(-0.2, 0.2)
                decay = rng.uniform(2e-4, 6e-4)
                noise = 1e-3 * rng.standard_normal(rows)
                columns[f"{name}_{k}"] = (
                    amp * np.exp(-decay * t) * np.cos(omega * t + phase) + offset + noise
                )
        self.times = t
        self.columns = columns
        span = min(self.WINDOW_SPAN, t[-1] / 2)
        starts = np.linspace(0.0, t[-1] - span, n_windows)
        self.windows = [(float(s), float(s + span)) for s in starts]

    def prepare(self, workdir: Path):
        self.csv_path = workdir / "input" / "trajectory.csv"
        self.csv_path.parent.mkdir(parents=True, exist_ok=True)
        names = list(self.columns)
        data = np.column_stack([self.times] + [self.columns[n] for n in names])
        np.savetxt(self.csv_path, data, delimiter=",", fmt="%.17g",
                   header=",".join(["time"] + names), comments="")
        self.thresholds = cli.AnalysisThresholds()

    def setup_command(self) -> list[str]:
        return ["import qsync.cli as c\n"
                "c.resolve_catalog('pauli'); c.AnalysisThresholds()\n"]

    def run_pass(self, outdir: Path, tracer=None) -> list[OpResult]:
        ops = []
        for k, window in enumerate(self.windows):
            op = OpResult(f"window_{k}", outdir / f"window_{k}")
            _start_op(tracer, outdir, op.label)
            _guarded(op, cli.analyze_csv, self.csv_path, "pauli", window,
                     self.thresholds, op.outdir)
            ops.append(op)
        return ops

    def check(self, op: OpResult, stats: CheckStats) -> list[str]:
        report = json.loads((op.outdir / "report.json").read_text())
        problems = []
        for name, (synced, omegas) in self.planted.items():
            pair = report["pairs"].get(name)
            if pair is None:
                problems.append(f"report lacks pair {name}")
                continue
            if pair["synced"] != synced:
                problems.append(f"{name}: synced={pair['synced']}, planted {synced}")
            for k, omega in enumerate(omegas, start=1):
                err = abs(pair[f"fit_{k}"]["frequency"] - omega) / omega
                stats.max_freq_rel_err = max(stats.max_freq_rel_err, err)
                if not err <= FREQ_REL_TOL:
                    problems.append(f"{name}_{k}: frequency relative error {err:.3g} "
                                    f"exceeds {FREQ_REL_TOL:g}")
        return problems


WORKLOADS = {cls.name: cls for cls in (Fig2aTransient, Fig3Transient, SweepReduced, Reanalyze)}
