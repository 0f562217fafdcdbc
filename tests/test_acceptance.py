"""Acceptance suite: one test per release criterion, at stated tolerances.

Run with `pytest tests/test_acceptance.py -v` (the preset simulations take
a few minutes in total; they are shared session-wide).  Each criterion
prints one PASS line when it holds; a failed assertion is the FAIL line.
"""

import contextlib
import dataclasses
import json
import math

import numpy as np

from conftest import dopri5, small_vdp_model, unguarded
from qsync.cli import (
    analyze_csv,
    parse_config_text,
    read_trajectory_csv,
    run_sweep,
    scenario_from_preset,
    sweep_from_mapping,
)
from qsync.lindblad import (
    Dissipator,
    ModelSpec,
    _liouvillian,
    _reachable,
    evolve,
    propagate_dense,
)
from qsync.models import (
    PRESETS,
    CavityQubitParams,
    ReducedQubitParams,
    build_reduced_qubit,
    cavity_mode_matrix,
)
from qsync.opalg import (
    DensityMatrix,
    SpaceLayout,
    mutual_information,
    partial_trace,
    trace_distance,
    von_neumann_entropy,
)
from qsync.syncmeter import degree_of_quantumness

FIG2_QUBITS = [(np.sqrt(0.9), np.sqrt(0.1)), (np.sqrt(0.7), np.sqrt(0.3))]


def passed(n, text):
    print(f"criterion {n}: PASS - {text}", flush=True)


def test_criterion_1_fig2a_total_quantum_synchronization(fig2a_run):
    _, report = fig2a_run
    pairs = report["pairs"]
    for name in ("sigma_x", "sigma_y", "sigma_z"):
        assert pairs[name]["synced"], f"{name} pair failed to lock: {pairs[name]}"
    assert report["xi"] == 2, report
    assert report["chi"] == 3
    assert report["mutual_info_final"] < 1e-3
    passed(1, "all Pauli pairs locked, xi = 2, final mutual information "
              f"{report['mutual_info_final']:.2e} < 1e-3")


def test_criterion_2_fig2b_partial_quantum_synchronization(fig2b_run):
    _, report = fig2b_run
    pairs = report["pairs"]
    assert pairs["sigma_x"]["synced"]
    assert pairs["sigma_y"]["synced"]
    assert not pairs["sigma_z"]["fit_1"]["oscillating"]
    assert not pairs["sigma_z"]["fit_2"]["oscillating"]
    assert report["xi"] == 1, report
    assert report["mutual_info_final"] < 1e-3
    passed(2, "sigma_x/sigma_y locked, sigma_z monotone, xi = 1, final "
              f"mutual information {report['mutual_info_final']:.2e} < 1e-3")


def test_fig2b_anti_phase_pairs_read_plus_pi(fig2b_run):
    # sigma_x and sigma_y are exactly anti-phase by the model's symmetry;
    # rounding noise must not move either across the branch cut to -pi
    _, report = fig2b_run
    for name in ("sigma_x", "sigma_y"):
        assert report["pairs"][name]["phase_diff"] == math.pi, report["pairs"][name]


def test_criterion_3_fig2c_classical_synchronization(fig2c_run):
    _, report = fig2c_run
    pairs = report["pairs"]
    assert not pairs["sigma_x"]["synced"], pairs["sigma_x"]
    assert not pairs["sigma_y"]["synced"], pairs["sigma_y"]
    assert report["xi"] == 0, report
    assert pairs["sigma_z"]["synced"], (
        "sigma_z pair did not certify as locked: the inter-qubit exchange "
        f"transient decays within ~2.5 periods; verdict = {pairs['sigma_z']}"
    )
    assert pairs["sigma_z"]["phase_class"] == "anti_phase", pairs["sigma_z"]
    passed(3, "sigma_z locked anti-phase, transverse pairs unlocked, xi = 0")


def test_criterion_4a_reduced_model_trace_distance():
    model_full, rho0_full = PRESETS["fig2b"].build()
    p = PRESETS["fig2b"].params
    gamma_eff = p["g0"] ** 2 / p["kappa"]
    model_red = build_reduced_qubit(
        ReducedQubitParams(p["deltaq1"], p["deltaq2"], p["Omega"], gamma_eff)
    )
    rho0_red = DensityMatrix.product_state(model_red.layout, FIG2_QUBITS)
    t_end = 10.0 / gamma_eff
    traj_full = evolve(model_full, rho0_full, t_end, 0.5, keep_states=True)
    traj_red = evolve(model_red, rho0_red, t_end, 0.5, keep_states=True)
    dists = np.array([
        trace_distance(partial_trace(sf, (0, 1)), sr)
        for sf, sr in zip(traj_full.states, traj_red.states)
    ])
    worst = int(np.argmax(dists))
    assert dists.max() < 0.05, (
        f"max trace distance {dists.max():.4f} at t={traj_full.times[worst]:.1f} "
        f"(bound 0.05); end-of-window value {dists[-1]:.4f}"
    )
    passed("4a", f"full-vs-reduced trace distance below 0.05 (max {dists.max():.4f})")


def test_criterion_4b_normal_mode_frequencies():
    p = CavityQubitParams(**PRESETS["fig2b"].params)
    eigs = np.sort(np.linalg.eigvalsh(cavity_mode_matrix(p)))
    expected = np.sort([p.delta1 - p.J, p.delta1 + p.J])
    assert np.max(np.abs(eigs - expected)) <= 1e-12
    passed("4b", "coupled-cavity quadratic form eigenvalues equal Delta +/- J")


def test_criterion_5_integrator_matches_dense_oracle():
    checks = []

    model_red = build_reduced_qubit(ReducedQubitParams(0.05, 0.02, 1e-3, 0.25))
    rho0_red = DensityMatrix.product_state(model_red.layout, FIG2_QUBITS)
    checks.append((model_red, rho0_red, 20.0))

    model_vdp = small_vdp_model()
    amps1 = (np.sqrt(0.9), np.sqrt(0.1), 0.0, 0.0)
    amps2 = (np.sqrt(0.95), np.sqrt(0.05), 0.0, 0.0)
    rho0_vdp = DensityMatrix.product_state(model_vdp.layout, [amps1, amps2])
    # the pair coupling keeps a weak U(1) symmetry, so evolve steps only the
    # reachable part of vec(rho); the oracle then checks that pruned path
    reach = _reachable(_liouvillian(model_vdp), rho0_vdp.matrix)
    assert reach.sum() < model_vdp.dim ** 2
    checks.append((model_vdp, rho0_vdp, 5.0))

    # both blocks are small enough for the exact propagator; under the
    # dopri5 seam the adaptive stepper takes them
    worst = 0.0
    for path, propagator in ((contextlib.nullcontext, "expm"), (dopri5, "dopri5")):
        for model, rho0, t_end in checks:
            assert model.dim <= 16
            n_checkpoints = 10
            dt = t_end / n_checkpoints
            with path():
                traj = evolve(model, rho0, t_end, dt, keep_states=True)
            assert traj.stats["propagator"] == propagator
            oracle = propagate_dense(model, rho0, traj.times[1:])
            for state, ref in zip(traj.states[1:], oracle):
                delta = float(np.max(np.abs(state.matrix - ref.matrix)))
                worst = max(worst, delta)
    assert worst < 1e-6, f"max |rho_evolve - rho_oracle| = {worst:.3g}"
    passed(5, f"exact propagator and adaptive integration match matrix-exponential "
              f"oracle (max deviation {worst:.2e} < 1e-6)")


def test_criterion_6_fig3_moment_synchronization(fig3_run):
    outdir, report = fig3_run
    pairs = report["pairs"]
    for name in ("x", "p", "n", "x2", "p2"):
        assert pairs[name]["synced"], f"{name} pair failed to lock: {pairs[name]}"
    assert not pairs["xpsym"]["synced"], pairs["xpsym"]

    traj = read_trajectory_csv(outdir / "trajectory.csv")
    s_c = 1.0 / (traj.column("xminus2") + traj.column("pminus2"))
    assert np.all(s_c <= 1.0 + 1e-9), f"S_c max {s_c.max():.12f}"

    # truncation robustness: rebuild at N = 16 and compare every reported
    # moment on the shared grid
    fig3 = PRESETS["fig3"]
    model16, rho0_16 = dataclasses.replace(fig3, params={**fig3.params, "N": 16}).build()
    traj16 = evolve(model16, rho0_16, 20.0, 0.02)
    worst = 0.0
    for j, name in enumerate(traj16.names):
        delta = float(np.max(np.abs(traj.column(name) - traj16.values[:, j])))
        worst = max(worst, delta)
    assert worst < 1e-4, f"truncation N=12 -> N=16 moved a moment by {worst:.3g}"
    passed(6, "x/p/n/x2/p2 locked, xp+px excluded, S_c bounded by 1, "
              f"truncation shift {worst:.2e} < 1e-4")


def _random_state(rng, layout):
    d = layout.dim
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = m @ m.conj().T
    return DensityMatrix(layout, rho / np.trace(rho).real)


def _random_hermitian_basis(rng, d, count):
    """Linearly independent random Hermitian matrices (Gram-checked)."""
    out = []
    guard = 0
    while len(out) < count and guard < 50 * count:
        guard += 1
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h = 0.5 * (m + m.conj().T)
        from qsync.syncmeter import independent_subset

        if len(independent_subset(out + [h])) == len(out) + 1:
            out.append(h)
    return out


def test_criterion_7_randomized_invariants():
    n_seeds = 120
    for seed in range(n_seeds):
        rng = np.random.default_rng(seed)

        # random small open system: trace drift and positivity under evolution
        nf = int(rng.integers(1, 3))
        dims = tuple(int(rng.integers(2, 4)) for _ in range(nf))
        layout = SpaceLayout(dims, tuple(f"f{i}" for i in range(nf)))
        d = layout.dim
        hm = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        from qsync.opalg import Operator

        h = Operator(layout, 0.5 * (hm + hm.conj().T))
        dis = []
        for _ in range(int(rng.integers(1, 3))):
            lm = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            dis.append(Dissipator(float(rng.uniform(0.05, 0.6)), Operator(layout, lm)))
        model = ModelSpec(layout, h, tuple(dis), ())
        rho0 = _random_state(rng, layout)
        with unguarded():
            traj = evolve(model, rho0, 1.0, 0.25)
        assert np.max(traj.trace_errors) < 1e-8, seed
        assert np.min(traj.min_eigenvalues) >= -1e-8, seed

        # entropy bounds on random states
        rho = _random_state(rng, layout)
        s = von_neumann_entropy(rho)
        assert -1e-10 <= s <= np.log(d) + 1e-10, seed

        # mutual information non-negative on random bipartite states
        lay2 = SpaceLayout((2, int(rng.integers(2, 4))), ("a", "b"))
        rho2 = _random_state(rng, lay2)
        assert mutual_information(rho2, ((0,), (1,))) >= -1e-9, seed

        # quantumness-index bounds and invariances; generic independent sets
        # larger than d^2 - d + 1 can exceed the d^2 - d bound (they need
        # not contain a commuting family), so sizes stay in the regime the
        # bound guarantees -- which covers every catalog this package ships
        dq = int(rng.integers(2, 4))
        count = int(rng.integers(1, dq * dq - dq + 2))
        ops = _random_hermitian_basis(rng, dq, count)
        chi, c, xi = degree_of_quantumness(ops)
        assert chi == len(ops)
        assert 0 <= xi <= dq * dq - dq, seed
        if chi >= 1:
            assert c >= 1 and xi <= chi - 1, seed
        scales = [float(rng.uniform(0.2, 4.0)) for _ in ops]
        scaled = [s_ * m for s_, m in zip(scales, ops)]
        assert degree_of_quantumness(scaled) == (chi, c, xi), seed
        perm = list(rng.permutation(len(ops)))
        assert degree_of_quantumness([ops[i] for i in perm]) == (chi, c, xi), seed
    passed(7, f"trace drift, positivity, entropy, mutual-information and "
              f"quantumness-index invariants hold over {n_seeds} seeds")


def test_criterion_8_analysis_determinism(fig2b_run, tmp_path):
    outdir, report = fig2b_run
    cfg = scenario_from_preset("fig2b")
    re_report = analyze_csv(
        outdir / "trajectory.csv",
        "pauli",
        cfg.window,
        cfg.thresholds,
        tmp_path / "reanalysis",
    )
    assert re_report == report, "re-analysis differs from in-run report"
    on_disk = json.loads((tmp_path / "reanalysis" / "report.json").read_text())
    original = json.loads((outdir / "report.json").read_text())
    assert on_disk == original

    # synthetic-signal recovery at stated tolerances
    from qsync.syncmeter import fit_oscillation

    t = np.arange(0.0, 10 * np.pi + 1e-12, 0.01)
    fit = fit_oscillation(t, 0.3 * np.cos(2 * t + 1.0) + 0.1, (t[0], t[-1]))
    assert abs(fit.frequency - 2.0) < 1e-6
    assert abs(fit.phase - 1.0) < 1e-6
    assert abs(fit.amplitude - 0.3) < 1e-6
    rng = np.random.default_rng(99)
    noisy = 0.5 * np.cos(0.8 * t - 0.4) + 0.005 * rng.uniform(-1, 1, t.size)
    fit_n = fit_oscillation(t, noisy, (t[0], t[-1]))
    assert abs(fit_n.frequency - 0.8) / 0.8 < 1e-3
    passed(8, "run/analyze reports field-identical; synthetic fits recover "
              "planted parameters")


def test_sweep_reproduces_drive_split(tmp_path):
    """Sweeping the drive amplitude across the fig2a/fig2b pair splits the
    quantumness index between 2 (driven) and 1 (undriven)."""
    base = scenario_from_preset("fig2a")
    sweep_lines = [
        "model = cavity_qubit",
        *(f"param.{k} = {v}" for k, v in base.params.items()),
        "initial.preset = fig2a",
        "run.t_end = 1500",
        "run.sample_dt = 2",
        "analysis.window = 300:1100",
        "sweep.axis.param.Omega = 0.0 0.0005",
    ]
    spec = sweep_from_mapping(parse_config_text("\n".join(sweep_lines)))
    successes = run_sweep(spec, tmp_path / "sweep")
    assert successes == 2
    rows = (tmp_path / "sweep" / "summary.csv").read_text().splitlines()
    header = rows[0].split(",")
    xi_col = header.index("xi")
    omega_col = header.index("Omega")
    table = {float(r.split(",")[omega_col]): int(r.split(",")[xi_col]) for r in rows[1:]}
    assert table[0.0] == 1
    assert table[5e-4] == 2
