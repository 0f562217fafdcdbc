import numpy as np
import pytest

from qsync.lindblad import evolve
from qsync.models import (
    PRESET_NAMES,
    PRESETS,
    CavityQubitParams,
    ReducedQubitParams,
    VdpParams,
    build_cavity_qubit,
    build_reduced_qubit,
    build_vdp,
    cavity_mode_matrix,
    moment_catalog,
)
from qsync.opalg import DensityMatrix, embed, expectation, pauli


def fig2a_params(**overrides):
    base = dict(delta1=10.0, delta2=10.0, deltaq1=0.0, deltaq2=0.0,
                g0=0.5, J=-10.0, Omega=5e-4)
    base.update(overrides)
    return CavityQubitParams(**base)


class TestCavityQubit:
    def test_layout_and_observables(self):
        model = build_cavity_qubit(fig2a_params())
        assert model.layout.factors == (2, 2, 4, 4)
        assert model.layout.labels == ("qubit1", "qubit2", "cav1", "cav2")
        names = model.observable_names()
        assert names == [
            "sigma_x_1", "sigma_x_2", "sigma_y_1", "sigma_y_2",
            "sigma_z_1", "sigma_z_2",
        ]
        assert len(model.dissipators) == 2

    def test_hamiltonian_hermitian(self):
        model = build_cavity_qubit(fig2a_params())
        h = model.hamiltonian.matrix
        assert np.max(np.abs(h - h.conj().T)) < 1e-12

    def test_decoupled_hamiltonian_is_diagonal(self):
        p = fig2a_params(g0=0.0, J=0.0, Omega=0.0, deltaq1=0.3, deltaq2=0.7)
        h = build_cavity_qubit(p).hamiltonian.matrix
        off = h - np.diag(np.diag(h))
        assert np.max(np.abs(off)) < 1e-14
        # eigenvalues are sums Delta_j n_j + (deltaq_j/2)(+-1)
        eigs = np.sort(np.diag(h).real)
        expected = sorted(
            p.delta1 * n1 + p.delta2 * n2 + 0.5 * p.deltaq1 * s1 + 0.5 * p.deltaq2 * s2
            for n1 in range(4) for n2 in range(4) for s1 in (-1, 1) for s2 in (-1, 1)
        )
        assert np.allclose(eigs, expected)

    def test_mode_matrix_eigenvalues(self):
        p = fig2a_params()
        eigs = np.sort(np.linalg.eigvalsh(cavity_mode_matrix(p)))
        expected = np.sort([p.delta1 + p.J, p.delta1 - p.J])
        assert np.max(np.abs(eigs - expected)) < 1e-12

    def test_truncation_validation(self):
        with pytest.raises(ValueError):
            fig2a_params(Nc=2)


class TestReducedQubit:
    def test_dimension_and_single_dissipator(self):
        model = build_reduced_qubit(ReducedQubitParams(0.0, 0.0, 5e-4, 0.25))
        assert model.dim == 4
        assert len(model.dissipators) == 1

    def test_gamma_eff_quarter_kappa(self):
        # g0 = kappa/2 gives gamma_eff = g0^2/kappa = kappa/4
        g0, kappa = 0.5, 1.0
        assert g0 ** 2 / kappa == pytest.approx(0.25)
        model = build_reduced_qubit(ReducedQubitParams(0.0, 0.0, 0.0, g0 ** 2 / kappa))
        assert model.dissipators[0].rate == pytest.approx(0.25)

    def test_singlet_is_dark(self):
        # the antisymmetric Bell state is annihilated by the collective
        # lowering operator, so its population is conserved without drive
        model = build_reduced_qubit(ReducedQubitParams(0.0, 0.0, 0.0, 0.25))
        singlet = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2)
        jump = model.dissipators[0].jump.matrix
        assert np.max(np.abs(jump @ singlet)) < 1e-14

        rho0 = DensityMatrix.product_state(
            model.layout, [(np.sqrt(0.9), np.sqrt(0.1)), (np.sqrt(0.7), np.sqrt(0.3))]
        )
        proj = np.outer(singlet, singlet.conj())
        p0 = float(np.einsum("ij,ji->", rho0.matrix, proj).real)
        traj = evolve(model, rho0, 30.0, 1.0, keep_states=True)
        pops = [float(np.einsum("ij,ji->", s.matrix, proj).real) for s in traj.states]
        assert np.max(np.abs(np.asarray(pops) - p0)) < 1e-8

    def test_invalid_gamma_rejected(self):
        with pytest.raises(ValueError):
            ReducedQubitParams(0.0, 0.0, 0.0, 0.0)


class TestVdp:
    def test_layout_dissipators_observables(self):
        model = build_vdp(VdpParams(1.0, 1.0, 0.5, 1e-3, 1e-3, 2.0, 2.0, N=8))
        assert model.layout.factors == (8, 8)
        assert len(model.dissipators) == 4
        names = model.observable_names()
        for base in ("x", "p", "n", "x2", "p2", "xpsym"):
            assert f"{base}_1" in names and f"{base}_2" in names
        assert "xminus2" in names and "pminus2" in names

    def test_all_observables_hermitian_unique(self):
        model = build_vdp(VdpParams(1.0, 1.0, 0.5, 1e-3, 1e-3, 2.0, 2.0, N=8))
        names = model.observable_names()
        assert len(set(names)) == len(names)
        for _, op in model.observables:
            assert op.is_hermitian

    def test_vacuum_fixed_without_gain_and_coupling(self):
        model = build_vdp(VdpParams(1.0, 1.0, 0.0, 0.0, 0.0, 2.0, 2.0, N=6))
        vac = tuple([1.0] + [0.0] * 5)
        rho0 = DensityMatrix.product_state(model.layout, [vac, vac])
        traj = evolve(model, rho0, 3.0, 0.5)
        assert np.max(np.abs(traj.values)) <= 0.5 + 1e-9  # x2, p2 stay at vacuum 1/2
        for name in ("n_1", "n_2", "x_1", "p_2", "xpsym_1"):
            assert np.max(np.abs(traj.column(name))) < 1e-10

    def test_gain_only_photon_growth_rate(self):
        # d<n>/dt = 2 Omega (<n> + 1), so 2 Omega from vacuum at t = 0
        omega_gain = 0.02
        model = build_vdp(VdpParams(0.0, 0.0, 0.0, omega_gain, 0.0, 0.0, 0.0, N=8))
        vac = tuple([1.0] + [0.0] * 7)
        rho0 = DensityMatrix.product_state(model.layout, [vac, vac])
        dt = 1e-3
        traj = evolve(model, rho0, 10 * dt, dt)
        n1 = traj.column("n_1")
        slope = (n1[1] - n1[0]) / dt
        assert slope == pytest.approx(2 * omega_gain, rel=1e-3)

    def test_moment_catalog_linearly_independent(self):
        ops = [op.matrix for _, op in moment_catalog(12)]
        gram = np.array([[np.vdot(a, b) for b in ops] for a in ops])
        assert np.linalg.matrix_rank(gram, tol=1e-10) == len(ops)

    def test_truncation_minimum(self):
        with pytest.raises(ValueError):
            VdpParams(1.0, 1.0, 0.5, 1e-3, 1e-3, 2.0, 2.0, N=4)


class TestPresets:
    def test_known_names(self):
        from qsync.cli import ConfigError, scenario_from_preset

        assert PRESET_NAMES == ("fig2a", "fig2b", "fig2c", "fig3")
        with pytest.raises(ConfigError, match="fig9"):
            scenario_from_preset("fig9")

    def test_fig2a_parameters(self):
        model, _ = PRESETS["fig2a"].build()
        h = model.hamiltonian.matrix
        assert model.dim == 64
        # drive amplitude appears as the qubit-1 sigma_x prefactor
        sx1 = embed(pauli("x"), model.layout, 0)
        drive = np.vdot(sx1.matrix, model.hamiltonian.matrix) / np.vdot(sx1.matrix, sx1.matrix)
        assert drive.real == pytest.approx(5e-4, rel=1e-12)

    def test_fig2b_drive_off(self):
        model, _ = PRESETS["fig2b"].build()
        sx1 = embed(pauli("x"), model.layout, 0)
        drive = np.vdot(sx1.matrix, model.hamiltonian.matrix) / np.vdot(sx1.matrix, sx1.matrix)
        assert abs(drive) < 1e-14

    def test_fig2c_detunings(self):
        p = PRESETS["fig2c"].params
        assert p.deltaq1 == pytest.approx(0.08)
        assert p.deltaq2 == pytest.approx(0.02)
        assert p.delta2 == pytest.approx(-2.25 * p.J)
        assert p.Omega == pytest.approx(1e-3)

    def test_fig2_initial_state(self):
        model, rho0 = PRESETS["fig2a"].build()
        sz1 = embed(pauli("z"), model.layout, 0)
        sz2 = embed(pauli("z"), model.layout, 1)
        # qubit populations 0.1 / 0.3 excited; cavities in vacuum
        assert expectation(rho0, sz1).real == pytest.approx(-0.8)
        assert expectation(rho0, sz2).real == pytest.approx(-0.4)

    def test_fig3_initial_photon_numbers(self):
        model, rho0 = PRESETS["fig3"].build()
        from qsync.opalg import destroy

        n1 = embed(destroy(12).dag() @ destroy(12), model.layout, 0)
        n2 = embed(destroy(12).dag() @ destroy(12), model.layout, 1)
        assert expectation(rho0, n1).real == pytest.approx(0.75)
        assert expectation(rho0, n2).real == pytest.approx(0.95)
        assert PRESETS["fig3"].t_end == pytest.approx(20.0)
        assert PRESETS["fig3"].sample_dt == pytest.approx(0.02)

    def test_fig3_rates(self):
        p = PRESETS["fig3"].params
        assert p.kappa1 == p.kappa2 == pytest.approx(2 * p.omega1)
        assert p.omega2 == pytest.approx(p.omega1)
        assert p.J == pytest.approx(0.5 * p.omega1)
        assert p.Omega1 == p.Omega2 == pytest.approx(1e-3 * p.omega1)

    def test_analysis_defaults_exist(self):
        for preset in PRESETS.values():
            assert preset.catalog in ("pauli", "moments:12")
            assert preset.window is not None

    def test_every_built_hamiltonian_hermitian(self):
        for preset in PRESETS.values():
            model, _ = preset.build()
            h = model.hamiltonian.matrix
            assert np.max(np.abs(h - h.conj().T)) < 1e-12


class TestAdiabaticLimit:
    def test_reduced_model_is_the_deep_adiabatic_limit(self):
        # with a larger mode splitting and weaker coupling than the standard
        # presets, the collective-decay model tracks the full model's
        # two-qubit state within the coarse bound over ten decay times
        # (measured: 0.085 at J=-10/g0=0.5, 0.041 at J=-30/g0=0.3, 0.017 at
        # J=-50/g0=0.2)
        from qsync.opalg import partial_trace, trace_distance

        J, g0 = -30.0, 0.3
        gamma = g0 ** 2
        p = CavityQubitParams(delta1=-J, delta2=-J, deltaq1=0.0, deltaq2=0.0,
                              g0=g0, J=J, Omega=0.0)
        full = build_cavity_qubit(p)
        red = build_reduced_qubit(ReducedQubitParams(0.0, 0.0, 0.0, gamma))
        qubits = [(np.sqrt(0.9), np.sqrt(0.1)), (np.sqrt(0.7), np.sqrt(0.3))]
        vac = (1, 0, 0, 0)
        rho0_full = DensityMatrix.product_state(full.layout, [*qubits, vac, vac])
        rho0_red = DensityMatrix.product_state(red.layout, qubits)
        t_end = 10.0 / gamma
        tf = evolve(full, rho0_full, t_end, t_end / 40, keep_states=True)
        tr = evolve(red, rho0_red, t_end, t_end / 40, keep_states=True)
        dists = [trace_distance(partial_trace(a, (0, 1)), b)
                 for a, b in zip(tf.states, tr.states)]
        assert max(dists) < 0.05
