import dataclasses

import numpy as np
import pytest

from qsync.lindblad import (
    Dissipator,
    ModelSpec,
    Tolerances,
    TruncationError,
    _Dopri5,
    _hermitian_coordinates,
    _liouvillian,
    _reachable,
    _real_generator,
    dense_liouvillian,
    evolve,
    propagate_dense,
    rhs,
)
from qsync.models import (
    PRESETS,
    CavityQubitParams,
    ReducedQubitParams,
    VdpParams,
    build_cavity_qubit,
    build_reduced_qubit,
    build_vdp,
)
from qsync.opalg import (
    DensityMatrix,
    Operator,
    SpaceLayout,
    destroy,
    mutual_information,
    pauli,
)


def single_qubit_decay(kappa=1.0):
    lay = SpaceLayout((2,), ("q",))
    h = Operator(lay, np.zeros((2, 2)))
    return ModelSpec(
        layout=lay,
        hamiltonian=h,
        dissipators=(Dissipator(kappa, pauli("minus", "q")),),
        observables=(("sigma_z", pauli("z", "q")),),
    )


def rabi_qubit(omega):
    lay = SpaceLayout((2,), ("q",))
    return ModelSpec(
        layout=lay,
        hamiltonian=Operator(lay, omega * pauli("x", "q").matrix),
        dissipators=(),
        observables=(("sigma_z", pauli("z", "q")),),
    )


def excited(lay):
    return DensityMatrix.product_state(lay, [(0, 1)])


def random_state(rng, lay):
    d = lay.dim
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = m @ m.conj().T
    return DensityMatrix(lay, rho / np.trace(rho).real)


def random_model_and_state(rng, dims=(2, 3), n_dissipators=2):
    lay = SpaceLayout(dims, tuple(f"f{i}" for i in range(len(dims))))
    d = lay.dim

    def rand_mat():
        return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))

    hm = rand_mat()
    h = Operator(lay, 0.5 * (hm + hm.conj().T))
    dis = tuple(
        Dissipator(float(rng.uniform(0.1, 1.0)), Operator(lay, rand_mat()))
        for _ in range(n_dissipators)
    )
    model = ModelSpec(lay, h, dis, observables=())
    return model, random_state(rng, lay)


class TestRhs:
    def test_excited_state_decay_slope(self):
        # closed form: rho_ee(t) = exp(-2 kappa t), so d(rho_ee)/dt = -2 kappa
        kappa = 0.7
        model = single_qubit_decay(kappa)
        deriv = rhs(model, excited(model.layout))
        assert deriv[1, 1].real == pytest.approx(-2 * kappa, rel=1e-12)
        assert deriv[0, 0].real == pytest.approx(2 * kappa, rel=1e-12)

    def test_pure_unitary_when_no_dissipators(self):
        model = rabi_qubit(0.8)
        rho = DensityMatrix.product_state(model.layout, [(1, 0)])
        deriv = rhs(model, rho)
        h = model.hamiltonian.matrix
        expected = -1j * (h @ rho.matrix - rho.matrix @ h)
        assert np.allclose(deriv, expected, atol=1e-14)

    def test_traceless_and_hermitian_on_random_inputs(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            model, rho = random_model_and_state(rng)
            deriv = rhs(model, rho)
            assert abs(np.trace(deriv)) < 1e-12
            assert np.max(np.abs(deriv - deriv.conj().T)) < 1e-12

    def test_layout_mismatch_rejected(self):
        model = single_qubit_decay()
        bad = DensityMatrix(SpaceLayout((3,), ("m",)), np.eye(3) / 3)
        with pytest.raises(ValueError):
            rhs(model, bad)


class TestEvolve:
    def test_rabi_oscillation_analytic(self):
        # from |g> under Omega*sigma_x: <sigma_z>(t) = -cos(2 Omega t)
        omega = 0.9
        model = rabi_qubit(omega)
        rho0 = DensityMatrix.product_state(model.layout, [(1, 0)])
        traj = evolve(model, rho0, 10.0, 0.05)
        expected = -np.cos(2 * omega * traj.times)
        assert np.max(np.abs(traj.column("sigma_z") - expected)) < 1e-6

    def test_excited_decay_matches_closed_form(self):
        kappa = 0.4
        model = single_qubit_decay(kappa)
        traj = evolve(model, excited(model.layout), 5.0, 0.25)
        # rho_ee = (1 + <sigma_z>)/2 = exp(-2 kappa t)
        pop = (1 + traj.column("sigma_z")) / 2
        assert np.max(np.abs(pop - np.exp(-2 * kappa * traj.times))) < 1e-7

    def test_vacuum_is_fixed_point(self):
        n = 4
        lay = SpaceLayout((n,), ("m",))
        a = destroy(n, "m")
        model = ModelSpec(
            lay,
            Operator(lay, np.zeros((n, n))),
            (Dissipator(0.8, a),),
            observables=(("n", a.dag() @ a),),
        )
        rho0 = DensityMatrix.product_state(lay, [(1,) + (0,) * (n - 1)])
        traj = evolve(model, rho0, 3.0, 0.5)
        assert np.max(np.abs(traj.column("n"))) < 1e-12
        assert np.max(np.abs(traj.final_state.matrix - rho0.matrix)) < 1e-12

    def test_trace_and_positivity_diagnostics(self):
        model = build_reduced_qubit(ReducedQubitParams(0.1, 0.05, 2e-3, 0.25))
        rho0 = DensityMatrix.product_state(
            model.layout, [(np.sqrt(0.9), np.sqrt(0.1)), (np.sqrt(0.7), np.sqrt(0.3))]
        )
        traj = evolve(model, rho0, 50.0, 0.5)
        assert np.max(traj.trace_errors) < 1e-8
        assert np.min(traj.min_eigenvalues) > -1e-8

    def test_self_convergence_under_tolerance_halving(self):
        model = build_reduced_qubit(ReducedQubitParams(0.05, 0.0, 1e-3, 0.25))
        rho0 = DensityMatrix.product_state(
            model.layout, [(np.sqrt(0.9), np.sqrt(0.1)), (np.sqrt(0.7), np.sqrt(0.3))]
        )
        base = evolve(model, rho0, 40.0, 1.0, Tolerances(rel=1e-8, abs=1e-10))
        fine = evolve(model, rho0, 40.0, 1.0, Tolerances(rel=5e-9, abs=5e-11))
        assert np.max(np.abs(base.values - fine.values)) < 1e-6

    def test_truncation_guard_fires(self):
        # strong resonant drive on a tiny Fock space overflows the top level
        n = 3
        lay = SpaceLayout((n,), ("m",))
        a = destroy(n, "m")
        drive = 1j * (a.dag() - a)
        model = ModelSpec(
            lay,
            Operator(lay, 2.0 * drive.matrix),
            (Dissipator(0.05, a),),
            observables=(),
        )
        rho0 = DensityMatrix.product_state(lay, [(1, 0, 0)])
        with pytest.raises(TruncationError):
            evolve(model, rho0, 5.0, 0.25)

    def test_guard_ignores_qubit_factors(self):
        # dimension-2 factors are not Fock-truncated; full excitation is fine
        model = rabi_qubit(1.0)
        rho0 = DensityMatrix.product_state(model.layout, [(1, 0)])
        traj = evolve(model, rho0, 3.0, 0.1)
        assert traj.times[-1] == pytest.approx(3.0)

    def test_t_end_must_be_multiple_of_sample_dt(self):
        model = rabi_qubit(1.0)
        rho0 = DensityMatrix.product_state(model.layout, [(1, 0)])
        with pytest.raises(ValueError):
            evolve(model, rho0, 1.0, 0.3)

    def test_mutual_info_recording(self):
        model = build_reduced_qubit(ReducedQubitParams(0.0, 0.0, 0.0, 0.25))
        rho0 = DensityMatrix.product_state(
            model.layout, [(np.sqrt(0.9), np.sqrt(0.1)), (np.sqrt(0.7), np.sqrt(0.3))]
        )
        traj = evolve(model, rho0, 20.0, 1.0, mutual_info_pair=(0, 1), keep_states=True)
        assert traj.mutual_info is not None
        assert traj.mutual_info[0] == pytest.approx(0.0, abs=1e-9)  # product state
        assert np.all(traj.mutual_info > -1e-9)
        # the pair covers both factors, so S(rho_AB) comes from the spectrum
        # already taken for min_eigenvalue; it must equal the direct value
        direct = [mutual_information(s, ((0,), (1,))) for s in traj.states]
        assert np.array_equal(traj.mutual_info, direct)

    def test_keep_states(self):
        model = rabi_qubit(0.5)
        rho0 = DensityMatrix.product_state(model.layout, [(1, 0)])
        traj = evolve(model, rho0, 2.0, 0.5, keep_states=True)
        assert len(traj.states) == 5
        assert np.allclose(traj.states[-1].matrix, traj.final_state.matrix)


class TestDenseOracle:
    def test_liouvillian_matches_rhs_on_vectorized_inputs(self):
        # random dense jumps, plus the ladder jumps (a, a^dag, a^2) of the
        # package's models, which also pin rhs's row-stacked vec convention
        # against the oracle's column-stacked one
        rng = np.random.default_rng(0)
        structured = [
            build_reduced_qubit(ReducedQubitParams(0.05, 0.02, 1e-3, 0.25)),
            build_cavity_qubit(CavityQubitParams(0.3, -0.2, 0.1, 0.15, 0.4, -0.5, 0.2, Nc=3)),
            build_vdp(VdpParams(1.0, 0.9, 0.1, 0.2, 0.15, 0.3, 0.25, N=6)),
        ]
        cases = [random_model_and_state(rng) for _ in range(5)]
        cases += [(model, random_state(rng, model.layout)) for model in structured]
        for model, rho in cases:
            liou = dense_liouvillian(model, cap=36)
            direct = rhs(model, rho)
            via_matrix = (liou @ rho.matrix.ravel(order="F")).reshape(
                model.dim, model.dim, order="F"
            )
            assert np.max(np.abs(direct - via_matrix)) < 1e-12

    def test_decay_liouvillian_has_steady_state(self):
        model = single_qubit_decay(0.5)
        liou = dense_liouvillian(model)
        eigs = np.linalg.eigvals(liou)
        assert np.min(np.abs(eigs)) < 1e-12

    def test_zero_time_propagation_is_identity(self):
        model = single_qubit_decay(0.5)
        rho0 = excited(model.layout)
        out = propagate_dense(model, rho0, [0.0])
        assert np.max(np.abs(out[0].matrix - rho0.matrix)) < 1e-15

    def test_cap_enforced(self):
        model = build_vdp(VdpParams(1, 1, 0.1, 0.01, 0.01, 0.3, 0.3, N=6))
        with pytest.raises(ValueError):
            dense_liouvillian(model)

    def test_evolve_agrees_with_oracle_on_reduced_model(self):
        model = build_reduced_qubit(ReducedQubitParams(0.05, 0.02, 1e-3, 0.25))
        rho0 = DensityMatrix.product_state(
            model.layout, [(np.sqrt(0.9), np.sqrt(0.1)), (np.sqrt(0.7), np.sqrt(0.3))]
        )
        t_final = 20.0
        oracle = propagate_dense(model, rho0, [t_final])[0]
        traj = evolve(model, rho0, t_final, t_final / 4)
        assert np.max(np.abs(traj.final_state.matrix - oracle.matrix)) < 1e-6


def reachable_count(model, rho0):
    return int(np.count_nonzero(_reachable(_liouvillian(model), rho0.matrix)))


def small_vdp_case():
    # fig3's van der Pol pair at N = 6 (D = 36), from the fig3 amplitudes
    model = build_vdp(dataclasses.replace(PRESETS["fig3"].params, N=6))
    mode1 = (0.5, np.sqrt(0.75), 0.0, 0.0, 0.0, 0.0)
    mode2 = (np.sqrt(0.05), np.sqrt(0.95), 0.0, 0.0, 0.0, 0.0)
    return model, DensityMatrix.product_state(model.layout, [mode1, mode2])


class TestReachablePruning:
    @pytest.mark.parametrize(
        "name, count", [("fig2a", 4096), ("fig2b", 169), ("fig2c", 4096), ("fig3", 5666)]
    )
    def test_preset_reachable_counts(self, name, count):
        model, rho0 = PRESETS[name].build()
        assert reachable_count(model, rho0) == count

    def test_reachable_set_is_closed_under_dagger(self):
        model, rho0 = small_vdp_case()
        d = model.dim
        keep = _reachable(_liouvillian(model), rho0.matrix).reshape(d, d)
        assert np.array_equal(keep, keep.T)
        assert 0 < keep.sum() < d * d

    def test_pruned_evolve_matches_unpruned_stepper(self):
        model, rho0 = small_vdp_case()
        d = model.dim
        assert reachable_count(model, rho0) < d * d
        tol = Tolerances()
        traj = evolve(model, rho0, 2.0, 0.25, tol, keep_states=True)
        assert traj.stats["renormalizations"] == 0
        # the real generator on all D^2 coordinates, stepped without pruning
        e, sel, imag = _hermitian_coordinates(np.arange(d * d), d)
        stepper = _Dopri5(_real_generator(_liouvillian(model)[sel], e, imag),
                          tol.rel, tol.abs, np.arange(d * d), d * d)
        vec = rho0.matrix.ravel()
        x = np.where(imag, vec[sel].imag, vec[sel].real)
        worst = 0.0
        for i in range(1, len(traj.times)):
            x = stepper.advance(x, traj.times[i - 1], traj.times[i])
            rho = (e @ x).reshape(d, d)
            worst = max(worst, float(np.max(np.abs(traj.states[i].matrix - rho))))
        assert worst < 1e-12, worst


class TestRealGenerator:
    @staticmethod
    def cases():
        rng = np.random.default_rng(7)
        out = [random_model_and_state(rng)[0] for _ in range(5)]
        out.append(build_cavity_qubit(
            CavityQubitParams(0.3, -0.2, 0.1, 0.15, 0.4, -0.5, 0.2, Nc=3)))
        return [(model, model.layout.dim ** 2) for model in out] + [
            (small_vdp_case()[0], 676)
        ]

    def test_matches_complex_generator_on_hermitian_states(self):
        # L_r x = R(L (E x)) for random Hermitian states on the stepped set
        rng = np.random.default_rng(11)
        for model, count in self.cases():
            d = model.dim
            liou = _liouvillian(model)
            rho0 = small_vdp_case()[1] if count < d * d else random_state(rng, model.layout)
            idx = np.flatnonzero(_reachable(liou, rho0.matrix))
            assert len(idx) == count
            e, sel, imag = _hermitian_coordinates(idx, d)
            real = _real_generator(liou[sel], e, imag)
            assert real.dtype == np.float64 and real.shape == (count, count)
            for _ in range(3):
                x = rng.normal(size=count)
                rho = (e @ x).reshape(d, d)
                assert np.array_equal(rho, rho.conj().T)
                lv = liou @ (e @ x)
                expected = np.where(imag, lv[sel].imag, lv[sel].real)
                assert np.max(np.abs(real @ x - expected)) < 1e-12

    def test_coordinates_round_trip(self):
        rng = np.random.default_rng(3)
        model, rho0 = small_vdp_case()
        d = model.dim
        idx = np.flatnonzero(_reachable(_liouvillian(model), rho0.matrix))
        e, sel, imag = _hermitian_coordinates(idx, d)
        assert e.shape == (d * d, len(idx))
        assert np.max(np.diff(e.tocsc().indptr)) <= 2
        rho = random_state(rng, model.layout).matrix.ravel()
        x = np.where(imag, rho[sel].imag, rho[sel].real)
        back = e @ x
        assert np.array_equal(back[idx], rho[idx])


class TestContraction:
    def test_trace_distance_between_evolving_states_contracts(self):
        # CPTP evolution cannot increase the trace distance of two states
        from qsync.opalg import trace_distance

        model = build_reduced_qubit(ReducedQubitParams(0.0, 0.0, 0.0, 0.25))
        rho_a = DensityMatrix.product_state(
            model.layout, [(np.sqrt(0.9), np.sqrt(0.1)), (np.sqrt(0.7), np.sqrt(0.3))]
        )
        rho_b = DensityMatrix.product_state(model.layout, [(1, 0), (0, 1)])
        ta = evolve(model, rho_a, 30.0, 1.0, keep_states=True)
        tb = evolve(model, rho_b, 30.0, 1.0, keep_states=True)
        dists = [trace_distance(a, b) for a, b in zip(ta.states, tb.states)]
        diffs = np.diff(dists)
        assert np.all(diffs <= 1e-9)

    def test_purity_bounded(self):
        model = build_reduced_qubit(ReducedQubitParams(0.0, 0.0, 0.0, 0.25))
        rho0 = DensityMatrix.product_state(
            model.layout, [(np.sqrt(0.9), np.sqrt(0.1)), (np.sqrt(0.7), np.sqrt(0.3))]
        )
        traj = evolve(model, rho0, 30.0, 1.0, keep_states=True)
        for state in traj.states:
            purity = np.trace(state.matrix @ state.matrix).real
            assert 0.25 - 1e-12 <= purity <= 1.0 + 1e-12
