import dataclasses

import numpy as np
import pytest

from qsync.lindblad import (
    DEFAULT_ABS_TOL,
    DEFAULT_REL_TOL,
    MAX_SAMPLES,
    MIN_REL_TOL,
    RHO_BLOCK_BYTES,
    Dissipator,
    ModelSpec,
    TruncationError,
    _Dopri5,
    _hermitian_coordinates,
    _liouvillian,
    _reachable,
    _real_generator,
    dense_liouvillian,
    evolve,
    excitation_numbers,
    propagate_dense,
    sample_count,
    sample_grid,
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
    partial_trace,
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


def reduced_case():
    model = build_reduced_qubit(ReducedQubitParams(0.05, 0.02, 1e-3, 0.25))
    rho0 = DensityMatrix.product_state(
        model.layout, [(np.sqrt(0.9), np.sqrt(0.1)), (np.sqrt(0.7), np.sqrt(0.3))]
    )
    return model, rho0


def rhs(model, rho):
    """d rho/dt: the model's generator applied to the row-stacked vec(rho)."""
    return (_liouvillian(model) @ rho.matrix.ravel()).reshape(model.dim, model.dim)


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


class TestEvolve:
    def test_rabi_oscillation_analytic(self):
        # from |g> under Omega*sigma_x: <sigma_z>(t) = -cos(2 Omega t)
        omega = 0.9
        model = rabi_qubit(omega)
        rho0 = DensityMatrix.product_state(model.layout, [(1, 0)])
        traj = evolve(model, rho0, 10.0, 0.05)
        expected = -np.cos(2 * omega * traj.times)
        assert np.max(np.abs(traj.column("sigma_z") - expected)) < 1e-6

    def test_layout_mismatch_rejected(self):
        model = single_qubit_decay()
        bad = DensityMatrix(SpaceLayout((3,), ("m",)), np.eye(3) / 3)
        with pytest.raises(ValueError, match="layout"):
            evolve(model, bad, 1.0, 0.5)

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
        base = evolve(model, rho0, 40.0, 1.0, rel_tol=1e-8, abs_tol=1e-10)
        fine = evolve(model, rho0, 40.0, 1.0, rel_tol=5e-9, abs_tol=5e-11)
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

    def test_sample_grid_rule(self):
        assert sample_count(3.0, 0.5) == 6
        assert np.array_equal(sample_grid(1.0, 0.25), [0.0, 0.25, 0.5, 0.75, 1.0])
        # at (1e308, 1e-308) t_end / sample_dt overflows to inf: still a ValueError
        for t_end, sample_dt in [(1e308, 1e-308), (1.0, 0.3), (0.0, 1.0), (1.0, 0.0)]:
            with pytest.raises(ValueError, match="multiple of sample_dt"):
                sample_grid(t_end, sample_dt)
        # the cap is checked on the count, before any grid is allocated
        assert sample_count(MAX_SAMPLES * 0.5, 0.5) == MAX_SAMPLES
        with pytest.raises(ValueError, match="exceeds the cap"):
            sample_count(1e15, 0.5)

    @pytest.mark.parametrize("tol", [{"rel_tol": 0.0}, {"abs_tol": -1e-10}])
    def test_tolerances_must_be_positive(self, tol):
        model = rabi_qubit(1.0)
        rho0 = DensityMatrix.product_state(model.layout, [(1, 0)])
        with pytest.raises(ValueError, match="tolerances must be positive"):
            evolve(model, rho0, 1.0, 0.5, **tol)

    def test_rel_tol_floor(self):
        # below 100 eps the error estimate is rounding noise: refused, not run
        model = rabi_qubit(1.0)
        rho0 = DensityMatrix.product_state(model.layout, [(1, 0)])
        with pytest.raises(ValueError, match="below the floor"):
            evolve(model, rho0, 1.0, 0.5, rel_tol=1e-20)
        with pytest.raises(ValueError, match="below the floor"):
            evolve(model, rho0, 1.0, 0.5, rel_tol=MIN_REL_TOL * (1 - 1e-9))
        evolve(model, rho0, 1.0, 0.5, rel_tol=MIN_REL_TOL, abs_tol=1e-6)

    def test_guard_headroom_in_stats(self):
        model = build_vdp(VdpParams(**{**PRESETS["fig3"].params, "N": 6}))
        rho0 = small_vdp_case()[1]
        traj = evolve(model, rho0, 0.5, 0.05, keep_states=True)
        top = traj.stats["top_level_population"]
        assert set(top) == {"mode1", "mode2"}
        # the largest top-level population over the run, read from the states
        for slot, label in enumerate(("mode1", "mode2")):
            direct = max(partial_trace(s, (slot,)).matrix[-1, -1].real for s in traj.states)
            assert top[label] == pytest.approx(direct, rel=1e-12, abs=1e-18)
        qubit = rabi_qubit(0.5)
        assert evolve(qubit, excited(qubit.layout), 1.0, 0.5).stats["top_level_population"] == {}

    def test_mutual_info_recording(self):
        model = build_reduced_qubit(ReducedQubitParams(0.0, 0.0, 0.0, 0.25))
        rho0 = DensityMatrix.product_state(
            model.layout, [(np.sqrt(0.9), np.sqrt(0.1)), (np.sqrt(0.7), np.sqrt(0.3))]
        )
        traj = evolve(model, rho0, 20.0, 1.0, keep_states=True)
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
        assert traj.mutual_info is None     # one factor: no pair to record
        assert len(traj.states) == 5
        assert np.allclose(traj.states[-1].matrix, traj.final_state.matrix)


class TestDenseOracle:
    def test_liouvillian_matches_rhs_on_vectorized_inputs(self):
        # random dense jumps, plus the ladder jumps (a, a^dag, a^2) of the
        # package's models, which also pin the generator's row-stacked vec convention
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

    def test_dense_output_samples_match_oracle(self):
        # a sweep_reduced-shaped run: free steps, every sample from the
        # continuous extension, each within criterion 5's 1e-6 of exp(L t)
        model, rho0 = reduced_case()
        traj = evolve(model, rho0, 200.0, 0.5, keep_states=True)
        oracle = propagate_dense(model, rho0, traj.times)
        worst = max(float(np.max(np.abs(s.matrix - o.matrix)))
                    for s, o in zip(traj.states, oracle))
        assert worst < 1e-6, worst

    def test_evolve_agrees_with_oracle_on_reduced_model(self):
        model = build_reduced_qubit(ReducedQubitParams(0.05, 0.02, 1e-3, 0.25))
        rho0 = DensityMatrix.product_state(
            model.layout, [(np.sqrt(0.9), np.sqrt(0.1)), (np.sqrt(0.7), np.sqrt(0.3))]
        )
        t_final = 20.0
        oracle = propagate_dense(model, rho0, [t_final])[0]
        traj = evolve(model, rho0, t_final, t_final / 4)
        assert np.max(np.abs(traj.final_state.matrix - oracle.matrix)) < 1e-6


class TestFreeStepping:
    @pytest.fixture(scope="class")
    def coarse_and_fine(self):
        model, rho0 = reduced_case()
        return [evolve(model, rho0, 200.0, dt) for dt in (0.5, 0.05)]

    def test_step_sequence_ignores_sample_grid(self, coarse_and_fine):
        coarse, fine = coarse_and_fine
        for key in ("steps_accepted", "steps_rejected", "matvecs", "h_min"):
            assert coarse.stats[key] == fine.stats[key], key
        # one matvec per stage and two to start: FSAL is never reset
        attempts = coarse.stats["steps_accepted"] + coarse.stats["steps_rejected"]
        assert coarse.stats["matvecs"] == 6 * attempts + 2
        assert np.allclose(fine.times[::10], coarse.times, rtol=0, atol=1e-12)
        assert np.max(np.abs(fine.values[::10] - coarse.values)) < 1e-12
        assert np.max(np.abs(fine.mutual_info[::10] - coarse.mutual_info)) < 1e-12

    def test_work_bound(self, coarse_and_fine):
        # pins the work, not the time: 2,858 and 24,008 matvecs when every
        # sample ended a step, 902 at both with free steps
        for traj in coarse_and_fine:
            assert traj.stats["matvecs"] <= 1000, traj.stats

    def test_block_recording_is_exact(self):
        # D=36: the rho stack holds 12 samples, so 31 samples span three
        # blocks; each recorded value equals the one-state computation bitwise
        model = build_cavity_qubit(CavityQubitParams(0.3, -0.2, 0.1, 0.15, 0.4, -0.5, 0.2, Nc=3))
        assert RHO_BLOCK_BYTES // (16 * model.dim ** 2) == 12
        rho0 = DensityMatrix.product_state(
            model.layout, [(np.sqrt(0.9), np.sqrt(0.1)), (np.sqrt(0.7), np.sqrt(0.3)),
                           (1.0,), (1.0,)]
        )
        traj = evolve(model, rho0, 1.5, 0.05, keep_states=True)
        assert len(traj.states) == 31
        eigs = [np.linalg.eigvalsh(s.matrix)[0] for s in traj.states]
        mi = [mutual_information(partial_trace(s, (0, 1)), ((0,), (1,))) for s in traj.states]
        assert np.array_equal(traj.min_eigenvalues, eigs)
        assert np.array_equal(traj.mutual_info, mi)
        assert np.array_equal(traj.states[-1].matrix, traj.final_state.matrix)
        assert np.all(traj.mutual_info[1:] > 0)


def reachable_count(model, rho0):
    return int(np.count_nonzero(_reachable(_liouvillian(model), rho0.matrix)))


def small_vdp_case():
    # fig3's van der Pol pair at N = 6 (D = 36), from the fig3 amplitudes
    model = build_vdp(VdpParams(**{**PRESETS["fig3"].params, "N": 6}))
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
        traj = evolve(model, rho0, 2.0, 0.25, keep_states=True)
        assert traj.stats["renormalizations"] == 0
        # the real generator on all D^2 coordinates, stepped without pruning
        e, sel, imag = _hermitian_coordinates(np.arange(d * d), d)
        stepper = _Dopri5(_real_generator(_liouvillian(model)[sel], e, imag),
                          DEFAULT_REL_TOL, DEFAULT_ABS_TOL, d * d)
        vec = rho0.matrix.ravel()
        x0 = np.where(imag, vec[sel].imag, vec[sel].real)
        worst = 0.0
        for i, x in stepper.samples(x0, traj.times):
            rho = (e @ x).reshape(d, d)
            worst = max(worst, float(np.max(np.abs(traj.states[i].matrix - rho))))
        assert i == len(traj.times) - 1
        assert stepper.accepted == traj.stats["steps_accepted"]
        assert worst < 1e-12, worst


class TestExcitationCap:
    def test_excitation_numbers(self):
        # ground-first qubit, photon-counting mode: N = e + n
        lay = SpaceLayout((2, 3), ("q", "m"))
        assert excitation_numbers(lay).tolist() == [0, 1, 2, 1, 2, 3]

    @pytest.mark.parametrize("name, count", [("fig2a", 625), ("fig2b", 169), ("fig2c", 625)])
    def test_preset_stepped_counts(self, name, count):
        model, rho0 = PRESETS[name].build()
        assert model.excitation_cap == 3
        assert evolve(model, rho0, 2.0, 2.0).stats["coordinates"] == count

    def test_cap_that_keeps_the_reachable_set_changes_nothing(self):
        # fig2b's undriven reachable set already lies in N <= 2: capped and
        # uncapped runs step the same coordinates and agree to the bit
        model, rho0 = PRESETS["fig2b"].build()
        capped = evolve(model, rho0, 40.0, 2.0)
        full = evolve(dataclasses.replace(model, excitation_cap=None), rho0, 40.0, 2.0)
        for field in ("values", "trace_errors", "min_eigenvalues", "mutual_info"):
            assert np.array_equal(getattr(capped, field), getattr(full, field)), field
        assert capped.stats["top_level_population"]["excitations"] == 0.0

    def test_capped_run_is_the_projected_model(self):
        # the block of L is the Lindbladian of P H P with jumps P a P, which
        # needs no cap: both runs step the same coordinates to rounding.
        # At Nc = 3 the cap Nc - 1 = 2 is the fig2a state's top shell, so
        # evolve raises it to 3
        model = build_cavity_qubit(CavityQubitParams(0.3, -0.2, 0.1, 0.15, 0.4, -0.5, 0.2,
                                                     Nc=3))
        assert model.excitation_cap == 2
        rho0 = DensityMatrix.product_state(model.layout, [PRESETS["fig2a"].initial[label]
                                                          for label in model.layout.labels])
        inside = np.diag((excitation_numbers(model.layout) <= 3).astype(float))

        def project(op):
            return Operator(model.layout, inside @ op.matrix @ inside)

        projected = ModelSpec(model.layout, project(model.hamiltonian),
                              [Dissipator(d.rate, project(d.jump)) for d in model.dissipators],
                              model.observables)
        # this strong drive fills the top levels; only the generators are compared
        capped = evolve(model, rho0, 10.0, 0.5, guard_threshold=np.inf)
        exact = evolve(projected, rho0, 10.0, 0.5, guard_threshold=np.inf)
        assert capped.stats["coordinates"] == exact.stats["coordinates"] < model.dim ** 2
        assert np.max(np.abs(capped.values - exact.values)) < 1e-12
        assert np.max(capped.trace_errors) < 1e-10
        # the cavities' top Fock level N = 2 lies below the cap: still guarded
        assert set(capped.stats["top_level_population"]) == {"excitations", "cav1", "cav2"}


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
            rows = liou[sel]
            inputs = [(a.data.copy(), a.indices.copy(), a.indptr.copy()) for a in (rows, e)]
            real = _real_generator(rows, e, imag)
            assert real.dtype == np.float64 and real.shape == (count, count)
            assert real.has_sorted_indices and np.all(real.data != 0)
            for a, before in zip((rows, e), inputs):    # inputs left intact
                for got, want in zip((a.data, a.indices, a.indptr), before):
                    assert np.array_equal(got, want)
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
