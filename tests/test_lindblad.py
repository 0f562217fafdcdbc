import contextlib
import dataclasses
import math
from fractions import Fraction as F

import numpy as np
import pytest
from scipy import sparse

from conftest import dopri5, tolerances, unguarded
from qsync import lindblad
from qsync.lindblad import (
    _DP_C,
    _DP_D,
    _DP_E,
    ABS_TOL,
    EXACT_MAX_COORDINATES,
    MAX_SAMPLES,
    REL_TOL,
    RHO_BLOCK_BYTES,
    Dissipator,
    ModelSpec,
    TruncationError,
    _Dopri5,
    _Propagator,
    _excitation_cap,
    _expm,
    _hermitian_coordinates,
    _liouvillian,
    _reachable,
    _real_generator,
    _squarings,
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


MODE = SpaceLayout((3,), ("m",))     # a layout that is not the qubit's


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


def real_problem(model, rho0):
    """L_r on all D^2 real coordinates, and rho0's coordinates x0 on it."""
    d = model.dim
    e, sel, imag = _hermitian_coordinates(np.arange(d * d), d)
    liou = _real_generator(_liouvillian(model)[sel], e, imag)
    vec = rho0.matrix.ravel()
    return liou, np.where(imag, vec[sel].imag, vec[sel].real)


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

    @pytest.mark.parametrize("rate", [np.nan, np.inf, -1.0])
    def test_dissipator_rate_must_be_finite_and_non_negative(self, rate):
        with pytest.raises(ValueError, match="dissipator rate must be finite and >= 0"):
            Dissipator(rate, pauli("minus"))


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

    @pytest.mark.parametrize("call, message", [
        (lambda m: dataclasses.replace(m, hamiltonian=Operator(MODE, np.zeros((3, 3)))),
         "hamiltonian layout does not match model layout"),
        (lambda m: dataclasses.replace(m, hamiltonian=pauli("minus", "q")),
         r"hamiltonian must be Hermitian \(defect 1\)"),
        (lambda m: dataclasses.replace(m, observables=m.observables * 2),
         "observable names must be unique"),
        (lambda m: dataclasses.replace(m, observables=(("n", destroy(3, "m")),)),
         "observable 'n' layout does not match model"),
        (lambda m: dataclasses.replace(m, observables=(("minus", pauli("minus", "q")),)),
         "observable 'minus' must be Hermitian"),
        (lambda m: dataclasses.replace(m, dissipators=(Dissipator(1.0, destroy(3, "m")),)),
         "dissipator jump layout does not match model"),
        (lambda m: evolve(m, DensityMatrix(m.layout, np.eye(2)), 1.0, 0.5),
         "initial state trace error 1 > 1e-8"),
        (lambda m: evolve(m, DensityMatrix(m.layout, [[1, 0.5], [0, 0]]), 1.0, 0.5),
         "initial state is not Hermitian to 1e-10"),
        (lambda m: propagate_dense(m, DensityMatrix(MODE, np.eye(3) / 3), [1.0]),
         "initial state layout does not match model layout"),
        (lambda m: propagate_dense(m, excited(m.layout), []),
         "times must be a non-empty strictly increasing 1-D grid"),
        (lambda m: propagate_dense(m, excited(m.layout), [[0.5, 1.0]]),
         "times must be a non-empty strictly increasing 1-D grid"),
        (lambda m: propagate_dense(m, excited(m.layout), [0.5, 0.5]),
         "times must be a non-empty strictly increasing 1-D grid"),
    ], ids=["hamiltonian_layout", "hamiltonian_hermitian", "observable_names",
            "observable_layout", "observable_hermitian", "jump_layout", "initial_trace",
            "initial_hermitian", "oracle_layout", "oracle_empty_grid", "oracle_2d_grid",
            "oracle_repeated_time"])
    def test_library_refusals(self, call, message):
        # ModelSpec, evolve and the oracle refuse bad input with a ValueError
        # that says what is wrong
        with pytest.raises(ValueError, match=f"^{message}$"):
            call(single_qubit_decay())

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

    @pytest.mark.parametrize("path", ["expm", "dopri5"])
    def test_trace_drift_is_renormalized_every_sample(self, path, monkeypatch):
        # a generator that leaks trace: P = exp(L_r dt) scaled by 1 + 1e-6,
        # or L_r + 1e-3 I under Dopri5.  evolve divides each sample by the
        # product of the renormalizations so far while the stepper runs on
        # unscaled, so the recorded run is the undrifted one
        if path == "expm":
            expm = lindblad._expm
            seam, name, drift, tol = contextlib.nullcontext(), "_expm", 1e-6, 1e-12

            def leaking(a, dt):
                return (1 + 1e-6) * expm(a, dt)
        else:
            real_generator = lindblad._real_generator
            seam, name, drift, tol = dopri5(), "_real_generator", math.expm1(1e-3 * 0.5), 1e-9

            def leaking(rows, e, imag):
                real = real_generator(rows, e, imag)
                return real + 1e-3 * sparse.identity(real.shape[0], format="csr")
        model, rho0 = PRESETS["fig2b"].build()
        with seam:
            plain = evolve(model, rho0, 40.0, 0.5)
            monkeypatch.setattr(lindblad, name, leaking)
            drifted = evolve(model, rho0, 40.0, 0.5)
        assert plain.stats["propagator"] == drifted.stats["propagator"] == path
        assert plain.stats["renormalizations"] == 0
        assert drifted.stats["renormalizations"] == len(drifted.times) - 1
        assert np.allclose(drifted.trace_errors[1:], drift, rtol=1e-6, atol=0)
        assert np.max(np.abs(drifted.values - plain.values)) < tol
        assert np.max(np.abs(drifted.mutual_info - plain.mutual_info)) < tol

    def test_self_convergence_under_tolerance_halving(self):
        model = build_reduced_qubit(ReducedQubitParams(0.05, 0.0, 1e-3, 0.25))
        rho0 = DensityMatrix.product_state(
            model.layout, [(np.sqrt(0.9), np.sqrt(0.1)), (np.sqrt(0.7), np.sqrt(0.3))]
        )
        with dopri5():
            with tolerances(1e-8, 1e-10):
                base = evolve(model, rho0, 40.0, 1.0)
            with tolerances(5e-9, 5e-11):
                fine = evolve(model, rho0, 40.0, 1.0)
        assert np.max(np.abs(base.values - fine.values)) < 1e-6

    def test_tiny_absolute_tolerance_is_met(self):
        # the first trial step is the whole span and the controller cuts it
        # down: an absolute tolerance of 1e-300 leaves the relative one to
        # size the steps, and the run follows the oracle
        model, rho0 = reduced_case()
        with dopri5(), tolerances(REL_TOL, 1e-300):
            traj = evolve(model, rho0, 20.0, 0.5, keep_states=True)
        assert traj.stats["propagator"] == "dopri5"
        oracle = propagate_dense(model, rho0, traj.times)
        worst = max(float(np.max(np.abs(s.matrix - o.matrix)))
                    for s, o in zip(traj.states, oracle))
        assert worst < 1e-6, worst

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
        with dopri5():
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
        with dopri5():
            return [evolve(model, rho0, 200.0, dt) for dt in (0.5, 0.05)]

    def test_step_sequence_ignores_sample_grid(self, coarse_and_fine):
        coarse, fine = coarse_and_fine
        for key in ("steps_accepted", "steps_rejected", "matvecs", "h_min"):
            assert coarse.stats[key] == fine.stats[key], key
        # six powers per accepted step and L y to start: rejected steps reuse
        # the powers, and FSAL is never reset
        assert coarse.stats["matvecs"] == 6 * coarse.stats["steps_accepted"] + 1
        assert np.allclose(fine.times[::10], coarse.times, rtol=0, atol=1e-12)
        assert np.max(np.abs(fine.values[::10] - coarse.values)) < 1e-12
        assert np.max(np.abs(fine.mutual_info[::10] - coarse.mutual_info)) < 1e-12

    def test_rejected_steps_cost_no_matvec(self):
        # a detuning-free pair driven hard against its decay: the controller
        # rejects 52 steps, each re-sized from the same block of powers
        model = build_reduced_qubit(ReducedQubitParams(0.0, 0.0, 20.0, 5.0))
        rho0 = DensityMatrix.product_state(model.layout, [(1, 0), (0, 1)])
        with dopri5(), tolerances(1e-10, 1e-12):
            traj = evolve(model, rho0, 20.0, 0.5, keep_states=True)
        stats = traj.stats
        assert (stats["steps_accepted"], stats["steps_rejected"]) == (3225, 52)
        assert stats["matvecs"] == 6 * 3225 + 1 == 19351
        oracle = propagate_dense(model, rho0, traj.times)
        worst = max(float(np.max(np.abs(s.matrix - o.matrix)))
                    for s, o in zip(traj.states, oracle))
        assert worst < 1e-6, worst

    def test_renormalizing_every_sample_changes_nothing(self, monkeypatch):
        # evolve renormalizes the recorded samples alone, and the stepper
        # runs on unscaled: a run that renormalizes every sample whose trace
        # is off by any rounding follows the same solution
        model, rho0 = PRESETS["fig3"].build()
        plain = evolve(model, rho0, 1.28, 0.02)
        monkeypatch.setattr(lindblad, "RENORM_THRESHOLD", 0.0)
        renormed = evolve(model, rho0, 1.28, 0.02)
        assert plain.stats["renormalizations"] == 0
        renorms = renormed.stats["renormalizations"]
        assert renorms == np.count_nonzero(renormed.trace_errors) > len(renormed.times) // 2
        assert np.max(np.abs(renormed.values - plain.values)) < 1e-12
        assert np.max(np.abs(renormed.mutual_info - plain.mutual_info)) < 1e-12

    def test_work_bound(self, coarse_and_fine):
        # pins the work, not the time: 2,858 and 24,008 matvecs when every
        # sample ended a step, 902 at both with free steps and 901 in
        # power form
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


def criterion_4a_reduced_case():
    # criterion 4a's reduced run: fig2b's qubits at gamma_eff = g0^2/kappa
    model = build_reduced_qubit(ReducedQubitParams(0.0, 0.0, 0.0, 0.25))
    rho0 = DensityMatrix.product_state(model.layout, [PRESETS["fig2b"].initial[label]
                                                      for label in ("qubit1", "qubit2")])
    return model, rho0


def stepped_generator(model, rho0):
    """L_r on the coordinates `evolve` steps: the reachable part of the capped block."""
    liou = _liouvillian(model)
    inside = excitation_numbers(model.layout) <= _excitation_cap(model, rho0)
    idx = np.flatnonzero(_reachable(liou, rho0.matrix) & np.outer(inside, inside).ravel())
    e, sel, imag = _hermitian_coordinates(idx, model.dim)
    return _real_generator(liou[sel], e, imag)


def relative_deviation(p, reference):
    return float(np.max(np.abs(p - reference)) / np.max(np.abs(reference)))


class TestExactPropagator:
    def test_block_size_picks_the_propagator(self):
        # fig3's pair from fig3's state: N = 6 steps 676 coordinates and
        # takes the exact propagator, N = 7 steps 1,091 and takes Dopri5
        for n, count, propagator in [(6, 676, "expm"), (7, 1091, "dopri5")]:
            scenario = dataclasses.replace(PRESETS["fig3"],
                                           params={**PRESETS["fig3"].params, "N": n})
            stats = evolve(*scenario.build(), 0.25, 0.25).stats
            assert (stats["coordinates"], stats["propagator"]) == (count, propagator)
        model, rho0 = reduced_case()
        stats = evolve(model, rho0, 2.0, 0.5).stats
        assert (stats["propagator"], stats["matvecs"], stats["steps_accepted"],
                stats["steps_rejected"], stats["h_min"]) == ("expm", 4, 0, 0, None)
        with dopri5():
            assert evolve(model, rho0, 2.0, 0.5).stats["propagator"] == "dopri5"

    def test_small_vdp_matches_dopri5(self):
        # the vdp pair at N = 6 takes the exact propagator by its size: it
        # agrees with the Dopri5 run it replaces within criterion 5's 1e-6
        model, rho0 = small_vdp_case()
        exact = evolve(model, rho0, 2.0, 0.25)
        with dopri5():
            stepped = evolve(model, rho0, 2.0, 0.25)
        assert (exact.stats["propagator"], stepped.stats["propagator"]) == ("expm", "dopri5")
        assert np.max(np.abs(exact.values - stepped.values)) < 1e-6
        assert np.max(np.abs(exact.mutual_info - stepped.mutual_info)) < 1e-6

    @pytest.mark.parametrize("case, t_end", [(reduced_case, 200.0),
                                             (criterion_4a_reduced_case, 40.0)])
    def test_matches_dopri5(self, case, t_end):
        # the same L_r sampled both ways: the difference is Dopri5's own
        # error at the default tolerances, within criterion 5's 1e-6
        model, rho0 = case()
        liou, x0 = real_problem(model, rho0)
        times = sample_grid(t_end, 0.5)
        exact = [x.copy() for _, x in _Propagator(liou, 0.5).samples(x0, times)]
        stepper = _Dopri5(liou)
        stepped = [x.copy() for _, x in stepper.samples(x0, times)]
        assert len(exact) == len(stepped) == len(times)
        assert np.max(np.abs(np.array(exact) - np.array(stepped))) < 1e-6
        # and through evolve, observables and mutual information alike
        runs = [evolve(model, rho0, t_end, 0.5)]
        with dopri5():
            runs.append(evolve(model, rho0, t_end, 0.5))
        assert np.max(np.abs(runs[0].values - runs[1].values)) < 1e-6
        assert np.max(np.abs(runs[0].mutual_info - runs[1].mutual_info)) < 1e-6

    def test_matches_expm_multiply(self):
        # scipy's truncated-Taylor action of the exponential (Al-Mohy &
        # Higham 2011) forms no matrix exponential: an independent check
        from scipy.sparse.linalg import expm_multiply

        model = build_reduced_qubit(ReducedQubitParams(0.3, -0.1, 0.2, 0.4))
        rho0 = DensityMatrix.product_state(model.layout, [(0.6, 0.8j), (0.8, -0.6)])
        liou, x0 = real_problem(model, rho0)
        times = sample_grid(50.0, 0.25)
        exact = np.array([x.copy() for _, x in _Propagator(liou, 0.25).samples(x0, times)])
        reference = expm_multiply(liou, x0, start=0.0, stop=50.0, num=len(times),
                                  endpoint=True)
        assert np.max(np.abs(exact - reference)) < 1e-12


class TestExponential:
    """`_expm`, the Taylor scaling and squaring behind `_Propagator`, against
    scipy's Pade scaling and squaring."""

    @pytest.mark.parametrize("name, squarings", [("fig2a", 9), ("fig2b", 8), ("fig2c", 7)])
    def test_matches_scipy_on_capped_generators(self, name, squarings):
        from scipy.linalg import expm

        scenario = PRESETS[name]
        liou = stepped_generator(*scenario.build())
        dt = scenario.sample_dt
        assert _squarings(liou, dt) == squarings
        reference = expm(liou.toarray() * dt)
        assert relative_deviation(_expm(liou, dt), reference) <= 1e-12

    def test_matches_scipy_on_reduced_generator(self):
        from scipy.linalg import expm

        liou, _ = real_problem(*reduced_case())
        assert liou.shape == (16, 16)
        assert relative_deviation(_expm(liou, 0.5), expm(liou.toarray() * 0.5)) <= 1e-12

    def test_zero_generator(self):
        zero = sparse.csr_matrix((5, 5))
        assert _squarings(zero, 0.5) == 0
        assert np.array_equal(_expm(zero, 0.5), np.eye(5))

    def test_huge_norm_is_scaled_without_overflow(self):
        # ||a dt|| near the float maximum takes 1,024 squarings; a power of
        # two that large would overflow, ldexp does not
        decay = sparse.csr_matrix(np.array([[-1.5e308]]))
        assert _squarings(decay, 1.0) == 1024
        assert np.array_equal(_expm(decay, 1.0), [[0.0]])

    @pytest.mark.parametrize("value, dt", [(1.5e308, 1.0), (1e300, 1e10), (np.nan, 1.0)])
    def test_non_finite_result_is_a_value_error(self, value, dt):
        with pytest.raises(ValueError, match="not finite"):
            _expm(sparse.csr_matrix(np.array([[value, 1.0], [0.0, 0.0]])), dt)


# The published Dormand-Prince 5(4) tableau: stage rows A (the last is the
# 5th-order weights, the FSAL stage), the embedded 4th-order weights and the
# continuous extension (Dormand & Prince 1986, as in Hairer's DOPRI5 contd5).
DP_A = [
    [],
    [F(1, 5)],
    [F(3, 40), F(9, 40)],
    [F(44, 45), F(-56, 15), F(32, 9)],
    [F(19372, 6561), F(-25360, 2187), F(64448, 6561), F(-212, 729)],
    [F(9017, 3168), F(-355, 33), F(46732, 5247), F(49, 176), F(-5103, 18656)],
    [F(35, 384), F(0), F(500, 1113), F(125, 192), F(-2187, 6784), F(11, 84)],
]
DP_B4 = [F(5179, 57600), F(0), F(7571, 16695), F(393, 640), F(-92097, 339200),
         F(187, 2100), F(1, 40)]
DP_CONT = [     # row s: the theta, theta^2, theta^3, theta^4 weights of stage s
    [1, F(-8048581381, 2820520608), F(8663915743, 2820520608),
     F(-12715105075, 11282082432)],
    [0, 0, 0, 0],
    [0, F(131558114200, 32700410799), F(-68118460800, 10900136933),
     F(87487479700, 32700410799)],
    [0, F(-1754552775, 470086768), F(14199869525, 1410260304),
     F(-10690763975, 1880347072)],
    [0, F(127303824393, 49829197408), F(-318862633887, 49829197408),
     F(701980252875, 199316789632)],
    [0, F(-282668133, 205662961), F(2019193451, 616988883), F(-1453857185, 822651844)],
    [0, F(40617522, 29380423), F(-110615467, 29380423), F(69997945, 29380423)],
]


def dp_stage_polynomials():
    """h K_s for dy/dt = L y as exact coefficients of z^0..z^7 (z = hL) acting on y."""
    stages = []
    for row in DP_A:
        arg = [F(1)] + [F(0)] * 7       # y + sum_j a_sj h K_j
        for a, k in zip(row, stages):
            arg = [x + a * y for x, y in zip(arg, k)]
        stages.append([F(0)] + arg[:7])     # times z
    return stages


class TestPowerForm:
    """The stepper's power-form constants against the tableau, in exact arithmetic."""

    stages = dp_stage_polynomials()
    b5 = DP_A[6] + [F(0)]

    def combine(self, weights, k):
        return sum(w * stage[k] for w, stage in zip(weights, self.stages))

    def test_step_is_the_stability_polynomial(self):
        c = [self.combine(self.b5, k) for k in range(8)]
        assert c == [0, 1, F(1, 2), F(1, 6), F(1, 24), F(1, 120), F(1, 600), 0]
        assert _DP_C.tolist() == [float(x) for x in c[1:7]]

    def test_error_weights(self):
        err = [self.combine([b - b4 for b, b4 in zip(self.b5, DP_B4)], k) for k in range(8)]
        assert err == [0] * 5 + [F(-97, 120000), F(13, 40000), F(-1, 24000)]
        assert _DP_E.tolist() == [float(x) for x in err[5:]]

    def test_continuous_extension(self):
        d = [[self.combine([row[m] for row in DP_CONT], k) for m in range(4)]
             for k in range(1, 8)]
        for k in range(1, 5):
            assert d[k - 1] == [F(1, math.factorial(k)) if m == k - 1 else 0
                                for m in range(4)]
        assert d[4][1:] == [F(5112093, 587608460), F(-90725539, 3525650760),
                            F(22358351, 881412690)]
        assert d[5][1:] == [F(-17546271, 2938042300), F(181174829, 17628253800),
                            F(-2325839, 881412690)]
        assert d[6][1:] == [F(6769587, 2938042300), F(-110615467, 17628253800),
                            F(13999589, 3525650760)]
        assert d[4][0] == d[5][0] == d[6][0] == 0
        # at theta = 1 the extension is the step itself
        assert [sum(row) for row in d[4:]] == [F(1, 120), F(1, 600), 0]
        assert _DP_D.tolist() == [[float(x) for x in row] for row in d]


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
        n = reachable_count(model, rho0)
        assert n < d * d
        with dopri5():
            traj = evolve(model, rho0, 2.0, 0.25, keep_states=True)
        assert traj.stats["renormalizations"] == 0
        # the real generator on all D^2 coordinates, stepped without pruning.
        # The pruned coordinates are exact zeros, so tolerances scaled by
        # sqrt(n / D^2) give its RMS error norm the pruned run's
        e, sel, imag = _hermitian_coordinates(np.arange(d * d), d)
        s = math.sqrt(n / d ** 2)
        with tolerances(REL_TOL * s, ABS_TOL * s):
            stepper = _Dopri5(_real_generator(_liouvillian(model)[sel], e, imag))
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

    @pytest.mark.parametrize("name, nc, count, propagator", [
        pytest.param("fig2a", 4, 625, "expm", id="fig2a-625"),
        pytest.param("fig2b", 4, 169, "expm", id="fig2b-169"),
        pytest.param("fig2c", 4, 625, "expm", id="fig2c-625"),
        # one Fock level more: the block exceeds EXACT_MAX_COORDINATES
        pytest.param("fig2a", 5, 1681, "dopri5", id="fig2a-Nc5-1681"),
    ])
    def test_preset_stepped_counts(self, name, nc, count, propagator):
        scenario = PRESETS[name]
        scenario = dataclasses.replace(scenario, params={**scenario.params, "Nc": nc})
        model, rho0 = scenario.build()
        assert model.excitation_cap == nc - 1
        stats = evolve(model, rho0, 2.0, 2.0).stats
        assert (stats["coordinates"], stats["propagator"]) == (count, propagator)
        assert (count <= EXACT_MAX_COORDINATES) == (propagator == "expm")

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
        with unguarded():
            capped = evolve(model, rho0, 10.0, 0.5)
            exact = evolve(projected, rho0, 10.0, 0.5)
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
