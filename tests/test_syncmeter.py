import math
import re

import numpy as np
import pytest

from qsync.lindblad import Trajectory
from qsync.models import mari_measure, s_c_extras
from qsync.opalg import DensityMatrix, SpaceLayout, mutual_information, pauli
from qsync.syncmeter import (
    RECORD_KEYS,
    ConfigError,
    OscillationFit,
    _ProjectedObjective,
    build_sync_report,
    classify_pair,
    degree_of_quantumness,
    fit_oscillation,
    independent_subset,
    moment_catalog,
    pauli_catalog,
    resolve_catalog,
    wrap_phase,
)


def grid(t_end=10 * np.pi, dt=0.01):
    return np.arange(0.0, t_end + 1e-12, dt)


class TestFitOscillation:
    def test_recovers_exact_sinusoid(self):
        t = grid()
        y = 0.3 * np.cos(2 * t + 1.0) + 0.1
        fit = fit_oscillation(t, y, (t[0], t[-1]))
        assert abs(fit.frequency - 2.0) < 1e-6
        assert abs(fit.phase - 1.0) < 1e-6
        assert abs(fit.amplitude - 0.3) < 1e-6
        assert abs(fit.offset - 0.1) < 1e-6
        assert fit.oscillating

    def test_constant_series_not_oscillating(self):
        t = grid()
        fit = fit_oscillation(t, np.full_like(t, 0.25), (t[0], t[-1]))
        assert not fit.oscillating
        assert fit.amplitude < 1e-10

    def test_noisy_sinusoid_frequency_within_tolerance(self):
        rng = np.random.default_rng(77)
        t = grid()
        y = 0.5 * np.cos(0.8 * t - 0.4) + 0.005 * rng.uniform(-1, 1, size=t.size)
        fit = fit_oscillation(t, y, (t[0], t[-1]))
        assert abs(fit.frequency - 0.8) / 0.8 < 1e-3
        assert fit.oscillating

    def test_monotone_decay_not_oscillating(self):
        # relaxation trends must not read as locked oscillations: the
        # residual wobble of the polynomial background sits below the
        # resolvable-cycles gate
        t = np.arange(0.0, 40.0, 0.05)
        for tau in (4.0, 8.0, 16.0):
            fit = fit_oscillation(t, np.exp(-t / tau), (t[0], t[-1]))
            assert not fit.oscillating, tau

    def test_decaying_sinusoid_still_certifies(self):
        t = np.arange(0.0, 40.0, 0.05)
        y = np.exp(-t / 30.0) * np.cos(1.5 * t + 0.3) + 0.2
        fit = fit_oscillation(t, y, (t[0], t[-1]))
        assert fit.oscillating
        assert abs(fit.frequency - 1.5) / 1.5 < 1e-2

    def test_window_too_short_rejected(self):
        t = grid()
        with pytest.raises(ValueError):
            fit_oscillation(t, np.cos(t), (0.0, 0.3))

    def test_phase_referenced_to_time_origin(self):
        t = grid(40.0, 0.02)
        y = np.cos(1.3 * t + 0.7)
        fit = fit_oscillation(t, y, (20.0, 40.0))
        assert abs(wrap_phase(fit.phase - 0.7)) < 1e-6

    def test_signal_scale_gates_small_amplitudes(self):
        t = grid()
        y = 1e-4 * np.cos(2 * t)
        fit = fit_oscillation(t, y, (t[0], t[-1]), signal_scale=1.0)
        assert not fit.oscillating
        assert "amplitude" in fit.diagnostic

    def test_noise_above_fit_tol_not_oscillating(self):
        # white noise of rms 0.1 beside an amplitude of 0.2: the residual
        # exceeds FIT_TOL = 0.4 times the amplitude
        rng = np.random.default_rng(5)
        t = grid(200.0, 0.25)
        y = 0.2 * np.cos(0.5 * t) + 0.1 * rng.standard_normal(t.size)
        fit = fit_oscillation(t, y, (t[0], t[-1]))
        assert not fit.oscillating
        assert re.fullmatch(r"residual rms \S+ exceeds 0\.4 \* amplitude \S+", fit.diagnostic)


class TestProjectedObjective:
    """The per-frequency SSR with the trend projected out, against a full-width lstsq."""

    @staticmethod
    def reference_ssr(t, y, omega, nuisance):
        design = np.column_stack([np.cos(omega * t), np.sin(omega * t), nuisance])
        coeffs = np.linalg.lstsq(design, y, rcond=None)[0]
        resid = y - design @ coeffs
        return float(resid @ resid)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("deg", [0, 3])
    def test_matches_full_width_lstsq(self, seed, deg):
        # 5000 samples, the size of a 250-unit window at dt = 0.05.  At
        # 1e-3 bin, cos and sin lie inside the cubic's span below both
        # solvers' rank cutoff, so both drop them and the SSR is well defined.
        rng = np.random.default_rng(seed)
        n, dt = 5000, 0.05
        t = np.arange(n) * dt
        bin_width = 2 * np.pi / (n * dt)
        k = int(rng.integers(3, 60))
        y = (rng.uniform(0.1, 0.5) * np.exp(-t / rng.uniform(100, 400))
             * np.cos(k * bin_width * t + rng.uniform(-np.pi, np.pi))
             + rng.uniform(-0.2, 0.2) * np.exp(-t / rng.uniform(20, 80))
             + 1e-3 * rng.standard_normal(n))
        u = 2.0 * t / t[-1] - 1.0
        nuisance = np.column_stack([u ** j for j in range(deg + 1)])
        objective = _ProjectedObjective(t, y, nuisance)
        grid = np.linspace((k - 0.75) * bin_width, (k + 0.75) * bin_width, 33)
        on_grid = objective.grid(grid)
        for omega, ssr_grid in zip(grid, on_grid):
            ref = self.reference_ssr(t, y, omega, nuisance)
            assert abs(ssr_grid - ref) <= 1e-9 * ref, omega
            assert abs(objective(omega) - ref) <= 1e-9 * ref, omega
        omega = 1e-3 * bin_width
        ref = self.reference_ssr(t, y, omega, nuisance)
        assert abs(objective(omega) - ref) <= 1e-9 * ref


class TestClassifyPair:
    def fit(self, freq=1.0, phase=0.0, amp=1.0, oscillating=True):
        return OscillationFit(freq, phase, amp, 0.0, 0.01, oscillating)

    def test_identical_fits_in_phase(self):
        v = classify_pair(self.fit(), self.fit())
        assert v.synced and v.phase_class == "in_phase"
        assert v.amplitude_ratio == pytest.approx(1.0)

    def test_sign_flip_is_anti_phase(self):
        v = classify_pair(self.fit(phase=0.2), self.fit(phase=0.2 - math.pi))
        assert v.synced and v.phase_class == "anti_phase"

    def test_frequency_mismatch_breaks_sync(self):
        v = classify_pair(self.fit(freq=1.0), self.fit(freq=1.5))
        assert not v.synced
        assert v.freq_mismatch == pytest.approx(0.5 / 1.5)

    def test_non_oscillating_member_breaks_sync(self):
        v = classify_pair(self.fit(), self.fit(oscillating=False))
        assert not v.synced

    def test_swap_symmetry(self):
        a, b = self.fit(phase=0.5), self.fit(phase=-0.9)
        v1 = classify_pair(a, b)
        v2 = classify_pair(b, a)
        assert v1.synced == v2.synced
        assert v1.phase_class == v2.phase_class
        assert v1.phase_diff == pytest.approx(-v2.phase_diff)

    def test_intermediate_phase_locked_other(self):
        v = classify_pair(self.fit(phase=0.0), self.fit(phase=1.5))
        assert v.synced and v.phase_class == "phase_locked_other"


def trajectory(times, columns):
    return Trajectory(times, np.column_stack(list(columns.values())), list(columns))


class TestSynchronizedSet:
    # the synchronized set as build_sync_report's dict records it
    def make_traj(self, synced_names, catalog="pauli", freq=1.2, n=2000, dt=0.02):
        t = np.arange(n) * dt
        cols = {}
        for name, _ in resolve_catalog(catalog):
            if name in synced_names:
                cols[f"{name}_1"] = 0.5 * np.cos(freq * t + 0.3)
                cols[f"{name}_2"] = 0.4 * np.cos(freq * t + 0.3 + math.pi)
            else:
                # decays monotonically: no lock
                cols[f"{name}_1"] = 0.5 * np.exp(-t / 10.0)
                cols[f"{name}_2"] = 0.3 * np.exp(-t / 7.0)
        return trajectory(t, cols)

    def test_all_pauli_synced(self):
        traj = self.make_traj({"sigma_x", "sigma_y", "sigma_z"})
        res = build_sync_report(traj, "pauli", (0.0, 39.0))
        assert res["synchronized_set"] == ["sigma_x", "sigma_y", "sigma_z"]

    def test_partial_sync(self):
        traj = self.make_traj({"sigma_x", "sigma_y"})
        res = build_sync_report(traj, "pauli", (0.0, 39.0))
        assert res["synchronized_set"] == ["sigma_x", "sigma_y"]
        assert not res["pairs"]["sigma_z"]["synced"]

    def test_duplicate_operator_removed_by_rank_filter(self):
        # on two levels x2 = p2 = I/2: both pairs lock, and only the first is independent
        members = dict(moment_catalog(2))
        assert np.array_equal(members["x2"].matrix, members["p2"].matrix)
        traj = self.make_traj({"x2", "p2"}, "moments:2")
        res = build_sync_report(traj, "moments:2", (0.0, 39.0))
        assert res["pairs"]["x2"]["synced"] and res["pairs"]["p2"]["synced"]
        assert res["synchronized_set"] == ["x2"]

    def test_record_keys_are_the_ones_written(self):
        # a re-analysis refuses any `thresholds` key outside RECORD_KEYS
        for catalog, synced, lower_bound_only in [("pauli", {"sigma_x"}, False),
                                                  ("moments:2", {"x"}, True)]:
            res = build_sync_report(self.make_traj(synced, catalog), catalog, (0.0, 39.0))
            assert set(res["thresholds"]) == RECORD_KEYS
            assert res["thresholds"]["catalog"] == catalog
            assert res["thresholds"]["chi_lower_bound_only"] is lower_bound_only

    def test_missing_column_raises(self):
        t = np.arange(2000) * 0.02
        traj = trajectory(t, {"sigma_x_1": np.cos(t)})
        with pytest.raises(ConfigError, match=re.escape(
                "trajectory lacks catalog columns: sigma_x_2, sigma_y_1, sigma_y_2, "
                "sigma_z_1, sigma_z_2")):
            build_sync_report(traj, "pauli", (0.0, 39.0))


class TestDegreeOfQuantumness:
    def test_full_pauli_set(self):
        ops = [op for _, op in pauli_catalog()]
        assert degree_of_quantumness(ops) == (3, 1, 2)

    def test_two_transverse_paulis(self):
        assert degree_of_quantumness([pauli("x"), pauli("y")]) == (2, 1, 1)

    def test_single_observable_is_classical(self):
        assert degree_of_quantumness([pauli("z")]) == (1, 1, 0)

    def test_commuting_diagonal_pair(self):
        lay = SpaceLayout((2,), ("q",))
        diag = np.diag([1.0, -2.0])
        from qsync.opalg import Operator

        ops = [pauli("z"), Operator(lay, diag)]
        assert degree_of_quantumness(ops) == (2, 2, 0)

    def test_empty_set_convention(self):
        assert degree_of_quantumness([]) == (0, 0, 0)

    def test_scaling_invariance(self):
        rng = np.random.default_rng(3)
        ops = [op.matrix for _, op in pauli_catalog()]
        scaled = [float(rng.uniform(0.1, 5.0)) * m for m in ops]
        assert degree_of_quantumness(scaled) == degree_of_quantumness(ops)

    def test_permutation_invariance(self):
        ops = [op.matrix for _, op in pauli_catalog()]
        assert degree_of_quantumness(ops[::-1]) == degree_of_quantumness(ops)

    def test_dependent_set_rejected(self):
        sx = pauli("x").matrix
        with pytest.raises(ValueError):
            degree_of_quantumness([sx, 2.0 * sx])

    def test_bound_for_qubit(self):
        # d = 2: xi <= d^2 - d = 2, reached by the three Pauli operators
        chi, c, xi = degree_of_quantumness([op for _, op in pauli_catalog()])
        assert xi == 2

    def test_vdp_moment_catalog_quantumness(self):
        # x commutes with x^2 and p with p^2, so c = 2 for the full catalog
        ops = [op for name, op in moment_catalog(8) if name != "xpsym"]
        chi, c, xi = degree_of_quantumness(ops)
        assert (chi, c, xi) == (5, 2, 3)


class TestIndependence:
    def test_gram_full_rank_for_moment_catalog(self):
        ops = [op.matrix for _, op in moment_catalog(12)]
        assert len(independent_subset(ops)) == len(ops)

    def test_greedy_preserves_order(self):
        sx, sy = pauli("x").matrix, pauli("y").matrix
        kept = independent_subset([sx, sx + 1e-15 * sx, sy])
        assert kept == [0, 2]


class TestMutualInformation:
    def test_product_state_zero(self):
        lay = SpaceLayout((2, 2), ("a", "b"))
        rho = DensityMatrix.product_state(lay, [(0.6, 0.8), (1, 0)])
        assert abs(mutual_information(rho, ((0,), (1,)))) < 1e-10

    def test_bell_state(self):
        lay = SpaceLayout((2, 2), ("a", "b"))
        rho = DensityMatrix.from_state_vector(lay, [1, 0, 0, 1])
        assert mutual_information(rho, ((0,), (1,))) == pytest.approx(2 * np.log(2))

    def test_non_negative_on_random_states(self):
        rng = np.random.default_rng(21)
        lay = SpaceLayout((2, 3), ("a", "b"))
        for _ in range(25):
            m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
            rho = DensityMatrix(lay, (m @ m.conj().T) / np.trace(m @ m.conj().T).real)
            assert mutual_information(rho, ((0,), (1,))) >= -1e-9

    def test_invalid_partition_rejected(self):
        lay = SpaceLayout((2, 2), ("a", "b"))
        rho = DensityMatrix(lay, np.eye(4) / 4)
        with pytest.raises(ValueError):
            mutual_information(rho, ((0,), (0,)))
        with pytest.raises(ValueError):
            mutual_information(rho, ((0,), ()))


class TestMariMeasure:
    def test_two_mode_vacuum_saturates(self):
        lay = SpaceLayout((6, 6), ("m1", "m2"))
        vac = [1] + [0] * 5
        rho = DensityMatrix.product_state(lay, [vac, vac])
        assert mari_measure(rho) == pytest.approx(1.0, abs=1e-12)

    def test_one_photon_halves_measure(self):
        # <x_-^2 + p_-^2> = 2 for |1> x |0>, derived from Fock moments
        lay = SpaceLayout((6, 6), ("m1", "m2"))
        one = [0, 1, 0, 0, 0, 0]
        vac = [1, 0, 0, 0, 0, 0]
        rho = DensityMatrix.product_state(lay, [one, vac])
        assert mari_measure(rho) == pytest.approx(0.5, abs=1e-12)

    def test_bounded_by_one_on_random_states(self):
        rng = np.random.default_rng(8)
        lay = SpaceLayout((5, 5), ("m1", "m2"))
        for _ in range(20):
            m = rng.normal(size=(25, 25)) + 1j * rng.normal(size=(25, 25))
            rho = DensityMatrix(lay, (m @ m.conj().T) / np.trace(m @ m.conj().T).real)
            assert mari_measure(rho) <= 1.0 + 1e-9

    def test_wrong_layout_rejected(self):
        lay = SpaceLayout((2, 2, 2), ("a", "b", "c"))
        rho = DensityMatrix(lay, np.eye(8) / 8)
        with pytest.raises(ValueError):
            mari_measure(rho)

    @pytest.mark.parametrize("variance", [0.0, -0.5, np.nan])
    def test_extras_refuse_a_variance_no_state_gives(self, variance):
        # from a CSV: S_c would be infinite or negative, not a JSON number
        t = np.arange(4.0)
        values = np.column_stack([np.full(4, 1.0), [1.0, 1.0, 1.0, variance - 1.0]])
        traj = Trajectory(t, values, ["xminus2", "pminus2"])
        with pytest.raises(ValueError, match="relative quadrature variance"):
            s_c_extras(traj)


class TestWrapPhase:
    @pytest.mark.parametrize("phi", [0.0, 3.0, -3.0, 4.0, -4.0, 10.0, np.pi])
    def test_range(self, phi):
        w = wrap_phase(phi)
        assert -np.pi < w <= np.pi
        assert abs(math.remainder(w - phi, 2 * math.pi)) < 1e-12

    def test_anti_phase_reads_plus_pi(self):
        # within 1e-12 of -pi is the branch cut: it reads +pi, not -pi + noise
        assert wrap_phase(-np.pi + 1e-15) == np.pi
        assert wrap_phase(-np.pi) == np.pi
        assert wrap_phase(np.pi - 1e-15) == np.pi - 1e-15
        assert wrap_phase(-np.pi + 1e-6) == -np.pi + 1e-6
