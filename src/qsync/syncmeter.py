"""Synchronization analysis: oscillation fits, lock verdicts, quantumness.

The pipeline turns recorded expectation-value series into:

* per-observable cosine fits A*cos(w t + phi) + B over an analysis window,
* per-pair lock verdicts (frequency match, phase class, amplitude ratio),
* the synchronized set S (linearly independent observables whose two
  subsystem embeddings lock),
* the quantumness indices: chi = |S|, c = max_k |{A in S : [A_k, A] = 0}|,
  and xi = chi - c.  xi = 0 means every synchronized observable can be
  simultaneously diagonalized, i.e. the locking pattern is classically
  reproducible; xi = d^2 - d means all independent non-commuting
  observables lock.

The underlying systems settle to steady states, so the "locked
oscillations" are slowly decaying transients; the fit gates below are
module constants, recorded in every report, and deliberately conservative
about monotone drifts (a decaying exponential must not count as an
oscillation).

The analysis reads recorded series only: any `lindblad.Trajectory`, whether
just simulated or re-read from CSV, plus a catalog spec, 'pauli' or
'moments:<N>'.  The catalogs live here, and `resolve_catalog` is the one
parser of their specs, which the models' builders use too.
`build_sync_report` is the one function that turns a trajectory and a spec
into report.json's analysis fields, its whole `thresholds` record
(RECORD_KEYS) included; `analysis_window` is the one check that a window
holds enough samples to fit.  Figures of merit built on the models' own
operators, such as the S_c of `models.mari_measure`, live with the models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict, fields

import numpy as np

from .opalg import Operator, destroy, momentum, pauli, position

MIN_WINDOW_SAMPLES = 64
# degree of the polynomial background removed jointly with the cosine fit
# (transients ride on relaxation trends; the locked oscillation, not the
# trend, is what the verdict is about)
DETREND_DEG = 3
# the fit gates: minimum fitted amplitude as a fraction of the signal scale,
# maximum residual rms as a fraction of the fitted amplitude, and minimum
# number of fitted periods inside the window (below it the frequency is not
# identifiable and the series is treated as non-oscillating)
AMP_MIN = 1e-3
FIT_TOL = 0.4
MIN_CYCLES = 1.3
# relative Hilbert-Schmidt tolerance for independence, and max-entry
# tolerance for declaring two operators commuting
RANK_TOL = 1e-10
COMM_TOL = 1e-10
# phase-class half-width (rad) around 0 and pi; no verdict or index reads it
TOL_PHASE = 0.2
# the constants that report.json records beside the lock tolerance
FIXED_THRESHOLDS = {"amp_min": AMP_MIN, "fit_tol": FIT_TOL, "min_cycles": MIN_CYCLES,
                    "rank_tol": RANK_TOL, "comm_tol": COMM_TOL, "detrend_deg": DETREND_DEG,
                    "tol_phase": TOL_PHASE}


@dataclass(frozen=True)
class AnalysisThresholds:
    """The lock tolerance that a scenario or an `analyze` flag sets.

    tol_freq:    max relative frequency mismatch for a locked pair

    It must be >= 0 (ValueError otherwise).  The fit gates, the phase-class
    half-width and the rank and commutator tolerances are the module
    constants above.
    """

    tol_freq: float = 0.01

    def __post_init__(self):
        if not self.tol_freq >= 0:      # NaN too
            raise ValueError(f"tol_freq must be >= 0, got {self.tol_freq}")


# the keys `build_sync_report` writes under `thresholds`, all of them
RECORD_KEYS = frozenset({"window", "signal_scale", "catalog", "chi_lower_bound_only",
                         *(f.name for f in fields(AnalysisThresholds)), *FIXED_THRESHOLDS})


class ConfigError(ValueError):
    """Configuration or schema problem; maps to exit code 2."""


def pauli_catalog() -> list[tuple[str, Operator]]:
    """Single-qubit observables analyzed for synchronization."""
    return [
        ("sigma_x", pauli("x")),
        ("sigma_y", pauli("y")),
        ("sigma_z", pauli("z")),
    ]


def moment_catalog(n: int) -> list[tuple[str, Operator]]:
    """Single-mode moments up to quadratic order on an n-level truncation.

    The quadratic entries are matrix polynomials of the truncated x and p,
    so algebraic identities like [x, x2] = 0 hold exactly on the truncated
    space.
    """
    x = position(n)
    p = momentum(n)
    a = destroy(n)
    return [
        ("x", x),
        ("p", p),
        ("n", a.dag() @ a),
        ("x2", x @ x),
        ("p2", p @ p),
        ("xpsym", 0.5 * (x @ p + p @ x)),
    ]


def resolve_catalog(spec: str) -> list[tuple[str, Operator]]:
    """The (name, operator) pairs of a catalog spec: 'pauli' or 'moments:<N>'."""
    if spec == "pauli":
        return pauli_catalog()
    if isinstance(spec, str) and spec.startswith("moments:"):
        try:
            n = int(spec.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"bad catalog spec '{spec}'") from None
        try:
            return moment_catalog(n)
        except ValueError as exc:       # n < 2, or over the dimension cap
            raise ConfigError(f"catalog '{spec}': {exc}") from None
    raise ConfigError(f"unknown catalog '{spec}' (use 'pauli' or 'moments:<N>')")


@dataclass(frozen=True)
class OscillationFit:
    """Least-squares cosine fit of one series over one window."""

    frequency: float
    phase: float
    amplitude: float
    offset: float
    residual_rms: float
    oscillating: bool
    diagnostic: str = ""


@dataclass(frozen=True)
class PairVerdict:
    synced: bool
    freq_mismatch: float
    phase_diff: float
    phase_class: str          # in_phase | anti_phase | phase_locked_other
    amplitude_ratio: float | None     # None when it overflows: a zero partner amplitude


def wrap_phase(phi: float) -> float:
    """Wrap to the half-open interval (-pi, pi].

    A wrapped value within 1e-12 rad of -pi reads +pi, so rounding noise
    does not flip the sign of an exactly anti-phase pair.
    """
    out = math.remainder(phi, 2.0 * math.pi)
    return math.pi if out < -math.pi + 1e-12 else out


def _full_solve(t: np.ndarray, y: np.ndarray, omega: float, nuisance: np.ndarray):
    """Least-squares fit of a*cos(omega t) + b*sin(omega t) + nuisance @ c.

    One full-width solve; returns (ssr, coeffs) with coeffs = (a, b, *c).
    """
    design = np.column_stack([np.cos(omega * t), np.sin(omega * t), nuisance])
    coeffs, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coeffs
    return float(resid @ resid), coeffs


def _explained(g00: float, g01: float, g11: float, r0: float, r1: float, cut: float) -> float:
    """r^T G^+ r for the 2x2 Gram matrix G = [[g00, g01], [g01, g11]].

    Eigen-directions of G with eigenvalue <= cut are dropped, as lstsq drops
    singular values below its cutoff, so a block that lies (numerically)
    inside the nuisance span explains nothing instead of dividing by a
    near-zero determinant.
    """
    half_gap = math.hypot(0.5 * (g00 - g11), g01)
    lam1 = 0.5 * (g00 + g11) + half_gap
    if lam1 <= cut:
        return 0.0
    det = g00 * g11 - g01 * g01
    if det > cut * lam1:     # the smaller eigenvalue det / lam1 is kept too
        return (g11 * r0 * r0 - 2.0 * g01 * r0 * r1 + g00 * r1 * r1) / det
    v0, v1 = (lam1 - g11, g01) if g00 >= g11 else (g01, lam1 - g00)
    return (v0 * r0 + v1 * r1) ** 2 / ((v0 * v0 + v1 * v1) * lam1)


class _ProjectedObjective:
    """Residual sum of squares of the cosine-plus-trend fit at trial frequencies.

    Variable projection (Golub & Pereyra, SIAM J. Numer. Anal. 10, 413,
    1973): the nuisance columns are orthonormalised once (thin QR) and y is
    projected against them, so each trial frequency leaves a least-squares
    problem in the two projected columns cos(w t), sin(w t).  Its residual
    sum of squares equals that of the full-width solve.
    """

    def __init__(self, t: np.ndarray, y: np.ndarray, nuisance: np.ndarray):
        n, p = nuisance.shape
        q, r = np.linalg.qr(nuisance)
        y_p = y - q @ (q.T @ y)
        self.y_p = y_p                            # y with the trend projected out
        self._t = t
        self._p = p
        self._basis_y = np.empty((p + 1, n))      # C order; rows: q^T, then y_p
        self._basis_y[:p] = q.T
        self._basis_y[p] = y_p
        self._yy = float(y_p @ y_p)
        self._cs = np.empty((2, n))
        # lstsq's rcond=None cutoff, eps * max(rows, cols) * sigma_max, on
        # eigenvalues of the projected Gram matrix; the full design's
        # sigma_max is at most sqrt(|cos|^2 + |sin|^2 + sigma_max(nuisance)^2)
        # and |cos|^2 + |sin|^2 = n.
        sigma_max = math.sqrt(n + np.linalg.norm(r, 2) ** 2)
        self._cut = (np.finfo(float).eps * max(n, p + 2) * sigma_max) ** 2

    def __call__(self, omega: float) -> float:
        c, s = self._cs
        np.multiply(omega, self._t, out=s)
        np.cos(s, out=c)
        np.sin(s, out=s)
        return self._ssr()

    def grid(self, omegas: np.ndarray) -> list[float]:
        """The SSR at equally spaced frequencies.

        exp(i w_j t) is advanced from row to row by one complex multiply,
        in place of new trig calls.
        """
        z = np.multiply(1j * omegas[0], self._t)
        step = np.multiply(1j * ((omegas[-1] - omegas[0]) / (len(omegas) - 1)), self._t)
        np.exp(z, out=z)
        np.exp(step, out=step)
        out = []
        for j in range(len(omegas)):
            if j:
                z *= step
            self._cs[0] = z.real
            self._cs[1] = z.imag
            out.append(self._ssr())
        return out

    def _ssr(self) -> float:
        cs = self._cs
        a = cs @ self._basis_y.T      # q^T cos, q^T sin and y_p . cos, y_p . sin
        cs -= a[:, :self._p] @ self._basis_y[:self._p]
        c, s = cs
        r0, r1 = a[:, self._p].tolist()
        return self._yy - _explained(float(c @ c), float(c @ s), float(s @ s), r0, r1, self._cut)


def _golden_min(fun, lo: float, hi: float):
    """Deterministic golden-section minimizer on [lo, hi], to a relative width of 1e-8.

    It only compares values, never interpolates them, so every trial point
    lies on a lattice fixed by the bracket: two columns on one mode whose
    comparisons agree end on a bitwise-equal frequency (Brent's steps would not).
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    while (b - a) > 1e-8 * max(abs(a), abs(b), 1e-300):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(d)
    return (a + b) / 2.0


def analysis_window(
    times: np.ndarray, window: tuple[float, float] | None = None
) -> tuple[tuple[float, float], np.ndarray]:
    """`window` (default: the second half of `times`) and the mask of its samples.

    ValueError where the window is empty or too short to fit.
    """
    if window is None:
        window = (times[len(times) // 2], times[-1])
    t0, t1 = float(window[0]), float(window[1])
    if not t1 > t0:
        raise ValueError(f"empty analysis window [{t0}, {t1}]")
    mask = (times >= t0) & (times <= t1)
    n = int(np.count_nonzero(mask))
    if n < MIN_WINDOW_SAMPLES:
        raise ValueError(
            f"window [{t0}, {t1}] contains {n} samples, needs >= {MIN_WINDOW_SAMPLES}"
        )
    return (t0, t1), mask


@np.errstate(all="ignore")     # a fit that overflows is refused below, not warned about
def fit_oscillation(
    times: np.ndarray,
    values: np.ndarray,
    window: tuple[float, float],
    *,
    signal_scale: float | None = None,
) -> OscillationFit:
    """Fit A*cos(w t + phi) + B plus a polynomial background and gate it.

    The cosine is fit jointly with a low-degree polynomial nuisance trend
    (degree DETREND_DEG), since the transients of interest are small
    locked oscillations riding on larger relaxation backgrounds.  The
    frequency is seeded by the discrete-Fourier peak of the detrended
    window and refined locally by variable projection: the trend is
    projected out once per fit, the linear parameters are solved exactly at
    each trial frequency as a 2x2 least-squares problem, and a 33-point
    grid is followed by golden-section refinement to relative tolerance
    1e-8.  Amplitude, phase and offset come from one full-width solve at the
    chosen frequency.  For data that actually is a constant-offset sinusoid
    the trend coefficients vanish and the fit is exact.

    The reported phase refers to t = 0 of the trajectory, so two fits over
    the same window are directly comparable; the reported offset is the
    window average of the non-oscillating part.

    The fit counts as oscillating when it passes three gates: amplitude at
    least AMP_MIN times the signal scale, residual rms at most FIT_TOL
    times the amplitude, and at least MIN_CYCLES periods in the window.
    `signal_scale` sets the amplitude floor; by default the window's own
    peak deviation from its mean is used, but catalog-level analysis passes
    a common scale so that near-zero channels are not self-normalized into
    fake oscillations.

    ValueError if the fit is not finite: values too large for float64
    arithmetic.
    """
    times = np.asarray(times, dtype=float)
    _, mask = analysis_window(times, window)
    t = times[mask]
    y = np.asarray(values, dtype=float)[mask]
    n = len(t)
    dt = np.diff(t)
    if np.max(np.abs(dt - dt[0])) > 1e-6 * dt[0]:
        raise ValueError("fit window requires a uniform sample grid")
    span = t[-1] - t[0]
    t_ref = t[0]
    ts = t - t_ref

    scale = signal_scale
    if scale is None:
        scale = float(np.max(np.abs(y - np.mean(y))))

    u = 2.0 * ts / span - 1.0    # normalized abscissa for conditioning
    nuisance = np.column_stack([u ** k for k in range(DETREND_DEG + 1)])

    # DFT seed on the window with the trend projected out: the seed and the
    # refinement see the same residual oscillation.
    objective = _ProjectedObjective(ts, y, nuisance)
    spectrum = np.abs(np.fft.rfft(objective.y_p))
    k_peak = 1 + int(np.argmax(spectrum[1:]))
    bin_width = 2.0 * math.pi / (n * float(dt[0]))
    omega_seed = k_peak * bin_width

    # Refinement stays local to the seed bin: on trend-dominated data the
    # least-squares objective can be globally minimized by a sub-cycle
    # pseudo-oscillation, which must not hijack a clear spectral line.
    lo = max(1e-3 * bin_width, omega_seed - 0.75 * bin_width)
    hi = min(omega_seed + 0.75 * bin_width, math.pi / float(dt[0]))
    grid = np.linspace(lo, hi, 33)
    i_best = int(np.argmin(objective.grid(grid)))
    g_lo = grid[max(0, i_best - 1)]
    g_hi = grid[min(len(grid) - 1, i_best + 1)]
    omega = _golden_min(objective, g_lo, g_hi)
    del objective       # its buffers would otherwise add to the full solve's peak memory
    ssr, coeffs = _full_solve(ts, y, omega, nuisance)
    ca, cb = coeffs[0], coeffs[1]

    amplitude = float(math.hypot(ca, cb))
    phase_local = math.atan2(-cb, ca)
    phase = wrap_phase(phase_local - omega * t_ref)
    offset = float(coeffs[2]) + float(np.mean(nuisance[:, 1:] @ coeffs[3:]))
    residual_rms = math.sqrt(ssr / n)
    if not all(map(math.isfinite, (omega, phase, amplitude, offset, residual_rms))):
        raise ValueError("the oscillation fit is not finite: values too large for float64")

    diagnostic = ""
    if amplitude < AMP_MIN * scale:
        diagnostic = f"amplitude {amplitude:.3g} below floor {AMP_MIN:.3g} * scale {scale:.3g}"
    elif residual_rms > FIT_TOL * amplitude:
        diagnostic = (f"residual rms {residual_rms:.3g} exceeds "
                      f"{FIT_TOL} * amplitude {amplitude:.3g}")
    elif omega * span < 2.0 * math.pi * MIN_CYCLES:
        diagnostic = (f"only {omega * span / (2 * math.pi):.2f} cycles in window, "
                      f"frequency not resolved (need {MIN_CYCLES})")
    return OscillationFit(float(omega), float(phase), amplitude, offset, residual_rms,
                          oscillating=not diagnostic, diagnostic=diagnostic)


def classify_pair(
    a: OscillationFit, b: OscillationFit, thresholds: AnalysisThresholds = AnalysisThresholds()
) -> PairVerdict:
    """Lock verdict for two fits taken over the same window."""
    f_max = max(a.frequency, b.frequency)
    freq_mismatch = 0.0 if f_max == 0 else abs(a.frequency - b.frequency) / f_max
    synced = bool(a.oscillating and b.oscillating and freq_mismatch <= thresholds.tol_freq)
    phase_diff = wrap_phase(a.phase - b.phase)
    if abs(phase_diff) <= TOL_PHASE:
        phase_class = "in_phase"
    elif abs(abs(phase_diff) - math.pi) <= TOL_PHASE:
        phase_class = "anti_phase"
    else:
        phase_class = "phase_locked_other"
    if b.amplitude > 0:
        amplitude_ratio = a.amplitude / b.amplitude
    else:
        amplitude_ratio = math.inf if a.amplitude > 0 else 1.0
    return PairVerdict(synced, float(freq_mismatch), float(phase_diff), phase_class,
                       amplitude_ratio if math.isfinite(amplitude_ratio) else None)


def independent_subset(ops: list[np.ndarray]) -> list[int]:
    """Greedy Hilbert-Schmidt Gram-Schmidt filter; returns kept indices."""
    kept: list[int] = []
    basis: list[np.ndarray] = []
    for i, op in enumerate(ops):
        vec = np.asarray(op, dtype=complex).ravel()
        norm = np.linalg.norm(vec)
        if norm == 0:
            continue
        resid = vec.copy()
        for e in basis:
            resid -= np.vdot(e, resid) * e
        if np.linalg.norm(resid) > RANK_TOL * norm:
            basis.append(resid / np.linalg.norm(resid))
            kept.append(i)
    return kept


def degree_of_quantumness(ops: list[Operator] | list[np.ndarray]) -> tuple[int, int, int]:
    """(chi, c, xi) for a linearly independent set of Hermitian operators.

    chi is the set size; c the largest number of set members commuting with
    any one member (every operator commutes with itself, so c >= 1 when the
    set is non-empty); xi = chi - c.  An empty set returns (0, 0, 0).
    """
    mats = [op.matrix if isinstance(op, Operator) else np.asarray(op, dtype=complex)
            for op in ops]
    chi = len(mats)
    if chi == 0:
        return 0, 0, 0
    d = mats[0].shape[0]
    for m in mats:
        if m.shape != (d, d):
            raise ValueError("all operators must share one dimension")
        if np.max(np.abs(m - m.conj().T)) > 1e-10:
            raise ValueError("operators must be Hermitian")
    if len(independent_subset(mats)) != chi:
        raise ValueError("operators must be linearly independent")
    c = int(max(sum(np.max(np.abs(a @ b - b @ a)) <= COMM_TOL for b in mats) for a in mats))
    xi = chi - c
    if not 0 <= xi <= d * d - d:
        raise RuntimeError(f"xi={xi} violates the bound 0 <= xi <= {d*d - d}")
    return chi, c, xi


def build_sync_report(
    trajectory,
    catalog: str,
    window: tuple[float, float] | None = None,
    thresholds: AnalysisThresholds = AnalysisThresholds(),
) -> dict:
    """report.json's analysis fields: pairs with fits, synchronized set, chi, c, xi, thresholds.

    `catalog` is a spec that `resolve_catalog` reads, and the trajectory
    must hold columns '<name>_1' and '<name>_2' for every member
    (ConfigError otherwise).  One common signal scale, the largest in-window
    deviation across the whole catalog family, feeds every amplitude gate.
    S holds the members whose two embeddings lock, filtered to a linearly
    independent set; chi, c and xi are counted on it.  `thresholds` records
    exactly the keys of RECORD_KEYS.  A column too large for float64
    arithmetic, in its spread or its fit, is a ValueError that names it.
    """
    members = resolve_catalog(catalog)
    missing = [col for name, _ in members for col in (f"{name}_1", f"{name}_2")
               if col not in trajectory.names]
    if missing:
        raise ConfigError(f"trajectory lacks catalog columns: {', '.join(missing)}")
    times = trajectory.times
    window, mask = analysis_window(times, window)
    series = {f"{name}_{k}": trajectory.column(f"{name}_{k}")
              for name, _ in members for k in (1, 2)}
    scale = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for col, y in series.items():
            yw = y[mask]
            deviation = float(np.max(np.abs(yw - np.mean(yw))))
            if not math.isfinite(deviation):
                raise ValueError(f"column '{col}': values too large for float64")
            scale = max(scale, deviation)

    def fit(col: str) -> OscillationFit:
        try:
            return fit_oscillation(times, series[col], window, signal_scale=scale)
        except ValueError as exc:
            raise ValueError(f"column '{col}': {exc}") from None

    pairs = {}
    synced = []
    for name, op in members:
        fit1, fit2 = fit(f"{name}_1"), fit(f"{name}_2")
        verdict = classify_pair(fit1, fit2, thresholds)
        pairs[name] = {**asdict(verdict), "fit_1": asdict(fit1), "fit_2": asdict(fit2)}
        if verdict.synced:
            synced.append((name, op))
    kept = independent_subset([op.matrix for _, op in synced])
    s = [synced[i] for i in kept]
    chi, c, xi = degree_of_quantumness([op for _, op in s])
    return {
        "pairs": pairs,
        "synchronized_set": [name for name, _ in s],
        "chi": chi,
        "c": c,
        "xi": xi,
        "thresholds": {
            "window": list(window),
            "signal_scale": scale,
            **asdict(thresholds),
            **FIXED_THRESHOLDS,
            "catalog": catalog,
            # truncated continuous-variable catalogs only bound the true
            # synchronized-set cardinality from below
            "chi_lower_bound_only": catalog.startswith("moments:"),
        },
    }
