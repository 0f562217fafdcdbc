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
explicit, recorded in every report, and deliberately conservative about
monotone drifts (a decaying exponential must not count as an oscillation).

The analysis reads recorded series only: any `lindblad.Trajectory`, whether
just simulated or re-read from CSV, plus the catalog operators.  Figures of
merit evaluated on states, such as `models.mari_measure`, live with the
models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from .opalg import (
    Operator,
    mutual_information,  # noqa: F401  (public re-export)
)

MIN_WINDOW_SAMPLES = 64


@dataclass(frozen=True)
class AnalysisThresholds:
    """All knobs that turn a trajectory into verdicts.

    tol_freq:    max relative frequency mismatch for a locked pair
    tol_phase:   phase-class half-width (rad) around 0 and pi
    amp_min:     minimum fitted amplitude as a fraction of the signal scale
    fit_tol:     max residual rms as a fraction of the fitted amplitude
    min_cycles:  minimum number of fitted periods inside the window; below
                 this the frequency is not identifiable and the series is
                 treated as non-oscillating
    detrend_deg: degree of the polynomial background removed jointly with
                 the cosine fit (transients ride on relaxation trends; the
                 locked oscillation, not the trend, is what the verdict is
                 about).  With degree 0 the model is a plain cosine plus
                 constant.
    rank_tol:    relative Hilbert-Schmidt tolerance for independence
    comm_tol:    max-entry tolerance for declaring two operators commuting
    """

    tol_freq: float = 0.01
    tol_phase: float = 0.2
    amp_min: float = 1e-3
    fit_tol: float = 0.4
    min_cycles: float = 1.3
    detrend_deg: int = 3
    rank_tol: float = 1e-10
    comm_tol: float = 1e-10


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
    amplitude_ratio: float


def wrap_phase(phi: float) -> float:
    """Wrap to the half-open interval (-pi, pi]."""
    out = math.remainder(phi, 2.0 * math.pi)
    if out <= -math.pi:
        out += 2.0 * math.pi
    return out


def _vp_residual(t: np.ndarray, y: np.ndarray, omega: float, poly: np.ndarray | None = None):
    """Variable-projection solve at fixed omega.

    Fits a*cos(omega t) + b*sin(omega t) + B (+ optional polynomial
    nuisance columns) by linear least squares; returns (ssr, coeffs) with
    coeffs[:3] = (a, b, B).
    """
    cols = [np.cos(omega * t), np.sin(omega * t), np.ones_like(t)]
    if poly is not None:
        cols.extend(poly.T)
    design = np.column_stack(cols)
    coeffs, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coeffs
    return float(resid @ resid), coeffs


def _golden_min(fun, lo: float, hi: float, rel_tol: float = 1e-8):
    """Deterministic golden-section minimizer on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    while (b - a) > rel_tol * max(abs(a), abs(b), 1e-300):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(d)
    return (a + b) / 2.0


def fit_oscillation(
    times: np.ndarray,
    values: np.ndarray,
    window: tuple[float, float],
    thresholds: AnalysisThresholds | None = None,
    *,
    signal_scale: float | None = None,
) -> OscillationFit:
    """Fit A*cos(w t + phi) + B plus a polynomial background and gate it.

    The cosine is fit jointly with a low-degree polynomial nuisance trend
    (`thresholds.detrend_deg`), since the transients of interest are small
    locked oscillations riding on larger relaxation backgrounds.  The
    frequency is seeded by the discrete-Fourier peak of the detrended
    window and refined locally by variable projection (linear parameters
    solved exactly at each trial frequency, golden-section refinement to
    relative tolerance 1e-6).  For data that actually is a constant-offset
    sinusoid the trend coefficients vanish and the fit is exact.

    The reported phase refers to t = 0 of the trajectory, so two fits over
    the same window are directly comparable; the reported offset is the
    window average of the non-oscillating part.

    `signal_scale` sets the amplitude floor; by default the window's own
    peak deviation from its mean is used, but catalog-level analysis passes
    a common scale so that near-zero channels are not self-normalized into
    fake oscillations.
    """
    if thresholds is None:
        thresholds = AnalysisThresholds()
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    t0, t1 = float(window[0]), float(window[1])
    if not t1 > t0:
        raise ValueError(f"empty analysis window [{t0}, {t1}]")
    mask = (times >= t0) & (times <= t1)
    n = int(np.count_nonzero(mask))
    if n < MIN_WINDOW_SAMPLES:
        raise ValueError(
            f"window [{t0}, {t1}] contains {n} samples, needs >= {MIN_WINDOW_SAMPLES}"
        )
    t = times[mask]
    y = values[mask]
    dt = np.diff(t)
    if np.max(np.abs(dt - dt[0])) > 1e-6 * dt[0]:
        raise ValueError("fit window requires a uniform sample grid")
    span = t[-1] - t[0]
    t_ref = t[0]
    ts = t - t_ref

    scale = signal_scale
    if scale is None:
        scale = float(np.max(np.abs(y - np.mean(y))))

    deg = int(thresholds.detrend_deg)
    if deg > 0:
        u = 2.0 * ts / span - 1.0    # normalized abscissa for conditioning
        poly = np.column_stack([u ** k for k in range(1, deg + 1)])
    else:
        poly = None

    # DFT seed on the polynomial-detrended window; the same background is
    # removed here and in the fit, so the seed and the refinement see the
    # same residual oscillation.
    y_det = y - np.polyval(np.polyfit(ts, y, max(deg, 1)), ts)
    spectrum = np.abs(np.fft.rfft(y_det))
    if len(spectrum) < 2:
        raise ValueError("window too short for a spectral seed")
    k_peak = 1 + int(np.argmax(spectrum[1:]))
    bin_width = 2.0 * math.pi / (n * float(dt[0]))
    omega_seed = k_peak * bin_width

    # Refinement stays local to the seed bin: on trend-dominated data the
    # least-squares objective can be globally minimized by a sub-cycle
    # pseudo-oscillation, which must not hijack a clear spectral line.
    lo = max(1e-3 * bin_width, omega_seed - 0.75 * bin_width)
    hi = min(omega_seed + 0.75 * bin_width, math.pi / float(dt[0]))
    grid = np.linspace(lo, hi, 33)
    ssrs = [_vp_residual(ts, y, w, poly)[0] for w in grid]
    i_best = int(np.argmin(ssrs))
    g_lo = grid[max(0, i_best - 1)]
    g_hi = grid[min(len(grid) - 1, i_best + 1)]
    omega = _golden_min(lambda w: _vp_residual(ts, y, w, poly)[0], g_lo, g_hi)
    ssr, coeffs = _vp_residual(ts, y, omega, poly)
    ca, cb, const = coeffs[0], coeffs[1], coeffs[2]

    amplitude = float(math.hypot(ca, cb))
    phase_local = math.atan2(-cb, ca)
    phase = wrap_phase(phase_local - omega * t_ref)
    offset = float(const)
    if poly is not None:
        offset += float(np.mean(poly @ coeffs[3:]))
    residual_rms = math.sqrt(ssr / n)

    oscillating = True
    diagnostic = ""
    if amplitude < thresholds.amp_min * scale:
        oscillating = False
        diagnostic = (
            f"amplitude {amplitude:.3g} below floor "
            f"{thresholds.amp_min:.3g} * scale {scale:.3g}"
        )
    elif residual_rms > thresholds.fit_tol * amplitude:
        oscillating = False
        diagnostic = (
            f"residual rms {residual_rms:.3g} exceeds "
            f"{thresholds.fit_tol} * amplitude {amplitude:.3g}"
        )
    elif omega * span < 2.0 * math.pi * thresholds.min_cycles:
        oscillating = False
        diagnostic = (
            f"only {omega * span / (2 * math.pi):.2f} cycles in window, "
            f"frequency not resolved (need {thresholds.min_cycles})"
        )
    return OscillationFit(
        frequency=float(omega),
        phase=float(phase),
        amplitude=amplitude,
        offset=offset,
        residual_rms=residual_rms,
        oscillating=oscillating,
        diagnostic=diagnostic,
    )


def classify_pair(
    a: OscillationFit, b: OscillationFit, thresholds: AnalysisThresholds | None = None
) -> PairVerdict:
    """Lock verdict for two fits taken over the same window."""
    if thresholds is None:
        thresholds = AnalysisThresholds()
    f_max = max(a.frequency, b.frequency)
    freq_mismatch = 0.0 if f_max == 0 else abs(a.frequency - b.frequency) / f_max
    synced = bool(a.oscillating and b.oscillating and freq_mismatch <= thresholds.tol_freq)
    phase_diff = wrap_phase(a.phase - b.phase)
    if abs(phase_diff) <= thresholds.tol_phase:
        phase_class = "in_phase"
    elif abs(abs(phase_diff) - math.pi) <= thresholds.tol_phase:
        phase_class = "anti_phase"
    else:
        phase_class = "phase_locked_other"
    if b.amplitude > 0:
        amplitude_ratio = a.amplitude / b.amplitude
    else:
        amplitude_ratio = math.inf if a.amplitude > 0 else 1.0
    return PairVerdict(
        synced=synced,
        freq_mismatch=float(freq_mismatch),
        phase_diff=float(phase_diff),
        phase_class=phase_class,
        amplitude_ratio=float(amplitude_ratio),
    )


def independent_subset(
    ops: list[np.ndarray], rank_tol: float = 1e-10
) -> list[int]:
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
        if np.linalg.norm(resid) > rank_tol * norm:
            basis.append(resid / np.linalg.norm(resid))
            kept.append(i)
    return kept


@dataclass
class SetAnalysis:
    """Intermediate result of synchronized-set construction."""

    fits: dict[str, OscillationFit]
    verdicts: dict[str, PairVerdict]
    names: list[str]              # synchronized, independence-filtered
    operators: list[Operator]
    signal_scale: float


def synchronized_set(
    trajectory,
    catalog: list[tuple[str, Operator]],
    window: tuple[float, float],
    thresholds: AnalysisThresholds | None = None,
) -> SetAnalysis:
    """Build S: catalog members whose two embeddings lock, made independent.

    The trajectory must contain columns '<name>_1' and '<name>_2' for every
    catalog entry.  One common signal scale (the largest in-window deviation
    across the whole catalog family) feeds every amplitude gate.
    """
    if thresholds is None:
        thresholds = AnalysisThresholds()
    times = trajectory.times
    t0, t1 = window
    mask = (times >= t0) & (times <= t1)
    if not np.any(mask):
        raise ValueError(f"window [{t0}, {t1}] contains no samples")

    scale = 0.0
    series = {}
    for name, _ in catalog:
        for k in (1, 2):
            col = f"{name}_{k}"
            y = trajectory.column(col)
            series[col] = y
            yw = y[mask]
            scale = max(scale, float(np.max(np.abs(yw - np.mean(yw)))))

    fits: dict[str, OscillationFit] = {}
    verdicts: dict[str, PairVerdict] = {}
    synced_names: list[str] = []
    for name, _ in catalog:
        fit1 = fit_oscillation(times, series[f"{name}_1"], window, thresholds,
                               signal_scale=scale)
        fit2 = fit_oscillation(times, series[f"{name}_2"], window, thresholds,
                               signal_scale=scale)
        fits[f"{name}_1"] = fit1
        fits[f"{name}_2"] = fit2
        verdict = classify_pair(fit1, fit2, thresholds)
        verdicts[name] = verdict
        if verdict.synced:
            synced_names.append(name)

    ops_by_name = dict(catalog)
    candidates = [ops_by_name[name].matrix for name in synced_names]
    kept = independent_subset(candidates, thresholds.rank_tol)
    names = [synced_names[i] for i in kept]
    return SetAnalysis(
        fits=fits,
        verdicts=verdicts,
        names=names,
        operators=[ops_by_name[n] for n in names],
        signal_scale=scale,
    )


def degree_of_quantumness(
    ops: list[Operator] | list[np.ndarray],
    comm_tol: float = 1e-10,
    rank_tol: float = 1e-10,
) -> tuple[int, int, int]:
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
    if len(independent_subset(mats, rank_tol)) != chi:
        raise ValueError("operators must be linearly independent")
    commute = np.zeros((chi, chi), dtype=bool)
    for i in range(chi):
        for j in range(i, chi):
            defect = np.max(np.abs(mats[i] @ mats[j] - mats[j] @ mats[i]))
            commute[i, j] = commute[j, i] = defect <= comm_tol
    c = int(np.max(np.sum(commute, axis=1)))
    xi = chi - c
    if not 0 <= xi <= d * d - d:
        raise RuntimeError(f"xi={xi} violates the bound 0 <= xi <= {d*d - d}")
    return chi, c, xi


def build_sync_report(
    trajectory,
    catalog: list[tuple[str, Operator]],
    window: tuple[float, float],
    thresholds: AnalysisThresholds | None = None,
    notes: dict | None = None,
) -> dict:
    """report.json's analysis fields: pairs with fits, synchronized set, chi, c, xi, thresholds."""
    if thresholds is None:
        thresholds = AnalysisThresholds()
    analysis = synchronized_set(trajectory, catalog, window, thresholds)
    chi, c, xi = degree_of_quantumness(
        analysis.operators, comm_tol=thresholds.comm_tol, rank_tol=thresholds.rank_tol
    )
    return {
        "pairs": {
            name: {
                **asdict(verdict),
                "fit_1": asdict(analysis.fits[f"{name}_1"]),
                "fit_2": asdict(analysis.fits[f"{name}_2"]),
            }
            for name, verdict in analysis.verdicts.items()
        },
        "synchronized_set": analysis.names,
        "chi": chi,
        "c": c,
        "xi": xi,
        "thresholds": {
            "window": [float(window[0]), float(window[1])],
            "signal_scale": analysis.signal_scale,
            **asdict(thresholds),
            **(notes or {}),
        },
    }
