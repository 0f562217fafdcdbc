"""Time integration of Lindblad master equations, with a dense oracle.

Generator convention: each dissipation channel (rate, L) contributes

    rate * (2 L rho L^dag - L^dag L rho - rho L^dag L)

so the printed rate multiplies the full 2 L rho L^dag form (no extra 1/2).

The generator is assembled once per model as one sparse CSR matrix L acting
on the row-stacked vec(rho) = rho.ravel(), for which
vec(A rho B) = (A kron B^T) vec(rho).  Both `rhs` and `evolve` use it.

`evolve` steps rho in real Hermitian coordinates, Re rho_ii and Re/Im rho_ij
for i < j (D^2 real numbers), under the real generator L_r = R L E built
once from L: E maps the coordinates to the complex vec(rho) and R reads them
back.  A Dormand-Prince 5(4) adaptive stepper advances them in float64, one
CSR matvec per stage.  Only the reachable set is stepped: the entries that
the initial state reaches through L's sparsity pattern, closed under
rho -> rho^dag; every other entry stays exactly zero.  Weak-U(1) couplings
(excitation exchange, pair creation) leave most entries unreachable; a
coherent drive reaches all of them.  The RMS error norm runs over all D^2
coordinates, so pruning does not change the steps taken.

Each sample rebuilds rho = E x, Hermitian by construction, and renormalizes
its trace only when it drifts beyond 1e-10, an explicit policy that keeps
runs bit-reproducible.  Observables are one real matrix applied to x.  A
truncation guard aborts the run when the top Fock level of any bosonic
factor (dimension >= 3) holds more than `guard_threshold` population.

`dense_liouvillian` / `propagate_dense` build the column-stacked
superoperator and advance with scipy's scaling-and-squaring matrix
exponential.  That path shares no stepping code with `evolve` and serves as
the independent cross-validation oracle for small systems.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg import expm

from .opalg import (
    DensityMatrix,
    Operator,
    SpaceLayout,
    _mutual_information,
    spectral_entropy,
)

DEFAULT_REL_TOL = 1e-8
DEFAULT_ABS_TOL = 1e-10
GUARD_THRESHOLD = 1e-4
RENORM_THRESHOLD = 1e-10
ORACLE_CAP = 16


class TruncationError(RuntimeError):
    """Top Fock level of a bosonic factor exceeded the population guard."""


class StepSizeUnderflowError(RuntimeError):
    """Adaptive stepper could not meet tolerances with a representable step."""


@dataclass(frozen=True)
class Tolerances:
    rel: float = DEFAULT_REL_TOL
    abs: float = DEFAULT_ABS_TOL

    def __post_init__(self):
        if self.rel <= 0 or self.abs <= 0:
            raise ValueError("tolerances must be positive")


@dataclass(frozen=True)
class Dissipator:
    """One dissipation channel: rate >= 0 and jump operator L."""

    rate: float
    jump: Operator

    def __post_init__(self):
        if self.rate < 0:
            raise ValueError(f"dissipator rate must be >= 0, got {self.rate}")


@dataclass(frozen=True)
class ModelSpec:
    """Hamiltonian + dissipators + named Hermitian observables.

    All rates and frequencies are dimensionless multiples of
    `reference_rate` (for example the cavity decay rate, or the first
    oscillator frequency); times are in units of its inverse.
    """

    layout: SpaceLayout
    hamiltonian: Operator
    dissipators: tuple[Dissipator, ...]
    observables: tuple[tuple[str, Operator], ...]
    reference_rate: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "dissipators", tuple(self.dissipators))
        object.__setattr__(self, "observables", tuple(self.observables))
        if self.hamiltonian.layout != self.layout:
            raise ValueError("hamiltonian layout does not match model layout")
        h = self.hamiltonian.matrix
        h_defect = float(np.max(np.abs(h - h.conj().T)))
        if h_defect > 1e-10:
            raise ValueError(f"hamiltonian must be Hermitian (defect {h_defect:.3g})")
        names = [name for name, _ in self.observables]
        if len(set(names)) != len(names):
            raise ValueError("observable names must be unique")
        for name, op in self.observables:
            if op.layout != self.layout:
                raise ValueError(f"observable '{name}' layout does not match model")
            if not op.is_hermitian:
                raise ValueError(f"observable '{name}' must be Hermitian")
        for dis in self.dissipators:
            if dis.jump.layout != self.layout:
                raise ValueError("dissipator jump layout does not match model")

    @property
    def dim(self) -> int:
        return self.layout.dim

    def observable_names(self) -> list[str]:
        return [name for name, _ in self.observables]


@dataclass
class Trajectory:
    """Sampled run: uniform time grid, real expectations, diagnostics.

    The diagnostic fields are None for a trajectory re-read from CSV;
    `cli.analyze_csv` fills in `mutual_info` from mutual_info.csv.
    """

    times: np.ndarray
    values: np.ndarray               # [sample, observable]
    names: list[str]
    trace_errors: np.ndarray | None = None   # |tr rho - 1| before the per-sample fix
    min_eigenvalues: np.ndarray | None = None
    final_state: DensityMatrix | None = None
    mutual_info: np.ndarray | None = None
    states: list[DensityMatrix] | None = None
    stats: dict | None = None        # integrator counters, see `evolve`

    def column(self, name: str) -> np.ndarray:
        try:
            idx = self.names.index(name)
        except ValueError:
            raise KeyError(f"trajectory has no observable '{name}'") from None
        return self.values[:, idx]


def _liouvillian(model: ModelSpec) -> sparse.csr_matrix:
    """The model's generator as a CSR matrix on row-stacked vec(rho) = rho.ravel().

    Row stacking gives vec(A rho B) = (A kron B^T) vec(rho).  With
    G = -iH - sum_k rate_k L_k^dag L_k the generator is
    G kron I + I kron G^* + sum_k 2 rate_k L_k kron L_k^*.
    """
    d = model.dim
    eye = sparse.identity(d, format="csr")
    jumps = [(dis.rate, sparse.csr_matrix(dis.jump.matrix)) for dis in model.dissipators]
    g = -1j * sparse.csr_matrix(model.hamiltonian.matrix)
    for rate, l in jumps:
        g = g - rate * (l.conj().T @ l)
    liou = sparse.kron(g, eye, format="csr") + sparse.kron(eye, g.conj(), format="csr")
    for rate, l in jumps:
        liou = liou + 2.0 * rate * sparse.kron(l, l.conj(), format="csr")
    return liou


def _reachable(liou: sparse.csr_matrix, rho0: np.ndarray) -> np.ndarray:
    """Mask of the vec(rho) entries that the nonzero entries of rho0 reach under L.

    Entry i is reached when a structural nonzero L[i, j] links it to a
    reached entry j; the set is also closed under rho -> rho^dag, so it
    holds rho_ij exactly when it holds rho_ji.  Entries outside the mask
    stay exactly zero for all t.
    """
    n = liou.shape[0]
    rows = np.repeat(np.arange(n), np.diff(liou.indptr))
    reach = (rho0 != 0) | (rho0 != 0).T
    while True:
        grown = reach.copy()
        grown.ravel()[rows[reach.ravel()[liou.indices]]] = True
        grown = grown | grown.T
        if np.array_equal(grown, reach):
            return reach.ravel()
        reach = grown


def _hermitian_coordinates(idx: np.ndarray, d: int):
    """Real coordinates of a Hermitian rho supported on the flat indices `idx`.

    `idx` is sorted and closed under (i, j) -> (j, i); coordinate k, at
    idx[k] = (i, j), is Re rho_ij for i <= j and Im rho_ji for i > j.
    Returns (E, sel, imag): vec(rho) = E x with E sparse (D^2 x n), and
    x = R vec(rho) reads entry sel[k] = (min(i, j), max(i, j)), taking its
    imaginary part where imag[k] and its real part elsewhere.
    """
    i, j = np.divmod(idx, d)
    imag = i > j
    sel = np.minimum(i, j) * d + np.maximum(i, j)
    off = i != j
    upper = np.where(imag, 1j, 1.0)
    rows = np.concatenate([sel, (np.maximum(i, j) * d + np.minimum(i, j))[off]])
    cols = np.concatenate([np.arange(len(idx)), np.flatnonzero(off)])
    e = sparse.csr_matrix((np.concatenate([upper, upper[off].conj()]), (rows, cols)),
                          shape=(d * d, len(idx)))
    return e, sel, imag


def _real_generator(rows: sparse.csr_matrix, e, imag: np.ndarray):
    """L_r = R L E as a real CSR matrix, from rows = L[sel], the rows that R reads."""
    m = rows @ e
    m.sort_indices()
    data = np.where(np.repeat(imag, np.diff(m.indptr)), m.data.imag, m.data.real)
    real = sparse.csr_matrix((data, m.indices, m.indptr), shape=m.shape)
    real.eliminate_zeros()
    return real


def rhs(model: ModelSpec, rho: DensityMatrix) -> np.ndarray:
    """d rho/dt for the model's generator; traceless and Hermitian."""
    if rho.layout != model.layout:
        raise ValueError("state layout does not match model layout")
    d = model.dim
    return (_liouvillian(model) @ rho.matrix.ravel()).reshape(d, d)


# Dormand-Prince 5(4) tableau (FSAL).
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    np.array([], dtype=float),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_ERR = np.array(
    [
        35 / 384 - 5179 / 57600,
        0.0,
        500 / 1113 - 7571 / 16695,
        125 / 192 - 393 / 640,
        -2187 / 6784 + 92097 / 339200,
        11 / 84 - 187 / 2100,
        -1 / 40,
    ]
)
_SAFETY = 0.9
_FAC_MIN = 0.2
_FAC_MAX = 5.0
_BETA = 0.04
_ALPHA = 0.2 - 0.75 * _BETA


class _Dopri5:
    """Adaptive 5(4) stepper for dy/dt = L y in float64, FSAL, PI step control.

    y holds the real Hermitian coordinates of rho (or of its reachable
    part) and L is the real generator from `_real_generator`; each stage is
    one sparse matvec K[s] = L @ y_s.  Stage combinations run as BLAS gemv
    against a preallocated stage block.  The RMS norms are taken over all
    `n_full` = D^2 coordinates: each stepped coordinate is scattered to its
    flat index in `idx` and the pruned ones are exact zeros, so the sums
    are grouped, and the steps taken, exactly as in the unpruned run.  The
    counters `matvecs`, `accepted`, `rejected` and `h_min` (the smallest
    accepted step the controller chose; steps cut short to land on t1 are
    not counted) accumulate over the stepper's life.
    """

    def __init__(self, liou: sparse.csr_matrix, rel_tol: float, abs_tol: float,
                 idx: np.ndarray, n_full: int):
        self.liou = liou
        self.rel = rel_tol
        self.abs = abs_tol
        self.idx = idx
        self._full = np.zeros(n_full)
        n = liou.shape[0]
        self.K = np.empty((7, n))
        self._ys = np.empty(n)
        self._acc = np.empty(n)
        self.h = None
        self.err_prev = 1.0
        self.k_valid = False        # K[0] holds f(y) carried over (FSAL)
        self.matvecs = 0
        self.accepted = 0
        self.rejected = 0
        self.h_min = np.inf

    def _rms(self, v: np.ndarray) -> float:
        full = self._full
        full[self.idx] = v
        return float(np.sqrt(np.dot(full, full) / full.size))

    def _initial_step(self, y, span):
        f0 = self.K[0]
        scale = self.abs + self.rel * np.abs(y)
        d0 = self._rms(y / scale)
        d1 = self._rms(f0 / scale)
        h0 = 1e-6 if d1 < 1e-15 else 0.01 * d0 / d1
        h0 = min(h0, span)
        self.K[1] = self.liou @ (y + h0 * f0)
        self.matvecs += 1
        d2 = self._rms((self.K[1] - f0) / scale) / h0
        dmax = max(d1, d2)
        h1 = (0.01 / dmax) ** 0.2 if dmax > 1e-15 else h0 * 100
        return min(100 * h0, h1, span)

    def advance(self, y0: np.ndarray, t0: float, t1: float) -> np.ndarray:
        """Integrate from t0 to t1, landing exactly on t1; returns a new vector."""
        y = np.array(y0, dtype=float)
        k, ys, acc = self.K, self._ys, self._acc
        if not self.k_valid:
            k[0] = self.liou @ y
            self.matvecs += 1
            self.k_valid = True
        if self.h is None:
            self.h = self._initial_step(y, t1 - t0)
        t = t0
        rejects = 0
        while t < t1:
            h = min(self.h, t1 - t)
            if h < 1e-14 * max(abs(t), 1.0):
                raise StepSizeUnderflowError(
                    f"step size underflow at t={t:.6g} (h={h:.3g})"
                )
            for s in range(1, 7):
                np.dot(_DP_A[s], k[:s], out=acc)
                np.multiply(acc, h, out=acc)
                np.add(y, acc, out=ys)
                k[s] = self.liou @ ys
            self.matvecs += 6
            # the last stage input is the 5th-order solution (FSAL pair)
            np.dot(_DP_ERR, k, out=acc)
            np.multiply(acc, h, out=acc)
            scale = self.abs + self.rel * np.maximum(np.abs(y), np.abs(ys))
            np.abs(acc, out=acc)
            acc /= scale
            err = self._rms(acc)
            if err <= 1.0:
                if h == self.h:
                    self.h_min = min(self.h_min, h)
                t += h
                np.copyto(y, ys)
                np.copyto(k[0], k[6])
                err = max(err, 1e-10)
                fac = _SAFETY * err ** (-_ALPHA) * self.err_prev ** _BETA
                self.h = h * min(_FAC_MAX, max(_FAC_MIN, fac))
                self.err_prev = err
                self.accepted += 1
                rejects = 0
            else:
                self.h = h * max(_FAC_MIN, _SAFETY * err ** -0.2)
                self.rejected += 1
                rejects += 1
                if rejects > 50:
                    raise StepSizeUnderflowError(
                        f"50 consecutive step rejections at t={t:.6g}; "
                        "tolerances cannot be met"
                    )
        return y

    def invalidate_fsal(self):
        self.k_valid = False


def _top_level_masks(layout: SpaceLayout) -> list[tuple[str, np.ndarray]]:
    """Diagonal masks selecting the top level of each factor with dim >= 3."""
    masks = []
    dim = layout.dim
    idx = np.arange(dim)
    for slot, d in enumerate(layout.factors):
        if d < 3:
            continue
        stride = int(np.prod(layout.factors[slot + 1:], initial=1))
        level = (idx // stride) % d
        masks.append((layout.labels[slot], level == d - 1))
    return masks


def evolve(
    model: ModelSpec,
    rho0: DensityMatrix,
    t_end: float,
    sample_dt: float,
    tolerances: Tolerances | None = None,
    *,
    mutual_info_pair: tuple[int, int] | None = None,
    keep_states: bool = False,
    guard_threshold: float = GUARD_THRESHOLD,
) -> Trajectory:
    """Integrate the master equation and sample on a uniform grid.

    Parameters
    ----------
    t_end, sample_dt:
        Run length and sample spacing (t_end must be an integer multiple).
    mutual_info_pair:
        Optional pair of factor slots; records the mutual information
        between them at every sample.
    keep_states:
        Store the sampled density matrices (memory scales with n*D^2).

    The returned `stats` dict holds the stepper's `matvecs`,
    `steps_accepted`, `steps_rejected` and `h_min`, the number of stepped
    real `coordinates` against `dim_squared` = D^2, and the number of trace
    `renormalizations`.
    """
    if tolerances is None:
        tolerances = Tolerances()
    if t_end <= 0 or sample_dt <= 0:
        raise ValueError("t_end and sample_dt must be positive")
    if rho0.layout != model.layout:
        raise ValueError("initial state layout does not match model layout")
    if rho0.trace_error() > 1e-8:
        raise ValueError(f"initial state trace error {rho0.trace_error():.3g} > 1e-8")
    if rho0.hermiticity_defect() > 1e-10:
        raise ValueError("initial state is not Hermitian to 1e-10")
    n_samples = int(round(t_end / sample_dt))
    if n_samples < 1 or abs(n_samples * sample_dt - t_end) > 1e-9 * max(t_end, 1.0):
        raise ValueError("t_end must be a positive integer multiple of sample_dt")

    d = model.dim
    liou = _liouvillian(model)
    idx = np.flatnonzero(_reachable(liou, rho0.matrix))
    e, sel, imag = _hermitian_coordinates(idx, d)
    liou = liou[sel]    # only the rows R reads: the full complex L is freed here
    stepper = _Dopri5(_real_generator(liou, e, imag), tolerances.rel, tolerances.abs,
                      idx, d * d)
    del liou
    names = model.observable_names()
    # tr(rho O) = vec(O^T) . E x, real for Hermitian O
    obs = np.array([(e.T @ op.matrix.T.ravel()).real for _, op in model.observables])
    obs = obs.reshape(len(names), len(idx))
    guards = _top_level_masks(model.layout)
    times = np.arange(n_samples + 1) * sample_dt

    values = np.empty((n_samples + 1, len(names)))
    trace_errors = np.empty(n_samples + 1)
    min_eigs = np.empty(n_samples + 1)
    mi = np.empty(n_samples + 1) if mutual_info_pair is not None else None
    # a pair covering every factor leaves rho whole: reuse its spectrum
    mi_whole = mi is not None and set(mutual_info_pair) == set(range(model.layout.nfactors))
    states: list[DensityMatrix] | None = [] if keep_states else None
    renorms = 0
    rho = None

    def record(i: int, x: np.ndarray) -> np.ndarray:
        nonlocal renorms, rho
        rho = (e @ x).reshape(d, d)
        tr = np.trace(rho).real
        trace_errors[i] = abs(tr - 1.0)
        if trace_errors[i] > RENORM_THRESHOLD:
            x = x / tr
            rho = rho / tr
            stepper.invalidate_fsal()
            renorms += 1
        spectrum = np.linalg.eigvalsh(rho)
        min_eigs[i] = spectrum[0]
        values[i] = obs @ x
        for label, mask in guards:
            pop = float(np.sum(rho.real.diagonal()[mask]))
            if pop > guard_threshold:
                raise TruncationError(
                    f"top Fock level of factor '{label}' reached population "
                    f"{pop:.3g} > {guard_threshold:.3g} at t={times[i]:.6g}; "
                    "raise the truncation"
                )
        if mi is not None:
            s_ab = spectral_entropy(spectrum) if mi_whole else None
            mi[i] = _mutual_information(rho, model.layout.factors, (mutual_info_pair[0],),
                                        (mutual_info_pair[1],), s_ab)
        if states is not None:
            states.append(DensityMatrix(model.layout, rho))
        return x

    rho0_vec = rho0.matrix.ravel()
    x = record(0, np.where(imag, rho0_vec[sel].imag, rho0_vec[sel].real))
    for i in range(1, n_samples + 1):
        x = record(i, stepper.advance(x, times[i - 1], times[i]))

    return Trajectory(
        times=times,
        values=values,
        names=names,
        trace_errors=trace_errors,
        min_eigenvalues=min_eigs,
        final_state=DensityMatrix(model.layout, rho),
        mutual_info=mi,
        states=states,
        stats={
            "matvecs": stepper.matvecs,
            "steps_accepted": stepper.accepted,
            "steps_rejected": stepper.rejected,
            "h_min": float(stepper.h_min) if np.isfinite(stepper.h_min) else None,
            "coordinates": len(idx),
            "dim_squared": d * d,
            "renormalizations": renorms,
        },
    )


def dense_liouvillian(model: ModelSpec, cap: int = ORACLE_CAP) -> np.ndarray:
    """Column-stacked superoperator matrix (D^2 x D^2), for D <= cap.

    Column stacking means vec(rho) = rho.ravel(order='F'), for which
    vec(A rho B) = (B^T kron A) vec(rho).
    """
    d = model.dim
    if d > cap:
        raise ValueError(f"dense Liouvillian capped at dimension {cap}, model has {d}")
    eye = np.eye(d, dtype=complex)
    h = model.hamiltonian.matrix
    liou = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for dis in model.dissipators:
        l = dis.jump.matrix
        ldl = l.conj().T @ l
        liou += dis.rate * (
            2.0 * np.kron(l.conj(), l) - np.kron(eye, ldl) - np.kron(ldl.T, eye)
        )
    return liou


def propagate_dense(
    model: ModelSpec, rho0: DensityMatrix, times, cap: int = ORACLE_CAP
) -> list[DensityMatrix]:
    """Oracle propagation exp(L t) vec(rho0) at the given times."""
    if rho0.layout != model.layout:
        raise ValueError("initial state layout does not match model layout")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) == 0 or np.any(np.diff(times) <= 0):
        raise ValueError("times must be a non-empty strictly increasing 1-D grid")
    liou = dense_liouvillian(model, cap=cap)
    d = model.dim
    vec = rho0.matrix.ravel(order="F").astype(complex)
    out = []
    prop_cache: dict[float, np.ndarray] = {}
    t_prev = 0.0
    for t in times:
        dt = t - t_prev
        if dt > 0:
            if dt not in prop_cache:
                prop_cache[dt] = expm(liou * dt)
            vec = prop_cache[dt] @ vec
        t_prev = t
        out.append(DensityMatrix(model.layout, vec.reshape(d, d, order="F")))
    return out
