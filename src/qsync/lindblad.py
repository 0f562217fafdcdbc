"""Time integration of Lindblad master equations, with a dense oracle.

Generator convention: each dissipation channel (rate, L) contributes

    rate * (2 L rho L^dag - L^dag L rho - rho L^dag L)

so the printed rate multiplies the full 2 L rho L^dag form (no extra 1/2).

The generator is assembled once per model as one sparse CSR matrix L acting
on the row-stacked vec(rho) = rho.ravel(), for which
vec(A rho B) = (A kron B^T) vec(rho).

`evolve` steps rho in real Hermitian coordinates, Re rho_ii and Re/Im rho_ij
for i < j (D^2 real numbers), under the real generator L_r = R L E built
once from L: E maps the coordinates to the complex vec(rho) and R reads them
back.  A Dormand-Prince 5(4) adaptive stepper advances them in float64, one
CSR matvec per stage.  Only the reachable set is stepped: the entries that
the initial state reaches through L's sparsity pattern, closed under
rho -> rho^dag; every other entry stays exactly zero.  Weak-U(1) couplings
(excitation exchange, pair creation) leave most entries unreachable; a
coherent drive reaches all of them.  A model with an excitation cap
(`ModelSpec.excitation_cap`, raised where needed to lie above the initial
state's highest occupied shell) further keeps only the entries rho_ij whose
basis states i and j both hold at most `cap` excitations, the excitation
number of a basis state being the sum of its factors' basis indices.
Restricting L to that block is the Galerkin projection of the model onto
the capped space, P H P with jumps P L_k P for jumps L_k that lower the
excitation number, so the capped run is itself a trace-preserving Lindblad
evolution; rho stays D x D, with zeros outside the block.  The RMS error
norm divides by D^2, as if the pruned coordinates, exact zeros, were
stepped too, so pruning by reachability changes the steps taken only by
rounding.

The stepper steps freely over the whole run: the error control alone sizes
each step, and only the last one is cut to land on t_end.  Each sample x is
the 4th-order continuous extension of the step that covers it, evaluated
from that step's seven stages, so the sample grid does not shape the steps.
Each sample does only the sequential work:
  * the trace, one dot of x with the diagonal coordinates;
  * a renormalization when the trace drifts beyond 1e-10, an explicit
    policy that keeps runs bit-reproducible.  It divides the sample, the
    stepper state and the stage block by the trace; L_r is linear, so the
    continuous extension and the FSAL stage stay consistent;
  * the truncation guards: with an excitation cap, one dot with the top
    shell N == cap, and one per bosonic factor (dimension >= 3) whose top
    Fock level lies below the cap, or per bosonic factor without a cap;
    each aborts the run when its top shell or top Fock level holds more
    than `guard_threshold` population;
  * a copy of x into a block.
Each block of samples then gets the observables (one real matrix product),
rho = E x as a stack, Hermitian by construction, one stacked eigvalsh and
the mutual information.  The rho stack is at most RHO_BLOCK_BYTES.

`dense_liouvillian` / `propagate_dense` build the column-stacked
superoperator and advance with scipy's scaling-and-squaring matrix
exponential.  That path shares no stepping code with `evolve` and serves as
the independent cross-validation oracle for small systems.
"""

from __future__ import annotations

import math
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
MAX_SAMPLES = 10**6     # 500x the largest preset's 2,001 samples
MIN_REL_TOL = 100 * np.finfo(float).eps     # below it the error estimate is rounding noise
RHO_BLOCK_BYTES = 256 * 1024    # the recorded rho stack: 1,024 samples at D=4, 1 at D=144


class TruncationError(RuntimeError):
    """Top Fock level of a bosonic factor, or the top excitation shell, exceeded
    the population guard."""


class StepSizeUnderflowError(RuntimeError):
    """Adaptive stepper could not meet tolerances with a representable step."""


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

    `catalog` is the spec, 'pauli' or 'moments:<N>' (see
    `models.resolve_catalog`), of the single-subsystem observables whose two
    embeddings '<name>_1', '<name>_2' the model records and a run analyses;
    None for a model without one.

    `excitation_cap`, where set, restricts `evolve` to the basis states
    whose excitation number (see `excitation_numbers`) is at most the cap,
    or at most one above the initial state's highest occupied shell where
    that is higher; None steps the whole space.
    """

    layout: SpaceLayout
    hamiltonian: Operator
    dissipators: tuple[Dissipator, ...]
    observables: tuple[tuple[str, Operator], ...]
    catalog: str | None = None
    excitation_cap: int | None = None

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
    """L_r = R L E as a real CSR matrix, from rows = L[sel], the rows that R reads.

    Row k of L_r is Re(rows_k E), or Im(rows_k E) where imag[k].
    """
    m = rows @ e
    data = np.where(np.repeat(imag, np.diff(m.indptr)), m.data.imag, m.data.real)
    real = sparse.csr_matrix((data, m.indices, m.indptr), shape=m.shape)
    real.sort_indices()
    real.eliminate_zeros()
    return real


# Dormand-Prince 5(4) tableau (FSAL).  The generator does not depend on t,
# so the stage nodes c_s are not needed.
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
# The continuous extension (Dormand & Prince 1986; Hairer, Norsett & Wanner,
# Solving ODEs I, II.6) of a step of size h from y with stages K:
# y(t + theta h) = y + h K^T P [theta, theta^2, theta^3, theta^4], 4th order,
# and equal to the step's 5th-order solution at theta = 1.
_DP_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])
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
    against a preallocated stage block.  The RMS norms divide by `n_full` =
    D^2: the pruned coordinates are exact zeros that add nothing to the sum
    of squares, so the steps taken are those of the unpruned run up to
    rounding.

    `samples` steps freely across a whole sample grid: the controller alone
    sizes the steps, and only the last one is cut to land on the grid's
    end.  Each sample comes from the continuous extension of the step that
    covers it, so the sample spacing does not shape the step sequence.
    `rescale(c)` divides the state, the stage block and the samples of the
    current step by c; L is linear, so the continuous extension and the
    FSAL stage stay consistent.  The counters `matvecs`, `accepted`,
    `rejected` and `h_min` (the smallest accepted step the controller
    chose; the cut last step is not counted) accumulate over the stepper's
    life.
    """

    def __init__(self, liou: sparse.csr_matrix, rel_tol: float, abs_tol: float, n_full: int):
        self.liou = liou
        self.rel = rel_tol
        self.abs = abs_tol
        self.n_full = n_full
        n = liou.shape[0]
        self.K = np.zeros((7, n))
        self._y = np.empty(n)
        self._ys = np.empty(n)
        self._acc = np.empty(n)
        self._dense = np.empty((0, n))      # the current step's samples
        self.h = None
        self.err_prev = 1.0
        self.matvecs = 0
        self.accepted = 0
        self.rejected = 0
        self.h_min = np.inf

    def _rms(self, v: np.ndarray) -> float:
        return float(np.sqrt(np.dot(v, v) / self.n_full))

    def _initial_step(self, y, span):
        f0 = self.K[0]
        scale = self.abs + self.rel * np.abs(y)
        d0 = self._rms(y / scale)
        d1 = self._rms(f0 / scale)
        h0 = 1e-6 if d1 < 1e-15 else 0.01 * d0 / d1
        h0 = min(h0, span)
        if not h0 > 0:      # the scaled derivative overflowed
            raise StepSizeUnderflowError(f"initial step underflow (h={h0:.3g}); "
                                         "tolerances cannot be met")
        self.K[1] = self.liou @ (y + h0 * f0)
        self.matvecs += 1
        d2 = self._rms((self.K[1] - f0) / scale) / h0
        dmax = max(d1, d2)
        h1 = (0.01 / dmax) ** 0.2 if dmax > 1e-15 else h0 * 100
        return min(100 * h0, h1, span)

    def rescale(self, c: float):
        """Divide the state, the stage block and the current samples by c."""
        for a in (self._y, self._ys, self.K, self._dense):
            a /= c

    def samples(self, y0: np.ndarray, times: np.ndarray):
        """Integrate from times[0] to times[-1]; yield (i, y(times[i])) for every i.

        Each yielded vector is the stepper's own storage, valid until the
        next one is asked for; `rescale` divides it too.
        """
        y, ys, k, acc = self._y, self._ys, self.K, self._acc
        np.copyto(y, y0)
        yield 0, y
        k[0] = self.liou @ y
        self.matvecs += 1
        t, t_end = times[0], times[-1]
        self.h = self._initial_step(y, t_end - t)
        i, last = 0, len(times) - 1
        rejects = 0
        while i < last:
            if self.h < 1e-14 * max(abs(t), 1.0):
                raise StepSizeUnderflowError(f"step size underflow at t={t:.6g} (h={self.h:.3g})")
            h = min(self.h, t_end - t)
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
            if not err <= 1.0:     # NaN rejects too
                self.h = h * max(_FAC_MIN, _SAFETY * err ** -0.2)
                self.rejected += 1
                rejects += 1
                if rejects > 50:
                    raise StepSizeUnderflowError(
                        f"50 consecutive step rejections at t={t:.6g}; "
                        "tolerances cannot be met"
                    )
                continue
            if h == self.h:
                self.h_min = min(self.h_min, h)
            t_next = t + h if h < t_end - t else t_end
            err = max(err, 1e-10)
            fac = _SAFETY * err ** (-_ALPHA) * self.err_prev ** _BETA
            self.h = h * min(_FAC_MAX, max(_FAC_MIN, fac))
            self.err_prev = err
            self.accepted += 1
            rejects = 0
            covered = int(np.searchsorted(times, t_next, side="right")) - 1
            if covered > i:
                theta = (times[i + 1:covered + 1] - t) / h
                self._dense = np.power.outer(theta, np.arange(1, 5)) @ _DP_P.T @ k
                self._dense *= h
                self._dense += y
                for row in self._dense:
                    i += 1
                    yield i, row
            t = t_next
            np.copyto(y, ys)
            np.copyto(k[0], k[6])


def excitation_numbers(layout: SpaceLayout) -> np.ndarray:
    """Each basis state's excitation number: the sum of its factors' basis indices.

    With ground-first qubits and photon-counting Fock factors this is the
    total excitation n1 + n2 + ... + e1 + e2 + ... of the state.
    """
    return np.indices(layout.factors).sum(axis=0).ravel()


def _excitation_cap(model: ModelSpec, rho0: DensityMatrix) -> int | None:
    """The cap that `evolve` applies: the model's excitation cap, raised where
    needed to lie above the highest shell that rho0 occupies, so that the top
    shell starts empty; None for a model without a cap."""
    if model.excitation_cap is None:
        return None
    occupied = np.any(rho0.matrix != 0, axis=1)
    top = int(excitation_numbers(model.layout)[occupied].max(initial=0))
    return max(model.excitation_cap, top + 1)


def _guards(layout: SpaceLayout, idx: np.ndarray,
            cap: int | None) -> list[tuple[str, np.ndarray, str]]:
    """The truncation guards over the coordinates at flat indices `idx`.

    Each is (stats label, the 0/1 vector that marks Re rho_ii for the basis
    states it watches, what an abort message calls them).  With an
    excitation cap, one labelled 'excitations' watches the top shell
    N == cap.  Each factor with dim >= 3 gets one on its top Fock level,
    unless that level lies at or above the cap: in the capped block its
    states are then top-shell states, or there are none.
    """
    dim = layout.dim
    i, j = np.divmod(idx, dim)
    diagonal = i == j
    out = []
    if cap is not None:
        top_shell = diagonal & (excitation_numbers(layout)[i] == cap)
        out.append(("excitations", top_shell.astype(float),
                    f"top excitation shell N = {cap}"))
    for slot, d in enumerate(layout.factors):
        if d < 3 or (cap is not None and d - 1 >= cap):
            continue
        label = layout.labels[slot]
        stride = math.prod(layout.factors[slot + 1:])
        out.append((label, (diagonal & ((i // stride) % d == d - 1)).astype(float),
                    f"top Fock level of factor '{label}'"))
    return out


def sample_count(t_end: float, sample_dt: float) -> int:
    """t_end / sample_dt; ValueError unless t_end is a positive integer multiple, to 1e-9,
    of at most MAX_SAMPLES steps."""
    ratio = t_end / sample_dt if t_end > 0 and sample_dt > 0 else 0.0
    n = round(ratio) if math.isfinite(ratio) else 0     # the ratio may overflow
    if n < 1 or abs(n * sample_dt - t_end) > 1e-9 * max(t_end, 1.0):
        raise ValueError("t_end must be a positive integer multiple of sample_dt")
    if n > MAX_SAMPLES:
        raise ValueError(f"t_end / sample_dt = {n} exceeds the cap of {MAX_SAMPLES} samples")
    return n


def sample_grid(t_end: float, sample_dt: float) -> np.ndarray:
    """The sample times 0, sample_dt, ..., t_end; see `sample_count`."""
    return np.arange(sample_count(t_end, sample_dt) + 1) * sample_dt


def evolve(
    model: ModelSpec,
    rho0: DensityMatrix,
    t_end: float,
    sample_dt: float,
    *,
    rel_tol: float = DEFAULT_REL_TOL,
    abs_tol: float = DEFAULT_ABS_TOL,
    keep_states: bool = False,
    guard_threshold: float = GUARD_THRESHOLD,
) -> Trajectory:
    """Integrate the master equation and sample on a uniform grid.

    Parameters
    ----------
    t_end, sample_dt:
        Run length and sample spacing (t_end must be an integer multiple).
    rel_tol, abs_tol:
        The stepper's relative and absolute error tolerances; both positive,
        and rel_tol at least MIN_REL_TOL.
    keep_states:
        Store the sampled density matrices (memory scales with n*D^2).

    A model with an `excitation_cap` steps only the capped block (see the
    module docstring), with the cap raised where needed to lie above rho0's
    highest occupied shell.

    With two or more factors, `mutual_info` records the mutual information
    of factors 0 and 1 at every sample; with one factor it is None.  The
    returned `stats` dict holds the stepper's `matvecs`,
    `steps_accepted`, `steps_rejected` and `h_min`, the number of stepped
    real `coordinates` against `dim_squared` = D^2, the number of trace
    `renormalizations`, and `top_level_population`, the largest population
    the guard saw on each guarded factor's top level and, under the label
    'excitations', on the top shell of a capped model (see `_guards`).
    """
    if not (rel_tol > 0 and abs_tol > 0):
        raise ValueError("tolerances must be positive")
    if rel_tol < MIN_REL_TOL:
        raise ValueError(f"rel_tol {rel_tol:.3g} is below the floor {MIN_REL_TOL:.3g} "
                         "(100 machine epsilons)")
    times = sample_grid(t_end, sample_dt)
    n_samples = len(times) - 1
    if rho0.layout != model.layout:
        raise ValueError("initial state layout does not match model layout")
    if rho0.trace_error() > 1e-8:
        raise ValueError(f"initial state trace error {rho0.trace_error():.3g} > 1e-8")
    if rho0.hermiticity_defect() > 1e-10:
        raise ValueError("initial state is not Hermitian to 1e-10")

    d = model.dim
    cap = _excitation_cap(model, rho0)
    liou = _liouvillian(model)
    reach = _reachable(liou, rho0.matrix)
    if cap is not None:
        inside = excitation_numbers(model.layout) <= cap
        reach &= np.outer(inside, inside).ravel()
    idx = np.flatnonzero(reach)
    e, sel, imag = _hermitian_coordinates(idx, d)
    liou = liou[sel]    # only the rows R reads: the full complex L is freed here
    stepper = _Dopri5(_real_generator(liou, e, imag), rel_tol, abs_tol, d * d)
    del liou
    names = model.observable_names()
    # tr(rho O) = vec(O^T) . E x, real for Hermitian O
    obs = np.array([(e.T @ op.matrix.T.ravel()).real for _, op in model.observables])
    obs = obs.reshape(len(names), len(idx))
    diagonal = (idx // d == idx % d).astype(float)      # tr rho = diagonal . x
    guards = _guards(model.layout, idx, cap)
    top_pop = {label: 0.0 for label, _, _ in guards}

    values = np.empty((n_samples + 1, len(names)))
    trace_errors = np.empty(n_samples + 1)
    min_eigs = np.empty(n_samples + 1)
    factors = model.layout.factors
    mi = np.empty(n_samples + 1) if len(factors) >= 2 else None
    states: list[DensityMatrix] | None = [] if keep_states else None
    block = np.empty((min(max(RHO_BLOCK_BYTES // (16 * d * d), 1), n_samples + 1), len(idx)))
    renorms = 0

    def record_block(start: int, xs: np.ndarray) -> np.ndarray:
        """Record the samples xs, from sample `start` on; returns their rho stack."""
        stop = start + len(xs)
        values[start:stop] = xs @ obs.T
        rho = np.ascontiguousarray((e @ xs.T).T).reshape(len(xs), d, d)
        spectra = np.linalg.eigvalsh(rho)
        min_eigs[start:stop] = spectra[:, 0]
        if mi is not None:
            # with two factors the pair leaves rho whole: reuse its spectrum
            s_ab = spectral_entropy(spectra) if len(factors) == 2 else None
            mi[start:stop] = _mutual_information(rho, factors, (0,), (1,), s_ab)
        if states is not None:
            states.extend(DensityMatrix(model.layout, r) for r in rho)
        return rho

    rho0_vec = rho0.matrix.ravel()
    x0 = np.where(imag, rho0_vec[sel].imag, rho0_vec[sel].real)
    # an error norm that overflows reads inf and rejects the step, so
    # tolerances too tight to meet end in StepSizeUnderflowError
    with np.errstate(over="ignore"):
        for i, x in stepper.samples(x0, times):
            tr = float(diagonal @ x)
            trace_errors[i] = abs(tr - 1.0)
            if trace_errors[i] > RENORM_THRESHOLD:
                stepper.rescale(tr)
                renorms += 1
            for label, top, what in guards:
                pop = float(top @ x)
                if pop > guard_threshold:
                    raise TruncationError(
                        f"{what} reached population {pop:.3g} > {guard_threshold:.3g} "
                        f"at t={times[i]:.6g}; raise the truncation"
                    )
                top_pop[label] = max(top_pop[label], pop)
            row = i % len(block)
            block[row] = x
            if row == len(block) - 1 or i == n_samples:
                rho = record_block(i - row, block[:row + 1])

    return Trajectory(
        times=times,
        values=values,
        names=names,
        trace_errors=trace_errors,
        min_eigenvalues=min_eigs,
        final_state=DensityMatrix(model.layout, rho[-1]),
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
            "top_level_population": top_pop,
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


def propagate_dense(model: ModelSpec, rho0: DensityMatrix, times) -> list[DensityMatrix]:
    """Oracle propagation exp(L t) vec(rho0) at the given times."""
    if rho0.layout != model.layout:
        raise ValueError("initial state layout does not match model layout")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) == 0 or np.any(np.diff(times) <= 0):
        raise ValueError("times must be a non-empty strictly increasing 1-D grid")
    liou = dense_liouvillian(model)
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
