"""Time integration of Lindblad master equations, with a dense oracle.

Generator convention: each dissipation channel (rate, L) contributes

    rate * (2 L rho L^dag - L^dag L rho - rho L^dag L)

so the printed rate multiplies the full 2 L rho L^dag form (no extra 1/2).

The generator is assembled once per model as one sparse CSR matrix L acting
on the row-stacked vec(rho) = rho.ravel(), for which
vec(A rho B) = (A kron B^T) vec(rho).

`evolve` steps rho in real Hermitian coordinates, Re rho_ii and Re/Im rho_ij
for i < j (D^2 real numbers), under the real generator L_r = R L E built once
from L: E maps the coordinates to the complex vec(rho) and R reads them
back.  A Dormand-Prince 5(4) adaptive stepper advances them in float64, as
the polynomial in hL it is on this linear problem: six CSR matvecs per
accepted step, none per rejected one.  A run whose stepped block holds at
most EXACT_MAX_COORDINATES coordinates, whatever its model (the reduced
pair's 16, the cavity-qubit pair's 169 to 625 at the presets' cap, a vdp
pair up to N = 6 from fig3's state), is instead advanced by
P = exp(L_r dt), formed once for the sample spacing dt by a Taylor scaling
and squaring on the sparse L_r (`_expm`): one dense matvec per sample,
exact to rounding, with no tolerances and no steps.  A larger block (the
cavity-qubit pair at Nc >= 5: 1,681 coordinates and up; fig3's vdp pair:
5,666) is stepped by Dopri5 at the error tolerances REL_TOL and ABS_TOL.
Only the reachable set is stepped: the
entries that the initial state reaches through L's sparsity pattern, closed
under rho -> rho^dag; every other entry stays exactly zero.  Weak-U(1)
couplings (excitation exchange, pair creation) leave most entries
unreachable; a coherent drive reaches all of them.  A model with an
excitation cap (`ModelSpec.excitation_cap`, raised where needed to lie above
the initial state's highest occupied shell) further keeps only the entries
rho_ij whose basis states i and j both hold at most `cap` excitations, the
excitation number of a basis state being the sum of its factors' basis
indices.  Restricting L to that block is the Galerkin projection of the
model onto the capped space, P H P with jumps P L_k P for jumps L_k that
lower the excitation number, so the capped run is itself a trace-preserving
Lindblad evolution; rho stays D x D, with zeros outside the block.

The adaptive stepper steps freely over the whole run: the error norm is the
RMS over the stepped coordinates, and the first trial step is the remaining
span, which the controller's rejections cut down.  The error control alone
sizes each step, and only the last one is cut to land on t_end.  Each
sample y is the 4th-order continuous extension of the step that covers it,
evaluated from that step's powers, so the sample grid does not shape the
steps.
Each sample does only the sequential work:
  * x = y / scale, written into a block: y is the sample the stepper
    yields and scale the product of the renormalizations so far;
  * the trace, one dot of x with the diagonal coordinates;
  * a renormalization when the trace drifts beyond 1e-10, an explicit
    policy that keeps runs bit-reproducible: x /= tr and scale *= tr.
    `evolve` alone owns it.  L_r is linear, so the stepper goes on from
    its own unscaled y and never sees the policy.  On a trace-preserving
    generator both steppers keep tr y to rounding, so it is fault
    recovery, not a step of a normal run.  A trace that is not a finite
    positive number (a propagator that underflowed to zero) is refused
    with a ValueError that names t;
  * the truncation guards: with an excitation cap, one dot with the top
    shell N == cap, and one per bosonic factor (dimension >= 3) whose top
    Fock level lies below the cap, or per bosonic factor without a cap;
    each aborts the run when its top shell or top Fock level holds more
    than GUARD_THRESHOLD population.
Each block of samples then gets the observables (one real matrix product),
rho = E x as a stack, Hermitian by construction, one stacked eigvalsh and
the mutual information.  The rho stack is at most RHO_BLOCK_BYTES.

scipy is imported inside the functions that use it, so that a command
pays for the import only when it needs it.  scipy.sparse is imported by
the three that build the generator, which only `evolve` (run, sweep)
calls: importing this module, parsing a config, building a model and
re-analysing a CSV load no scipy module.  `dense_liouvillian` / `propagate_dense` build the
column-stacked superoperator and advance with scipy's Pade
scaling-and-squaring matrix exponential, imported there only, so that no
run loads scipy.linalg.  That path shares no code with `evolve`'s
propagators and serves as the independent cross-validation oracle for
small systems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .opalg import (
    DensityMatrix,
    Operator,
    SpaceLayout,
    _mutual_information,
    spectral_entropy,
)

if TYPE_CHECKING:     # annotations only: run/sweep import it where a generator is built
    from scipy import sparse

REL_TOL = 1e-8      # the Dopri5 stepper's relative and absolute error tolerances
ABS_TOL = 1e-10
GUARD_THRESHOLD = 1e-4
RENORM_THRESHOLD = 1e-10
ORACLE_CAP = 16
MAX_SAMPLES = 10**6     # 500x the largest preset's 2,001 samples
RHO_BLOCK_BYTES = 256 * 1024    # the recorded rho stack: 1,024 samples at D=4, 1 at D=144
EXACT_MAX_COORDINATES = 1024    # the exact propagator's two dense n x n buffers: 8 MiB each
_TAYLOR_DEGREE = 18     # at ||X||_1 < 1 the Taylor remainder is below 1/19! * e < 2^-53


class TruncationError(RuntimeError):
    """Top Fock level of a bosonic factor, or the top excitation shell, exceeded
    the population guard."""


class StepSizeUnderflowError(RuntimeError):
    """Adaptive stepper could not meet tolerances with a representable step."""


@dataclass(frozen=True)
class Dissipator:
    """One dissipation channel: a finite rate >= 0 and jump operator L."""

    rate: float
    jump: Operator

    def __post_init__(self):
        if not 0 <= self.rate < math.inf:       # NaN too
            raise ValueError(f"dissipator rate must be finite and >= 0, got {self.rate}")


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
    from scipy import sparse
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
    from scipy import sparse
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
    from scipy import sparse
    m = rows @ e
    data = np.where(np.repeat(imag, np.diff(m.indptr)), m.data.imag, m.data.real)
    real = sparse.csr_matrix((data, m.indices, m.indptr), shape=m.shape)
    real.sort_indices()
    real.eliminate_zeros()
    return real


# Dormand-Prince 5(4) (Dormand & Prince 1980) and its 4th-order continuous
# extension (Hairer, Norsett & Wanner, Solving ODEs I, II.6) in power form:
# on dy/dt = L y every stage is a polynomial in hL applied to y, so with
# u_k = L^k y a step of size h from y reads
#   y(t + theta h) = y + sum_{k<=7} h^k u_k sum_{m<=4} D_km theta^m,
# at theta = 1 the stability polynomial y + sum_{k<=6} C_k h^k u_k, with the
# error estimate sum_{k=5..7} E_k h^k u_k.  tests/test_lindblad.py derives
# C, E and D from the published tableau in exact arithmetic.
_DP_C = np.array([1, 1 / 2, 1 / 6, 1 / 24, 1 / 120, 1 / 600])
_DP_E = np.array([-97 / 120000, 13 / 40000, -1 / 24000])
_DP_D = np.array([
    [1, 0, 0, 0],
    [0, 1 / 2, 0, 0],
    [0, 0, 1 / 6, 0],
    [0, 0, 0, 1 / 24],
    [0, 5112093 / 587608460, -90725539 / 3525650760, 22358351 / 881412690],
    [0, -17546271 / 2938042300, 181174829 / 17628253800, -2325839 / 881412690],
    [0, 6769587 / 2938042300, -110615467 / 17628253800, 13999589 / 3525650760],
])
_SAFETY = 0.9
_FAC_MIN = 0.2
_FAC_MAX = 5.0
_BETA = 0.04
_ALPHA = 0.2 - 0.75 * _BETA


class _Dopri5:
    """Adaptive 5(4) stepper for dy/dt = L y in float64, PI step control.

    y holds the real Hermitian coordinates of rho (or of its reachable
    part) and L is the real generator from `_real_generator`.  The block
    `u` holds y and L^k y for k = 1..7: six sparse matvecs per accepted
    step, L y carried over (FSAL), and none for a rejected step.  The error
    norm is the RMS over the stepped coordinates, scaled by the tolerances
    REL_TOL and ABS_TOL, read when the stepper is built.

    `samples` steps freely across a whole sample grid: the first trial step
    is the remaining span, the controller alone sizes the steps, and only
    the last one is cut to land on the grid's end.  Each sample comes from
    the continuous extension of the step that covers it, so the sample
    spacing does not shape the step sequence.
    The counters `matvecs`, `accepted`, `rejected` and `h_min`
    (the smallest accepted step the controller chose; the cut last step is
    not counted) accumulate over the stepper's life.
    """

    name = "dopri5"

    def __init__(self, liou: sparse.csr_matrix):
        self.liou = liou
        self.rel = REL_TOL
        self.abs = ABS_TOL
        self.u = np.zeros((8, liou.shape[0]))
        self.h = None
        self.err_prev = 1.0
        self.matvecs = 0
        self.accepted = 0
        self.rejected = 0
        self.h_min = np.inf

    def _rms(self, v: np.ndarray) -> float:
        return float(np.sqrt(np.dot(v, v) / len(v)))

    def _powers(self, start: int):
        """u[k] = L^k y for k = start..7, from u[start - 1]."""
        for k in range(start, 8):
            self.u[k] = self.liou @ self.u[k - 1]
        self.matvecs += 8 - start

    def samples(self, y0: np.ndarray, times: np.ndarray):
        """Integrate from times[0] to times[-1]; yield (i, y(times[i])) for every i.

        Each yielded vector is the stepper's own storage, valid until the
        next one is asked for.
        """
        u = self.u
        np.copyto(u[0], y0)
        yield 0, u[0]
        self._powers(1)
        t, t_end = times[0], times[-1]
        self.h = t_end - t
        i, last = 0, len(times) - 1
        rejects = 0
        while i < last:
            if self.h < 1e-14 * max(abs(t), 1.0):
                raise StepSizeUnderflowError(
                    f"step size underflow at t={t:.6g} (h={self.h:.3g}); "
                    "tolerances cannot be met: change the model's parameters"
                )
            h = min(self.h, t_end - t)
            hk = h ** np.arange(8)
            c = _DP_C * hk[1:7]
            y_new = u[0] + c @ u[1:7]
            scale = self.abs + self.rel * np.maximum(np.abs(u[0]), np.abs(y_new))
            err = self._rms((_DP_E * hk[5:]) @ u[5:] / scale)
            if not err <= 1.0:     # NaN rejects too
                self.h = h * max(_FAC_MIN, _SAFETY * err ** -0.2)
                self.rejected += 1
                rejects += 1
                if rejects > 50:
                    raise StepSizeUnderflowError(
                        f"50 consecutive step rejections at t={t:.6g}; "
                        "tolerances cannot be met: change the model's parameters"
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
                dense = (np.power.outer(theta, np.arange(1, 5)) @ _DP_D.T * hk[1:]) @ u[1:]
                dense += u[0]
                for row in dense:
                    i += 1
                    yield i, row
            t = t_next
            u[0] = y_new
            u[1] += c @ u[2:8]
            if i < last:
                self._powers(2)


def _squarings(a: sparse.csr_matrix, dt: float) -> int:
    """The least s >= 0 with ||2^-s a dt||_1 < 1 (0 for a non-finite norm)."""
    col_sums = np.bincount(a.indices, np.abs(a.data), minlength=a.shape[1])
    return max(math.frexp(float(col_sums.max(initial=0.0)) * dt)[1], 0)


def _expm(a: sparse.csr_matrix, dt: float) -> np.ndarray:
    """exp(a dt) as a dense array, for a real sparse square a, by scaling and squaring.

    X = 2^-s a dt, with s from `_squarings` and the factor taken by
    math.ldexp so that no power of two overflows.  exp(X) is its Taylor
    polynomial of degree _TAYLOR_DEGREE, whose remainder at ||X||_1 < 1 lies
    below unit roundoff, summed by Horner's rule with one sparse-dense
    product per term; s squarings then give exp(a dt) = exp(X)^(2^s)
    (Moler & Van Loan, SIAM Rev. 45, 3, 2003; Al-Mohy & Higham, SIAM J.
    Matrix Anal. Appl. 31, 970, 2009).  At most two dense n x n buffers are
    live at once.  ValueError if the result is not finite.
    """
    n = a.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        s = _squarings(a, dt)
        x = a * math.ldexp(dt, -s)
        p = x.toarray()
        p /= _TAYLOR_DEGREE
        p.ravel()[::n + 1] += 1.0       # I + X/m
        for k in range(_TAYLOR_DEGREE - 1, 0, -1):
            p = x @ p       # I + X/k (I + X/(k+1) (...)), the old buffer freed
            p /= k
            p.ravel()[::n + 1] += 1.0
        q = np.empty_like(p)
        for _ in range(s):
            np.matmul(p, p, out=q)
            p, q = q, p
    if not np.isfinite(p).all():
        raise ValueError(f"the generator's exponential over dt={dt:.6g} is not finite")
    return p


class _Propagator:
    """Exact sampling of dy/dt = L y on a uniform grid, for a stepped block of
    at most EXACT_MAX_COORDINATES coordinates.

    P = exp(L dt) over the sample spacing dt is formed once, densely, by the
    Taylor scaling and squaring of `_expm`; each sample is then y <- P y,
    one dense matvec, exact to rounding.  It gives `evolve` the slots that
    `_Dopri5` gives: `samples` and the counters.  `matvecs` counts the
    products with P, one per sample after the first; no adaptive step is
    taken, so `accepted` and `rejected` stay 0 and `h_min` inf.
    """

    name = "expm"

    def __init__(self, liou: sparse.csr_matrix, sample_dt: float):
        self.p = _expm(liou, sample_dt)
        self.matvecs = 0
        self.accepted = 0
        self.rejected = 0
        self.h_min = np.inf

    def samples(self, y0: np.ndarray, times: np.ndarray):
        """Yield (i, y(times[i])) for every i of the uniform grid `times`."""
        y = np.asarray(y0, dtype=float)
        yield 0, y
        for i in range(1, len(times)):
            y = self.p @ y
            self.matvecs += 1
            yield i, y


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
    keep_states: bool = False,
) -> Trajectory:
    """Integrate the master equation and sample on a uniform grid.

    Parameters
    ----------
    t_end, sample_dt:
        Run length and sample spacing (t_end must be an integer multiple).
    keep_states:
        Store the sampled density matrices (memory scales with n*D^2).

    A model with an `excitation_cap` steps only the capped block (see the
    module docstring), with the cap raised where needed to lie above rho0's
    highest occupied shell.

    The size of the stepped block alone picks the propagator, for every
    model: a block of at most EXACT_MAX_COORDINATES coordinates is advanced
    sample to sample by P = exp(L_r sample_dt) (`_Propagator`, formed by
    `_expm`), a larger one by the adaptive Dormand-Prince stepper
    (`_Dopri5`) at the tolerances REL_TOL and ABS_TOL, read when `evolve`
    is called; its error norm is the RMS over the stepped coordinates, and
    its first trial step is the remaining span.  Each guard aborts the run
    with a TruncationError when its population exceeds GUARD_THRESHOLD.

    With two or more factors, `mutual_info` records the mutual information
    of factors 0 and 1 at every sample; with one factor it is None.  The
    returned `stats` dict names the `propagator`, 'dopri5' or 'expm', and
    holds its `matvecs` (under 'dopri5' six per accepted step and one to
    start; under 'expm' one product with P per sample after the first),
    `steps_accepted`, `steps_rejected` and `h_min` (0, 0 and None under
    'expm', which takes no adaptive step),
    the number of stepped real `coordinates` against `dim_squared` = D^2,
    the number of trace `renormalizations`, which act on the recorded
    samples alone (see the module docstring; a trace that is not a finite
    positive number is a ValueError), and `top_level_population`,
    the largest population the guard saw on each guarded factor's top level
    and, under the label 'excitations', on the top shell of a capped model
    (see `_guards`).
    """
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
    generator = _real_generator(liou, e, imag)
    del liou
    if len(idx) <= EXACT_MAX_COORDINATES:
        stepper = _Propagator(generator, sample_dt)
    else:
        stepper = _Dopri5(generator)
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
    scale = 1.0     # the product of the renormalizations so far

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
    # an error norm that overflows reads inf or NaN and rejects the step, so
    # parameters too extreme for the tolerances end in StepSizeUnderflowError
    with np.errstate(over="ignore", invalid="ignore"):
        for i, y in stepper.samples(x0, times):
            row = i % len(block)
            x = np.divide(y, scale, out=block[row])
            tr = float(diagonal @ x)
            trace_errors[i] = abs(tr - 1.0)
            if not trace_errors[i] <= RENORM_THRESHOLD:     # a NaN trace too
                if not 0.0 < tr < math.inf:
                    raise ValueError(f"the trace at t={times[i]:.6g} is {tr:.3g}, "
                                     "not a finite positive number")
                x /= tr
                scale *= tr
                renorms += 1
            for label, top, what in guards:
                pop = float(top @ x)
                if pop > GUARD_THRESHOLD:
                    raise TruncationError(
                        f"{what} reached population {pop:.3g} > {GUARD_THRESHOLD:.3g} "
                        f"at t={times[i]:.6g}; raise the truncation"
                    )
                top_pop[label] = max(top_pop[label], pop)
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
            "propagator": stepper.name,
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
    from scipy.linalg import expm     # kept off the import path of every run

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
