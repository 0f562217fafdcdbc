"""Operator and density-matrix algebra on finite composite Hilbert spaces.

Everything is dense complex linear algebra.  Target spaces are small (total
dimension of order 100), where dense matrices are both faster and far easier
to validate than sparse or tensor-network representations.

Conventions
-----------
* Qubit basis is ground-first: index 0 is |g>, index 1 is |e>.  Hence
  sigma_z = diag(-1, +1) (so sigma_z|e> = +|e>) and sigma_minus = |g><e|
  coincides with destroy(2).
* Bosonic operators act on an n-level Fock truncation with
  <k-1| a |k> = sqrt(k); x = (a + a^dag)/sqrt(2), p = -i(a - a^dag)/sqrt(2).

All values are immutable after construction (each wraps a write-locked
private copy of the caller's array); operations are pure functions, safe to
share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

HERMITIAN_ATOL = 1e-12
ENTROPY_EIGEN_FLOOR = 1e-12
MAX_DIM = 1024      # total dimension cap: 4x the largest tested space (vdp N=16, D=256)


@dataclass(frozen=True)
class SpaceLayout:
    """Ordered factorization of a composite Hilbert space.

    factors holds the subsystem dimensions, labels a unique name per factor;
    their product, the total dimension, is at most MAX_DIM.
    """

    factors: tuple[int, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        factors = tuple(int(d) for d in self.factors)
        labels = tuple(str(s) for s in self.labels)
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "labels", labels)
        if len(factors) == 0:
            raise ValueError("layout needs at least one factor")
        if any(d < 2 for d in factors):
            raise ValueError(f"every factor dimension must be >= 2, got {factors}")
        if len(labels) != len(factors):
            raise ValueError("labels must match factors one-to-one")
        if len(set(labels)) != len(labels):
            raise ValueError(f"factor labels must be unique, got {labels}")
        if math.prod(factors) > MAX_DIM:
            raise ValueError(f"factors {factors} exceed the dimension cap of {MAX_DIM}")

    @property
    def dim(self) -> int:
        return int(np.prod(self.factors))

    @property
    def nfactors(self) -> int:
        return len(self.factors)

    def sub(self, keep) -> "SpaceLayout":
        keep = tuple(sorted(keep))
        return SpaceLayout(
            tuple(self.factors[i] for i in keep),
            tuple(self.labels[i] for i in keep),
        )


def _lock(matrix: np.ndarray) -> np.ndarray:
    """A read-only private copy: the caller's array stays writeable."""
    out = np.array(matrix, dtype=complex, order="C")
    out.setflags(write=False)
    return out


class Operator:
    """Dense operator on a composite space."""

    __slots__ = ("layout", "matrix")

    def __init__(self, layout: SpaceLayout, matrix):
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"operator matrix must be square, got shape {matrix.shape}")
        if matrix.shape[0] != layout.dim:
            raise ValueError(
                f"matrix dimension {matrix.shape[0]} does not match layout dimension {layout.dim}"
            )
        self.layout = layout
        self.matrix = _lock(matrix)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def is_hermitian(self) -> bool:
        defect = np.max(np.abs(self.matrix - self.matrix.conj().T))
        return bool(defect <= HERMITIAN_ATOL)

    def dag(self) -> "Operator":
        return Operator(self.layout, self.matrix.conj().T)

    def _check_layout(self, other: "Operator"):
        if self.layout != other.layout:
            raise ValueError(
                f"layout mismatch: {self.layout.labels} vs {other.layout.labels}"
            )

    def __add__(self, other: "Operator") -> "Operator":
        self._check_layout(other)
        return Operator(self.layout, self.matrix + other.matrix)

    def __sub__(self, other: "Operator") -> "Operator":
        self._check_layout(other)
        return Operator(self.layout, self.matrix - other.matrix)

    def __mul__(self, scalar) -> "Operator":
        return Operator(self.layout, self.matrix * complex(scalar))

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "Operator":
        return Operator(self.layout, self.matrix / complex(scalar))

    def __matmul__(self, other: "Operator") -> "Operator":
        self._check_layout(other)
        return Operator(self.layout, self.matrix @ other.matrix)

    def __repr__(self):
        return f"Operator(dim={self.dim}, factors={self.layout.factors})"


class DensityMatrix:
    """System state rho: trace-one Hermitian positive matrix."""

    __slots__ = ("layout", "matrix")

    def __init__(self, layout: SpaceLayout, matrix):
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.ndim != 2 or matrix.shape != (layout.dim, layout.dim):
            raise ValueError(
                f"state matrix shape {matrix.shape} does not match layout dimension {layout.dim}"
            )
        self.layout = layout
        self.matrix = _lock(matrix)

    @classmethod
    def from_state_vector(cls, layout: SpaceLayout, vec) -> "DensityMatrix":
        vec = np.asarray(vec, dtype=complex).ravel()
        if vec.size != layout.dim:
            raise ValueError(f"state vector length {vec.size} != layout dimension {layout.dim}")
        norm = np.linalg.norm(vec)
        if norm == 0:
            raise ValueError("state vector must be nonzero")
        vec = vec / norm
        return cls(layout, np.outer(vec, vec.conj()))

    @classmethod
    def product_state(cls, layout: SpaceLayout, amplitudes) -> "DensityMatrix":
        """Pure product state from per-factor amplitude lists (ground first).

        A list shorter than its factor is zero-padded.  A longer list, or
        one whose squared norm is more than 1e-6 from 1, is a ValueError
        whose message starts with the factor's label.
        """
        if len(amplitudes) != layout.nfactors:
            raise ValueError(
                f"need {layout.nfactors} amplitude lists (one per factor), got {len(amplitudes)}"
            )
        vec = np.array([1.0 + 0j])
        for amps, d, label in zip(amplitudes, layout.factors, layout.labels):
            amps = np.asarray(amps, dtype=complex).ravel()
            if amps.size > d:
                raise ValueError(f"{label}: expected at most {d} amplitudes, got {amps.size}")
            norm2 = float(np.sum(np.abs(amps) ** 2))
            if not abs(norm2 - 1.0) <= 1e-6:
                raise ValueError(f"{label}: amplitudes have squared norm {norm2:.6g}, not 1")
            vec = np.kron(vec, np.pad(amps, (0, d - amps.size)))
        return cls.from_state_vector(layout, vec)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def trace(self) -> complex:
        return complex(np.trace(self.matrix))

    def trace_error(self) -> float:
        return abs(self.trace() - 1.0)

    def hermiticity_defect(self) -> float:
        return float(np.max(np.abs(self.matrix - self.matrix.conj().T)))

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim}, factors={self.layout.factors})"


def _single_layout(dim: int, label: str) -> SpaceLayout:
    return SpaceLayout((dim,), (label,))


def destroy(n: int, label: str = "s0") -> Operator:
    layout = _single_layout(n, label)     # refuses n < 2 and n > MAX_DIM before allocating
    mat = np.zeros((n, n), dtype=complex)
    for k in range(1, n):
        mat[k - 1, k] = np.sqrt(k)
    return Operator(layout, mat)


def position(n: int, label: str = "s0") -> Operator:
    a = destroy(n, label).matrix
    return Operator(_single_layout(n, label), (a + a.conj().T) / np.sqrt(2.0))


def momentum(n: int, label: str = "s0") -> Operator:
    a = destroy(n, label).matrix
    return Operator(_single_layout(n, label), -1j * (a - a.conj().T) / np.sqrt(2.0))


def pauli(which: str, label: str = "s0") -> Operator:
    # ground-first basis: |g> = e0, |e> = e1
    mats = {
        "x": np.array([[0, 1], [1, 0]], dtype=complex),
        "y": np.array([[0, 1j], [-1j, 0]], dtype=complex),
        "z": np.array([[-1, 0], [0, 1]], dtype=complex),
        "plus": np.array([[0, 0], [1, 0]], dtype=complex),   # |e><g|
        "minus": np.array([[0, 1], [0, 0]], dtype=complex),  # |g><e|
    }
    if which not in mats:
        raise ValueError(f"unknown pauli kind '{which}'")
    return Operator(_single_layout(2, label), mats[which])


def embed(op: Operator, layout: SpaceLayout, slot: int) -> Operator:
    """Embed a single-factor operator at `slot`, identities elsewhere."""
    if op.layout.nfactors != 1:
        raise ValueError("embed expects a single-factor operator")
    if not 0 <= slot < layout.nfactors:
        raise ValueError(f"slot {slot} out of range for {layout.nfactors} factors")
    if op.dim != layout.factors[slot]:
        raise ValueError(
            f"operator dimension {op.dim} does not match factor "
            f"'{layout.labels[slot]}' of dimension {layout.factors[slot]}"
        )
    mat = np.array([[1.0 + 0j]])
    for i, d in enumerate(layout.factors):
        mat = np.kron(mat, op.matrix if i == slot else np.eye(d, dtype=complex))
    return Operator(layout, mat)


def _marginal(stack: np.ndarray, factors: tuple, keep: tuple) -> np.ndarray:
    """Partial trace onto the sorted slots `keep` of each D x D matrix in a (B, D, D) stack.

    The traced index is summed in one fixed order by elementwise adds, so a
    matrix's marginal does not depend on the stack it sits in.
    """
    n = len(factors)
    traced = [k for k in range(n) if k not in keep]
    dk = math.prod(factors[k] for k in keep)
    dt = math.prod(factors[k] for k in traced)
    order = [0, *(1 + k for k in keep), *(1 + k for k in traced),
             *(1 + n + k for k in keep), *(1 + n + k for k in traced)]
    grouped = stack.reshape((-1,) + factors + factors).transpose(order)
    grouped = grouped.reshape(-1, dk, dt, dk, dt)
    out = grouped[:, :, 0, :, 0].copy()
    for j in range(1, dt):
        out += grouped[:, :, j, :, j]
    return out


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace out all factors not in `keep`; kept factors preserve their order."""
    keep = tuple(sorted(set(int(k) for k in keep)))
    nf = rho.layout.nfactors
    if not keep:
        raise ValueError("keep set must be non-empty")
    if keep[0] < 0 or keep[-1] >= nf:
        raise ValueError(f"keep set {keep} out of range for {nf} factors")
    return DensityMatrix(rho.layout.sub(keep),
                         _marginal(rho.matrix[None], rho.layout.factors, keep)[0])


def expectation(rho: DensityMatrix, a: Operator) -> complex:
    """tr(rho A).  Callers take the real part for Hermitian observables."""
    if rho.layout != a.layout:
        raise ValueError("state and operator layouts do not match")
    return complex(np.einsum("ij,ji->", rho.matrix, a.matrix))


def spectral_entropy(lam: np.ndarray) -> np.ndarray:
    """-sum(lam ln lam) in nats over the eigenvalues above a small floor, along the last axis."""
    lam = np.where(lam > ENTROPY_EIGEN_FLOOR, lam, 1.0)     # 1 ln 1 = 0
    return np.maximum(-np.sum(lam * np.log(lam), axis=-1), 0.0)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Entropy of the spectrum of rho, in nats."""
    if rho.hermiticity_defect() > 1e-8:
        raise ValueError("entropy requires a Hermitian state")
    sym = 0.5 * (rho.matrix + rho.matrix.conj().T)
    return float(spectral_entropy(np.linalg.eigvalsh(sym)))


def _mutual_information(stack: np.ndarray, factors: tuple, part_a: tuple, part_b: tuple,
                        s_ab: np.ndarray | None = None) -> np.ndarray:
    """S(A) + S(B) - S(AB) of each exactly Hermitian matrix in a (B, D, D) stack.

    `part_a` and `part_b` are sorted slot tuples.  Slots in neither part are
    traced out first, and S(A), S(B) come from that AB marginal; `s_ab` is
    S(AB) if already known.
    """
    ab = tuple(sorted(part_a + part_b))
    if len(ab) < len(factors):
        stack = _marginal(stack, factors, ab)
        factors = tuple(factors[k] for k in ab)
        part_a = tuple(ab.index(k) for k in part_a)
        part_b = tuple(ab.index(k) for k in part_b)
    if s_ab is None:
        s_ab = spectral_entropy(np.linalg.eigvalsh(stack))
    s_a, s_b = (spectral_entropy(np.linalg.eigvalsh(_marginal(stack, factors, part)))
                for part in (part_a, part_b))
    return s_a + s_b - s_ab


def mutual_information(rho: DensityMatrix, cut: tuple) -> float:
    """I = S(rho_A) + S(rho_B) - S(rho_AB) in nats across a slot bipartition."""
    part_a = tuple(sorted(int(i) for i in cut[0]))
    part_b = tuple(sorted(int(i) for i in cut[1]))
    nf = rho.layout.nfactors
    if not part_a or not part_b:
        raise ValueError("both sides of the cut must be non-empty")
    if set(part_a) & set(part_b):
        raise ValueError("cut sides overlap")
    if set(part_a) | set(part_b) != set(range(nf)):
        raise ValueError(f"cut must partition all {nf} factors")
    if rho.hermiticity_defect() > 1e-8:
        raise ValueError("entropy requires a Hermitian state")
    sym = 0.5 * (rho.matrix + rho.matrix.conj().T)
    return float(_mutual_information(sym[None], rho.layout.factors, part_a, part_b)[0])


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """(1/2)||rho - sigma||_1 via the eigenvalues of the Hermitian difference."""
    if rho.layout.factors != sigma.layout.factors:
        raise ValueError("trace distance needs states of identical dimensions")
    diff = rho.matrix - sigma.matrix
    diff = 0.5 * (diff + diff.conj().T)
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff))))
