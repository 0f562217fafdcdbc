import numpy as np
import pytest

from qsync.opalg import (
    DensityMatrix,
    Operator,
    SpaceLayout,
    destroy,
    embed,
    expectation,
    partial_trace,
    pauli,
    position,
    trace_distance,
    von_neumann_entropy,
)


def qubit_layout(n=1):
    return SpaceLayout((2,) * n, tuple(f"q{i}" for i in range(n)))


class TestSpaceLayout:
    def test_total_dimension(self):
        lay = SpaceLayout((2, 2, 4, 4), ("q1", "q2", "c1", "c2"))
        assert lay.dim == 64

    def test_rejects_dimension_below_two(self):
        with pytest.raises(ValueError):
            SpaceLayout((2, 1), ("a", "b"))

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError):
            SpaceLayout((2, 2), ("a", "a"))

    def test_sub_preserves_order(self):
        lay = SpaceLayout((2, 3, 4), ("a", "b", "c"))
        sub = lay.sub([2, 0])
        assert sub.factors == (2, 4)
        assert sub.labels == ("a", "c")


class TestElementary:
    def test_destroy_ladder_action(self):
        # a|1> = |0> with unit coefficient
        a = destroy(3)
        fock1 = np.array([0.0, 1.0, 0.0])
        out = a.matrix @ fock1
        assert np.allclose(out, [1.0, 0.0, 0.0])

    def test_destroy_matrix_elements(self):
        a = destroy(5).matrix
        for k in range(1, 5):
            assert a[k - 1, k] == pytest.approx(np.sqrt(k))

    def test_pauli_x_squares_to_identity(self):
        sx = pauli("x")
        assert np.allclose((sx @ sx).matrix, np.eye(2))

    def test_position_is_scaled_ladder_sum(self):
        n = 6
        x = position(n)
        a = destroy(n)
        assert np.allclose(x.matrix * np.sqrt(2), a.matrix + a.matrix.conj().T)

    def test_pauli_commutation(self):
        sx, sy, sz = pauli("x"), pauli("y"), pauli("z")
        assert np.allclose((sx @ sy - sy @ sx).matrix, 2j * sz.matrix)

    def test_sigma_z_convention(self):
        # ground-first: sigma_z |e> = +|e>, sigma_z |g> = -|g>
        sz = pauli("z").matrix
        assert sz[0, 0] == -1 and sz[1, 1] == 1

    def test_sigma_minus_lowers(self):
        sm = pauli("minus").matrix
        excited = np.array([0.0, 1.0])
        assert np.allclose(sm @ excited, [1.0, 0.0])

    def test_invalid_dimension_rejected(self):
        with pytest.raises(ValueError):
            destroy(1)
        with pytest.raises(ValueError):
            position(1)

    def test_truncated_ccr_defect_only_at_top(self):
        # [a, a^dag] = 1 except the top diagonal entry on a finite truncation
        n = 5
        a = destroy(n)
        comm = (a @ a.dag() - a.dag() @ a).matrix
        expected = np.eye(n)
        expected[n - 1, n - 1] = 1 - n
        assert np.allclose(comm, expected)


class TestTensorEmbed:
    def test_tensor_dimensions(self):
        lay = SpaceLayout((4, 3), ("a", "b"))
        assert embed(destroy(3), lay, 1).dim == 12

    def test_tensor_of_identities_is_identity(self):
        lay = SpaceLayout((2, 3), ("a", "b"))
        out = embed(Operator(SpaceLayout((2,), ("a",)), np.eye(2)), lay, 0)
        assert np.allclose(out.matrix, np.kron(np.eye(2), np.eye(3)))

    def test_tensor_trace_factorizes(self):
        # operators embedded on distinct slots multiply to the Kronecker product
        rng = np.random.default_rng(7)
        am = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        bm = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        lay = SpaceLayout((3, 2), ("a", "b"))
        a = embed(Operator(SpaceLayout((3,), ("a",)), am), lay, 0)
        b = embed(Operator(SpaceLayout((2,), ("b",)), bm), lay, 1)
        assert np.allclose((a @ b).matrix, np.kron(am, bm))
        assert np.isclose(np.trace((a @ b).matrix), np.trace(am) * np.trace(bm))

    def test_embed_expectation_convention(self):
        # <e g| sigma_z^1 |e g> = +1
        lay = qubit_layout(2)
        sz1 = embed(pauli("z"), lay, 0)
        rho = DensityMatrix.product_state(lay, [(0, 1), (1, 0)])
        assert expectation(rho, sz1).real == pytest.approx(1.0)

    def test_embeds_on_distinct_slots_commute(self):
        lay = SpaceLayout((2, 3), ("q", "m"))
        op1 = embed(pauli("x"), lay, 0)
        op2 = embed(destroy(3), lay, 1)
        assert np.max(np.abs((op1 @ op2 - op2 @ op1).matrix)) < 1e-14

    def test_embed_identity_is_identity(self):
        lay = qubit_layout(2)
        out = embed(Operator(SpaceLayout((2,), ("s0",)), np.eye(2)), lay, 1)
        assert np.allclose(out.matrix, np.eye(4))

    def test_embed_matches_tensor_chain(self):
        # associativity: embedding equals the direct Kronecker construction
        lay = SpaceLayout((2, 3, 2), ("a", "b", "c"))
        op = destroy(3)
        direct = np.kron(np.eye(2), np.kron(op.matrix, np.eye(2)))
        assert np.max(np.abs(embed(op, lay, 1).matrix - direct)) <= 1e-14

    def test_embed_dimension_mismatch(self):
        lay = SpaceLayout((2, 3), ("a", "b"))
        with pytest.raises(ValueError):
            embed(pauli("x"), lay, 1)
        with pytest.raises(ValueError):
            embed(pauli("x"), lay, 5)


class TestPartialTrace:
    def test_product_state_reduces_to_factor(self):
        lay = SpaceLayout((2, 3), ("q", "m"))
        rho = DensityMatrix.product_state(lay, [(0.6, 0.8), (1, 0, 0)])
        red = partial_trace(rho, [0])
        expect = np.outer([0.6, 0.8], [0.6, 0.8])
        assert np.allclose(red.matrix, expect)

    def test_bell_state_reduces_to_maximally_mixed(self):
        lay = qubit_layout(2)
        bell = DensityMatrix.from_state_vector(lay, [1, 0, 0, 1])
        red = partial_trace(bell, [1])
        assert np.allclose(red.matrix, np.eye(2) / 2)

    def test_trace_preserved(self):
        rng = np.random.default_rng(3)
        lay = SpaceLayout((2, 2, 3), ("a", "b", "c"))
        m = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        rho = DensityMatrix(lay, (m @ m.conj().T) / np.trace(m @ m.conj().T).real)
        red = partial_trace(rho, [0, 2])
        assert abs(red.trace() - 1) < 1e-12
        assert red.layout.factors == (2, 3)
        assert np.linalg.eigvalsh(red.matrix)[0] >= -1e-10

    def test_empty_keep_rejected(self):
        lay = qubit_layout(2)
        rho = DensityMatrix(lay, np.eye(4) / 4)
        with pytest.raises(ValueError):
            partial_trace(rho, [])
        with pytest.raises(ValueError):
            partial_trace(rho, [5])


class TestExpectation:
    def test_sigma_z_on_ground(self):
        lay = qubit_layout()
        rho = DensityMatrix.product_state(lay, [(1, 0)])
        assert expectation(rho, Operator(lay, pauli("z").matrix)).real == pytest.approx(-1)

    def test_number_on_vacuum(self):
        lay = SpaceLayout((4,), ("m",))
        rho = DensityMatrix.product_state(lay, [(1, 0, 0, 0)])
        n_op = Operator(lay, (destroy(4).dag() @ destroy(4)).matrix)
        assert abs(expectation(rho, n_op)) < 1e-14

    def test_sigma_x_on_plus(self):
        lay = qubit_layout()
        rho = DensityMatrix.product_state(lay, [(1 / np.sqrt(2), 1 / np.sqrt(2))])
        assert expectation(rho, Operator(lay, pauli("x").matrix)).real == pytest.approx(1.0)

    def test_linear_in_operator(self):
        rng = np.random.default_rng(11)
        lay = SpaceLayout((3,), ("m",))
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        rho = DensityMatrix(lay, (m @ m.conj().T) / np.trace(m @ m.conj().T).real)
        a = Operator(lay, rng.normal(size=(3, 3)))
        b = Operator(lay, rng.normal(size=(3, 3)))
        lhs = expectation(rho, Operator(lay, 2.5 * a.matrix + 0.5j * b.matrix))
        rhs = 2.5 * expectation(rho, a) + 0.5j * expectation(rho, b)
        assert abs(lhs - rhs) <= 1e-12

    def test_layout_mismatch(self):
        rho = DensityMatrix(qubit_layout(), np.eye(2) / 2)
        with pytest.raises(ValueError):
            expectation(rho, Operator(SpaceLayout((3,), ("other",)), np.eye(3)))


class TestCommutator:
    def test_self_commutator_vanishes(self):
        a = destroy(4)
        assert np.max(np.abs((a @ a - a @ a).matrix)) == 0

    def test_antisymmetry_exact(self):
        rng = np.random.default_rng(5)
        lay = SpaceLayout((4,), ("m",))
        a = Operator(lay, rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        b = Operator(lay, rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        assert np.max(np.abs((a @ b - b @ a).matrix + (b @ a - a @ b).matrix)) <= 1e-14


class TestEntropy:
    def test_pure_state_zero(self):
        lay = qubit_layout()
        rho = DensityMatrix.product_state(lay, [(0.6, 0.8)])
        assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-10)

    def test_maximally_mixed_qubit(self):
        rho = DensityMatrix(qubit_layout(), np.eye(2) / 2)
        assert von_neumann_entropy(rho) == pytest.approx(np.log(2), abs=1e-12)

    def test_additive_on_products(self):
        rng = np.random.default_rng(9)

        def random_state(n, label):
            m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            m = m @ m.conj().T
            return DensityMatrix(SpaceLayout((n,), (label,)), m / np.trace(m).real)

        r1 = random_state(2, "a")
        r2 = random_state(3, "b")
        joint = DensityMatrix(
            SpaceLayout((2, 3), ("a", "b")), np.kron(r1.matrix, r2.matrix)
        )
        assert von_neumann_entropy(joint) == pytest.approx(
            von_neumann_entropy(r1) + von_neumann_entropy(r2), abs=1e-10
        )

    def test_entropy_bounds(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            m = m @ m.conj().T
            rho = DensityMatrix(SpaceLayout((n,), ("m",)), m / np.trace(m).real)
            s = von_neumann_entropy(rho)
            assert -1e-10 <= s <= np.log(n) + 1e-10

    def test_non_hermitian_rejected(self):
        lay = qubit_layout()
        rho = DensityMatrix(lay, np.array([[0.5, 0.4], [0.1, 0.5]]))
        with pytest.raises(ValueError):
            von_neumann_entropy(rho)


class TestHelpers:
    def test_hs_inner(self):
        sx, sy = pauli("x"), pauli("y")
        assert np.vdot(sx.matrix, sx.matrix) == pytest.approx(2.0)
        assert abs(np.vdot(sx.matrix, sy.matrix)) < 1e-14

    def test_purity_of_pure_and_mixed(self):
        lay = qubit_layout()
        pure = DensityMatrix.product_state(lay, [(1, 0)])
        mixed = DensityMatrix(lay, np.eye(2) / 2)
        assert np.trace(pure.matrix @ pure.matrix).real == pytest.approx(1.0)
        assert np.trace(mixed.matrix @ mixed.matrix).real == pytest.approx(0.5)

    def test_trace_distance_orthogonal_pure_states(self):
        lay = qubit_layout()
        g = DensityMatrix.product_state(lay, [(1, 0)])
        e = DensityMatrix.product_state(lay, [(0, 1)])
        assert trace_distance(g, e) == pytest.approx(1.0)
        assert trace_distance(g, g) == pytest.approx(0.0, abs=1e-15)

    def test_hermitian_flag_cached(self):
        sx = pauli("x")
        assert sx.is_hermitian
        a = destroy(3)
        assert not a.is_hermitian

    def test_operator_matrices_immutable(self):
        sx = pauli("x")
        with pytest.raises(ValueError):
            sx.matrix[0, 0] = 5.0
