import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entforge.core import (
    Bipartition,
    DensityMatrix,
    ProjectorAccumulator,
    StateVector,
    ValidationError,
    apply_one_qubit_gate,
    apply_two_qubit_phase,
    fidelity,
    hermitian_eigenvalues,
    partial_transpose,
    reduced_density_matrix,
    trace_norm,
    von_neumann_entropy,
)

H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)


def random_state(n_qubits, seed):
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(2**n_qubits) + 1j * rng.standard_normal(2**n_qubits)
    return StateVector(n_qubits, amps / np.linalg.norm(amps))


def random_unitary_2x2(seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def bell_state():
    return StateVector(2, np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2))


class TestStateVector:
    def test_basis_state(self):
        psi = StateVector.basis_state(3, 5)
        assert psi.amplitudes[5] == 1.0
        assert psi.dim == 8

    def test_rejects_wrong_length(self):
        with pytest.raises(ValidationError):
            StateVector(2, np.ones(3, dtype=complex))

    def test_rejects_unnormalized(self):
        with pytest.raises(ValidationError):
            StateVector(1, np.array([1.0, 1.0]))


class TestOneQubitGate:
    def test_identity_leaves_state(self):
        psi = random_state(3, 1)
        out = apply_one_qubit_gate(psi, 1, np.eye(2))
        np.testing.assert_allclose(out.amplitudes, psi.amplitudes)

    def test_x_flips_zero(self):
        out = apply_one_qubit_gate(StateVector.basis_state(1, 0), 0, X)
        np.testing.assert_allclose(out.amplitudes, [0, 1])

    def test_hadamard_on_zero(self):
        out = apply_one_qubit_gate(StateVector.basis_state(1, 0), 0, H)
        np.testing.assert_allclose(out.amplitudes, [1 / np.sqrt(2), 1 / np.sqrt(2)])
        assert abs(np.linalg.norm(out.amplitudes) - 1) < 1e-12

    def test_qubit_indexing_is_lsb(self):
        # X on qubit 1 of |00> must give |10> = index 2
        out = apply_one_qubit_gate(StateVector.basis_state(2, 0), 1, X)
        np.testing.assert_allclose(out.amplitudes, [0, 0, 1, 0])

    def test_out_of_range_qubit(self):
        with pytest.raises(ValidationError):
            apply_one_qubit_gate(random_state(2, 0), 2, X)

    def test_non_unitary_rejected(self):
        # refused for the gate itself, before the state's norm check sees it
        bad = np.array([[1, 0], [0, 2]], dtype=complex)
        with pytest.raises(ValidationError, match="not unitary"):
            apply_one_qubit_gate(random_state(1, 0), 0, bad)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 6), data=st.data())
    def test_norm_preserved_by_random_unitary(self, seed, n, data):
        qubit = data.draw(st.integers(0, n - 1))
        psi = random_state(n, seed)
        out = apply_one_qubit_gate(psi, qubit, random_unitary_2x2(seed + 1))
        assert abs(np.linalg.norm(out.amplitudes) - 1) < 1e-12


class TestTwoQubitPhase:
    def test_zero_phases_identity(self):
        psi = random_state(3, 2)
        out = apply_two_qubit_phase(psi, 0, 2, (0, 0, 0, 0))
        np.testing.assert_allclose(out.amplitudes, psi.amplitudes)

    def test_controlled_z_action(self):
        out = apply_two_qubit_phase(StateVector.basis_state(2, 3), 0, 1, (0, 0, 0, np.pi))
        np.testing.assert_allclose(out.amplitudes, [0, 0, 0, -1], atol=1e-15)

    def test_phase_on_one_branch(self):
        out = apply_two_qubit_phase(bell_state(), 0, 1, (0, 0, 0, np.pi / 2))
        expected = np.array([1, 0, 0, 1j]) / np.sqrt(2)
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-15)

    def test_phase_ordering_convention(self):
        # phases[2*b1 + b2]: |01> on (q1, q2) = (1, 0) has b1=0, b2=1 -> slot 1
        psi = StateVector.basis_state(2, 1)
        out = apply_two_qubit_phase(psi, 1, 0, (0, np.pi / 3, 0, 0))
        np.testing.assert_allclose(out.amplitudes[1], np.exp(1j * np.pi / 3))

    def test_same_qubit_rejected(self):
        with pytest.raises(ValidationError):
            apply_two_qubit_phase(random_state(2, 0), 1, 1, (0, 0, 0, 0))


class TestBipartition:
    def test_canonical_requires_qubit0(self):
        with pytest.raises(ValidationError):
            Bipartition(4, 0b0110)

    def test_rejects_full_and_empty(self):
        with pytest.raises(ValidationError):
            Bipartition(2, 0b11)
        with pytest.raises(ValidationError):
            Bipartition(2, 0)

    def test_balanced_flag(self):
        assert Bipartition(4, 0b0011).is_balanced
        assert not Bipartition(4, 0b0001).is_balanced

    def test_qubit_lists(self):
        part = Bipartition.from_qubits(4, [0, 2])
        assert part.qubits_a == (0, 2)
        assert part.qubits_b == (1, 3)


class TestReducedDensityMatrix:
    def test_product_state_is_pure_projector(self):
        rho = reduced_density_matrix(StateVector.basis_state(2, 0), Bipartition(2, 0b01))
        np.testing.assert_allclose(rho.matrix, [[1, 0], [0, 0]], atol=1e-15)

    def test_bell_state_maximally_mixed(self):
        rho = reduced_density_matrix(bell_state(), Bipartition(2, 0b01))
        np.testing.assert_allclose(rho.matrix, np.eye(2) / 2, atol=1e-12)

    def test_pure_and_density_paths_agree(self):
        psi = random_state(4, 7)
        part = Bipartition.from_qubits(4, [0, 3])
        via_state = reduced_density_matrix(psi, part)
        via_matrix = reduced_density_matrix(DensityMatrix.from_pure(psi), part)
        np.testing.assert_allclose(via_state.matrix, via_matrix.matrix, atol=1e-12)

    def test_schmidt_spectra_match_both_sides(self):
        psi = random_state(4, 11)
        for mask in (0b0011, 0b0101, 0b1001):
            part = Bipartition(4, mask)
            eig_a = hermitian_eigenvalues(reduced_density_matrix(psi, part, "a").matrix)
            eig_b = hermitian_eigenvalues(reduced_density_matrix(psi, part, "b").matrix)
            np.testing.assert_allclose(eig_a, eig_b, atol=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            reduced_density_matrix(random_state(3, 0), Bipartition(2, 0b01))


class TestPartialTranspose:
    def test_product_state_stays_psd(self):
        rho_a = np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex)
        rho_b = np.array([[0.5, 0.1j], [-0.1j, 0.5]], dtype=complex)
        rho = DensityMatrix(2, np.kron(rho_b, rho_a))  # qubit 0 = A
        pt = partial_transpose(rho, Bipartition(2, 0b01))
        assert hermitian_eigenvalues(pt)[0] > -1e-12

    def test_bell_projector_eigenvalues(self):
        rho = DensityMatrix.from_pure(bell_state())
        pt = partial_transpose(rho, Bipartition(2, 0b01))
        eigs = hermitian_eigenvalues(pt)
        np.testing.assert_allclose(eigs, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_involution(self):
        psi = random_state(4, 3)
        rho = DensityMatrix.from_pure(psi)
        part = Bipartition(4, 0b0101)
        twice = partial_transpose(DensityMatrix(4, partial_transpose(rho, part)), part)
        np.testing.assert_allclose(twice, rho.matrix, atol=1e-15)

    def test_trace_preserved(self):
        rho = DensityMatrix.from_pure(random_state(3, 9))
        pt = partial_transpose(rho, Bipartition(3, 0b001))
        assert abs(np.trace(pt) - 1.0) < 1e-12

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_involution_property(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        psi = random_state(n, seed)
        mask = int(rng.integers(1, 2**n - 1)) | 1
        if mask == 2**n - 1:
            mask = 1
        part = Bipartition(n, mask)
        rho = DensityMatrix.from_pure(psi)
        pt = partial_transpose(rho, part)
        assert abs(np.trace(pt) - 1.0) < 1e-10
        twice = partial_transpose(DensityMatrix(n, pt), part)
        np.testing.assert_allclose(twice, rho.matrix, atol=1e-15)


class TestEntropyAndNorms:
    def test_pure_projector_zero_entropy(self):
        rho = DensityMatrix.from_pure(random_state(2, 5))
        assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-9)

    def test_maximally_mixed(self):
        for m in (1, 2, 3):
            rho = DensityMatrix(m, np.eye(2**m, dtype=complex) / 2**m)
            assert von_neumann_entropy(rho) == pytest.approx(m, abs=1e-12)

    def test_entropy_symmetry_for_pure_states(self):
        psi = random_state(6, 13)
        for mask in (0b000001, 0b010101, 0b001111):
            part = Bipartition(6, mask)
            s_a = von_neumann_entropy(reduced_density_matrix(psi, part, "a"))
            s_b = von_neumann_entropy(reduced_density_matrix(psi, part, "b"))
            assert abs(s_a - s_b) < 1e-9

    def test_trace_norm_of_density_matrix_is_one(self):
        rho = DensityMatrix.from_pure(random_state(3, 17))
        assert trace_norm(rho.matrix) == pytest.approx(1.0, abs=1e-10)

    def test_trace_norm_of_bell_partial_transpose(self):
        pt = partial_transpose(DensityMatrix.from_pure(bell_state()), Bipartition(2, 0b01))
        assert trace_norm(pt) == pytest.approx(2.0, abs=1e-12)

    def test_trace_norm_zero_matrix(self):
        assert trace_norm(np.zeros((4, 4))) == 0.0

    def test_non_hermitian_rejected(self):
        bad = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(ValidationError):
            trace_norm(bad)


class TestHermitianEigenvaluesOfAStack:
    @staticmethod
    def hermitian_stack(count, dim, seed):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((count, dim, dim)) + 1j * rng.standard_normal((count, dim, dim))
        return m + m.conj().swapaxes(-1, -2)  # Hermitian bit for bit

    def test_rejects_one_matrix_beyond_tolerance(self):
        stack = self.hermitian_stack(4, 8, 0)
        stack[2, 0, 3] += 2e-9
        with pytest.raises(ValidationError, match="asymmetry"):
            hermitian_eigenvalues(stack)

    def test_rounding_asymmetry_gives_each_matrix_its_own_eigenvalues(self):
        stack = self.hermitian_stack(4, 8, 1)
        stack[1, 2, 5] += 3e-13
        stack[1, 4, 4] += 1e-14j
        eigs = hermitian_eigenvalues(stack)
        assert eigs.shape == (4, 8)
        for matrix, values in zip(stack, eigs):
            np.testing.assert_array_equal(values, hermitian_eigenvalues(matrix))
        symmetrized = 0.5 * (stack[1] + stack[1].conj().T)
        np.testing.assert_array_equal(eigs[1], np.linalg.eigvalsh(symmetrized))


class TestFidelity:
    def test_self_fidelity_one(self):
        psi = random_state(3, 19)
        assert fidelity(psi, DensityMatrix.from_pure(psi)) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_states(self):
        a = StateVector.basis_state(2, 0)
        b = StateVector.basis_state(2, 3)
        assert fidelity(a, DensityMatrix.from_pure(b)) == pytest.approx(0.0, abs=1e-14)

    def test_maximally_mixed(self):
        psi = random_state(3, 23)
        rho = DensityMatrix(3, np.eye(8, dtype=complex) / 8)
        assert fidelity(psi, rho) == pytest.approx(1 / 8, abs=1e-12)


class TestProjectorAccumulator:
    def test_single_state_full_weight(self):
        psi = random_state(2, 29)
        acc = ProjectorAccumulator(2)
        acc.add(psi, 1.0)
        rho = acc.finalize()
        np.testing.assert_allclose(rho.matrix, DensityMatrix.from_pure(psi).matrix, atol=1e-14)

    def test_equal_mixture_of_basis_states(self):
        acc = ProjectorAccumulator(1)
        acc.add(StateVector.basis_state(1, 0), 0.5)
        acc.add(StateVector.basis_state(1, 1), 0.5)
        np.testing.assert_allclose(acc.finalize().matrix, np.eye(2) / 2, atol=1e-15)

    def test_repeated_state_stays_pure(self):
        psi = random_state(2, 31)
        acc = ProjectorAccumulator(2)
        for _ in range(8):
            acc.add(psi, 1 / 8)
        rho = acc.finalize()
        np.testing.assert_allclose(rho.matrix, DensityMatrix.from_pure(psi).matrix, atol=1e-13)

    def test_batch_add_matches_loop(self):
        states = [random_state(3, 40 + s) for s in range(5)]
        loop = ProjectorAccumulator(3)
        for s in states:
            loop.add(s, 0.2)
        batch = ProjectorAccumulator(3)
        batch.add_batch(np.column_stack([s.amplitudes for s in states]), 0.2)
        np.testing.assert_allclose(batch.finalize().matrix, loop.finalize().matrix, atol=1e-14)

    def test_incomplete_weight_rejected(self):
        acc = ProjectorAccumulator(1)
        acc.add(StateVector.basis_state(1, 0), 0.5)
        with pytest.raises(ValidationError):
            acc.finalize()

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), count=st.integers(1, 6))
    def test_any_convex_mixture_is_valid(self, seed, count):
        rng = np.random.default_rng(seed)
        weights = rng.dirichlet(np.ones(count))
        acc = ProjectorAccumulator(2)
        for i, w in enumerate(weights):
            acc.add(random_state(2, seed + i), float(w))
        rho = acc.finalize()  # validates Hermitian / trace / PSD
        assert von_neumann_entropy(rho) >= -1e-12
