"""Dense pure-state and density-matrix primitives for small qubit registers.

Conventions used throughout the package:

* qubit ``j`` is bit ``j`` of the computational-basis index, so qubit 0 is
  the least significant bit;
* arrays are dense complex128 (chaotic dynamics fills the state; target
  sizes are ``N = 2**n_qubits <= 4096``);
* operations are pure functions of their inputs and safe to call from
  concurrent workers.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NORM_ATOL = 1e-10
TRACE_ATOL = 1e-10
HERMITICITY_ATOL = 1e-9
PSD_ATOL = 1e-8
ENTROPY_EIG_CUTOFF = 1e-12
UNITARITY_ATOL = 1e-10


class ValidationError(ValueError):
    """A state, operator, or argument violates its contract."""


def _popcount(mask: int) -> int:
    return bin(mask).count("1")


@dataclass(frozen=True)
class StateVector:
    """Unit-norm pure state on ``n_qubits`` qubits."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.ascontiguousarray(self.amplitudes, dtype=np.complex128)
        if amps.ndim != 1:
            raise ValidationError(f"amplitudes must be 1-D, got shape {amps.shape}")
        object.__setattr__(self, "amplitudes", amps)
        if self.n_qubits < 1:
            raise ValidationError("n_qubits must be >= 1")
        if amps.shape[0] != 2**self.n_qubits:
            raise ValidationError(
                f"amplitude count {amps.shape[0]} != 2**{self.n_qubits}"
            )
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > NORM_ATOL:
            raise ValidationError(f"state norm {norm} deviates from 1 by > {NORM_ATOL}")

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    @classmethod
    def basis_state(cls, n_qubits: int, index: int) -> StateVector:
        amps = np.zeros(2**n_qubits, dtype=np.complex128)
        amps[index] = 1.0
        return cls(n_qubits, amps)

    def overlap(self, other: StateVector) -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def overlap_probability(self, other: StateVector) -> float:
        """|<self|other>|^2; global-phase-insensitive agreement measure."""
        return float(abs(self.overlap(other)) ** 2)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, PSD operator on ``n_qubits`` qubits."""

    n_qubits: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = np.ascontiguousarray(self.matrix, dtype=np.complex128)
        object.__setattr__(self, "matrix", mat)
        dim = 2**self.n_qubits
        if mat.shape != (dim, dim):
            raise ValidationError(f"matrix shape {mat.shape} != ({dim}, {dim})")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_pure(cls, state: StateVector) -> DensityMatrix:
        amps = state.amplitudes
        return cls(state.n_qubits, np.outer(amps, amps.conj()))

    def validate(self) -> np.ndarray:
        """Check Hermiticity (through ``hermitian_eigenvalues``), unit trace
        within ``TRACE_ATOL`` and positivity within ``PSD_ATOL``; return the
        ascending eigenvalues the check took."""
        eigs = hermitian_eigenvalues(self.matrix)
        trace = complex(np.trace(self.matrix))
        if abs(trace - 1.0) > TRACE_ATOL:
            raise ValidationError(f"trace {trace} deviates from 1 by > {TRACE_ATOL}")
        smallest = float(eigs[0])
        if smallest < -PSD_ATOL:
            raise ValidationError(f"smallest eigenvalue {smallest} < -{PSD_ATOL}")
        return eigs


@dataclass(frozen=True)
class Bipartition:
    """Split of the register into subsystems A and B.

    ``a_mask`` is a bitmask of the qubit indices in A.  The canonical
    representative keeps qubit 0 in A, which removes the A<->B double
    counting when enumerating bipartitions.
    """

    n_qubits: int
    a_mask: int

    def __post_init__(self) -> None:
        full = (1 << self.n_qubits) - 1
        if not 0 < self.a_mask < full:
            raise ValidationError("a_mask must be a nonempty proper subset")
        if self.a_mask & ~full:
            raise ValidationError("a_mask references qubits outside the register")
        if not self.a_mask & 1:
            raise ValidationError("canonical form requires qubit 0 in subsystem A")

    @classmethod
    def from_qubits(cls, n_qubits: int, qubits_a) -> Bipartition:
        mask = 0
        for q in qubits_a:
            mask |= 1 << q
        return cls(n_qubits, mask)

    @property
    def b_mask(self) -> int:
        return ((1 << self.n_qubits) - 1) ^ self.a_mask

    @property
    def size_a(self) -> int:
        return _popcount(self.a_mask)

    @property
    def qubits_a(self) -> tuple[int, ...]:
        return tuple(q for q in range(self.n_qubits) if self.a_mask >> q & 1)

    @property
    def qubits_b(self) -> tuple[int, ...]:
        return tuple(q for q in range(self.n_qubits) if self.b_mask >> q & 1)

    @property
    def is_balanced(self) -> bool:
        return 2 * self.size_a == self.n_qubits


def apply_one_qubit_gate(state: StateVector, qubit: int, gate: np.ndarray) -> StateVector:
    """Apply a 2x2 unitary to one qubit of the state, refusing a gate that
    is not unitary: the slow reference path, which no hot loop calls."""
    n = state.n_qubits
    if not 0 <= qubit < n:
        raise ValidationError(f"qubit {qubit} out of range for {n} qubits")
    gate = np.asarray(gate, dtype=np.complex128)
    if gate.shape != (2, 2):
        raise ValidationError(f"gate shape {gate.shape} != (2, 2)")
    if np.max(np.abs(gate.conj().T @ gate - np.eye(2))) > UNITARITY_ATOL:
        raise ValidationError("gate is not unitary")
    psi = state.amplitudes.reshape(2 ** (n - 1 - qubit), 2, 2**qubit)
    a, b = psi[:, 0, :], psi[:, 1, :]
    out = np.empty_like(psi)
    out[:, 0, :] = gate[0, 0] * a + gate[0, 1] * b
    out[:, 1, :] = gate[1, 0] * a + gate[1, 1] * b
    return StateVector(n, out.reshape(-1))


def apply_two_qubit_phase(
    state: StateVector, q1: int, q2: int, phases
) -> StateVector:
    """Apply a diagonal two-qubit gate: basis state |b1 b2> on (q1, q2) picks
    up exp(i * phases[2*b1 + b2])."""
    n = state.n_qubits
    if q1 == q2:
        raise ValidationError("q1 and q2 must differ")
    for q in (q1, q2):
        if not 0 <= q < n:
            raise ValidationError(f"qubit {q} out of range for {n} qubits")
    phases = np.asarray(phases, dtype=np.float64)
    if phases.shape != (4,):
        raise ValidationError(f"expected 4 phase angles, got shape {phases.shape}")
    idx = np.arange(state.dim)
    pattern = ((idx >> q1) & 1) << 1 | ((idx >> q2) & 1)
    out = state.amplitudes * np.exp(1j * phases[pattern])
    return StateVector(n, out)


def hermitian_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix, or of each matrix of a
    (..., d, d) stack.

    Asymmetry up to ``HERMITICITY_ATOL`` is symmetrized away; anything
    larger, in any matrix of a stack, is an error.  Every rho an experiment
    forms comes from ``noise.mixture`` and is Hermitian bit for bit, and so
    are its partial traces; rounding asymmetry can still arrive in a matrix
    a caller builds another way, such as its own ``DensityMatrix``.
    Symmetrizing changes no entry of an exactly Hermitian matrix that the
    eigensolver reads, so each matrix of a stack gets the eigenvalues of a
    call on it alone.
    """
    asym = float(np.max(np.abs(matrix - matrix.conj().swapaxes(-1, -2))))
    if asym > HERMITICITY_ATOL:
        raise ValidationError(f"matrix asymmetry {asym} exceeds {HERMITICITY_ATOL}")
    if asym > 0.0:
        matrix = 0.5 * (matrix + matrix.conj().swapaxes(-1, -2))
    return np.linalg.eigvalsh(matrix)


def reduced_density_matrix(
    source: StateVector | DensityMatrix, part: Bipartition, keep: str = "a"
) -> DensityMatrix:
    """Trace out one side of a bipartition.

    ``keep="a"`` returns Tr_B(rho); ``keep="b"`` returns Tr_A(rho).  Bit j of
    the reduced index corresponds to the j-th smallest kept qubit.
    """
    if part.n_qubits != source.n_qubits:
        raise ValidationError(
            f"bipartition is over {part.n_qubits} qubits, source has {source.n_qubits}"
        )
    if keep == "a":
        kept, traced = part.qubits_a, part.qubits_b
    elif keep == "b":
        kept, traced = part.qubits_b, part.qubits_a
    else:
        raise ValidationError("keep must be 'a' or 'b'")
    n = source.n_qubits
    # axis of qubit q in the (2,)*n reshape is n-1-q
    kept_axes = [n - 1 - q for q in sorted(kept, reverse=True)]
    traced_axes = [n - 1 - q for q in sorted(traced, reverse=True)]
    d_keep = 2 ** len(kept)
    if isinstance(source, StateVector):
        psi = source.amplitudes.reshape((2,) * n)
        psi = np.transpose(psi, kept_axes + traced_axes).reshape(d_keep, -1)
        rho = psi @ psi.conj().T
    else:
        mat = source.matrix.reshape((2,) * (2 * n))
        perm = kept_axes + traced_axes + [a + n for a in kept_axes] + [a + n for a in traced_axes]
        mat = np.transpose(mat, perm).reshape(d_keep, -1, d_keep, 2 ** len(traced))
        rho = np.einsum("ibjb->ij", mat)
    return DensityMatrix(len(kept), rho)


def partial_transpose(rho: DensityMatrix, part: Bipartition) -> np.ndarray:
    """Transpose the indices of subsystem B only.

    The result is Hermitian and unit-trace but in general not PSD, so a raw
    matrix is returned rather than a DensityMatrix.
    """
    if part.n_qubits != rho.n_qubits:
        raise ValidationError(
            f"bipartition is over {part.n_qubits} qubits, matrix has {rho.n_qubits}"
        )
    n = rho.n_qubits
    mat = rho.matrix.reshape((2,) * (2 * n))
    perm = list(range(2 * n))
    for q in part.qubits_b:
        row = n - 1 - q
        perm[row], perm[row + n] = perm[row + n], perm[row]
    return np.transpose(mat, perm).reshape(rho.dim, rho.dim)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Entropy -Tr[rho log2 rho] in bits.

    Eigenvalues are clipped to [0, 1] and those below the cutoff contribute
    nothing (0 log 0 := 0); rounding otherwise produces NaNs.
    """
    return spectrum_entropy(hermitian_eigenvalues(rho.matrix))


def spectrum_entropy(eigs: np.ndarray) -> float:
    """Entropy in bits of a density matrix with eigenvalues ``eigs``, as
    ``von_neumann_entropy`` takes it."""
    eigs = np.clip(eigs, 0.0, 1.0)
    eigs = eigs[eigs > ENTROPY_EIG_CUTOFF]
    if eigs.size == 0:
        return 0.0
    return float(-np.sum(eigs * np.log2(eigs)))


def trace_norm(matrix: np.ndarray) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix."""
    return float(np.sum(np.abs(hermitian_eigenvalues(matrix))))


def fidelity(ideal: StateVector, rho: DensityMatrix) -> float:
    """Overlap <psi|rho|psi> of a mixed state with a pure reference."""
    if ideal.n_qubits != rho.n_qubits:
        raise ValidationError("state and density matrix dimensions differ")
    value = float(np.real(np.vdot(ideal.amplitudes, rho.matrix @ ideal.amplitudes)))
    if not -NORM_ATOL <= value <= 1.0 + NORM_ATOL:
        raise ValidationError(f"fidelity {value} outside [0, 1]")
    return min(max(value, 0.0), 1.0)


# Unused by the package; kept only because perfbench/tracer.py wraps its methods.
class ProjectorAccumulator:
    """Weighted sum of pure-state projectors; once the accumulated weight
    reaches 1 the content is a valid density matrix."""

    def __init__(self, n_qubits: int):
        self.n_qubits = n_qubits
        self.matrix = np.zeros((2**n_qubits, 2**n_qubits), dtype=np.complex128)
        self.total_weight = 0.0

    def add(self, state: StateVector, weight: float) -> None:
        if weight <= 0.0:
            raise ValidationError("weight must be positive")
        if state.n_qubits != self.n_qubits:
            raise ValidationError("state dimension does not match accumulator")
        amps = state.amplitudes
        self.matrix += weight * np.outer(amps, amps.conj())
        self.total_weight += weight

    def add_batch(self, amplitude_columns: np.ndarray, weight_each: float) -> None:
        """Add one projector per column of an (N, B) amplitude matrix."""
        if weight_each <= 0.0:
            raise ValidationError("weight must be positive")
        self.matrix += weight_each * (amplitude_columns @ amplitude_columns.conj().T)
        self.total_weight += weight_each * amplitude_columns.shape[1]

    def finalize(self) -> DensityMatrix:
        """Return the accumulated mixture as a validated density matrix."""
        if abs(self.total_weight - 1.0) > NORM_ATOL:
            raise ValidationError(
                f"accumulated weight {self.total_weight} deviates from 1"
            )
        sym = 0.5 * (self.matrix + self.matrix.conj().T)
        rho = DensityMatrix(self.n_qubits, sym)
        rho.validate()
        return rho
