"""Bipartition enumeration, entanglement measures/bounds, and analytic predictions.

Pure-state entanglement across a bipartition is the von Neumann entropy of a
reduced density matrix; for mixed states the distillable entanglement is
bracketed by the hashing-type lower bound S(rho_A) - S(rho) and the
logarithmic negativity log2 of the trace norm of the partial transpose.
The analytic side collects the random-state entropy average, the
fidelity-based entropy bound, and the resulting noise-threshold estimates.
"""
from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    Bipartition,
    DensityMatrix,
    StateVector,
    ValidationError,
    hermitian_eigenvalues,
    partial_transpose,
    reduced_density_matrix,
    spectrum_entropy,
    trace_norm,
    von_neumann_entropy,
)

LN2 = math.log(2.0)
#: gathered amplitudes per block of bipartitions in ``pure_spectrum``, so a
#: block's Schmidt matrices and their Gram matrices stay in a core's L2 cache
PURE_BLOCK_BYTES = 512 * 1024


class RegimeWarning(UserWarning):
    """A perturbative formula was evaluated outside its validity regime."""


@dataclass(frozen=True)
class EntanglementStats:
    """Population statistics of entanglement over a bipartition set."""

    mean: float
    std_dev: float
    relative_std: float
    count: int


@dataclass(frozen=True)
class MixedSpectrum:
    """Distillable-entanglement bounds (bits): ``lower`` and ``upper`` are
    float arrays in ``enumerate_balanced_bipartitions`` order."""

    lower: np.ndarray
    upper: np.ndarray
    total_entropy: float  # S(rho), shared by every lower bound

    @classmethod
    def join(cls, spans) -> MixedSpectrum:
        """One rho's spectrum from its ``mixed_spectrum`` calls over
        consecutive bipartition spans, in order: the arrays concatenated,
        bit for bit those of the whole call."""
        lower = np.concatenate([s.lower for s in spans])
        upper = np.concatenate([s.upper for s in spans])
        return cls(lower, upper, spans[0].total_entropy)


def enumerate_balanced_bipartitions(n_q: int) -> list[Bipartition]:
    """All size-n_q/2 subsets containing qubit 0; C(n_q, n_q/2)/2 entries."""
    if n_q < 2 or n_q % 2:
        raise ValidationError("balanced bipartitions require even n_q >= 2")
    parts = []
    for combo in itertools.combinations(range(1, n_q), n_q // 2 - 1):
        parts.append(Bipartition.from_qubits(n_q, (0,) + combo))
    return parts


def stats(samples) -> EntanglementStats:
    """Population mean / standard deviation of any float sequence, such as a spectrum."""
    values = np.asarray(samples, dtype=np.float64)
    if values.size == 0:
        raise ValidationError("cannot compute statistics of an empty sample list")
    mean = float(values.mean())
    std = float(values.std())
    rel = std / mean if mean > 0 else math.inf
    return EntanglementStats(mean, std, rel, int(values.size))


@functools.lru_cache(maxsize=None)
def _schmidt_indices(n_q: int) -> tuple[np.ndarray, np.ndarray]:
    """Per balanced bipartition, in enumeration order, the amplitude index
    of each row and of each column of its Schmidt matrix: row (column) i
    puts bit j of i on the j-th smallest qubit of A (of B), the order of
    ``reduced_density_matrix``.  Two read-only (P, 2**(n_q/2)) arrays."""
    half = n_q // 2
    bits = (np.arange(2**half)[:, None] >> np.arange(half)) & 1
    indices = []
    for side in ("qubits_a", "qubits_b"):
        qubits = np.array([getattr(p, side) for p in enumerate_balanced_bipartitions(n_q)])
        index = (bits[None] << qubits[:, None, :]).sum(axis=-1)
        index.setflags(write=False)
        indices.append(index)
    return tuple(indices)


def _schmidt_eigenvalues(state: StateVector):
    """Yield the ascending eigenvalues of each balanced bipartition's reduced
    state of a pure state, in ``enumerate_balanced_bipartitions`` order.

    The bipartitions go in blocks whose gathered amplitudes take about
    ``PURE_BLOCK_BYTES``: one gather of the block's (P, d_A, d_B) Schmidt
    matrices M, one stacked M M^dagger and one ``hermitian_eigenvalues``
    call for the stack.  Each row is bit for bit
    ``hermitian_eigenvalues(reduced_density_matrix(state, part).matrix)``.
    """
    rows, cols = _schmidt_indices(state.n_qubits)
    size = max(1, PURE_BLOCK_BYTES // state.amplitudes.nbytes)  # bipartitions per block
    for start in range(0, len(rows), size):
        block = slice(start, start + size)
        schmidt = state.amplitudes[rows[block, :, None] | cols[block, None, :]]
        # keep gram alive until the next block's is formed: freed at once, it
        # cost 1448 instead of 544 minor page faults per call at n_q = 10
        gram = schmidt @ schmidt.conj().swapaxes(-1, -2)
        yield from hermitian_eigenvalues(gram)


def pure_spectrum(state: StateVector) -> np.ndarray:
    """Reduced-state entropy (bits) of a pure state per balanced bipartition,
    as a float array in ``enumerate_balanced_bipartitions`` order.

    ``spectrum_entropy`` of each bipartition's stacked Schmidt eigenvalues
    (``_schmidt_eigenvalues``): bit for bit
    ``von_neumann_entropy(reduced_density_matrix(state, part))``.
    """
    return np.array([spectrum_entropy(eigs) for eigs in _schmidt_eigenvalues(state)])


def page_value(n_q: int) -> float:
    """Large-N average entanglement of a random pure state, n_q/2 - 1/(2 ln 2)."""
    if n_q < 2:
        raise ValidationError("n_q must be >= 2")
    return n_q / 2.0 - 1.0 / (2.0 * LN2)


def haar_random_state(n_q: int, seed: int) -> StateVector:
    """State drawn from the unitarily invariant measure (normalized complex
    Gaussian amplitudes)."""
    if n_q < 1:
        raise ValidationError("n_q must be >= 1")
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(2**n_q) + 1j * rng.standard_normal(2**n_q)
    return StateVector(n_q, amps / np.linalg.norm(amps))


def log_negativity(rho: DensityMatrix, part: Bipartition) -> float:
    """log2 of the trace norm of the partial transpose."""
    return math.log2(trace_norm(partial_transpose(rho, part)))


def pure_log_negativity(state: StateVector) -> np.ndarray:
    """Log negativity (bits) of a pure state per balanced bipartition, as a
    float array in ``enumerate_balanced_bipartitions`` order.

    The trace norm of a pure-state partial transpose is (sum_i sqrt(l_i))^2
    over the Schmidt eigenvalues l_i, taken from the same stacked blocks as
    ``pure_spectrum`` (``_schmidt_eigenvalues``), so no N x N matrix is formed.
    """
    return np.array([
        2.0 * math.log2(float(np.sum(np.sqrt(np.clip(eigs, 0.0, 1.0)))))
        for eigs in _schmidt_eigenvalues(state)
    ])


def mixed_spectrum(rho: DensityMatrix, span: slice = slice(None)) -> MixedSpectrum:
    """Distillable-entanglement bounds over the ``span`` of the balanced
    bipartitions (default: all), in bipartition enumeration order.

    This is where a rho is checked: S(rho) comes from the eigenvalues that
    ``rho.validate()`` takes to check that rho is Hermitian, has unit trace
    and is positive semidefinite; a failure raises ``ValidationError``.

    The N x N eigendecomposition of each partial transpose dominates the
    cost; the noise sweep runs these calls in a process pool
    (``experiments.spectrum_pool``): one per batch rho, started while later
    batches of trajectories still evolve, and one per contiguous span of
    rho's bipartitions, which ``MixedSpectrum.join`` puts back together.
    """
    parts = enumerate_balanced_bipartitions(rho.n_qubits)[span]
    s_total = spectrum_entropy(rho.validate())
    # a partial transpose permutes rho's entries and commutes with the
    # adjoint, so its asymmetry is rho's: symmetrize rho once (bit for bit a
    # no-op when rho is exactly Hermitian) instead of checking and
    # symmetrizing every partial transpose as log_negativity does.
    # Keep this copy: without it, minor page faults per call rose ~14x at n_q = 8.
    hermitian = DensityMatrix(rho.n_qubits, 0.5 * (rho.matrix + rho.matrix.conj().T))
    lower, upper = np.empty(len(parts)), np.empty(len(parts))
    for i, part in enumerate(parts):
        s_a = von_neumann_entropy(reduced_density_matrix(rho, part))
        lower[i] = max(s_a - s_total, 0.0)
        eigs = np.linalg.eigvalsh(partial_transpose(hermitian, part))
        upper[i] = math.log2(float(np.sum(np.abs(eigs))))
    return MixedSpectrum(lower, upper, s_total)


# --- analytic predictions -----------------------------------------------------


def binary_entropy(x: float) -> float:
    """Binary Shannon entropy h(x) in bits."""
    if not 0.0 <= x <= 1.0:
        raise ValidationError(f"binary entropy argument {x} outside [0, 1]")
    if x == 0.0 or x == 1.0:
        return 0.0
    return float(-x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x))


def fano_entropy_bound(fidelity: float, n_q: int) -> float:
    """Entropy cap h(F) + (1-F) log2(N^2 - 1) implied by fidelity F."""
    if not -1e-10 <= fidelity <= 1.0 + 1e-10:
        raise ValidationError(f"fidelity {fidelity} outside [0, 1]")
    f = min(max(fidelity, 0.0), 1.0)
    return binary_entropy(f) + (1.0 - f) * math.log2(4.0**n_q - 1.0)


def predicted_entropy(
    epsilon: float, n_q: int, t: int, gamma: float, n_g: int
) -> float:
    """Perturbative entropy estimate x * (-log2 x + 2 n_q + 1/ln 2) with
    x = gamma * epsilon^2 * n_g * t.

    Valid for x << 1; x >= 1 is flagged with a RegimeWarning but still
    evaluated so sweeps can tabulate it uniformly.
    """
    x = gamma * epsilon**2 * n_g * t
    if x < 0.0:
        raise ValidationError("gamma * epsilon^2 * n_g * t must be >= 0")
    if x == 0.0:
        return 0.0
    if x >= 1.0:
        warnings.warn(
            f"perturbative argument {x:.3g} >= 1; estimate unreliable", RegimeWarning
        )
    return x * (-math.log2(x) + 2.0 * n_q + 1.0 / LN2)


def analytic_threshold(n_q: int, t: int, gamma: float) -> float:
    """Noise amplitude 1/sqrt(24 gamma n_q^2 t) at which the leading
    large-n_q drop 6 gamma n_q^3 eps^2 t of the lower bound (the 2 n_q x
    part of predicted_entropy with n_g = 3 n_q^2) reaches n_q/4, half of the
    lower bound's n_q/2 leading term.

    This is the n_q -> infinity limit of the amplitude at which the eps = 0
    value minus predicted_entropy halves. Its 1/n_q law is reached slowly:
    with page_value as the eps = 0 value, the full formula's local exponent
    is -0.53 from n_q = 4 to 6, -0.69 from 6 to 8, -0.76 from 8 to 10, -0.85
    from 12 to 16 and -0.97 from 48 to 96.
    """
    if gamma <= 0 or t <= 0:
        raise ValidationError("gamma and t must be positive")
    return 1.0 / math.sqrt(24.0 * gamma * n_q**2 * t)
