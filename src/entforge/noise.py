"""Unitary gate noise and the Monte-Carlo trajectory average.

Every gate application draws fresh uniform parameters in [-eps, +eps]:
Hadamard gates get their Bloch axis tilted by (polar, azimuthal)
offsets, diagonal gates get one extra phase per computational basis state
of their subspace.  Averaging the perturbed pure-state projectors over many
independent realizations produces the noise-averaged density matrix.

Randomness is counter-based: realization r of master seed s owns the Philox
stream keyed by (s, r), so trajectories are reproducible one by one,
independent across indices by construction, and parallelizable without
shared state.  Each trajectory draws its parameters in one block (steps x
parameters-per-step, in gate order), which fixes every epsilon_i as a pure
function of (master_seed, realization_index).
"""
from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .core import DensityMatrix, ProjectorAccumulator, StateVector, ValidationError
from .sawtooth import (
    Gate,
    GateKind,
    GateSequence,
    MapParams,
    build_step_circuit,
    evolve_exact,
    tilted_hadamard,
)

#: batches used for batch-means error estimates and convergence checks
DEFAULT_BATCH_COUNT = 8


@dataclass(frozen=True)
class NoiseModel:
    """Amplitude of the unitary gate noise.

    Parameter counts per gate are fixed by the gate's shape
    (``Gate.noise_parameter_count``).
    """

    epsilon: float

    def __post_init__(self) -> None:
        if self.epsilon < 0:
            raise ValidationError("epsilon must be >= 0")


@dataclass(frozen=True)
class NoiseRealization:
    """One point of the noise ensemble: (master_seed, realization_index)."""

    master_seed: int
    realization_index: int

    def generator(self) -> np.random.Generator:
        mask = 0xFFFFFFFFFFFFFFFF
        key = np.array(
            [self.master_seed & mask, self.realization_index & mask], dtype=np.uint64
        )
        return np.random.Generator(np.random.Philox(key=key))

    def uniform_draws(self, epsilon: float, shape) -> np.ndarray:
        """All noise parameters of this trajectory, uniform in [-eps, +eps]."""
        return self.generator().uniform(-epsilon, epsilon, size=shape)


def derive_seed(master_seed: int, *parts) -> int:
    """Stable 64-bit sub-seed for a named stream of a master seed."""
    text = repr((master_seed,) + parts).encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:8], "little")


def perturb_one_qubit_gate(gate: Gate, draw) -> np.ndarray:
    """Rotation by the gate's nominal angle about a tilted axis; exactly unitary."""
    if gate.kind is not GateKind.HADAMARD:
        raise ValidationError(f"{gate.kind.value} gate is not a rotation")
    return tilted_hadamard(float(draw[0]), float(draw[1]))


def perturb_phase_gate(gate: Gate, draws) -> np.ndarray:
    """Diagonal gate with one extra random phase per basis state of its subspace."""
    if not gate.is_diagonal:
        raise ValidationError(f"{gate.kind.value} gate is not diagonal")
    draws = np.asarray(draws, dtype=np.float64)
    if draws.shape != (len(gate.phases),):
        raise ValidationError(
            f"expected {len(gate.phases)} draws, got shape {draws.shape}"
        )
    return np.diag(np.exp(1j * (np.asarray(gate.phases) + draws)))


def recommend_realizations(n_q: int, bound_kind: str, multiplier: int = 4) -> int:
    """Realization count for converged bound estimates: ~sqrt(N) for the
    lower bound, ~N for the upper bound, scaled by a safety multiplier."""
    if n_q < 2:
        raise ValidationError("n_q must be >= 2")
    n_levels = 2**n_q
    if bound_kind == "lower":
        return math.ceil(multiplier * math.sqrt(n_levels))
    if bound_kind == "upper":
        return math.ceil(multiplier * n_levels)
    raise ValidationError("bound_kind must be 'lower' or 'upper'")


@dataclass
class TrajectorySnapshot:
    """Noise-averaged state and fidelity record at one time."""

    time: int
    rho: DensityMatrix
    batch_rhos: tuple[DensityMatrix, ...]
    fidelities: np.ndarray  # |<ideal_t|psi_r,t>|^2 per realization
    mean_fidelity: float


@dataclass
class TrajectoryResult:
    params: MapParams
    epsilon: float
    n_realizations: int
    master_seed: int
    gate_count: int
    snapshots: dict[int, TrajectorySnapshot] = field(default_factory=dict)

    @property
    def final(self) -> TrajectorySnapshot:
        return self.snapshots[max(self.snapshots)]


def physical_memory_bytes() -> int:
    """Installed memory of the machine, as the operating system reports it."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def require_memory(
    n_q: int,
    n_times: int,
    batch_count: int = DEFAULT_BATCH_COUNT,
    extra_matrices: int = 0,
) -> None:
    """Refuse a trajectory run whose N x N matrices would not fit in memory.

    ``run_trajectories`` holds, per snapshot time, ``batch_count + 1``
    accumulators and as many finished density matrices (the batch rhos and
    rho); ``extra_matrices`` counts copies held elsewhere meanwhile, such as
    the spectrum workers'.  Two snapshot times at n_q = 12 need ~9.7 GB.
    """
    matrices = 2 * (batch_count + 1) * n_times + extra_matrices
    matrix_bytes = 16 * 4**n_q  # complex128, N x N
    needed = matrices * matrix_bytes
    available = physical_memory_bytes()
    if needed > available:
        raise ValidationError(
            f"n_q = {n_q} with {n_times} snapshot time(s) needs ~{needed / 1e9:.1f} GB "
            f"for {matrices} N x N matrices of {matrix_bytes / 1e6:.0f} MB each; "
            f"this machine has {available / 1e9:.1f} GB"
        )


def batch_slices(n: int, batches: int) -> list[slice]:
    """Contiguous slices of ``range(n)`` into min(batches, n) near-equal
    batches, the larger ones first (the sizes of ``np.array_split``)."""
    batches = min(batches, n)
    base, extra = divmod(n, batches)
    slices, start = [], 0
    for b in range(batches):
        size = base + (1 if b < extra else 0)
        slices.append(slice(start, start + size))
        start += size
    return slices


def run_trajectories(
    params: MapParams,
    t: int,
    epsilon: float,
    n_realizations: int,
    master_seed: int,
    initial: StateVector,
    snapshot_times: list[int] | None = None,
    circuit: GateSequence | None = None,
    batch_count: int = DEFAULT_BATCH_COUNT,
) -> TrajectoryResult:
    """Noise-averaged density matrix rho = (1/N_r) sum_r |psi_r><psi_r|.

    Trajectories are evolved in contiguous batches (vectorized over the batch
    axis); batch order and the within-batch accumulation order are fixed, so
    a given (master_seed, n_realizations) pair is bit-reproducible.  Batch
    sub-averages are kept for batch-means error bars and convergence checks.
    ``snapshot_times`` selects intermediate times to record (default: [t]).
    """
    if n_realizations < 1:
        raise ValidationError("n_realizations must be >= 1")
    if epsilon < 0:
        raise ValidationError("epsilon must be >= 0")
    if initial.n_qubits != params.n_q:
        raise ValidationError("initial state and params disagree on qubit count")
    times = sorted(set(snapshot_times if snapshot_times is not None else [t]))
    if not times or times[-1] > t or times[0] < 0:
        raise ValidationError("snapshot times must lie in [0, t]")
    require_memory(params.n_q, len(times), batch_count)
    if circuit is None:
        circuit = build_step_circuit(params)
    compiled = circuit._compiled

    ideals = {}
    state = initial
    prev = 0
    for s in times:
        state = evolve_exact(state, params, s - prev)
        ideals[s] = state.amplitudes
        prev = s

    result = TrajectoryResult(
        params, epsilon, n_realizations, master_seed, circuit.gate_count
    )

    if epsilon == 0.0:
        # all trajectories coincide with the noiseless evolution
        for s in times:
            pure = StateVector(params.n_q, ideals[s])
            rho = DensityMatrix.from_pure(pure)
            batches = min(batch_count, n_realizations)
            result.snapshots[s] = TrajectorySnapshot(
                s, rho, (rho,) * batches, np.ones(n_realizations), 1.0
            )
        return result

    slices = batch_slices(n_realizations, batch_count)
    accumulators = {s: [ProjectorAccumulator(params.n_q) for _ in slices] for s in times}
    fidelities = {s: np.empty(n_realizations) for s in times}
    draws_per_step = compiled.draws_per_step

    for b, sl in enumerate(slices):
        indices = range(sl.start, sl.stop)
        draws = np.stack(
            [
                NoiseRealization(master_seed, r).uniform_draws(
                    epsilon, (t, draws_per_step)
                )
                for r in indices
            ],
            axis=-1,
        )  # (t, draws_per_step, batch)
        amps = np.repeat(initial.amplitudes[:, None], len(indices), axis=1)
        step = 0
        for s in times:
            while step < s:
                amps = compiled.apply(amps, draws[step])
                step += 1
            accumulators[s][b].add_batch(amps, 1.0 / n_realizations)
            overlaps = ideals[s].conj() @ amps
            fidelities[s][sl] = np.abs(overlaps) ** 2

    for s in times:
        total = ProjectorAccumulator(params.n_q)
        batch_rhos = []
        for b, sl in enumerate(slices):
            total.merge(accumulators[s][b])
            scale = n_realizations / (sl.stop - sl.start)
            batch_rhos.append(
                DensityMatrix(
                    params.n_q,
                    0.5 * scale * (accumulators[s][b].matrix + accumulators[s][b].matrix.conj().T),
                )
            )
        rho = total.finalize()
        result.snapshots[s] = TrajectorySnapshot(
            s, rho, tuple(batch_rhos), fidelities[s], float(fidelities[s].mean())
        )
    return result
