"""Unitary gate noise and the Monte-Carlo trajectory average.

Every gate application draws fresh uniform parameters in [-eps, +eps]:
Hadamard gates get their Bloch axis tilted by (polar, azimuthal)
offsets, diagonal gates get one extra phase per computational basis state
of their subspace.  Averaging the perturbed pure-state projectors over many
independent realizations produces the noise-averaged density matrix.

Randomness is counter-based: realization r of master seed s owns the Philox
stream keyed by (s, r), so trajectories are reproducible one by one,
independent across indices by construction, and parallelizable without
shared state.  Each trajectory draws one step's parameters at a time, in
gate order, from its own stream; step j's values are row j of the
(steps x parameters-per-step) block ``uniform_draws`` returns, so every
epsilon_i is a pure function of (master_seed, realization_index).
"""
from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import DensityMatrix, StateVector, ValidationError
from .sawtooth import (
    Gate,
    GateKind,
    MapParams,
    build_step_circuit,
    evolve_exact,
    tilted_hadamard,
)

#: batches used for batch-means error estimates and convergence checks
DEFAULT_BATCH_COUNT = 8
#: N x N matrices held besides a finished rho while the run's process forms
#: it or sends it to the spectrum workers (pickling makes a byte copy and an
#: output buffer).  rho goes to each worker as its own task, but the pool
#: pickles one task at a time.  From N = 64 up, ``mixture`` holds at most
#: one batch's worth of conjugated amplitudes, N x ceil(R/8), as does the
#: run's fidelity pass before any rho exists: within these two matrices for
#: R <= 16 N.
RHO_TEMPORARIES = 2
#: N x N matrices one spectrum worker holds at its peak besides a batch's
#: amplitude columns: the rho, its symmetrized copy in ``mixed_spectrum``,
#: a partial transpose and the eigensolver's input copy.  Forming a batch
#: rho with ``mixture`` holds less: the rho and N x ceil(R/64) conjugated
#: amplitudes, one eighth of the batch's columns.
WORKER_MATRICES = 4
#: fewest columns of rho per strip of ``mixture``'s Gram product: narrower
#: strips can round differently from one product over the whole block
MIXTURE_MIN_STRIP = 8
#: safety factor on the ~sqrt(N) / ~N realization counts of ``recommend_realizations``
REALIZATION_MULTIPLIER = 4


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

    def step_draws(self, epsilon: float, per_step: int):
        """Endless iterator over one step's noise parameters at a time; the
        first t of them are the rows of ``uniform_draws(epsilon, (t, per_step))``."""
        generator = self.generator()
        while True:
            yield generator.uniform(-epsilon, epsilon, size=per_step)


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


def recommend_realizations(n_q: int, bound_kind: str) -> int:
    """Realization count for converged bound estimates: ~sqrt(N) for the
    lower bound, ~N for the upper bound, times ``REALIZATION_MULTIPLIER``."""
    if n_q < 2:
        raise ValidationError("n_q must be >= 2")
    n_levels = 2**n_q
    if bound_kind == "lower":
        return math.ceil(REALIZATION_MULTIPLIER * math.sqrt(n_levels))
    if bound_kind == "upper":
        return math.ceil(REALIZATION_MULTIPLIER * n_levels)
    raise ValidationError("bound_kind must be 'lower' or 'upper'")


def mixture(columns: np.ndarray) -> DensityMatrix:
    """Equal-weight mixture of the pure states in the columns of an (N, B)
    amplitude block: (G + G^dagger) / (2B) with G = columns columns^dagger.

    G is formed in ``DEFAULT_BATCH_COUNT`` strips of N / ``DEFAULT_BATCH_COUNT``
    columns (one strip when those would be narrower than
    ``MIXTURE_MIN_STRIP``), each from a conjugate copy of only its rows of the
    block: as many amplitudes as one batch's columns.  The Hermitian sum then
    runs strip by strip in place.  So no copy of the whole block or of rho is
    made: besides rho, forming it holds N x B/8 amplitudes or a few N/8-row
    strips, whichever is larger.  The values are bit for bit those of the
    one-product formula (measured with OpenBLAS, 1 and 2 threads, for
    N = 4 to 1024 and B = 1 to 16 N, to 4 N + 1 from N = 512 up).

    The sum is Hermitian bit for bit; its trace and positivity are checked
    where its eigenvalues are first taken (``mixed_spectrum``).
    """
    n_levels, count = columns.shape
    width = n_levels // DEFAULT_BATCH_COUNT
    if width < MIXTURE_MIN_STRIP:
        width = n_levels
    rho = np.empty((n_levels, n_levels), dtype=np.complex128)
    for start in range(0, n_levels, width):
        rows = slice(start, start + width)
        np.matmul(columns, columns[rows].conj().T, out=rho[:, rows])
    for start in range(0, n_levels, width):
        rows, rest = slice(start, start + width), slice(start, n_levels)
        strip = rho[rows, rest] + rho[rest, rows].conj().T
        rho[rows, rest] = strip
        rho[rest, rows] = strip.conj().T
    rho *= 0.5 / count
    return DensityMatrix(n_levels.bit_length() - 1, rho)


@dataclass
class TrajectorySnapshot:
    """Final amplitudes of every trajectory at one time, and their fidelities.

    Column r of ``amplitudes`` is realization r.  At epsilon = 0 every
    trajectory is the noiseless one, so the block holds that single column.
    rho is formed on first use and kept; a batch's rho, which the spectrum
    workers form, is the ``mixture`` of its ``batch_slices`` columns.
    """

    amplitudes: np.ndarray  # (N, n_realizations), or (N, 1) when noiseless
    n_realizations: int
    fidelities: np.ndarray  # |<ideal_t|psi_r,t>|^2 per realization
    mean_fidelity: float
    noiseless: bool = False

    @property
    def batch_slices(self) -> list[slice]:
        """Realizations of each batch, in batch order."""
        return batch_slices(self.n_realizations, DEFAULT_BATCH_COUNT)

    @cached_property
    def rho(self) -> DensityMatrix:
        """rho = (1/R) sum_r |psi_r><psi_r|, the ``mixture`` of the whole
        block (of its one column when noiseless), formed without a copy of
        the block.  It is not validated here: ``mixed_spectrum`` checks its
        trace and positivity on the eigenvalues it takes anyway."""
        return mixture(self.amplitudes)


@dataclass
class TrajectoryResult:
    snapshots: dict[int, TrajectorySnapshot] = field(default_factory=dict)

    @property
    def final(self) -> TrajectorySnapshot:
        return self.snapshots[max(self.snapshots)]


def physical_memory_bytes() -> int:
    """Installed memory of the machine, as the operating system reports it."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def require_memory(n_q: int, n_times: int, n_realizations: int, workers: int = 0) -> None:
    """Refuse a trajectory run that would not fit in memory.

    Per snapshot time the run holds the (N, R) amplitude block and, once it
    is formed, rho; forming or sending a rho takes ``RHO_TEMPORARIES`` more
    N x N matrices.  Each of ``workers`` spectrum workers holds one batch's
    columns (1/``DEFAULT_BATCH_COUNT`` of a block) and ``WORKER_MATRICES``
    N x N matrices meanwhile.
    """
    n_levels = 2**n_q
    matrix_bytes = 16 * n_levels**2  # complex128, N x N
    blocks = n_times * 16 * n_levels * n_realizations
    matrices = n_times + RHO_TEMPORARIES
    batch_columns = math.ceil(n_realizations / min(DEFAULT_BATCH_COUNT, n_realizations))
    per_worker = WORKER_MATRICES * matrix_bytes + 16 * n_levels * batch_columns
    needed = blocks + matrices * matrix_bytes + workers * per_worker
    available = physical_memory_bytes()
    if needed > available:
        raise ValidationError(
            f"n_q = {n_q} with {n_times} snapshot time(s) and {n_realizations} "
            f"realizations needs ~{needed / 1e9:.1f} GB: {blocks / 1e9:.1f} GB of "
            f"amplitude blocks, {matrices} N x N matrices of {matrix_bytes / 1e6:.0f} MB "
            f"each and {workers * per_worker / 1e9:.1f} GB for {workers} spectrum "
            f"worker(s); this machine has {available / 1e9:.1f} GB"
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
    on_batch=None,
) -> TrajectoryResult:
    """Noisy trajectories from ``initial``, recorded at ``snapshot_times``
    (default: [t]) as amplitude blocks from which each snapshot forms the
    noise-averaged density matrix rho = (1/N_r) sum_r |psi_r><psi_r|.

    Trajectories are evolved in contiguous batches (vectorized over the batch
    axis), each drawing its noise one step at a time from its own stream.
    The batches also give the batch sub-averages for batch-means error bars
    and convergence checks.

    ``on_batch(time, columns)``, if given, is called as soon as a batch's
    (N, B) columns at a snapshot time are final, batch by batch in batch
    order; ``columns`` is a view of the snapshot's block that the run no
    longer writes.  No batch is evolved at epsilon = 0, so it is not called.

    Fidelities are taken once every batch has evolved: a BLAS call between
    batches wakes the BLAS helper thread, which then spins on cores that
    the spectrum workers need.
    """
    if n_realizations < 1:
        raise ValidationError("n_realizations must be >= 1")
    if epsilon < 0:
        raise ValidationError("epsilon must be >= 0")
    if not math.isfinite(epsilon):
        raise ValidationError("epsilon must be finite")
    if initial.n_qubits != params.n_q:
        raise ValidationError("initial state and params disagree on qubit count")
    times = sorted(set(snapshot_times if snapshot_times is not None else [t]))
    if not times or times[-1] > t or times[0] < 0:
        raise ValidationError("snapshot times must lie in [0, t]")
    require_memory(params.n_q, len(times), n_realizations)
    compiled = build_step_circuit(params)._compiled

    ideals = {}
    state = initial
    prev = 0
    for s in times:
        state = evolve_exact(state, params, s - prev)
        ideals[s] = state.amplitudes
        prev = s

    result = TrajectoryResult()

    if epsilon == 0.0:
        # all trajectories coincide with the noiseless evolution
        for s in times:
            result.snapshots[s] = TrajectorySnapshot(
                ideals[s][:, None], n_realizations,
                np.ones(n_realizations), 1.0, noiseless=True,
            )
        return result

    # column-major, so each batch's columns are one contiguous slice
    blocks = {
        s: np.empty((params.N, n_realizations), dtype=np.complex128, order="F")
        for s in times
    }
    slices = batch_slices(n_realizations, DEFAULT_BATCH_COUNT)
    for sl in slices:
        streams = [
            NoiseRealization(master_seed, r).step_draws(epsilon, compiled.draws_per_step)
            for r in range(sl.start, sl.stop)
        ]
        draws = np.empty((compiled.draws_per_step, len(streams)))
        amps = np.repeat(initial.amplitudes[:, None], len(streams), axis=1)
        step = 0
        for s in times:
            while step < s:
                for j, stream in enumerate(streams):
                    draws[:, j] = next(stream)
                amps = compiled.apply(amps, draws)
                step += 1
            blocks[s][:, sl] = amps
            if on_batch is not None:
                on_batch(s, blocks[s][:, sl])
    del amps  # the fidelity pass's batch copy takes its place

    for s in times:
        # per batch, from C-ordered columns as the kernel returns them: one
        # product over the column-major block rounds differently
        fidelities = np.empty(n_realizations)
        for sl in slices:
            columns = np.ascontiguousarray(blocks[s][:, sl])
            fidelities[sl] = np.abs(ideals[s].conj() @ columns) ** 2
        result.snapshots[s] = TrajectorySnapshot(
            blocks[s], n_realizations, fidelities, float(fidelities.mean()),
        )
    return result
