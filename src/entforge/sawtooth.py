"""Quantum sawtooth map: gate-level circuit and split-operator oracle.

One map step applies a quadratic kick phase in the angle representation
followed by a quadratic free-rotation phase in the momentum representation.
The computational basis is the momentum basis: basis index ``m`` in
``[0, N)`` carries momentum ``n = m - N/2``, and angle grid point ``l``
carries ``theta_l = 2*pi*l/N``.

Two independent evolutions are provided:

* :func:`evolve_exact` moves between representations with FFTs and applies
  the quadratic phases directly (O(N log N) per step);
* :func:`build_step_circuit` decomposes the same step into Hadamards,
  controlled-phase rotations, and one/two-qubit diagonal phase gates
  (Theta(n_q^2) gates per step), executed by :func:`evolve_circuit`.

The two QFT bit reversals are folded into the kick-phase stage at circuit
construction time (the kick coefficients are assigned to bit-reversed qubit
labels), so no swap gates or amplitude permutations appear in the sequence.
Constant terms of the quadratic phases are dropped: circuit and oracle agree
up to a global phase per step.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .core import StateVector, ValidationError

#: Bloch axis of the Hadamard, (x + z)/sqrt(2)
HADAMARD_AXIS = (1.0 / math.sqrt(2.0), 0.0, 1.0 / math.sqrt(2.0))
HADAMARD_ANGLE = math.pi

#: per-step gate count quoted in the literature for this map, kept as a
#: labeled reference constant; the decomposition built here has its own count
def reference_gate_count(n_q: int) -> int:
    return 3 * n_q**2 + n_q


@dataclass(frozen=True)
class MapParams:
    """Torus and kick constants of the map.

    ``N = 2**n_q`` levels, kick period ``T = 2*pi/N``, kick strength
    ``k = K/T``; the classical chaos parameter is ``K = k*T`` (chaotic for
    K > 0 or K < -4; the default 1.5 sits in the chaotic regime).  Any finite
    K is accepted: T and k derive from N and K, so k*T is K up to rounding.
    """

    n_q: int
    K: float = 1.5

    def __post_init__(self) -> None:
        if self.n_q < 1:
            raise ValidationError("n_q must be >= 1")
        if not math.isfinite(self.K):
            raise ValidationError("K must be finite")

    @property
    def N(self) -> int:
        return 2**self.n_q

    @property
    def T(self) -> float:
        return 2.0 * math.pi / self.N

    @property
    def k(self) -> float:
        return self.K / self.T


class GateKind(Enum):
    HADAMARD = "hadamard"
    PHASE1 = "one-qubit-phase"
    PHASE2 = "two-qubit-phase"


#: uniform noise draws consumed per gate application
NOISE_PARAMS = {
    GateKind.HADAMARD: 2,  # axis tilt: polar + azimuthal offset
    GateKind.PHASE1: 2,  # one extra phase per diagonal entry
    GateKind.PHASE2: 4,
}


@dataclass(frozen=True)
class Gate:
    """One- or two-qubit gate; unitary by construction.

    ``phases`` holds the diagonal angles of PHASE1 (2 entries, slot = bit of
    the target qubit) and PHASE2 (4 entries, slot = 2*b1 + b2 for bits of
    ``qubits[0]`` and ``qubits[1]``).  HADAMARD is the pi rotation about
    (x+z)/sqrt(2) with a fixed `i` prefactor so the zero-tilt matrix is
    exactly H.
    """

    kind: GateKind
    qubits: tuple[int, ...]
    phases: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        expected_qubits = 2 if self.kind is GateKind.PHASE2 else 1
        if len(self.qubits) != expected_qubits:
            raise ValidationError(f"{self.kind.value} gate needs {expected_qubits} qubit(s)")
        if self.kind is GateKind.PHASE1 and len(self.phases) != 2:
            raise ValidationError("one-qubit phase gate needs 2 angles")
        if self.kind is GateKind.PHASE2 and len(self.phases) != 4:
            raise ValidationError("two-qubit phase gate needs 4 angles")

    @property
    def is_diagonal(self) -> bool:
        return self.kind in (GateKind.PHASE1, GateKind.PHASE2)

    @property
    def noise_parameter_count(self) -> int:
        return NOISE_PARAMS[self.kind]

    def matrix(self) -> np.ndarray:
        """Nominal unitary on the gate's own qubits (2x2 or 4x4 diagonal)."""
        if self.is_diagonal:
            # PHASE2: diagonal over |b1 b2> ordered 00, 01, 10, 11
            return np.diag(np.exp(1j * np.asarray(self.phases)))
        return 1j * rotation_matrix(HADAMARD_AXIS, HADAMARD_ANGLE)


def rotation_matrix(axis, angle: float) -> np.ndarray:
    """Bloch rotation exp(-i*angle/2 * axis.sigma).

    Axis components may be arrays of one shape; the result then has shape
    (2, 2) + that shape.
    """
    ux, uy, uz = axis
    c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
    return np.array(
        [
            [c - 1j * s * uz, -s * uy - 1j * s * ux],
            [s * uy - 1j * s * ux, c + 1j * s * uz],
        ],
        dtype=np.complex128,
    )


def tilted_axis(axis, polar, azimuth) -> tuple:
    """Unit vector at spherical offsets (polar, azimuth) in a local frame
    whose pole is ``axis``.

    The local x-direction is normalize(y_hat x axis), falling back to
    normalize(x_hat x axis) when the axis is nearly parallel to y_hat; this
    fixed choice makes the tilt parameterization reproducible.  The offsets
    may be arrays of one shape (one tilt per trajectory); each returned
    component then has that shape.
    """
    u = np.asarray(axis, dtype=np.float64)
    u = u / np.linalg.norm(u)
    ref = np.array([0.0, 1.0, 0.0]) if abs(u[1]) < 0.9 else np.array([1.0, 0.0, 0.0])
    e1 = np.cross(ref, u)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(u, e1)
    sp, cp = np.sin(polar), np.cos(polar)
    ca, sa = np.cos(azimuth), np.sin(azimuth)
    x, y, z = (sp * (ca * e1[i] + sa * e2[i]) + cp * u[i] for i in range(3))
    return x, y, z


def tilted_hadamard(polar, azimuth) -> np.ndarray:
    """Hadamard rotated about its axis tilted by (polar, azimuth), with the
    same `i` prefactor as the nominal gate; exactly unitary.

    Scalar offsets give a 2x2 matrix; arrays give (2, 2) + their shape, one
    matrix per trajectory.
    """
    return 1j * rotation_matrix(
        tilted_axis(HADAMARD_AXIS, polar, azimuth), HADAMARD_ANGLE
    )


@dataclass(frozen=True)
class GateSequence:
    """Ordered gate list implementing one map step."""

    n_qubits: int
    gates: tuple[Gate, ...]

    @property
    def gate_count(self) -> int:
        return len(self.gates)

    def unitary(self) -> np.ndarray:
        """Dense matrix of the sequence; intended for small n_qubits."""
        dim = 2**self.n_qubits
        cols = np.eye(dim, dtype=np.complex128)
        compiled = compile_circuit(self)
        return compiled.apply(cols.copy())

    @cached_property
    def _compiled(self) -> "CompiledCircuit":
        return compile_circuit(self)


def momentum_basis_state(params: MapParams, n: int = 0) -> StateVector:
    """Momentum eigenstate |n>, stored at basis index n + N/2."""
    if not -params.N // 2 <= n < params.N // 2:
        raise ValidationError(f"momentum {n} outside [-N/2, N/2)")
    return StateVector.basis_state(params.n_q, n + params.N // 2)


def _qft_ladder(n_q: int) -> list[Gate]:
    """Hadamard / controlled-phase ladder of the QFT (bit reversal omitted).

    After the ladder, qubit q holds output bit n_q-1-q of the transform
    |m> -> (1/sqrt(N)) sum_l exp(2*pi*i*m*l/N) |l>.
    """
    gates: list[Gate] = []
    for q in range(n_q - 1, -1, -1):
        gates.append(Gate(GateKind.HADAMARD, (q,)))
        for q2 in range(q - 1, -1, -1):
            angle = 2.0 * math.pi / 2 ** (q - q2 + 1)
            gates.append(Gate(GateKind.PHASE2, (q, q2), (0.0, 0.0, 0.0, angle)))
    return gates


def _inverse_gates(gates: list[Gate]) -> list[Gate]:
    # the Hadamard is its own inverse
    return [
        Gate(g.kind, g.qubits, tuple(-p for p in g.phases)) if g.is_diagonal else g
        for g in reversed(gates)
    ]


def _quadratic_phase_gates(n_q: int, scale: float, bit_reversed: bool) -> list[Gate]:
    """Diagonal gates realizing exp(i*scale*(x - N/2)^2) over basis index x.

    Expanding (sum_j b_j 2^j - N/2)^2 gives linear terms -> one-qubit phases,
    bilinear terms -> two-qubit phases, and a constant -> dropped global
    phase.  With ``bit_reversed`` the coefficient of qubit j is the one of
    bit n_q-1-j, which folds a surrounding bit-reversal permutation into the
    gate labels.
    """
    N = 2**n_q
    exponent = (lambda j: n_q - 1 - j) if bit_reversed else (lambda j: j)
    gates: list[Gate] = []
    for j in range(n_q):
        e = exponent(j)
        gates.append(Gate(GateKind.PHASE1, (j,), (0.0, scale * 2.0**e * (2.0**e - N))))
    for j in range(n_q):
        for j2 in range(j + 1, n_q):
            angle = scale * 2.0 * 2.0 ** (exponent(j) + exponent(j2))
            gates.append(Gate(GateKind.PHASE2, (j, j2), (0.0, 0.0, 0.0, angle)))
    return gates


def build_step_circuit(params: MapParams) -> GateSequence:
    """Gate decomposition of one map step in the momentum basis.

    Layout: [QFT ladder] [kick phases, bit-reversed labels] [inverse QFT
    ladder] [free-rotation phases].  Gate count is 2*n_q^2 + 2*n_q.
    """
    n_q = params.n_q
    ladder = _qft_ladder(n_q)
    kick_scale = params.k / 2.0 * (2.0 * math.pi / params.N) ** 2
    rotation_scale = -params.T / 2.0
    gates = (
        ladder
        + _quadratic_phase_gates(n_q, kick_scale, bit_reversed=True)
        + _inverse_gates(ladder)
        + _quadratic_phase_gates(n_q, rotation_scale, bit_reversed=False)
    )
    return GateSequence(n_q, tuple(gates))


# --- exact split-operator oracle ---------------------------------------------


def _phase_tables(params: MapParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    N = params.N
    levels = np.arange(N) - N // 2
    momentum = np.exp(-0.5j * params.T * levels.astype(np.float64) ** 2)
    theta = 2.0 * math.pi * np.arange(N) / N
    kick = np.exp(0.5j * params.k * (theta - math.pi) ** 2)
    parity = np.where(np.arange(N) % 2 == 0, 1.0, -1.0)
    return momentum, kick, parity


def evolve_exact(state: StateVector, params: MapParams, t: int) -> StateVector:
    """Apply t map steps via forward/backward FFTs between representations.

    Independent of the gate decomposition; serves as the oracle the circuit
    is checked against.
    """
    if t < 0:
        raise ValidationError("step count must be >= 0")
    if state.n_qubits != params.n_q:
        raise ValidationError("state and params disagree on qubit count")
    momentum, kick, parity = _phase_tables(params)
    sqrt_n = math.sqrt(params.N)
    psi = state.amplitudes.copy()
    for _ in range(t):
        pos = np.fft.ifft(psi) * sqrt_n * parity  # momentum -> angle
        pos *= kick
        psi = np.fft.fft(pos * parity) / sqrt_n  # angle -> momentum
        psi *= momentum
    return StateVector(state.n_qubits, psi)


def inverse_participation_ratio(state: StateVector) -> float:
    """1 / sum p_m^2 over basis probabilities; N for uniform filling."""
    probs = np.abs(state.amplitudes) ** 2
    return float(1.0 / np.sum(probs**2))


# --- compiled executor --------------------------------------------------------


@dataclass(frozen=True)
class _PhaseFactor:
    """One diagonal gate: its rows of the step's factor table, and the shape
    those (k, B) rows take to broadcast over its window's table."""

    rows: slice
    shape: tuple[int, ...]


@dataclass
class _Window:
    """Diagonal gates of one run that act inside one qubit window.

    Each step multiplies their factors into one (2,)*k + (B,) table over the
    window's qubits (highest first) and the block by that table once;
    ``shape`` is the shape the table takes to broadcast over the
    (2,)*n + (B,) view of the block.
    """

    qubits: tuple[int, ...]
    shape: tuple[int, ...]
    factors: list[_PhaseFactor]


@dataclass
class _MixingSegment:
    """Single Hadamard; ``tilt`` indexes the sequence's Hadamards in order."""

    qubit: int
    tilt: int


@dataclass
class CompiledCircuit:
    """Execution plan for a GateSequence over (N, batch) amplitude arrays.

    Each segment is one pass over the block: a single Hadamard, which
    updates the two halves of its qubit in place, or one window of a run of
    diagonal gates.  A diagonal run is split over windows of qubits derived
    from n alone, with L the low half (q < n//2) and H the high half: each
    gate goes to the window L, the window H, or, when it links H-qubit h to
    L, the window {h} + L.  Per step, a window's (2^k, B) table is the
    product of its gates' (2, B) and (2, 2, B) phase factors, and the (N, B)
    block is multiplied by each table once, in place; at n = 8 that is 32
    passes over the block for the 128 diagonal gates (48 segments with the
    16 Hadamards), and a table is at most 64 KB at B = 128.  The factors
    are cos + i*sin of one (S, B) angle table (nominal angles plus draws).
    The noise draw layout (slots per gate, in gate order) is that of the
    sequence.
    """

    n_qubits: int
    segments: list[_Window | _MixingSegment]
    draws_per_step: int
    #: (S, 1) nominal angle of every diagonal slot, in factor-table order
    phases: np.ndarray
    #: (S,) draw row of every diagonal slot, in factor-table order
    phase_rows: np.ndarray
    #: (M,) draw row of each Hadamard's polar offset; the azimuth follows it
    tilt_rows: np.ndarray

    def apply(self, amps: np.ndarray, draws: np.ndarray | None = None) -> np.ndarray:
        """One application of the sequence to (N, B) amplitudes.

        Works in place on a C-contiguous ``amps`` (otherwise on a contiguous
        copy) and returns the result.  ``draws`` has shape
        (draws_per_step, B); column b holds trajectory b's noise parameters
        for this application, in gate order.  ``None`` is the noiseless
        sequence (all draws zero).
        """
        if draws is None:
            draws = np.zeros((self.draws_per_step, 1))
        angles = self.phases + draws[self.phase_rows]
        factors = np.empty(angles.shape, dtype=np.complex128)
        np.cos(angles, out=factors.real)
        np.sin(angles, out=factors.imag)
        tilts = tilted_hadamard(draws[self.tilt_rows], draws[self.tilt_rows + 1])
        amps = np.ascontiguousarray(amps)
        view = amps.reshape((2,) * self.n_qubits + (amps.shape[1],))
        for seg in self.segments:
            if isinstance(seg, _MixingSegment):
                _apply_mixing(amps, seg.qubit, tilts[:, :, seg.tilt])
                continue
            table = np.empty((2,) * len(seg.qubits) + (factors.shape[1],), np.complex128)
            first, *rest = seg.factors
            table[...] = factors[first.rows].reshape(first.shape)
            for f in rest:
                table *= factors[f.rows].reshape(f.shape)
            view *= table.reshape(seg.shape)
        return amps


def _apply_mixing(amps: np.ndarray, q: int, u: np.ndarray) -> None:
    """(a, b) <- (u00 a + u01 b, u10 a + u11 b) on the halves of qubit q of
    the (N, B) amplitudes, in place; u has shape (2, 2, B) or (2, 2, 1)."""
    view = amps.reshape(-1, 2, 2**q, amps.shape[1])
    a, b = view[:, 0], view[:, 1]
    new_a = u[0, 0] * a
    new_a += u[0, 1] * b
    np.multiply(u[1, 1], b, out=b)
    b += u[1, 0] * a
    a[...] = new_a


def _window_qubits(gate: Gate, low: tuple[int, ...], high: tuple[int, ...]) -> tuple[int, ...]:
    """Window of a diagonal gate, highest qubit first: the low half L alone,
    the high half H alone, or {h} + L for a gate linking h in H to L."""
    top = max(gate.qubits)
    if top < len(low):
        return low
    if min(gate.qubits) >= len(low):
        return high
    return (top,) + low


def _broadcast_slots(gate: Gate, window: tuple[int, ...]) -> tuple[list[int], tuple[int, ...]]:
    """Slots of a diagonal gate in the order of the window's axes (highest
    qubit first), and the shape its (k, B) factor takes over the window's
    (2,)*len(window) + (B,) table."""
    shape = tuple(2 if q in gate.qubits else 1 for q in window) + (-1,)
    if gate.kind is GateKind.PHASE1:
        return [0, 1], shape
    # slot 2*b1 + b2 is read as (b2, b1) when qubits[0] is the lower qubit
    q1, q2 = gate.qubits
    return ([0, 1, 2, 3] if q1 > q2 else [0, 2, 1, 3]), shape


def compile_circuit(seq: GateSequence) -> CompiledCircuit:
    n_q = seq.n_qubits
    low = tuple(range(n_q // 2 - 1, -1, -1))
    high = tuple(range(n_q - 1, n_q // 2 - 1, -1))
    segments: list[_Window | _MixingSegment] = []
    windows: dict[tuple[int, ...], _Window] = {}  # of the current diagonal run
    phases: list[float] = []
    phase_rows: list[int] = []
    tilt_rows: list[int] = []
    offset = 0
    for gate in seq.gates:
        if gate.is_diagonal:
            qubits = _window_qubits(gate, low, high)
            if qubits not in windows:
                view_shape = tuple(2 if q in qubits else 1 for q in range(qubits[0], -1, -1))
                windows[qubits] = _Window(qubits, view_shape + (-1,), [])
                segments.append(windows[qubits])
            slots, shape = _broadcast_slots(gate, qubits)
            rows = slice(len(phases), len(phases) + len(slots))
            windows[qubits].factors.append(_PhaseFactor(rows, shape))
            phases += [gate.phases[k] for k in slots]
            phase_rows += [offset + k for k in slots]
        else:
            windows = {}  # a Hadamard ends the diagonal run
            segments.append(_MixingSegment(gate.qubits[0], len(tilt_rows)))
            tilt_rows.append(offset)
        offset += gate.noise_parameter_count
    return CompiledCircuit(
        n_q,
        segments,
        offset,
        np.array(phases, dtype=np.float64)[:, None],
        np.array(phase_rows, dtype=np.intp),
        np.array(tilt_rows, dtype=np.intp),
    )


def evolve_circuit(
    state: StateVector,
    circuit: GateSequence,
    t: int,
    epsilon: float = 0.0,
    realization=None,
) -> StateVector:
    """Apply the gate sequence t times.

    With noise amplitude ``epsilon`` > 0, every gate application consumes
    fresh uniform draws in [-epsilon, +epsilon] from ``realization``'s
    (a ``noise.NoiseRealization``) private stream, so a fixed (master seed,
    realization index) pair reproduces the trajectory exactly.
    """
    if t < 0:
        raise ValidationError("step count must be >= 0")
    if epsilon < 0:
        raise ValidationError("epsilon must be >= 0")
    if not math.isfinite(epsilon):
        raise ValidationError("epsilon must be finite")
    if state.n_qubits != circuit.n_qubits:
        raise ValidationError("state and circuit disagree on qubit count")
    compiled = circuit._compiled
    draws_all: np.ndarray | None = None
    if epsilon > 0.0:
        if realization is None:
            raise ValidationError("a NoiseRealization is required when epsilon > 0")
        draws_all = realization.uniform_draws(epsilon, (t, compiled.draws_per_step))
    amps = state.amplitudes.copy().reshape(-1, 1)
    for step in range(t):
        draws = None if draws_all is None else draws_all[step][:, None]
        amps = compiled.apply(amps, draws)
    return StateVector(state.n_qubits, amps.reshape(-1))
