import math

import numpy as np
import pytest

from entforge.cli import EXIT_OK, main
from entforge.core import (
    StateVector,
    ValidationError,
    apply_one_qubit_gate,
    apply_two_qubit_phase,
)
from entforge.noise import NoiseRealization, perturb_one_qubit_gate, perturb_phase_gate
from entforge.sawtooth import (
    Gate,
    GateKind,
    MapParams,
    _Window,
    _phase_tables,
    build_step_circuit,
    compile_circuit,
    evolve_circuit,
    evolve_exact,
    inverse_participation_ratio,
    momentum_basis_state,
    reference_gate_count,
    rotation_matrix,
    tilted_axis,
)


def random_state(n_qubits, seed):
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(2**n_qubits) + 1j * rng.standard_normal(2**n_qubits)
    return StateVector(n_qubits, amps / np.linalg.norm(amps))


def brute_force_step_unitary(params: MapParams) -> np.ndarray:
    """One-step matrix from the definition, no FFTs and no gates.

    W maps momentum amplitudes to angle amplitudes: W[l, m] =
    exp(i*(m - N/2)*theta_l)/sqrt(N).
    """
    N = params.N
    levels = np.arange(N) - N // 2
    theta = 2 * np.pi * np.arange(N) / N
    W = np.exp(1j * np.outer(theta, levels)) / np.sqrt(N)
    u_kick = np.diag(np.exp(0.5j * params.k * (theta - np.pi) ** 2))
    u_rot = np.diag(np.exp(-0.5j * params.T * levels.astype(float) ** 2))
    return u_rot @ W.conj().T @ u_kick @ W


def phase_insensitive_match(u1: np.ndarray, u2: np.ndarray) -> float:
    """|tr(U1^dag U2)| / dim; 1 iff U1 = U2 up to a global phase."""
    return abs(np.trace(u1.conj().T @ u2)) / u1.shape[0]


class TestMapParams:
    def test_torus_identities(self):
        p = MapParams(4)
        assert p.N == 16
        assert p.T * p.N == pytest.approx(2 * math.pi, abs=1e-14)
        assert p.k * p.T == pytest.approx(1.5, abs=1e-14)

    def test_default_chaos_parameter(self):
        assert MapParams(6).K == 1.5

    def test_rejects_zero_qubits(self):
        with pytest.raises(ValidationError):
            MapParams(0)

    @pytest.mark.parametrize("K", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_k(self, K):
        with pytest.raises(ValidationError, match="finite"):
            MapParams(4, K)

    @pytest.mark.parametrize("n_q, K", [(4, 3494280.757916379), (8, 25780.38984787673)])
    def test_any_finite_kick_accepted(self, n_q, K):
        # T and k are derived from N and K, so k*T differs from K by rounding
        # alone, which grows with |K|; such kicks were once refused
        p = MapParams(n_q, K)
        assert p.K == K
        assert p.k * p.T == pytest.approx(K, rel=1e-14)

    def test_noise_sweep_runs_at_large_kick(self, tmp_path):
        argv = ["noise-sweep", "--nq", "4", "--k-param", "3494280.757916379",
                "--eps-grid", "1e-2", "--steps", "2", "--realizations", "8",
                "--out", str(tmp_path / "o")]
        assert main(argv) == EXIT_OK


class TestPhases:
    """The split-operator oracle's phase tables: exp(-i*T*n^2/2) per
    momentum level n (stored at index n + N/2) and exp(i*k*(theta_l - pi)^2/2)
    per angle grid index l."""

    def test_momentum_phase_zero(self):
        p = MapParams(4)
        momentum, _, _ = _phase_tables(p)
        assert momentum[p.N // 2] == 1.0

    def test_momentum_phase_value(self):
        # -T/2 at n=1 with T = 2*pi/16
        p = MapParams(4)
        momentum, _, _ = _phase_tables(p)
        assert np.angle(momentum[p.N // 2 + 1]) == pytest.approx(-0.19634954084936207)

    def test_momentum_phase_even(self):
        p = MapParams(5)
        momentum, _, _ = _phase_tables(p)
        for n in range(1, p.N // 2):
            assert momentum[p.N // 2 + n] == momentum[p.N // 2 - n]

    def test_theta_phase_zero_at_pi(self):
        p = MapParams(4)
        _, kick, _ = _phase_tables(p)
        assert kick[p.N // 2] == 1.0

    def test_theta_phase_value(self):
        # k*pi^2/2 = K*N*pi/4 = 6*pi at l = 0 and k*(pi/2)^2/2 = 1.5*pi at
        # l = N/4, for n_q=4, K=1.5
        p = MapParams(4)
        _, kick, _ = _phase_tables(p)
        assert kick[0] == pytest.approx(np.exp(6j * math.pi), abs=1e-12)
        assert kick[p.N // 4] == pytest.approx(np.exp(1.5j * math.pi), abs=1e-12)

    def test_theta_phase_symmetry(self):
        p = MapParams(4)
        _, kick, _ = _phase_tables(p)
        for l in range(1, p.N):
            assert kick[l] == pytest.approx(kick[p.N - l], abs=1e-12)


class TestGate:
    def test_parameter_counts(self):
        assert Gate(GateKind.HADAMARD, (0,)).noise_parameter_count == 2
        assert Gate(GateKind.PHASE1, (0,), (0.0, 0.1)).noise_parameter_count == 2
        assert Gate(GateKind.PHASE2, (0, 1), (0.0, 0.0, 0.0, 0.5)).noise_parameter_count == 4


class TestRotationHelpers:
    def test_hadamard_from_axis(self):
        g = Gate(GateKind.HADAMARD, (0,))
        expected = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        np.testing.assert_allclose(g.matrix(), expected, atol=1e-15)

    def test_rotation_matrix_unitary(self):
        u = rotation_matrix((0.6, 0.0, 0.8), 1.234)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(2), atol=1e-15)

    def test_tilted_axis_zero_offsets(self):
        axis = (1 / math.sqrt(2), 0.0, 1 / math.sqrt(2))
        np.testing.assert_allclose(tilted_axis(axis, 0.0, 0.0), axis, atol=1e-15)

    def test_tilted_axis_stays_unit(self):
        axis = (0.0, 1.0, 0.0)
        v = tilted_axis(axis, 0.3, -1.1)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)


class TestStepCircuit:
    def test_single_qubit_matches_brute_force(self):
        params = MapParams(1)
        u_circ = build_step_circuit(params).unitary()
        u_exact = brute_force_step_unitary(params)
        assert phase_insensitive_match(u_circ, u_exact) > 1 - 1e-12

    @pytest.mark.parametrize("n_q", [2, 3, 4])
    def test_circuit_unitary_matches_brute_force(self, n_q):
        params = MapParams(n_q)
        u_circ = build_step_circuit(params).unitary()
        u_exact = brute_force_step_unitary(params)
        assert phase_insensitive_match(u_circ, u_exact) > 1 - 1e-10

    def test_gate_count_scaling(self):
        counts = {n: build_step_circuit(MapParams(n)).gate_count for n in (4, 6, 8, 12, 16)}
        for n in (4, 6, 8):
            assert 3.5 <= counts[2 * n] / counts[n] <= 4.5

    def test_gate_count_formula(self):
        for n in (1, 2, 4, 6):
            seq = build_step_circuit(MapParams(n))
            assert seq.gate_count == 2 * n**2 + 2 * n

    def test_reference_count_differs_and_is_recorded(self):
        assert reference_gate_count(4) == 52
        assert build_step_circuit(MapParams(4)).gate_count != reference_gate_count(4)

    def test_every_gate_unitary(self):
        for g in build_step_circuit(MapParams(3)).gates:
            m = g.matrix()
            np.testing.assert_allclose(m.conj().T @ m, np.eye(m.shape[0]), atol=1e-12)


class TestEvolveExact:
    def test_zero_steps_identity(self):
        psi = random_state(4, 0)
        out = evolve_exact(psi, MapParams(4), 0)
        np.testing.assert_allclose(out.amplitudes, psi.amplitudes)

    def test_norm_after_many_steps(self):
        out = evolve_exact(random_state(6, 1), MapParams(6), 1000)
        assert abs(np.linalg.norm(out.amplitudes) - 1) < 1e-9

    def test_matches_brute_force_matrix(self):
        params = MapParams(4)
        u = brute_force_step_unitary(params)
        psi = random_state(4, 2)
        expected = u @ (u @ psi.amplitudes)
        out = evolve_exact(psi, params, 2)
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-12)


class TestEvolveCircuit:
    def test_zero_steps_identity(self):
        params = MapParams(3)
        circuit = build_step_circuit(params)
        psi = random_state(3, 3)
        out = evolve_circuit(psi, circuit, 0)
        np.testing.assert_allclose(out.amplitudes, psi.amplitudes)

    @pytest.mark.parametrize("n_q", range(1, 9))
    def test_oracle_equivalence(self, n_q):
        params = MapParams(n_q)
        circuit = build_step_circuit(params)
        psi = random_state(n_q, 100 + n_q)
        a = evolve_circuit(psi, circuit, 30)
        b = evolve_exact(psi, params, 30)
        assert a.overlap_probability(b) > 1 - 1e-9

    def test_momentum_eigenstate_oracle_equivalence(self):
        params = MapParams(4)
        circuit = build_step_circuit(params)
        psi = momentum_basis_state(params)
        a = evolve_circuit(psi, circuit, 30)
        b = evolve_exact(psi, params, 30)
        assert a.overlap_probability(b) > 1 - 1e-10

    def test_norm_preserved_over_30_steps(self):
        params = MapParams(6)
        out = evolve_circuit(random_state(6, 5), build_step_circuit(params), 30)
        assert abs(np.linalg.norm(out.amplitudes) - 1) < 1e-9


def gate_by_gate_step(psi: StateVector, gates, draws) -> StateVector:
    """One step through the slow single-state path, one gate at a time.

    ``draws`` is one column of the compiled kernel's draws (None: noiseless),
    consumed in gate order with each gate's own parameter count.
    """
    offset = 0
    for g in gates:
        k = g.noise_parameter_count
        d = None if draws is None else draws[offset : offset + k]
        offset += k
        if g.kind is GateKind.PHASE2:
            phases = np.asarray(g.phases) + (0.0 if d is None else d)
            psi = apply_two_qubit_phase(psi, g.qubits[0], g.qubits[1], phases)
        elif d is None:
            psi = apply_one_qubit_gate(psi, g.qubits[0], g.matrix())
        elif g.is_diagonal:
            psi = apply_one_qubit_gate(psi, g.qubits[0], perturb_phase_gate(g, d))
        else:
            psi = apply_one_qubit_gate(psi, g.qubits[0], perturb_one_qubit_gate(g, d))
    return psi


class TestCompiledCircuitReference:
    """The compiled (N, B) kernel against the gate-by-gate slow path."""

    @pytest.mark.parametrize("noisy", [False, True])
    @pytest.mark.parametrize("n_q", [2, 3, 4, 5, 6, 7])
    def test_apply_matches_gate_by_gate(self, n_q, noisy):
        seq = build_step_circuit(MapParams(n_q))
        compiled = compile_circuit(seq)
        batch, steps, eps = 3, 2, 0.05
        columns = [random_state(n_q, 300 + b) for b in range(batch)]
        draws = np.stack(
            [
                NoiseRealization(7, r).uniform_draws(eps, (steps, compiled.draws_per_step))
                for r in range(batch)
            ],
            axis=-1,
        )  # (steps, draws_per_step, batch), distinct per column
        amps = np.stack([c.amplitudes for c in columns], axis=1)
        for step in range(steps):
            amps = compiled.apply(amps, draws[step] if noisy else None)
            columns = [
                gate_by_gate_step(c, seq.gates, draws[step][:, b] if noisy else None)
                for b, c in enumerate(columns)
            ]
        expected = np.stack([c.amplitudes for c in columns], axis=1)
        np.testing.assert_allclose(amps, expected, rtol=0, atol=1e-12)
        assert not np.allclose(amps[:, 0], amps[:, 1])

    @pytest.mark.parametrize("n_q", [1, 2, 3, 6, 7, 8])
    def test_each_diagonal_slot_read_by_one_window(self, n_q):
        seq = build_step_circuit(MapParams(n_q))
        compiled = compile_circuit(seq)
        low = set(range(n_q // 2))
        high = set(range(n_q // 2, n_q))
        allowed = [low, high] + [{h} | low for h in high]
        table_rows = []
        for w in compiled.segments:
            if isinstance(w, _Window):
                assert set(w.qubits) in allowed
                for f in w.factors:
                    table_rows += range(compiled.phases.shape[0])[f.rows]
        assert sorted(table_rows) == list(range(compiled.phases.shape[0]))
        # the factor table's rows are exactly the diagonal gates' draw slots
        diagonal_rows, offset = [], 0
        for g in seq.gates:
            if g.is_diagonal:
                diagonal_rows += range(offset, offset + g.noise_parameter_count)
            offset += g.noise_parameter_count
        assert sorted(compiled.phase_rows.tolist()) == diagonal_rows

    def test_diagonal_passes_per_step_at_eight_qubits(self):
        compiled = compile_circuit(build_step_circuit(MapParams(8)))
        windows = [w for w in compiled.segments if isinstance(w, _Window)]
        assert len(windows) == 32
        assert len(compiled.segments) == 32 + 16  # one block pass each, Hadamards included
        assert max(len(w.qubits) for w in windows) == 5


class TestChaosSanity:
    @pytest.mark.parametrize("n_q", [6, 8])
    def test_momentum_eigenstate_spreads(self, n_q):
        params = MapParams(n_q)
        out = evolve_exact(momentum_basis_state(params), params, 10)
        assert inverse_participation_ratio(out) > params.N / 4


class TestMomentumBasisState:
    def test_zero_momentum_index(self):
        psi = momentum_basis_state(MapParams(4))
        assert psi.amplitudes[8] == 1.0

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            momentum_basis_state(MapParams(2), 2)
