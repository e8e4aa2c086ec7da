import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entforge import experiments, noise
from entforge.core import ValidationError, fidelity, von_neumann_entropy
from entforge.entanglement import PURE_BLOCK_BYTES
from entforge.experiments import require_ensemble_memory
from entforge.noise import (
    RHO_TEMPORARIES,
    NoiseRealization,
    batch_slices,
    derive_seed,
    mixture,
    perturb_one_qubit_gate,
    perturb_phase_gate,
    recommend_realizations,
    require_memory,
    run_trajectories,
)
from entforge.sawtooth import (
    Gate,
    GateKind,
    MapParams,
    build_step_circuit,
    evolve_circuit,
    evolve_exact,
    momentum_basis_state,
)


def hadamard_gate():
    return Gate(GateKind.HADAMARD, (0,))


class TestNoiseAmplitude:
    def test_rejects_negative_epsilon(self):
        params = MapParams(2)
        init = momentum_basis_state(params)
        with pytest.raises(ValidationError):
            evolve_circuit(
                init, build_step_circuit(params), 1,
                epsilon=-1e-3, realization=NoiseRealization(0, 0),
            )

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_rejects_non_finite_epsilon(self, eps):
        params = MapParams(2)
        init = momentum_basis_state(params)
        with pytest.raises(ValidationError, match="finite"):
            evolve_circuit(
                init, build_step_circuit(params), 1,
                epsilon=eps, realization=NoiseRealization(0, 0),
            )
        with pytest.raises(ValidationError, match="finite"):
            run_trajectories(params, 1, eps, 4, 0, init)


class TestNoiseRealization:
    def test_deterministic_stream(self):
        a = NoiseRealization(42, 7).uniform_draws(1e-3, (5, 4))
        b = NoiseRealization(42, 7).uniform_draws(1e-3, (5, 4))
        np.testing.assert_array_equal(a, b)

    def test_independent_indices(self):
        a = NoiseRealization(42, 0).uniform_draws(1e-3, 64)
        b = NoiseRealization(42, 1).uniform_draws(1e-3, 64)
        assert not np.allclose(a, b)

    def test_draws_within_amplitude(self):
        eps = 2.5e-3
        draws = NoiseRealization(1, 2).uniform_draws(eps, 10_000)
        assert np.all(np.abs(draws) <= eps)

    @pytest.mark.parametrize("per_step", [1, 4, 37])
    def test_step_draws_are_rows_of_block(self, per_step):
        steps, eps = 6, 3e-2
        stream = NoiseRealization(42, 7).step_draws(eps, per_step)
        rows = np.stack([next(stream) for _ in range(steps)])
        block = NoiseRealization(42, 7).uniform_draws(eps, (steps, per_step))
        np.testing.assert_array_equal(rows, block)


class TestDeriveSeed:
    def test_stable(self):
        assert derive_seed(3, "sweep", 4) == derive_seed(3, "sweep", 4)

    def test_distinguishes_parts(self):
        assert derive_seed(3, "sweep", 4) != derive_seed(3, "sweep", 5)
        assert derive_seed(3, "a") != derive_seed(4, "a")


class TestPerturbOneQubitGate:
    def test_zero_draw_is_nominal(self):
        g = hadamard_gate()
        np.testing.assert_allclose(perturb_one_qubit_gate(g, (0.0, 0.0)), g.matrix(), atol=1e-15)

    def test_unitary_for_any_draw(self):
        g = hadamard_gate()
        rng = np.random.default_rng(0)
        for _ in range(20):
            u = perturb_one_qubit_gate(g, rng.uniform(-0.5, 0.5, 2))
            np.testing.assert_allclose(u.conj().T @ u, np.eye(2), atol=1e-12)

    def test_operator_distance_linear_in_epsilon(self):
        g = hadamard_gate()
        ratios = []
        for eps in (1e-4, 1e-3, 1e-2):
            dists = []
            rng = np.random.default_rng(5)
            for _ in range(50):
                u = perturb_one_qubit_gate(g, rng.uniform(-eps, eps, 2))
                dists.append(np.linalg.norm(u - g.matrix(), 2))
            ratios.append(np.mean(dists) / eps)
        # distance / epsilon stable across two decades
        assert max(ratios) / min(ratios) < 1.5

    def test_rejects_diagonal_gate(self):
        g = Gate(GateKind.PHASE1, (0,), (0.0, 0.1))
        with pytest.raises(ValidationError):
            perturb_one_qubit_gate(g, (0.0, 0.0))


class TestPerturbPhaseGate:
    def test_zero_draws_nominal(self):
        g = Gate(GateKind.PHASE2, (0, 1), (0.0, 0.1, 0.2, 0.3))
        np.testing.assert_allclose(perturb_phase_gate(g, np.zeros(4)), g.matrix(), atol=1e-15)

    def test_two_qubit_gate_needs_four_draws(self):
        g = Gate(GateKind.PHASE2, (0, 1), (0.0, 0.0, 0.0, 0.5))
        with pytest.raises(ValidationError):
            perturb_phase_gate(g, np.zeros(3))
        u = perturb_phase_gate(g, np.array([1e-3, -1e-3, 2e-3, 0.0]))
        assert u.shape == (4, 4)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(4), atol=1e-12)

    def test_composition_stays_diagonal(self):
        g = Gate(GateKind.PHASE1, (0,), (0.1, 0.2))
        u1 = perturb_phase_gate(g, np.array([1e-3, -2e-3]))
        u2 = perturb_phase_gate(g, np.array([-1e-3, 1e-3]))
        prod = u1 @ u2
        np.testing.assert_allclose(prod, np.diag(np.diag(prod)), atol=1e-15)

    def test_rejects_rotation(self):
        with pytest.raises(ValidationError):
            perturb_phase_gate(hadamard_gate(), np.zeros(2))


class TestRecommendRealizations:
    def test_lower_rule(self):
        assert recommend_realizations(8, "lower") == 64

    def test_upper_rule(self):
        assert recommend_realizations(8, "upper") == 1024

    def test_monotone(self):
        for kind in ("lower", "upper"):
            values = [recommend_realizations(n, kind) for n in range(2, 12, 2)]
            assert values == sorted(values)

    def test_rejects_bad_kind(self):
        with pytest.raises(ValidationError):
            recommend_realizations(4, "middle")


class TestRunTrajectories:
    def test_zero_noise_gives_pure_state(self):
        params = MapParams(3)
        init = momentum_basis_state(params)
        res = run_trajectories(params, 5, 0.0, 16, 0, init)
        snap = res.final
        ideal = evolve_exact(init, params, 5)
        assert snap.mean_fidelity == 1.0
        assert fidelity(ideal, snap.rho) == pytest.approx(1.0, abs=1e-10)

    def test_zero_steps_keeps_initial(self):
        params = MapParams(3)
        init = momentum_basis_state(params)
        res = run_trajectories(params, 0, 5e-3, 4, 1, init)
        assert fidelity(init, res.final.rho) == pytest.approx(1.0, abs=1e-10)

    def test_density_matrix_invariants(self):
        params = MapParams(3)
        res = run_trajectories(params, 4, 5e-3, 12, 3, momentum_basis_state(params))
        res.final.rho.validate()  # Hermitian, unit trace, PSD

    def test_reproducible(self):
        params = MapParams(3)
        init = momentum_basis_state(params)
        a = run_trajectories(params, 4, 3e-3, 10, 7, init)
        b = run_trajectories(params, 4, 3e-3, 10, 7, init)
        np.testing.assert_array_equal(a.final.rho.matrix, b.final.rho.matrix)
        np.testing.assert_array_equal(a.final.fidelities, b.final.fidelities)

    def test_mean_fidelity_matches_rho(self):
        params = MapParams(3)
        init = momentum_basis_state(params)
        res = run_trajectories(params, 6, 4e-3, 20, 11, init)
        ideal = evolve_exact(init, params, 6)
        assert res.final.mean_fidelity == pytest.approx(
            fidelity(ideal, res.final.rho), abs=1e-12
        )

    def test_matches_single_state_evolution(self):
        # batched trajectory r equals the standalone noisy evolution with the
        # same (seed, index)
        params = MapParams(2)
        init = momentum_basis_state(params)
        circuit = build_step_circuit(params)
        eps, seed, t = 2e-3, 13, 3
        res = run_trajectories(params, t, eps, 5, seed, init)
        for r in range(5):
            psi = evolve_circuit(
                init, circuit, t, epsilon=eps, realization=NoiseRealization(seed, r)
            )
            ideal = evolve_exact(init, params, t)
            expected_f = ideal.overlap_probability(psi)
            assert res.final.fidelities[r] == pytest.approx(expected_f, abs=1e-12)

    @pytest.mark.parametrize("n_q", [2, 3, 4, 5])
    def test_block_columns_match_single_state_evolution(self, n_q):
        # column r of each snapshot's block is the standalone noisy
        # evolution of realization r, drawn in one block per trajectory;
        # 11 realizations make uneven batches of 2, 2, 2, 1, 1, 1, 1, 1
        params = MapParams(n_q)
        init = momentum_basis_state(params)
        circuit = build_step_circuit(params)
        eps, seed, n_real = 0.05, 29, 11
        res = run_trajectories(params, 4, eps, n_real, seed, init, snapshot_times=[2, 4])
        assert [sl.stop - sl.start for sl in res.snapshots[4].batch_slices] == [2] * 3 + [1] * 5
        for s in (2, 4):
            block = res.snapshots[s].amplitudes
            assert block.shape == (params.N, n_real)
            for r in range(n_real):
                psi = evolve_circuit(
                    init, circuit, s, epsilon=eps, realization=NoiseRealization(seed, r)
                )
                np.testing.assert_allclose(block[:, r], psi.amplitudes, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n_q", [4, 5, 6, 7, 8])
    def test_fidelities_bit_for_bit_from_each_batch(self, n_q):
        # bit-for-bit equality is the requirement: each batch's fidelities
        # are |ideal^dagger C_b|^2 of its columns in C order, the order the
        # kernel returns, however late the run takes them
        params = MapParams(n_q)
        init = momentum_basis_state(params)
        res = run_trajectories(params, 4, 2e-2, 20, 17, init, snapshot_times=[2, 4])
        for s, snap in res.snapshots.items():
            ideal = evolve_exact(init, params, s).amplitudes
            want = np.empty(20)
            for sl in snap.batch_slices:
                want[sl] = np.abs(ideal.conj() @ np.ascontiguousarray(snap.amplitudes[:, sl])) ** 2
            assert snap.fidelities.tobytes() == want.tobytes()
            assert snap.mean_fidelity == float(want.mean())

    def test_noiseless_keeps_one_column(self):
        params = MapParams(3)
        init = momentum_basis_state(params)
        snap = run_trajectories(params, 4, 0.0, 16, 1, init).final
        assert snap.amplitudes.shape == (params.N, 1)
        assert snap.noiseless
        assert len(snap.batch_slices) == 8

    def test_snapshots_consistent_with_full_run(self):
        params = MapParams(3)
        init = momentum_basis_state(params)
        both = run_trajectories(params, 6, 3e-3, 8, 5, init, snapshot_times=[3, 6])
        only_final = run_trajectories(params, 6, 3e-3, 8, 5, init)
        np.testing.assert_allclose(
            both.snapshots[6].rho.matrix, only_final.final.rho.matrix, atol=1e-15
        )
        assert set(both.snapshots) == {3, 6}

    def test_batch_rhos_average_to_total(self):
        params = MapParams(3)
        res = run_trajectories(params, 3, 5e-3, 16, 2, momentum_basis_state(params))
        snap = res.final
        batch_rhos = [mixture(snap.amplitudes[:, sl]) for sl in snap.batch_slices]
        stacked = np.mean([b.matrix for b in batch_rhos], axis=0)
        np.testing.assert_allclose(stacked, snap.rho.matrix, atol=1e-12)

    def test_fidelity_decays_with_epsilon(self):
        params = MapParams(4)
        init = momentum_basis_state(params)
        f_small = run_trajectories(params, 10, 1e-3, 24, 9, init).final.mean_fidelity
        f_large = run_trajectories(params, 10, 2e-2, 24, 9, init).final.mean_fidelity
        assert f_large < f_small <= 1.0

    def test_monte_carlo_convergence(self):
        # distance between successive-doubling averages shrinks
        params = MapParams(3)
        init = momentum_basis_state(params)
        eps, t = 8e-3, 5
        rhos = {
            n: run_trajectories(params, t, eps, n, 21, init).final.rho.matrix
            for n in (32, 128, 512)
        }
        d1 = np.linalg.norm(rhos[32] - rhos[128])
        d2 = np.linalg.norm(rhos[128] - rhos[512])
        assert d2 < d1

    def test_rejects_zero_realizations(self):
        params = MapParams(2)
        with pytest.raises(ValidationError):
            run_trajectories(params, 1, 1e-3, 0, 0, momentum_basis_state(params))


def random_columns(n_qubits, count, seed):
    """``count`` random normalized states of ``n_qubits`` as (N, count) columns."""
    rng = np.random.default_rng(seed)
    shape = (2**n_qubits, count)
    amps = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return amps / np.linalg.norm(amps, axis=0)


class TestMixture:
    def test_one_column_is_the_pure_projector(self):
        psi = random_columns(2, 1, 29)
        rho = mixture(psi)
        assert rho.n_qubits == 2
        np.testing.assert_allclose(rho.matrix, psi @ psi.conj().T, atol=1e-14)

    def test_two_basis_states_give_half_identity(self):
        rho = mixture(np.eye(2, dtype=complex))
        np.testing.assert_allclose(rho.matrix, np.eye(2) / 2, atol=1e-15)

    def test_repeated_state_stays_pure(self):
        psi = random_columns(2, 1, 31)
        rho = mixture(np.repeat(psi, 8, axis=1))
        np.testing.assert_allclose(rho.matrix, psi @ psi.conj().T, atol=1e-13)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), count=st.integers(1, 6))
    def test_any_convex_mixture_is_valid(self, seed, count):
        # column j scaled by sqrt(B w_j): the equal-weight mixture is sum_j w_j |psi_j><psi_j|
        weights = np.random.default_rng(seed).dirichlet(np.ones(count))
        states = random_columns(2, count, seed)
        rho = mixture(states * np.sqrt(count * weights))
        expected = sum(w * np.outer(s, s.conj()) for w, s in zip(weights, states.T))
        np.testing.assert_allclose(rho.matrix, expected, atol=1e-14)
        rho.validate()  # Hermitian / trace / PSD
        assert von_neumann_entropy(rho) >= -1e-12

    @pytest.mark.parametrize("n_qubits", [2, 4, 6, 7, 8])
    @pytest.mark.parametrize("per_level", [0, 0.5, 1, 4, 16])
    def test_agrees_with_one_product(self, n_qubits, per_level):
        # R from 1 to 16 N, off the strip count by 3 columns where R >= N
        n_levels = 2**n_qubits
        count = max(1, int(per_level * n_levels) - 3)
        columns = np.asfortranarray(random_columns(n_qubits, count, n_qubits + count))
        product = columns @ columns.conj().T
        expected = 0.5 * (product + product.conj().T) / count
        got = mixture(columns).matrix
        assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))

    @pytest.mark.parametrize("per_level", [0.5, 4])
    def test_peak_is_rho_and_its_temporaries(self, per_level):
        # no conjugate copy of the block: the traced peak above the (N, R)
        # input is rho and at most RHO_TEMPORARIES more N x N matrices
        n_levels = 2**6
        columns = np.asfortranarray(random_columns(6, int(per_level * n_levels), 3))
        tracemalloc.start()
        try:
            mixture(columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (1 + RHO_TEMPORARIES) * 16 * n_levels**2

    @pytest.mark.parametrize("n_qubits, count", [(1, 1), (3, 5), (4, 40)])
    def test_hermitian_bit_for_bit(self, n_qubits, count):
        # hermitian_eigenvalues then symmetrizes nothing away
        m = mixture(random_columns(n_qubits, count, 7)).matrix
        assert np.array_equal(m, m.conj().T)


class TestBatchSlices:
    @pytest.mark.parametrize("n", [1, 5, 8, 9, 48, 1027])
    def test_same_batches_as_array_split(self, n):
        values = np.arange(n)
        expected = np.array_split(values, min(8, n))
        got = [values[sl] for sl in batch_slices(n, 8)]
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            np.testing.assert_array_equal(g, e)


class TestMemoryGuard:
    def test_estimate_nq12_two_times(self, monkeypatch):
        # R = 4N: 2 blocks of 1.07 GB, then 2 rhos and 2 temporaries of
        # 268 MB; nothing of that size is allocated
        monkeypatch.setattr(noise, "physical_memory_bytes", lambda: 3 * 10**9)
        with pytest.raises(
            ValidationError,
            match=r"needs ~3\.2 GB: 2\.1 GB of amplitude blocks, 4 N x N matrices of 268 MB",
        ):
            require_memory(12, 2, 4 * 4096)
        monkeypatch.setattr(noise, "physical_memory_bytes", lambda: 4 * 10**9)
        require_memory(12, 2, 4 * 4096)

    def test_extra_matrices_count(self, monkeypatch):
        # n_q = 4, R = N: the block is one matrix's worth, so the run needs 4
        # matrices and each worker 4 more plus a batch of 2 columns
        per_matrix = 16 * 4**4
        monkeypatch.setattr(noise, "physical_memory_bytes", lambda: 8 * per_matrix)
        require_memory(4, 1, 16)
        with pytest.raises(ValidationError, match="for 1 spectrum worker"):
            require_memory(4, 1, 16, workers=1)

    def test_ensemble_estimate_counts_workers(self, monkeypatch):
        # up to n_q = 15 a worker holds ENSEMBLE_WORKER_COPIES blocks of
        # PURE_BLOCK_BYTES, from n_q = 16 that many states; the run's own
        # process builds no state
        worker = experiments.ENSEMBLE_WORKER_COPIES * PURE_BLOCK_BYTES
        monkeypatch.setattr(experiments, "physical_memory_bytes", lambda: 2 * worker)
        require_ensemble_memory(4, workers=2)
        require_ensemble_memory(15, workers=2)
        with pytest.raises(ValidationError, match="n_q = 4 with 3 spectrum worker"):
            require_ensemble_memory(4, workers=3)
        with pytest.raises(ValidationError, match="n_q = 16 with 2 spectrum worker"):
            require_ensemble_memory(16, workers=2)

    def test_run_trajectories_refuses_before_work(self, monkeypatch):
        monkeypatch.setattr(noise, "physical_memory_bytes", lambda: 10**4)
        params = MapParams(4)
        with pytest.raises(ValidationError, match="this machine has"):
            run_trajectories(params, 3, 1e-2, 16, 0, momentum_basis_state(params))


class TestFidelityDecayLaw:
    def test_log_fidelity_linear_in_epsilon_squared(self):
        params = MapParams(4)
        init = momentum_basis_state(params)
        t = 10
        xs, ys = [], []
        for eps in (1e-3, 2e-3, 4e-3, 8e-3):
            res = run_trajectories(params, t, eps, 48, 17, init)
            xs.append(eps**2)
            ys.append(-math.log(res.final.mean_fidelity))
        slope, intercept = np.polyfit(xs, ys, 1)
        pred = np.polyval([slope, intercept], xs)
        r2 = 1 - np.sum((np.array(ys) - pred) ** 2) / np.sum((ys - np.mean(ys)) ** 2)
        assert r2 > 0.95
        assert slope > 0
