import math

import numpy as np
import pytest

from entforge.core import (
    Bipartition,
    DensityMatrix,
    StateVector,
    ValidationError,
    fidelity,
    hermitian_eigenvalues,
    reduced_density_matrix,
    von_neumann_entropy,
)
from entforge.entanglement import (
    MixedSpectrum,
    RegimeWarning,
    analytic_threshold,
    binary_entropy,
    enumerate_balanced_bipartitions,
    fano_entropy_bound,
    haar_random_state,
    log_negativity,
    mixed_spectrum,
    page_value,
    predicted_entropy,
    pure_log_negativity,
    pure_spectrum,
    stats,
)
from entforge.noise import batch_slices, run_trajectories
from entforge.sawtooth import MapParams, evolve_exact, momentum_basis_state


def bell_state():
    return StateVector(2, np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2))


def ghz_state(n_q):
    amps = np.zeros(2**n_q, dtype=complex)
    amps[0] = amps[-1] = 1 / np.sqrt(2)
    return StateVector(n_q, amps)


class TestEnumerate:
    @pytest.mark.parametrize("n_q,count", [(2, 1), (4, 3), (6, 10), (8, 35), (10, 126), (12, 462)])
    def test_counts(self, n_q, count):
        parts = enumerate_balanced_bipartitions(n_q)
        assert len(parts) == count
        assert len({p.a_mask for p in parts}) == count
        assert all(p.is_balanced and p.a_mask & 1 for p in parts)

    def test_rejects_odd(self):
        with pytest.raises(ValidationError):
            enumerate_balanced_bipartitions(5)


class TestPureSpectrum:
    def test_basis_state_all_zero(self):
        samples = pure_spectrum(StateVector.basis_state(4, 9))
        assert all(s == pytest.approx(0.0, abs=1e-9) for s in samples)

    def test_ghz_all_one(self):
        samples = pure_spectrum(ghz_state(4))
        assert len(samples) == 3
        assert all(s == pytest.approx(1.0, abs=1e-9) for s in samples)

    @pytest.mark.parametrize("n_q", [4, 6])
    def test_bipartition_order(self, n_q):
        state = haar_random_state(n_q, 7)
        spectrum = pure_spectrum(state)
        parts = enumerate_balanced_bipartitions(n_q)
        assert spectrum.dtype == np.float64 and spectrum.shape == (len(parts),)
        for i, part in enumerate(parts):
            assert spectrum[i] == von_neumann_entropy(reduced_density_matrix(state, part))

    @pytest.mark.parametrize("n_q", [8, 10, 12])
    def test_blocks_match_reference_bit_for_bit(self, n_q):
        # at n_q = 10 and 12 the 126 and 462 bipartitions span several blocks
        params = MapParams(n_q)
        states = [
            evolve_exact(momentum_basis_state(params, 1), params, 5),
            haar_random_state(n_q, 3),
            StateVector.basis_state(n_q, 5),
        ]
        parts = enumerate_balanced_bipartitions(n_q)
        for state in states:
            reference = np.array(
                [von_neumann_entropy(reduced_density_matrix(state, part)) for part in parts]
            )
            assert pure_spectrum(state).tobytes() == reference.tobytes()
            negativities = []
            for part in parts:
                eigs = hermitian_eigenvalues(reduced_density_matrix(state, part).matrix)
                roots = np.sqrt(np.clip(eigs, 0.0, 1.0))
                negativities.append(2.0 * math.log2(float(np.sum(roots))))
            assert pure_log_negativity(state).tobytes() == np.array(negativities).tobytes()

    def test_sawtooth_state_near_page(self):
        params = MapParams(8)
        state = evolve_exact(momentum_basis_state(params), params, 30)
        mean = stats(pure_spectrum(state)).mean
        assert abs(mean - 3.27865) < 0.1


class TestPageValue:
    @pytest.mark.parametrize(
        "n_q,expected", [(2, 0.27865), (4, 1.27865), (12, 5.27865)]
    )
    def test_values(self, n_q, expected):
        assert page_value(n_q) == pytest.approx(expected, abs=5e-6)


class TestHaarRandomState:
    def test_unit_norm(self):
        psi = haar_random_state(6, 0)
        assert abs(np.linalg.norm(psi.amplitudes) - 1) < 1e-12

    def test_reproducible(self):
        np.testing.assert_array_equal(
            haar_random_state(4, 5).amplitudes, haar_random_state(4, 5).amplitudes
        )

    def test_mean_entropy_near_page(self):
        vals = []
        for seed in range(100):
            psi = haar_random_state(8, seed)
            vals.append(stats(pure_spectrum(psi)).mean)
        assert abs(np.mean(vals) - 3.27865) < 0.02


def two_qubit_bounds(rho):
    """(lower, upper) of ``mixed_spectrum`` at n_q = 2, whose one balanced
    bipartition splits qubit 0 from qubit 1."""
    assert enumerate_balanced_bipartitions(2) == [Bipartition(2, 0b01)]
    spec = mixed_spectrum(rho)
    (lower,), (upper,) = spec.lower, spec.upper
    assert lower <= upper + 1e-9
    return lower, upper


class TestDistillableBounds:
    def test_bell_projector(self):
        rho = DensityMatrix.from_pure(bell_state())
        lo, up = two_qubit_bounds(rho)
        assert lo == pytest.approx(1.0, abs=1e-9)
        assert up == pytest.approx(1.0, abs=1e-9)

    def test_maximally_mixed(self):
        rho = DensityMatrix(2, np.eye(4, dtype=complex) / 4)
        lo, up = two_qubit_bounds(rho)
        assert lo == pytest.approx(0.0, abs=1e-9)
        assert up == pytest.approx(0.0, abs=1e-9)

    def test_product_state(self):
        rho = DensityMatrix.from_pure(StateVector.basis_state(2, 2))
        lo, up = two_qubit_bounds(rho)
        assert lo == pytest.approx(0.0, abs=1e-9)
        assert up == pytest.approx(0.0, abs=1e-9)

    def test_pure_log_negativity_matches_direct(self):
        psi = haar_random_state(6, 11)
        rho = DensityMatrix.from_pure(psi)
        parts = enumerate_balanced_bipartitions(6)
        schmidt = pure_log_negativity(psi)
        assert schmidt.dtype == np.float64 and schmidt.shape == (len(parts),)
        direct = [log_negativity(rho, part) for part in parts]
        np.testing.assert_allclose(schmidt, direct, rtol=0, atol=1e-9)


class TestMixedSpectrum:
    def test_pure_input_lower_equals_entropy_spectrum(self):
        psi = haar_random_state(4, 2)
        spec = mixed_spectrum(DensityMatrix.from_pure(psi))
        np.testing.assert_allclose(spec.lower, pure_spectrum(psi), atol=1e-8)

    @pytest.mark.parametrize("n_q", [4, 6])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_spans_join_to_the_whole_call(self, n_q, k):
        # the spectrum workers take rho's bipartitions in k contiguous
        # spans; joined, they must give the whole call bit for bit
        params = MapParams(n_q)
        rho = run_trajectories(params, 5, 2e-2, 24, 3, momentum_basis_state(params)).final.rho
        whole = mixed_spectrum(rho)
        parts = [mixed_spectrum(rho, span) for span in batch_slices(len(whole.lower), k)]
        joined = MixedSpectrum.join(parts)
        assert len(parts) == k
        assert joined.lower.tobytes() == whole.lower.tobytes()
        assert joined.upper.tobytes() == whole.upper.tobytes()
        assert [p.total_entropy for p in parts] == [whole.total_entropy] * k
        assert joined.total_entropy == whole.total_entropy

    def test_ordering_lower_below_upper(self):
        params = MapParams(4)
        res = run_trajectories(params, 5, 8e-3, 32, 3, momentum_basis_state(params))
        spec = mixed_spectrum(res.final.rho)
        for lo, up in zip(spec.lower, spec.upper):
            assert lo <= up + 1e-9

    @staticmethod
    def noisy_rho_with_asymmetry(asymmetry):
        """A sawtooth mixture at n_q = 4 plus an anti-Hermitian term that
        makes max |rho - rho^dagger| equal ``asymmetry``.

        The term sits on entries (i, i ^ 0b1111), whose row and column differ
        on both sides of every bipartition, so no reduced density matrix
        sees it and only the check on rho itself can catch it.
        """
        params = MapParams(4)
        res = run_trajectories(params, 5, 8e-3, 32, 3, momentum_basis_state(params))
        skew = np.zeros((16, 16), dtype=complex)
        skew[np.arange(16), np.arange(16) ^ 0b1111] = 0.5j * asymmetry
        return DensityMatrix(4, res.final.rho.matrix + skew)

    def test_rejects_asymmetry_above_tolerance(self):
        with pytest.raises(ValidationError):
            mixed_spectrum(self.noisy_rho_with_asymmetry(2e-9))

    def test_rounding_asymmetry_matches_log_negativity(self):
        rho = self.noisy_rho_with_asymmetry(1e-12)
        assert np.max(np.abs(rho.matrix - rho.matrix.conj().T)) > 0.0
        spec = mixed_spectrum(rho)
        assert list(spec.upper) == [
            log_negativity(rho, part) for part in enumerate_balanced_bipartitions(4)
        ]

    @staticmethod
    def rho_with_spectrum(eigs):
        """Hermitian 4 x 4 matrix with eigenvalues ``eigs`` in a random basis."""
        rng = np.random.default_rng(5)
        basis, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        matrix = (basis * np.asarray(eigs)) @ basis.conj().T
        return DensityMatrix(2, 0.5 * (matrix + matrix.conj().T))

    def test_rejects_negative_eigenvalue_beyond_tolerance(self):
        mixed_spectrum(self.rho_with_spectrum([0.6 + 1e-9, 0.4, 0.0, -1e-9]))
        with pytest.raises(ValidationError, match="smallest eigenvalue"):
            mixed_spectrum(self.rho_with_spectrum([0.6 + 1e-7, 0.4, 0.0, -1e-7]))

    def test_rejects_trace_beyond_tolerance(self):
        mixed_spectrum(self.rho_with_spectrum([0.6, 0.4 + 1e-11, 0.0, 0.0]))
        with pytest.raises(ValidationError, match="trace"):
            mixed_spectrum(self.rho_with_spectrum([0.6, 0.4 + 1e-9, 0.0, 0.0]))

    def test_noiseless_sawtooth_lower_mean(self):
        params = MapParams(6)
        state = evolve_exact(momentum_basis_state(params), params, 30)
        spec = mixed_spectrum(DensityMatrix.from_pure(state))
        assert abs(spec.lower.mean() - 2.27865) < 0.1


class TestStats:
    def test_constant_samples(self):
        s = stats([2.0, 2.0, 2.0])
        assert s.mean == 2.0 and s.std_dev == 0.0 and s.count == 3

    def test_two_values(self):
        s = stats([0.0, 2.0])
        assert s.mean == 1.0
        assert s.std_dev == 1.0
        assert s.relative_std == 1.0

    def test_haar_relative_std_scale(self):
        rels = []
        for seed in range(30):
            psi = haar_random_state(8, 100 + seed)
            rels.append(stats(pure_spectrum(psi)).relative_std)
        # concentration: order exp(-8/2) ~ 0.02
        assert 0.005 < np.mean(rels) < 0.05

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            stats([])


class TestBinaryEntropy:
    def test_half(self):
        assert binary_entropy(0.5) == 1.0

    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_value(self):
        assert binary_entropy(0.89) == pytest.approx(0.49992, abs=1e-4)

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            binary_entropy(1.2)


class TestFanoBound:
    def test_perfect_fidelity(self):
        assert fano_entropy_bound(1.0, 6) == 0.0

    def test_zero_fidelity(self):
        assert fano_entropy_bound(0.0, 3) == pytest.approx(math.log2(4**3 - 1))

    def test_holds_on_monte_carlo_state(self):
        params = MapParams(4)
        init = momentum_basis_state(params)
        for eps in (1e-3, 5e-3, 2e-2):
            res = run_trajectories(params, 8, eps, 48, 19, init)
            snap = res.final
            s = von_neumann_entropy(snap.rho)
            ideal = evolve_exact(init, params, 8)
            bound = fano_entropy_bound(fidelity(ideal, snap.rho), 4)
            assert s <= bound + 1e-9


class TestPredictedEntropy:
    def test_zero_epsilon(self):
        assert predicted_entropy(0.0, 8, 30, 0.28, 200) == 0.0

    def test_dominant_register_term(self):
        # at n_q=12, t=30, eps=5e-3 the 2*n_q term carries most of the bracket
        n_q, t, gamma = 12, 30, 0.28
        n_g = 3 * n_q**2 + n_q
        x = gamma * 25e-6 * n_g * t
        other = -math.log2(x) + 1 / math.log(2)
        assert 2 * n_q / other > 3.0

    def test_monotone_in_epsilon(self):
        values = [predicted_entropy(e, 8, 30, 0.28, 200) for e in (1e-4, 3e-4, 1e-3)]
        assert values[0] < values[1] < values[2]

    def test_regime_warning(self):
        with pytest.warns(RegimeWarning):
            predicted_entropy(0.5, 8, 30, 0.28, 200)


def leading_lower_bound(epsilon, n_q, t, gamma):
    """page_value minus 2 n_q x, the leading large-n_q part of
    predicted_entropy with n_g = 3 n_q^2: the bound analytic_threshold
    halves."""
    x = gamma * epsilon**2 * 3 * n_q**2 * t
    return page_value(n_q) - 2.0 * n_q * x


class TestPredictedLowerBound:
    def test_zero_epsilon_is_page(self):
        assert leading_lower_bound(0.0, 8, 30, 0.3) == page_value(8)

    def test_half_drop_crossing_matches_analytic(self):
        n_q, t, gamma = 8, 30, 0.31
        target_drop = n_q / 4.0
        # bisect the drop page - bound = n_q/4
        lo, hi = 0.0, 1.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            drop = page_value(n_q) - leading_lower_bound(mid, n_q, t, gamma)
            if drop < target_drop:
                lo = mid
            else:
                hi = mid
        assert 0.5 * (lo + hi) == pytest.approx(analytic_threshold(n_q, t, gamma), abs=1e-10)

    def test_threshold_scaling_inverse_nq(self):
        ratio = analytic_threshold(8, 30, 0.3) / analytic_threshold(4, 30, 0.3)
        assert ratio == pytest.approx(0.5, abs=1e-12)


class TestEntropySymmetryInvariant:
    def test_all_bipartitions_of_random_states(self):
        psi = haar_random_state(6, 42)
        for part in enumerate_balanced_bipartitions(6):
            s_a = von_neumann_entropy(reduced_density_matrix(psi, part, "a"))
            s_b = von_neumann_entropy(reduced_density_matrix(psi, part, "b"))
            assert abs(s_a - s_b) < 1e-9
