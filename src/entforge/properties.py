"""Self-contained property suite behind the `validate` subcommand.

Each check exercises one module invariant at small sizes and reports a
pass/fail line; the whole suite runs in well under a minute.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Bipartition,
    DensityMatrix,
    StateVector,
    apply_one_qubit_gate,
    fidelity,
    partial_transpose,
    reduced_density_matrix,
    trace_norm,
    von_neumann_entropy,
)
from .entanglement import (
    enumerate_balanced_bipartitions,
    fano_entropy_bound,
    haar_random_state,
    mixed_spectrum,
)
from .noise import NoiseRealization, mixture, perturb_one_qubit_gate, run_trajectories
from .sawtooth import (
    Gate,
    GateKind,
    MapParams,
    build_step_circuit,
    evolve_circuit,
    evolve_exact,
    inverse_participation_ratio,
    momentum_basis_state,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _random_unitary_2x2(rng) -> np.ndarray:
    m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_state(n_q, rng) -> StateVector:
    amps = rng.standard_normal(2**n_q) + 1j * rng.standard_normal(2**n_q)
    return StateVector(n_q, amps / np.linalg.norm(amps))


def check_norm_preservation(seed) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 7))
        psi = _random_state(n, rng)
        out = apply_one_qubit_gate(psi, int(rng.integers(0, n)), _random_unitary_2x2(rng))
        worst = max(worst, abs(np.linalg.norm(out.amplitudes) - 1.0))
    return CheckResult(
        "gate norm preservation", worst < 1e-12, f"max drift {worst:.2e} (< 1e-12)"
    )


def check_entropy_symmetry(seed) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(2, 7))
        psi = _random_state(n, rng)
        mask = (int(rng.integers(1, 2**n - 1)) | 1) % (2**n - 1) or 1
        part = Bipartition(n, mask)
        s_a = von_neumann_entropy(reduced_density_matrix(psi, part, "a"))
        s_b = von_neumann_entropy(reduced_density_matrix(psi, part, "b"))
        worst = max(worst, abs(s_a - s_b))
    return CheckResult(
        "pure-state entropy symmetry", worst < 1e-9, f"max |S_A - S_B| {worst:.2e}"
    )


def check_partial_transpose(seed) -> CheckResult:
    rng = np.random.default_rng(seed)
    ok, detail = True, []
    for _ in range(10):
        n = int(rng.integers(2, 6))
        rho = DensityMatrix.from_pure(_random_state(n, rng))
        mask = (int(rng.integers(1, 2**n - 1)) | 1) % (2**n - 1) or 1
        part = Bipartition(n, mask)
        pt = partial_transpose(rho, part)
        trace_dev = abs(np.trace(pt) - 1.0)
        twice = partial_transpose(DensityMatrix(n, pt), part)
        invol_dev = float(np.max(np.abs(twice - rho.matrix)))
        tn = trace_norm(pt)
        ok = ok and trace_dev < 1e-10 and invol_dev == 0.0 and tn >= 1.0 - 1e-10
    detail = "trace preserved, involutive, ||rho^T_B||_1 >= 1"
    return CheckResult("partial transpose", ok, detail)


def check_mixture(seed) -> CheckResult:
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(6))
    # column j scaled by sqrt(6 w_j): the equal-weight mixture is sum_j w_j |psi_j><psi_j|
    columns = np.stack(
        [_random_state(3, rng).amplitudes * math.sqrt(6 * w) for w in weights], axis=1
    )
    try:
        mixture(columns).validate()  # Hermitian / trace / PSD
        return CheckResult("state mixture", True, "convex mixture is a valid state")
    except Exception as exc:  # pragma: no cover
        return CheckResult("state mixture", False, str(exc))


def check_oracle_equivalence(seed) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 1.0
    for n_q in range(1, 7):
        params = MapParams(n_q)
        circuit = build_step_circuit(params)
        psi = _random_state(n_q, rng)
        a = evolve_circuit(psi, circuit, 10)
        b = evolve_exact(psi, params, 10)
        worst = min(worst, a.overlap_probability(b))
    return CheckResult(
        "circuit vs split-operator oracle",
        worst > 1 - 1e-9,
        f"min overlap 1 - {1 - worst:.2e}",
    )


def check_unitarity_over_time(seed) -> CheckResult:
    params = MapParams(6)
    psi = momentum_basis_state(params, 1)
    a = evolve_exact(psi, params, 30)
    b = evolve_circuit(psi, build_step_circuit(params), 30)
    drift = max(
        abs(np.linalg.norm(a.amplitudes) - 1.0), abs(np.linalg.norm(b.amplitudes) - 1.0)
    )
    return CheckResult("norm over 30 steps", drift < 1e-9, f"max drift {drift:.2e}")


def check_chaos_sanity(seed) -> CheckResult:
    params = MapParams(6)
    out = evolve_exact(momentum_basis_state(params), params, 10)
    ipr = inverse_participation_ratio(out)
    return CheckResult(
        "chaotic spreading", ipr > params.N / 4, f"IPR {ipr:.1f} > N/4 = {params.N / 4}"
    )


def check_perturbed_gates_unitary(seed) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    gate = Gate(GateKind.HADAMARD, (0,))
    for _ in range(25):
        u = perturb_one_qubit_gate(gate, rng.uniform(-0.3, 0.3, 2))
        worst = max(worst, float(np.max(np.abs(u.conj().T @ u - np.eye(2)))))
    return CheckResult(
        "perturbed gate unitarity", worst < 1e-12, f"max ||U+U - I|| {worst:.2e}"
    )


def check_trajectory_state(seed) -> CheckResult:
    params = MapParams(4)
    init = momentum_basis_state(params, 1)
    res = run_trajectories(params, 6, 6e-3, 32, seed, init)
    try:
        eigs = res.final.rho.validate()  # rho is formed on first use
    except Exception as exc:
        return CheckResult("noise-averaged state invariants", False, str(exc))
    return CheckResult(
        "noise-averaged state invariants",
        True,
        f"trace 1, Hermitian, min eig {eigs[0]:.2e}",
    )


def check_bound_ordering(seed) -> CheckResult:
    params = MapParams(4)
    init = momentum_basis_state(params, 1)
    res = run_trajectories(params, 6, 8e-3, 32, seed + 1, init)
    spec = mixed_spectrum(res.final.rho)
    ok = bool(np.all(spec.lower <= spec.upper + 1e-9))
    return CheckResult(
        "distillable bound ordering", ok, "lower <= upper on every bipartition"
    )


def check_fano_inequality(seed) -> CheckResult:
    params = MapParams(4)
    init = momentum_basis_state(params, 1)
    ideal = evolve_exact(init, params, 6)
    ok = True
    for eps in (1e-3, 8e-3):
        res = run_trajectories(params, 6, eps, 32, seed + 2, init)
        s = von_neumann_entropy(res.final.rho)
        bound = fano_entropy_bound(fidelity(ideal, res.final.rho), 4)
        ok = ok and s <= bound + 1e-9
    return CheckResult("fidelity-entropy inequality", ok, "S(rho) <= h(F) + (1-F)log2(N^2-1)")


def check_bipartition_counts(seed) -> CheckResult:
    ok = True
    for n_q in range(2, 13, 2):
        expected = math.comb(n_q, n_q // 2) // 2
        ok = ok and len(enumerate_balanced_bipartitions(n_q)) == expected
    return CheckResult("balanced bipartition counts", ok, "C(n_q, n_q/2)/2 for n_q in 2..12")


def check_determinism(seed) -> CheckResult:
    params = MapParams(3)
    init = momentum_basis_state(params, 1)
    a = run_trajectories(params, 4, 5e-3, 10, seed, init)
    b = run_trajectories(params, 4, 5e-3, 10, seed, init)
    same_rho = np.array_equal(a.final.rho.matrix, b.final.rho.matrix)
    same_fid = np.array_equal(a.final.fidelities, b.final.fidelities)
    draws_differ = not np.array_equal(
        NoiseRealization(seed, 0).uniform_draws(1e-3, 16),
        NoiseRealization(seed, 1).uniform_draws(1e-3, 16),
    )
    haar_same = np.array_equal(
        haar_random_state(4, seed).amplitudes, haar_random_state(4, seed).amplitudes
    )
    ok = same_rho and same_fid and draws_differ and haar_same
    return CheckResult(
        "determinism under fixed seeds", ok, "bit-identical reruns, distinct streams"
    )


ALL_CHECKS = [
    check_norm_preservation,
    check_entropy_symmetry,
    check_partial_transpose,
    check_mixture,
    check_oracle_equivalence,
    check_unitarity_over_time,
    check_chaos_sanity,
    check_perturbed_gates_unitary,
    check_trajectory_state,
    check_bound_ordering,
    check_fano_inequality,
    check_bipartition_counts,
    check_determinism,
]


def run_property_suite(seed: int = 0) -> list[CheckResult]:
    return [check(seed) for check in ALL_CHECKS]
