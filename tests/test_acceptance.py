"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Heavy inputs (the noise sweep, the fidelity calibration) come from
session-scoped fixtures in conftest.py and are shared across criteria.
Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""
import math

import numpy as np

from entforge.core import StateVector
from entforge.entanglement import (
    analytic_threshold,
    fano_entropy_bound,
    page_value,
    predicted_entropy,
)
from entforge.experiments import (
    REFERENCE_GAMMA,
    find_threshold,
    fit_linear,
    fit_power_law,
)
from entforge.properties import run_property_suite
from entforge.sawtooth import (
    MapParams,
    build_step_circuit,
    evolve_circuit,
    evolve_exact,
    reference_gate_count,
)

PERTURBATIVE_CAP = 0.5  # gamma_ref * eps^2 * n_g_ref * t below this is in-regime


def report(number: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"\n[acceptance] criterion {number} {status}: {detail}")


def in_regime(eps: float, n_q: int, t: int) -> bool:
    return REFERENCE_GAMMA * eps**2 * reference_gate_count(n_q) * t <= PERTURBATIVE_CAP


def predicted_threshold(reference: float, n_q: int, t: int, fraction: float) -> float:
    """Noise amplitude at which reference - predicted_entropy falls to
    fraction * reference, the target find_threshold interpolates to.

    The entropy depends on epsilon only through x = gamma eps^2 n_g t, so the
    gamma used here cancels from every threshold ratio and fitted exponent.
    """
    n_g = reference_gate_count(n_q)
    target = (1.0 - fraction) * reference
    # x = 1 at hi, where the entropy 2 n_q + 1/ln 2 exceeds any reference
    lo, hi = 0.0, 1.0 / math.sqrt(REFERENCE_GAMMA * n_g * t)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if predicted_entropy(mid, n_q, t, REFERENCE_GAMMA, n_g) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_1_page_convergence(generation_result):
    diffs = {}
    for n_q in (4, 6, 8, 10):
        series = generation_result.series[n_q]
        diffs[n_q] = abs(float(series.mean_entropy[30]) - page_value(n_q))
    ok = all(d <= 0.05 for d in diffs.values())
    detail = ", ".join(f"n_q={n}: |dE|={d:.4f}" for n, d in diffs.items()) + " (tol 0.05)"
    report(1, ok, detail)
    assert ok, detail


def test_criterion_2_convergence_timescale(generation_result):
    taus = [(n, generation_result.series[n].tau) for n in (4, 6, 8, 10)]
    increasing = all(a[1] < b[1] for a, b in zip(taus, taus[1:]))
    line = fit_linear([(float(n), t) for n, t in taus])
    ok = increasing and line.r_squared > 0.8
    detail = (
        f"tau={['%.2f' % t for _, t in taus]}, strictly increasing={increasing}, "
        f"linear-fit R^2={line.r_squared:.3f} (> 0.8)"
    )
    report(2, ok, detail)
    assert ok, detail


def test_criterion_3_spectrum_width(spectrum_result):
    saw = spectrum_result.rate_fits["sawtooth"].exponent_or_rate
    haar = spectrum_result.rate_fits["haar"].exponent_or_rate
    rel4 = spectrum_result.families[(4, "sawtooth")].relative_std
    ok = (0.33 <= saw <= 0.63) and (0.40 <= haar <= 0.60) and (0.05 <= rel4 <= 0.2)
    detail = (
        f"sawtooth rate={saw:.3f} (0.48+-0.15), haar rate={haar:.3f} (0.50+-0.10), "
        f"rel_std(n_q=4)={rel4:.3f} ([0.05, 0.2])"
    )
    report(3, ok, detail)
    assert ok, detail


def test_criterion_4_oracle_equivalence():
    worst = 1.0
    rng = np.random.default_rng(2024)
    for n_q in range(2, 9):
        params = MapParams(n_q)
        circuit = build_step_circuit(params)
        for _ in range(5):
            amps = rng.standard_normal(params.N) + 1j * rng.standard_normal(params.N)
            psi = StateVector(n_q, amps / np.linalg.norm(amps))
            overlap = evolve_circuit(psi, circuit, 30).overlap_probability(
                evolve_exact(psi, params, 30)
            )
            worst = min(worst, overlap)
    ok = worst > 1 - 1e-9
    detail = f"min |<circuit|exact>|^2 = 1 - {1 - worst:.2e} over n_q in 2..8, 5 states each"
    report(4, ok, detail)
    assert ok, detail


def test_criterion_5_fidelity_decay(gamma_calibration):
    cal = gamma_calibration
    gamma = cal.gamma_reference_convention
    r2 = cal.fit_reference.r_squared
    ok = (0.1 <= gamma <= 0.6) and r2 > 0.95
    detail = (
        f"gamma (3nq^2+nq convention) = {gamma:.3f} ([0.1, 0.6], paper ~0.28), "
        f"-ln F linearity R^2 = {r2:.4f} (> 0.95); "
        f"gamma (built decomposition) = {cal.gamma_actual:.3f}"
    )
    report(5, ok, detail)
    assert ok, detail


def test_criterion_6_bound_behavior(acceptance_sweep):
    sweep = acceptance_sweep
    problems = []
    for n_q in (4, 6, 8):
        for kind in ("lower", "upper"):
            points = sweep.points_for(n_q, 30)
            ref = sweep.pure_reference[(n_q, 30, kind)]
            for p, q in zip(points, points[1:]):
                a, b = getattr(p, kind), getattr(q, kind)
                slack = 2.0 * math.hypot(a.stderr, b.stderr)
                if b.mean > a.mean + slack:
                    problems.append(
                        f"{kind} mean rises at n_q={n_q}, eps={q.epsilon:.3g}"
                    )
            drop = abs(getattr(points[0], kind).mean - ref) / ref
            if drop > 0.02:
                problems.append(
                    f"{kind} at n_q={n_q}: smallest-eps value {drop:.1%} from eps=0"
                )
        margin = min(p.ordering_margin for p in sweep.points_for(n_q, 30))
        if margin < -1e-9:
            problems.append(f"bound ordering violated at n_q={n_q} by {margin:.2e}")
    ok = not problems
    detail = (
        "monotone within 2 SE, lower<=upper per bipartition, smallest-eps within 2%"
        if ok
        else "; ".join(problems)
    )
    report(6, ok, detail)
    assert ok, detail


def test_criterion_7_threshold_scaling(sweep_config, acceptance_sweep):
    # The 1/n_q law of analytic_threshold is the large-n_q limit of the
    # perturbative entropy; at n_q <= 8 the exponent follows from the full
    # formula applied to the noiseless lower-bound references.
    result = find_threshold(sweep_config, sweep=acceptance_sweep)
    b_pred = {}
    for t in (15, 30):
        pts = [
            (float(n_q), predicted_threshold(
                acceptance_sweep.pure_reference[(n_q, t, "lower")],
                n_q, t, sweep_config.threshold_fraction,
            ))
            for n_q in sweep_config.qubit_range
        ]
        b_pred[t] = fit_power_law(pts).exponent_or_rate
    steeper_at_15 = abs(b_pred[15]) > abs(b_pred[30])
    problems, parts = [], []
    for kind in ("lower", "upper"):
        b = {t: result.fits[(t, kind)].exponent_or_rate for t in (15, 30)}
        parts.append(
            f"{kind}: b(30)={b[30]:.3f} (pred {b_pred[30]:.3f}), "
            f"b(15)={b[15]:.3f} (pred {b_pred[15]:.3f})"
        )
        for t in (15, 30):
            if abs(b[t] - b_pred[t]) > 0.2:
                problems.append(
                    f"{kind} t={t} exponent {b[t]:.3f} outside {b_pred[t]:.3f}+-0.2"
                )
        if (abs(b[15]) > abs(b[30])) != steeper_at_15:
            problems.append(
                f"{kind}: |b(15)|={abs(b[15]):.3f} vs |b(30)|={abs(b[30]):.3f} "
                f"ordered unlike the prediction"
            )
    ok = not problems
    detail = "; ".join(parts) + ("" if ok else " -- " + "; ".join(problems))
    report(7, ok, detail)
    assert ok, detail


def test_criterion_8_analytic_consistency(sweep_config, acceptance_sweep, gamma_calibration):
    sweep = acceptance_sweep
    gamma = gamma_calibration.gamma_reference_convention
    problems = []
    # entropy never exceeds the fidelity-implied cap
    for p in sweep.points:
        n_q, t, eps, s = p.n_qubits, p.time, p.epsilon, p.total_entropy
        if not in_regime(eps, n_q, t):
            continue
        cap = fano_entropy_bound(p.fidelity, n_q)
        if s > cap + 1e-9:
            problems.append(f"S={s:.4f} > cap={cap:.4f} at (n_q={n_q}, t={t}, eps={eps:.3g})")
    # measured lower-bound mean stays above the eps=0 value minus the full
    # perturbative entropy; its leading large-n_q term 6 gamma n_q^3 eps^2 t
    # alone (the drop analytic_threshold halves) underestimates the drop here
    margins = []  # (E_m - floor) / predicted entropy, n_q, t, eps
    for n_q in (4, 6, 8):
        for t in (15, 30):
            for p in sweep.points_for(n_q, t):
                if not in_regime(p.epsilon, n_q, t):
                    continue
                drop = predicted_entropy(
                    p.epsilon, n_q, t, gamma, reference_gate_count(n_q)
                )
                floor = sweep.pure_reference[(n_q, t, "lower")] - drop
                margins.append(((p.lower.mean - floor) / drop, n_q, t, p.epsilon))
                if p.lower.mean < floor - 3 * p.lower.stderr:
                    problems.append(
                        f"E_m={p.lower.mean:.4f} < floor={floor:.4f} - 3se at "
                        f"(n_q={n_q}, t={t}, eps={p.epsilon:.3g})"
                    )
    # analytic threshold within a factor of two of the simulated one
    thr = find_threshold(sweep_config, sweep=sweep)
    ratios = []
    for row in thr.rows:
        if row.bound_kind != "lower":
            continue
        ana = analytic_threshold(row.n_qubits, row.time, gamma)
        ratio = row.eps_threshold / ana
        ratios.append(f"n_q={row.n_qubits},t={row.time}: {ratio:.2f}")
        if not 0.5 <= ratio <= 2.0:
            problems.append(
                f"threshold ratio {ratio:.2f} outside [0.5, 2] at "
                f"(n_q={row.n_qubits}, t={row.time})"
            )
    ok = not problems
    margin, m_nq, m_t, m_eps = min(margins)
    closest = (
        f"smallest E_m - floor = {margin:.2f} x predicted entropy at "
        f"(n_q={m_nq}, t={m_t}, eps={m_eps:.3g})"
    )
    detail = (
        f"Fano cap and floor hold on the perturbative grid; {closest}; "
        f"simulated/analytic threshold ratios: {', '.join(ratios)}"
        if ok
        else "; ".join(problems[:4]) + f" -- {closest}"
    )
    report(8, ok, detail)
    assert ok, detail


def test_criterion_9_property_suite():
    results = run_property_suite(0)
    failed = [r for r in results if not r.passed]
    ok = not failed
    detail = (
        f"{len(results)}/{len(results)} module invariants hold"
        if ok
        else "; ".join(f"{r.name}: {r.detail}" for r in failed)
    )
    report(9, ok, detail)
    assert ok, detail
