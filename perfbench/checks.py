"""Output checks for one CLI invocation.

Every output point is checked against invariants that hold for any seed:
all values finite, 0 <= F <= 1, 0 <= mean entropy <= n_q/2, lower bound
<= upper bound.  Where a reference recorded for the same workload and seed
exists, each value must also match it to rounding level: the kernel and
spectrum rewrites planned for entforge may reorder floating-point sums, so
byte equality would be too strict, while Monte-Carlo noise is many orders
above this tolerance.
"""
from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

REL_TOL = 1e-9
ABS_TOL = 1e-12
LN2 = math.log(2.0)


def _finite(*values: float) -> bool:
    return all(math.isfinite(v) for v in values)


def _sweep_row(r: dict) -> bool:
    nq, mean, std, se = int(r["nq"]), float(r["mean"]), float(r["std"]), float(r["stderr"])
    return (
        _finite(float(r["eps"]), mean, std, se)
        and 0.0 <= mean <= nq / 2 + ABS_TOL
        and std >= 0.0
        and se >= 0.0
        and r["bound_kind"] in ("lower", "upper")
        and int(r["n_realizations"]) >= 1
    )


def _fidelity_row(r: dict) -> bool:
    f, se = float(r["fidelity"]), float(r["stderr"])
    return _finite(float(r["eps"]), f, se) and 0.0 <= f <= 1.0 and se >= 0.0


def _gamma_point_row(r: dict) -> bool:
    f = float(r["fidelity"])
    return _finite(float(r["eps"]), f) and 0.0 <= f <= 1.0


def _gamma_fit_row(r: dict) -> bool:
    rate, pre, r2 = float(r["exponent_or_rate"]), float(r["prefactor"]), float(r["r_squared"])
    return _finite(rate, pre, r2) and rate > 0.0 and 0.0 <= r2 <= 1.0


def _generation_row(r: dict) -> bool:
    nq = int(r["nq"])
    s, page, gap = float(r["mean_entropy"]), float(r["page_value"]), float(r["gap"])
    return (
        _finite(s, page, gap)
        and 0.0 <= s <= nq / 2 + ABS_TOL
        and math.isclose(page, nq / 2 - 1 / (2 * LN2), rel_tol=REL_TOL, abs_tol=ABS_TOL)
        and math.isclose(gap, page - s, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    )


#: row invariant per data file; every row of these files is one output point
ROW_CHECKS = {
    "noise_sweep.csv": _sweep_row,
    "fidelity.csv": _fidelity_row,
    "gamma_points.csv": _gamma_point_row,
    "fits.csv": _gamma_fit_row,
    "generation.csv": _generation_row,
}


def read_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _same_value(a: str, b: str) -> bool:
    try:
        x, y = float(a), float(b)
    except ValueError:
        return a == b
    return math.isclose(x, y, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def _matches(row: dict, ref: dict) -> bool:
    return row.keys() == ref.keys() and all(_same_value(row[k], ref[k]) for k in row)


def _row_ok(check, row: dict) -> bool:
    try:
        return bool(check(row))
    except (KeyError, TypeError, ValueError):
        return False


def _bound_order_failures(rows: list[dict], ok: list[bool]) -> None:
    """Mark both rows of an (nq, eps) point whose lower mean exceeds its upper."""
    by_point: dict[tuple, dict] = {}
    for i, r in enumerate(rows):
        if ok[i]:
            by_point.setdefault((r["nq"], r["eps"]), {})[r["bound_kind"]] = i
    for kinds in by_point.values():
        if "lower" in kinds and "upper" in kinds:
            lo, up = kinds["lower"], kinds["upper"]
            if float(rows[lo]["mean"]) > float(rows[up]["mean"]) + ABS_TOL:
                ok[lo] = ok[up] = False


def check_outputs(out_dir: Path, expected_rows: dict[str, int], reference: dict | None):
    """Check one invocation's data files.

    Returns (attempted, failed, digests_match): ``attempted`` counts the
    expected output points (or the rows found, if more), ``failed`` the
    points missing, surplus or wrong; ``digests_match`` says whether the
    manifest's sha256 digests equal the reference's (None without one).
    """
    attempted = failed = 0
    for name, expected in expected_rows.items():
        path = out_dir / name
        rows = read_rows(path.read_text()) if path.is_file() else []
        check = ROW_CHECKS[name]
        ok = [_row_ok(check, r) for r in rows[:expected]]
        if name == "noise_sweep.csv":
            _bound_order_failures(rows[:expected], ok)
        if reference is not None:
            ref_rows = read_rows(reference["files"][name])
            for i, r in enumerate(rows[: min(expected, len(ref_rows))]):
                ok[i] = ok[i] and _matches(r, ref_rows[i])
        attempted += max(expected, len(rows))
        failed += ok.count(False) + abs(len(rows) - expected)
    digests_match = None
    manifest = out_dir / "manifest.json"
    if reference is not None and manifest.is_file():
        digests_match = json.loads(manifest.read_text())["files"] == reference["digests"]
    return attempted, failed, digests_match
