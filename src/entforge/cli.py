"""Command-line front end: config parsing, dispatch, and bit-exact data files.

Subcommands: generate, spectrum, noise-sweep, threshold, calibrate-gamma,
validate.  Every experiment writes CSV tables (floats at 17 significant
digits, round-trip exact), a machine-readable summary.json, and a
manifest.json recording the resolved configuration, gate counts, and
sha256 digests of the data files.  Repeating an invocation reproduces the
data files byte for byte (the manifest's wall-clock field is exempt).

Config files are flat ``key = value`` text; command-line flags override
file values with a warning, unknown keys are errors.  The master seed
falls back to the ENTFORGE_SEED environment variable, then 0.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .core import ValidationError
from .entanglement import page_value, predicted_entropy
from .experiments import (
    REFERENCE_GAMMA,
    ExperimentConfig,
    GammaCalibration,
    ThresholdBracketError,
    calibrate_gamma,
    find_threshold,
    run_generation,
    run_noise_sweep,
    run_spectrum,
)
from .properties import run_property_suite
from .sawtooth import MapParams, build_step_circuit, reference_gate_count

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_NO_BRACKET = 3

#: keys accepted in config files; each names a flag, with ``_`` for ``-``
CONFIG_KEYS = {
    "nq",
    "k_param",
    "steps",
    "eps_grid",
    "realizations",
    "seed",
    "out",
    "strict",
    "refine",
    "haar_samples",
    "fraction",
}

COMMAND_DEFAULTS = {
    "generate": {"nq": (4, 6, 8, 10), "eps_grid": ()},
    "spectrum": {"nq": (4, 6, 8, 10), "eps_grid": ()},
    "noise-sweep": {"nq": (4, 6, 8), "eps_grid": "1e-3:1e-1:log:11"},
    "threshold": {"nq": (4, 6, 8), "eps_grid": "1e-3:1e-1:log:11"},
    "calibrate-gamma": {"nq": (4, 6), "eps_grid": "1e-4:1e-2:log:7"},
    "validate": {"nq": (4, 6), "eps_grid": ()},
}


def parse_epsilon_grid(spec: str) -> tuple[float, ...]:
    """Grid syntax: 'start:stop:log|lin:count' or comma-separated values."""
    spec = spec.strip()
    if not spec:
        return ()
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 4 or parts[2] not in ("log", "lin"):
            raise ValidationError(
                f"bad grid '{spec}'; expected start:stop:log|lin:count"
            )
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[3])
        if count < 1 or start <= 0 and parts[2] == "log":
            raise ValidationError(f"bad grid '{spec}'")
        if parts[2] == "log":
            values = np.geomspace(start, stop, count)
        else:
            values = np.linspace(start, stop, count)
        return tuple(float(v) for v in values)
    return tuple(float(v) for v in spec.split(","))


def parse_qubit_list(spec) -> tuple[int, ...]:
    if isinstance(spec, tuple):
        return spec
    return tuple(int(v) for v in str(spec).split(","))


def _read_config_file(path: Path) -> dict:
    values = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ValidationError(f"{path}:{lineno}: unknown config key '{key}'")
        values[key] = value
    return values


def _parse_bool(value: str) -> bool:
    return value.lower() == "true"


def parse_config(args: argparse.Namespace) -> tuple[ExperimentConfig, Path, dict]:
    """Resolve defaults, config file, and flags into an ExperimentConfig."""
    defaults = COMMAND_DEFAULTS[args.command]
    file_values = _read_config_file(Path(args.config)) if args.config else {}

    def pick(key, flag_value, convert):
        file_value = file_values.get(key)
        if flag_value is not None:
            if file_value is not None and convert(file_value) != flag_value:
                print(
                    f"warning: flag overrides config file value for '{key}'",
                    file=sys.stderr,
                )
            return flag_value
        if file_value is not None:
            return convert(file_value)
        return defaults.get(key)

    # unset values (None) fall back to ExperimentConfig's defaults
    resolved = {
        "qubit_range": pick("nq", args.nq, parse_qubit_list),
        "k_param": pick("k_param", args.k_param, float),
        "steps": pick("steps", args.steps, int),
        "epsilon_grid": pick("eps_grid", args.eps_grid, str),
        "n_realizations": pick("realizations", args.realizations, str),
        "strict": pick("strict", args.strict, _parse_bool),
        "refine_threshold": pick("refine", args.refine, _parse_bool),
        "haar_samples": pick("haar_samples", args.haar_samples, int),
        "threshold_fraction": pick("fraction", args.fraction, float),
    }

    if args.seed is not None:
        resolved["master_seed"] = args.seed
    elif "seed" in file_values:
        resolved["master_seed"] = int(file_values["seed"])
    elif os.environ.get("ENTFORGE_SEED"):
        resolved["master_seed"] = int(os.environ["ENTFORGE_SEED"])

    out = Path(args.out if args.out is not None else file_values.get("out", "entforge-out"))

    if resolved["n_realizations"] not in (None, "auto"):
        resolved["n_realizations"] = int(resolved["n_realizations"])
    if isinstance(resolved["epsilon_grid"], str):
        resolved["epsilon_grid"] = parse_epsilon_grid(resolved["epsilon_grid"])
    config = ExperimentConfig(**{k: v for k, v in resolved.items() if v is not None})
    return config, out, file_values


# --- output helpers -------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class RunManifest:
    """Reproducibility record: the resolved config plus file digests."""

    version: str
    command: str
    config: dict
    master_seed: int
    gate_counts: dict
    gamma_convention: str
    duration_seconds: float
    files: dict

    def write(self, path: Path) -> None:
        write_json(path, asdict(self))


def _gate_count_table(config: ExperimentConfig) -> dict:
    table = {}
    for n_q in config.qubit_range:
        actual = build_step_circuit(MapParams(n_q, config.k_param)).gate_count
        table[str(n_q)] = {
            "per_step": actual,
            "reference_3nq2_plus_nq": reference_gate_count(n_q),
            "note": "decomposition count differs from the reference constant",
        }
    return table


def _finish(command, config, out_dir, data_files, summary, started) -> None:
    summary_path = out_dir / "summary.json"
    write_json(summary_path, summary)
    files = {p.name: _digest(p) for p in data_files + [summary_path]}
    manifest = RunManifest(
        __version__,
        command,
        {
            "qubit_range": list(config.qubit_range),
            "k_param": config.k_param,
            "steps": config.steps,
            "epsilon_grid": [_fmt(e) for e in config.epsilon_grid],
            "n_realizations": config.n_realizations,
            "strict": config.strict,
            "refine_threshold": config.refine_threshold,
            "haar_samples": config.haar_samples,
            "threshold_fraction": config.threshold_fraction,
        },
        config.master_seed,
        _gate_count_table(config),
        f"calibrated gamma uses the built decomposition's count; the "
        f"reference convention (3 nq^2 + nq, gamma ~ {REFERENCE_GAMMA}) is "
        f"reported alongside",
        time.perf_counter() - started,
        files,
    )
    manifest.write(out_dir / "manifest.json")


def _fit_rows(fits: dict) -> list[tuple]:
    rows = []
    for name in sorted(fits):
        f = fits[name]
        rows.append((name, f.exponent_or_rate, f.prefactor, f.r_squared))
    return rows


# --- subcommand runners -----------------------------------------------------------


def _cmd_generate(config: ExperimentConfig, out_dir: Path, started: float) -> int:
    result = run_generation(config)
    rows = []
    for n_q in config.qubit_range:
        s = result.series[n_q]
        for t in range(len(s.times)):
            rows.append(
                (n_q, int(s.times[t]), float(s.mean_entropy[t]), s.page,
                 float(s.page - s.mean_entropy[t]))
            )
    gen_path = out_dir / "generation.csv"
    write_csv(gen_path, ["nq", "t", "mean_entropy", "page_value", "gap"], rows)
    fits = {f"tau_nq{n}": result.series[n].tau_fit for n in config.qubit_range}
    if result.tau_vs_nq:
        fits["tau_vs_nq_linear"] = result.tau_vs_nq
    fits_path = out_dir / "fits.csv"
    write_csv(fits_path, ["dataset", "exponent_or_rate", "prefactor", "r_squared"], _fit_rows(fits))
    summary = {
        "taus": {str(n): result.series[n].tau for n in config.qubit_range},
        "page_values": {str(n): page_value(n) for n in config.qubit_range},
        "final_mean_entropy": {
            str(n): float(result.series[n].mean_entropy[-1]) for n in config.qubit_range
        },
        "tau_vs_nq": asdict(result.tau_vs_nq) if result.tau_vs_nq else None,
    }
    _finish("generate", config, out_dir, [gen_path, fits_path], summary, started)
    return EXIT_OK


def _cmd_spectrum(config: ExperimentConfig, out_dir: Path, started: float) -> int:
    result = run_spectrum(config)
    data_files = []
    for family in ("sawtooth", "haar"):
        rows = []
        for n_q in config.qubit_range:
            fam = result.families[(n_q, family)]
            rows.extend(
                (n_q, int(mask), float(v))
                for mask, v in zip(fam.sample_masks, fam.samples)
            )
        path = out_dir / f"spectrum_samples_{family}.csv"
        write_csv(path, ["nq", "bipartition_mask", "entropy"], rows)
        data_files.append(path)
    stats_rows = []
    for (n_q, family) in sorted(result.families):
        fam = result.families[(n_q, family)]
        stats_rows.append((n_q, fam.mean, fam.std, fam.relative_std, family))
    stats_path = out_dir / "spectrum_stats.csv"
    write_csv(stats_path, ["nq", "mean", "std", "rel_std", "family"], stats_rows)
    data_files.append(stats_path)
    fits = {f"relstd_{family}": fit for family, fit in result.rate_fits.items()}
    fits_path = out_dir / "fits.csv"
    write_csv(fits_path, ["dataset", "exponent_or_rate", "prefactor", "r_squared"], _fit_rows(fits))
    data_files.append(fits_path)
    summary = {
        "rates": {family: asdict(fit) for family, fit in result.rate_fits.items()},
        "relative_std": {
            f"{n}:{family}": result.families[(n, family)].relative_std
            for (n, family) in result.families
        },
    }
    _finish("spectrum", config, out_dir, data_files, summary, started)
    return EXIT_OK


def _sweep_tables(config, sweep, out_dir):
    rows = [
        (r.n_qubits, r.epsilon, r.bound_kind, r.mean, r.std, r.stderr, r.n_realizations)
        for r in sweep.bound_rows
    ]
    sweep_path = out_dir / "noise_sweep.csv"
    write_csv(
        sweep_path,
        ["nq", "eps", "bound_kind", "mean", "std", "stderr", "n_realizations"],
        rows,
    )
    fid_path = out_dir / "fidelity.csv"
    write_csv(
        fid_path,
        ["nq", "eps", "fidelity", "stderr", "n_realizations"],
        [
            (r.n_qubits, r.epsilon, r.fidelity, r.stderr, r.n_realizations)
            for r in sweep.fidelity_rows
        ],
    )
    return [sweep_path, fid_path]


def _predictions(config, gamma_cal: GammaCalibration | None):
    """Perturbative predictions on the run's grid, in both conventions.

    Each convention's ``lower_bound`` is page_value(n_q) minus its own
    ``entropy_bound`` value, the full perturbative entropy.
    """
    entries = []
    for n_q in config.qubit_range:
        n_g_actual = build_step_circuit(MapParams(n_q, config.k_param)).gate_count
        conventions = {"reference": (REFERENCE_GAMMA, reference_gate_count(n_q))}
        if gamma_cal is not None:
            conventions["calibrated"] = (gamma_cal.gamma_actual, n_g_actual)
        for eps in config.epsilon_grid:
            entry = {"nq": n_q, "eps": _fmt(eps)}
            for name, (gamma, n_g) in conventions.items():
                bound = _safe_predict(eps, n_q, config.steps, gamma, n_g)
                entry[name] = {
                    "gamma": gamma,
                    "n_g": n_g,
                    "entropy_bound": bound,
                    "lower_bound": page_value(n_q) - bound["value"],
                }
            entries.append(entry)
    return entries


def _safe_predict(eps, n_q, t, gamma, n_g):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        value = predicted_entropy(eps, n_q, t, gamma, n_g)
    in_regime = gamma * eps**2 * n_g * t < 1.0
    return {"value": value, "in_regime": in_regime}


def _try_sweep_gamma(config, sweep):
    try:
        return calibrate_gamma(config, sweep=sweep)
    except ValidationError:
        return None


def _cmd_noise_sweep(config: ExperimentConfig, out_dir: Path, started: float) -> int:
    sweep = run_noise_sweep(config)
    data_files = _sweep_tables(config, sweep, out_dir)
    gamma_cal = _try_sweep_gamma(config, sweep)
    summary = {
        "pure_reference": {
            f"{n}:{t}:{kind}": v for (n, t, kind), v in sweep.pure_reference.items()
        },
        "unconverged_points": [
            {"nq": r.n_qubits, "eps": _fmt(r.epsilon), "bound_kind": r.bound_kind}
            for r in sweep.bound_rows
            if not r.converged
        ],
        "gamma": asdict(gamma_cal) if gamma_cal else None,
        "predictions": _predictions(config, gamma_cal),
        "initial_momentum": sweep.initial_momentum,
    }
    _finish("noise-sweep", config, out_dir, data_files, summary, started)
    if config.strict and summary["unconverged_points"]:
        print(
            f"error: {len(summary['unconverged_points'])} unconverged grid points",
            file=sys.stderr,
        )
        return EXIT_FAILURE
    return EXIT_OK


def _cmd_threshold(config: ExperimentConfig, out_dir: Path, started: float) -> int:
    try:
        result = find_threshold(config)
    except ThresholdBracketError as exc:
        print(f"error: no-bracket: {exc}", file=sys.stderr)
        return EXIT_NO_BRACKET
    data_files = _sweep_tables(config, result.sweep, out_dir)
    thr_path = out_dir / "threshold.csv"
    write_csv(
        thr_path,
        ["nq", "t", "bound_kind", "eps_threshold", "method"],
        [
            (r.n_qubits, r.time, r.bound_kind, r.eps_threshold, r.method)
            for r in result.rows
        ],
    )
    data_files.append(thr_path)
    fits = {
        f"threshold_t{t}_{kind}": fit for (t, kind), fit in result.fits.items()
    }
    fits_path = out_dir / "fits.csv"
    write_csv(fits_path, ["dataset", "exponent_or_rate", "prefactor", "r_squared"], _fit_rows(fits))
    data_files.append(fits_path)
    gamma_cal = _try_sweep_gamma(config, result.sweep)
    summary = {
        "thresholds": [
            {
                "nq": r.n_qubits,
                "t": r.time,
                "bound_kind": r.bound_kind,
                "eps_threshold": _fmt(r.eps_threshold),
                "method": r.method,
            }
            for r in result.rows
        ],
        "fits": {name: asdict(fit) for name, fit in fits.items()},
        "gamma": asdict(gamma_cal) if gamma_cal else None,
        "predictions": _predictions(config, gamma_cal),
    }
    _finish("threshold", config, out_dir, data_files, summary, started)
    return EXIT_OK


def _cmd_calibrate_gamma(config: ExperimentConfig, out_dir: Path, started: float) -> int:
    cal = calibrate_gamma(config, snapshot_times=[max(1, config.steps // 2), config.steps])
    fits = {
        "gamma_actual_convention": cal.fit_actual,
        "gamma_reference_convention": cal.fit_reference,
    }
    fits_path = out_dir / "fits.csv"
    write_csv(fits_path, ["dataset", "exponent_or_rate", "prefactor", "r_squared"], _fit_rows(fits))
    points_path = out_dir / "gamma_points.csv"
    write_csv(
        points_path,
        ["nq", "t", "eps", "fidelity"],
        [(n, t, e, f) for n, t, e, f in cal.points],
    )
    summary = {
        "gamma_actual": cal.gamma_actual,
        "gamma_reference_convention": cal.gamma_reference_convention,
        "reference_gamma": REFERENCE_GAMMA,
        "fits": {name: asdict(fit) for name, fit in fits.items()},
        "predictions": _predictions(config, cal),
    }
    _finish("calibrate-gamma", config, out_dir, [fits_path, points_path], summary, started)
    return EXIT_OK


def _cmd_validate(config: ExperimentConfig, out_dir: Path, started: float) -> int:
    results = run_property_suite(config.master_seed)
    failures = 0
    for check in results:
        status = "PASS" if check.passed else "FAIL"
        print(f"[{status}] {check.name}: {check.detail}")
        failures += 0 if check.passed else 1
    print(f"{len(results) - failures}/{len(results)} property checks passed")
    return EXIT_OK if failures == 0 else EXIT_FAILURE


COMMANDS = {
    "generate": _cmd_generate,
    "spectrum": _cmd_spectrum,
    "noise-sweep": _cmd_noise_sweep,
    "threshold": _cmd_threshold,
    "calibrate-gamma": _cmd_calibrate_gamma,
    "validate": _cmd_validate,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entforge",
        description="Quantum sawtooth-map simulation and entanglement analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", help="flat key = value config file")
        cmd.add_argument("--nq", type=parse_qubit_list, help="comma list of even qubit counts")
        cmd.add_argument("--k-param", dest="k_param", type=float, help="chaos parameter K")
        cmd.add_argument("--steps", type=int, help="map iterations t")
        cmd.add_argument(
            "--eps-grid",
            dest="eps_grid",
            help="noise grid: start:stop:log|lin:count or comma list",
        )
        cmd.add_argument(
            "--realizations", help="trajectories per grid point, or 'auto'"
        )
        cmd.add_argument("--seed", type=int, help="master seed")
        cmd.add_argument("--out", help="output directory")
        cmd.add_argument("--strict", action="store_true", default=None)
        cmd.add_argument("--refine", action="store_true", default=None,
                         help="one refinement simulation at each interpolated threshold")
        cmd.add_argument("--haar-samples", dest="haar_samples", type=int)
        cmd.add_argument("--fraction", type=float, help="threshold drop fraction")
    return parser


def dispatch(command: str, config: ExperimentConfig, out_dir: Path) -> int:
    started = time.perf_counter()
    out_dir.mkdir(parents=True, exist_ok=True)
    return COMMANDS[command](config, out_dir, started)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config, out_dir, _ = parse_config(args)
    except (ValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return dispatch(args.command, config, out_dir)
    except ThresholdBracketError as exc:
        print(f"error: no-bracket: {exc}", file=sys.stderr)
        return EXIT_NO_BRACKET
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
