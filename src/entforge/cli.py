"""Command-line front end: one option table, the subcommands, and one writer
for their bit-exact data files.

Subcommands: generate, spectrum, noise-sweep, threshold, calibrate-gamma,
validate.  Each ExperimentConfig setting is one entry of ``OPTIONS``,
which gives its config-file key, flag and parser.  Each experiment's
runner returns its CSV tables (floats at 17 significant digits, round-trip
exact) and its summary, and ``main`` hands them to ``_finish``, the only
code that writes a command's files: the CSVs, a machine-readable
summary.json, and a manifest.json recording the resolved configuration,
gate counts, and sha256 digests of the data files.  ``validate`` writes
nothing and returns its exit code.  Repeating an invocation reproduces the
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
import warnings
from dataclasses import asdict
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
    fit_gamma,
    require_positive_grid,
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
        if count < 1 or parts[2] == "log" and not (start > 0 and stop > 0):
            raise ValidationError(f"bad grid '{spec}'")
        if parts[2] == "log":
            values = np.geomspace(start, stop, count)
        else:
            values = np.linspace(start, stop, count)
        return tuple(float(v) for v in values)
    return tuple(float(v) for v in spec.split(","))


def parse_qubit_list(spec: str) -> tuple[int, ...]:
    return tuple(int(v) for v in spec.split(","))


def _parse_realizations(text: str) -> int | str:
    return text if text == "auto" else int(text)


def _parse_bool(text: str) -> bool:
    return text.lower() == "true"


#: experiment options by config-file key: the ExperimentConfig field each
#: sets, the parser of its text, and its flag's help.  A key's flag is
#: ``--key`` with ``-`` for ``_``; a ``_parse_bool`` option's flag is a switch.
OPTIONS = {
    "nq": ("qubit_range", parse_qubit_list, "comma list of even qubit counts"),
    "k_param": ("k_param", float, "chaos parameter K"),
    "steps": ("steps", int, "map iterations t"),
    "eps_grid": (
        "epsilon_grid", parse_epsilon_grid, "noise grid: start:stop:log|lin:count or comma list"
    ),
    "realizations": (
        "n_realizations", _parse_realizations, "trajectories per grid point, or 'auto'"
    ),
    "strict": ("strict", _parse_bool, None),
    "refine": (
        "refine_threshold", _parse_bool, "one refinement simulation at each interpolated threshold"
    ),
    "haar_samples": ("haar_samples", int, None),
    "fraction": ("threshold_fraction", float, "threshold drop fraction"),
    "seed": ("master_seed", int, "master seed"),
}

#: keys accepted in config files
CONFIG_KEYS = {*OPTIONS, "out"}

#: per-command option texts that differ from ExperimentConfig's defaults
COMMAND_DEFAULTS = {
    "generate": {"nq": "4,6,8,10"},
    "spectrum": {"nq": "4,6,8,10"},
    "noise-sweep": {"eps_grid": "1e-3:1e-1:log:11"},
    "threshold": {"eps_grid": "1e-3:1e-1:log:11"},
    "calibrate-gamma": {"nq": "4,6", "eps_grid": "1e-4:1e-2:log:7"},
}


def _read_config_file(path: Path) -> dict:
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else exc
        raise ValidationError(f"config: cannot read '{path}': {reason}") from None
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
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


def _parsed(key: str, raw):
    """``raw`` text parsed by option ``key``'s parser; None and switch values pass."""
    if not isinstance(raw, str):
        return raw
    try:
        return OPTIONS[key][1](raw)
    except ValueError as exc:
        raise ValidationError(f"{key}: {exc}") from None


def parse_config(args: argparse.Namespace) -> tuple[ExperimentConfig, Path]:
    """Resolve flags, then the config file, then the command's defaults into
    an ExperimentConfig and the output directory."""
    defaults = {"seed": os.environ.get("ENTFORGE_SEED") or None}
    defaults.update(COMMAND_DEFAULTS.get(args.command, {}))
    file_values = _read_config_file(Path(args.config)) if args.config else {}
    fields = {}
    for key, (field, _, _) in OPTIONS.items():
        flag_value = _parsed(key, getattr(args, key))
        file_value = _parsed(key, file_values.get(key, defaults.get(key)))
        if flag_value is not None and key in file_values and flag_value != file_value:
            print(f"warning: flag overrides config file value for '{key}'", file=sys.stderr)
        value = file_value if flag_value is None else flag_value
        if value is not None:  # unset values fall back to ExperimentConfig's defaults
            fields[field] = value
    out = Path(args.out if args.out is not None else file_values.get("out", "entforge-out"))
    return ExperimentConfig(**fields), out


# --- output ---------------------------------------------------------------------


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


def _require_out_dir(out_dir: Path) -> None:
    """Refuse, before any work, an output directory that ``_finish`` could
    not create or write: ``out_dir``, or else its nearest existing ancestor,
    must be a writable directory."""
    base = next(path for path in (out_dir, *out_dir.parents) if os.path.lexists(path))
    if not base.is_dir() or not os.access(base, os.W_OK):
        raise ValidationError(f"out: '{base}' is not a writable directory")


def _finish(command, config, out_dir, tables, summary, started) -> None:
    """Write a command's files: each ``{file name: (header, rows)}`` table as
    CSV, then summary.json, then manifest.json, the reproducibility record
    of the resolved config and of every file's sha256 digest.  Only here is
    ``out_dir`` created, so a command that writes nothing leaves no trace."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, (header, rows) in tables.items():
        write_csv(out_dir / name, header, rows)
    write_json(out_dir / "summary.json", summary)
    resolved = asdict(config)
    del resolved["master_seed"]  # recorded at the manifest's top level
    resolved["epsilon_grid"] = [_fmt(e) for e in config.epsilon_grid]
    manifest = {
        "version": __version__,
        "command": command,
        "config": resolved,
        "master_seed": config.master_seed,
        "gate_counts": _gate_count_table(config),
        "gamma_convention": (
            f"calibrated gamma uses the built decomposition's count; the "
            f"reference convention (3 nq^2 + nq, gamma ~ {REFERENCE_GAMMA}) is "
            f"reported alongside"
        ),
        "duration_seconds": time.perf_counter() - started,
        "files": {
            name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in [*tables, "summary.json"]
        },
    }
    write_json(out_dir / "manifest.json", manifest)


def _fits_table(fits: dict) -> tuple[list[str], list[tuple]]:
    """fits.csv: one row per named fit, in name order."""
    return (
        ["dataset", "exponent_or_rate", "prefactor", "r_squared"],
        [(name, f.exponent_or_rate, f.prefactor, f.r_squared) for name, f in sorted(fits.items())],
    )


# --- subcommand runners -----------------------------------------------------------


def _cmd_generate(config: ExperimentConfig) -> tuple[dict, dict]:
    result = run_generation(config)
    rows = []
    for n_q in config.qubit_range:
        s = result.series[n_q]
        for t in range(len(s.times)):
            rows.append(
                (n_q, int(s.times[t]), float(s.mean_entropy[t]), s.page,
                 float(s.page - s.mean_entropy[t]))
            )
    fits = {f"tau_nq{n}": result.series[n].tau_fit for n in config.qubit_range}
    if result.tau_vs_nq:
        fits["tau_vs_nq_linear"] = result.tau_vs_nq
    tables = {
        "generation.csv": (["nq", "t", "mean_entropy", "page_value", "gap"], rows),
        "fits.csv": _fits_table(fits),
    }
    summary = {
        "taus": {str(n): result.series[n].tau for n in config.qubit_range},
        "page_values": {str(n): page_value(n) for n in config.qubit_range},
        "final_mean_entropy": {
            str(n): float(result.series[n].mean_entropy[-1]) for n in config.qubit_range
        },
        "tau_vs_nq": asdict(result.tau_vs_nq) if result.tau_vs_nq else None,
    }
    return tables, summary


def _cmd_spectrum(config: ExperimentConfig) -> tuple[dict, dict]:
    result = run_spectrum(config)
    tables = {}
    for family in ("sawtooth", "haar"):
        rows = []
        for n_q in config.qubit_range:
            fam = result.families[(n_q, family)]
            rows.extend(
                (n_q, int(mask), float(v))
                for mask, v in zip(fam.sample_masks, fam.samples)
            )
        tables[f"spectrum_samples_{family}.csv"] = (["nq", "bipartition_mask", "entropy"], rows)
    stats_rows = []
    for (n_q, family) in sorted(result.families):
        fam = result.families[(n_q, family)]
        stats_rows.append((n_q, fam.mean, fam.std, fam.relative_std, family))
    tables["spectrum_stats.csv"] = (["nq", "mean", "std", "rel_std", "family"], stats_rows)
    tables["fits.csv"] = _fits_table(
        {f"relstd_{family}": fit for family, fit in result.rate_fits.items()}
    )
    summary = {
        "rates": {family: asdict(fit) for family, fit in result.rate_fits.items()},
        "relative_std": {
            f"{n}:{family}": result.families[(n, family)].relative_std
            for (n, family) in result.families
        },
    }
    return tables, summary


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
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        value = predicted_entropy(eps, n_q, t, gamma, n_g)
    in_regime = gamma * eps**2 * n_g * t < 1.0
    return {"value": value, "in_regime": in_regime}


def _sweep_outputs(config, sweep) -> tuple[dict, dict]:
    """A sweep's tables (noise_sweep.csv, fidelity.csv) and summary keys:
    the eps = 0 references, the unconverged points, the initial momentum,
    the gamma fitted to the sweep's fidelities (None when they do not
    determine it) and the predictions it gives."""
    tables = {
        "noise_sweep.csv": (
            ["nq", "eps", "bound_kind", "mean", "std", "stderr", "n_realizations"],
            [
                (r.n_qubits, r.epsilon, r.bound_kind, r.mean, r.std, r.stderr, r.n_realizations)
                for r in sweep.bound_rows
            ],
        ),
        "fidelity.csv": (
            ["nq", "eps", "fidelity", "stderr", "n_realizations"],
            [
                (r.n_qubits, r.epsilon, r.fidelity, r.stderr, r.n_realizations)
                for r in sweep.fidelity_rows
            ],
        ),
    }
    try:
        gamma_cal = fit_gamma(
            config, [(r.n_qubits, r.time, r.epsilon, r.fidelity) for r in sweep.fidelity_rows]
        )
    except ValidationError:
        gamma_cal = None
    summary = {
        "pure_reference": {
            f"{n}:{t}:{kind}": v for (n, t, kind), v in sweep.pure_reference.items()
        },
        "unconverged_points": [
            {"nq": r.n_qubits, "eps": _fmt(r.epsilon), "bound_kind": r.bound_kind}
            for r in sweep.bound_rows
            if not r.converged
        ],
        "initial_momentum": sweep.initial_momentum,
        "gamma": asdict(gamma_cal) if gamma_cal else None,
        "predictions": _predictions(config, gamma_cal),
    }
    return tables, summary


def _cmd_noise_sweep(config: ExperimentConfig) -> tuple[dict, dict]:
    return _sweep_outputs(config, run_noise_sweep(config))


def _cmd_threshold(config: ExperimentConfig) -> tuple[dict, dict]:
    require_positive_grid(config.epsilon_grid)  # before any work
    sweep = run_noise_sweep(config)
    result = find_threshold(config, sweep)
    fits = {
        f"threshold_t{t}_{kind}": fit for (t, kind), fit in result.fits.items()
    }
    tables, summary = _sweep_outputs(config, sweep)
    tables["threshold.csv"] = (
        ["nq", "t", "bound_kind", "eps_threshold", "method"],
        [
            (r.n_qubits, r.time, r.bound_kind, r.eps_threshold, r.method)
            for r in result.rows
        ],
    )
    tables["fits.csv"] = _fits_table(fits)
    summary["thresholds"] = [
        {
            "nq": r.n_qubits,
            "t": r.time,
            "bound_kind": r.bound_kind,
            "eps_threshold": _fmt(r.eps_threshold),
            "method": r.method,
        }
        for r in result.rows
    ]
    summary["fits"] = {name: asdict(fit) for name, fit in fits.items()}
    return tables, summary


def _cmd_calibrate_gamma(config: ExperimentConfig) -> tuple[dict, dict]:
    cal = calibrate_gamma(config, snapshot_times=[max(1, config.steps // 2), config.steps])
    fits = {
        "gamma_actual_convention": cal.fit_actual,
        "gamma_reference_convention": cal.fit_reference,
    }
    tables = {
        "fits.csv": _fits_table(fits),
        "gamma_points.csv": (
            ["nq", "t", "eps", "fidelity"],
            [(n, t, e, f) for n, t, e, f in cal.points],
        ),
    }
    summary = {
        "gamma_actual": cal.gamma_actual,
        "gamma_reference_convention": cal.gamma_reference_convention,
        "reference_gamma": REFERENCE_GAMMA,
        "fits": {name: asdict(fit) for name, fit in fits.items()},
        "predictions": _predictions(config, cal),
    }
    return tables, summary


def _cmd_validate(config: ExperimentConfig) -> int:
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
        for key, (_, parse, help_text) in OPTIONS.items():
            switch = {"action": "store_true"} if parse is _parse_bool else {}
            cmd.add_argument("--" + key.replace("_", "-"), default=None, help=help_text, **switch)
        cmd.add_argument("--out", help="output directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    writes = args.command != "validate"
    try:
        config, out_dir = parse_config(args)
        if writes:
            _require_out_dir(out_dir)
    except ValueError as exc:  # ValidationError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    started = time.perf_counter()
    try:
        if not writes:
            return COMMANDS[args.command](config)
        tables, summary = COMMANDS[args.command](config)
    except ThresholdBracketError as exc:
        print(f"error: no-bracket: {exc}", file=sys.stderr)
        return EXIT_NO_BRACKET
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    _finish(args.command, config, out_dir, tables, summary, started)
    unconverged = summary.get("unconverged_points")  # sweep summaries only
    if config.strict and unconverged:
        print(f"error: {len(unconverged)} unconverged grid points", file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
