import contextlib
import dataclasses
import io
import json
import os
import warnings

import numpy as np
import pytest

from entforge.cli import (
    COMMANDS,
    CONFIG_KEYS,
    EXIT_FAILURE,
    EXIT_NO_BRACKET,
    EXIT_OK,
    EXIT_USAGE,
    OPTIONS,
    build_parser,
    main,
    parse_config,
    parse_epsilon_grid,
    parse_qubit_list,
)
from entforge import cli, experiments
from entforge.core import ValidationError
from entforge.entanglement import page_value
from entforge.experiments import ExperimentConfig


class TestGridSyntax:
    def test_log_grid(self):
        grid = parse_epsilon_grid("1e-4:1e-2:log:9")
        assert len(grid) == 9
        assert grid[0] == pytest.approx(1e-4)
        assert grid[-1] == pytest.approx(1e-2)
        ratios = np.diff(np.log(grid))
        np.testing.assert_allclose(ratios, ratios[0])

    def test_lin_grid(self):
        grid = parse_epsilon_grid("0.0:0.4:lin:5")
        np.testing.assert_allclose(grid, [0.0, 0.1, 0.2, 0.3, 0.4])

    def test_comma_list(self):
        assert parse_epsilon_grid("1e-3,5e-3") == (1e-3, 5e-3)

    def test_bad_spec(self):
        with pytest.raises(ValidationError):
            parse_epsilon_grid("1e-4:1e-2:cubic:9")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy warns on the log of a stop <= 0
            with pytest.raises(ValidationError, match="bad grid"):
                parse_epsilon_grid("1e-3:-1e-1:log:3")

    def test_qubit_list(self):
        assert parse_qubit_list("4,6,8") == (4, 6, 8)


class TestConfigFile:
    def test_unknown_key_is_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nq = 4\nwibble = 3\n")
        code = main(["generate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        assert "unknown config key" in capsys.readouterr().err

    def test_removed_workers_key_is_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nq = 4\nworkers = 2\n")
        code = main(["generate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        assert "unknown config key 'workers'" in capsys.readouterr().err

    def test_flags_override_file_with_warning(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("steps = 9\nnq = 4\n")
        out = tmp_path / "o"
        code = main(
            ["generate", "--config", str(cfg), "--steps", "8", "--out", str(out)]
        )
        assert code == EXIT_OK
        assert "flag overrides config file" in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["steps"] == 8

    def test_comments_and_blanks_allowed(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# a comment\n\nnq = 4\nsteps = 6\n")
        out = tmp_path / "o"
        assert main(["generate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK

    @pytest.mark.parametrize("missing", [True, False, "not-utf8"])
    def test_unreadable_config_exits_usage(self, tmp_path, capsys, missing):
        cfg = tmp_path / "absent.cfg" if missing else tmp_path
        if missing == "not-utf8":
            cfg.write_bytes(b"nq = 4\xff\n")
        out = tmp_path / "o"
        code = main(["noise-sweep", "--nq", "4", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: config:") and str(cfg) in err[0]
        assert not out.exists()

    def test_odd_nq_rejected(self, tmp_path, capsys):
        code = main(["spectrum", "--nq", "5", "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        assert "even" in capsys.readouterr().err

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ENTFORGE_SEED", "123")
        out = tmp_path / "o"
        assert main(["generate", "--nq", "4", "--steps", "6", "--out", str(out)]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["master_seed"] == 123

    def test_bare_parse_takes_dataclass_defaults(self, monkeypatch):
        monkeypatch.delenv("ENTFORGE_SEED", raising=False)
        config, _ = parse_config(build_parser().parse_args(["noise-sweep"]))
        defaults = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}
        for key in (
            "k_param", "steps", "haar_samples", "threshold_fraction", "strict",
            "refine_threshold",
        ):
            assert getattr(config, key) == defaults[key], key


#: per option key: its flag, a text that differs from every command's
#: default, and the field value that text must resolve to
OPTION_SAMPLES = {
    "nq": ("--nq", "4,6", (4, 6)),
    "k_param": ("--k-param", "2.5", 2.5),
    "steps": ("--steps", "7", 7),
    "eps_grid": ("--eps-grid", "1e-3,2e-3", (1e-3, 2e-3)),
    "realizations": ("--realizations", "12", 12),
    "strict": ("--strict", "true", True),
    "refine": ("--refine", "true", True),
    "haar_samples": ("--haar-samples", "9", 9),
    "fraction": ("--fraction", "0.25", 0.25),
    "seed": ("--seed", "17", 17),
}


class TestOptionTable:
    def test_config_keys_are_the_options_plus_seed_and_out(self):
        assert set(OPTIONS) == set(OPTION_SAMPLES)
        assert CONFIG_KEYS == set(OPTIONS) | {"seed", "out"}

    @pytest.mark.parametrize("key", sorted(OPTION_SAMPLES))
    def test_key_sets_its_field_from_file_and_flag(self, tmp_path, key):
        flag, text, value = OPTION_SAMPLES[key]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {text}\n")
        flag_argv = [flag] if isinstance(value, bool) else [flag, text]
        for command in COMMANDS:
            for argv in ([command, "--config", str(cfg)], [command, *flag_argv]):
                config, _ = parse_config(build_parser().parse_args(argv))
                assert getattr(config, OPTIONS[key][0]) == value, argv


class TestCountsRefusedBeforeWork:
    @pytest.mark.parametrize(
        "argv, key",
        [
            (["noise-sweep", "--nq", "4", "--eps-grid", "1e-3", "--realizations", "0"],
             "realizations"),
            (["noise-sweep", "--nq", "4", "--eps-grid", "1e-3", "--realizations", "-3"],
             "realizations"),
            (["spectrum", "--nq", "4,6,8", "--haar-samples", "0"], "haar_samples"),
            (["generate", "--nq", "4,4,6", "--steps", "3"], "qubit_range"),
            (["generate", "--nq", "4", "--steps", "3", "--k-param", "nan"], "k_param"),
            (["generate", "--nq", "4", "--steps", "3", "--k-param", "inf"], "k_param"),
            (["noise-sweep", "--nq", "4", "--eps-grid", "1e-3,inf"], "epsilon grid"),
            (["calibrate-gamma", "--nq", "4", "--eps-grid", "1e-4,1e-3,nan"], "epsilon grid"),
            (["generate", "--nq", "4", "--steps", "3", "--config", "seed = abc"], "seed"),
            (["ENTFORGE_SEED=x", "generate", "--nq", "4", "--steps", "3"], "seed"),
            (["noise-sweep", "--nq", "4", "--eps-grid", "1e-3:-1e-1:log:3"], "eps_grid"),
        ],
    )
    def test_exit_usage_naming_the_key(self, tmp_path, capsys, monkeypatch, argv, key):
        # a leading NAME=value entry sets an environment variable, as in a
        # shell; the entry after --config is the config file's text
        if "=" in argv[0]:
            monkeypatch.setenv(*argv[0].split("=", 1))
            argv = argv[1:]
        if "--config" in argv:
            at = argv.index("--config") + 1
            cfg = tmp_path / "run.cfg"
            cfg.write_text(argv[at] + "\n")
            argv = [*argv[:at], str(cfg), *argv[at + 1:]]
        out = tmp_path / "o"
        assert main(argv + ["--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert any(line.startswith("error:") and key in line for line in err.splitlines())
        assert not out.exists()


class TestOutRefusedBeforeWork:
    @pytest.mark.parametrize("name", ["afile", "afile/sub", "dangling", "dangling/sub"])
    def test_out_that_cannot_be_made_exits_usage(self, tmp_path, capsys, monkeypatch, name):
        def no_work(*args, **kwargs):
            raise AssertionError("work started for an output directory that cannot be made")

        monkeypatch.setattr(experiments, "run_trajectories", no_work)
        monkeypatch.setattr(experiments, "spectrum_pool", no_work)
        (tmp_path / "afile").write_text("")
        (tmp_path / "dangling").symlink_to(tmp_path / "absent")
        before = sorted(tmp_path.iterdir())
        code = main(["noise-sweep", "--nq", "4", "--eps-grid", "1e-3", "--steps", "3",
                     "--out", str(tmp_path / name)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: out:")
        assert sorted(tmp_path.iterdir()) == before

    def test_existing_out_that_cannot_be_written_exits_usage(
        self, tmp_path, capsys, monkeypatch
    ):
        # root may write to any directory, so a patched os.access stands in
        # for a read-only one
        def no_work(*args, **kwargs):
            raise AssertionError("work started for an output directory that cannot be written")

        monkeypatch.setattr(experiments, "run_trajectories", no_work)
        monkeypatch.setattr(experiments, "spectrum_pool", no_work)
        out = tmp_path / "readonly"
        out.mkdir()
        monkeypatch.setattr(os, "access", lambda path, mode, **kwargs: False)
        code = main(["noise-sweep", "--nq", "4", "--eps-grid", "1e-3", "--steps", "3",
                     "--out", str(out)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: out:") and str(out) in err[0]
        assert list(out.iterdir()) == []

    def test_validate_ignores_out(self, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("")
        assert main(["validate", "--out", str(afile / "sub")]) == EXIT_OK
        assert "[FAIL]" not in capsys.readouterr().out


@pytest.fixture(scope="module")
def generate_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("gen")
    code = main(["generate", "--nq", "4,6", "--steps", "12", "--out", str(out)])
    return code, out


class TestGenerateCommand:
    def test_exit_code(self, generate_run):
        assert generate_run[0] == EXIT_OK

    def test_files_written(self, generate_run):
        _, out = generate_run
        for name in ("generation.csv", "fits.csv", "summary.json", "manifest.json"):
            assert (out / name).exists()

    def test_generation_schema(self, generate_run):
        _, out = generate_run
        header = (out / "generation.csv").read_text().splitlines()[0]
        assert header == "nq,t,mean_entropy,page_value,gap"

    def test_manifest_digests_cover_data_files(self, generate_run):
        _, out = generate_run
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["files"]) == {"generation.csv", "fits.csv", "summary.json"}
        assert manifest["version"]
        assert manifest["gate_counts"]["4"]["per_step"] == 40
        assert manifest["gate_counts"]["4"]["reference_3nq2_plus_nq"] == 52

    def test_manifest_config_lists_every_field_but_the_seed(self, generate_run):
        _, out = generate_run
        manifest = json.loads((out / "manifest.json").read_text())
        fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert set(manifest["config"]) == fields - {"master_seed"}

    def test_steps_below_three_refused_before_work(self, tmp_path, capsys, monkeypatch):
        # the convergence fit needs t = 1..3
        def no_work(*args, **kwargs):
            raise AssertionError("the ensemble started for a fit that cannot be made")

        monkeypatch.setattr(experiments, "spectrum_pool", no_work)
        out = tmp_path / "o"
        code = main(["generate", "--nq", "4,6,8,10", "--steps", "2", "--out", str(out)])
        assert code == EXIT_FAILURE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: steps:")
        assert not out.exists()

    def test_rerun_is_bit_identical(self, generate_run, tmp_path):
        _, out = generate_run
        out2 = tmp_path / "again"
        assert main(["generate", "--nq", "4,6", "--steps", "12", "--out", str(out2)]) == EXIT_OK
        m1 = json.loads((out / "manifest.json").read_text())["files"]
        m2 = json.loads((out2 / "manifest.json").read_text())["files"]
        assert m1 == m2


class TestSpectrumCommand:
    def test_spectrum_outputs(self, tmp_path):
        out = tmp_path / "spec"
        code = main(
            ["spectrum", "--nq", "4,6,8", "--steps", "8", "--haar-samples", "12",
             "--out", str(out)]
        )
        assert code == EXIT_OK
        stats_lines = (out / "spectrum_stats.csv").read_text().splitlines()
        assert stats_lines[0] == "nq,mean,std,rel_std,family"
        assert len(stats_lines) == 1 + 6  # 3 sizes x 2 families
        samples_header = (out / "spectrum_samples_sawtooth.csv").read_text().splitlines()[0]
        assert samples_header == "nq,bipartition_mask,entropy"


class TestNoiseSweepCommand:
    def test_sweep_outputs(self, tmp_path):
        out = tmp_path / "sweep"
        code = main(
            ["noise-sweep", "--nq", "4", "--steps", "8",
             "--eps-grid", "2e-3:4e-2:log:4", "--realizations", "24",
             "--out", str(out)]
        )
        assert code == EXIT_OK
        lines = (out / "noise_sweep.csv").read_text().splitlines()
        assert lines[0] == "nq,eps,bound_kind,mean,std,stderr,n_realizations"
        assert len(lines) == 1 + 4 * 2
        summary = json.loads((out / "summary.json").read_text())
        assert summary["predictions"]
        assert summary["initial_momentum"] == 1
        for entry in summary["predictions"]:
            assert "reference" in entry
            for name in ("reference", "calibrated"):
                if name in entry:
                    pred = entry[name]
                    expected = page_value(entry["nq"]) - pred["entropy_bound"]["value"]
                    assert pred["lower_bound"] == pytest.approx(expected, rel=1e-12)


class TestThresholdCommand:
    def test_no_bracket_exit_code(self, tmp_path, capsys):
        out = tmp_path / "thr"
        code = main(
            ["threshold", "--nq", "4", "--steps", "8",
             "--eps-grid", "1e-5:1e-4:log:3", "--realizations", "16",
             "--out", str(out)]
        )
        assert code == EXIT_NO_BRACKET
        assert "no-bracket" in capsys.readouterr().err
        assert not out.exists()  # refused before any file was written

    def test_zero_epsilon_refused_before_work(self, tmp_path, capsys, monkeypatch):
        # the log-epsilon interpolation cannot take eps = 0; refuse it
        # before any trajectory runs or any worker starts
        def no_work(*args, **kwargs):
            raise AssertionError("work started for a grid the search refuses")

        monkeypatch.setattr(experiments, "run_trajectories", no_work)
        monkeypatch.setattr(experiments, "spectrum_pool", no_work)
        code = main(
            ["threshold", "--nq", "4", "--eps-grid", "0,0.05,0.3", "--steps", "6",
             "--realizations", "16", "--out", str(tmp_path / "thr0")]
        )
        assert code == EXIT_FAILURE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:") and "> 0" in err[0]

    def test_threshold_runs_one_noise_sweep(self, tmp_path, monkeypatch):
        # the sweep enters through cli.run_noise_sweep, as noise-sweep's does,
        # also when refinement needs a pool afterwards
        calls = []
        sweep = cli.run_noise_sweep

        def counting(config, *args, **kwargs):
            calls.append(config)
            return sweep(config, *args, **kwargs)

        monkeypatch.setattr(cli, "run_noise_sweep", counting)
        code = main(
            ["threshold", "--nq", "4", "--steps", "8",
             "--eps-grid", "2e-3:1.5e-1:log:6", "--realizations", "32", "--refine",
             "--out", str(tmp_path / "thr1")]
        )
        assert code == EXIT_OK
        assert len(calls) == 1

    def test_threshold_outputs(self, tmp_path):
        out = tmp_path / "thr2"
        code = main(
            ["threshold", "--nq", "4", "--steps", "8",
             "--eps-grid", "2e-3:1.5e-1:log:6", "--realizations", "32",
             "--out", str(out)]
        )
        assert code == EXIT_OK
        lines = (out / "threshold.csv").read_text().splitlines()
        assert lines[0] == "nq,t,bound_kind,eps_threshold,method"
        assert len(lines) == 3  # one per bound kind


#: a grid whose large-eps points do not converge at 8 realizations
STRICT_ARGV = [
    "--nq", "4", "--eps-grid", "1e-3:3e-1:log:5", "--steps", "6", "--realizations", "8",
    "--strict",
]


@pytest.fixture(scope="module")
def strict_runs(tmp_path_factory):
    """Exit code, files and stderr of noise-sweep and threshold on STRICT_ARGV."""
    runs = {}
    for command in ("noise-sweep", "threshold"):
        out = tmp_path_factory.mktemp(command)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([command, *STRICT_ARGV, "--out", str(out)])
        runs[command] = code, out, err.getvalue()
    return runs


class TestSweepOutputsShared:
    def test_strict_fails_both_commands_alike(self, strict_runs):
        sweep_code, _, sweep_err = strict_runs["noise-sweep"]
        thr_code, _, thr_err = strict_runs["threshold"]
        assert sweep_code == thr_code == EXIT_FAILURE
        assert sweep_err == thr_err
        assert "unconverged grid points" in thr_err

    def test_threshold_summary_holds_the_sweep_keys(self, strict_runs):
        sweep = json.loads((strict_runs["noise-sweep"][1] / "summary.json").read_text())
        thr = json.loads((strict_runs["threshold"][1] / "summary.json").read_text())
        assert sweep["unconverged_points"]
        for key in ("pure_reference", "unconverged_points", "initial_momentum", "gamma",
                    "predictions"):
            assert thr[key] == sweep[key], key
        assert set(thr) - set(sweep) == {"thresholds", "fits"}

    def test_sweep_tables_identical(self, strict_runs):
        for name in ("noise_sweep.csv", "fidelity.csv"):
            texts = {(out / name).read_text() for _, out, _ in strict_runs.values()}
            assert len(texts) == 1, name


class TestCalibrateGammaCommand:
    def test_outputs(self, tmp_path):
        out = tmp_path / "gamma"
        code = main(
            ["calibrate-gamma", "--nq", "4", "--steps", "10",
             "--eps-grid", "1e-3:8e-3:log:4", "--realizations", "32",
             "--out", str(out)]
        )
        assert code == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert 0.0 < summary["gamma_reference_convention"] < 1.0
        header = (out / "fits.csv").read_text().splitlines()[0]
        assert header == "dataset,exponent_or_rate,prefactor,r_squared"

    def test_grid_outside_perturbative_regime_refused_before_work(
        self, tmp_path, capsys, monkeypatch
    ):
        def no_work(*args, **kwargs):
            raise AssertionError("trajectories ran for a grid the fit must discard")

        monkeypatch.setattr(experiments, "run_trajectories", no_work)
        out = tmp_path / "gamma"
        code = main(["calibrate-gamma", "--nq", "4,6", "--eps-grid", "0.1,0.2,0.3",
                     "--steps", "30", "--out", str(out)])
        assert code == EXIT_FAILURE
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: fewer than 3 grid points inside the perturbative regime"]
        assert not out.exists()


class TestValidateCommand:
    def test_validate_passes(self, capsys):
        assert main(["validate"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "property checks passed" in out
        assert "[FAIL]" not in out

    def test_validate_creates_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["validate"]) == EXIT_OK
        assert list(tmp_path.iterdir()) == []
