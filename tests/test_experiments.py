import dataclasses
import math
import multiprocessing.pool
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from entforge import entanglement, experiments, noise
from entforge.cli import EXIT_OK, main
from entforge.core import (
    DensityMatrix,
    ValidationError,
    hermitian_eigenvalues,
    reduced_density_matrix,
    von_neumann_entropy,
)
from entforge.entanglement import (
    enumerate_balanced_bipartitions,
    haar_random_state,
    mixed_spectrum,
    pure_spectrum,
    stats,
)
from entforge.experiments import (
    ExperimentConfig,
    ThresholdBracketError,
    calibrate_gamma,
    find_threshold,
    fit_exponential,
    fit_gamma,
    fit_linear,
    fit_power_law,
    generation_ensemble,
    grid_point,
    interpolate_threshold,
    run_generation,
    run_noise_sweep,
    run_spectrum,
    spectrum_pool,
    submit_spectrum,
    trajectory_spectra,
)
from entforge.noise import derive_seed, mixture, recommend_realizations, run_trajectories
from entforge.sawtooth import MapParams, evolve_exact, momentum_basis_state


def assert_spectra_match(got, rho):
    """A pooled spectrum equals in-process ``mixed_spectrum(rho)`` to 1e-12."""
    want = mixed_spectrum(rho)
    for side in ("lower", "upper"):
        np.testing.assert_allclose(getattr(got, side), getattr(want, side), rtol=0, atol=1e-12)


def batch_rhos(snap):
    """Each batch's rho, the ``mixture`` of its columns as the spectrum
    workers form it; a noiseless snapshot's batches all hold rho."""
    if snap.noiseless:
        return [snap.rho] * len(snap.batch_slices)
    return [mixture(snap.amplitudes[:, sl]) for sl in snap.batch_slices]


class TestConfig:
    def test_rejects_odd_qubits(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(qubit_range=(5,))

    def test_rejects_unsorted_grid(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(epsilon_grid=(1e-2, 1e-3))

    def test_auto_realizations(self):
        cfg = ExperimentConfig()
        assert cfg.realizations_for(4, "upper") == 64
        assert cfg.realizations_for(8, "upper") == 1024
        assert cfg.realizations_for(8, "lower") == 64

    def test_explicit_realizations(self):
        cfg = ExperimentConfig(n_realizations=37)
        assert cfg.realizations_for(8, "upper") == 37
        assert cfg.realizations_for(8, "lower") == 37


class TestFits:
    def test_power_law_exact(self):
        xs = np.array([1.0, 2.0, 4.0, 8.0])
        fit = fit_power_law(list(zip(xs, 2.0 * xs**-1)))
        assert fit.exponent_or_rate == pytest.approx(-1.0, abs=1e-12)
        assert fit.prefactor == pytest.approx(2.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0)

    def test_power_law_constant(self):
        fit = fit_power_law([(1, 3.0), (2, 3.0), (4, 3.0)])
        assert fit.exponent_or_rate == pytest.approx(0.0, abs=1e-12)

    def test_power_law_noisy(self):
        rng = np.random.default_rng(0)
        xs = np.geomspace(1, 100, 20)
        ys = xs**-0.9 * np.exp(rng.normal(0, 0.01, xs.size))
        fit = fit_power_law(list(zip(xs, ys)))
        assert fit.exponent_or_rate == pytest.approx(-0.9, abs=0.05)

    def test_power_law_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            fit_power_law([(1, 1.0), (2, -1.0), (3, 1.0)])

    def test_exponential_exact(self):
        xs = np.arange(1, 8, dtype=float)
        fit = fit_exponential(list(zip(xs, np.exp(-xs / 2))))
        assert fit.exponent_or_rate == pytest.approx(0.5, abs=1e-12)

    def test_exponential_constant(self):
        fit = fit_exponential([(0, 2.0), (1, 2.0), (2, 2.0)])
        assert fit.exponent_or_rate == pytest.approx(0.0, abs=1e-12)

    def test_exponential_noisy(self):
        rng = np.random.default_rng(1)
        xs = np.linspace(0, 10, 15)
        ys = 3 * np.exp(-0.48 * xs) * np.exp(rng.normal(0, 0.02, xs.size))
        fit = fit_exponential(list(zip(xs, ys)))
        assert fit.exponent_or_rate == pytest.approx(0.48, abs=0.03)

    def test_linear(self):
        fit = fit_linear([(0, 1.0), (1, 3.0), (2, 5.0)])
        assert fit.exponent_or_rate == pytest.approx(2.0)
        assert fit.prefactor == pytest.approx(1.0)
        assert fit.r_squared == pytest.approx(1.0)

    def test_min_points(self):
        with pytest.raises(ValidationError):
            fit_exponential([(0, 1.0), (1, 0.5)])


class TestInterpolateThreshold:
    def test_synthetic_gaussian_curve(self):
        # E(eps) = E0 * exp(-(eps/eps0)^2) halves at eps0 * sqrt(ln 2)
        e0, eps0 = 3.0, 0.02
        grid = np.geomspace(1e-3, 1e-1, 25)
        curve = [(float(e), e0 * math.exp(-((e / eps0) ** 2))) for e in grid]
        found = interpolate_threshold(curve, e0 / 2)
        assert found == pytest.approx(eps0 * math.sqrt(math.log(2)), rel=0.01)

    def test_no_bracket_raises(self):
        curve = [(1e-3, 3.0), (1e-2, 2.9)]
        with pytest.raises(ThresholdBracketError):
            interpolate_threshold(curve, 1.0)


@pytest.fixture(scope="module")
def generation_result():
    return run_generation(ExperimentConfig(qubit_range=(4, 6), steps=20))


class TestRunGeneration:
    def test_initial_entropy_zero(self, generation_result):
        result = generation_result
        for series in result.series.values():
            assert series.mean_entropy[0] == pytest.approx(0.0, abs=1e-9)

    def test_converges_to_page(self, generation_result):
        result = generation_result
        s = result.series[6]
        assert abs(s.mean_entropy[20] - s.page) < 0.1

    def test_tau_positive(self, generation_result):
        result = generation_result
        for s in result.series.values():
            assert s.tau > 0

    @pytest.mark.parametrize("n_q", [4, 6, 8, 10])
    def test_ensemble_starts_from_basis_states_of_zero_entropy(self, n_q):
        # _generation_row takes no spectrum of these states and keeps the
        # +0.0 of its np.zeros row, which must equal the spectrum's mean
        for state in generation_ensemble(MapParams(n_q)):
            assert np.count_nonzero(state.amplitudes) == 1
            mean = stats(pure_spectrum(state)).mean
            assert mean == 0.0 and math.copysign(1.0, mean) == 1.0


@pytest.fixture(scope="module")
def spectrum_result():
    cfg = ExperimentConfig(qubit_range=(4, 6, 8), steps=12, haar_samples=20)
    return run_spectrum(cfg)


class TestRunSpectrum:
    def test_family_presence(self, spectrum_result):
        result = spectrum_result
        assert set(result.families) == {
            (n, f) for n in (4, 6, 8) for f in ("sawtooth", "haar")
        }

    def test_relative_std_shrinks_with_size(self, spectrum_result):
        result = spectrum_result
        for family in ("sawtooth", "haar"):
            rels = [result.families[(n, family)].relative_std for n in (4, 6, 8)]
            assert rels[0] > rels[1] > rels[2]

    def test_rate_fits_positive(self, spectrum_result):
        result = spectrum_result
        for fit in result.rate_fits.values():
            assert fit.exponent_or_rate > 0.2

    def test_requires_three_sizes(self):
        with pytest.raises(ValidationError):
            run_spectrum(ExperimentConfig(qubit_range=(4, 6)))


class TestPooledEnsembles:
    """The pure-state experiments run each state in a pool worker; their
    results must equal an in-process ``pure_spectrum`` loop exactly."""

    def test_generation_matches_in_process(self, generation_result):
        for n_q in (4, 6):
            params = MapParams(n_q)
            states = generation_ensemble(params)
            table = np.zeros((len(states), 21))
            for i, state in enumerate(states):
                for t in range(21):
                    if t > 0:
                        state = evolve_exact(state, params, 1)
                    table[i, t] = stats(pure_spectrum(state)).mean
            np.testing.assert_array_equal(
                generation_result.series[n_q].mean_entropy, table.mean(axis=0)
            )

    def test_spectrum_matches_in_process(self, spectrum_result):
        for n_q in (4, 6, 8):
            params = MapParams(n_q)
            families = {
                "sawtooth": [evolve_exact(s, params, 12) for s in generation_ensemble(params)],
                "haar": [haar_random_state(n_q, derive_seed(0, "haar", n_q, i)) for i in range(20)],
            }
            for family, states in families.items():
                spectra = [pure_spectrum(state) for state in states]
                fam = spectrum_result.families[(n_q, family)]
                np.testing.assert_array_equal(fam.samples, np.concatenate(spectra))
                masks = [p.a_mask for p in enumerate_balanced_bipartitions(n_q)]
                np.testing.assert_array_equal(fam.sample_masks, masks * len(states))
                rels = [stats(spectrum).relative_std for spectrum in spectra]
                assert fam.relative_std == float(np.mean(rels))

    @pytest.mark.parametrize(
        "argv, names",
        [
            (["generate", "--nq", "4,6", "--steps", "10"],
             ("generation.csv", "fits.csv", "summary.json")),
            (["spectrum", "--nq", "4,6,8", "--steps", "6", "--haar-samples", "8"],
             ("spectrum_samples_sawtooth.csv", "spectrum_samples_haar.csv",
              "spectrum_stats.csv", "fits.csv", "summary.json")),
        ],
        ids=["generate", "spectrum"],
    )
    def test_pool_size_does_not_change_outputs(self, tmp_path, monkeypatch, argv, names):
        written = []
        for cpus in (1, 2):
            monkeypatch.setattr(experiments, "available_cpus", lambda: cpus)
            out = tmp_path / f"cpus{cpus}"
            assert main(argv + ["--out", str(out)]) == EXIT_OK
            written.append({n: (out / n).read_bytes() for n in names})
        assert written[0] == written[1]


@pytest.fixture(scope="module")
def sweep():
    cfg = ExperimentConfig(
        qubit_range=(4,),
        steps=10,
        epsilon_grid=tuple(np.geomspace(2e-3, 1.2e-1, 7)),
        n_realizations=48,
        master_seed=3,
    )
    return cfg, run_noise_sweep(cfg)


class TestNoiseSweepAndThreshold:
    def test_bound_rows_complete(self, sweep):
        cfg, result = sweep
        assert len(result.bound_rows) == len(cfg.epsilon_grid) * 2
        assert len(result.fidelity_rows) == len(cfg.epsilon_grid)

    def test_small_eps_near_pure_value(self, sweep):
        cfg, result = sweep
        for kind in ("lower", "upper"):
            rows = result.rows_for(4, 10, kind)
            ref = result.pure_reference[(4, 10, kind)]
            assert abs(rows[0].mean - ref) / ref < 0.02

    def test_large_eps_strongly_mixed(self, sweep):
        cfg, result = sweep
        rows = result.rows_for(4, 10, "lower")
        ref = result.pure_reference[(4, 10, "lower")]
        assert rows[-1].mean < 0.1 * ref

    def test_ordering_lower_below_upper(self, sweep):
        cfg, result = sweep
        lower = result.rows_for(4, 10, "lower")
        upper = result.rows_for(4, 10, "upper")
        for lo, up in zip(lower, upper):
            assert lo.mean <= up.mean + 1e-9

    def test_pure_reference_takes_no_partial_trace_of_a_pure_state(self, monkeypatch):
        # both eps = 0 references come from the stacked Schmidt blocks, bit
        # for bit the mean of the per-bipartition formulas
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return reduced_density_matrix(*args, **kwargs)

        monkeypatch.setattr(entanglement, "reduced_density_matrix", counting)
        cfg = ExperimentConfig(qubit_range=(4,), steps=4, epsilon_grid=(1e-2,), n_realizations=16)
        result = run_noise_sweep(cfg, snapshot_times=[2, 4])
        assert calls == []
        params = MapParams(4)
        init = momentum_basis_state(params, experiments.DEFAULT_INITIAL_MOMENTUM)
        for t in (2, 4):
            ideal = evolve_exact(init, params, t)
            reduced = [reduced_density_matrix(ideal, p) for p in enumerate_balanced_bipartitions(4)]
            entropies = [von_neumann_entropy(rho_a) for rho_a in reduced]
            negativities = []
            for rho_a in reduced:
                roots = np.sqrt(np.clip(hermitian_eigenvalues(rho_a.matrix), 0.0, 1.0))
                negativities.append(2.0 * math.log2(float(np.sum(roots))))
            assert result.pure_reference[(4, t, "lower")] == float(np.mean(entropies))
            assert result.pure_reference[(4, t, "upper")] == float(np.mean(negativities))

    def test_threshold_from_sweep(self, sweep):
        cfg, result = sweep
        thr = find_threshold(cfg, sweep=result)
        kinds = {r.bound_kind for r in thr.rows}
        assert kinds == {"lower", "upper"}
        for row in thr.rows:
            assert cfg.epsilon_grid[0] < row.eps_threshold < cfg.epsilon_grid[-1]

    def test_threshold_without_refinement_starts_no_pool(self, sweep, monkeypatch):
        cfg, result = sweep

        def no_pool(*args, **kwargs):
            raise AssertionError("a pool started for a threshold that runs no simulation")

        monkeypatch.setattr(experiments, "spectrum_pool", no_pool)
        rows = find_threshold(cfg, sweep=result).rows
        assert [r.method for r in rows] == ["interpolated"] * 2

    def test_refined_threshold_stays_in_its_bracket(self, sweep):
        cfg, result = sweep
        refine_cfg = dataclasses.replace(cfg, refine_threshold=True)
        interpolated = find_threshold(cfg, sweep=result).rows
        refined = find_threshold(refine_cfg, sweep=result).rows
        assert [r.method for r in refined] == ["refined"] * len(interpolated)
        for coarse, fine in zip(interpolated, refined):
            assert (fine.n_qubits, fine.time, fine.bound_kind) == (
                coarse.n_qubits, coarse.time, coarse.bound_kind
            )
            below = max(e for e in cfg.epsilon_grid if e <= coarse.eps_threshold)
            above = min(e for e in cfg.epsilon_grid if e >= coarse.eps_threshold)
            assert below <= fine.eps_threshold <= above
        assert find_threshold(refine_cfg, sweep=result).rows == refined

    def test_refinement_on_a_grid_point_reproduces_its_sweep_mean(self, sweep, monkeypatch):
        # refinement and sweep run a grid point through the same seed stream
        cfg, result = sweep
        eps = cfg.epsilon_grid[3]
        curves = []

        def at_grid_point(curve, target):
            curves.append(curve)
            return eps

        monkeypatch.setattr(experiments, "interpolate_threshold", at_grid_point)
        find_threshold(dataclasses.replace(cfg, refine_threshold=True), sweep=result)
        # per bound kind: the grid's curve, then the refined curve holding eps twice
        assert len(curves) == 4
        for kind, refined in zip(("lower", "upper"), curves[1::2]):
            (row,) = [r for r in result.rows_for(4, 10, kind) if r.epsilon == eps]
            assert [m for e, m in refined if e == eps] == [row.mean, row.mean]

    def test_threshold_grid_comes_from_the_sweep(self, sweep):
        # a qubit_range=(4,) sweep with a qubit_range=(4, 6) config once
        # raised a bare KeyError; sizes, eps values and the pool's memory
        # check now all read the sweep, not the config
        cfg, result = sweep
        wider = dataclasses.replace(cfg, qubit_range=(4, 6))
        assert find_threshold(wider, sweep=result).rows == find_threshold(cfg, sweep=result).rows
        refine_cfg = dataclasses.replace(cfg, refine_threshold=True)
        too_big = dataclasses.replace(
            refine_cfg, qubit_range=(4, 16), epsilon_grid=(0.0, *cfg.epsilon_grid)
        )
        refined = find_threshold(refine_cfg, sweep=result).rows
        assert find_threshold(too_big, sweep=result).rows == refined

    def test_refinement_rho_goes_out_as_one_task_per_worker(self, sweep, monkeypatch):
        cfg, result = sweep
        refine_cfg = dataclasses.replace(cfg, refine_threshold=True)
        spans = []
        apply_async = multiprocessing.pool.Pool.apply_async

        def recording(pool, func, args=(), *rest, **kwargs):
            task, span = args
            if isinstance(task, DensityMatrix):
                spans.append(span)
            return apply_async(pool, func, args, *rest, **kwargs)

        monkeypatch.setattr(experiments, "available_cpus", lambda: 1)
        unsplit = find_threshold(refine_cfg, sweep=result).rows
        monkeypatch.setattr(experiments, "available_cpus", lambda: 3)
        monkeypatch.setattr(multiprocessing.pool.Pool, "apply_async", recording)
        assert find_threshold(refine_cfg, sweep=result).rows == unsplit
        # one refinement per bound kind, each rho over all 3 bipartitions of n_q = 4
        assert experiments.pool_size() == 3
        assert spans == [slice(0, 1), slice(1, 2), slice(2, 3)] * 2

    def test_threshold_times_come_from_the_sweep(self):
        cfg = ExperimentConfig(
            qubit_range=(4,), steps=6, epsilon_grid=tuple(np.geomspace(3e-3, 3e-1, 5)),
            n_realizations=40,
        )
        two_times = run_noise_sweep(cfg, snapshot_times=[3, 6])
        rows = find_threshold(cfg, two_times).rows
        assert [(r.time, r.bound_kind) for r in rows] == [
            (3, "lower"), (3, "upper"), (6, "lower"), (6, "upper")
        ]

    def test_deterministic(self, sweep):
        cfg, result = sweep
        again = run_noise_sweep(cfg)
        for a, b in zip(result.bound_rows, again.bound_rows):
            assert a == b


class TestSpectrumPool:
    def test_unguarded_and_piped_scripts_run_pooled_commands(self, tmp_path):
        # spawn workers never import the caller's main module, so a script
        # without a __main__ guard, or one piped into `python -`, neither
        # re-runs in each worker nor hangs as the pool replaces dead workers
        def generate(out):
            return ["generate", "--nq", "4", "--steps", "3", "--out", str(out)]

        assert main(generate(tmp_path / "in-process")) == EXIT_OK
        expected = (tmp_path / "in-process" / "generation.csv").read_bytes()
        src = str(Path(experiments.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        for name in ("piped", "unguarded"):
            out = tmp_path / name
            script = f"import sys\nfrom entforge.cli import main\nsys.exit(main({generate(out)!r}))\n"
            if name == "piped":
                args, stdin = [sys.executable, "-"], script
            else:
                path = tmp_path / "unguarded.py"
                path.write_text(script)
                args, stdin = [sys.executable, str(path)], None
            child = subprocess.Popen(
                args, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, env=env, start_new_session=True,
            )
            try:
                _, stderr = child.communicate(stdin, timeout=60)
            except subprocess.TimeoutExpired:
                os.killpg(child.pid, signal.SIGKILL)  # the child and its spawn workers
                child.communicate()
                pytest.fail(f"{name} script still running after 60 s")
            assert child.returncode == 0, stderr
            assert (out / "generation.csv").read_bytes() == expected

    @pytest.mark.parametrize("n_q", [4, 6])
    def test_pooled_spectra_match_in_process(self, n_q):
        params = MapParams(n_q)
        snap = run_trajectories(params, 6, 2e-2, 40, 5, momentum_basis_state(params)).final
        rhos = [snap.rho, *batch_rhos(snap)]
        with spectrum_pool() as pool:
            pending = [submit_spectrum(pool, rho) for rho in rhos]
            pooled = [task.get() for task in pending]
        assert len(pooled) == len(rhos)
        for rho, got in zip(rhos, pooled):
            assert_spectra_match(got, rho)
            assert got.total_entropy == pytest.approx(von_neumann_entropy(rho), rel=0, abs=1e-12)
            assert got.total_entropy > 0.01  # noisy, so genuinely mixed

    @pytest.mark.parametrize("n_q", [4, 6])
    def test_worker_batch_rhos_match_in_process(self, n_q):
        cfg = ExperimentConfig(
            qubit_range=(n_q,), steps=6, epsilon_grid=(2e-2,), n_realizations=40, master_seed=5
        )
        snap = grid_point(cfg, n_q, 2e-2, [6]).final
        in_process = batch_rhos(snap)
        tasks = [snap.amplitudes[:, sl] for sl in snap.batch_slices]
        with spectrum_pool() as pool:
            formed = pool.map(mixture, tasks)
            _, spectra = trajectory_spectra(pool, cfg, n_q, 2e-2, [6])
        spec, batch_specs = spectra[6]
        assert len(formed) == len(batch_specs) == len(in_process) == 8
        for got, want in zip(formed, in_process):
            np.testing.assert_array_equal(got.matrix, want.matrix)
        for got, rho in zip([spec, *batch_specs], [snap.rho, *in_process]):
            assert_spectra_match(got, rho)

    def test_streamed_spectra_match_in_process_at_two_times(self):
        cfg = ExperimentConfig(
            qubit_range=(4,), steps=6, epsilon_grid=(2e-2,), n_realizations=40, master_seed=5
        )
        with spectrum_pool() as pool:
            result, spectra = trajectory_spectra(pool, cfg, 4, 2e-2, [3, 6])
        assert sorted(spectra) == [3, 6]
        for t, (spec, batch_specs) in spectra.items():
            snap = result.snapshots[t]
            assert len(batch_specs) == 8
            for got, rho in zip([spec, *batch_specs], [snap.rho, *batch_rhos(snap)]):
                assert_spectra_match(got, rho)

    def test_noiseless_spectrum_computed_once(self, tmp_path, monkeypatch):
        events = []
        submit, run = experiments.submit_spectrum, experiments.run_trajectories

        def counting_submit(pool, task):
            events.append("rho" if isinstance(task, DensityMatrix) else "batch")
            return submit(pool, task)

        def marking_run(*args, **kwargs):
            events.append("run")
            result = run(*args, **kwargs)
            events.append("returned")
            return result

        def every_batch(pool, config, n_q, eps, times):
            # one task per rho and batch rho, sent after the run
            result = grid_point(config, n_q, eps, times)
            spectra = {}
            for time, snap in result.snapshots.items():
                pending = [submit(pool, rho) for rho in [snap.rho, *batch_rhos(snap)]]
                spec, *batch_specs = [task.get() for task in pending]
                spectra[time] = spec, batch_specs
            return result, spectra

        argv = ["noise-sweep", "--nq", "4", "--eps-grid", "0,1e-2", "--steps", "6",
                "--realizations", "40"]
        monkeypatch.setattr(experiments, "submit_spectrum", counting_submit)
        monkeypatch.setattr(experiments, "run_trajectories", marking_run)
        assert main(argv + ["--out", str(tmp_path / "once")]) == EXIT_OK
        # 1 task at eps = 0; at eps = 1e-2 the 8 batches stream during the run
        assert events == ["run", "returned", "rho", "run"] + ["batch"] * 8 + ["returned", "rho"]
        monkeypatch.setattr(experiments, "trajectory_spectra", every_batch)
        assert main(argv + ["--out", str(tmp_path / "every")]) == EXIT_OK
        for name in ("noise_sweep.csv", "fidelity.csv"):
            assert (tmp_path / "once" / name).read_bytes() == (tmp_path / "every" / name).read_bytes()

    def test_parent_takes_no_full_eigensolve(self, monkeypatch):
        # rho's trace and positivity are checked in the workers, on the
        # eigenvalues mixed_spectrum takes for S(rho), not again in the parent
        full = []
        eigvalsh = np.linalg.eigvalsh

        def counting_eigvalsh(matrix):
            if matrix.shape == (16, 16):
                full.append(matrix.shape)
            return eigvalsh(matrix)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
        cfg = ExperimentConfig(
            qubit_range=(4,), steps=6, epsilon_grid=(3e-3, 3e-2), n_realizations=40
        )
        result = run_noise_sweep(cfg, snapshot_times=[3, 6])
        assert len(result.bound_rows) == 8
        assert full == []

    def test_pool_size_does_not_change_csvs(self, tmp_path, monkeypatch):
        written = []
        for cpus in (1, 2):
            monkeypatch.setattr(experiments, "available_cpus", lambda: cpus)
            with spectrum_pool() as pool:
                assert pool._processes == cpus
            out = tmp_path / f"cpus{cpus}"
            argv = ["noise-sweep", "--nq", "4", "--eps-grid", "3e-3,3e-2", "--steps", "6",
                    "--realizations", "40", "--out", str(out)]
            assert main(argv) == EXIT_OK
            written.append({n: (out / n).read_bytes() for n in ("noise_sweep.csv", "fidelity.csv")})
        assert written[0] == written[1]

    def test_sweep_counts_worker_copies_in_memory_guard(self, monkeypatch):
        # room for one trajectory run at n_q = 4 with R = N (4 matrices) but
        # not for the copies of two workers besides
        monkeypatch.setattr(noise, "physical_memory_bytes", lambda: 10 * 16 * 4**4)
        monkeypatch.setattr(experiments, "available_cpus", lambda: 2)
        cfg = ExperimentConfig(qubit_range=(4,), steps=4, epsilon_grid=(1e-2,), n_realizations=16)
        run_trajectories(MapParams(4), 4, 1e-2, 16, 0, momentum_basis_state(MapParams(4)))
        with pytest.raises(ValidationError, match="for 2 spectrum worker"):
            run_noise_sweep(cfg)


class TestCalibrateGamma:
    def test_auto_runs_the_lower_bound_count_per_point(self, monkeypatch):
        counts = []
        run = experiments.run_trajectories

        def counting_run(params, t, eps, n_realizations, *args, **kwargs):
            counts.append((params.n_q, n_realizations))
            return run(params, t, eps, n_realizations, *args, **kwargs)

        monkeypatch.setattr(experiments, "run_trajectories", counting_run)
        cfg = ExperimentConfig(qubit_range=(4, 6), steps=4, epsilon_grid=(1e-3, 2e-3, 4e-3))
        calibrate_gamma(cfg)
        lower = {n: recommend_realizations(n, "lower") for n in (4, 6)}
        assert counts == [(4, lower[4])] * 3 + [(6, lower[6])] * 3

    def test_gamma_band_and_linearity(self):
        cfg = ExperimentConfig(
            qubit_range=(4,),
            steps=10,
            epsilon_grid=tuple(np.geomspace(1e-3, 1e-2, 5)),
            n_realizations=48,
            master_seed=7,
        )
        cal = calibrate_gamma(cfg)
        assert 0.05 < cal.gamma_reference_convention < 0.8
        assert cal.fit_reference.r_squared > 0.95
        assert cal.gamma_actual > cal.gamma_reference_convention

    def test_fit_gamma_needs_three_points_inside_the_regime(self):
        cfg = ExperimentConfig(qubit_range=(4,), steps=10)
        inside = [(4, 10, eps, math.exp(-0.3 * eps**2 * 520)) for eps in (1e-3, 2e-3, 4e-3)]
        outside = (4, 10, 0.1, 0.5)  # 0.28 * 0.1^2 * 52 * 10 > 0.5
        assert fit_gamma(cfg, inside + [outside]).points == inside
        with pytest.raises(ValidationError, match="fewer than 3"):
            fit_gamma(cfg, inside[:2] + [outside])

    def test_calibration_is_the_fit_of_its_points(self):
        cfg = ExperimentConfig(
            qubit_range=(4,), steps=6, epsilon_grid=(1e-3, 2e-3, 4e-3), n_realizations=16
        )
        cal = calibrate_gamma(cfg)
        assert fit_gamma(cfg, cal.points) == cal
