"""Figure-reproduction campaigns: generation, spectrum, noise sweep, threshold.

All experiments are deterministic functions of (config, master_seed): noise
streams are derived per (experiment, size, grid point) with a hashed
sub-seed, Haar samples are seeded per index, and Monte-Carlo reductions use
a fixed batch order, so re-running a config reproduces every number.

Initial states: the map's parity symmetry (theta -> 2pi - theta, n -> -n)
makes |n=0> atypical, so the generic default eigenstate is |n=1>.
Entanglement-generation curves are additionally averaged over a small
ensemble of momentum eigenstates; a single state's step-to-step
fluctuations at n_q <= 6 otherwise swamp both the t=30 snapshot and the
convergence fit.  Noise sweeps use the single default eigenstate (ensemble
averaging there would multiply the trajectory cost).
"""
from __future__ import annotations

import math
import multiprocessing
import os
import sys
import types
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

import numpy as np

from .core import DensityMatrix, ValidationError
from .entanglement import (
    PURE_BLOCK_BYTES,
    enumerate_balanced_bipartitions,
    MixedSpectrum,
    haar_random_state,
    mixed_spectrum,
    page_value,
    pure_log_negativity,
    pure_spectrum,
    stats,
)
from .noise import (
    DEFAULT_BATCH_COUNT,
    batch_slices,
    derive_seed,
    mixture,
    physical_memory_bytes,
    recommend_realizations,
    require_memory,
    run_trajectories,
)
from .sawtooth import (
    MapParams,
    build_step_circuit,
    evolve_exact,
    momentum_basis_state,
    reference_gate_count,
)

#: paper-quoted fidelity-decay coefficient for its gate count convention
REFERENCE_GAMMA = 0.28
#: generic default initial momentum (n = 0 is fixed by the parity symmetry)
DEFAULT_INITIAL_MOMENTUM = 1
#: eigenstates averaged by the generation/spectrum experiments
GENERATION_ENSEMBLE = 32
#: relative drift between half- and full-sample means flagged as unconverged
CONVERGENCE_DRIFT = 0.02
#: a pure-state worker's peak, in units of one state or one ``pure_spectrum``
#: block, whichever is larger: tracemalloc of one generation row (evolve,
#: then spectrum) gave 4.3 blocks at n_q = 10 and 9.6 states at n_q = 14
ENSEMBLE_WORKER_COPIES = 10
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved parameters shared by the experiment runners."""

    qubit_range: tuple[int, ...] = (4, 6, 8)
    k_param: float = 1.5
    steps: int = 30
    epsilon_grid: tuple[float, ...] = ()
    n_realizations: int | str = "auto"
    master_seed: int = 0
    strict: bool = False
    refine_threshold: bool = False
    haar_samples: int = 64
    threshold_fraction: float = 0.5

    def __post_init__(self) -> None:
        if not self.qubit_range:
            raise ValidationError("qubit_range must not be empty")
        if any(n % 2 or n < 2 for n in self.qubit_range):
            raise ValidationError("balanced bipartitions require even n_q >= 2")
        if len(set(self.qubit_range)) != len(self.qubit_range):
            raise ValidationError("qubit_range entries must be distinct")
        if not math.isfinite(self.k_param):
            raise ValidationError("k_param must be finite")
        grid = tuple(float(e) for e in self.epsilon_grid)
        if not all(math.isfinite(e) for e in grid):
            raise ValidationError("epsilon grid entries must be finite")
        if any(e < 0 for e in grid):
            raise ValidationError("epsilon grid entries must be >= 0")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValidationError("epsilon grid must be strictly increasing")
        object.__setattr__(self, "epsilon_grid", grid)
        if self.steps < 1:
            raise ValidationError("steps must be >= 1")
        if not isinstance(self.n_realizations, int) and self.n_realizations != "auto":
            raise ValidationError("n_realizations must be an integer or 'auto'")
        if isinstance(self.n_realizations, int) and self.n_realizations < 1:
            raise ValidationError("n_realizations must be >= 1")
        if self.haar_samples < 1:
            raise ValidationError("haar_samples must be >= 1")
        if not 0 < self.threshold_fraction < 1:
            raise ValidationError("threshold_fraction must be in (0, 1)")

    def realizations_for(self, n_q: int, bound_kind: str) -> int:
        """Trajectories per grid point: ``n_realizations``, or under "auto"
        ``recommend_realizations``' rule for ``bound_kind``."""
        if self.n_realizations == "auto":
            return recommend_realizations(n_q, bound_kind)
        return int(self.n_realizations)


@dataclass(frozen=True)
class FitResult:
    """Least-squares fit summary; exponent_or_rate is the power-law exponent,
    decay rate, or line slope depending on the dataset."""

    exponent_or_rate: float
    prefactor: float
    r_squared: float
    point_count: int


def _r_squared(y: np.ndarray, predicted: np.ndarray) -> float:
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        return 1.0
    ss_res = float(np.sum((y - predicted) ** 2))
    return min(max(1.0 - ss_res / ss_tot, 0.0), 1.0)


def _fit_line(points, name: str, *, log_x: bool, log_y: bool):
    """Least-squares line through ``points`` on (ln x if ``log_x`` else x,
    ln y if ``log_y`` else y); returns (slope, intercept, r^2, count)."""
    xs = np.asarray([p[0] for p in points], dtype=np.float64)
    ys = np.asarray([p[1] for p in points], dtype=np.float64)
    if xs.size < 3:
        raise ValidationError(f"{name} fit needs at least 3 points")
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise ValidationError(f"{name} fit needs finite x and y")
    if (log_x and np.any(xs <= 0)) or (log_y and np.any(ys <= 0)):
        raise ValidationError(f"{name} fit needs positive {'x and y' if log_x else 'y'}")
    if log_x:
        xs = np.log(xs)
    if log_y:
        ys = np.log(ys)
    slope, intercept = np.polyfit(xs, ys, 1)
    return slope, intercept, _r_squared(ys, slope * xs + intercept), int(xs.size)


def fit_power_law(points) -> FitResult:
    """Fit y = a * x^b by least squares on (ln x, ln y)."""
    slope, intercept, r2, count = _fit_line(points, "power-law", log_x=True, log_y=True)
    return FitResult(float(slope), float(math.exp(intercept)), r2, count)


def fit_exponential(points) -> FitResult:
    """Fit y = a * exp(-rate * x) by least squares on (x, ln y); rate is
    positive for decaying data."""
    slope, intercept, r2, count = _fit_line(points, "exponential", log_x=False, log_y=True)
    return FitResult(float(-slope), float(math.exp(intercept)), r2, count)


def fit_linear(points) -> FitResult:
    """Plain line fit y = prefactor + exponent_or_rate * x."""
    slope, intercept, r2, count = _fit_line(points, "linear", log_x=False, log_y=False)
    return FitResult(float(slope), float(intercept), r2, count)


def _batch_stderr(batch_means) -> float:
    """Batch-means standard error of a mean: the sample standard deviation
    of the batch means over sqrt(batch count); 0 for a single batch."""
    values = np.asarray(batch_means, dtype=np.float64)
    return float(values.std(ddof=1) / math.sqrt(values.size)) if values.size > 1 else 0.0


def generation_ensemble(params: MapParams) -> list[int]:
    """Momenta of the eigenstates averaged by the generation experiment: all
    N of them when N <= GENERATION_ENSEMBLE, else that many spread over the
    torus."""
    N, count = params.N, GENERATION_ENSEMBLE
    if N <= count:
        return list(range(-N // 2, N // 2))
    return [int(-N // 2 + (j + 0.5) * N / count) for j in range(count)]


def require_ensemble_memory(n_q: int, workers: int) -> None:
    """Refuse a pure-state run over registers of up to ``n_q`` qubits whose
    ``workers`` spectrum workers, each holding ``ENSEMBLE_WORKER_COPIES``
    states or ``PURE_BLOCK_BYTES`` blocks, would not fit in memory."""
    needed = workers * ENSEMBLE_WORKER_COPIES * max(PURE_BLOCK_BYTES, 16 * 2**n_q)
    available = physical_memory_bytes()
    if needed > available:
        raise ValidationError(
            f"n_q = {n_q} with {workers} spectrum worker(s) needs ~{needed / 1e9:.1f} GB; "
            f"this machine has {available / 1e9:.1f} GB"
        )


def _pure_state(task):
    """The state a task names: ``(n_q, seed)`` is a Haar-random state, and
    ``(params, momentum, steps)`` is |momentum> after ``steps`` map steps."""
    if len(task) == 2:
        return haar_random_state(*task)
    params, momentum, steps = task
    return evolve_exact(momentum_basis_state(params, momentum), params, steps)


def _pure_spectrum_task(task) -> np.ndarray:
    return pure_spectrum(_pure_state(task))


def _pure_reference_task(task) -> tuple[float, float]:
    state = _pure_state(task)  # a noise sweep's eps = 0 lower and upper means
    return stats(pure_spectrum(state)).mean, float(pure_log_negativity(state).mean())


# --- generation (Page convergence) --------------------------------------------


@dataclass(frozen=True)
class GenerationSeries:
    n_qubits: int
    times: np.ndarray
    mean_entropy: np.ndarray  # ensemble-averaged <E_AB>(t)
    page: float
    tau: float
    tau_fit: FitResult


@dataclass(frozen=True)
class GenerationResult:
    series: dict[int, GenerationSeries]
    tau_vs_nq: FitResult | None


def _tau_window(deviation: np.ndarray) -> int:
    """End (exclusive) of the fit window: from t=1 until the deviation meets
    its saturation floor (RMS of the tail), but at least three points."""
    tail = deviation[-8:] if deviation.size >= 16 else deviation[deviation.size // 2:]
    floor = float(np.sqrt(np.mean(tail**2)))
    cut = deviation.size
    for t in range(1, deviation.size):
        if deviation[t] <= 1.5 * floor:
            cut = t
            break
    return min(max(cut, 4), deviation.size)


def _generation_row(task) -> np.ndarray:
    """Mean entanglement over balanced bipartitions of |momentum> of
    ``params`` at t = 0..steps, for the task ``(params, momentum, steps)``.

    A computational basis state (one nonzero amplitude, as every ensemble
    state is at t = 0) is a product state: its entry keeps the +0.0 that
    ``stats(pure_spectrum(state)).mean`` would give, and no spectrum is taken.
    """
    params, momentum, steps = task
    state = momentum_basis_state(params, momentum)
    row = np.zeros(steps + 1)
    for t in range(steps + 1):
        if t > 0:
            state = evolve_exact(state, params, 1)
        if np.count_nonzero(state.amplitudes) > 1:
            row[t] = stats(pure_spectrum(state)).mean
    return row


def _require_kick(config: ExperimentConfig) -> None:
    """Refuse K = 0 for the noiseless experiments: the kick is then the
    identity, so momentum eigenstates only pick up phases and never entangle."""
    if config.k_param == 0:
        raise ValidationError(
            "k_param: at K = 0 the kick is the identity and momentum eigenstates "
            "stay product states; use a nonzero K"
        )


def run_generation(config: ExperimentConfig) -> GenerationResult:
    """Ensemble-averaged entanglement growth <E_AB>(t) and its convergence
    time scale per register size; each ensemble momentum's curve is one
    task of a ``spectrum_pool``."""
    if config.steps < 3:  # _tau_window fits t = 1..3 at least
        raise ValidationError("steps: the convergence fit needs steps >= 3")
    _require_kick(config)
    require_ensemble_memory(max(config.qubit_range), pool_size())
    with spectrum_pool() as pool:
        pending = {}
        for n_q in config.qubit_range:
            params = MapParams(n_q, config.k_param)
            tasks = [(params, n, config.steps) for n in generation_ensemble(params)]
            pending[n_q] = pool.map_async(_generation_row, tasks, chunksize=1)
        tables = {n_q: np.array(rows.get()) for n_q, rows in pending.items()}
    series = {}
    taus = []
    for n_q in config.qubit_range:
        mean_entropy = tables[n_q].mean(axis=0)
        target = page_value(n_q)
        deviation = np.abs(target - mean_entropy)
        cut = _tau_window(deviation)
        window = [(float(t), float(deviation[t])) for t in range(1, cut)]
        tau_fit = fit_exponential(window)
        tau = 1.0 / tau_fit.exponent_or_rate
        series[n_q] = GenerationSeries(
            n_q,
            np.arange(config.steps + 1),
            mean_entropy,
            target,
            tau,
            tau_fit,
        )
        taus.append((float(n_q), tau))
    tau_vs_nq = fit_linear(taus) if len(taus) >= 3 else None
    return GenerationResult(series, tau_vs_nq)


# --- spectrum (entanglement distribution) --------------------------------------


@dataclass(frozen=True)
class SpectrumFamily:
    n_qubits: int
    family: str  # "sawtooth" | "haar"
    samples: np.ndarray  # per-state spectra, concatenated in state order
    sample_masks: np.ndarray  # bipartition mask per pooled sample
    mean: float
    std: float
    relative_std: float  # mean over states of the per-state sigma/mean


@dataclass(frozen=True)
class SpectrumResult:
    families: dict[tuple[int, str], SpectrumFamily]
    rate_fits: dict[str, FitResult]  # family -> fit of relative_std vs n_q


def _spectrum_family(n_q, family, spectra) -> SpectrumFamily:
    """Pool the per-state ``pure_spectrum`` arrays of one family."""
    pooled = np.concatenate(spectra)
    masks = np.tile([p.a_mask for p in enumerate_balanced_bipartitions(n_q)], len(spectra))
    rels = [stats(values).relative_std for values in spectra]
    return SpectrumFamily(
        n_q,
        family,
        pooled,
        masks,
        float(pooled.mean()),
        float(pooled.std()),
        float(np.mean(rels)),
    )


def run_spectrum(config: ExperimentConfig) -> SpectrumResult:
    """Entanglement distributions of evolved vs Haar-random states, with the
    exponential width-vs-size fit for both families; each state's spectrum
    is one task of a ``spectrum_pool``, named by momentum or Haar seed."""
    if len(config.qubit_range) < 3:
        raise ValidationError("spectrum rate fit needs at least 3 register sizes")
    if any(n < 4 for n in config.qubit_range):
        raise ValidationError("spectrum experiments need n_q >= 4")
    _require_kick(config)
    require_ensemble_memory(max(config.qubit_range), pool_size())
    with spectrum_pool() as pool:
        pending = {}
        for n_q in config.qubit_range:
            params = MapParams(n_q, config.k_param)
            tasks = {
                "sawtooth": [(params, n, config.steps) for n in generation_ensemble(params)],
                "haar": [
                    (n_q, derive_seed(config.master_seed, "haar", n_q, i))
                    for i in range(config.haar_samples)
                ],
            }
            for family, names in tasks.items():
                pending[(n_q, family)] = pool.map_async(_pure_spectrum_task, names, chunksize=1)
        families = {
            (n_q, family): _spectrum_family(n_q, family, spectra.get())
            for (n_q, family), spectra in pending.items()
        }
    rate_fits = {}
    for family in ("sawtooth", "haar"):
        pts = [
            (float(n_q), families[(n_q, family)].relative_std)
            for n_q in config.qubit_range
        ]
        rate_fits[family] = fit_exponential(pts)
    return SpectrumResult(families, rate_fits)


# --- noise sweep (distillable-entanglement bounds vs epsilon) ------------------


@dataclass(frozen=True)
class BoundStats:
    """One bound's mean and std over the balanced bipartitions of rho, with
    the batch-means standard error and the convergence verdict."""

    mean: float
    std: float
    stderr: float  # batch-means standard error of the mean
    converged: bool


@dataclass(frozen=True)
class SweepPoint:
    """One (n_q, t, eps) point of a noise sweep."""

    n_qubits: int
    time: int
    epsilon: float
    n_realizations: int
    lower: BoundStats
    upper: BoundStats
    fidelity: float
    fidelity_stderr: float
    total_entropy: float  # S(rho)
    ordering_margin: float  # min over bipartitions of upper - lower


@dataclass(frozen=True)
class NoiseSweepResult:
    points: list[SweepPoint]  # in (n_q, eps, t) order
    pure_reference: dict[tuple[int, int, str], float]  # (n_q, t, kind) -> eps=0 mean

    def points_for(self, n_q: int, time: int) -> list[SweepPoint]:
        points = [p for p in self.points if p.n_qubits == n_q and p.time == time]
        return sorted(points, key=lambda p: p.epsilon)


def available_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def pool_size() -> int:
    """Workers of a ``spectrum_pool``: min(available CPUs, 1 + DEFAULT_BATCH_COUNT)."""
    return min(available_cpus(), 1 + DEFAULT_BATCH_COUNT)


@contextmanager
def spectrum_pool():
    """Worker processes for entanglement spectra, one BLAS thread each.

    A single eigensolve gains nothing from a second BLAS thread here, and
    Python threads serialize on it, so spectra run one per process:
    ``pool_size()`` workers, the ``spawn`` method (a forked child inherits
    the parent's BLAS threads).  Every pure state is built, evolved and
    measured in a worker from a task that names it (``_pure_state``); a
    noise sweep sends each batch's spectrum while its trajectories still
    run, and splits each rho's bipartitions over all the workers
    (``submit_spectrum``).

    The workers never import the caller's main module: an empty module
    stands in for it while the constructor starts them, so an unguarded
    script or one piped into ``python -`` runs as a guarded one does.  Every
    task sent here is an entforge function; a callable defined in the
    caller's script cannot be sent to this pool.
    """
    main = sys.modules["__main__"]
    sys.modules["__main__"] = types.ModuleType("__main__")
    saved = {name: os.environ.get(name) for name in _BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    try:  # a spawn pool starts every worker in its constructor
        pool = multiprocessing.get_context("spawn").Pool(pool_size())
    finally:
        sys.modules["__main__"] = main
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
    with pool:
        yield pool


def _spectrum_task(task, span: slice) -> MixedSpectrum:
    rho = task if isinstance(task, DensityMatrix) else mixture(task)
    return mixed_spectrum(rho, span)


class _SpanResults:
    """The ``AsyncResult`` of each span of one spectrum; ``get()`` joins them."""

    def __init__(self, results):
        self.results = results

    def get(self) -> MixedSpectrum:
        return MixedSpectrum.join([result.get() for result in self.results])


def submit_spectrum(pool, task):
    """Start ``mixed_spectrum`` of one task in ``pool``, a ``spectrum_pool``;
    returns a result whose ``get()`` waits for the spectrum.

    A task is a density matrix, or a batch's (N, B) amplitude columns,
    whose ``noise.mixture`` the worker forms as one task.  A density matrix
    is the one heavy input left when it is sent, so its bipartitions go out
    as ``pool_size()`` contiguous spans, one task each; every task checks
    rho and takes S(rho) itself, and ``get()`` joins the spans bit for bit.
    """
    if isinstance(task, DensityMatrix):
        count = len(enumerate_balanced_bipartitions(task.n_qubits))
        spans = batch_slices(count, pool_size())
    else:
        spans = [slice(None)]
    return _SpanResults([pool.apply_async(_spectrum_task, (task, span)) for span in spans])


def grid_point(
    config: ExperimentConfig, n_q: int, eps: float, times: list[int],
    stream: str = "noise-sweep", bound_kind: str = "upper", on_batch=None,
):
    """``run_trajectories`` of grid point (n_q, eps), recorded at ``times``.

    The run starts from |n = DEFAULT_INITIAL_MOMENTUM> of
    ``MapParams(n_q, config.k_param)``, evolves ``config.realizations_for(n_q,
    bound_kind)`` trajectories for max(times) steps, and draws its noise
    from the sub-seed of (``config.master_seed``, ``stream``, n_q, eps), so
    a point run twice in one stream gives the same trajectories.
    ``on_batch`` is passed on.
    """
    params = MapParams(n_q, config.k_param)
    return run_trajectories(
        params,
        max(times),
        eps,
        config.realizations_for(n_q, bound_kind),
        derive_seed(config.master_seed, stream, n_q, f"{eps:.17g}"),
        momentum_basis_state(params, DEFAULT_INITIAL_MOMENTUM),
        snapshot_times=times,
        on_batch=on_batch,
    )


def trajectory_spectra(pool, config: ExperimentConfig, n_q: int, eps: float, times: list[int]):
    """The sweep's ``grid_point`` run with the spectra of each snapshot's rho
    and batch rhos computed in ``pool``.

    Each batch's spectrum task is sent as soon as the run has finished that
    batch's columns at a snapshot time, so the workers compute while later
    batches evolve; the rhos follow once the run returns, each split over
    all the workers (``submit_spectrum``).  A noiseless snapshot's batch
    rhos are rho itself, so its one spectrum serves all.
    Returns the run's result and, per snapshot time, (rho's spectrum, the
    batch spectra in batch order).
    """
    streamed = {s: [] for s in times}

    def send_batch(time, columns):
        streamed[time].append(submit_spectrum(pool, columns))

    result = grid_point(config, n_q, eps, times, on_batch=send_batch)
    rho_specs = {s: submit_spectrum(pool, snap.rho) for s, snap in result.snapshots.items()}
    spectra = {}
    for s, snap in result.snapshots.items():
        spec = rho_specs[s].get()
        if snap.noiseless:
            spectra[s] = spec, [spec] * len(snap.batch_slices)
        else:
            spectra[s] = spec, [batch.get() for batch in streamed[s]]
    return result, spectra


def _bound_stats(spec, batch_specs, kind: str) -> BoundStats:
    """Bound ``kind``'s statistics from rho's spectrum ``spec`` and the batch
    spectra: stderr from the batch means, convergence from their first half."""
    values = getattr(spec, kind)
    mean = float(values.mean())
    batch_means = [float(getattr(b, kind).mean()) for b in batch_specs]
    half = float(np.mean(batch_means[: max(1, len(batch_means) // 2)]))
    drift = abs(mean - half) / max(abs(mean), 1e-12)
    converged = bool(drift <= CONVERGENCE_DRIFT)
    stderr = _batch_stderr(batch_means)
    return BoundStats(mean, float(values.std()), stderr, converged)


def _snapshot_times(config: ExperimentConfig, snapshot_times) -> list[int]:
    return sorted(set(snapshot_times if snapshot_times is not None else [config.steps]))


def _sweep_pool(config: ExperimentConfig, sizes, grid, times: list[int]):
    """The ``spectrum_pool`` of a sweep over register ``sizes``, epsilon
    ``grid`` and snapshot ``times``, once the grid is known nonempty and the
    largest register's grid point and the workers' copies are known to fit
    in memory (``noise.require_memory``)."""
    if not grid:
        raise ValidationError("noise sweep needs a nonempty epsilon grid")
    n_q = max(sizes)
    require_memory(n_q, len(times), config.realizations_for(n_q, "upper"), workers=pool_size())
    return spectrum_pool()


def run_noise_sweep(
    config: ExperimentConfig, snapshot_times: list[int] | None = None
) -> NoiseSweepResult:
    """Distillable-entanglement bound means over balanced bipartitions as a
    function of the noise amplitude, with batch-means error bars; the
    spectra run in a ``spectrum_pool``.

    Each (n_q, t) bound's ``pure_reference`` is the mean of the eps = 0
    state's ``pure_spectrum`` (lower) or ``pure_log_negativity`` (upper),
    taken in the pool; the caller's process takes no eigensolve.
    """
    times = _snapshot_times(config, snapshot_times)
    points: list[SweepPoint] = []
    with _sweep_pool(config, config.qubit_range, config.epsilon_grid, times) as pool:
        ideals = [
            (MapParams(n_q, config.k_param), DEFAULT_INITIAL_MOMENTUM, t)
            for n_q in config.qubit_range
            for t in times
        ]
        references = pool.map_async(_pure_reference_task, ideals, chunksize=1)
        for n_q in config.qubit_range:
            for eps in config.epsilon_grid:
                result, spectra = trajectory_spectra(pool, config, n_q, eps, times)
                for t in times:
                    snap = result.snapshots[t]
                    spec, batch_specs = spectra[t]
                    points.append(SweepPoint(
                        n_q,
                        t,
                        eps,
                        snap.n_realizations,
                        _bound_stats(spec, batch_specs, "lower"),
                        _bound_stats(spec, batch_specs, "upper"),
                        snap.mean_fidelity,
                        _batch_stderr([snap.fidelities[sl].mean() for sl in snap.batch_slices]),
                        spec.total_entropy,
                        float(np.min(spec.upper - spec.lower)),
                    ))
        pure_reference = {
            (params.n_q, t, kind): value
            for (params, _, t), bounds in zip(ideals, references.get())
            for kind, value in zip(("lower", "upper"), bounds)
        }
    return NoiseSweepResult(points, pure_reference)


# --- threshold search -----------------------------------------------------------


class ThresholdBracketError(ValidationError):
    """The epsilon grid does not bracket the requested drop."""


@dataclass(frozen=True)
class ThresholdRow:
    n_qubits: int
    time: int
    bound_kind: str
    eps_threshold: float
    method: str  # "interpolated" | "refined"


@dataclass(frozen=True)
class ThresholdResult:
    rows: list[ThresholdRow]
    fits: dict[tuple[int, str], FitResult]  # (time, kind) -> power-law fit


def interpolate_threshold(curve, target: float) -> float:
    """Log-linear (in epsilon) interpolation of the first crossing of target.

    ``curve`` is a list of (epsilon, mean) with epsilon increasing.
    """
    for (e1, m1), (e2, m2) in zip(curve, curve[1:]):
        if m1 >= target >= m2 and m1 > m2:
            x1, x2 = math.log(e1), math.log(e2)
            return math.exp(x1 + (x2 - x1) * (m1 - target) / (m1 - m2))
    raise ThresholdBracketError(
        f"no grid bracket around target {target:.4g}; curve spans "
        f"[{curve[-1][1]:.4g}, {curve[0][1]:.4g}]"
    )


def require_positive_grid(grid) -> None:
    """Refuse an epsilon grid with an entry <= 0: thresholds are
    interpolated in log epsilon."""
    if any(e <= 0 for e in grid):
        raise ValidationError("threshold epsilon grid entries must be > 0")


def find_threshold(config: ExperimentConfig, sweep: NoiseSweepResult) -> ThresholdResult:
    """Noise amplitude at which each bound mean of a finished ``sweep``
    drops to ``config.threshold_fraction`` of its eps=0 value, with a
    power-law fit of threshold vs register size.

    The register sizes, epsilon values and snapshot times are the sweep's.
    With ``refine_threshold`` set, one extra simulation at the interpolated
    amplitude tightens the bracket before the final interpolation; only
    then does a ``spectrum_pool`` start, as in ``run_noise_sweep``.
    """
    sizes = tuple(dict.fromkeys(p.n_qubits for p in sweep.points))  # in sweep order
    grid = sorted({p.epsilon for p in sweep.points})
    times = sorted({p.time for p in sweep.points})
    require_positive_grid(grid)
    rows: list[ThresholdRow] = []
    fits: dict[tuple[int, str], FitResult] = {}
    refine = config.refine_threshold
    with _sweep_pool(config, sizes, grid, times) if refine else nullcontext() as pool:
        for t in times:
            for kind in ("lower", "upper"):
                for n_q in sizes:
                    curve = [(p.epsilon, getattr(p, kind).mean) for p in sweep.points_for(n_q, t)]
                    target = config.threshold_fraction * sweep.pure_reference[(n_q, t, kind)]
                    eps_star = interpolate_threshold(curve, target)
                    method = "interpolated"
                    if refine:
                        eps_star, method = _refine_threshold(
                            config, pool, n_q, t, kind, curve, target, eps_star
                        )
                    rows.append(ThresholdRow(n_q, t, kind, eps_star, method))
                pts = [
                    (float(r.n_qubits), r.eps_threshold)
                    for r in rows
                    if r.time == t and r.bound_kind == kind
                ]
                if len(pts) >= 3:
                    fits[(t, kind)] = fit_power_law(pts)
    return ThresholdResult(rows, fits)


def _refine_threshold(config, pool, n_q, t, kind, curve, target, eps_star):
    result = grid_point(config, n_q, eps_star, [t])
    spec = submit_spectrum(pool, result.snapshots[t].rho).get()
    refined_curve = sorted(curve + [(eps_star, float(getattr(spec, kind).mean()))])
    return interpolate_threshold(refined_curve, target), "refined"


# --- fidelity-decay calibration --------------------------------------------------


@dataclass(frozen=True)
class GammaCalibration:
    gamma_actual: float  # slope against eps^2 * n_g_actual * t
    gamma_reference_convention: float  # slope against eps^2 * (3 n_q^2 + n_q) * t
    fit_actual: FitResult
    fit_reference: FitResult
    points: list[tuple[int, int, float, float]]  # (n_q, t, eps, mean fidelity)


def calibrate_gamma(
    config: ExperimentConfig, snapshot_times: list[int] | None = None
) -> GammaCalibration:
    """``fit_gamma`` of the mean fidelities of a lower-bound ``grid_point``
    run (stream "gamma") at each (n_q, eps) of ``config``'s grid; a grid
    that leaves ``fit_gamma`` too few points is refused before any run."""
    if not config.epsilon_grid:
        raise ValidationError("gamma calibration needs a nonempty epsilon grid")
    times = _snapshot_times(config, snapshot_times)
    grid = [(n, t, e) for n in config.qubit_range for e in config.epsilon_grid for t in times]
    _perturbative_points(grid)  # before any trajectory
    points = []
    for n_q in config.qubit_range:
        for eps in config.epsilon_grid:
            result = grid_point(config, n_q, eps, times, stream="gamma", bound_kind="lower")
            points.extend((n_q, t, eps, result.snapshots[t].mean_fidelity) for t in times)
    return fit_gamma(config, points)


def _perturbative_points(points) -> list:
    """The (n_q, t, eps, ...) ``points`` inside the perturbative regime
    REFERENCE_GAMMA * eps^2 * (3 n_q^2 + n_q) * t <= 0.5, which depends on
    the grid alone; fewer than 3 raise ``ValidationError``."""
    kept = [
        (n_q, t, eps, *rest) for n_q, t, eps, *rest in points
        if REFERENCE_GAMMA * (eps**2 * reference_gate_count(n_q) * t) <= 0.5
    ]
    if len(kept) < 3:
        raise ValidationError("fewer than 3 grid points inside the perturbative regime")
    return kept


def fit_gamma(config: ExperimentConfig, points) -> GammaCalibration:
    """Slope of -ln F against eps^2 * n_g * t over the (n_q, t, eps, mean
    fidelity) ``points`` inside the perturbative regime, reported for both
    the built decomposition's gate count and the reference convention
    3 n_q^2 + n_q; fewer than 3 such points raise ``ValidationError``."""
    kept = _perturbative_points(points)
    gate_counts = {
        n_q: build_step_circuit(MapParams(n_q, config.k_param)).gate_count
        for n_q in {p[0] for p in kept}
    }
    xs_actual = [eps**2 * gate_counts[n_q] * t for n_q, t, eps, _ in kept]
    xs_reference = [eps**2 * reference_gate_count(n_q) * t for n_q, t, eps, _ in kept]
    ys = [-math.log(max(fid, 1e-300)) for *_, fid in kept]
    fit_actual = fit_linear(list(zip(xs_actual, ys)))
    fit_reference = fit_linear(list(zip(xs_reference, ys)))
    return GammaCalibration(
        fit_actual.exponent_or_rate,
        fit_reference.exponent_or_rate,
        fit_actual,
        fit_reference,
        kept,
    )
