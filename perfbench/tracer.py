"""In-memory span tracer that wraps entforge's public callables from outside.

Nothing under ``src/`` is changed: :func:`install` replaces each callable at
the name where callers look it up (a method on its class, or a function
imported by name into the calling module), so the wrapper sees every call.

Two kinds of wrapper keep the overhead small:

* a *span* records (name, start, end, parent) for calls made at most a few
  thousand times per run, such as ``pure_spectrum`` or ``CompiledCircuit.apply``;
* an *aggregate* keeps only a per-name time and count, for leaf calls made
  more than about 10k times per run (partial traces and eigensolves).

Both add their duration to the enclosing span's child time, so a span's
self time (duration minus the time its children cover) stays exact.  The
tracer assumes one Python thread calls into entforge, which holds for the
CLI's default serial mode.
"""
from __future__ import annotations

import functools
import time

#: runner spans whose self time is reported as ``experiments.self_s``
RUNNERS = (
    "experiments.run_noise_sweep",
    "experiments.calibrate_gamma",
    "experiments.run_generation",
)


class Tracer:
    """Spans and per-name aggregates, kept in memory until :meth:`dump`."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        # span record: [name, start, end, parent index, child seconds]
        self.spans: list[list] = []
        self.stack: list[int] = []
        # aggregate record: name -> [seconds, calls]
        self.totals: dict[str, list] = {}
        # extra exact counts gathered by the wrappers (columns, bytes, ...)
        self.counts: dict[str, int] = {}

    def add_count(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(value)

    def span(self, name: str, fn, on_call=None):
        """Wrap ``fn`` so each call records one span named ``name``.

        ``on_call(args, kwargs, result)`` runs after a successful call to
        gather exact counts; its cost falls outside the span.
        """
        spans, stack, clock = self.spans, self.stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = end = clock()
                stack.pop()
                if record[3] >= 0:
                    spans[record[3]][4] += end - record[1]
            if on_call is not None:
                on_call(args, kwargs, result)
            return result

        return wrapper

    def aggregate(self, name_of, fn, on_result=None):
        """Wrap ``fn`` with a per-name time and count only.

        ``name_of`` is the name, or a callable mapping the call's first
        argument to one (used to split eigensolves by matrix kind).
        ``on_result(result)`` runs after a successful call.
        """
        spans, stack, totals, clock = self.spans, self.stack, self.totals, self.clock
        fixed = name_of if isinstance(name_of, str) else None

        @functools.wraps(fn)
        def wrapper(first, *args, **kwargs):
            name = fixed or name_of(first)
            start = clock()
            try:
                result = fn(first, *args, **kwargs)
            finally:
                elapsed = clock() - start
                entry = totals.get(name)
                if entry is None:
                    totals[name] = [elapsed, 1]
                else:
                    entry[0] += elapsed
                    entry[1] += 1
                if stack:
                    spans[stack[-1]][4] += elapsed
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    # --- summaries ---------------------------------------------------------

    def seconds(self, name: str) -> float:
        if name in self.totals:
            return self.totals[name][0]
        return sum(r[2] - r[1] for r in self.spans if r[0] == name)

    def calls(self, name: str) -> int:
        if name in self.totals:
            return self.totals[name][1]
        return sum(1 for r in self.spans if r[0] == name)

    def self_seconds(self, *names: str) -> float:
        return sum(r[2] - r[1] - r[4] for r in self.spans if r[0] in names)

    def dump(self) -> dict:
        """Spans and aggregates as plain data, for writing out after the run."""
        return {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p} for n, s, e, p, _ in self.spans
            ],
            "aggregates": {k: {"s": v[0], "calls": v[1]} for k, v in self.totals.items()},
            "counts": dict(self.counts),
        }


def install(tracer: Tracer) -> None:
    """Wrap entforge's layer entry points in place for this process."""
    from entforge import cli, core, entanglement, experiments, noise, sawtooth

    def on_apply(args, kwargs, result):
        compiled, amps = args[0], args[1]
        n_amps = amps.shape[0] * amps.shape[1]
        tracer.add_count("sawtooth.apply.columns", amps.shape[1])
        tracer.add_count("sawtooth.apply.amps", n_amps)
        # each segment reads and writes the (N, B) complex128 block once
        tracer.add_count("sawtooth.apply.bytes_computed", 2 * 16 * n_amps * len(compiled.segments))

    def on_draws(args, kwargs, result):
        tracer.add_count("noise.draws.values", result.size)

    def on_trajectories(args, kwargs, result):
        tracer.add_count("experiments.points", len(result.snapshots))

    def on_write(args, kwargs, result):
        tracer.add_count("cli.bytes_written", args[0].stat().st_size)

    # an eigensolve is "reduced" when its argument is the matrix the last
    # partial trace returned; every other one in these runs is N x N
    last_reduced = [None]

    def on_reduced(result):
        last_reduced[0] = result.matrix

    def eig_kind(matrix):
        return "core.eigvalsh_reduced" if matrix is last_reduced[0] else "core.eigvalsh_full"

    cc = sawtooth.CompiledCircuit
    cc.apply = tracer.span("sawtooth.apply", cc.apply, on_apply)
    sawtooth.compile_circuit = tracer.span("sawtooth.compile", sawtooth.compile_circuit)
    nr = noise.NoiseRealization
    nr.uniform_draws = tracer.span("noise.draws", nr.uniform_draws, on_draws)
    pa = core.ProjectorAccumulator
    pa.add_batch = tracer.span("core.add_batch", pa.add_batch)
    pa.finalize = tracer.span("core.finalize", pa.finalize)

    experiments.run_trajectories = tracer.span(
        "noise.run_trajectories", experiments.run_trajectories, on_trajectories
    )
    for mod in (experiments, noise):
        mod.evolve_exact = tracer.span("sawtooth.evolve_exact", mod.evolve_exact)
    for name in ("mixed_spectrum", "pure_spectrum", "pure_log_negativity"):
        setattr(experiments, name, tracer.span(f"entanglement.{name}", getattr(experiments, name)))

    entanglement.reduced_density_matrix = tracer.aggregate(
        "core.reduced_density_matrix", entanglement.reduced_density_matrix, on_reduced
    )
    entanglement.partial_transpose = tracer.aggregate(
        "core.partial_transpose", entanglement.partial_transpose
    )
    for mod in (core, entanglement):
        mod.hermitian_eigenvalues = tracer.aggregate(eig_kind, mod.hermitian_eigenvalues)

    for name in ("run_noise_sweep", "calibrate_gamma", "run_generation"):
        setattr(cli, name, tracer.span(f"experiments.{name}", getattr(cli, name)))
    cli.write_csv = tracer.span("cli.write", cli.write_csv, on_write)
    cli.write_json = tracer.span("cli.write", cli.write_json, on_write)
    cli.main = tracer.span("cli.main", cli.main)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers of one traced CLI call, by metric name."""
    t = tracer
    m: dict[str, float] = {}
    for layer in (
        "sawtooth.apply",
        "sawtooth.evolve_exact",
        "noise.draws",
        "core.add_batch",
        "core.finalize",
        "core.eigvalsh_full",
        "core.eigvalsh_reduced",
        "core.partial_transpose",
        "core.reduced_density_matrix",
        "entanglement.mixed_spectrum",
        "entanglement.pure_spectrum",
    ):
        m[f"{layer}.s"] = t.seconds(layer)
        m[f"{layer}.calls"] = t.calls(layer)
    amps = t.counts.get("sawtooth.apply.amps", 0)
    m["sawtooth.apply.columns"] = t.counts.get("sawtooth.apply.columns", 0)
    m["sawtooth.apply.ns_per_amp"] = 1e9 * m["sawtooth.apply.s"] / amps if amps else 0.0
    m["sawtooth.apply.bytes_computed"] = t.counts.get("sawtooth.apply.bytes_computed", 0)
    m["sawtooth.compile.s"] = t.seconds("sawtooth.compile")
    m["noise.draws.values"] = t.counts.get("noise.draws.values", 0)
    m["noise.run_trajectories.s"] = t.seconds("noise.run_trajectories")
    m["noise.run_trajectories.self_s"] = t.self_seconds("noise.run_trajectories")
    m["entanglement.mixed_spectrum.self_s"] = t.self_seconds("entanglement.mixed_spectrum")
    m["entanglement.pure_spectrum.self_s"] = t.self_seconds("entanglement.pure_spectrum")
    m["entanglement.pure_log_negativity.s"] = t.seconds("entanglement.pure_log_negativity")
    points = t.counts.get("experiments.points", 0)
    m["experiments.points"] = points
    m["experiments.self_s"] = t.self_seconds(*RUNNERS)
    m["experiments.mixed_spectra_per_point"] = (
        m["entanglement.mixed_spectrum.calls"] / points if points else 0.0
    )
    m["experiments.eigvalsh_full_per_point"] = (
        m["core.eigvalsh_full.calls"] / points if points else 0.0
    )
    m["cli.self_s"] = t.self_seconds("cli.main")
    m["cli.write.s"] = t.seconds("cli.write")
    m["cli.bytes_written"] = t.counts.get("cli.bytes_written", 0)
    return m
