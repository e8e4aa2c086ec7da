"""entforge benchmark: time real CLI calls end to end, or trace them by layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each CLI call runs in a fresh process (``perfbench/worker.py``) through
``entforge.cli.main(argv)``, importing entforge from ``src/`` of this
checkout.  Its outputs are checked (``perfbench/checks.py``) and counted
as output points: every CSV row the workload writes, plus the two gamma
fits of ``calibrate-gamma``.

``--trace 0`` repeats CLI calls for ``--seconds`` and prints the medians
over the calls of ``wall_s`` (the CLI call), ``setup_s`` (launch of the
call's process until entforge is imported and the workload's circuits are
compiled) and ``peak_rss_mb`` (``ru_maxrss`` of the call's process).

``--trace 1`` alternates untraced and traced calls for ``--seconds``, then
makes one traced call with one BLAS thread, and prints the per-layer
metrics (``perfbench/tracer.py``): medians over the traced calls, the
``blas1.*`` numbers of the single-thread call, and ``trace.overhead_s``,
the median over (untraced, traced) pairs of their wall-time difference.

BLAS threads stay at the library default and ``--workers`` is not passed,
as users run the CLI.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` (output points) and ``metrics``;
the lines before it give each metric with its unit, ``error_rate`` and an
environment record.  Spans and the full record go to ``.perfbench-out/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from checks import check_outputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
REFERENCES = HERE / "references"
#: each run must end within this many seconds, whatever --seconds says
HARD_LIMIT_S = 170.0
#: fewest CLI calls per untraced run, so the medians have something to reject
MIN_CALLS = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]  # CLI arguments before --seed and --out
    sizes: tuple[int, ...]  # register sizes compiled during set-up
    rows: dict  # data file -> rows it must hold (output points)
    seeded: bool  # False when the command ignores --seed


# The "why" of each workload, with its traced layer shares, is in BENCHMARK.json.
# Each is sized so that a run of BENCHMARK.json's run_seconds (60) holds six
# or more calls, whose median absorbs single slow calls.  The same commands
# at t = 30 with a second (sweep) or third (gamma) epsilon take 17-23 s each.
# gamma-nq10 is not in BENCHMARK.json: the run budget allows 60 s runs for
# two workloads only, and sweep-nq8 and generate give each planned layer
# change one workload that exercises it and one that bypasses it.  It stays
# runnable by name for measuring by hand.
WORKLOADS = {
    "sweep-nq8": Workload(
        ("noise-sweep", "--nq", "8", "--eps-grid", "3e-3", "--steps", "16",
         "--realizations", "auto"),
        (8,),
        {"noise_sweep.csv": 2, "fidelity.csv": 1},
        True,
    ),
    "gamma-nq10": Workload(
        ("calibrate-gamma", "--nq", "10", "--eps-grid", "1e-3,1e-2", "--steps", "10"),
        (10,),
        {"gamma_points.csv": 4, "fits.csv": 2},
        True,
    ),
    "generate": Workload(
        ("generate", "--nq", "4,6,8,10", "--steps", "5"),
        (4, 6, 8, 10),
        {"generation.csv": 24},
        False,
    ),
}


def cli_argv(workload: Workload, seed: int, out_dir: Path) -> list[str]:
    return [*workload.argv, "--seed", str(seed), "--out", str(out_dir)]


def load_reference(name: str, seed: int) -> dict | None:
    path = REFERENCES / f"{name}.json"
    if not path.is_file():
        return None
    key = str(seed if WORKLOADS[name].seeded else 0)
    return json.loads(path.read_text())["seeds"].get(key)


class Runner:
    """Starts worker processes one at a time and checks what they write."""

    def __init__(self, name: str, seed: int, work: Path):
        self.name, self.seed, self.work = name, seed, work
        self.workload = WORKLOADS[name]
        self.reference = load_reference(name, seed)
        self.started = time.monotonic()
        self.attempted = self.failed = 0
        self.digests_match: set = set()
        self.count = 0

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def _spawn(self, trace: bool, one_thread: bool) -> dict | None:
        self.count += 1
        tag = f"{self.count:03d}"
        spec = {
            "root": str(ROOT),
            "sizes": list(self.workload.sizes),
            "argv": cli_argv(self.workload, self.seed, self.work / tag),
            "trace": trace,
            "result": str(self.work / f"{tag}.result.json"),
            "spans": str(OUT / f"spans-{self.name}-seed{self.seed}-{tag}.json"),
        }
        env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
        if one_thread:
            env.update({k: "1" for k in THREAD_VARS})
        spec_path = self.work / f"{tag}.spec.json"
        spec["launched"] = time.monotonic()
        spec_path.write_text(json.dumps(spec))
        timeout = max(1.0, HARD_LIMIT_S - self.elapsed())
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(spec_path)],
                cwd=ROOT, env=env, timeout=timeout, stdout=subprocess.DEVNULL,
            )
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            proc = None
        result_path = Path(spec["result"])
        if proc is None or proc.returncode != 0 or not result_path.is_file():
            return None
        return json.loads(result_path.read_text())

    def call(self, trace: bool, one_thread: bool = False) -> dict | None:
        """One CLI call; its output points are added to the run's counts.
        Returns the worker's record, or None if the call failed."""
        result = self._spawn(trace, one_thread)
        out_dir = self.work / f"{self.count:03d}"
        expected = sum(self.workload.rows.values())
        if result is None or result["rc"] != 0:
            self.attempted += expected
            self.failed += expected
            if result is not None and result.get("error"):
                print(result["error"], file=sys.stderr)
            result = None
        else:
            attempted, failed, match = check_outputs(out_dir, self.workload.rows, self.reference)
            self.attempted += attempted
            self.failed += failed
            self.digests_match.add(match)
        shutil.rmtree(out_dir, ignore_errors=True)
        return result


def run_untraced(runner: Runner, seconds: float) -> tuple[dict, list]:
    calls = []
    laps = 0
    while True:
        laps += 1
        begin = runner.elapsed()
        call = runner.call(trace=False)
        if call is not None:
            calls.append(call)
        lap = runner.elapsed() - begin
        if runner.elapsed() + lap > (seconds if laps >= MIN_CALLS else HARD_LIMIT_S):
            break
    if not calls:
        return {}, calls
    metrics = {
        "wall_s": statistics.median(c["wall_s"] for c in calls),
        "setup_s": statistics.median(c["setup_s"] for c in calls),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in calls),
    }
    return metrics, calls


def run_traced(runner: Runner, seconds: float) -> tuple[dict, list]:
    plain, traced, pairs = [], [], []
    while True:
        begin = runner.elapsed()
        pair = runner.call(trace=False), runner.call(trace=True)
        plain += [pair[0]] if pair[0] else []
        traced += [pair[1]] if pair[1] else []
        if all(pair):
            pairs.append(pair)
        lap = runner.elapsed() - begin
        # the single-thread call after the loop takes about half a lap
        if runner.elapsed() + lap > seconds or runner.elapsed() + 2 * lap > HARD_LIMIT_S:
            break
    one_thread = runner.call(trace=True, one_thread=True)
    if not (pairs and one_thread):
        return {}, plain + traced
    metrics = {
        name: statistics.median(c["layers"][name] for c in traced)
        for name in traced[0]["layers"]
    }
    metrics["process.cpu_s"] = statistics.median(c["cpu_s"] for c in traced)
    metrics["process.cpu_per_wall"] = statistics.median(c["cpu_s"] / c["wall_s"] for c in traced)
    metrics["trace.wall_s"] = statistics.median(c["wall_s"] for c in traced)
    # paired differences cancel most of the machine's slow drift
    metrics["trace.overhead_s"] = statistics.median(t["wall_s"] - p["wall_s"] for p, t in pairs)
    metrics["blas1.process.cpu_per_wall"] = one_thread["cpu_s"] / one_thread["wall_s"]
    metrics["blas1.trace.wall_s"] = one_thread["wall_s"]
    metrics["blas1.core.eigvalsh_full.s"] = one_thread["layers"]["core.eigvalsh_full.s"]
    metrics["blas1.sawtooth.apply.s"] = one_thread["layers"]["sawtooth.apply.s"]
    return metrics, plain + traced + [one_thread]


def git_sha() -> str | None:
    """HEAD of the checkout, or None where it is not a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(seed: int, calls: list) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = None
    threads = sorted({c["blas_threads"] for c in calls}, key=str)
    return {
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads_seen": threads,
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a termination request unwinds through subprocess.run, which kills and
    # reaps the running worker before the work directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if not (ROOT / "src" / "entforge" / "cli.py").is_file():
        print(f"error: no entforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    try:
        runner = Runner(args.workload, args.seed, work)
        run = run_traced if args.trace else run_untraced
        metrics, calls = run(runner, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not metrics:
        print("error: the run's CLI calls failed; no metrics", file=sys.stderr)
        return 1

    env = environment(args.seed, calls)
    env["digests_match_reference"] = sorted(runner.digests_match, key=str)
    env["cli_calls"] = len(calls)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    record = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"env": env, "result": result, "calls": calls}, indent=1))
    for name, entry in result["metrics"].items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    print(f"error_rate = {runner.failed / runner.attempted:.6g} (failed/attempted output points)")
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
