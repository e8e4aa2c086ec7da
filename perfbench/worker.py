"""One benchmark process: set up entforge, run one CLI call, report.

Usage: python3 perfbench/worker.py SPEC.json

SPEC holds ``root`` (the checkout), ``launched`` (the parent's
``time.monotonic()`` just before it started this process), ``sizes`` (the
register sizes to compile circuits for), ``argv`` (the CLI arguments),
``trace`` and ``result`` / ``spans`` (files to write).  Set-up time runs from
launch until ``entforge.cli`` is imported and
``compile_circuit(build_step_circuit(MapParams(n)))`` has run for each size.
The tracer is installed after set-up, so it sees only the CLI call.
"""
from __future__ import annotations

import ctypes
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    import numpy

    libs = sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib_path in libs:
        lib = ctypes.CDLL(str(lib_path))
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                fn = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return int(fn())
    return None


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    src = Path(spec["root"]) / "src"
    sys.path.insert(0, str(src))

    import entforge.cli
    from entforge import sawtooth

    if not Path(entforge.cli.__file__).resolve().is_relative_to(src.resolve()):
        print(f"entforge imported from {entforge.cli.__file__}, not {src}", file=sys.stderr)
        return 3
    for n in spec["sizes"]:
        sawtooth.compile_circuit(sawtooth.build_step_circuit(sawtooth.MapParams(n)))
    result = {"setup_s": time.monotonic() - spec["launched"]}

    tracer = None
    if spec["trace"]:
        from tracer import Tracer, install, layer_metrics

        tracer = Tracer()
        install(tracer)
    cpu0 = _cpu_seconds()
    start = time.perf_counter()
    try:
        result["rc"] = entforge.cli.main(spec["argv"])
    except Exception:  # a crash fails the invocation's points, not the run
        result["rc"] = None
        result["error"] = traceback.format_exc()
    result["wall_s"] = time.perf_counter() - start
    result["cpu_s"] = _cpu_seconds() - cpu0
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["blas_threads"] = blas_threads()
    if tracer is not None:
        result["layers"] = layer_metrics(tracer)
        Path(spec["spans"]).write_text(json.dumps(tracer.dump()))
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
