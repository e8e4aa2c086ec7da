"""The benchmark's own tests.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py [-v]

They check the tracer's self-time arithmetic, that the output checks catch
a wrong, missing or out-of-range value, and that two traced calls of each
workload give identical exact counts, the base of any count-based claim.
The file name keeps pytest from collecting it into the repository's suite.
"""
from __future__ import annotations

import json
import os
import shutil
import unittest

from checks import check_outputs, read_rows
from run import OUT, WORKLOADS, Runner, load_reference
from tracer import Tracer

#: per-layer metrics that are exact counts: they must repeat run to run
COUNT_METRICS = (
    "sawtooth.apply.columns",
    "sawtooth.apply.bytes_computed",
    "noise.draws.values",
    "experiments.points",
    "experiments.mixed_spectra_per_point",
    "experiments.eigvalsh_full_per_point",
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


class TracerTest(unittest.TestCase):
    def test_self_time_excludes_spans_and_aggregates(self):
        tracer = Tracer(clock=FakeClock())
        leaf = tracer.aggregate("leaf", lambda x: x)
        inner = tracer.span("inner", lambda: leaf(1))
        outer = tracer.span("outer", lambda: (inner(), leaf(2)))
        outer()
        # each clock read advances one second: leaf calls last 1 s, inner 3 s
        self.assertEqual(tracer.calls("leaf"), 2)
        self.assertEqual(tracer.seconds("leaf"), 2.0)
        self.assertEqual(tracer.seconds("inner"), 3.0)
        self.assertEqual(tracer.self_seconds("inner"), 2.0)
        self.assertEqual(tracer.seconds("outer"), 7.0)
        self.assertEqual(tracer.self_seconds("outer"), 3.0)
        self.assertEqual([s["parent"] for s in tracer.dump()["spans"]], [-1, 0])


class ChecksTest(unittest.TestCase):
    def setUp(self):
        self.dir = OUT / f"selftest-{os.getpid()}"
        self.dir.mkdir(parents=True)

    def tearDown(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def _write(self, files: dict) -> None:
        for name, text in files.items():
            (self.dir / name).write_text(text)

    def _edit(self, files: dict, name: str, row: int, column: str, value: str) -> dict:
        rows = read_rows(files[name])
        rows[row][column] = value
        header = list(rows[0])
        lines = [",".join(header)] + [",".join(r[h] for h in header) for r in rows]
        return {**files, name: "\n".join(lines) + "\n"}

    def test_reference_outputs_pass_and_edits_fail(self):
        for name, workload in WORKLOADS.items():
            reference = load_reference(name, 0)
            self.assertIsNotNone(reference, name)
            files = reference["files"]
            points = sum(workload.rows.values())
            self._write(files)
            self.assertEqual(check_outputs(self.dir, workload.rows, reference)[:2], (points, 0))

            first = next(iter(workload.rows))
            column = list(read_rows(files[first])[0])[-2]
            value = float(read_rows(files[first])[0][column])
            self._write(self._edit(files, first, 0, column, repr(value * (1 + 1e-6) + 1e-9)))
            self.assertEqual(check_outputs(self.dir, workload.rows, reference)[1], 1, name)

            self._write({first: files[first].rstrip("\n").rsplit("\n", 1)[0] + "\n"})
            self.assertEqual(check_outputs(self.dir, workload.rows, None)[1], 1, name)

    def test_invariants_without_reference(self):
        reference = load_reference("sweep-nq8", 0)
        rows = WORKLOADS["sweep-nq8"].rows
        self._write(self._edit(reference["files"], "fidelity.csv", 0, "fidelity", "1.5"))
        self.assertEqual(check_outputs(self.dir, rows, None)[1], 1)
        upper = float(read_rows(reference["files"]["noise_sweep.csv"])[1]["mean"])
        swapped = self._edit(reference["files"], "noise_sweep.csv", 0, "mean", repr(upper + 1e-3))
        self._write(swapped)
        self.assertEqual(check_outputs(self.dir, rows, None)[1], 2)


class CountsRepeatTest(unittest.TestCase):
    def test_two_traced_calls_give_identical_counts(self):
        for name in WORKLOADS:
            work = OUT / f"selftest-{os.getpid()}-{name}"
            work.mkdir(parents=True)
            try:
                runner = Runner(name, 0, work)
                first, second = runner.call(trace=True), runner.call(trace=True)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            self.assertEqual(runner.failed, 0, name)
            counts = [
                {k: v for k, v in c["layers"].items() if k.endswith(".calls") or k in COUNT_METRICS}
                for c in (first, second)
            ]
            self.assertEqual(counts[0], counts[1], name)
            print(f"{name}: {json.dumps(counts[0], sort_keys=True)}")


if __name__ == "__main__":
    unittest.main()
