"""Record the reference outputs that the benchmark's output checks compare against.

Usage, from the root of a checkout:

    python3 perfbench/record_references.py

Run it at the commit whose outputs are the reference.  It records ``SEEDS``;
to add seeds, widen the constant and re-record at that commit.
It makes each workload's CLI call once per seed, or once for a workload
that ignores the seed, and writes the data files and the manifest's sha256
digests to ``perfbench/references/<workload>.json``.
"""
from __future__ import annotations

import json
import shutil
import sys

from run import OUT, REFERENCES, ROOT, WORKLOADS, cli_argv, git_sha, source_digest

SEEDS = range(16)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from entforge.cli import main as cli_main

    REFERENCES.mkdir(exist_ok=True)
    scratch = OUT / "record"
    for name, workload in WORKLOADS.items():
        seeds = {}
        for seed in SEEDS if workload.seeded else [0]:
            shutil.rmtree(scratch, ignore_errors=True)
            if cli_main(cli_argv(workload, seed, scratch)) != 0:
                print(f"error: {name} seed {seed} failed", file=sys.stderr)
                return 1
            manifest = json.loads((scratch / "manifest.json").read_text())
            seeds[str(seed)] = {
                "files": {f: (scratch / f).read_text() for f in workload.rows},
                "digests": manifest["files"],
            }
        record = {"git_sha": git_sha(), "src_sha256": source_digest(), "seeds": seeds}
        (REFERENCES / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n")
        print(f"{name}: {len(seeds)} seed(s)")
    shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
