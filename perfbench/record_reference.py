"""Record the seed-0 reference digests that run.py compares against.

    python3 perfbench/record_reference.py

Runs every workload at seed 0, at both sizes, in a fresh worker process each,
and writes perfbench/reference.json.  It refuses to overwrite an existing
reference: a reference is recorded once, at a commit whose results are
trusted, and is never re-recorded to make a later run pass.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

from run import HERE, ROOT, WORKLOADS, worker_env
from worker import SIZES

PATH = os.path.join(HERE, "reference.json")


def main() -> int:
    if os.path.exists(PATH):
        print(f"{PATH} exists; delete it first to record a new reference", file=sys.stderr)
        return 1
    scratch = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(scratch, exist_ok=True)
    reference: dict = {}
    for size in SIZES:
        for workload in WORKLOADS:
            with tempfile.TemporaryDirectory(dir=scratch) as out:
                done = subprocess.run(
                    [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
                     "--seed", "0", "--size", size, "--out", out],
                    cwd=ROOT, env=worker_env(), capture_output=True, text=True, check=True)
            record = json.loads(done.stdout.strip().splitlines()[-1])
            if record["failed"]:
                print(f"{size}/{workload}: failed {record['failed']}", file=sys.stderr)
                return 1
            reference.setdefault(size, {})[workload] = {
                "config": record["config"], "digest": record["digest"]}
    with open(PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
