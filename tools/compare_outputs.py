"""Compare the CLI's outputs in this checkout with those of another checkout.

    python tools/compare_outputs.py OTHER_CHECKOUT [--one-cpu]

Runs each command below with ``python -m logiclab`` from each tree's
``src/``, every run in a fresh temporary directory that is also its output
directory and holds the config files of ``CONFIGS`` it names. It compares the
exit codes, stdout, stderr and the sha256 of every written file, prints one
summary line, and exits 1 on any difference.  In stderr, each tree's ``src/``
path reads ``<src>`` and the line number of a warning's source location reads
``<line>``: they place a warning in a tree, and differ between any two trees
whose code differs above it, while its module, category, message and source
text are still compared.

``--one-cpu`` pins the other tree's runs to one CPU, so ``train`` runs its
serial loop there; ``python tools/compare_outputs.py . --one-cpu`` checks the
forked training workers against it.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import re
import subprocess
import sys
import tempfile

# Four seeds of 1,000 rows: more than one batch per model at any row budget
# below 4,000, so the default run's single batch per model is not all that
# is compared.
# A learning rate of 1e300 takes ``train``'s divergence path: at three
# seeds and three epochs MLP-Sigmoid stays finite and the other four models
# diverge (numpy's RuntimeWarnings go to stderr, which is compared too).
CONFIGS = {
    "chunks.ini": "[train]\nn_train = 1000\nseeds = 4\nepochs = 1\n",
    "diverge.ini": "[train]\nlearning_rate = 1e300\nseeds = 3\nepochs = 3\n",
}
COMMANDS = (
    ("train", "--out", "out"),
    ("train", "--config", "chunks.ini", "--out", "out"),
    ("train", "--config", "diverge.ini", "--out", "out"),
    ("gradcheck", "--points", "100"),
    ("boundary", "--out", "out"),
    ("boundary", "--svg", "--out", "out"),
    ("logic-checks",),
    ("truth-table",),
    ("truth-table", "--arity", "3", "--sharpness", "7"),
)
STREAMS = ("exit code", "stdout", "stderr")
_LOCATION = re.compile(rb"^(<src>\S*\.py):\d+:", re.MULTILINE)


def run(tree: str, argv: tuple[str, ...], cpus: set[int] | None = None) -> dict[str, object]:
    """One command in a fresh directory, on ``cpus`` if given: exit code,
    streams and file digests."""
    env = {**os.environ, "PYTHONPATH": os.path.join(tree, "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    pin = None if cpus is None else (lambda: os.sched_setaffinity(0, cpus))
    with tempfile.TemporaryDirectory() as cwd:
        for name in CONFIGS.keys() & set(argv):
            with open(os.path.join(cwd, name), "w") as fh:
                fh.write(CONFIGS[name])
        proc = subprocess.run([sys.executable, "-m", "logiclab", *argv], cwd=cwd, env=env,
                              capture_output=True, preexec_fn=pin)
        stderr = _LOCATION.sub(rb"\1:<line>:", proc.stderr.replace(env["PYTHONPATH"].encode(), b"<src>"))
        outcome: dict[str, object] = dict(zip(STREAMS, (proc.returncode, proc.stdout, stderr)))
        for root, _, files in os.walk(cwd):
            for name in files:
                path = os.path.join(root, name)
                rel = os.path.relpath(path, cwd)
                if rel not in CONFIGS:  # an input, not a written file
                    with open(path, "rb") as fh:
                        outcome[rel] = hashlib.sha256(fh.read()).hexdigest()
    return outcome


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other", metavar="OTHER_CHECKOUT", help="root of the checkout to compare with")
    parser.add_argument("--one-cpu", action="store_true",
                        help="run the other checkout's commands on one CPU")
    args = parser.parse_args()
    cpus = None
    if args.one_cpu:
        if not hasattr(os, "sched_setaffinity"):
            parser.error("--one-cpu needs os.sched_setaffinity")
        cpus = {min(os.sched_getaffinity(0))}
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    differences, files = [], 0
    for argv in COMMANDS:
        mine, theirs = run(here, argv), run(os.path.abspath(args.other), argv, cpus)
        files += len(mine) - len(STREAMS)
        for key in sorted(mine.keys() | theirs.keys()):
            if mine.get(key) != theirs.get(key):
                differences.append(f"{' '.join(argv)}: {key}")
    if differences:
        print(f"DIFFERENT in {len(differences)} place(s): {'; '.join(differences)}")
        return 1
    print(f"identical: {len(COMMANDS)} commands, exit codes, stdout, stderr and {files} files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
