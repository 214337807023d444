"""``tools/mutants.py`` runs its mutants in copies and only reads the checkout."""

import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _snapshot(root):
    """Every file outside dot-directories and caches: its mtime and sha256."""
    files = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if not d.startswith(".") and d != "__pycache__"]
        for name in filenames:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, root)] = (os.stat(path).st_mtime_ns,
                                                      hashlib.sha256(fh.read()).hexdigest())
    return files


def test_a_run_kills_its_mutant_and_leaves_the_checkout_as_it_was():
    before = _snapshot(ROOT)
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "tools", "mutants.py"),
                           "zero-fixed-sharpness-rejected"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1].startswith("1 mutants: 1 killed, 0 survived as expected, "
                                                    "0 UNEXPECTED in ")
    assert _snapshot(ROOT) == before
