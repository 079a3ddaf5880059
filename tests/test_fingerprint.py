"""Bits in tier-1: `tools/fingerprint.py` at one BLAS thread against the hashes
committed in `tools/fingerprint.json` with the numpy version that made them.
A change that moves entries on purpose regenerates the file and lists the
moved entries in CHANGES.md:  PYTHONPATH=src python tests/test_fingerprint.py
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")
COMMITTED = os.path.join(TOOLS, "fingerprint.json")


def _fingerprint() -> dict:
    src = os.path.join(os.path.dirname(TOOLS), "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))),
           "OPENBLAS_NUM_THREADS": "1"}
    run = subprocess.run([sys.executable, os.path.join(TOOLS, "fingerprint.py")], env=env, capture_output=True,
                         text=True, check=True)
    return json.loads(run.stdout)


def test_fingerprint_matches_the_committed_hashes():
    with open(COMMITTED) as fh:
        committed = json.load(fh)
    if committed["numpy"] != np.__version__:
        pytest.skip(f"hashes committed under numpy {committed['numpy']}, running {np.__version__}")
    old, new = committed["entries"], _fingerprint()
    moved = sorted(name for name in old.keys() & new.keys() if old[name] != new[name])
    assert not moved and old.keys() == new.keys(), \
        f"moved: {moved}; missing: {sorted(old.keys() - new.keys())}; new: {sorted(new.keys() - old.keys())}"


if __name__ == "__main__":
    with open(COMMITTED, "w", newline="\n") as fh:
        json.dump({"numpy": np.__version__, "entries": _fingerprint()}, fh, indent=1, sort_keys=True)
        fh.write("\n")
