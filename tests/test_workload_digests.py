"""The benchmark's requests (``perfbench/workloads.py``, imported read-only)
give the same results as before: the sha256 of the sorted-key JSON list of
``execute`` results over seed-401 rounds pins every output of the three
workloads byte for byte.

A change that means to alter an output, or a benchmark refresh that changes
the workloads' requests, updates these digests and says why in CHANGES."""
import hashlib
import json
import sys
from pathlib import Path

import pytest

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

# name: (rounds, number of results, digest)
DIGESTS = {
    "theory-stream": (
        6, 156, "81b0944e73051d794cbb88439dac3dc7999f9a5f88a7e82665fa0e8389991a76"),
    "boundary-queries": (
        2, 720, "edab842e0a40aaf528a46674c6901c3c98965e9f2ce36ad7942f4ca103344a79"),
    "frobenius-surfaces": (
        6, 336, "29e1eb50a80678e409cfe5e3f128fd84c914ea023827640ea35fa7d7969dcb76"),
}


@pytest.mark.parametrize("name", DIGESTS)
def test_seed_401_execute_digests_are_unchanged(name):
    rounds, count, digest = DIGESTS[name]
    w = workloads.WORKLOADS[name](401)
    results = [w.execute(req) for r in range(rounds) for req in w.round(r)]
    assert len(results) == count
    text = json.dumps(results, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
