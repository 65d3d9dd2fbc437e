"""The estimator parity script (``scripts/estimate_parity.py``).

Its output is only useful for diffing two source trees if it is a pure
function of the tree: the same grid run twice must agree exactly, and
``compare`` must flag drift while only reporting new detail keys.
"""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "estimate_parity.py"


@pytest.fixture(scope="module")
def parity():
    spec = importlib.util.spec_from_file_location("estimate_parity", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.timeout(180)
def test_two_seed_grid_is_reproducible(parity):
    first = parity.run_grid(seeds=(0, 1))
    second = parity.run_grid(seeds=(0, 1))
    assert json.loads(json.dumps(first)) == first
    assert first == second
    assert parity.compare(first, second) == ([], [])
    # every variant and every draw holder is in the grid
    assert len(first["estimates"]) == 17
    assert set(first["draws"]) == {
        "LSHTable", "MutableLSHIndex", "ShardedMutableIndex", "PairedLSHTable",
        "virtual-source", "ClusterCoordinator",
    }

    drifted = copy.deepcopy(first)
    entry = drifted["estimates"]["static-lsh-ss"]["0.5"]["0"]
    entry["value"] += 1.0
    entry["details"]["interval"] = [0.0, 1.0]
    drifted["draws"]["LSHTable"]["1"]["l"] = "0" * 20
    mismatches, added = parity.compare(first, drifted)
    assert len(mismatches) == 2
    assert added == ["/estimates/static-lsh-ss/0.5/0/details/interval"]
    # a detail key the newer side dropped is a mismatch
    mismatches, added = parity.compare(drifted, first)
    assert len(mismatches) == 3 and added == []
