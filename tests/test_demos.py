"""Each script in demos/ runs in its own process and prints its pinned output."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# sha256 of each demo's stdout
DEMO_DIGESTS = {
    "01_topology_and_targets.py": "443e1ee49da4be9d6a1309ffacc0df1418540488c9678af4653b7e615890372a",
    "02_allocators_side_by_side.py": "5315bef274ea42a3a5d187497ca4ab1b305951b9ffe17400d37288c7f8dab679",
    "03_misreport_vs_allocation.py": "bb7f160be4b873078791f951f5fcc209ac2b562d6ad5b04ca67398bb67748b10",
    "04_routing_cost.py": "000ba47ffae8b7478cfa88681325611fde71a645b6cbaa9dd85453de5a0c9cef",
    "05_detection.py": "d366b3604f3a28cda54dd8a7622fe17be1b7c3ce81e289c95f0322ad0a2317c6",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_DIGESTS)


@pytest.mark.parametrize("name", sorted(DEMO_DIGESTS))
def test_demo_prints_its_pinned_output(name, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_DIGESTS[name]
