"""Each demo prints exactly the bytes pinned in tests/golden/demo_0N.txt.

Regenerate a file only for an intended output change:
    PYTHONPATH=src python -W error::RuntimeWarning demos/0N_*.py > tests/golden/demo_0N.txt
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _golden(demo: Path) -> Path:
    return GOLDEN / f"demo_{demo.name[:2]}.txt"


def test_every_demo_has_a_golden_file():
    assert DEMOS and sorted(GOLDEN.glob("demo_*.txt")) == [_golden(d) for d in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_prints_golden_bytes(demo):
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(demo)],
        capture_output=True, cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout == _golden(demo).read_bytes()
