"""The demos print exactly the bytes committed under demos/expected."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


@pytest.mark.parametrize("name", sorted(p.stem for p in DEMOS.glob("*.py")))
def test_demo_prints_its_expected_bytes(name):
    got = subprocess.run(
        [sys.executable, str(DEMOS / f"{name}.py")],
        cwd=ROOT,
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=60,
    )
    assert got.returncode == 0, got.stderr.decode(errors="replace")
    assert got.stdout == (DEMOS / "expected" / f"{name}.txt").read_bytes()
