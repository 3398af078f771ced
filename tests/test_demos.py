"""Every narrative demo runs to completion against the package in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(path)], env=env, cwd=ROOT, capture_output=True, text=True)


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(path):
    out = run_demo(path)
    assert out.returncode == 0, out.stderr


def test_decoding_demo_prints_the_readme_result():
    out = run_demo(ROOT / "demos" / "07_decoding.py")
    line = "weight=2 anchor_beta=(0,0) anchor_sigma=(0,0) e=000 000 100 100 000 y=111 110 010 011 000"
    assert line in out.stdout.splitlines()
    assert line in (ROOT / "README.md").read_text()
