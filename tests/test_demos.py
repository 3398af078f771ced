"""Every narrative demo runs to completion against the package in src/ and prints its recorded output."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# one file per demo, tests/golden/demos/<demo name>.txt: its stdout, byte for byte
GOLDEN = ROOT / "tests" / "golden" / "demos"


def run_demo(path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(path)], env=env, cwd=ROOT, capture_output=True, text=True)


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(path):
    """Demos 04 and 05 print the subtrellis correspondence, so their goldens pin every anchor they name."""
    out = run_demo(path)
    assert out.returncode == 0, out.stderr
    assert out.stdout.encode() == (GOLDEN / f"{path.stem}.txt").read_bytes()


def test_every_golden_names_a_demo():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == [p.stem for p in DEMOS]


def test_decoding_demo_prints_the_readme_result():
    out = run_demo(ROOT / "demos" / "07_decoding.py")
    line = "weight=2 anchor_beta=(0,0) anchor_sigma=(0,0) e=000 000 100 100 000 y=111 110 010 011 000"
    assert line in out.stdout.splitlines()
    assert line in (ROOT / "README.md").read_text()


def test_the_readme_library_quick_start_gives_every_result_it_shows():
    """The Python block under "Library quick start" runs, and each expression marked ``# ->``, on its line or the next,
    gives what the mark shows before any ": " remark: an expression of the block's names, or "(a x b x c) dtype array"."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## Library quick start\n", 1)[1].split("```python\n", 1)[1].split("\n```", 1)[0]
    lines, names, checked = block.splitlines() + [""], {}, 0
    for node in ast.parse(block).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], type_ignores=[]), "README.md", "exec"), names)
            continue
        value = eval(compile(ast.Expression(node.value), "README.md", "eval"), names)
        here, below = lines[node.end_lineno - 1], lines[node.end_lineno]
        claim = (here.partition("# -> ")[2] or (below[5:] if below.startswith("# -> ") else "")).split(": ")[0]
        assert claim, lines[node.lineno - 1]
        if shape := re.fullmatch(r"\((\d+) x (\d+) x (\d+)\) (\w+) array", claim):
            assert value.shape == tuple(map(int, shape.groups()[:3])) and value.dtype == shape[4], claim
        else:
            assert value == eval(claim, names), claim
        checked += 1
    assert checked == block.count("# -> ") == 5
