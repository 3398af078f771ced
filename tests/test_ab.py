"""``tools/ab.py``, the in-process A/B harness: a tree against itself, and against a copy with one changed result."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# appended to a copy's decoder: the third decode of each import returns its result with ``tie`` flipped
MUTANT = '''

_real_decode_tailbiting, _decoded = decode_tailbiting, []


def decode_tailbiting(G, H, z):
    result = _real_decode_tailbiting(G, H, z)
    _decoded.append(result)
    return result._replace(tie=not result.tie) if len(_decoded) == 3 else result
'''


def _ab(parent, change):
    """A run of the harness on the reference-code words, two rounds per import order: (exit status, stdout)."""
    argv = [sys.executable, str(ROOT / "tools" / "ab.py"), "--parent", str(parent), "--change", str(change)]
    argv += ["--case", "decode-ref-uniform", "--rounds", "2"]
    out = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert not out.stderr, out.stderr
    return out.returncode, out.stdout


def _digests(stdout):
    return dict(re.findall(r"^  (parent|change) sha256 ([0-9a-f]{64})$", stdout, re.M))


def test_a_tree_against_itself_reads_identical_digests():
    status, stdout = _ab(ROOT, ROOT)
    digests = _digests(stdout)
    assert status == 0 and digests.keys() == {"parent", "change"} and len(set(digests.values())) == 1, stdout
    assert len(re.findall(r"imported first: .* change won \d/2$", stdout, re.M)) == 2, stdout


def test_a_copy_with_one_changed_decode_result_exits_non_zero(tmp_path):
    package = tmp_path / "src" / "tbtrellis"
    shutil.copytree(ROOT / "src" / "tbtrellis", package, ignore=shutil.ignore_patterns("__pycache__"))
    (package / "decoder.py").write_text((package / "decoder.py").read_text() + MUTANT)
    status, stdout = _ab(ROOT, tmp_path)
    digests = _digests(stdout)
    assert status == 1 and "OUTPUTS DIFFER" in stdout and digests["parent"] != digests["change"], stdout
    # the same tree as the parent side reads the same digest as in a run against itself
    assert digests["parent"] == _digests(_ab(ROOT, ROOT)[1])["parent"]
