"""``tools/ab.py``, the in-process A/B harness: a tree against itself, and against a copy with one changed result."""

import importlib.util
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# appended to a copy's decoder: the third decode of each import returns its result with ``tie`` flipped
MUTANT = '''

_real_decode_tailbiting, _decoded = decode_tailbiting, []


def decode_tailbiting(G, H, z):
    result = _real_decode_tailbiting(G, H, z)
    _decoded.append(result)
    return result._replace(tie=not result.tie) if len(_decoded) == 3 else result
'''


# appended to a copy's verify: every suite reads FAIL
VERIFY_MUTANT = '''

_real_run_all = run_all


def run_all(G, H, N, seed=1, trials=1000):
    return [(name, False) for name, _ in _real_run_all(G, H, N, seed, trials)]
'''


def _ab(parent, change, *options, case="decode-ref-uniform", rounds=2):
    """A run of the harness, by default on the reference-code words, two rounds per import order: (exit status, stdout)."""
    argv = [sys.executable, str(ROOT / "tools" / "ab.py"), "--parent", str(parent), "--change", str(change)]
    argv += ["--case", case, "--rounds", str(rounds), *options]
    out = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert not out.stderr, out.stderr
    return out.returncode, out.stdout


def _digests(stdout):
    return dict(re.findall(r"^  (parent|change) sha256 ([0-9a-f]{64})$", stdout, re.M))


def test_a_tree_against_itself_reads_identical_digests_and_writes_its_report_as_json(tmp_path):
    status, stdout = _ab(ROOT, ROOT, "--out", str(tmp_path / "ab.json"))
    digests = _digests(stdout)
    assert status == 0 and digests.keys() == {"parent", "change"} and len(set(digests.values())) == 1, stdout
    lines = re.findall(r"^  (\w+) imported first: .* ratio ([\d.]+)x, change won (\d)/2$", stdout, re.M)
    assert len(lines) == 2, stdout
    report = json.loads((tmp_path / "ab.json").read_text())
    assert (report["case"], report["ops"], report["rounds"], report["sha256"]) == ("decode-ref-uniform", 4000, 2, digests)
    assert [(o["first"], f"{o['median_ratio']:.3f}", str(o["change_won"])) for o in report["orders"]] == lines
    for order in report["orders"]:
        for side in ("parent", "change"):
            seconds, (q1, median, q3) = order[side]["seconds"], order[side]["quartiles"]
            assert len(seconds) == 2 and min(seconds) <= q1 <= median == sum(seconds) / 2 <= q3 <= max(seconds)
        ratios = [p / c for p, c in zip(order["parent"]["seconds"], order["change"]["seconds"])]
        assert order["median_ratio"] == sum(ratios) / 2 and order["change_won"] == sum(r > 1 for r in ratios)


def _load_ab():
    spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)
    return ab


def test_the_k7_batch_case_decodes_the_k7_words_256_a_call_and_reads_identical_digests(monkeypatch):
    """``decode-k7-batch``: the ``decode-k7-lownoise`` words in order, ``BATCH`` = 256 a ``decode_tailbiting_batch``
    call; against itself, one round, its two digests are equal."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    ab, words = _load_ab(), WORKLOADS["decode-k7-lownoise"]
    words.load()
    case = ab.Batch(words)
    ops = case.make_ops(ab.SEED, ab.OPS["decode-k7-batch"])
    assert [len(op) for op in ops] == [256] * 4 and sum(ops, []) == words.make_ops(ab.SEED, 1024)
    assert case.prepare(ops[0]) == [words.prepare(op) for op in ops[0]]
    status, stdout = _ab(ROOT, ROOT, case="decode-k7-batch", rounds=1)
    digests = _digests(stdout)
    assert status == 0 and digests.keys() == {"parent", "change"} and len(set(digests.values())) == 1, stdout
    assert stdout.startswith("decode-k7-batch: 4 ops a round, 1 rounds per import order\n"), stdout


def test_the_reference_batch_case_decodes_the_reference_words_256_a_call_and_reads_identical_digests(monkeypatch):
    """``decode-ref-batch``: the ``decode-ref-uniform`` words in order, ``BATCH`` = 256 a ``decode_tailbiting_batch``
    call, 64 calls a round; against itself, one round, its two digests are equal."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    ab, words = _load_ab(), WORKLOADS["decode-ref-uniform"]
    words.load()
    case = ab.workload("decode-ref-batch")
    ops = case.make_ops(ab.SEED, ab.OPS["decode-ref-batch"])
    assert isinstance(case, ab.Batch) and case.wl is words
    assert [len(op) for op in ops] == [256] * 64 and sum(ops, []) == words.make_ops(ab.SEED, 64 * 256)
    status, stdout = _ab(ROOT, ROOT, case="decode-ref-batch", rounds=1)
    digests = _digests(stdout)
    assert status == 0 and digests.keys() == {"parent", "change"} and len(set(digests.values())) == 1, stdout
    assert stdout.startswith("decode-ref-batch: 64 ops a round, 1 rounds per import order\n"), stdout


def _check_verify_case(monkeypatch, N, count):
    """``verify-ref-n<N>``: ``verify-ref-cli``'s code and trials at N, ``count`` calls a round, seeded under its own
    name; against itself, one round, its two digests are equal."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    name, ab, cli = f"verify-ref-n{N}", _load_ab(), WORKLOADS["verify-ref-cli"]
    case = ab.workload(name)
    case.load()
    ops = case.make_ops(ab.SEED, ab.OPS[name])
    assert len(ops) == count and ops != cli.make_ops(ab.SEED, count)
    assert case.prepare(ops[0]) == ["verify", "--code", cli.code_path, "-N", str(N), "--seed", str(ops[0])]
    assert (case.code.N, case.trials, case.bits_per_op) == (N, 1000, N * 3 * 1000)
    status, stdout = _ab(ROOT, ROOT, case=name, rounds=1)
    digests = _digests(stdout)
    assert status == 0 and digests.keys() == {"parent", "change"} and len(set(digests.values())) == 1, stdout
    assert stdout.startswith(f"{name}: {count} ops a round, 1 rounds per import order\n"), stdout


def test_the_n12_verify_case_runs_the_reference_verify_at_n_12_and_reads_identical_digests(monkeypatch):
    """Five calls a round."""
    _check_verify_case(monkeypatch, 12, 5)


def test_the_n16_verify_case_runs_the_reference_verify_at_n_16_and_reads_identical_digests(monkeypatch):
    """2^16 codewords, one call a round: the in-process run of the codebook's span and the membership kernel."""
    _check_verify_case(monkeypatch, 16, 1)


def test_quartiles_of_one_and_two_rounds_lie_within_the_values():
    """One round reads its value three times.  Two rounds of 0.0542 and 0.0506 s read [0.0497, 0.0551] by the
    exclusive method, outside both values; the inclusive method reads a quarter of the way in from each."""
    ab = _load_ab()
    assert ab.quartiles([0.0542]) == (0.0542, 0.0542, 0.0542)
    assert ab.quartiles([0.0542, 0.0506]) == pytest.approx((0.0515, 0.0524, 0.0533))


def _mutant(tmp_path, module, text):
    """A copy of the tree's package under ``tmp_path`` with ``text`` appended to ``module``."""
    package = tmp_path / "src" / "tbtrellis"
    shutil.copytree(ROOT / "src" / "tbtrellis", package, ignore=shutil.ignore_patterns("__pycache__"))
    (package / module).write_text((package / module).read_text() + text)
    return tmp_path


def test_a_copy_with_one_changed_decode_result_exits_non_zero(tmp_path):
    status, stdout = _ab(ROOT, _mutant(tmp_path, "decoder.py", MUTANT))
    digests = _digests(stdout)
    assert status == 1 and "OUTPUTS DIFFER" in stdout and digests["parent"] != digests["change"], stdout
    # the same tree as the parent side reads the same digest as in a run against itself
    assert digests["parent"] == _digests(_ab(ROOT, ROOT)[1])["parent"]


def test_each_side_of_a_verify_case_runs_the_verify_of_its_own_tree(tmp_path):
    """The CLI imports ``verify`` when a verify runs, so each call must find its own tree's package in ``sys.modules``."""
    status, stdout = _ab(ROOT, _mutant(tmp_path, "verify.py", VERIFY_MUTANT), case="verify-ref-cli", rounds=1)
    assert status == 1 and "OUTPUTS DIFFER" in stdout, stdout
