import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tbtrellis import verify
from tbtrellis.cli import build_parser, main

from conftest import G1_STRINGS, G2_STRINGS, H1_STRINGS, H2_STRINGS, RANK_DEFICIENT, RECEIVED
from test_verify import EXPECTED_SUITES, G_RATE_5, H_RATE_5


GOLDEN = Path(__file__).parent / "golden"
ROOT = Path(__file__).resolve().parents[1]
EXAMPLE = str(ROOT / "demos" / "example_code.json")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_syndrome_forward(capsys, code_file):
    code, out, _ = run(capsys, "syndrome", "--code", code_file, "--received", RECEIVED)
    assert code == 0
    assert out == "sigma_fin=(0,0)\nzeta=00 00 10 01 11\n"


def test_syndrome_accepts_unseparated_and_underscored(capsys, code_file):
    for text in [RECEIVED.replace(" ", ""), RECEIVED.replace(" ", "_")]:
        code, out, _ = run(capsys, "syndrome", "--code", code_file, "--received", text)
        assert code == 0 and "zeta=00 00 10 01 11" in out


def test_syndrome_backward(capsys, code_file):
    code, out, _ = run(capsys, "syndrome", "--code", code_file, "--received", RECEIVED, "--backward")
    assert code == 0
    assert out == "sigma_fin=(0,0)\neta=00 11 01 10 00\n"


def test_syndrome_zero_word(capsys, code_file):
    code, out, _ = run(capsys, "syndrome", "--code", code_file, "--received", "0" * 15)
    assert code == 0
    assert out == "sigma_fin=(0,0)\nzeta=00 00 00 00 00\n"


def test_syndrome_bad_length(capsys, code_file):
    code, _, err = run(capsys, "syndrome", "--code", code_file, "--received", "1111")
    assert code == 1 and "error" in err


def test_syndrome_malformed_bits(capsys, code_file):
    code, _, err = run(capsys, "syndrome", "--code", code_file, "--received", "10x110")
    assert code == 1 and "error" in err


@pytest.mark.parametrize("command", [["decode"], ["syndrome"], ["syndrome", "--backward"]])
def test_a_malformed_word_exits_one_with_one_error_line(capsys, tmp_path, command):
    spec = tmp_path / "mem2.json"
    spec.write_text(json.dumps({"n": 2, "k": 1, "G": G2_STRINGS, "H": H2_STRINGS}))
    for received in ["10120", "10110", "", "1 0x", "10"]:  # "10" is one symbol, below M = 2
        code, out, err = run(capsys, *command, "--code", str(spec), "--received", received)
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and err.startswith("tbtrellis: error: "), err


@pytest.mark.parametrize("command", [["decode", "--received", "110 011 101"], ["verify", "-N", "3"]])
def test_a_rank_deficient_parity_check_matrix_exits_one_with_one_error_line(capsys, tmp_path, command):
    """Before the rank check the first spec decoded to a non-codeword and the second stopped at an anchor collision."""
    for i, spec in enumerate(RANK_DEFICIENT):
        path = tmp_path / f"spec{i}.json"
        path.write_text(json.dumps(spec))
        code, out, err = run(capsys, command[0], "--code", str(path), *command[1:])
        assert (code, out) == (1, "")
        assert err == "tbtrellis: error: matrix H has rank 1 over GF(2)(D), need 2: its rows are dependent\n"


def test_decode_reference(capsys, code_file):
    code, out, _ = run(capsys, "decode", "--code", code_file, "--received", RECEIVED)
    assert code == 0
    assert out == (
        "weight=2 anchor_beta=(0,0) anchor_sigma=(0,0) "
        "e=000 000 100 100 000 y=111 110 010 011 000\n"
    )


def test_decode_codeword(capsys, code_file):
    code, out, _ = run(capsys, "decode", "--code", code_file, "--received", "111 110 010 011 000")
    assert code == 0
    assert out.startswith("weight=0 ")


def test_decode_tie_exit_code(capsys, code_file):
    # word equidistant (weight 4) from subtrellises (1,0) and (1,1)
    code, out, _ = run(capsys, "decode", "--code", code_file, "--received", "010 011 000 101 001")
    assert out.startswith("weight=4 ")
    assert code == 2


def test_hscalar_tailbiting(capsys, code_file):
    code, out, _ = run(capsys, "hscalar", "--code", code_file, "-N", "5", "--kind", "tailbiting")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "101000000000111"
    assert lines[1] == "011000000000100"
    assert lines[-1] == "size 10x15 rank 10"


def test_hscalar_terminated(capsys, code_file):
    code, out, _ = run(capsys, "hscalar", "--code", code_file, "-N", "1", "--kind", "terminated")
    assert code == 0
    assert out.splitlines() == ["101", "011", "111", "100", "size 4x3 rank 3"]


def test_hscalar_rejects_zero_parity_row(capsys, tmp_path):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"n": 3, "k": 1, "H": [["11", "01", "11"], ["0", "0", "0"]]}))
    code, _, err = run(capsys, "hscalar", "--code", str(path), "-N", "5")
    assert code == 1 and "zero" in err


def test_code_trellis_dot(capsys, code_file):
    code, out, _ = run(capsys, "code-trellis", "--code", code_file, "-N", "5")
    assert code == 0
    assert out.startswith("digraph")
    assert out.count("->") == 5 * 8


def test_code_trellis_highlight_and_out(tmp_path, capsys, code_file):
    target = tmp_path / "trellis.dot"
    code, out, _ = run(
        capsys,
        "code-trellis", "--code", code_file, "-N", "5",
        "--highlight", "(1,0)", "--out", str(target),
    )
    assert code == 0 and out == ""
    text = target.read_text()
    assert "style=bold" in text


def test_error_trellis_json(capsys, code_file):
    code, out, _ = run(
        capsys,
        "error-trellis", "--code", code_file, "--received", RECEIVED, "--format", "json",
    )
    assert code == 0
    obj = json.loads(out)
    assert len(obj["cuts"]) == 6
    assert all(len(section) == 8 for section in obj["sections"])


def test_backward_error_trellis(capsys, code_file):
    code, out, _ = run(
        capsys,
        "backward-error-trellis", "--code", code_file, "--received", RECEIVED,
    )
    assert code == 0
    assert out.startswith('digraph "backward-error-trellis"')


def test_verify_passes(capsys, code_file):
    code, out, _ = run(capsys, "verify", "--code", code_file, "-N", "5", "--seed", "1", "--trials", "100")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6
    assert all(line.endswith(": PASS") for line in lines)


def test_verify_boundary_and_bounds(capsys, code_file):
    code, out, _ = run(capsys, "verify", "--code", code_file, "-N", "1", "--trials", "50")
    assert code == 0 and all(l.endswith(": PASS") for l in out.splitlines())
    code, _, err = run(capsys, "verify", "--code", code_file, "-N", "0", "--trials", "50")
    assert code == 1
    code, _, err = run(capsys, "verify", "--code", code_file, "-N", "25", "--trials", "50")
    assert code == 1 and "exhaustive" in err


def test_verify_rejects_negative_trials_and_length(capsys, code_file):
    for argv, message in (
        (["-N", "3", "--trials", "-1"], "trials must be at least 0, got -1"),
        (["-N", "-2"], "N must be at least 1, got -2"),
        (["-N", "3", "--seed", "-1"], "seed must be at least 0, got -1"),
    ):
        code, out, err = run(capsys, "verify", "--code", code_file, *argv)
        assert code == 1 and out == ""
        assert err == f"tbtrellis: error: {message}\n"
    # no random trial, only the exhaustive checks
    code, out, _ = run(capsys, "verify", "--code", code_file, "-N", "3", "--trials", "0")
    assert code == 0
    assert len(out.splitlines()) == 6 and all(line.endswith(": PASS") for line in out.splitlines())


def test_verify_rejects_trials_above_the_cap_before_any_draw(capsys, code_file, monkeypatch):
    # the widest int64 draw at N*k = 20 on the reference code, 60 bits a trial, stays under 256 MB
    assert 10**5 <= verify.MAX_TRIALS and verify.MAX_TRIALS * 60 * 8 < 256e6
    monkeypatch.setattr(verify, "_bits", None)  # a draw would fail with a TypeError
    for trials in (verify.MAX_TRIALS + 1, 100_000_000):
        code, out, err = run(capsys, "verify", "--code", code_file, "-N", "20", "--trials", str(trials))
        assert (code, out) == (1, "")
        assert err == f"tbtrellis: error: trials must be at most {verify.MAX_TRIALS}, got {trials}\n"
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    assert f"at most {verify.MAX_TRIALS}" in " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize("value", ["1e400", "2.5", "true", '"3"'])
def test_n_and_k_that_are_not_json_integers_exit_one(capsys, tmp_path, value):
    """1e400 used to end in an OverflowError traceback; 2.5, true and "3" were truncated or coerced."""
    for n, k in ((value, "1"), ("3", value)):
        path = tmp_path / "spec.json"
        path.write_text(f'{{"n": {n}, "k": {k}, "H": {json.dumps(H1_STRINGS)}}}')
        code, out, err = run(capsys, "syndrome", "--code", str(path), "--received", RECEIVED)
        assert (code, out) == (1, "")
        assert err == "tbtrellis: error: code spec needs integer fields 'n' and 'k'\n"


def test_verify_rejects_n_below_the_memory_of_h(capsys, tmp_path):
    path = tmp_path / "mem2.json"
    path.write_text(json.dumps({"n": 2, "k": 1, "G": G2_STRINGS, "H": H2_STRINGS}))
    code, out, err = run(capsys, "verify", "--code", str(path), "-N", "1")
    assert (code, out) == (1, "")
    assert err == "tbtrellis: error: -N 1 is below M=2, the memory of H\n"
    code, out, _ = run(capsys, "verify", "--code", str(path), "-N", "2", "--trials", "20")
    assert code == 0 and len(out.splitlines()) == 6 and all(l.endswith(": PASS") for l in out.splitlines())


def test_verify_exits_three_when_the_kernel_of_h_scalar_exceeds_the_code(capsys, tmp_path):
    """The non-basic H_RATE_5 has ker H_scalar 8 times its code at every N: only hscalar-membership FAILs, even
    with no random trial."""
    path = tmp_path / "rate5.json"
    path.write_text(json.dumps({"n": 5, "k": 1, "G": G_RATE_5, "H": H_RATE_5}))
    for trials in ("0", "20"):
        code, out, err = run(capsys, "verify", "--code", str(path), "-N", "3", "--trials", trials)
        assert (code, err) == (3, "")
        assert [line for line in out.splitlines() if not line.endswith(": PASS")] == ["hscalar-membership: FAIL"]


def test_missing_matrix_for_command(capsys, tmp_path):
    path = tmp_path / "honly.json"
    path.write_text(json.dumps({"n": 3, "k": 1, "H": H1_STRINGS}))
    code, out, _ = run(capsys, "syndrome", "--code", str(path), "--received", RECEIVED)
    assert code == 0  # syndrome only needs H
    code, _, err = run(capsys, "decode", "--code", str(path), "--received", RECEIVED)
    assert code == 1 and "generator" in err

    gonly = tmp_path / "gonly.json"
    gonly.write_text(json.dumps({"n": 3, "k": 1, "G": G1_STRINGS}))
    code, out, _ = run(capsys, "code-trellis", "--code", str(gonly), "-N", "2")
    assert code == 0
    code, _, err = run(capsys, "syndrome", "--code", str(gonly), "--received", RECEIVED)
    assert code == 1 and "parity" in err


def test_usage_errors_exit_one(code_file):
    with pytest.raises(SystemExit) as exc:
        main(["syndrome", "--code", code_file])  # --received missing
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["hscalar", "--code", code_file, "-N", "5", "--kind", "circular"])
    assert exc.value.code == 1


def test_main_reuses_one_parser_across_failing_and_passing_calls(capsys, code_file):
    """A usage error, a good call and the good call again each print what they print alone."""
    bad = ("syndrome", "--code", code_file)  # --received missing
    good = ("syndrome", "--code", code_file, "--received", RECEIVED)
    seen = []
    for argv in (bad, good, good, bad):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        seen.append((code, *capsys.readouterr()))
    assert seen[0] == seen[3] and seen[0][0] == 1 and seen[0][1] == "" and "--received" in seen[0][2]
    assert seen[1] == seen[2] == (0, "sigma_fin=(0,0)\nzeta=00 00 10 01 11\n", "")
    assert build_parser() is build_parser()


def test_missing_code_file(capsys):
    code, _, err = run(capsys, "syndrome", "--code", "/nonexistent.json", "--received", RECEIVED)
    assert code == 1 and "cannot read" in err


def test_unwritable_out_exits_one(capsys, code_file, tmp_path):
    target = str(tmp_path / "missing-dir" / "x")
    for argv in (["hscalar", "-N", "3"], ["code-trellis", "-N", "3"]):
        code, out, err = run(capsys, argv[0], "--code", code_file, *argv[1:], "--out", target)
        assert code == 1 and out == ""
        assert err.startswith("tbtrellis: error: ") and err.count("\n") == 1
        assert "No such file or directory" in err


@pytest.fixture
def colliding_code_file(tmp_path):
    # a dual rate-2/3 pair: G's encoder has 4 states, H's syndrome former 2,
    # so two encoder states share one error-subtrellis anchor
    path = tmp_path / "rate23.json"
    path.write_text(json.dumps({"n": 3, "k": 2, "G": [["01", "1", "0"], ["11", "0", "1"]], "H": [["1", "01", "11"]]}))
    return str(path)


def test_decode_anchor_collision_exits_one(capsys, colliding_code_file):
    code, out, err = run(capsys, "decode", "--code", colliding_code_file, "--received", "101 011 110 000")
    assert code == 1 and out == ""
    assert err.startswith("tbtrellis: error: ") and err.count("\n") == 1
    assert "colliding error-subtrellis anchors" in err


def test_verify_anchor_collision_exits_one(capsys, colliding_code_file):
    code, out, err = run(capsys, "verify", "--code", colliding_code_file, "-N", "4", "--trials", "20")
    assert code == 1 and out == ""
    assert err.startswith("tbtrellis: error: ") and err.count("\n") == 1
    assert "colliding error-subtrellis anchors" in err


def test_highlight_of_a_state_that_is_not_an_anchor_exits_one(capsys, code_file):
    for argv, state in (
        (["code-trellis", "--code", code_file, "-N", "2"], "(1,1,1)"),
        (["error-trellis", "--code", code_file, "--received", "111"], "(0,1,0)"),
        (["backward-error-trellis", "--code", code_file, "--received", "111"], "(0,1,0)"),
    ):
        code, out, err = run(capsys, *argv, "--highlight", state)
        assert code == 1 and out == ""
        assert err == f"tbtrellis: error: state {state} is not an anchor of this trellis\n"


def test_hscalar_of_a_memoryless_code_rejects_zero_sections(capsys, tmp_path):
    path = tmp_path / "memoryless.json"
    path.write_text(json.dumps({"n": 2, "k": 1, "G": [["1", "1"]], "H": [["1", "1"]]}))
    for kind in ("tailbiting", "terminated"):
        code, out, err = run(capsys, "hscalar", "--code", str(path), "-N", "0", "--kind", kind)
        assert code == 1 and out == ""
        assert err == "tbtrellis: error: need N >= 1 sections\n"
    code, out, _ = run(capsys, "hscalar", "--code", str(path), "-N", "2")
    assert code == 0 and out == "1100\n0011\nsize 2x4 rank 2\n"


@pytest.mark.parametrize("kind", ["tailbiting", "terminated"])
def test_hscalar_too_large_to_allocate_exits_one_with_one_error_line(capsys, code_file, kind):
    """At N = 10^8 the placement grids alone are N x N bytes, 8.88 PiB, which numpy refuses before it touches memory."""
    code, out, err = run(capsys, "hscalar", "--code", code_file, "-N", "100000000", "--kind", kind)
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and err.startswith("tbtrellis: error: Unable to allocate "), err
    assert "Traceback" not in err


def test_code_trellis_beyond_the_index_range_exits_one_with_one_error_line(capsys, code_file):
    """N = 10^20 sections do not fit an index-sized integer: Python refuses the section list before building it."""
    code, out, err = run(capsys, "code-trellis", "--code", code_file, "-N", "99999999999999999999")
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and err.startswith("tbtrellis: error: "), err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "options, golden",
    [(["--format", "json"], "error_trellis.json"), (["--highlight", "(0,1)"], "error_trellis_highlight.dot")],
)
def test_error_trellis_output_equals_its_recorded_golden(capsys, options, golden):
    """The README's error-trellis export, and one highlighted DOT, byte for byte."""
    code, out, err = run(capsys, "error-trellis", "--code", EXAMPLE, "--received", "111110110111000", *options)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / golden).read_text()


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["code-trellis", "-N", "5", "--highlight", "(1,0)"], "code_trellis_highlight.dot"),
        (["code-trellis", "-N", "3", "--format", "json"], "code_trellis.json"),
        (
            ["backward-error-trellis", "--received", RECEIVED, "--highlight", "(0,0)"],
            "backward_error_trellis_highlight.dot",
        ),
    ],
)
def test_trellis_output_equals_its_recorded_golden(capsys, argv, golden):
    """The code trellis, plain and highlighted, and a highlighted backward error trellis, byte for byte."""
    code, out, err = run(capsys, argv[0], "--code", EXAMPLE, *argv[1:])
    assert (code, err) == (0, "")
    assert out == (GOLDEN / golden).read_text()



# run first in the child: one stderr line for each file of the package's verify module that it opens, source or bytecode
WATCH = (
    "import os, runpy, sys\n"
    "sys.addaudithook(lambda event, args: event == 'open' and 'tbtrellis' in str(args[0])"
    " and os.path.basename(str(args[0])).startswith('verify.') and print('opened', args[0], file=sys.stderr))\n"
)


def _start(code):
    """A fresh interpreter's run of ``code`` after WATCH, under ``-X importtime``.

    Returns its stdout, the names of the modules it imported and the
    files of ``tbtrellis.verify`` it opened.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, "-X", "importtime", "-c", WATCH + code]
    out = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    lines = out.stderr.splitlines()
    names = {line.rsplit("|", 1)[1].strip() for line in lines if line.startswith("import time:")}
    return out.stdout, names, [line for line in lines if line.startswith("opened ")]


def _command(*argv):
    """The code that runs ``python -m tbtrellis *argv``."""
    return f"sys.argv[1:] = {list(argv)!r}\nrunpy.run_module('tbtrellis', run_name='__main__', alter_sys=True)"


@pytest.mark.parametrize(
    "code",
    [
        "import tbtrellis, tbtrellis.cli",
        _command("decode", "--code", EXAMPLE, "--received", RECEIVED),
        _command("syndrome", "--code", EXAMPLE, "--received", RECEIVED),
        _command("code-trellis", "--code", EXAMPLE, "-N", "3"),
        _command("error-trellis", "--code", EXAMPLE, "--received", RECEIVED),
        _command("backward-error-trellis", "--code", EXAMPLE, "--received", RECEIVED),
        _command("hscalar", "--code", EXAMPLE, "-N", "5"),
    ],
    ids=["import", "decode", "syndrome", "code-trellis", "error-trellis", "backward-error-trellis", "hscalar"],
)
def test_a_process_that_runs_no_verify_loads_neither_verify_nor_dataclasses(code):
    """Without a bytecode cache every module loaded is compiled first, so each one a command never calls costs start-up."""
    _, names, opened = _start(code)
    assert "tbtrellis.cli" in names and not names & {"tbtrellis.verify", "dataclasses"} and opened == []


def test_a_verify_process_loads_verify_and_prints_its_six_pass_lines():
    """The suites draw from the standard library's ``random``: no ``numpy.random`` module is loaded beyond those
    ``import numpy`` itself loads."""
    stdout, names, opened = _start(_command("verify", "--code", EXAMPLE, "-N", "5"))
    assert opened
    assert stdout.splitlines() == [f"{name}: PASS" for name in EXPECTED_SUITES]
    baseline = {name for name in _start("import numpy")[1] if name.startswith("numpy.random")}
    assert {name for name in names if name.startswith("numpy.random")} <= baseline


def test_the_cli_import_puts_verify_in_sys_modules_and_its_first_read_loads_it():
    """perfbench's tracer finds the verify suites in ``sys.modules`` right after importing the CLI."""
    code = "import tbtrellis, tbtrellis.cli\nprint(sys.modules['tbtrellis.verify'].MAX_TRIALS, tbtrellis.verify is tbtrellis.cli.verify)"
    stdout, _, opened = _start(code)
    assert stdout == f"{verify.MAX_TRIALS} True\n" and opened
