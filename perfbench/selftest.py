"""Self-checks of the benchmark itself.

    python3 perfbench/selftest.py    # run every check (about a minute)

Checks that:
- a deliberately wrong result is counted as failed, for every workload;
- the exact counts of the traced run repeat between two runs with one seed;
- the benchmark exits non-zero, printing no result, where only
  BENCHMARK.json and perfbench/ exist.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
from workloads import EXPECTED, HERE, ROOT, WORKLOADS

EXACT_COUNTS = (
    "decoder.anchors_per_word",
    "trellis.edges_per_section",
    "state_machines.sf_step.calls",
    "gf2.as_bits.calls",
)


def fail(message):
    sys.exit(f"selftest: FAIL: {message}")


def genuine(tb, wl, ops):
    spec = tb.load_codespec(wl.code_path)
    runner = run.Runner(tb, spec, wl)
    summaries = [runner.run(op, i)[1] for i, op in enumerate(ops)]
    if not all(wl.check(op, s) for op, s in zip(ops, summaries)):
        fail(f"{wl.name}: a genuine result failed its check")
    if wl.recorded_failures(tb, spec)[1]:
        fail(f"{wl.name}: a genuine format_result line differs from its recorded digest")
    return summaries


def check_wrong_results_fail(tb):
    seed = EXPECTED["seed"]
    for name in ("decode-k7-lownoise", "decode-ref-uniform"):
        wl = WORKLOADS[name]
        wl.load()
        ops = wl.make_ops(seed, 1)
        weight, y, tie = genuine(tb, wl, ops)[0]
        wrong = [
            None,  # the call raised
            (weight, y ^ 1, tie),  # one code bit flipped
            (weight + 1, y, tie),  # weight off by one
        ]
        for bad in wrong:
            if wl.check(ops[0], bad):
                fail(f"{name}: wrong result {bad!r} was not counted as failed")
        spec = tb.load_codespec(wl.code_path)
        line = tb.decoder.format_result(wl.call(tb, spec, wl.prepare(ops[0])), wl.code.n)
        for bad in (None, line + " "):  # the call raised; output bytes differ from the digest
            if wl.line_ok(0, bad):
                fail(f"{name}: format_result line {bad!r} was not counted as failed")
    wl = WORKLOADS["verify-ref-cli"]
    wl.load()
    ops = wl.make_ops(seed, 1)
    good = genuine(tb, wl, ops)[0]
    for bad in (None, (3, good[1]), (0, good[1].replace("PASS", "FAIL", 1)), (0, "")):
        if wl.check(ops[0], bad):
            fail(f"verify-ref-cli: wrong result {bad!r} was not counted as failed")
    print("wrong results are counted as failed: ok")


def traced(name, seed):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed), "--seconds", "1"]
    out = subprocess.run(argv + ["--trace", "1"], cwd=ROOT, capture_output=True, text=True, check=True, timeout=170)
    return json.loads(out.stdout.splitlines()[-1])


def check_exact_counts():
    for name in WORKLOADS:
        a, b = traced(name, 7), traced(name, 7)
        for key in EXACT_COUNTS:
            if a["metrics"][key] != b["metrics"][key]:
                fail(f"{name}: {key} differs between two runs with one seed: {a['metrics'][key]} {b['metrics'][key]}")
        print(f"{name}: exact counts repeat: " + ", ".join(f"{k}={a['metrics'][k]['value']:g}" for k in EXACT_COUNTS))


def check_fails_without_program():
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    argv = [sys.executable, f"{HERE.name}/run.py", "--workload", "decode-ref-uniform", "--seed", "1"]
    out = subprocess.run(argv + ["--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True, timeout=170)
    shutil.rmtree(bare)
    if out.returncode == 0 or out.stdout.strip():
        fail(f"without the program the benchmark exited {out.returncode} and printed {out.stdout!r}")
    print("without the program: exits non-zero, prints no result: ok")


def main():
    tb = run.load_package()
    check_wrong_results_fail(tb)
    check_exact_counts()
    check_fails_without_program()
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
