"""Interleaved in-process A/B timing of two source trees of tbtrellis, standard library and numpy only.

    python3 tools/ab.py --parent <tree> --change <tree> --case <name> [--rounds R] [--out PATH]

Each tree's ``src/tbtrellis`` is imported into this one process under its
own module objects (``sys.modules`` is cleared of the package between
the imports), once with the parent imported first and once with the
change first.  In each import order both sides run the case's operations
once untimed, which gives their outputs and fills the per-code caches,
then R timed rounds; within a round the side that runs first alternates.
A case is a perfbench workload (``perfbench/workloads.py`` of this
checkout, read, not edited): its seeded operations, prepared and called
as the benchmark calls them.  ``decode-k7-batch`` and
``decode-ref-batch`` read the words of ``decode-k7-lownoise`` and
``decode-ref-uniform`` and hand them to ``decode_tailbiting_batch``,
``BATCH`` words a call, and ``verify-ref-n12`` and ``verify-ref-n16`` are
``verify-ref-cli`` at N = 12 and 16 (a ``VerifyWorkload`` of its own name,
so its seeds differ; 2^16 codewords at N = 16).  The
report gives per import order both sides' median seconds a round with
their quartiles, the median ratio (parent / change, above 1 when the
change is faster) and how many rounds the change won, then one sha256 of
each side's outputs (the repr of every call's return value, in both
orders).  The exit status is 1 when the two digests differ.  ``--out``
also writes the report to PATH as JSON: per import order both sides'
seconds a round and their quartiles, the median ratio and the change's
wins, then both digests.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# operations a round, about 0.1 s of calls per side on a 2-core x86-64 host
OPS = {
    "decode-k7-lownoise": 1000,
    "decode-k7-batch": 4,
    "decode-ref-uniform": 4000,
    "decode-ref-batch": 64,
    "verify-ref-cli": 25,
    "verify-ref-n12": 5,
    "verify-ref-n16": 1,
}
SEED = 1
# words a call of a batch case
BATCH = 256


class Batch:
    """A decode workload whose operation is a block of ``BATCH`` of its words, decoded by one batch call."""

    def __init__(self, wl):
        self.wl = wl

    def __getattr__(self, name):
        return getattr(self.wl, name)

    def make_ops(self, seed, count):
        ops = self.wl.make_ops(seed, count * BATCH)
        return [ops[i : i + BATCH] for i in range(0, len(ops), BATCH)]

    def prepare(self, op):
        return [self.wl.prepare(word) for word in op]

    def warmup(self, tb, spec, op):
        self.wl.warmup(tb, spec, op[0])

    def call(self, tb, spec, arg):
        return tb.decoder.decode_tailbiting_batch(spec.G, spec.H, arg)


def workload(case):
    """The workload of a case, from ``perfbench/workloads.py``, which must be importable: one of its own, or a case
    built from one."""
    from workloads import WORKLOADS, VerifyWorkload

    cli = WORKLOADS["verify-ref-cli"]
    if case.startswith("verify-ref-n"):
        return VerifyWorkload(case, cli.code_path, int(case[12:]), cli.trials, cli.pool, cli.min_ops, cli.trace_ops)
    return {
        "decode-k7-batch": lambda: Batch(WORKLOADS["decode-k7-lownoise"]),
        "decode-ref-batch": lambda: Batch(WORKLOADS["decode-ref-uniform"]),
    }.get(case, lambda: WORKLOADS[case])()


def pop_package():
    """The package's entries of ``sys.modules``, removed from it."""
    return {name: sys.modules.pop(name) for name in list(sys.modules) if name.partition(".")[0] == "tbtrellis"}


def load_tree(tree):
    """A tree's ``src/tbtrellis``, imported afresh with its ``cli``: its modules, which ``sys.modules`` is left without."""
    pop_package()
    src = str(Path(tree).resolve() / "src")
    sys.path.insert(0, src)
    try:
        importlib.invalidate_caches()
        tb = importlib.import_module("tbtrellis")
        importlib.import_module("tbtrellis.cli")
        if Path(tb.__file__).resolve().parent != Path(src) / "tbtrellis":
            sys.exit(f"ab: imported tbtrellis from {tb.__file__}, not from {src}")
    finally:
        sys.path.remove(src)
    return pop_package()


def use(modules):
    """A loaded tree's package, with only its modules in ``sys.modules``: an import run inside a call (the ``cli``
    imports ``verify`` when a verify runs) then finds its own tree's package and loads from its directory."""
    pop_package()
    sys.modules.update(modules)
    return modules["tbtrellis"]


def timed(wl, tb, spec, args):
    gc.collect()
    start = time.perf_counter()
    for arg in args:
        wl.call(tb, spec, arg)
    return time.perf_counter() - start


def quartiles(values):
    """(first quartile, median, third quartile), read within the values: the inclusive method never extrapolates."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return q1, statistics.median(values), q3


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--case", required=True, choices=sorted(OPS))
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--out", help="also write the report to this file as JSON")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "perfbench"))
    wl = workload(args.case)
    wl.load()
    ops = wl.make_ops(SEED, OPS[args.case])
    prepared = [wl.prepare(op) for op in ops]
    digests = {side: hashlib.sha256() for side in ("parent", "change")}
    report = {"case": args.case, "ops": len(ops), "rounds": args.rounds, "orders": []}
    print(f"{args.case}: {len(ops)} ops a round, {args.rounds} rounds per import order")
    for order in (("parent", "change"), ("change", "parent")):
        trees = {side: load_tree(getattr(args, side)) for side in order}
        specs = {side: use(modules).load_codespec(wl.code_path) for side, modules in trees.items()}
        for side, modules in trees.items():
            tb = use(modules)
            wl.warmup(tb, specs[side], ops[0])
            for arg in prepared:
                digests[side].update(repr(wl.call(tb, specs[side], arg)).encode())
        seconds = {side: [] for side in order}
        for r in range(args.rounds):
            for side in order[r % 2 :] + order[: r % 2]:
                seconds[side].append(timed(wl, use(trees[side]), specs[side], prepared))
        ratios = [p / c for p, c in zip(seconds["parent"], seconds["change"])]
        won = sum(ratio > 1 for ratio in ratios)
        entry = {"first": order[0], "median_ratio": statistics.median(ratios), "change_won": won}
        entry |= {side: {"seconds": seconds[side], "quartiles": quartiles(seconds[side])} for side in order}
        report["orders"].append(entry)
        (p1, p, p3), (c1, c, c3) = entry["parent"]["quartiles"], entry["change"]["quartiles"]
        print(
            f"  {order[0]} imported first: parent {p:.4f} [{p1:.4f}, {p3:.4f}] s, change {c:.4f} [{c1:.4f}, {c3:.4f}] s,"
            f" ratio {entry['median_ratio']:.3f}x, change won {entry['change_won']}/{args.rounds}"
        )
        del trees, specs, tb
    report["sha256"] = {side: digest.hexdigest() for side, digest in digests.items()}
    for side, hexdigest in report["sha256"].items():
        print(f"  {side} sha256 {hexdigest}")
    same = report["sha256"]["parent"] == report["sha256"]["change"]
    print("  outputs identical" if same else "  OUTPUTS DIFFER")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
