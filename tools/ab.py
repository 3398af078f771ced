"""Interleaved in-process A/B timing of two source trees of tbtrellis, standard library and numpy only.

    python3 tools/ab.py --parent <tree> --change <tree> --case <name> [--rounds R]

Each tree's ``src/tbtrellis`` is imported into this one process under its
own module objects (``sys.modules`` is cleared of the package between
the imports), once with the parent imported first and once with the
change first.  In each import order both sides run the case's operations
once untimed, which gives their outputs and fills the per-code caches,
then R timed rounds; within a round the side that runs first alternates.
A case is a perfbench workload (``perfbench/workloads.py`` of this
checkout, read, not edited): its seeded operations, prepared and called
as the benchmark calls them.  The report gives per import order both
sides' median seconds a round with their quartiles, the median ratio
(parent / change, above 1 when the change is faster) and how many rounds
the change won, then one sha256 of each side's outputs (the repr of every
call's return value, in both orders).  The exit status is 1 when the two
digests differ.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# operations a round, about 0.1 s of calls per side on a 2-core x86-64 host
OPS = {"decode-k7-lownoise": 1000, "decode-ref-uniform": 4000, "verify-ref-cli": 25}
SEED = 1


def load_tree(tree):
    """A tree's ``src/tbtrellis``, imported afresh with its ``cli``; ``sys.modules`` is left without the package."""
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
        for name in [name for name in sys.modules if name == "tbtrellis" or name.startswith("tbtrellis.")]:
            del sys.modules[name]
    return tb


def timed(wl, tb, spec, args):
    gc.collect()
    start = time.perf_counter()
    for arg in args:
        wl.call(tb, spec, arg)
    return time.perf_counter() - start


def quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return q1, statistics.median(values), q3


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--case", required=True, choices=sorted(OPS))
    parser.add_argument("--rounds", type=int, default=10)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    wl = WORKLOADS[args.case]
    wl.load()
    ops = wl.make_ops(SEED, OPS[args.case])
    prepared = [wl.prepare(op) for op in ops]
    digests = {side: hashlib.sha256() for side in ("parent", "change")}
    print(f"{args.case}: {len(ops)} ops a round, {args.rounds} rounds per import order")
    for order in (("parent", "change"), ("change", "parent")):
        trees = {side: load_tree(getattr(args, side)) for side in order}
        specs = {side: tb.load_codespec(wl.code_path) for side, tb in trees.items()}
        for side, tb in trees.items():
            wl.warmup(tb, specs[side], ops[0])
            for arg in prepared:
                digests[side].update(repr(wl.call(tb, specs[side], arg)).encode())
        seconds = {side: [] for side in order}
        for r in range(args.rounds):
            for side in order[r % 2 :] + order[: r % 2]:
                seconds[side].append(timed(wl, trees[side], specs[side], prepared))
        ratios = [p / c for p, c in zip(seconds["parent"], seconds["change"])]
        (p1, p, p3), (c1, c, c3) = quartiles(seconds["parent"]), quartiles(seconds["change"])
        print(
            f"  {order[0]} imported first: parent {p:.4f} [{p1:.4f}, {p3:.4f}] s, change {c:.4f} [{c1:.4f}, {c3:.4f}] s,"
            f" ratio {statistics.median(ratios):.3f}x, change won {sum(ratio > 1 for ratio in ratios)}/{args.rounds}"
        )
        del trees, specs
    for side, digest in digests.items():
        print(f"  {side} sha256 {digest.hexdigest()}")
    same = digests["parent"].hexdigest() == digests["change"].hexdigest()
    print("  outputs identical" if same else "  OUTPUTS DIFFER")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
