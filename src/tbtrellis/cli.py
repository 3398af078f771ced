"""Command-line front end.

Exit codes: 0 success, 1 usage, code-spec or output-file error, a
G/H pair whose encoder states collide on one error-subtrellis anchor
(decode, verify), an array too large to allocate, or a size past the
index range, 2 decoding tie (result still printed), 3 verification
failure, 141 standard output closed before the output is all written
(128 + SIGPIPE, as a shell reports a writer whose reader left; nothing
is printed to stderr).
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import sys
from functools import lru_cache

from .codespec import MAX_TRIALS, CodeSpecError, load_codespec
from .decoder import AnchorCollisionError, decode_tailbiting, format_result
from .error_trellis import (
    backward_sigma_fin,
    backward_syndromes,
    build_backward_error_trellis,
    build_tailbiting_error_trellis,
    sigma_fin,
    tailbiting_syndromes,
)
from .gf2 import format_state, parse_bits, parse_state, rank, split_symbols
from .scalar_parity import format_matrix, hscalar_tailbiting, hscalar_terminated
from .trellis import build_tailbiting_code_trellis, to_dot, to_json


# only a verify runs verify.py: until one of its attributes is first read, its module is just entered in sys.modules
# and on the package (where perfbench's tracer looks its suites up), and its source is not compiled
if f"{__package__}.verify" not in sys.modules:
    _spec = importlib.util.find_spec(f"{__package__}.verify")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(sys.modules[_spec.name])
    setattr(sys.modules[__package__], "verify", sys.modules[_spec.name])
verify = sys.modules[f"{__package__}.verify"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_TIE = 2
EXIT_VERIFY_FAIL = 3
EXIT_CLOSED = 141


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 by default; 2 is reserved for decode ties.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _received_symbols(spec, text):
    return split_symbols(parse_bits(text), spec.n)


def _emit(text, out):
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise ValueError(f"cannot write output: {exc}") from exc
    else:
        print(text)


def cmd_syndrome(args):
    spec = load_codespec(args.code)
    z = _received_symbols(spec, args.received)
    H = spec.require_H()
    if args.backward:
        fin, seq, name = backward_sigma_fin(H, z), backward_syndromes(H, z), "eta"
    else:
        fin, seq, name = sigma_fin(H, z), tailbiting_syndromes(H, z), "zeta"
    print(f"sigma_fin={format_state(fin)}")
    print(f"{name}={seq}")
    return EXIT_OK


_ERROR_TRELLIS = {
    "error-trellis": build_tailbiting_error_trellis,
    "backward-error-trellis": build_backward_error_trellis,
}


def cmd_trellis(args):
    spec = load_codespec(args.code)
    if args.command == "code-trellis":
        T = build_tailbiting_code_trellis(spec.require_G(), args.N)
    else:
        z = _received_symbols(spec, args.received)
        T = _ERROR_TRELLIS[args.command](spec.require_H(), z)
    highlight = parse_state(args.highlight) if args.highlight else None
    text = to_dot(T, highlight=highlight) if args.format == "dot" else to_json(T)
    _emit(text, args.out)
    return EXIT_OK


_HSCALAR = {"tailbiting": hscalar_tailbiting, "terminated": hscalar_terminated}


def cmd_hscalar(args):
    spec = load_codespec(args.code)
    P = _HSCALAR[args.kind](spec.require_H(), args.N)
    rows, cols = P.matrix.shape
    _emit(f"{format_matrix(P)}\nsize {rows}x{cols} rank {rank(P.matrix)}", args.out)
    return EXIT_OK


def cmd_decode(args):
    spec = load_codespec(args.code)
    z = _received_symbols(spec, args.received)
    res = decode_tailbiting(spec.require_G(), spec.require_H(), z)
    print(format_result(res, spec.n))
    return EXIT_TIE if res.tie else EXIT_OK


def cmd_verify(args):
    spec = load_codespec(args.code)
    results = verify.run_all(spec.require_G(), spec.require_H(), args.N, seed=args.seed, trials=args.trials)
    for name, ok in results:
        print(f"{name}: {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if all(ok for _, ok in results) else EXIT_VERIFY_FAIL


@lru_cache(maxsize=None)
def build_parser():
    """The argument parser, built once per process: ``main`` parses every call with it."""
    parser = _Parser(prog="tbtrellis", description="Tailbiting convolutional code toolbox")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        p.add_argument("--code", required=True, help="code-spec JSON file")
        return p

    p = add("syndrome", cmd_syndrome, "circular syndrome-former state and syndrome sequence")
    p.add_argument("--received", required=True, help="received word bits (grouping optional)")
    p.add_argument("--backward", action="store_true", help="reciprocal run on the reversed word")

    for name in ["code-trellis", *_ERROR_TRELLIS]:
        p = add(name, cmd_trellis, f"build and export the {name.replace('-', ' ')}")
        if name == "code-trellis":
            p.add_argument("-N", type=int, required=True, help="number of trellis sections")
        else:
            p.add_argument("--received", required=True, help="received word bits")
        p.add_argument("--format", choices=["dot", "json"], default="dot")
        p.add_argument("--out", help="write to a file instead of stdout")
        p.add_argument("--highlight", help="subtrellis anchor to render bold, e.g. '(1,0)'")

    p = add("hscalar", cmd_hscalar, "scalar parity-check matrix")
    p.add_argument("-N", type=int, required=True, help="number of trellis sections")
    p.add_argument("--kind", choices=list(_HSCALAR), default="tailbiting")
    p.add_argument("--out", help="write to a file instead of stdout")

    p = add("decode", cmd_decode, "minimum-weight tailbiting decoding")
    p.add_argument("--received", required=True, help="received word bits")

    p = add("verify", cmd_verify, "run every construction against brute-force oracles")
    p.add_argument("-N", type=int, required=True, help="number of trellis sections")
    p.add_argument("--seed", type=int, default=1, help="seed for the randomized suites")
    p.add_argument("--trials", type=int, default=1000, help=f"random trials per suite, at most {MAX_TRIALS}")

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (CodeSpecError, ValueError, AnchorCollisionError, MemoryError, OverflowError) as exc:
        print(f"tbtrellis: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main():
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout again on exit, which would fail the same way: point it at devnull first
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = EXIT_CLOSED
    sys.exit(status)


if __name__ == "__main__":
    console_main()
