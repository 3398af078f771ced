"""The benchmark's workloads: seeded inputs, the call into tbtrellis, output checks.

Inputs and checks are computed from the code's coefficient strings alone,
never through tbtrellis, so a wrong decoder cannot vouch for its own
output.  A word is held as an int whose bit i is flat code bit i
(symbol t, position j is bit t*n + j).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = json.loads((HERE / "expected.json").read_text())
# The warm-up decode is the word's first symbols: enough for every subtrellis
# of both codes (N >= L) and for the per-code caches, without paying a
# full-length decode in set-up.
WARMUP_SYMBOLS = 8
VERIFY_SUITES = (
    "superposition",
    "zero-syndrome-traversal",
    "subtrellis-set-equality",
    "eta-zeta-correspondence",
    "hscalar-membership",
    "decoder-oracle",
)


def coefficients(strings):
    """Coefficient matrices C_0..C_deg of a polynomial matrix given by LSB-first strings."""
    deg = max(len(s) for row in strings for s in row) - 1
    return [[[int(s[i]) if i < len(s) else 0 for s in row] for row in strings] for i in range(deg + 1)]


def to_bits(x, width):
    return [(x >> i) & 1 for i in range(width)]


def to_int(bits):
    return sum(int(b) << i for i, b in enumerate(bits))


class Code:
    """A rate-k/n code read from a code-spec JSON file, with circular-convolution helpers."""

    def __init__(self, path, N):
        spec = json.loads(Path(path).read_text())
        self.n, self.k, self.N = spec["n"], spec["k"], N
        self.G = coefficients(spec["G"])
        self.H = coefficients(spec["H"])
        self.bits = self.N * self.n
        # codeword of each unit input (time t, input q), in order t*k + q
        self.basis = [
            to_int(self.encode([[int(s == t and j == q) for j in range(self.k)] for s in range(self.N)]))
            for t in range(self.N)
            for q in range(self.k)
        ]

    def encode(self, u):
        """Tailbiting codeword y_t = sum_i u_{(t-i) mod N} G_i, as flat bits."""
        y = []
        for t in range(self.N):
            for j in range(self.n):
                b = 0
                for i, Gi in enumerate(self.G):
                    ut = u[(t - i) % self.N]
                    for q in range(self.k):
                        b ^= ut[q] & Gi[q][j]
                y.append(b)
        return y

    def encode_int(self, u_int):
        """Codeword of the N*k input bits in u_int (bit t*k + q is input q at time t)."""
        y = 0
        for i, b in enumerate(self.basis):
            if (u_int >> i) & 1:
                y ^= b
        return y

    def parity_ok(self, y_int):
        """True iff sum_m y_{(t-m) mod N} H_m^T is zero at every t."""
        n, N = self.n, self.N
        syms = [to_bits(y_int >> (t * n), n) for t in range(N)]
        for t in range(N):
            for q in range(len(self.H[0])):
                s = 0
                for m, Hm in enumerate(self.H):
                    ys = syms[(t - m) % N]
                    for j in range(n):
                        s ^= ys[j] & Hm[q][j]
                if s:
                    return False
        return True

    def all_codewords(self):
        """Every tailbiting codeword as a uint64, by spanning the unit-input basis."""
        table = np.zeros(1, dtype=np.uint64)
        for b in self.basis:
            table = np.concatenate([table, table ^ np.uint64(b)])
        return table

    def symbols(self, x):
        """The word as N n-bit tuples, the form tbtrellis takes."""
        bits = to_bits(x, self.bits)
        return [tuple(bits[t * self.n : (t + 1) * self.n]) for t in range(self.N)]


def _line_digest(line):
    return hashlib.sha256(line.encode()).hexdigest()[:16]


class DecodeWorkload:
    """Closed-loop decode_tailbiting calls on pre-generated received words."""

    kind = "decode"

    def __init__(self, name, code_path, N, p, pool, min_ops, trace_ops):
        self.name, self.code_path, self.N, self.p = name, code_path, N, p
        self.pool, self.min_ops, self.trace_ops = pool, min_ops, trace_ops
        self.code = None
        self.table = None

    def load(self):
        self.code = Code(self.code_path, self.N)
        if self.p is None:
            self.table = self.code.all_codewords()

    @property
    def bits_per_op(self):
        return self.code.bits

    def make_ops(self, seed, count):
        """Received words and injected flip counts, from a generator seeded by (workload, seed)."""
        rng = random.Random(f"{self.name}:{seed}")
        code = self.code
        ops = []
        for _ in range(count):
            if self.p is None:
                ops.append((rng.getrandbits(code.bits), None))
                continue
            y = code.encode_int(rng.getrandbits(code.N * code.k))
            flips = [int(rng.random() < self.p) for _ in range(code.bits)]
            ops.append((y ^ to_int(flips), sum(flips)))
        return ops

    def prepare(self, op):
        return self.code.symbols(op[0])

    def probe_args(self, op):
        bits = format(op[0], f"0{self.code.bits}b")[::-1]
        return ["decode", self.code_path, bits[: WARMUP_SYMBOLS * self.code.n]]

    def warmup(self, tb, spec, op):
        self.call(tb, spec, self.prepare(op)[:WARMUP_SYMBOLS])

    def call(self, tb, spec, arg):
        return tb.decoder.decode_tailbiting(spec.G, spec.H, arg)

    def summarize(self, res):
        return res.weight, to_int(res.codeword), res.tie

    def recorded_failures(self, tb, spec):
        """Decode the words of the seed in expected.json whose format_result digests are recorded.

        Returns (words decoded, words whose call raised or whose line differs).
        """
        expected = EXPECTED["line_sha256"][self.name]
        failed = 0
        for i, op in enumerate(self.make_ops(EXPECTED["seed"], len(expected))):
            try:
                line = tb.decoder.format_result(self.call(tb, spec, self.prepare(op)), self.code.n)
            except Exception:
                line = None
            failed += not self.line_ok(i, line)
        return len(expected), failed

    def line_ok(self, index, line):
        return line is not None and _line_digest(line) == EXPECTED["line_sha256"][self.name][index]

    def check(self, op, summary):
        """True iff the decode result of the word in ``op`` passes every output check."""
        if summary is None:
            return False
        z, flips = op
        weight, y, tie = summary
        code = self.code
        if not code.parity_ok(y) or weight != (z ^ y).bit_count():
            return False
        if flips is not None and weight > flips:
            return False
        if self.table is not None:
            d = np.bitwise_count(self.table ^ np.uint64(z))
            best = int(d.min())
            if weight != best:
                return False
            if int((d == best).sum()) == 1 and (tie or y != int(self.table[int(d.argmin())])):
                return False
        return True


class VerifyWorkload:
    """In-process ``tbtrellis verify`` CLI calls, one randomized-suite seed per call."""

    kind = "verify"

    def __init__(self, name, code_path, N, trials, pool, min_ops, trace_ops):
        self.name, self.code_path, self.N, self.trials = name, code_path, N, trials
        self.pool, self.min_ops, self.trace_ops = pool, min_ops, trace_ops
        self.code = None

    def load(self):
        self.code = Code(self.code_path, self.N)

    @property
    def bits_per_op(self):
        # the received-word bits the decoder-oracle suite decodes in one call
        return self.code.bits * self.trials

    def make_ops(self, seed, count):
        rng = random.Random(f"{self.name}:{seed}")
        return [rng.randrange(2**31) for _ in range(count)]

    def argv(self, s, trials=None):
        return ["verify", "--code", self.code_path, "-N", str(self.N), "--seed", str(s)] + (
            ["--trials", str(trials)] if trials is not None else []
        )

    def prepare(self, op):
        return self.argv(op)

    def probe_args(self, op):
        return ["verify", self.code_path, str(self.N), str(op)]

    def warmup(self, tb, spec, op):
        # one trial per randomized suite, as in probe.py
        self.call(tb, spec, self.argv(op, trials=1))

    def call(self, tb, spec, arg):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = tb.cli.main(arg)
        return rc, out.getvalue()

    def summarize(self, res):
        return res

    def recorded_failures(self, tb, spec):
        return 0, 0

    def check(self, op, summary):
        if summary is None:
            return False
        rc, text = summary
        return rc == 0 and text.splitlines() == [f"{s}: PASS" for s in VERIFY_SUITES]


REF_CODE = str(ROOT / "demos" / "example_code.json")
K7_CODE = str(HERE / "codes" / "k7.json")

WORKLOADS = {
    w.name: w
    for w in (
        DecodeWorkload("decode-k7-lownoise", K7_CODE, N=48, p=0.03, pool=2000, min_ops=1, trace_ops=6),
        DecodeWorkload("decode-ref-uniform", REF_CODE, N=16, p=None, pool=20000, min_ops=1000, trace_ops=300),
        VerifyWorkload("verify-ref-cli", REF_CODE, N=5, trials=1000, pool=200, min_ops=1, trace_ops=1),
    )
}
