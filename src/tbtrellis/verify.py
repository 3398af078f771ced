"""Self-verification suites: every construction against a brute-force oracle.

All suites work at desk scale (exhaustive enumeration of the 2^(Nk)
tailbiting codewords, which ``run_all`` encodes once and hands to the
suites that need them) and are deterministic given a seed.  They back the
``verify`` CLI command; the same properties are frozen individually in
the test suite.

A randomized suite draws all of its trials in one
``rng.integers(0, 2, size=(trials, width))`` call when it starts, the
fields of a trial laid side by side in a row.  An int64 draw consumes
the generator one value at a time, so the rows hold exactly the bits
that one small ``rng.integers(0, 2, size=w)`` call per field and trial
would give, and every function under test receives the same words for
the same seed.  Because the whole draw comes first, a suite that fails
early leaves the generator past all of its trials: after a FAIL the
suites that follow see other words than a field-by-field draw would
give them.  A run in which every suite passes is unaffected.

The decoder-oracle suite compares the words with the exhaustive codeword
table in blocks of trials, as many as keep the packed (trials x
codewords x bytes) distance array within ``DISTANCE_BLOCK`` elements.
"""

from __future__ import annotations

from itertools import accumulate, product

import numpy as np

from .decoder import decode_tailbiting
from .error_trellis import (
    backward_syndromes,
    build_tailbiting_error_trellis,
    error_anchor,
    eta_from_zeta,
    sigma_fin,
    tailbiting_syndromes,
)
from .scalar_parity import hscalar_tailbiting, is_tailbiting_codeword
from .state_machines import (
    dual_state_of,
    sf_run,
    sf_step,
    tailbiting_anchor,
    tailbiting_encode,
    xor_states,
)
from .trellis import enumerate_paths

EXHAUSTIVE_BITS = 20
DISTANCE_BLOCK = 1 << 12


def _split(bits, widths):
    """Rows of a 0/1 array, one at a time, each cut into bit tuples of ``widths``."""
    cuts = list(accumulate(widths, initial=0))
    spans = list(zip(cuts, cuts[1:]))
    for row in bits:
        row = row.tolist()
        yield [tuple(row[a:b]) for a, b in spans]


def _bits(rng, trials, width):
    """``trials`` rows of ``width`` random bits from one generator call, kept as uint8.

    The draw itself is int64, the dtype that consumes the generator one
    value at a time.
    """
    return rng.integers(0, 2, size=(trials, width)).astype(np.uint8)


def _draw(rng, trials, widths):
    """Draw every trial at once; yield each as a list of bit tuples of ``widths``."""
    return _split(_bits(rng, trials, sum(widths)), widths)


def _codeword_table(G, N):
    """All tailbiting codewords, bucketed by anchor and flattened to rows."""
    k = G.rows
    by_anchor = {}
    flat = []
    for bits in product((0, 1), repeat=N * k):
        u = [bits[i * k : (i + 1) * k] for i in range(N)]
        y = tailbiting_encode(G, u)
        by_anchor.setdefault(tailbiting_anchor(G, u), []).append(y)
        flat.append([b for sym in y for b in sym])
    return by_anchor, np.array(flat, dtype=np.uint8)


def suite_superposition(H, rng, trials=1000):
    """Transitions add: the syndrome former is linear in (state, input)."""
    M, r, n = H.deg, H.rows, H.cols
    for s1, s2, e1, e2 in _draw(rng, trials, [M * r, M * r, n, n]):
        n1, z1 = sf_step(H, s1, e1)
        n2, z2 = sf_step(H, s2, e2)
        ns, zs = sf_step(H, xor_states(s1, s2), xor_states(e1, e2))
        if ns != xor_states(n1, n2) or zs != xor_states(z1, z2):
            return False
    return True


def suite_zero_syndrome(G, H, by_anchor):
    """Codewords traverse the syndrome former from their dual anchor silently."""
    for beta, words in by_anchor.items():
        start = dual_state_of(G, H, beta)
        for y in words:
            final, zetas = sf_run(H, start, y)
            if final != start or any(any(z) for z in zetas):
                return False
    return True


def suite_set_equality(G, H, N, by_anchor, rng, words=5):
    """Error subtrellis paths shifted by z equal the matching code subtrellis."""
    for z in _draw(rng, words, [H.cols] * N):
        fin = sigma_fin(H, z)
        T = build_tailbiting_error_trellis(H, z)
        for beta, codewords in by_anchor.items():
            anchor = error_anchor(beta, fin, G, H)
            shifted = {
                tuple(xor_states(zs, es) for zs, es in zip(z, labels))
                for labels, _ in enumerate_paths(T, anchor)
            }
            if shifted != {tuple(y) for y in codewords}:
                return False
    return True


def suite_eta_zeta(H, N, rng, trials=1000):
    """Backward syndromes equal the reindexed forward syndromes."""
    for z in _draw(rng, trials, [H.cols] * N):
        direct = backward_syndromes(H, z)
        reordered = eta_from_zeta(tailbiting_syndromes(H, z), H.deg)
        if direct.symbols != reordered.symbols:
            return False
    return True


def suite_hscalar_membership(H, N, flat, rng, trials=1000):
    """Matrix membership == zero syndrome sequence == exhaustive codeword set."""
    n = H.cols
    draws = _draw(rng, trials, [N * n])
    codewords = {tuple(row) for row in flat.tolist()}
    P = hscalar_tailbiting(H, N)
    for y in codewords:
        if not is_tailbiting_codeword(P, y):
            return False
    for (w,) in draws:
        in_matrix = is_tailbiting_codeword(P, w)
        zetas = tailbiting_syndromes(H, [w[i * n : (i + 1) * n] for i in range(N)])
        zero_syndrome = not any(any(z) for z in zetas)
        if in_matrix != zero_syndrome or in_matrix != (w in codewords):
            return False
    return True


def suite_decoder_oracle(G, H, N, flat, rng, trials=1000):
    """Decoder weight equals the exhaustive minimum distance, every time."""
    n = H.cols
    words = _bits(rng, trials, N * n)
    table = np.packbits(flat, axis=1)
    per_block = max(1, DISTANCE_BLOCK // table.size)
    for start in range(0, trials, per_block):
        block = words[start : start + per_block]
        packed = np.packbits(block, axis=1)
        dists = np.bitwise_count(packed[:, None, :] ^ table).sum(axis=2, dtype=np.int32)
        best = dists.min(axis=1)
        unique = (dists == best[:, None]).sum(axis=1) == 1
        nearest = flat[dists.argmin(axis=1)]
        checks = zip(_split(block, [n] * N), best.tolist(), unique.tolist(), nearest.tolist())
        for z, weight, one, y in checks:
            res = decode_tailbiting(G, H, z)
            if res.weight != weight or (one and tuple(y) != res.codeword):
                return False
    return True


def run_all(G, H, N, seed=1, trials=1000):
    """Run every suite; returns [(name, passed)] in a fixed order."""
    if N < 1:
        raise ValueError(f"N must be at least 1, got {N}")
    if N < H.deg:
        raise ValueError(f"-N {N} is below M={H.deg}, the memory of H")
    if trials < 0:
        raise ValueError(f"trials must be at least 0, got {trials}")
    if N * G.rows > EXHAUSTIVE_BITS:
        raise ValueError(f"N*k = {N * G.rows} exceeds the exhaustive bound {EXHAUSTIVE_BITS}")
    rng = np.random.default_rng(seed)
    by_anchor, flat = _codeword_table(G, N)
    return [
        ("superposition", suite_superposition(H, rng, trials)),
        ("zero-syndrome-traversal", suite_zero_syndrome(G, H, by_anchor)),
        ("subtrellis-set-equality", suite_set_equality(G, H, N, by_anchor, rng)),
        ("eta-zeta-correspondence", suite_eta_zeta(H, N, rng, trials)),
        ("hscalar-membership", suite_hscalar_membership(H, N, flat, rng, trials)),
        ("decoder-oracle", suite_decoder_oracle(G, H, N, flat, rng, trials)),
    ]
