"""Minimum-weight tailbiting decoding over the error-trellis.

All error subtrellises are searched together in one backward min-plus
pass over the shared error trellis, then the global minimum over the
anchors is traced back: exact maximum-likelihood for hard decisions.
The result is cross-checked against exhaustive search over all
tailbiting codewords.
"""

from itertools import product

import numpy as np

from tbtrellis import (
    decode_tailbiting,
    format_result,
    format_state,
    parse_bits,
    poly_from_strings,
    split_symbols,
    tailbiting_encode,
)

G = poly_from_strings([["1", "101", "111"]])
H = poly_from_strings([["11", "01", "11"], ["01", "1", "1"]])
N = 5

z = split_symbols(parse_bits("111 110 110 111 000"), 3)
res = decode_tailbiting(G, H, z)
print("received:", "111 110 110 111 000")
print(format_result(res, 3))
print("tie between subtrellises:", res.tie)

# Exhaustive cross-check: nearest codeword over all 2^N input words.
codebook = []
for bits in product((0, 1), repeat=N):
    y = tailbiting_encode(G, [(b,) for b in bits])
    codebook.append((bits, [b for sym in y for b in sym]))
zflat = np.array([b for sym in z for b in sym], dtype=np.uint8)
best_u, best_y = min(codebook, key=lambda it: int(np.bitwise_xor(np.array(it[1], np.uint8), zflat).sum()))
dist = int(np.bitwise_xor(np.array(best_y, np.uint8), zflat).sum())
print()
print("exhaustive search: distance", dist, "input word", best_u)
print("decoder and exhaustive search agree:", tuple(best_y) == res.codeword)

# Random channel errors: flip a couple of bits and decode back.
rng = np.random.default_rng(1)
correct = 0
trials = 200
for _ in range(trials):
    bits = tuple(rng.integers(0, 2, N))
    y = tailbiting_encode(G, [(b,) for b in bits])
    flat = np.array([b for sym in y for b in sym], dtype=np.uint8)
    noisy = flat.copy()
    for pos in rng.choice(15, size=2, replace=False):
        noisy[pos] ^= 1
    out = decode_tailbiting(G, H, split_symbols(noisy, 3))
    correct += out.codeword == tuple(int(b) for b in flat)
print()
print(f"two random bit flips corrected in {correct}/{trials} trials")
print("(the code's minimum distance is 6, so two flips always decode back)")
