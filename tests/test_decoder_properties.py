"""Property test: the decoder against the exhaustive codebook on random rate-1/2 dual pairs.

A pair is G = [h2, h1], H = [h1, h2] with polynomials of degree at most 4,
so G(D) H(D)^T = h2 h1 + h1 h2 = 0.  Pairs whose encoder states collide
on one error-subtrellis anchor are dropped.  Hypothesis runs derandomized,
so the examples are the same in every run.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tbtrellis import AnchorCollisionError, decode_tailbiting, decode_tailbiting_batch, poly_from_strings

from oracle import circ_encode, coeffs_from_strings, flat, tailbiting_codebook

# nonzero polynomials of degree <= 4, bit i the coefficient of D^i
POLYNOMIAL = st.integers(1, 31)


def lsb_first(mask):
    return format(mask, "b")[::-1]


@st.composite
def pair_and_word(draw):
    h1, h2 = lsb_first(draw(POLYNOMIAL)), lsb_first(draw(POLYNOMIAL))
    g_strings, h_strings = [[h2, h1]], [[h1, h2]]
    G, H = poly_from_strings(g_strings), poly_from_strings(h_strings)
    N = draw(st.integers(max(H.deg, 1), 2 * G.deg + 3))
    g = coeffs_from_strings(g_strings)
    if draw(st.booleans()):
        bits = draw(st.lists(st.integers(0, 1), min_size=2 * N, max_size=2 * N))
    else:
        u = [(b,) for b in draw(st.lists(st.integers(0, 1), min_size=N, max_size=N))]
        bits = list(flat(circ_encode(g, u)))
        for i in draw(st.lists(st.integers(0, 2 * N - 1), max_size=3)):
            bits[i] ^= 1
    return G, H, g, [tuple(bits[2 * t : 2 * t + 2]) for t in range(N)]


@st.composite
def pair_and_words(draw):
    """A pair and word of ``pair_and_word``, with up to five more random words of its length."""
    G, H, g, z = draw(pair_and_word())
    bits = st.lists(st.integers(0, 1), min_size=2 * len(z), max_size=2 * len(z))
    more = [[tuple(w[2 * t : 2 * t + 2]) for t in range(len(z))] for w in draw(st.lists(bits, max_size=5))]
    return G, H, g, [z, *more]


def check_nearest(codebook, z, res):
    distances = (codebook != np.array(flat(z), dtype=np.uint8)).sum(axis=1)
    best = distances.min()
    assert res.weight == best
    assert sum(res.error) == best
    assert tuple(a ^ b for a, b in zip(flat(z), res.error)) == res.codeword
    assert (codebook == np.array(res.codeword, dtype=np.uint8)).all(axis=1).any()
    if (distances == best).sum() == 1:
        assert res.codeword == tuple(codebook[distances.argmin()].tolist())


@settings(derandomize=True, max_examples=150, deadline=None)
@given(pair_and_word())
def test_decode_is_nearest_codeword(case):
    G, H, g, z = case
    try:
        res = decode_tailbiting(G, H, z)
    except AnchorCollisionError:
        assume(False)
    check_nearest(tailbiting_codebook(g, len(z), 1), z, res)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(pair_and_words())
def test_block_decode_is_nearest_codeword_word_by_word(case):
    G, H, g, words = case
    try:
        results = decode_tailbiting_batch(G, H, words)
    except AnchorCollisionError:
        assume(False)
    codebook = tailbiting_codebook(g, len(words[0]), 1)
    assert len(results) == len(words)
    for z, res in zip(words, results):
        check_nearest(codebook, z, res)
