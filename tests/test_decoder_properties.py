"""Property test: the decoder against the exhaustive codebook on random dual pairs.

A rate-1/2 pair is G = [h2, h1], H = [h1, h2] with polynomials of degree
at most 4, so G(D) H(D)^T = h2 h1 + h1 h2 = 0.  Pairs whose encoder states
collide on one error-subtrellis anchor are dropped.  A rate-k/(k+1) pair,
k = 1, 2, 3, is H = [h_1 ... h_n] with G rows g_j = h_j e_1 + h_1 e_j;
where its states collide, the CLI must fail with one error line.  Decoding
commutes with time reversal: the reversed word under the reciprocal pair
has the same weight and ``tie``.
Hypothesis runs derandomized, so the examples are the same in every run.
"""

import contextlib
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tbtrellis import AnchorCollisionError, decode_tailbiting, decode_tailbiting_batch, poly_from_strings
from tbtrellis.cli import main
from tbtrellis.error_trellis import TABLE_BUDGET, _search_tables

from oracle import circ_encode, coeffs_from_strings, flat, tailbiting_codebook
from test_decoder_contract import CODES

# nonzero polynomials of degree <= 4, bit i the coefficient of D^i
POLYNOMIAL = st.integers(1, 31)


def lsb_first(mask):
    return format(mask, "b")[::-1]


def draw_word(draw, g, k, N):
    """N symbols of uniform random bits, or of a codeword of g with up to three bits flipped."""
    n = g[0].shape[1]
    if draw(st.booleans()):
        bits = draw(st.lists(st.integers(0, 1), min_size=n * N, max_size=n * N))
    else:
        u = draw(st.lists(st.integers(0, 1), min_size=k * N, max_size=k * N))
        bits = list(flat(circ_encode(g, [tuple(u[k * t : k * t + k]) for t in range(N)])))
        for i in draw(st.lists(st.integers(0, n * N - 1), max_size=3)):
            bits[i] ^= 1
    return [tuple(bits[n * t : n * t + n]) for t in range(N)]


@st.composite
def pair_and_word(draw):
    h1, h2 = lsb_first(draw(POLYNOMIAL)), lsb_first(draw(POLYNOMIAL))
    g_strings, h_strings = [[h2, h1]], [[h1, h2]]
    G, H = poly_from_strings(g_strings), poly_from_strings(h_strings)
    N = draw(st.integers(max(H.deg, 1), 2 * G.deg + 3))
    g = coeffs_from_strings(g_strings)
    return G, H, g, draw_word(draw, g, 1, N)


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


@st.composite
def k_input_pair_and_word(draw):
    """An r = 1 pair with k = 1, 2 or 3 inputs, h of degree <= 2, and a word of N symbols, N*k <= 15."""
    k = draw(st.integers(1, 3))
    h = [lsb_first(draw(st.integers(1, 7))) for _ in range(k + 1)]
    g_strings = [[h[j]] + [h[0] if c == j else "0" for c in range(1, k + 1)] for j in range(1, k + 1)]
    G, H = poly_from_strings(g_strings), poly_from_strings([h])
    N = draw(st.sampled_from([N for N in sorted({max(H.deg, 1), G.deg, G.deg + 1}) if N and N * k <= 15]))
    g = coeffs_from_strings(g_strings)
    spec = {"n": k + 1, "k": k, "G": g_strings, "H": [h]}
    return spec, G, H, g, draw_word(draw, g, k, N)


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@settings(derandomize=True, max_examples=150, deadline=None)
@given(k_input_pair_and_word())
def test_k_input_pairs_decode_to_a_nearest_codeword_or_exit_one(case):
    spec, G, H, g, z = case
    try:
        res = decode_tailbiting(G, H, z)
    except AnchorCollisionError as exc:
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "code.json")
            with open(path, "w") as fh:
                json.dump(spec, fh)
            received = "".join(map(str, flat(z)))
            for argv in (["decode", "--received", received], ["verify", "-N", str(len(z))]):
                assert run_cli(argv[0], "--code", path, *argv[1:]) == (1, "", f"tbtrellis: error: {exc}\n")
        return
    check_nearest(tailbiting_codebook(g, len(z), spec["k"]), z, res)


# memoryless pairs whose merged tables the label space bounds: one state, so 2^(r*m) keys would allow m = 12
# for H = [1 1]; a rate-5/6 H of six ones, with G rows e_1 + e_j, has 6-bit symbols
LABEL_BOUND_PAIRS = [
    ([["1", "1"]], [["1", "1"]]),
    ([["1"] + ["1" if c == j else "0" for c in range(1, 6)] for j in range(1, 6)], [["1"] * 6]),
]


@pytest.mark.parametrize("g_strings, h_strings", LABEL_BOUND_PAIRS)
def test_memoryless_pairs_merge_within_the_label_space_and_decode_to_a_nearest_codeword(g_strings, h_strings):
    """m keeps the 2^(n*m) labels within ``TABLE_BUDGET``; lengths m - 1, m, m + 1, 2m + 1 where the codebook is small."""
    G, H = poly_from_strings(g_strings), poly_from_strings(h_strings)
    m, k, n = _search_tables(H).m, len(g_strings), H.cols
    assert 2 ** (n * m) <= TABLE_BUDGET < 2 ** (n * (m + 1))
    g, rng = coeffs_from_strings(g_strings), np.random.default_rng(43)
    for N in sorted({N for N in (1, m - 1, m, m + 1, 2 * m + 1) if N >= 1 and N * k <= 15}):
        words = [[tuple(row) for row in word] for word in rng.integers(0, 2, (8, N, n)).tolist()]
        results = decode_tailbiting_batch(G, H, words)
        assert results == [decode_tailbiting(G, H, z) for z in words]
        codebook = tailbiting_codebook(g, N, k)
        for z, res in zip(words, results):
            check_nearest(codebook, z, res)


@st.composite
def code_and_word(draw):
    """A pair of ``CODES`` and a word of N symbols, M <= N <= M + 5 and N <= 12."""
    name = draw(st.sampled_from(sorted(CODES)))
    (g_strings, h_strings), _ = CODES[name]
    G, H = poly_from_strings(g_strings), poly_from_strings(h_strings)
    low = max(H.deg, 1)
    g = coeffs_from_strings(g_strings)
    return G, H, g, draw_word(draw, g, 1, draw(st.integers(low, min(low + 5, 12))))


@settings(derandomize=True, max_examples=120, deadline=None)
@given(st.one_of(code_and_word(), pair_and_word()))
def test_decoding_commutes_with_reversal(case):
    """The reversed word under (G~, H~) decodes to the same weight and ``tie``; a unique nearest codeword, reversed.

    Inside one subtrellis each direction breaks a tie by its own
    lexicographic order, so the codewords are compared only where the
    exhaustive codebook holds one nearest codeword.  A random pair whose
    anchors collide is dropped; its reciprocal may not collide, as with a
    common factor D, which the reciprocal drops.
    """
    G, H, g, z = case
    try:
        res = decode_tailbiting(G, H, z)
    except AnchorCollisionError:
        assume(False)
    back = decode_tailbiting(G.reciprocal(), H.reciprocal(), z[::-1])
    assert (back.weight, back.tie) == (res.weight, res.tie)
    n, N = H.cols, len(z)
    distances = (tailbiting_codebook(g, N, 1) != np.array(flat(z), dtype=np.uint8)).sum(axis=1)
    if (distances == res.weight).sum() == 1:
        symbols = [res.codeword[n * t : n * t + n] for t in range(N)]
        assert back.codeword == flat(symbols[::-1])
