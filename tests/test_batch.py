"""The block forms of the syndrome former, the syndromes, membership and decoding.

Each per-word function is a block of one over its ``_batch`` form; these
tests hold every block form to the per-word result or to the tuple fold
``sf_run``, and pin the input contract and the memory bound.
"""

import re
import tracemalloc

import numpy as np
import pytest
from oracle import coeffs_from_strings
from test_decoder_contract import CODES, K7_STRINGS, PRUNED, low_noise_words

import tbtrellis.decoder as decoder
import tbtrellis.verify as verify
from tbtrellis import (
    backward_syndromes,
    backward_syndromes_batch,
    decode_tailbiting,
    decode_tailbiting_batch,
    hscalar_tailbiting,
    is_tailbiting_codeword,
    is_tailbiting_codeword_batch,
    poly_from_strings,
    sf_run,
    sf_step,
    sf_step_batch,
    sf_zero_state,
    sigma_fin,
    sigma_fin_batch,
    tailbiting_encode,
    tailbiting_syndromes,
    tailbiting_syndromes_batch,
)
from tbtrellis.error_trellis import _search_tables
from tbtrellis.state_machines import LinearMachine, syndrome_former, unpack


def _code(name):
    (g, h), _ = CODES[name]
    return poly_from_strings(g), poly_from_strings(h)


def _lengths(G, H):
    """Lengths around the memories, and 2m and 2m + 1: two runs of m symbols a word, without and with a single one."""
    m = _search_tables(H).m
    lengths = H.deg, G.deg - 1, G.deg, G.deg + 1, 2 * G.deg + 3, 2 * m, 2 * m + 1
    return sorted({N for N in lengths if N >= max(H.deg, 1)})


def _block(rng, count, N, n):
    return [[tuple(int(b) for b in rng.integers(0, 2, n)) for _ in range(N)] for _ in range(count)]


@pytest.mark.parametrize("name", sorted(CODES))
def test_block_decode_equals_the_per_word_decodes(name):
    G, H = _code(name)
    rng = np.random.default_rng(61)
    ties = 0
    for N in _lengths(G, H):
        words = _block(rng, 8 if name == "k7" else 60, N, H.cols)
        block = decode_tailbiting_batch(G, H, words)
        assert block == [decode_tailbiting(G, H, z) for z in words], N
        ties += sum(res.tie for res in block)
    assert ties, "expected a tie"


def test_block_decode_of_low_noise_k7_words_equals_the_per_word_decodes():
    G, H = (poly_from_strings(s) for s in K7_STRINGS)
    assert decoder._automaton(H) is None
    words = low_noise_words(40, 17)
    assert decode_tailbiting_batch(G, H, np.array(words)) == [decode_tailbiting(G, H, z) for z in words]


@pytest.mark.parametrize("blocks, extra", [(3, 5), (2, 1)])
@pytest.mark.parametrize("name", ["ref", "mem2", "H0-zero"])
def test_block_decode_does_not_depend_on_the_blocking(monkeypatch, name, blocks, extra):
    """Full blocks and a last one of ``extra`` words, one word among them, equal blocks of one."""
    G, H = _code(name)
    S = len(_search_tables(H).states)
    size = decoder.BLOCK_BUDGET // S
    assert size > 1
    words = np.random.default_rng(67).integers(0, 2, (blocks * size + extra, 7, H.cols))
    whole = decode_tailbiting_batch(G, H, words)
    order = np.random.default_rng(71).permutation(len(words))
    assert [whole[i] for i in order] == decode_tailbiting_batch(G, H, words[order])
    half = len(words) // 2
    assert decode_tailbiting_batch(G, H, words[:half]) + decode_tailbiting_batch(G, H, words[half:]) == whole
    monkeypatch.setattr(decoder, "BLOCK_BUDGET", S)
    assert decode_tailbiting_batch(G, H, words) == whole


@pytest.mark.parametrize("name", PRUNED)
def test_a_pruned_block_is_searched_on_its_symbol_integers(monkeypatch, name):
    """A block of a code with no metric automaton, of one word or 70, and the verifier's arrays of it decode with no
    word read back as symbol tuples (``in_tuples``) or decoded alone (``_Pair.decode``), to the one-word results."""
    (g, h), _ = CODES[name]
    G, H = _code(name)
    assert decoder._automaton(H) is None
    words = low_noise_words(70, 71, N=12, p=0.06, strings=(g, h))
    expected = [decode_tailbiting(G, H, z) for z in words]
    monkeypatch.setattr(decoder._Pair, "decode", lambda *args: pytest.fail("a word was decoded alone"))
    monkeypatch.setattr(LinearMachine, "in_tuples", property(lambda self: pytest.fail("a symbol was read as a tuple")))
    assert decode_tailbiting_batch(G, H, words) == expected
    assert decode_tailbiting_batch(G, H, words[:1]) == expected[:1]
    weight, _, tie = decoder._decode_arrays(G, H, words)
    assert weight.tolist() == [res.weight for res in expected] and tie.tolist() == [res.tie for res in expected]


def test_decode_blocks_hold_the_block_budget_of_walks(monkeypatch):
    """1,100 reference words decode in blocks of 1,024 and 76 words, 4,096 walks of 4 anchors per step; the
    16-state code, which has no automaton, hands no block of several words to ``_decode_block``."""
    lengths, real = [], decoder._decode_block
    monkeypatch.setattr(decoder, "_decode_block", lambda tables, block, *a: lengths.append(len(block)) or real(tables, block, *a))
    rng = np.random.default_rng(79)
    G, H = _code("ref")
    assert len(decode_tailbiting_batch(G, H, rng.integers(0, 2, (1100, 5, H.cols)))) == 1100
    assert lengths == [1024, 76]
    lengths.clear()
    G, H = _code("16-state")
    assert len(decode_tailbiting_batch(G, H, rng.integers(0, 2, (20, 6, H.cols)))) == 20
    assert lengths == []


@pytest.mark.parametrize("name", ["ref", "mem2", "H0-zero"])
def test_block_keys_equal_the_dense_product_of_the_syndromes(monkeypatch, name):
    """At N = M..M+2m+1, the step keys a block of a code with an automaton walks, (steps x words), equal the dense
    (steps x N) matrix that puts each symbol's syndrome at its place in its step's key times the (N x words)
    syndromes, plus 2^(r*m) on each single symbol's step."""
    G, H = _code(name)
    assert decoder._automaton(H) is not None
    sf, m, r = syndrome_former(H), _search_tables(H).m, H.rows
    blocks, real = [], decoder._decode_block

    def recording(tables, block, rows, keys, *args):
        blocks.append((block, keys))
        return real(tables, block, rows, keys, *args)

    monkeypatch.setattr(decoder, "_decode_block", recording)
    rng = np.random.default_rng(89)
    for N in range(max(H.deg, 1), max(H.deg, 1) + 2 * m + 2):
        blocks.clear()
        decode_tailbiting_batch(G, H, rng.integers(0, 2, (3, N, H.cols)))
        ((block, keys),) = blocks
        runs, cut = N // m, N - N % m
        places = np.zeros((N, runs + N - cut), dtype=np.intp)
        for t in range(N):
            places[t, t // m if t < cut else runs + t - cut] = 1 << r * (m - 1 - t % m) if t < cut else 1
        first = np.array([0] * runs + [1 << r * m] * (N - cut))
        assert keys.tolist() == (places.T @ sf.circular(block)[1].T + first[:, None]).tolist(), N


@pytest.mark.parametrize("name", ["ref", "mem2", "H0-zero"])
def test_every_field_of_a_decode_block_equals_the_one_word_decode(name):
    """At N = M..M+5, on a block of 200 uniform words, in which ties are common, and on a block of one word, each
    word's entry of every ``_Block`` field equals ``_Pair.decode`` of the word: the codeword and error symbols as
    bits, the weight, the anchor and sigma states, and the tie flag; the tie count is the number of code subtrellises
    whose nearest codeword lies at the word's distance from the code."""
    G, H = _code(name)
    pair, rng, ties = decoder._pair(G, H), np.random.default_rng(103), 0
    assert pair.automaton is not None
    for N in range(max(H.deg, 1), max(H.deg, 1) + 6):
        words = rng.integers(0, 2, (200, N, H.cols))
        _, syms, starts = verify._codeword_table(G, N)
        for block in (words, words[:1]):
            (out,) = decoder._blocks(pair, block)
            results = [pair.decode(z) for z in block]
            for field in ("codeword", "error"):
                bits = unpack(getattr(out, field), H.cols).reshape(len(block), -1)
                assert bits.tolist() == [list(getattr(res, field)) for res in results], (N, field)
            assert out.weight.tolist() == [res.weight for res in results], N
            assert [pair.betas[a] for a in out.anchor.tolist()] == [res.anchor_beta for res in results], N
            assert [pair.tables.states[s] for s in out.sigma.tolist()] == [res.anchor_sigma for res in results], N
            assert (out.ties > 1).tolist() == [res.tie for res in results], N
            dists = np.bitwise_count(pair.sf.symbol_ints(block, 2)[:, None] ^ syms).sum(axis=2)
            nearest = np.minimum.reduceat(dists, starts, axis=1)
            assert out.ties.tolist() == (nearest == out.weight[:, None]).sum(axis=1).tolist(), N
            ties += (out.ties > 1).sum()
    assert ties > 100


def test_a_two_word_block_at_n_8000_stays_within_8_mb():
    """A block's keys and label places take memory linear in N: two uniform reference-code words at N = 8,000 decode
    within 8 MB, where a dense (N x steps) matrix of places alone would take 122 MiB."""
    G, H = _code("ref")
    words = np.random.default_rng(97).integers(0, 2, (2, 8000, H.cols))
    decode_tailbiting_batch(G, H, words[:, :16])  # fills the per-code caches
    tracemalloc.start()
    try:
        results = decode_tailbiting_batch(G, H, words)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak
    assert [res.weight for res in results] == [decode_tailbiting(G, H, z).weight for z in words]


def _arrays_of(results, n):
    """The weight, codeword and tie fields of a list of ``DecodeResult``s, as arrays, each codeword's n-bit symbols
    read as integers, the first bit most significant."""
    bits = np.array([res.codeword for res in results]).reshape(len(results), -1, n)
    return (
        np.array([res.weight for res in results]),
        (bits << np.arange(n - 1, -1, -1)).sum(axis=2),
        np.array([res.tie for res in results]),
    )


def _assert_arrays_equal(got, want):
    for field, a, b in zip(("weight", "codeword", "tie"), got, want):
        assert a.shape == b.shape and a.dtype.kind == b.dtype.kind and (a == b).all(), field


def test_decode_arrays_of_every_reference_word_equal_the_decode_results(G1, H1):
    """All 2^15 words at N = 5, in full decode blocks of 1,024 and a block of one."""
    N = 5
    words = ((np.arange(2 ** (N * 3))[:, None] >> np.arange(N * 3 - 1, -1, -1)) & 1).astype(np.uint8)
    words = words.reshape(-1, N, 3)
    results = decode_tailbiting_batch(G1, H1, words)
    assert sum(res.tie for res in results) > 1000
    _assert_arrays_equal(decoder._decode_arrays(G1, H1, words), _arrays_of(results, 3))
    _assert_arrays_equal(decoder._decode_arrays(G1, H1, words[-1:]), _arrays_of(results[-1:], 3))


@pytest.mark.parametrize("name, N", [("32-state", 5), ("k7", 7), ("16-state", 6)])
def test_decode_arrays_of_a_pruned_code_equal_the_decode_results(name, N):
    """Blocks searched a word at a time, read from their arrays."""
    G, H = _code(name)
    assert decoder._automaton(H) is None
    words = np.random.default_rng(89).integers(0, 2, (150, N, H.cols))
    results = decode_tailbiting_batch(G, H, words)
    assert any(res.tie for res in results)
    _assert_arrays_equal(decoder._decode_arrays(G, H, words), _arrays_of(results, H.cols))


@pytest.mark.parametrize("name", sorted(CODES))
def test_block_syndromes_and_sigma_fin_equal_the_tuple_fold(name):
    G, H = _code(name)
    Ht = H.reciprocal()
    rng = np.random.default_rng(73)
    for N in range(H.deg, 2 * G.deg + 4):
        words = rng.integers(0, 2, (20, N, H.cols))
        fins, zetas = sigma_fin_batch(H, words), tailbiting_syndromes_batch(H, words)
        etas = backward_syndromes_batch(H, words)
        assert fins.shape == (20, H.deg * H.rows) and zetas.shape == etas.shape == (20, N, H.rows)
        # sigma_fin is a tuple fold of its own, on symbol tuples and on array rows
        assert [sigma_fin(H, z) for z in words] == [tuple(fin) for fin in fins.tolist()]
        for z, fin, zeta, eta in zip(words.tolist(), fins.tolist(), zetas.tolist(), etas.tolist()):
            z = [tuple(s) for s in z]
            start = sf_run(H, sf_zero_state(H), z)[0]
            assert sf_run(H, start, z) == (tuple(fin), [tuple(s) for s in zeta])
            reverse = z[::-1]
            assert sf_run(Ht, sf_run(Ht, sf_zero_state(Ht), reverse)[0], reverse)[1] == [tuple(s) for s in eta]
            assert sigma_fin(H, z) == tuple(fin)
            assert tailbiting_syndromes(H, z).symbols == tuple(tuple(s) for s in zeta)
            assert backward_syndromes(H, z).symbols == tuple(tuple(s) for s in eta)


def test_block_steps_and_membership_equal_the_per_word_forms(H1):
    rng = np.random.default_rng(79)
    sigmas, es = rng.integers(0, 2, (64, 2)), rng.integers(0, 2, (64, 3))
    nxt, zeta = sf_step_batch(H1, sigmas, es)
    assert [(tuple(a), tuple(b)) for a, b in zip(nxt.tolist(), zeta.tolist())] == [
        sf_step(H1, tuple(s), tuple(e)) for s, e in zip(sigmas.tolist(), es.tolist())
    ]
    P = hscalar_tailbiting(H1, 5)
    codewords = [[int(c) for c in "111110010011000"], [0] * 15]
    words = np.concatenate([rng.integers(0, 2, (200, 15)), codewords])
    members = is_tailbiting_codeword_batch(P, words)
    assert members.tolist() == [is_tailbiting_codeword(P, y) for y in words.tolist()]
    assert members[-2:].all()


def _entry_points(G, H):
    """(per-word, block) pairs of the functions that take received words."""
    return [
        (lambda z: decode_tailbiting(G, H, z), lambda words: decode_tailbiting_batch(G, H, words)),
        (lambda z: sigma_fin(H, z), lambda words: sigma_fin_batch(H, words)),
        (lambda z: tailbiting_syndromes(H, z), lambda words: tailbiting_syndromes_batch(H, words)),
    ]


@pytest.mark.parametrize(
    "bad, shown", [((1, 2, 0), "(1, 2, 0)"), ((1, 0), "(1, 0)"), (1, "(1,)"), (np.array([1, 2, 0]), "(1, 2, 0)")]
)
def test_entry_points_name_the_first_bad_symbol(G1, H1, bad, shown):
    message = rf"^expected an input symbol of 3 bits in \{{0, 1\}}, got {re.escape(shown)}$"
    word = [(1, 0, 1), bad, (2, 2, 2), (0, 0), (1, 1, 1)]
    for one, block in _entry_points(G1, H1):
        with pytest.raises(ValueError, match=message):
            one(word)
        # also a one-shot block, or one-shot words, after a good word or before one: each is read once
        for words in ([[(0, 0, 0)] * 5, word], [word, [(0, 0, 0)] * 5]):
            for form in (words, iter(words), [iter(z) for z in words]):
                with pytest.raises(ValueError, match=message):
                    block(form)


BAD_SYMBOL = r"expected an input symbol of 3 bits in \{0, 1\}, got "


def test_block_entry_points_check_arrays(G1, H1):
    words = np.zeros((3, 5, 3), dtype=np.int64)
    words[1, 2], words[2, 0] = (0, 2, 1), (2, 0, 0)
    for one, block in _entry_points(G1, H1):
        with pytest.raises(ValueError, match=r"got \(0, 2, 1\)$"):
            block(words)
        with pytest.raises(ValueError, match=r"got \(0, 0\)$"):
            block(np.zeros((2, 5, 2), dtype=np.uint8))
        # an array word, alone, in a list or as a block, shows its bad symbol as a tuple of ints too
        for call in (lambda: one(words[1]), lambda: block([words[1], words[1]]), lambda: block(words[1][None])):
            with pytest.raises(ValueError, match=rf"^{BAD_SYMBOL}\(0, 2, 1\)$"):
                call()
        with pytest.raises(ValueError, match=r"got \(0, 0\)$"):
            one(np.zeros((5, 2), dtype=np.uint8))
        assert one(words[0]) == one([(0, 0, 0)] * 5)
    # so do a step of the syndrome former and tailbiting encoding
    with pytest.raises(ValueError, match=rf"^{BAD_SYMBOL}\(0, 2, 1\)$"):
        sf_step(H1, (0, 0), words[1, 2])
    with pytest.raises(ValueError, match=r"^expected an input symbol of 1 bits in \{0, 1\}, got \(2,\)$"):
        tailbiting_encode(G1, np.array([[1], [2], [0]]))


@pytest.mark.parametrize("strings", [K7_STRINGS, ([["1", "1"]], [["1", "1"]])])
def test_decode_names_an_empty_word_ahead_of_a_short_one(strings):
    """The empty word fails as having no section, also where M > 0 would call it short."""
    G, H = (poly_from_strings(s) for s in strings)
    for decode in (lambda z: decode_tailbiting(G, H, z), lambda z: decode_tailbiting_batch(G, H, [z])):
        with pytest.raises(ValueError, match="^a trellis needs at least one section$"):
            decode([])
        if H.deg:
            with pytest.raises(ValueError, match=rf"^need at least M={H.deg} received symbols, got 3$"):
                decode([(1, 0)] * 3)
            with pytest.raises(ValueError, match=r"got \(2, 0\)$"):
                decode([(1, 0), (2, 0)])


def test_a_block_of_words_of_unequal_length_is_rejected(G1, H1):
    with pytest.raises(ValueError, match="differ in length"):
        decode_tailbiting_batch(G1, H1, [[(0, 0, 0)] * 5, [(0, 0, 0)] * 4])
    assert decode_tailbiting_batch(G1, H1, []) == []


def test_a_block_of_no_words_gives_empty_arrays(H1):
    """sigma_fin (0 x M*r) and the syndromes, forward and backward (0 x 0 x r), as ``decode_tailbiting_batch`` gives
    []; a block of one empty word, and one empty word alone, still read as short."""
    empty = sigma_fin_batch(H1, []), tailbiting_syndromes_batch(H1, []), backward_syndromes_batch(H1, [])
    assert [(a.shape, a.dtype) for a in empty] == [((0, 2), np.uint8), ((0, 0, 2), np.uint8), ((0, 0, 2), np.uint8)]
    for call in (sigma_fin_batch, tailbiting_syndromes_batch, backward_syndromes_batch):
        with pytest.raises(ValueError, match=r"^need at least M=1 received symbols, got 0$"):
            call(H1, [[]])
    with pytest.raises(ValueError, match=r"^need at least M=1 received symbols, got 0$"):
        sigma_fin(H1, [])


def test_a_list_of_array_words_equals_the_array_and_tuple_blocks(G1, H1):
    """Equal-shape 0/1 words stack into one array; anything else keeps its messages."""
    words = np.random.default_rng(89).integers(0, 2, (40, 6, 3))
    tuples = [[tuple(symbol) for symbol in word] for word in words.tolist()]
    for _, block in _entry_points(G1, H1):
        listed = block(list(words))
        # a one-shot block of arrays or of one-shot words is read as its list
        for other in (block(words), block(tuples), block(iter(words)), block(iter(tuples)), block([iter(z) for z in tuples])):
            assert (listed == other) if isinstance(listed, list) else np.array_equal(listed, other)
        bad = words[:3].copy()
        bad[1, 2] = (0, 2, 1)
        with pytest.raises(ValueError, match=rf"^{BAD_SYMBOL}\(0, 2, 1\)$"):
            block(list(bad))
        with pytest.raises(ValueError, match="^the words of a block differ in length$"):
            block([words[0], words[1][:5]])
    assert decode_tailbiting(G1, H1, words[0]) == decode_tailbiting(G1, H1, tuples[0])


def test_block_steps_take_lists_of_state_and_symbol_tuples(H1):
    rng = np.random.default_rng(101)
    sigmas, es = rng.integers(0, 2, (16, 2)), rng.integers(0, 2, (16, 3))
    listed = sf_step_batch(H1, [tuple(s) for s in sigmas.tolist()], [tuple(e) for e in es.tolist()])
    for a, b in zip(listed, sf_step_batch(H1, sigmas, es)):
        assert np.array_equal(a, b)
    with pytest.raises(ValueError, match=r"^expected a state of 2 bits in \{0, 1\}, got \(1, 2\)$"):
        sf_step_batch(H1, [(0, 1), (1, 2)], [(1, 0, 1), (0, 1, 1)])
    # one-shot sequences are read once, so a bad symbol is named, not skipped
    for a, b in zip(listed, sf_step_batch(H1, iter(sigmas.tolist()), (tuple(e) for e in es.tolist()))):
        assert np.array_equal(a, b)
    with pytest.raises(ValueError, match=rf"^{BAD_SYMBOL}\(1, 2, 1\)$"):
        sf_step_batch(H1, [(0, 1), (1, 1)], iter([(1, 2, 1), (1, 1, 1)]))
    # one state per symbol: one state is not broadcast over two symbols, and a bad symbol is named ahead of the lengths
    for sigmas, es in (([(0, 1)], [(1, 1, 1), (0, 0, 1)]), ([(0, 1), (1, 1)], [(1, 1, 1), (0, 0, 1), (1, 0, 0)])):
        with pytest.raises(ValueError, match=rf"^expected one state per symbol, got {len(sigmas)} states and {len(es)} symbols$"):
            sf_step_batch(H1, sigmas, es)
    with pytest.raises(ValueError, match=rf"^{BAD_SYMBOL}\(1, 2, 1\)$"):
        sf_step_batch(H1, [(0, 1)], [(1, 2, 1), (1, 1, 1)])


def test_block_decode_of_2000_k7_words_stays_within_8_mb():
    G, H = (poly_from_strings(s) for s in K7_STRINGS)
    rng = np.random.default_rng(83)
    u = rng.integers(0, 2, (2000, 48), dtype=np.uint8)
    # circular convolution of each input row with the generator, then a BSC with p = 0.03
    words = sum(np.roll(u, i, axis=1)[..., None] * g[0] for i, g in enumerate(coeffs_from_strings(K7_STRINGS[0]))) % 2
    flips = (rng.random(words.shape) < 0.03).astype(np.uint8)
    words ^= flips
    decode_tailbiting(G, H, words[0])  # fills the per-code caches
    tracemalloc.start()
    try:
        results = decode_tailbiting_batch(G, H, words)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak
    assert results[:20] == [decode_tailbiting(G, H, z) for z in words[:20]]
    assert all(res.weight <= f for res, f in zip(results, flips.sum(axis=(1, 2)).tolist()))
