import numpy as np
import pytest

from tbtrellis import (
    build_tailbiting_error_trellis,
    decode_tailbiting,
    error_anchor,
    format_result,
    hscalar_tailbiting,
    is_tailbiting_codeword,
    min_weight_path,
    parse_bits,
    poly_from_strings,
    sf_run,
    sigma_fin,
    split_symbols,
    tailbiting_syndromes,
)

from oracle import all_tailbiting, flat, hamming

# frozen from exhaustive search over the 8 paths of each subtrellis
BEST_PER_ANCHOR = {
    (0, 0): (2, "000 000 100 100 000"),
    (1, 0): (4, "100 001 000 010 010"),
    (0, 1): (6, "010 100 010 001 101"),
    (1, 1): (6, "001 100 010 110 100"),
}


def test_min_weight_path_per_anchor(H1, received):
    T = build_tailbiting_error_trellis(H1, received)
    for anchor, (weight, bits) in BEST_PER_ANCHOR.items():
        labels, w = min_weight_path(T, anchor)
        assert w == weight
        assert labels == tuple(split_symbols(parse_bits(bits), 3))


def test_min_weight_path_beats_enumeration(H1, received):
    from tbtrellis import enumerate_paths

    T = build_tailbiting_error_trellis(H1, received)
    for anchor in T.anchors:
        labels, w = min_weight_path(T, anchor)
        best = min((sum(flat(p[0])), p[0]) for p in enumerate_paths(T, anchor))
        assert (w, labels) == best


def test_min_weight_path_missing_anchor(H1, received):
    T = build_tailbiting_error_trellis(H1, received)
    with pytest.raises(ValueError):
        min_weight_path(T, (0, 1, 0))


def test_zero_weight_on_codeword(G1, g1_coeffs, H1):
    by_anchor, _ = all_tailbiting(g1_coeffs, 5, 1, 2)
    z = list(by_anchor[(1, 0)][5])
    fin = sigma_fin(H1, z)
    T = build_tailbiting_error_trellis(H1, z)
    labels, w = min_weight_path(T, error_anchor((1, 0), fin, G1, H1))
    assert w == 0
    assert all(not any(s) for s in labels)


def test_decode_reference_word(G1, H1, received):
    res = decode_tailbiting(G1, H1, received)
    assert res.weight == 2
    assert res.codeword == tuple(int(c) for c in "111110010011000")
    assert res.error == tuple(int(c) for c in "000000100100000")
    assert res.anchor_beta == (0, 0)
    assert res.anchor_sigma == (0, 0)
    assert not res.tie
    assert format_result(res, 3) == (
        "weight=2 anchor_beta=(0,0) anchor_sigma=(0,0) "
        "e=000 000 100 100 000 y=111 110 010 011 000"
    )


def test_a_result_is_the_named_tuple_of_its_fields(G1, H1, received):
    """Its repr names the fields in order, and it hashes and compares as the plain tuple of them."""
    res = decode_tailbiting(G1, H1, received)
    fields = (res.codeword, res.error, 2, (0, 0), (0, 0), False)
    assert res == fields and hash(res) == hash(fields)
    names = ("codeword", "error", "weight", "anchor_beta", "anchor_sigma", "tie")
    assert repr(res) == "DecodeResult(" + ", ".join(f"{k}={v!r}" for k, v in zip(names, fields)) + ")"
    with pytest.raises(AttributeError):
        res.weight = 0


def test_decode_codeword_is_fixed_point(G1, g1_coeffs, H1):
    by_anchor, _ = all_tailbiting(g1_coeffs, 5, 1, 2)
    for beta, words in by_anchor.items():
        z = list(words[0])
        res = decode_tailbiting(G1, H1, z)
        assert res.weight == 0
        assert res.codeword == flat(z)
        assert not res.tie


def test_decode_corrects_single_flips(G1, g1_coeffs, H1):
    """Any single bit flip lands back on the original codeword (d_min = 6)."""
    by_anchor, flat_words = all_tailbiting(g1_coeffs, 5, 1, 2)
    rng = np.random.default_rng(41)
    for _ in range(100):
        row = flat_words[rng.integers(0, len(flat_words))]
        pos = int(rng.integers(0, 15))
        z = row.copy()
        z[pos] ^= 1
        res = decode_tailbiting(G1, H1, split_symbols(z, 3))
        assert res.weight == 1
        assert res.codeword == tuple(int(b) for b in row)


def test_decode_matches_exhaustive_oracle(G1, g1_coeffs, H1):
    """1000 random words: decoder weight equals the exhaustive minimum
    distance; unique minima also match the codeword."""
    _, flat_words = all_tailbiting(g1_coeffs, 5, 1, 2)
    rng = np.random.default_rng(43)
    P = hscalar_tailbiting(H1, 5)
    fin_cache = {}
    for _ in range(1000):
        z = rng.integers(0, 2, 15).astype(np.uint8)
        res = decode_tailbiting(G1, H1, split_symbols(z, 3))
        dists = np.bitwise_xor(flat_words, z).sum(axis=1)
        assert res.weight == int(dists.min())
        if int((dists == dists.min()).sum()) == 1:
            assert res.codeword == tuple(int(b) for b in flat_words[int(dists.argmin())])
            assert not res.tie
        # structural validity of the result
        assert is_tailbiting_codeword(P, res.codeword)
        assert res.codeword == tuple((a + b) % 2 for a, b in zip(z, res.error))
        zsyms = split_symbols(z, 3)
        fin = sigma_fin(H1, zsyms)
        assert res.anchor_sigma == error_anchor(res.anchor_beta, fin, G1, H1)
        # the error is a tailbiting syndrome-former path for z's syndromes
        final, zetas = sf_run(H1, res.anchor_sigma, split_symbols(res.error, 3))
        assert final == res.anchor_sigma
        assert tuple(zetas) == tailbiting_syndromes(H1, zsyms).symbols


def test_decode_reports_ties(G1, g1_coeffs, H1):
    """The tie flag is set exactly when two subtrellises reach the minimum."""
    by_anchor, _ = all_tailbiting(g1_coeffs, 5, 1, 2)
    dist_by_anchor = lambda z: {
        beta: min(hamming(flat(y), z) for y in ys) for beta, ys in by_anchor.items()
    }
    rng = np.random.default_rng(47)
    seen_tie = False
    for _ in range(300):
        z = rng.integers(0, 2, 15).astype(np.uint8)
        res = decode_tailbiting(G1, H1, split_symbols(z, 3))
        mins = dist_by_anchor(z)
        best = min(mins.values())
        assert res.weight == best
        assert res.tie == (sum(1 for v in mins.values() if v == best) > 1)
        if res.tie:
            seen_tie = True
            assert decode_tailbiting(G1, H1, split_symbols(z, 3)) == res
    assert seen_tie, "expected at least one tie among 300 random words"


def test_decode_rejects_short_words(G2, H2):
    with pytest.raises(ValueError):
        decode_tailbiting(G2, H2, [(0, 0)])


def test_decode_diagnoses_anchor_collisions():
    # generator rows of unequal degree leave dead register cells, so the
    # uniform register layout maps two encoder states to one anchor
    G = poly_from_strings([["1", "0", "01"], ["0", "1", "1"]])
    H = poly_from_strings([["01", "1", "1"]])
    with pytest.raises(RuntimeError):
        decode_tailbiting(G, H, split_symbols([1, 1, 1, 0, 0, 0], 3))
