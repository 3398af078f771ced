import re
from itertools import product

import numpy as np
import pytest
from test_decoder_contract import CODES

from tbtrellis import (
    backward_error_anchor,
    backward_sigma_fin,
    backward_syndromes,
    build_backward_error_trellis,
    build_tailbiting_error_trellis,
    dual_state_of,
    enc_state_space,
    enumerate_paths,
    error_anchor,
    error_trellis_module,
    eta_from_zeta,
    poly_from_strings,
    reciprocal,
    sf_state_space,
    sf_step,
    sigma_fin,
    tailbiting_syndromes,
)
from tbtrellis.trellis import Edge

from oracle import all_tailbiting, flat, label_bits

ZETA = ((0, 0), (0, 0), (1, 0), (0, 1), (1, 1))
ETA = ((0, 0), (1, 1), (0, 1), (1, 0), (0, 0))


def _rand_word(rng, N, n):
    return [tuple(rng.integers(0, 2, n)) for _ in range(N)]


def test_sigma_fin_reference(H1, received):
    assert sigma_fin(H1, received) == (0, 0)


def test_sigma_fin_zero_word(H1):
    assert sigma_fin(H1, [(0, 0, 0)] * 5) == (0, 0)


def test_sigma_fin_depends_on_last_memory_symbols(H1):
    # with one block of memory only the last symbol matters
    rng = np.random.default_rng(9)
    for _ in range(50):
        z = _rand_word(rng, 4, 3) + [(1, 1, 1)]
        assert sigma_fin(H1, z) == (1, 1)


def test_sigma_fin_rejects_short_words(H2):
    with pytest.raises(ValueError):
        sigma_fin(H2, [(1, 0)])


def test_sigma_fin_checks_every_symbol_then_the_length(H2):
    """A bad symbol anywhere, even in a word shorter than M, is reported before the length."""
    good = [(1, 0)] * 4
    for at in range(4):
        word = good[:at] + [(1, 2)] + good[at + 1 :]
        with pytest.raises(ValueError, match=r"^expected an input symbol of 2 bits in \{0, 1\}, got \(1, 2\)$"):
            sigma_fin(H2, word)
    with pytest.raises(ValueError, match=r"got \(1,\)$"):
        sigma_fin(H2, [(1,)])
    with pytest.raises(ValueError, match="^need at least M=2 received symbols, got 0$"):
        sigma_fin(H2, [])


def test_tailbiting_syndromes_reference(H1, received):
    seq = tailbiting_syndromes(H1, received)
    assert seq.symbols == ZETA
    assert seq.kind == "forward"
    assert str(seq) == "00 00 10 01 11"


def test_tailbiting_syndromes_zero(H1):
    seq = tailbiting_syndromes(H1, [(0, 0, 0)] * 5)
    assert seq.symbols == ((0, 0),) * 5


def test_tailbiting_syndromes_reciprocal(H1, received):
    seq = tailbiting_syndromes(reciprocal(H1), list(reversed(received)))
    assert seq.symbols == ETA


def test_module_contains_expected_edges(H1):
    zero_edges = error_trellis_module(H1, (0, 0))
    assert any(e.src == (0, 0) and e.label == (0, 0, 0) and e.dst == (0, 0) for e in zero_edges)
    ten_edges = error_trellis_module(H1, (1, 0))
    assert any(e.src == (0, 1) and e.label == (1, 1, 0) and e.dst == (0, 1) for e in ten_edges)


def test_module_edge_count(H1):
    # 4 states, and per state the 2^{n-r} = 2 errors whose syndrome matches
    for zeta in ((0, 0), (0, 1), (1, 0), (1, 1)):
        edges = error_trellis_module(H1, zeta)
        assert len(edges) == 8
        by_src = {}
        for e in edges:
            by_src.setdefault(e.src, []).append(e)
        assert all(len(v) == 2 for v in by_src.values())


def test_error_trellis_paths_match_code_subtrellises(G1, g1_coeffs, H1, received):
    """Forward construction soundness/completeness, exhaustively."""
    by_anchor, _ = all_tailbiting(g1_coeffs, 5, 1, 2)
    fin = sigma_fin(H1, received)
    T = build_tailbiting_error_trellis(H1, received)
    zf = flat(received)
    for beta, codewords in by_anchor.items():
        anchor = error_anchor(beta, fin, G1, H1)
        paths = enumerate_paths(T, anchor)
        assert len(paths) == 8
        got = {tuple((a + b) % 2 for a, b in zip(zf, flat(labels))) for labels, _ in paths}
        assert got == {flat(y) for y in codewords}


def test_codeword_input_gives_zero_path(G1, g1_coeffs, H1):
    by_anchor, _ = all_tailbiting(g1_coeffs, 5, 1, 2)
    beta = (1, 1)
    z = list(by_anchor[beta][3])
    fin = sigma_fin(H1, z)
    # a codeword drives the syndrome former into the dual of its own anchor,
    # so the error subtrellis holding e=0 is the one anchored at zero
    assert fin == dual_state_of(G1, H1, beta)
    T = build_tailbiting_error_trellis(H1, z)
    anchor = error_anchor(beta, fin, G1, H1)
    assert anchor == (0, 0)
    zero_path = (((0, 0, 0),) * 5)
    assert zero_path in {p[0] for p in enumerate_paths(T, anchor)}


def test_zero_word_error_trellis(H1):
    T = build_tailbiting_error_trellis(H1, [(0, 0, 0)] * 5)
    assert (((0, 0, 0),) * 5) in {p[0] for p in enumerate_paths(T, (0, 0))}


def test_error_anchor_values(G1, H1):
    assert error_anchor((1, 0), (0, 0), G1, H1) == (1, 0)
    assert error_anchor((0, 0), (1, 1), G1, H1) == (1, 1)
    assert error_anchor((1, 1), (0, 0), G1, H1) == (0, 1)


def test_anchor_map_is_bijective(G1, H1, G2, H2):
    for G, H in ((G1, H1), (G2, H2)):
        fin = (0,) * (H.deg * H.rows)
        anchors = {error_anchor(b, fin, G, H) for b in enc_state_space(G)}
        assert len(anchors) == len(enc_state_space(G))


def test_eta_from_zeta_reference():
    assert eta_from_zeta(ZETA, 1).symbols == (ZETA[0], ZETA[4], ZETA[3], ZETA[2], ZETA[1])
    assert eta_from_zeta(ZETA, 1).symbols == ETA
    assert eta_from_zeta(ZETA, 1).kind == "backward"


def test_eta_from_zeta_constant_sequence():
    seq = ((1, 0),) * 4
    assert eta_from_zeta(seq, 2).symbols == seq


def test_eta_from_zeta_memory_two():
    a, b, c, d = (0, 0), (0, 1), (1, 0), (1, 1)
    assert eta_from_zeta((a, b, c, d), 2).symbols == (b, a, d, c)


def test_eta_from_zeta_rejects_short():
    with pytest.raises(ValueError):
        eta_from_zeta(((0, 0),), 2)


def test_backward_construction_reference(H1, received):
    assert backward_sigma_fin(H1, received) == (0, 0)
    assert backward_syndromes(H1, received).symbols == ETA
    assert backward_syndromes(H1, received).kind == "backward"
    T = build_backward_error_trellis(H1, received)
    assert T.kind == "backward-error"
    assert T.n_sections == 5


def test_backward_construction_zero_word(H1):
    assert backward_syndromes(H1, [(0, 0, 0)] * 5).symbols == ((0, 0),) * 5


def test_backward_error_anchor_values(G1, H1):
    assert backward_error_anchor((1, 0), (0, 0), G1, H1) == (1, 0)
    assert backward_error_anchor((0, 0), (1, 0), G1, H1) == (1, 0)
    assert backward_error_anchor((1, 1), (0, 0), G1, H1) == (0, 1)


def _label_rows(bits, n, step=1):
    """The label sequences of (paths x N*n) label bits as bytes, their N symbols in ``step`` order: -1 reverses them."""
    return {row.tobytes() for row in bits.reshape(len(bits), bits.shape[1] // n, n)[:, ::step].copy()}


@pytest.mark.parametrize("code", ["reference-word", *CODES])
def test_backward_paths_are_reversed_forward_paths(code, G1, H1, received):
    """Per beta, the backward subtrellis at ``backward_error_anchor`` holds the forward one's label sequences, reversed.

    The reference word has 8 in each subtrellis; each pair of ``CODES``
    reads seeded random words of M, M + 1 and M + 2 symbols.
    """
    if code == "reference-word":
        cases = [(G1, H1, received)]
    else:
        (g, h), _ = CODES[code]
        G, H = poly_from_strings(g), poly_from_strings(h)
        rng = np.random.default_rng(31)
        cases = [(G, H, _rand_word(rng, N, H.cols)) for N in range(H.deg, H.deg + 3) for _ in range(2)]
    sizes = []
    for G, H, z in cases:
        fin, fin_t = sigma_fin(H, z), backward_sigma_fin(H, z)
        Tf, Tb = build_tailbiting_error_trellis(H, z), build_backward_error_trellis(H, z)
        for beta in enc_state_space(G):
            fwd = _label_rows(label_bits(Tf, error_anchor(beta, fin, G, H)), H.cols)
            bwd = _label_rows(label_bits(Tb, backward_error_anchor(beta, fin_t, G, H)), H.cols, -1)
            assert fwd == bwd
            sizes.append(len(fwd))
    if code == "reference-word":
        assert sizes == [8] * 4


def test_circular_state_is_fixed_point(H1, H2):
    """Replaying any word from its own final state returns to that state."""
    rng = np.random.default_rng(17)
    from tbtrellis import sf_run

    for H, N in ((H1, 5), (H2, 6)):
        for _ in range(1000):
            z = _rand_word(rng, N, H.cols)
            fin = sigma_fin(H, z)
            final, _ = sf_run(H, fin, z)
            assert final == fin


def test_eta_zeta_correspondence_random(H1, H2):
    rng = np.random.default_rng(23)
    for H, N in ((H1, 5), (H2, 5)):
        for _ in range(1000):
            z = _rand_word(rng, N, H.cols)
            direct = backward_syndromes(H, z)
            reordered = eta_from_zeta(tailbiting_syndromes(H, z), H.deg)
            assert direct.symbols == reordered.symbols


def test_builders_reject_short_words(H1, H2):
    with pytest.raises(ValueError):
        build_tailbiting_error_trellis(H2, [(0, 0)])
    with pytest.raises(ValueError):
        build_backward_error_trellis(H2, [(0, 0)])
    with pytest.raises(ValueError):
        tailbiting_syndromes(H1, [])


# two equal memoryless rows: every symbol emits 00 or 11, never 01 or 10
SILENT_SYMBOLS_H = [["1", "1"], ["1", "1"]]


@pytest.mark.parametrize("h", [h for (_, h), _ in CODES.values()] + [SILENT_SYMBOLS_H])
def test_error_trellis_module_equals_every_syndrome_former_step_emitting_zeta(h):
    """In state, then error-symbol order; a syndrome symbol that no step emits has no edges."""
    H = poly_from_strings(h)
    steps = [(s, e, *sf_step(H, s, e)) for s in sf_state_space(H) for e in product((0, 1), repeat=H.cols)]
    for zeta in product((0, 1), repeat=H.rows):
        expected = [Edge(s, e, nxt) for s, e, nxt, out in steps if out == zeta]
        assert error_trellis_module(H, zeta) == expected
        assert error_trellis_module(H, list(zeta)) == expected
    if h is SILENT_SYMBOLS_H:
        assert error_trellis_module(H, (0, 1)) == error_trellis_module(H, (1, 0)) == []


def test_a_syndrome_sequence_reads_its_symbols_by_index(H1, received):
    zetas = tailbiting_syndromes(H1, received)
    assert [zetas[i] for i in range(len(zetas))] == list(ZETA)
    assert zetas[-1] == (1, 1) and zetas[1:3] == ZETA[1:3]
    assert backward_syndromes(H1, received)[1] == ETA[1]


def test_the_empty_word_of_a_memoryless_h_has_no_syndromes_and_no_trellis():
    H = poly_from_strings([["1", "1"]])
    assert tailbiting_syndromes(H, []).symbols == backward_syndromes(H, []).symbols == ()
    assert sigma_fin(H, []) == ()
    for build in (build_tailbiting_error_trellis, build_backward_error_trellis):
        with pytest.raises(ValueError, match="^a trellis needs at least one section$"):
            build(H, [])


def test_a_word_given_as_an_iterator_reads_as_the_list(H1, received):
    """Also where a bad symbol makes the lookup read the word a second time."""
    for f in (sigma_fin, tailbiting_syndromes, backward_syndromes):
        assert f(H1, iter(received)) == f(H1, received)
        with pytest.raises(ValueError, match=r"got \(2, 0, 0\)$"):
            f(H1, iter([(1, 0, 1), (2, 0, 0), (0, 0, 0)]))


@pytest.mark.parametrize("zeta", [(0, 0, 0), (0,), (2, 0), (1, -1), [0, 0, 0], [2, 0], np.array([0, 0, 0]), np.array([2, 0])])
def test_error_trellis_module_names_a_malformed_syndrome_symbol(H1, zeta):
    shown = tuple(np.asarray(zeta).tolist())
    with pytest.raises(ValueError, match=rf"^expected a syndrome symbol of 2 bits in \{{0, 1\}}, got {re.escape(repr(shown))}$"):
        error_trellis_module(H1, zeta)
    assert len(error_trellis_module(H1, np.array([1, 0]))) == len(error_trellis_module(H1, [1, 0])) == 8
