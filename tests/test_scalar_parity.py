from itertools import product

import numpy as np
import pytest

from tbtrellis import (
    annotate_blocks,
    format_matrix,
    hscalar_tailbiting,
    hscalar_terminated,
    is_tailbiting_codeword,
    nullspace,
    poly_from_strings,
    rank,
    sf_state_space,
    tailbiting_syndromes,
)
from tbtrellis.scalar_parity import ScalarParity, is_tailbiting_codeword_batch

from oracle import all_tailbiting, bitset_rank, flat, syndromes, term_encode


def test_terminated_single_section_stacks_coefficients(H1):
    P = hscalar_terminated(H1, 1)
    assert P.kind == "terminated"
    assert P.matrix.shape == (4, 3)
    assert np.array_equal(P.matrix, np.array([[1, 0, 1], [0, 1, 1], [1, 1, 1], [1, 0, 0]]))


def test_terminated_annihilates_flushed_codewords(H1, g1_coeffs):
    # five information symbols plus two flush zeros make a 7-section word
    P = hscalar_terminated(H1, 7)
    assert P.matrix.shape == (16, 21)
    for bits in product((0, 1), repeat=5):
        u = [(b,) for b in bits] + [(0,), (0,)]
        y = np.array(flat(term_encode(g1_coeffs, u)), dtype=np.uint8)
        assert not ((P.matrix.astype(int) @ y) % 2).any()


def test_terminated_zero_codeword(H1):
    P = hscalar_terminated(H1, 3)
    assert not ((P.matrix.astype(int) @ np.zeros(9, dtype=int)) % 2).any()


def test_terminated_rejects_nonpositive_sections(H1):
    with pytest.raises(ValueError):
        hscalar_terminated(H1, 0)


def test_tailbiting_matrix_shape_and_wrap(H1):
    P = hscalar_tailbiting(H1, 5)
    assert P.kind == "tailbiting"
    assert P.matrix.shape == (10, 15)
    assert P.block_dims == (2, 3)
    # first block row: H0 at block 0, wrapped H1 at block 4
    top = P.matrix[:2]
    assert np.array_equal(top[:, :3], np.array([[1, 0, 1], [0, 1, 1]]))
    assert np.array_equal(top[:, 12:], np.array([[1, 1, 1], [1, 0, 0]]))
    assert not top[:, 3:12].any()


def test_tailbiting_rank(H1):
    P = hscalar_tailbiting(H1, 5)
    assert rank(P.matrix) == 10
    assert bitset_rank(P.matrix) == 10


def test_tailbiting_rejects_short(H2):
    with pytest.raises(ValueError):
        hscalar_tailbiting(H2, 1)


def test_all_codewords_in_null_space(H1, g1_coeffs):
    P = hscalar_tailbiting(H1, 5)
    _, flat_words = all_tailbiting(g1_coeffs, 5, 1, 2)
    assert flat_words.shape == (32, 15)
    for y in flat_words:
        assert is_tailbiting_codeword(P, y)
    # the null space is exactly the code: 2^(15-10) = 32 words
    assert len({tuple(row) for row in flat_words}) == 2 ** (15 - rank(P.matrix))


def test_random_non_codewords_fail(H1, g1_coeffs):
    P = hscalar_tailbiting(H1, 5)
    _, flat_words = all_tailbiting(g1_coeffs, 5, 1, 2)
    codewords = {tuple(int(b) for b in row) for row in flat_words}
    rng = np.random.default_rng(31)
    checked = 0
    while checked < 1000:
        w = tuple(int(b) for b in rng.integers(0, 2, 15))
        if w in codewords:
            continue
        assert not is_tailbiting_codeword(P, w)
        checked += 1


def test_known_membership_calls(H1):
    P = hscalar_tailbiting(H1, 5)
    assert is_tailbiting_codeword(P, [int(c) for c in "111110010011000"])
    assert not is_tailbiting_codeword(P, [int(c) for c in "111110110111000"])
    assert is_tailbiting_codeword(P, [0] * 15)
    with pytest.raises(ValueError):
        is_tailbiting_codeword(P, [0] * 14)
    with pytest.raises(ValueError):
        is_tailbiting_codeword(hscalar_terminated(H1, 5), [0] * 15)


def test_membership_equivalent_to_zero_syndromes(H1, g1_coeffs):
    """Matrix membership, all-zero circular syndromes and exhaustive
    encoding agree on every word tested."""
    P = hscalar_tailbiting(H1, 5)
    _, flat_words = all_tailbiting(g1_coeffs, 5, 1, 2)
    codewords = {tuple(int(b) for b in row) for row in flat_words}
    rng = np.random.default_rng(37)
    samples = [tuple(int(b) for b in rng.integers(0, 2, 15)) for _ in range(1000)]
    samples += sorted(codewords)
    for w in samples:
        symbols = [w[i : i + 3] for i in range(0, 15, 3)]
        zero_syndrome = not any(any(z) for z in tailbiting_syndromes(H1, symbols))
        assert is_tailbiting_codeword(P, w) == zero_syndrome == (w in codewords)


def test_cyclic_shift_preserves_membership(H1, g1_coeffs):
    P = hscalar_tailbiting(H1, 5)
    _, flat_words = all_tailbiting(g1_coeffs, 5, 1, 2)
    for row in flat_words:
        shifted = np.roll(row, 3)
        assert is_tailbiting_codeword(P, shifted)


def test_rank_nullity_and_null_space_vectors(H1, g1_coeffs):
    P = hscalar_tailbiting(H1, 5)
    basis = nullspace(P.matrix)
    assert rank(P.matrix) + basis.shape[0] == 15
    _, flat_words = all_tailbiting(g1_coeffs, 5, 1, 2)
    codewords = {tuple(int(b) for b in row) for row in flat_words}
    for v in basis:
        assert tuple(int(b) for b in v) in codewords


def test_sections_equal_memory_sums_coinciding_blocks(H2, g2_coeffs):
    # N = M: the diagonal H_M lands on the wrapped H_M; contributions add
    P = hscalar_tailbiting(H2, 2)
    assert P.matrix.shape == (2, 4)
    # H0+H2 = (1,1)+(1,1) = 0, so blocks on the diagonal vanish and H1 wraps
    assert np.array_equal(P.matrix, np.array([[0, 0, 1, 0], [1, 0, 0, 0]]))
    _, flat_words = all_tailbiting(g2_coeffs, 2, 1, 2)
    for y in flat_words:
        assert is_tailbiting_codeword(P, y)
    assert len({tuple(r) for r in flat_words}) == 2 ** (4 - rank(P.matrix))


def test_format_matrix(H1):
    text = format_matrix(hscalar_terminated(H1, 1))
    assert text.splitlines() == ["101", "011", "111", "100"]


def test_annotate_blocks(H1, H2):
    tail = annotate_blocks(H1, 5, kind="tailbiting").splitlines()
    assert tail[0].split() == ["H0", ".", ".", ".", "H1"]
    assert tail[1].split() == ["H1", "H0", ".", ".", "."]
    assert tail[4].split() == [".", ".", ".", "H1", "H0"]
    term = annotate_blocks(H1, 1, kind="terminated").splitlines()
    assert term == ["H0", "H1"]
    summed = annotate_blocks(H2, 2, kind="tailbiting").splitlines()
    assert summed[0].split() == ["H0+H2", "H1"]
    with pytest.raises(ValueError):
        annotate_blocks(H1, 5, kind="banded")


def test_tailbiting_syndromes_equal_matrix_product_with_pinned_cells():
    """Exhaustively, the circular syndromes are the rows of H_scalar times y,
    for parity checks whose memoryless rows pin state cells to zero."""
    for strings in ([["11", "01", "1"], ["1", "1", "0"]], [["111", "101", "0"], ["0", "1", "1"]]):
        H = poly_from_strings(strings)
        assert len(sf_state_space(H)) < 2 ** (H.deg * H.rows)
        for N in range(H.deg, 5):
            P = hscalar_tailbiting(H, N)
            for bits in product((0, 1), repeat=N * 3):
                y = np.array(bits, dtype=np.uint8)
                zetas = tailbiting_syndromes(H, [bits[i : i + 3] for i in range(0, len(bits), 3)])
                assert flat(zetas) == tuple(int(b) for b in (P.matrix.astype(int) @ y) % 2)
                assert is_tailbiting_codeword(P, y) == (not any(flat(zetas)))


@pytest.mark.parametrize("kind, build", [("tailbiting", hscalar_tailbiting), ("terminated", hscalar_terminated)])
def test_each_block_is_the_sum_of_the_coefficients_annotate_blocks_names(H1, H2, kind, build):
    """The names follow the block rule, written out: m = i - j (mod N when tailbiting)."""
    for H, N in ((H1, 1), (H1, 4), (H2, 2), (H2, 3), (H2, 6)):
        coeffs = H.coefficient_list()
        r, n = H.rows, H.cols
        grid = [row.split() for row in annotate_blocks(H, N, kind=kind).splitlines()]
        P = build(H, N).matrix
        assert P.shape == (len(grid) * r, N * n)
        for i, row in enumerate(grid):
            assert len(row) == N
            for j, token in enumerate(row):
                if kind == "tailbiting":
                    held = [m for m in range(H.deg + 1) if (i - j - m) % N == 0]
                else:
                    held = [i - j] if 0 <= i - j <= H.deg else []
                assert token == ("+".join(f"H{m}" for m in held) or "."), (kind, N, i, j)
                want = np.zeros((r, n), dtype=np.uint8)
                for name in token.split("+") if token != "." else []:
                    want ^= coeffs[int(name[1:])]
                assert np.array_equal(P[i * r : (i + 1) * r, j * n : (j + 1) * n], want), (kind, N, i, j)


def test_memoryless_code_rejects_zero_sections_in_every_kind():
    H = poly_from_strings([["1", "1"]])
    for build in (hscalar_tailbiting, hscalar_terminated):
        with pytest.raises(ValueError, match="need N >= 1 sections"):
            build(H, 0)
    for kind in ("tailbiting", "terminated"):
        with pytest.raises(ValueError, match="need N >= 1 sections"):
            annotate_blocks(H, 0, kind=kind)


@pytest.mark.parametrize("build", [hscalar_tailbiting, hscalar_terminated])
def test_scalar_matrices_are_read_only_uint8(H1, H2, build):
    for H, N in ((H1, 1), (H1, 5), (H2, 2)):
        P = build(H, N).matrix
        assert P.dtype == np.uint8 and not P.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            P[0, 0] = 1


@pytest.mark.parametrize("width", [63, 64, 65, 128, 300])
def test_membership_equals_a_mod_2_integer_product(width):
    """Seeded check matrices and words of one to five lanes, with codewords drawn from the null space, the all-ones word,
    and the dense all-ones check row, whose sums reach the width (past 255 at 300): the lane kernel's answer is the oracle's int64 product mod 2
    being zero.  A block of no words gives no answers."""
    rng = np.random.default_rng(width)
    matrix = rng.integers(0, 2, (width // 3, width), dtype=np.uint8)
    basis = nullspace(matrix)
    codewords = rng.integers(0, 2, (40, len(basis))).astype(np.uint8) @ basis & 1
    words = np.vstack([codewords, rng.integers(0, 2, (60, width)), np.ones((1, width))]).astype(np.uint8)
    for check in (matrix, np.ones((1, width), dtype=np.uint8)):
        P = ScalarParity(check, "tailbiting", width, (len(check), 1))
        members = is_tailbiting_codeword_batch(P, words)
        assert members.dtype == bool and members.tolist() == (~syndromes(check, words).any(axis=1)).tolist()
        assert is_tailbiting_codeword_batch(P, words[:0]).shape == (0,)
    assert is_tailbiting_codeword_batch(ScalarParity(matrix, "tailbiting", width, (len(matrix), 1)), codewords).all()
    assert (words.astype(int) @ np.ones(width, dtype=int)).max() == width
