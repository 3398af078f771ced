from itertools import product

import numpy as np
import pytest

from tbtrellis import (
    PolyMatrix,
    as_bits,
    coefficient_expansion,
    format_bits,
    format_state,
    mat_mul,
    nullspace,
    parse_bits,
    parse_state,
    poly_from_strings,
    rank,
    reciprocal,
    split_symbols,
)

from oracle import bitset_rank, echelon_nullspace, poly_mul, poly_rank, row_echelon


def test_poly_from_strings_rate13(G1):
    assert G1.rows == 1 and G1.cols == 3
    assert G1.deg == 2
    expected = [[[1, 1, 1]], [[0, 0, 1]], [[0, 1, 1]]]
    for got, want in zip(coefficient_expansion(G1), expected):
        assert np.array_equal(got, np.array(want))


def test_poly_from_strings_parity(H1):
    assert (H1.rows, H1.cols, H1.deg) == (2, 3, 1)
    C = coefficient_expansion(H1)
    assert np.array_equal(C[0], np.array([[1, 0, 1], [0, 1, 1]]))
    assert np.array_equal(C[1], np.array([[1, 1, 1], [1, 0, 0]]))


def test_poly_from_strings_zero():
    Z = poly_from_strings([["0"]])
    assert Z.is_zero() and Z.deg == 0
    assert len(coefficient_expansion(Z)) == 1


def test_poly_from_strings_rejects_ragged():
    with pytest.raises(ValueError):
        poly_from_strings([["1", "1"], ["1"]])


@pytest.mark.parametrize("rows", [[], [[]]])
def test_poly_from_strings_rejects_empty_rows(rows):
    with pytest.raises(ValueError, match="empty matrix"):
        poly_from_strings(rows)


@pytest.mark.parametrize(
    "coeffs, message",
    [
        ([], "need at least one coefficient matrix"),
        ([np.ones(3)], "coefficient matrices must be two-dimensional"),
        ([np.ones((1, 2, 3))], "coefficient matrices must be two-dimensional"),
        ([np.ones((2, 3)), np.ones((3, 2))], "coefficient matrices must share dimensions"),
    ],
)
def test_poly_matrix_rejects_bad_coefficient_lists(coeffs, message):
    with pytest.raises(ValueError, match=message):
        PolyMatrix(coeffs)


@pytest.mark.parametrize("name", ["entries", "deg", "other"])
def test_poly_matrix_attributes_cannot_be_assigned(H1, name):
    with pytest.raises(AttributeError, match="PolyMatrix is immutable"):
        setattr(H1, name, 0)
    assert H1.deg == 1 and H1.to_strings() == [["11", "01", "11"], ["01", "1", "1"]]


def test_poly_from_strings_rejects_bad_characters():
    with pytest.raises(ValueError):
        poly_from_strings([["1", "1x1"]])
    with pytest.raises(ValueError):
        poly_from_strings([["1", ""]])


def test_string_round_trip(G1, H1):
    for P in (G1, H1, poly_from_strings([["0", "01"], ["1", "0011"]])):
        assert poly_from_strings(P.to_strings()) == P


def test_coefficient_expansion_constant():
    P = poly_from_strings([["1", "0"], ["1", "1"]])
    C = coefficient_expansion(P)
    assert len(C) == 1
    assert np.array_equal(C[0], np.array([[1, 0], [1, 1]]))


def test_reciprocal_swaps_parity_coefficients(H1):
    Ht = reciprocal(H1)
    C, Ct = coefficient_expansion(H1), coefficient_expansion(Ht)
    assert np.array_equal(Ct[0], C[1])
    assert np.array_equal(Ct[1], C[0])
    assert Ht.to_strings() == [["11", "1", "11"], ["1", "01", "01"]]


def test_reciprocal_generator(G1):
    assert reciprocal(G1).to_strings() == [["001", "101", "111"]]


def test_reciprocal_constant_is_identity():
    P = poly_from_strings([["1", "0"]])
    assert reciprocal(P) == P


def test_reciprocal_involution(G1, H1):
    rng = np.random.default_rng(7)
    mats = [G1, H1]
    for _ in range(20):
        coeffs = rng.integers(0, 2, size=(rng.integers(1, 4), 2, 3))
        mats.append(PolyMatrix(list(coeffs)))
    for P in mats:
        assert reciprocal(reciprocal(P)) == P


def test_reciprocal_is_built_once_per_instance(H1):
    assert reciprocal(H1) is reciprocal(H1)
    # equality ignores trailing zero coefficients; the reciprocal reverses them too
    c0, c1 = coefficient_expansion(H1)
    zero = np.zeros_like(c0)
    padded = PolyMatrix([c0, c1, zero])
    assert padded == H1
    assert reciprocal(padded) == PolyMatrix([zero, c1, c0]) != reciprocal(H1)


def trimmed(coeffs):
    """A coefficient list without its trailing zero matrices (at least one kept)."""
    end = max([1] + [p + 1 for p, c in enumerate(coeffs) if c.any()])
    return [np.asarray(c) for c in coeffs[:end]]


def same_coefficients(P, coeffs):
    want = trimmed(coeffs)
    got = P.coefficient_list()
    return len(got) == len(want) and all(np.array_equal(x, y) for x, y in zip(got, want))


def random_coefficients(rng, rows, cols):
    """A coefficient list with some zero entries and, at times, trailing zero matrices."""
    coeffs = rng.integers(0, 2, size=(rng.integers(1, 5), rows, cols)) * (rng.random((rows, cols)) < 0.8)
    pad = np.zeros((rng.integers(0, 3), rows, cols), dtype=coeffs.dtype)
    return list(np.concatenate([coeffs, pad]).astype(np.uint8))


def test_poly_matrix_against_the_convolution_oracle():
    """Products, reciprocals over the padded length, transposes and round trips on 260 seeded pairs."""
    rng = np.random.default_rng(29)
    products = 0
    for _ in range(260):
        r, c, s = rng.integers(1, 4, size=3)
        a, b = random_coefficients(rng, r, c), random_coefficients(rng, c, s)
        A, B = PolyMatrix(a), PolyMatrix(b)
        for P, coeffs in ((A, a), (B, b)):
            assert same_coefficients(P.reciprocal(), coeffs[::-1])
            assert same_coefficients(P.T, [x.T for x in coeffs])
            assert PolyMatrix(P.coefficient_list()) == P
            padded = PolyMatrix([*coeffs, np.zeros_like(coeffs[0])])
            assert padded == P and hash(padded) == hash(P)
            assert padded.reciprocal() != P.reciprocal() or P.is_zero()
        if not (A.is_zero() or B.is_zero()):
            assert same_coefficients(A * B, poly_mul(a, b))
            products += 1
    assert products >= 200


@pytest.mark.parametrize("shape", [(0, 3), (2, 0)])
def test_zero_size_matrices_keep_their_shape(shape):
    for length in (1, 3):
        P = PolyMatrix([np.zeros(shape, dtype=np.uint8)] * length)
        assert (P.rows, P.cols, P.deg) == (*shape, 0)
        assert (P.T.rows, P.T.cols) == shape[::-1] and P.T.T == P
        assert [c.shape for c in P.T.coefficient_list()] == [shape[::-1]]
        assert (P.reciprocal().rows, P.reciprocal().cols) == shape
        assert [c.shape for c in P.coefficient_list()] == [shape]
        assert P.is_zero() and P.rank() == 0
        assert P == PolyMatrix([np.zeros(shape)]) != PolyMatrix([np.zeros(shape[::-1])])
        # one empty line per row
        assert str(P) == "\n".join([""] * shape[0])
        assert repr(P) == f"PolyMatrix({[[]] * shape[0]})"


def test_generator_parity_product_is_zero(G1, H1, G2, H2):
    assert (G1 * H1.transpose()).is_zero()
    assert (G2 * H2.transpose()).is_zero()


def test_poly_product_dimension_mismatch(G1, H1):
    with pytest.raises(ValueError):
        G1 * H1  # 1x3 times 2x3


def test_mat_mul_and_errors():
    A = np.array([[1, 1], [0, 1]], dtype=np.uint8)
    B = np.array([[1], [1]], dtype=np.uint8)
    assert np.array_equal(mat_mul(A, B), np.array([[0], [1]]))
    with pytest.raises(ValueError):
        mat_mul(A, np.ones((3, 1), dtype=np.uint8))


def test_rank_identity():
    assert rank(np.eye(4, dtype=np.uint8)) == 4


def _rank_test_matrices(rng):
    """(matrix, its rank or None): random matrices of up to 32 columns, then rows across a lane boundary, with 0
    rows, 1 column, 63-65 and 130 columns, and all-zero and full-rank ones (full row rank, full column rank and
    square)."""
    for _ in range(50):
        yield rng.integers(0, 2, size=rng.integers(1, 33, size=2)).astype(np.uint8), None
    for cols in (1, 63, 64, 65, 130):
        for rows in (0, 1, cols - 1, cols, cols + 3):
            yield rng.integers(0, 2, size=(rows, cols)).astype(np.uint8), None
            yield np.zeros((rows, cols), dtype=np.uint8), 0
        for rows in sorted({1, cols // 2, cols}):
            # a random row echelon of full row rank, its rows mixed by a unit lower-triangular matrix
            E = np.triu(rng.integers(0, 2, size=(rows, cols)), 1) | np.eye(rows, cols, dtype=np.int64)
            L = np.tril(rng.integers(0, 2, size=(rows, rows)), -1) | np.eye(rows, dtype=np.int64)
            A = (L @ E % 2).astype(np.uint8)[:, rng.permutation(cols)]
            yield A, rows
            yield np.ascontiguousarray(A.T), rows


def test_rank_nullity_random():
    """rank + nullity = cols, basis vectors lie in the kernel, rank matches an independent bitset elimination, and
    rank and nullspace equal the uint8 elimination of the oracle exactly, on rows of one lane and of several."""
    rng = np.random.default_rng(11)
    for A, want in _rank_test_matrices(rng):
        n = A.shape[1]
        r = rank(A)
        basis = nullspace(A)
        assert r + basis.shape[0] == n
        assert r == bitset_rank(A) == len(row_echelon(A)[1])
        assert want is None or r == want
        assert basis.dtype == np.uint8 and np.array_equal(basis, echelon_nullspace(A))
        assert not (mat_mul(A, basis.T) % 2).any()
        assert rank(basis) == basis.shape[0] if basis.size else True


def test_poly_rank_matches_the_largest_nonzero_minor(G1, H1, G2, H2):
    """PolyMatrix.rank over GF(2)(D) against an independent minor expansion, on random and dependent rows."""
    for P in (G1, H1, G2, H2):
        assert P.rank() == P.rows
    assert poly_from_strings([["11", "01", "11"], ["011", "001", "011"]]).rank() == 1  # rows h and D*h
    assert poly_from_strings([["0", "0"], ["0", "0"]]).rank() == 0
    rng = np.random.default_rng(17)
    for _ in range(150):
        rows, cols, base = rng.integers(1, 4), rng.integers(1, 5), rng.integers(1, 4)
        basis = [[rng.integers(0, 8) for _ in range(cols)] for _ in range(base)]
        # each row a random GF(2)[D] combination of ``base`` rows, so dependent rows are common
        mix = [[rng.integers(0, 4) for _ in range(base)] for _ in range(rows)]
        ints = [[0] * cols for _ in range(rows)]
        for i, j, b in product(range(rows), range(cols), range(base)):
            for shift in range(2):
                if mix[i][b] >> shift & 1:
                    ints[i][j] ^= basis[b][j] << shift
        strings = [[format(x, "b")[::-1] if x else "0" for x in row] for row in ints]
        assert poly_from_strings(strings).rank() == poly_rank(strings), strings


@pytest.mark.parametrize(
    "bits", [[[1, 0], [0, 1]], np.ones((2, 2), dtype=np.uint8), [0, 2], 2, [1, -1], -1, [0, 256], np.array([1, -1])]
)
def test_as_bits_rejects_non_vectors_and_non_binary_entries(bits):
    with pytest.raises(ValueError, match="^expected a one-dimensional sequence of 0/1 bits$"):
        as_bits(bits)


@pytest.mark.parametrize("f", [rank, nullspace, lambda A: mat_mul(A, [[1], [1]]), lambda A: mat_mul([[1]], A)])
@pytest.mark.parametrize("A", [[[1, -1]], [[256, 1]]])
def test_matrices_with_entries_outside_a_byte_raise_value_error(f, A):
    with pytest.raises(ValueError, match=r"^expected a matrix of integer entries in 0\.\.255, read mod 2$"):
        f(A)


def test_bit_parsing_and_formatting():
    bits = parse_bits("111 110_000")
    assert bits.tolist() == [1, 1, 1, 1, 1, 0, 0, 0, 0]
    assert format_bits(bits, group=3) == "111 110 000"
    assert format_bits(bits) == "111110000"
    assert split_symbols(bits, 3) == [(1, 1, 1), (1, 1, 0), (0, 0, 0)]
    with pytest.raises(ValueError):
        parse_bits("10x")
    with pytest.raises(ValueError):
        split_symbols(bits, 2)


def test_state_formatting():
    assert format_state((1, 0)) == "(1,0)"
    assert format_state(()) == "()"
    assert parse_state("(1,0)") == (1, 0)
    assert parse_state("10") == (1, 0)
    assert parse_state("1, 0") == (1, 0)
    assert parse_state("()") == ()
    with pytest.raises(ValueError):
        parse_state("(1,2)")


def test_a_poly_matrix_is_neither_equal_to_nor_multiplied_by_a_non_matrix():
    one = PolyMatrix.from_strings([["1"]])
    assert (one == 3) is False
    with pytest.raises(TypeError):
        one * 3
