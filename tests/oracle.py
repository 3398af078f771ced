"""Brute-force reference implementations, kept independent of the library.

Everything here recomputes results from first principles (circular
convolution, integer-bitset elimination, exhaustive enumeration) so the
tests never check the library against itself.
"""

from itertools import combinations, permutations, product

import numpy as np


def coeffs_from_strings(rows):
    """Coefficient matrices [P_0..P_d] of LSB-first polynomial entry strings."""
    d = max(len(s) for row in rows for s in row)
    out = [np.zeros((len(rows), len(rows[0])), dtype=np.uint8) for _ in range(d)]
    for i, row in enumerate(rows):
        for j, s in enumerate(row):
            for p, c in enumerate(s):
                out[p][i, j] = int(c)
    return out


def circ_encode(g_coeffs, u_syms):
    """Tailbiting encoding by direct circular convolution.

    g_coeffs: list of k x n numpy arrays [G_0..G_L]; u_syms: list of
    N k-bit tuples.  Returns a tuple of N n-bit tuples.
    """
    N = len(u_syms)
    n = g_coeffs[0].shape[1]
    out = []
    for t in range(N):
        acc = np.zeros(n, dtype=np.uint8)
        for i, Gi in enumerate(g_coeffs):
            acc ^= (np.asarray(u_syms[(t - i) % N], dtype=np.uint8) @ Gi % 2).astype(np.uint8)
        out.append(tuple(int(b) for b in acc))
    return tuple(out)


def flat(symbols):
    return tuple(b for sym in symbols for b in sym)


def all_tailbiting(g_coeffs, N, k, L):
    """All tailbiting codewords, bucketed by anchor state.

    Returns (by_anchor dict of symbol tuples, flat codeword array).
    The anchor follows the register convention: k rows of the last L
    input symbols, oldest first, row-major.
    """
    by_anchor = {}
    rows = []
    for bits in product((0, 1), repeat=N * k):
        u = [bits[t * k : (t + 1) * k] for t in range(N)]
        y = circ_encode(g_coeffs, u)
        anchor = tuple(u[(N - L + t) % N][j] for j in range(k) for t in range(L))
        by_anchor.setdefault(anchor, []).append(y)
        rows.append(flat(y))
    return by_anchor, np.array(rows, dtype=np.uint8)


def tailbiting_codebook(g_coeffs, N, k):
    """All 2^(N*k) tailbiting codewords as flat rows, spanned from the unit-input codewords.

    Tailbiting encoding is linear, so the codebook is the GF(2) span of
    the codewords of the N*k inputs with a single 1.
    """
    table = np.zeros((1, N * g_coeffs[0].shape[1]), dtype=np.uint8)
    for t in range(N):
        for q in range(k):
            u = [tuple(int(s == t and j == q) for j in range(k)) for s in range(N)]
            row = np.array(flat(circ_encode(g_coeffs, u)), dtype=np.uint8)
            table = np.vstack([table, table ^ row])
    return table


def term_encode(g_coeffs, u_syms):
    """Terminated (non-circular) encoding: y_t = sum_i u_{t-i} G_i, u_t = 0 outside."""
    N = len(u_syms)
    n = g_coeffs[0].shape[1]
    out = []
    for t in range(N):
        acc = np.zeros(n, dtype=np.uint8)
        for i, Gi in enumerate(g_coeffs):
            if 0 <= t - i < N:
                acc ^= (np.asarray(u_syms[t - i], dtype=np.uint8) @ Gi % 2).astype(np.uint8)
        out.append(tuple(int(b) for b in acc))
    return tuple(out)


def row_echelon(A):
    """Reduced echelon form of A read mod 2, one uint8 entry per bit: (the reduced matrix, pivot columns).

    Each pivot column is cleared from every other row by one XOR of uint8
    rows, one byte per bit: another row form than the library's packed
    lanes, reaching the same unique reduced form.
    """
    R = np.atleast_2d(np.asarray(A, dtype=np.uint8)) % 2
    pivots = []
    for col in range(R.shape[1]):
        row = len(pivots)
        if row == R.shape[0]:
            break
        p = row + R[row:, col].argmax()  # the first row at or below ``row`` with a 1, if any
        if not R[p, col]:
            continue
        R[row], R[p] = R[p], R[row].copy()
        others = R[:, col] != 0
        others[row] = False
        R[others] ^= R[row]
        pivots.append(col)
    return R, pivots


def echelon_nullspace(A):
    """Null space basis of A read from ``row_echelon``: one row per free column, pivot entries by back-substitution."""
    R, pivots = row_echelon(A)
    free = [c for c in range(R.shape[1]) if c not in pivots]
    basis = np.zeros((len(free), R.shape[1]), dtype=np.uint8)
    basis[range(len(free)), free] = 1
    basis[:, pivots] = R[: len(pivots), free].T
    return basis


def bitset_rank(matrix):
    """GF(2) rank via integer bitsets (a different algorithm than the library)."""
    rows = [int("".join(str(int(b)) for b in row), 2) if row.size else 0 for row in np.atleast_2d(matrix)]
    rank = 0
    for col in range(np.atleast_2d(matrix).shape[1]):
        mask = 1 << col
        pivot = None
        for i, r in enumerate(rows):
            if r & mask:
                pivot = i
                break
        if pivot is None:
            continue
        pr = rows.pop(pivot)
        rows = [r ^ pr if r & mask else r for r in rows]
        rank += 1
    return rank


def poly_rank(rows):
    """Rank over GF(2)(D) of a matrix of LSB-first entry strings: the size of its largest nonzero minor.

    A minor is expanded over all permutations (signs vanish in
    characteristic 2), its products being coefficient convolutions mod 2.
    """
    entries = [[np.array([int(c) for c in s], dtype=np.int64) for s in row] for row in rows]

    def det(rs, cs):
        total = np.zeros(1, dtype=np.int64)
        for perm in permutations(cs):
            term = np.ones(1, dtype=np.int64)
            for i, j in zip(rs, perm):
                term = np.convolve(term, entries[i][j]) % 2
            size = max(len(total), len(term))
            total = np.pad(total, (0, size - len(total))) ^ np.pad(term, (0, size - len(term)))
        return total

    for t in range(min(len(rows), len(rows[0])), 0, -1):
        for rs in combinations(range(len(rows)), t):
            if any(det(rs, cs).any() for cs in combinations(range(len(rows[0])), t)):
                return t
    return 0


def poly_mul(a, b):
    """Product of two polynomial matrices given as coefficient lists [P_0..P_d], [Q_0..Q_e].

    Entry (i, j) is the sum over l of the convolution of the coefficient
    sequences of a[., i, l] and b[., l, j], mod 2; the result has d + e + 1
    coefficient matrices, trailing zero ones included.
    """
    A, B = np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)
    out = np.zeros((len(A) + len(B) - 1, A.shape[1], B.shape[2]), dtype=np.int64)
    for i, j, l in product(range(A.shape[1]), range(B.shape[2]), range(A.shape[2])):
        out[:, i, j] += np.convolve(A[:, i, l], B[:, l, j])
    return list((out % 2).astype(np.uint8))


def hamming(a, b):
    return int(np.bitwise_xor(np.asarray(a, np.uint8), np.asarray(b, np.uint8)).sum())


def label_bits(T, anchor):
    """The label bits of every tailbiting path of ``T`` at ``anchor``: (paths x N*n) 0/1 uint8, in no fixed order.

    Every path from the anchor at cut 0 is extended edge by edge through
    ``T.sections``, and those that end at the anchor are kept; a label
    sequence appears once per path that carries it.
    """
    anchor = tuple(anchor)
    paths = [(anchor, b"")]
    for section in T.sections:
        out = {}
        for e in section:
            out.setdefault(e.src, []).append(e)
        paths = [(e.dst, bits + bytes(e.label)) for src, bits in paths for e in out.get(src, ())]
    rows = [bits for end, bits in paths if end == anchor]
    return np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(len(rows), T.n_sections * len(T.sections[0][0].label))


def set_equality_by_enumeration(T, word, anchors, codewords):
    """Subtrellis set equality on one error trellis, by enumerating and sorting its paths.

    Per code subtrellis, the distinct label-bit rows of the paths at its
    error anchor (``anchors``), XORed with the flat 0/1 ``word``, sorted,
    must equal its distinct codeword rows (``codewords``), sorted.  Only
    distinct rows are compared, so a duplicated edge goes unseen.
    """
    return all(
        np.array_equal(np.unique(label_bits(T, a) ^ word, axis=0), np.unique(ys, axis=0))
        for a, ys in zip(anchors, codewords)
    )
