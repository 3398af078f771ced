"""Exact GF(2) arithmetic: dense bit vectors/matrices and polynomial matrices.

Bit vectors and matrices are numpy uint8 arrays with entries in {0, 1}.
A kernel that reduces or compares rows packs them one way, by
``_lanes``: 64 columns to a zero-padded uint64 lane, so row reduction
adds one row to another with one XOR per lane, and two rows differ in
the set bits of the XOR of their lanes.  A :class:`PolyMatrix` is a matrix
over GF(2)[D] whose entries are Python integers, bit p the coefficient of
D^p: its products, transposes, reciprocals and rank work on those
integers, and its constant coefficient matrices, lowest power of D
first, are unpacked from them on request.

Entry strings are LSB-first binary: character i is the coefficient of
D^i, so ``"111"`` is 1+D+D^2 and ``"01"`` is D.  Bit vectors print
leftmost-first (bit 1 of a symbol is the leftmost character).
"""

from __future__ import annotations

from functools import reduce
from itertools import chain
from operator import or_, xor

import numpy as np


_BIT_VECTOR = "a one-dimensional sequence of 0/1 bits"
_MATRIX = "a matrix of integer entries in 0..255, read mod 2"


def as_bits(x, length=None):
    """Coerce a bit sequence (or a single 0/1 int) to a uint8 array."""
    if isinstance(x, (int, np.integer)):
        x = [x]
    a = _uint8(x, _BIT_VECTOR)
    if a.ndim != 1 or not np.all(a <= 1):
        raise ValueError(f"expected {_BIT_VECTOR}")
    if length is not None and a.shape[0] != length:
        raise ValueError(f"expected {length} bits, got {a.shape[0]}")
    return a


def _uint8(x, what):
    """x as a uint8 array; an integer entry below 0 or above 255 raises ValueError("expected <what>")."""
    try:
        return np.asarray(x, dtype=np.uint8)
    except OverflowError:
        raise ValueError(f"expected {what}") from None


def is_bit_array(a, ndim, width):
    """True iff a is an integer ndarray of ndim axes, the last ``width`` long, of 0/1 entries only."""
    return (
        isinstance(a, np.ndarray)
        and a.ndim == ndim
        and a.shape[-1] == width
        and a.dtype.kind in "biu"
        and (not a.size or (a.min() >= 0 and a.max() <= 1))
    )


def parse_bits(text):
    """Parse a bit string; spaces and underscores are group separators."""
    cleaned = text.replace(" ", "").replace("_", "")
    if not cleaned or any(c not in "01" for c in cleaned):
        raise ValueError(f"not a bit string: {text!r}")
    return np.array([int(c) for c in cleaned], dtype=np.uint8)


def split_symbols(bits, n):
    """Split a flat bit sequence into a list of n-bit tuples."""
    a = as_bits(bits)
    if n <= 0 or a.shape[0] % n != 0:
        raise ValueError(f"bit count {a.shape[0]} is not a multiple of {n}")
    return [tuple(int(b) for b in a[i : i + n]) for i in range(0, a.shape[0], n)]


def format_bits(bits, group=None):
    """Render bits as '0'/'1' text, optionally in space-separated groups: the bytes of the bits plus ord('0')."""
    s = (as_bits(bits) + 48).tobytes().decode()
    return s if group is None else " ".join(s[i : i + group] for i in range(0, len(s), group))


def format_state(bits):
    """Render a state as a parenthesized bit tuple, e.g. ``(1,0)``."""
    return "(" + ",".join(str(int(b)) for b in bits) + ")"


def parse_state(text):
    """Parse a state written as ``(1,0)``, ``1,0`` or ``10``."""
    cleaned = text.strip().strip("()").replace(",", "").replace(" ", "")
    if cleaned == "":
        return ()
    if any(c not in "01" for c in cleaned):
        raise ValueError(f"not a state: {text!r}")
    return tuple(int(c) for c in cleaned)


# ---------------------------------------------------------------------------
# scalar matrices


def mat_mul(A, B):
    """Matrix product over GF(2)."""
    A, B = _uint8(A, _MATRIX), _uint8(B, _MATRIX)
    if A.shape[-1] != B.shape[0]:
        raise ValueError(f"dimension mismatch: {A.shape} x {B.shape}")
    return (A.astype(np.int64) @ B.astype(np.int64)) % 2


def _lanes(bits):
    """Rows of 0/1 bits packed into zero-padded uint64 lanes, byte j // 8 of a row holding bit j at 0x80 >> j % 8.

    Lane j // 64 holds bit j.  Read big-endian (``.view(">u8")``), bit j
    is bit 63 - j % 64 of its lane, so a row's lanes, first lane first,
    read as one integer with its first bit highest and zeros past its
    end.  Read natively on a little-endian host, bit 0 is 0x80 of the
    lane's integer, the bytes coming in reverse order, which XOR and
    popcount do not see: two rows differ in as many bits as the XOR of
    their lanes has set bits, at any width.
    """
    packed = np.packbits(bits, axis=1)
    lanes = np.zeros((len(packed), -(-packed.shape[1] // 8) * 8), dtype=np.uint8)
    lanes[:, : packed.shape[1]] = packed
    return lanes.view(np.uint64)


def _row_echelon(A):
    """Reduced echelon form of A, a 2-D matrix read mod 2: (its pivot rows as 0/1 rows, pivot columns).

    The rows are reduced as ``_lanes`` read big-endian, so column c is
    bit 63 - c % 64 of lane c // 64, and one XOR per lane adds a row to
    every other row that holds the pivot's column.
    """
    A = np.atleast_2d(_uint8(A, _MATRIX)) & 1
    R = _lanes(A).view(">u8").astype(np.uint64)
    pivots = []
    for col in range(A.shape[1]):
        row = len(pivots)
        holds = R[:, col >> 6] & np.uint64(1 << 63 - (col & 63)) != 0
        if holds[row:].any():
            p = row + holds[row:].argmax()  # the first row at or below ``row`` with a 1
            R[row], R[p] = R[p], R[row].copy()
            holds[p], holds[row] = holds[row], False
            R[holds] ^= R[row]  # one XOR per lane clears the column in every other row that holds it
            pivots.append(col)
    return np.unpackbits(R[: len(pivots)].astype(">u8").view(np.uint8), axis=1, count=A.shape[1]), pivots


def rank(A):
    """GF(2) rank of a dense binary matrix."""
    return len(_row_echelon(A)[1])


def nullspace(A):
    """Basis of {x : A x = 0 over GF(2)}, as rows of a (nullity x cols) array.

    Basis row idx holds a 1 in free column free[idx] and, by
    back-substitution, in each pivot column the entry of that column's
    pivot row at free[idx].
    """
    R, pivots = _row_echelon(A)
    free = [c for c in range(R.shape[1]) if c not in pivots]
    basis = np.zeros((len(free), R.shape[1]), dtype=np.uint8)
    basis[range(len(free)), free] = 1
    basis[:, pivots] = R[:, free].T
    return basis


# ---------------------------------------------------------------------------
# polynomial matrices


def _clmul(a, b):
    """Product of two GF(2)[D] polynomials held as integers, bit i the coefficient of D^i."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        a, b = a << 1, b >> 1
    return out


class PolyMatrix:
    """Matrix over GF(2)[D], each entry one integer whose bit p is the coefficient of D^p.

    Built from a list of coefficient matrices [P_0, ..., P_d] (lowest
    power first) or from entry strings; ``entries`` holds the rows as
    tuples of integers.  Instances are immutable.  ``deg`` is the
    effective degree (the highest power with a nonzero coefficient; 0 for
    the zero matrix).  Equality compares the shape and the entries, and
    the hash the entries, so trailing zero coefficient matrices do not
    distinguish two values.  The reciprocal reverses each entry over
    ``_length`` bits: the number of coefficient matrices given to the
    constructor, trailing zero ones included (deg + 1 for strings and
    products), which the transpose and the reciprocal keep.  So the
    reciprocal is kept per instance, not in a cache keyed by value.
    """

    __slots__ = ("entries", "rows", "cols", "deg", "_length", "_hash", "_reciprocal")

    def __init__(self, coeffs):
        mats = [np.array(c, dtype=np.uint8, copy=True) % 2 for c in coeffs]
        if not mats:
            raise ValueError("need at least one coefficient matrix")
        shape = mats[0].shape
        if len(shape) != 2:
            raise ValueError("coefficient matrices must be two-dimensional")
        if any(m.shape != shape for m in mats):
            raise ValueError("coefficient matrices must share dimensions")
        bits = np.array(mats).transpose(1, 2, 0).tolist()
        self._set(*shape, [[sum(b << p for p, b in enumerate(e)) for e in row] for row in bits], len(mats))

    def _set(self, rows, cols, entries, length=1):
        entries = tuple(map(tuple, entries))
        deg = reduce(or_, chain.from_iterable(entries), 1).bit_length() - 1
        # in __slots__ order
        for name, value in zip(self.__slots__, (entries, rows, cols, deg, max(length, deg + 1), hash(entries), None)):
            object.__setattr__(self, name, value)
        return self

    @classmethod
    def _of(cls, rows, cols, entries, length=1):
        """The rows x cols matrix of integer ``entries``, stored over ``length`` coefficient matrices."""
        return object.__new__(cls)._set(rows, cols, entries, length)

    def __setattr__(self, name, value):
        raise AttributeError("PolyMatrix is immutable")

    @classmethod
    def from_strings(cls, rows):
        """Build from LSB-first coefficient strings, e.g. [["1","101","111"]]."""
        if not rows or not rows[0]:
            raise ValueError("empty matrix")
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        for r in rows:
            for s in r:
                if not isinstance(s, str) or not s or any(c not in "01" for c in s):
                    raise ValueError(f"bad coefficient string: {s!r}")
        return cls._of(len(rows), ncols, [[int(s[::-1], 2) for s in r] for r in rows])

    def is_zero(self):
        return not any(chain.from_iterable(self.entries))

    def rank(self):
        """Rank over the rational functions GF(2)(D), by fraction-free elimination.

        A pivot p in column c clears that column of every row left, each
        row w becoming p*w + w_c*pivot row, which keeps the rank; every row
        that holds a pivot is set aside.
        """
        rows = list(self.entries)
        for c in range(self.cols):
            pivot = next((row for row in rows if row[c]), None)
            if pivot:
                rows.remove(pivot)
                rows = [[_clmul(pivot[c], a) ^ _clmul(row[c], b) for a, b in zip(row, pivot)] for row in rows]
        return self.rows - len(rows)

    def coefficient_list(self):
        """[P_0, ..., P_deg] as uint8 matrices, unpacked from the entries."""
        bits = [[[e >> p & 1 for e in row] for row in self.entries] for p in range(self.deg + 1)]
        return list(np.array(bits, dtype=np.uint8).reshape(self.deg + 1, self.rows, self.cols))

    def reciprocal(self):
        """Each entry reversed over the stored coefficient matrices (P~_i = P_{d-i}); built once per instance."""
        if self._reciprocal is None:
            spec = f"0{self._length}b"
            entries = [[int(format(e, spec)[::-1], 2) for e in row] for row in self.entries]
            object.__setattr__(self, "_reciprocal", self._of(self.rows, self.cols, entries, self._length))
        return self._reciprocal

    def transpose(self):
        columns = [[row[j] for row in self.entries] for j in range(self.cols)]  # not zip: rows may be 0
        return self._of(self.cols, self.rows, columns, self._length)

    @property
    def T(self):
        return self.transpose()

    def __mul__(self, other):
        """Polynomial matrix product: each entry the XOR of carry-less products."""
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(
                f"dimension mismatch: {self.rows}x{self.cols} times "
                f"{other.rows}x{other.cols}"
            )
        columns = other.T.entries
        return self._of(
            self.rows, other.cols, [[reduce(xor, map(_clmul, row, col), 0) for col in columns] for row in self.entries]
        )

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.entries) == (other.rows, other.cols, other.entries)

    def __hash__(self):
        return self._hash

    def entry_string(self, i, j):
        """LSB-first coefficient string of entry (i, j) in canonical form."""
        return format(self.entries[i][j], "b")[::-1]

    def to_strings(self):
        return [[self.entry_string(i, j) for j in range(self.cols)] for i in range(self.rows)]

    def __str__(self):
        rows = self.to_strings()
        widths = [max((len(r[j]) for r in rows), default=0) for j in range(self.cols)]
        return "\n".join("  ".join(r[j].rjust(widths[j]) for j in range(self.cols)) for r in rows)

    def __repr__(self):
        return f"PolyMatrix({self.to_strings()!r})"


def poly_from_strings(rows):
    """Parse a polynomial matrix from LSB-first binary coefficient strings."""
    return PolyMatrix.from_strings(rows)


def coefficient_expansion(P):
    """Coefficient matrices [P_0, ..., P_deg] of a PolyMatrix."""
    return P.coefficient_list()


def reciprocal(P):
    """The reciprocal polynomial matrix (coefficient order reversed)."""
    return P.reciprocal()
