"""Scalar (block) parity-check matrices for terminated and tailbiting codes.

Both constructions place the coefficient matrices H_0..H_M of H(D) on a
block band; the tailbiting variant additionally wraps H_1..H_M into the
top-right corner cyclically, giving an Nr x Nn matrix whose null space
is the length-N tailbiting code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gf2 import as_bits, format_bits, is_bit_array


@dataclass(frozen=True)
class ScalarParity:
    matrix: np.ndarray
    kind: str  # "terminated" | "tailbiting"
    n_sections: int
    block_dims: tuple  # (r, n)


def _placement(H, N, kind):
    """The block grid (rows, cols) of a scalar matrix and the m of each H_m in block (i, j)."""
    M = H.deg
    if kind == "tailbiting":
        if N < M:
            raise ValueError(f"need N >= M ({N} < {M})")
        grid, members = (N, N), lambda i, j: [m for m in range(M + 1) if m % N == (i - j) % N]
    elif kind == "terminated":
        grid, members = (N + M, N), lambda i, j: [i - j] if 0 <= i - j <= M else []
    else:
        raise ValueError(f"unknown kind: {kind!r}")
    if N < 1:
        raise ValueError("need N >= 1 sections")
    return grid, members


def _hscalar(H, N, kind):
    (rows, cols), members = _placement(H, N, kind)
    coeffs = H.coefficient_list()
    r, n = H.rows, H.cols
    out = np.zeros((rows * r, cols * n), dtype=np.uint8)
    for i in range(rows):
        for j in range(cols):
            for m in members(i, j):
                out[i * r : (i + 1) * r, j * n : (j + 1) * n] ^= coeffs[m]
    out.flags.writeable = False
    return ScalarParity(matrix=out, kind=kind, n_sections=N, block_dims=(r, n))


def hscalar_terminated(H, N):
    """Block-banded (N+M)r x Nn matrix: block (i, j) = H_{i-j}."""
    return _hscalar(H, N, "terminated")


def hscalar_tailbiting(H, N):
    """Cyclic Nr x Nn matrix: block (i, j) collects H_m for m = (i-j) mod N.

    Requires N >= M and N >= 1.  For N = M the main-diagonal H_M occupies
    the same block as the wrapped H_M; coinciding contributions are summed
    over GF(2).
    """
    return _hscalar(H, N, "tailbiting")


def is_tailbiting_codeword(P, y):
    """Membership test: y (length Nn) has zero syndrome under P."""
    return bool(is_tailbiting_codeword_batch(P, [y])[0])


def is_tailbiting_codeword_batch(P, words):
    """``is_tailbiting_codeword`` of each row of a (words x Nn) block: one product Y P^T mod 2."""
    if P.kind != "tailbiting":
        raise ValueError("membership test needs a tailbiting matrix")
    length = P.matrix.shape[1]
    Y = words if is_bit_array(words, 2, length) else np.array([as_bits(y, length) for y in words]).reshape(-1, length)
    # a uint8 product wraps mod 256, which keeps the parity of every sum
    return ~((Y @ P.matrix.T) & 1).any(axis=1)


def format_matrix(P):
    """Plain-text rows of '0'/'1' characters."""
    return "\n".join(format_bits(row) for row in P.matrix)


def annotate_blocks(H, N, kind="tailbiting"):
    """Pretty print of the block structure, one token per r x n block.

    Tokens name the coefficient matrices placed in each block ("H0",
    "H0+H2", or "." for a zero block).
    """
    (rows, cols), members = _placement(H, N, kind)
    grid = [["+".join(f"H{m}" for m in members(i, j)) or "." for j in range(cols)] for i in range(rows)]
    width = max(len(tok) for row in grid for tok in row)
    return "\n".join(" ".join(tok.ljust(width) for tok in row).rstrip() for row in grid)
