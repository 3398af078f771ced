"""Scalar (block) parity-check matrices for terminated and tailbiting codes.

Both constructions place the coefficient matrices H_0..H_M of H(D) on an
N-section block grid: block (i, j) of the matrix is the sum of the H_m
whose 0/1 grid m sets (i, j), so the matrix is the GF(2) sum over m of
the Kronecker products grid_m (x) H_m.  The terminated grid m is the
(N+M) x N band shift eye(N+M, N, -m), giving the block band with H_m at
i - j = m.  The tailbiting grid m is C_N^m, C_N the N x N cyclic
down-shift, which also wraps H_1..H_M into the top-right corner: an
Nr x Nn matrix whose null space is the length-N tailbiting code.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .gf2 import _in_kernel, _lanes, as_bits, format_bits, is_bit_array


class ScalarParity(NamedTuple):
    matrix: np.ndarray
    kind: str  # "terminated" | "tailbiting"
    n_sections: int
    block_dims: tuple  # (r, n)


def _placement(H, N, kind):
    """The 0/1 block grids of H_0..H_M, stacked ((M+1) x rows x N): H_m lies in block (i, j) where grid m is set."""
    M = H.deg
    if kind == "tailbiting" and N < M:
        raise ValueError(f"need N >= M ({N} < {M})")
    if kind not in ("tailbiting", "terminated"):
        raise ValueError(f"unknown kind: {kind!r}")
    if N < 1:
        raise ValueError("need N >= 1 sections")
    if kind == "terminated":
        return np.array([np.eye(N + M, N, k=-m, dtype=np.uint8) for m in range(M + 1)])
    return np.array([np.eye(N, k=-m, dtype=np.uint8) + np.eye(N, k=N - m, dtype=np.uint8) for m in range(M + 1)])


def _hscalar(H, N, kind):
    grids = _placement(H, N, kind)
    # the sum over m of the Kronecker products grid_m (x) H_m: entry (a, b) of block (i, j) is
    # the sum of grid_m[i, j] H_m[a, b], and a uint8 sum wraps mod 256, which keeps its parity
    out = (np.einsum("mij,mab->iajb", grids, H.coefficient_list()) & 1).reshape(len(grids[0]) * H.rows, N * H.cols)
    out.flags.writeable = False
    return ScalarParity(matrix=out, kind=kind, n_sections=N, block_dims=(H.rows, H.cols))


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
    """``is_tailbiting_codeword`` of each row of a (words x Nn) block: ``gf2._in_kernel`` of the rows' ``_lanes``."""
    if P.kind != "tailbiting":
        raise ValueError("membership test needs a tailbiting matrix")
    length = P.matrix.shape[1]
    if not is_bit_array(words, 2, length):
        words = np.array([as_bits(y, length) for y in words], dtype=np.uint8).reshape(-1, length)
    return _in_kernel(P.matrix, _lanes(words))


def format_matrix(P):
    """Plain-text rows of '0'/'1' characters."""
    return "\n".join(format_bits(row) for row in P.matrix)


def annotate_blocks(H, N, kind="tailbiting"):
    """Pretty print of the block structure, one token per r x n block.

    Tokens name the coefficient matrices placed in each block ("H0",
    "H0+H2", or "." for a zero block).
    """
    held = np.moveaxis(_placement(H, N, kind), 0, -1)  # held[i, j, m]: block (i, j) holds H_m
    grid = [["+".join(f"H{m}" for m in np.flatnonzero(ms)) or "." for ms in row] for row in held]
    width = max(len(tok) for row in grid for tok in row)
    return "\n".join(" ".join(tok.ljust(width) for tok in row).rstrip() for row in grid)
