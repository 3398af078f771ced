"""Loading and validation of code-spec JSON files.

A code spec is a JSON document ``{"n": int, "k": int, "G": [[str]],
"H": [[str]]}`` whose entry strings are LSB-first binary polynomial
coefficients; n and k must be JSON integers (not floats, strings or
booleans).  Either matrix may be omitted; commands needing only one
still work.  H may not contain an all-zero parity row, each matrix must
have full rank over GF(2)(D) (G rank k, H rank n - k), and when both are
present their duality (G H^T = 0) is checked.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .gf2 import PolyMatrix, poly_from_strings
from .state_machines import poly_is_dual_pair

# verify's trials per randomized suite, here so that the CLI's help reads it
# without importing verify: a suite draws all of its trials at once, one byte
# a bit once unpacked, so on the reference code at N = 20 the widest draw (60
# bits a trial) then holds 30 MB of rows and peaks at 34 MB (tracemalloc)
MAX_TRIALS = 500_000


class CodeSpecError(ValueError):
    """Malformed or inconsistent code-spec document."""


class CodeSpec(NamedTuple):
    n: int
    k: int
    G: PolyMatrix | None
    H: PolyMatrix | None

    @property
    def r(self):
        return self.n - self.k

    def require_G(self):
        if self.G is None:
            raise CodeSpecError("this command needs a generator matrix G in the code spec")
        return self.G

    def require_H(self):
        if self.H is None:
            raise CodeSpecError("this command needs a parity-check matrix H in the code spec")
        return self.H


def parse_codespec(obj):
    """Validate a decoded JSON object into a CodeSpec."""
    if not isinstance(obj, dict):
        raise CodeSpecError("code spec must be a JSON object")
    n, k = obj.get("n"), obj.get("k")
    # type(...) is int: a JSON true is a Python bool, which is an int
    if type(n) is not int or type(k) is not int:
        raise CodeSpecError("code spec needs integer fields 'n' and 'k'")
    if not (0 < k < n):
        raise CodeSpecError(f"need 0 < k < n, got k={k}, n={n}")
    G = _parse_matrix(obj.get("G"), "G", rows=k, cols=n)
    H = _parse_matrix(obj.get("H"), "H", rows=n - k, cols=n)
    if G is None and H is None:
        raise CodeSpecError("code spec must provide G, H, or both")
    check_matrices(G, H)
    return CodeSpec(n=n, k=k, G=G, H=H)


def check_matrices(G, H):
    """Raise a CodeSpecError unless H has no zero row, each matrix given has full rank, and G H^T = 0.

    Either matrix may be None.  The rank is over GF(2)(D): G needs rank
    k and H rank n - k.
    """
    for q, row in enumerate(H.entries if H is not None else ()):
        if not any(row):
            raise CodeSpecError(f"parity row {q + 1} of H is zero")
    for name, P in (("G", G), ("H", H)):
        if P is not None and (rank := P.rank()) < P.rows:
            raise CodeSpecError(f"matrix {name} has rank {rank} over GF(2)(D), need {P.rows}: its rows are dependent")
    if G is not None and H is not None and not poly_is_dual_pair(G, H):
        raise CodeSpecError("G and H are not dual: G(D) H(D)^T is nonzero")


def _parse_matrix(entries, name, rows, cols):
    if entries is None:
        return None
    try:
        P = poly_from_strings(entries)
    except ValueError as exc:
        raise CodeSpecError(f"bad matrix {name}: {exc}") from exc
    if (P.rows, P.cols) != (rows, cols):
        raise CodeSpecError(f"matrix {name} must be {rows}x{cols}, got {P.rows}x{P.cols}")
    return P


def load_codespec(path):
    """Read and validate a code-spec JSON file."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise CodeSpecError(f"cannot read code spec: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CodeSpecError(f"code spec is not valid JSON: {exc}") from exc
    return parse_codespec(obj)
