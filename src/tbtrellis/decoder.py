"""Minimum-weight error-path search over tailbiting error-trellises.

Decoding a tailbiting received word is exact maximum-likelihood for the
binary symmetric channel: one Viterbi pass per subtrellis anchor, then
the global minimum over anchors.  Ties inside a subtrellis resolve to
the lexicographically smallest label sequence; ties across anchors set
the ``tie`` flag and resolve to the smallest label sequence, then the
smallest anchor.
"""

from __future__ import annotations

from dataclasses import dataclass

from .error_trellis import build_tailbiting_error_trellis, error_anchor, sigma_fin
from .gf2 import format_bits, format_state
from .state_machines import enc_state_space, xor_states
from .trellis import _require_anchor


class AnchorCollisionError(RuntimeError):
    """Two encoder states of a G/H pair map onto one error-subtrellis anchor."""


@dataclass(frozen=True)
class DecodeResult:
    codeword: tuple  # flat Nn bits
    error: tuple  # flat Nn bits
    weight: int
    anchor_beta: tuple
    anchor_sigma: tuple
    tie: bool


def min_weight_path(T, anchor):
    """Lightest tailbiting path of one subtrellis: (symbol labels, weight)."""
    _require_anchor(T, anchor)
    best = {anchor: (0, ())}
    for adj in T.adjacency:
        nxt = {}
        for state, (w, labels) in best.items():
            for e in adj.get(state, ()):
                cand = (w + sum(e.label), labels + (e.label,))
                if e.dst not in nxt or cand < nxt[e.dst]:
                    nxt[e.dst] = cand
        best = nxt
    if anchor not in best:
        raise RuntimeError(f"no tailbiting path through {format_state(anchor)}")
    w, labels = best[anchor]
    return labels, w


def decode_tailbiting(G, H, z):
    """Exact minimum-weight tailbiting decoding of the received word z."""
    z = [tuple(int(b) for b in sym) for sym in z]
    fin = sigma_fin(H, z)
    T = build_tailbiting_error_trellis(H, z)
    betas = enc_state_space(G)
    anchors = {beta: error_anchor(beta, fin, G, H) for beta in betas}
    if len(set(anchors.values())) != len(betas):
        raise AnchorCollisionError(
            "encoder states map onto colliding error-subtrellis anchors; "
            "the dual-state labeling is not one-to-one for this G/H pair"
        )
    candidates = []
    for beta in betas:
        try:
            labels, w = min_weight_path(T, anchors[beta])
        except RuntimeError:
            # short words (N < L) leave some subtrellises without paths
            continue
        candidates.append((w, labels, anchors[beta], beta))
    if not candidates:
        raise RuntimeError("no subtrellis holds a tailbiting path; inconsistent construction")
    candidates.sort()
    w, labels, sigma, beta = candidates[0]
    tie = len(candidates) > 1 and candidates[1][0] == w
    error = tuple(b for sym in labels for b in sym)
    codeword = tuple(b for sym, esym in zip(z, labels) for b in xor_states(sym, esym))
    return DecodeResult(
        codeword=codeword,
        error=error,
        weight=w,
        anchor_beta=beta,
        anchor_sigma=sigma,
        tie=tie,
    )


def format_result(res, n):
    """One-line rendering with n-bit symbol grouping."""
    return (
        f"weight={res.weight}"
        f" anchor_beta={format_state(res.anchor_beta)}"
        f" anchor_sigma={format_state(res.anchor_sigma)}"
        f" e={format_bits(res.error, group=n)}"
        f" y={format_bits(res.codeword, group=n)}"
    )
