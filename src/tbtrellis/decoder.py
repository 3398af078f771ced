"""Minimum-weight error-path search over tailbiting error-trellises.

Decoding a tailbiting received word is exact maximum-likelihood for the
binary symmetric channel.  Code subtrellis beta corresponds to the error
subtrellis anchored at sigma_fin + dual(beta), so all S anchors share one
error trellis and are searched together: a backward min-plus pass keeps,
per cut, an int32 (states x anchors) matrix of the weight still to go
into each anchor at cut N, built from the integer module tables of
``error_trellis``.  A cut is one gather of the next cut's rows, an add and
a minimum over each state's edges; states without edges under a syndrome
symbol read one extra, never reached row.  The pass holds (N+1) such
matrices, under 1 MB for 64 states at N=48.

``min_weight_path`` is the one-subtrellis reference on a built
``Trellis``: it reads the weights of the backward pass that every
subtrellis query in ``trellis`` shares.

Ties inside a subtrellis resolve to the lexicographically smallest label
sequence: from each anchor reaching the minimum, a forward walk takes the
smallest label whose weight plus the next cut's cost equals the current
cost.  Ties across anchors set the ``tie`` flag and resolve to the
smallest label sequence, then the smallest anchor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .error_trellis import _search_tables, circular_run
from .gf2 import format_bits, format_state
from .state_machines import dual_state_of, enc_state_space, syndrome_former
from .trellis import _to_anchor

# above any path weight; unreachable costs grow past it by at most N*n
_UNREACHED = 2**30


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
    """Lightest tailbiting path of one subtrellis: (symbol labels, weight).

    The backward pass of ``_to_anchor`` gives each state's least weight
    still to go into the anchor at cut N; the forward walk then takes the
    smallest label on an optimal edge, which yields the lexicographically
    smallest lightest path.
    """
    togo = _to_anchor(T, anchor)
    if anchor not in togo[0]:
        raise RuntimeError(f"no tailbiting path through {format_state(anchor)}")
    labels, state = [], anchor
    for adj, here, nxt in zip(T.adjacency, togo, togo[1:]):
        c = here[state][0]
        label, state = min(
            (e.label, e.dst) for e in adj[state] if e.dst in nxt and nxt[e.dst][0] == c - sum(e.label)
        )
        labels.append(label)
    return tuple(labels), togo[0][anchor][0]


@lru_cache(maxsize=None)
def _dual_codes(G, H):
    """Encoder states and the syndrome-former integer of each one's dual state."""
    betas = enc_state_space(G)
    sf = syndrome_former(H)
    duals = [sf.state(dual_state_of(G, H, beta)) for beta in betas]
    if len(set(duals)) != len(betas):
        raise AnchorCollisionError(
            "encoder states map onto colliding error-subtrellis anchors; "
            "the dual-state labeling is not one-to-one for this G/H pair"
        )
    return betas, duals


def _cost_to_go(tables, zetas, rows):
    """Per cut t, the (states x anchors) weight of the lightest way into each anchor at cut N.

    Row S, one past the last state, is never reached: the tables point
    the rows of states without edges at it.
    """
    N, A = len(zetas), len(rows)
    S = len(tables.states)
    cost = np.full((N + 1, S + 1, A), _UNREACHED, dtype=np.int32)
    cost[N, rows, np.arange(A)] = 0
    for t in range(N - 1, -1, -1):
        sec = tables.sections[zetas[t]]
        via = cost[t + 1].take(sec.dst, axis=0)
        via += sec.weight
        np.minimum.reduce(via, axis=1, out=cost[t, :S])
    return cost


def _traceback(tables, zetas, togo, state):
    """Smallest label sequence along which ``togo`` (one anchor's costs per cut) falls to 0."""
    labels, c = [], togo[0][state]
    for zeta, nxt in zip(zetas, togo[1:]):
        for edge, dst, w in tables.sections[zeta].out[state]:
            if nxt[dst] == c - w:
                labels.append(edge.label)
                state, c = dst, c - w
                break
    return tuple(labels)


def decode_tailbiting(G, H, z):
    """Exact minimum-weight tailbiting decoding of the received word z."""
    z = [tuple(int(b) for b in sym) for sym in z]
    if not z:
        raise ValueError("a trellis needs at least one section")
    fin, zetas = circular_run(H, z)
    betas, duals = _dual_codes(G, H)
    tables = _search_tables(H)
    f = syndrome_former(H).state(fin)
    rows = [tables.index[f ^ d] for d in duals]
    cost = _cost_to_go(tables, zetas, rows)
    weights = cost[0, rows, np.arange(len(rows))]
    w = int(weights.min())
    if w >= _UNREACHED:
        raise RuntimeError("no subtrellis holds a tailbiting path; inconsistent construction")
    winners = np.flatnonzero(weights == w).tolist()
    labels, sigma, beta = min(
        (_traceback(tables, zetas, cost[:, :, i].tolist(), rows[i]), tables.states[rows[i]], betas[i])
        for i in winners
    )
    error = tuple(b for sym in labels for b in sym)
    codeword = tuple(b ^ e for b, e in zip((b for sym in z for b in sym), error))
    return DecodeResult(
        codeword=codeword,
        error=error,
        weight=w,
        anchor_beta=beta,
        anchor_sigma=sigma,
        tie=len(winners) > 1,
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
