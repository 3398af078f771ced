"""Minimum-weight error-path search over tailbiting error-trellises.

Decoding a tailbiting received word is exact maximum-likelihood for the
binary symmetric channel.  Code subtrellis beta corresponds to the error
subtrellis anchored at sigma_fin + dual(beta), so all S anchors share one
error trellis and are searched together, in backward min-plus passes
over the merged tables of ``error_trellis._search_tables``: a table
covers m consecutive sections (m fixed per H by ``TABLE_BUDGET``; the
N mod m sections left over use the 1-section tables), so a pass makes
floor(N/m) + N mod m steps.  A pass keeps, per step, an int32 (columns x
states) matrix of the weight still to go into each column's end states
at cut N: a gather of the next step's costs along every merged edge, an
add and a minimum over each state's edges.  Edges that die inside a
merged section end in one extra, never reached state.

Pruning is exact.  Where a pass over all anchors would exceed the
table budget (the 64-state K=7 code, not the 4-state reference code), a
first pass with one column that may end anywhere gives each anchor a
lower bound ``lb`` on its weight.
The anchors of least ``lb`` are searched, giving weight w, then every
other anchor with ``lb <= w``; an anchor left out has ``lb > w``, so it
can neither win nor tie.  Otherwise all anchors are searched in one pass.

``min_weight_path`` is the one-subtrellis reference on a built
``Trellis``: it reads the weights of the backward pass that every
subtrellis query in ``trellis`` shares.

Ties inside a subtrellis resolve to the lexicographically smallest label
sequence: from each anchor reaching the minimum, a forward walk takes the
first merged edge, in concatenated-label order, whose weight plus the
next step's cost equals the current cost.  Ties across anchors set the
``tie`` flag and resolve to the smallest label sequence, then the
smallest anchor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from operator import xor

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
    """The outcome of one exact minimum-weight decoding.

    ``codeword`` (flat N*n bits) is a tailbiting codeword nearest the
    received word, and ``error`` (flat N*n bits) the received word minus
    it; ``weight`` is the Hamming weight of ``error``, the distance from
    the received word to the code.  ``anchor_beta`` is the encoder state
    at cuts 0 and N of ``codeword``, and ``anchor_sigma`` the state of
    the error subtrellis holding ``error``, sigma_fin + dual(beta).
    ``tie`` is true exactly when more than one anchor reaches ``weight``;
    two optimal error paths inside one subtrellis read ``tie=False``.
    Of all optimal error sequences, ``error`` is the lexicographically
    smallest, read bit by bit; the anchors are the ones it passes.
    """

    codeword: tuple
    error: tuple
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
    """Encoder states and the syndrome-former integers of their dual states."""
    betas = enc_state_space(G)
    sf = syndrome_former(H)
    duals = [sf.state(dual_state_of(G, H, beta)) for beta in betas]
    if len(set(duals)) != len(betas):
        raise AnchorCollisionError(
            "encoder states map onto colliding error-subtrellis anchors; "
            "the dual-state labeling is not one-to-one for this G/H pair"
        )
    return betas, np.array(duals)


def _min_plus(sections, end):
    """Per section cut, the (columns x states + 1) least weight still to go into ``end``.

    ``end`` holds each column's cost per state at cut N.  State S, one
    past the last, is never reached: the tables point dead edges at it.
    """
    cost = np.full((len(sections) + 1, *end.shape), _UNREACHED, dtype=np.int32)
    cost[-1] = end
    for t in range(len(sections) - 1, -1, -1):
        sec = sections[t]
        via = cost[t + 1].take(sec.dst, axis=1)
        via += sec.weight
        np.minimum.reduce(via, axis=1, out=cost[t, :, :-1])
    return cost


@lru_cache(maxsize=None)
def _ends(S):
    """Costs at cut N over S states and state S: row s < S ends in s alone, row S anywhere."""
    ends = np.full((S + 1, S + 1), _UNREACHED, dtype=np.int32)
    np.fill_diagonal(ends[:S], 0)
    ends[S, :S] = 0
    return ends


def _search(sections, ends, rows):
    """One min-plus pass with one column per anchor row: (costs, each anchor's weight)."""
    cost = _min_plus(sections, ends[rows])
    return cost, cost[0, np.arange(len(rows)), rows]


def _traceback(sections, togo, state):
    """Smallest label sequence along which ``togo`` (one column's costs per cut) falls to 0.

    Returns the label integer of each section's edge.
    """
    labels, c = [], togo[0][state]
    for sec, nxt in zip(sections, togo[1:]):
        for label, dst, w in sec.out[state]:
            if nxt[dst] == c - w:
                labels.append(label)
                state, c = dst, c - w
                break
    return labels


def decode_tailbiting(G, H, z):
    """Exact minimum-weight tailbiting decoding of the received word z."""
    z = [tuple(map(int, sym)) for sym in z]
    if not z:
        raise ValueError("a trellis needs at least one section")
    fin, zetas = circular_run(H, z)
    betas, duals = _dual_codes(G, H)
    tables = _search_tables(H)
    rows = tables.index[syndrome_former(H).state(fin) ^ duals]
    m, N, n = tables.m, len(zetas), H.cols
    cut = N - N % m
    sections = [tables.sections[tuple(zetas[t : t + m])] for t in range(0, cut, m)]
    sections += [tables.sections[(zeta,)] for zeta in zetas[cut:]]
    ends = _ends(len(tables.states))
    if tables.prune:
        lb = _min_plus(sections, ends[-1:])[0, 0, rows]
        first = np.flatnonzero(lb == lb.min())
    else:
        first = np.arange(len(rows))
    passes = [(first, *_search(sections, ends, rows[first]))]
    w = int(passes[0][2].min())
    if tables.prune:
        # no anchor whose bound exceeds w can reach w
        rest = np.flatnonzero((lb > lb.min()) & (lb <= w))
        if len(rest):
            passes.append((rest, *_search(sections, ends, rows[rest])))
            w = min(w, int(passes[1][2].min()))
    if w >= _UNREACHED:
        raise RuntimeError("no subtrellis holds a tailbiting path; inconsistent construction")
    winners = [(anchors[j], cost[:, j]) for anchors, cost, weights in passes for j in np.flatnonzero(weights == w)]
    labels, sigma, beta = min(
        (_traceback(sections, togo.tolist(), rows[i]), tables.states[rows[i]], betas[i]) for i, togo in winners
    )
    widths = [m * n] * (cut // m) + [n] * (N - cut)
    error = tuple(map(int, "".join(format(v, f"0{width}b") for v, width in zip(labels, widths))))
    return DecodeResult(
        codeword=tuple(map(xor, chain.from_iterable(z), error)),
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
