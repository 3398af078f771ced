"""Minimum-weight error-path search over tailbiting error-trellises.

Decoding a tailbiting received word is exact maximum-likelihood for the
binary symmetric channel.  Code subtrellis beta corresponds to the error
subtrellis anchored at sigma_fin + dual(beta), so all S anchors share one
error trellis and are searched together, in backward min-plus passes
over the merged tables of ``error_trellis._search_tables``: a table
covers m consecutive sections (m fixed per H by ``TABLE_BUDGET``; the
N mod m sections left over use the 1-section tables), so a pass makes
floor(N/m) + N mod m steps.

A block of words is decoded together, ``decode_tailbiting`` being a
block of one.  A pass keeps, per step, an int32 (columns x words *
(states + 1)) matrix of the weight still to go into each column's end
states at cut N; a column belongs to one (word, anchor) pair, and every
word of a block has as many.  Each step is three numpy calls: a gather
of the next step's costs along every merged edge of each word's own
table, an add and a minimum over each state's edges.  The gather's flat
indices and weights come from the stack of tables, keyed by the
integer each step's syndromes form, picked for all steps and words of a
block before the loop.  Edges that die inside a merged section end in
one extra, never reached state.  Where all anchors are searched in one
pass, a block holds as many words as keep that pass within
``BLOCK_BUDGET`` entries per step (256 words of the reference code at
N = 5).  A larger block spreads the fixed numpy cost of a step over
more words; beyond a few hundred words it is no faster and takes more
memory.

Pruning is exact and per word.  Where a pass over all anchors would
exceed the table budget (32 or 64 states, not the 4-state
reference code), a block holds one word, and a first pass with one
column that may end anywhere gives each anchor a lower bound ``lb`` on
its weight.  When one anchor alone has the least ``lb``, the traceback
walks that column from it; if the walk closes, ending in the anchor it
started from, it is the word's result and no search pass runs.  It is a
tailbiting path of weight ``lb``, which every other anchor's bound
exceeds, and the lexicographically smallest of all least-weight paths
out of the anchor, so also of those that return to it.  Otherwise the
anchors of least ``lb`` are searched, giving weight w, then every other
anchor with ``lb <= w``; an anchor left out has ``lb > w``, so it can
neither win nor tie.  Where pruning does not pay, all anchors are
searched in one pass.

``min_weight_path`` is the one-subtrellis reference on a built
``Trellis``: it reads the weights of the backward pass that every
subtrellis query in ``trellis`` shares.

Ties inside a subtrellis resolve to the lexicographically smallest label
sequence: from each anchor reaching the minimum, a forward walk takes the
first merged edge, in concatenated-label order, whose weight plus the
next step's cost equals the current cost.  Ties across anchors set the
``tie`` flag and resolve to the smallest label sequence, then the
smallest anchor.

There are two tracebacks with this one rule.  A block of several words
(only where every anchor is searched in one pass) walks all of its
(word, anchor) pairs at the least weight forward together as arrays,
one gather per step; a sort of the walks' label rows picks each word's
winner, and the error and codeword bits of the whole block are unpacked
at once.  A block of one word, which every pruned code has and which
per-word decoding is, walks each pair in Python over the tables' edge
lists: the array walk's fixed numpy calls cost more than one word's
walk, which is a few list lookups per step.

One loop, ``_blocks``, decodes a block of words decode block by decode
block.  It gives a block of several words as arrays (``_Block``: weights,
codeword and error bits, winning anchors and tie counts) and a block of
one as its ``DecodeResult``.  Two readers consume it:
``decode_tailbiting_batch`` builds one ``DecodeResult`` per word, and
``_decode_arrays`` keeps the weights, codewords and ties as arrays, which
the verifier's decoder-oracle suite compares with no per-word object.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from operator import getitem, xor
from typing import NamedTuple

import numpy as np

from .codespec import check_matrices
from .error_trellis import _search_tables, received
from .gf2 import format_bits, format_state
from .state_machines import _bit_tuples, dual_state_of, enc_state_space, sf_circular, syndrome_former, unpack
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
    """Encoder states and the syndrome-former integers of their dual states.

    The pair is first checked as a spec load checks it (``check_matrices``).
    """
    check_matrices(G, H)
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
    """Per section cut, the (columns x words * (states + 1)) least weight still to go into ``end``.

    ``sections`` is the ``_sections`` pair of a block of words; a word's
    states are consecutive entries of a row.  ``end`` holds one row per
    column: its cost at cut N over the states of every word of the block.
    State S, one past the last, is never reached: the tables point dead
    edges at it, and it keeps its cost.
    """
    dst, weight = sections
    cost = np.empty((len(dst) + 1, *end.shape), dtype=np.int32)
    cost[-1] = end
    for t in range(len(dst) - 1, -1, -1):
        via = cost[t + 1].take(dst[t], axis=1)
        via += weight[t]
        np.minimum.reduce(via, axis=1, out=cost[t])
    return cost


@lru_cache(maxsize=None)
def _ends(S):
    """Costs at cut N over S states and state S: row s < S ends in s alone, row S anywhere."""
    ends = np.full((S + 1, S + 1), _UNREACHED, dtype=np.int32)
    np.fill_diagonal(ends[:S], 0)
    ends[S, :S] = 0
    return ends


@lru_cache(maxsize=None)
def _layout(H, N):
    """How the N sections of a word fall into floor(N/m) runs of m symbols, then N mod m single ones.

    Returns, per step, the places that turn syndrome integers into its key
    in the stack (with ``first``, 2^(r*m), added for single symbols), the
    places that turn received-symbol integers into the integer of its
    received bits, and the bit tuples of its labels.  Both are powers of
    two: a run's key and received integer concatenate its symbols' bits.
    Last come, per symbol, its step and the shift of its n bits in the
    step's label.
    """
    m, r, n = _search_tables(H).m, H.rows, H.cols
    runs, cut = N // m, N - N % m
    t = np.arange(N)
    step = np.where(t < cut, t // m, runs + t - cut)
    place = np.where(t < cut, m - 1 - t % m, 0)
    places = np.zeros((N, runs + N - cut), dtype=np.intp)
    symbols = np.zeros_like(places)
    places[t, step], symbols[t, step] = 1 << r * place, 1 << n * place
    first = np.array([0] * runs + [1 << r * m] * (N - cut))
    bits = [_bit_tuples(m * n)[0]] * runs + [_bit_tuples(n)[0]] * (N - cut)
    return places, first, symbols, bits, step, n * place


@lru_cache(maxsize=None)
def _offsets(words, S):
    """The first of each word's S + 1 rows in a block's cost at one cut."""
    return (np.arange(words) * (S + 1))[:, None, None]


def _sections(tables, keys):
    """The merged edges of a block of words: (steps x edges x words * (states + 1)) cost entries and weights.

    ``keys`` (words x steps) picks each step's run from the stack.  A
    word's entries point into its own states + 1 entries of a column's
    cost at the next cut.
    """
    sec = tables.sections
    shape = (keys.shape[1], sec.dst.shape[1], -1)
    dst = sec.dst.take(keys.T, axis=0) + _offsets(len(keys), len(tables.states))
    weight = sec.weight.take(keys.T, axis=0)
    return dst.transpose(0, 2, 1, 3).reshape(shape), weight.transpose(0, 2, 1, 3).reshape(shape)


def _traceback(outs, togo, state):
    """Smallest label sequence along which ``togo`` (one column's costs per cut) falls to 0.

    ``outs`` gives per step each state's edges.  Returns the label
    integer of each section's edge and the state the walk ends in: on a
    column that ends in one state only, that state; on the bound pass's
    column, any state, so that the walk closes only if it returns to
    where it started.
    """
    labels, c = [], togo[0][state]
    for out, nxt in zip(outs, togo[1:]):
        for label, dst, w in out[state]:
            if nxt[dst] == c - w:
                labels.append(label)
                state, c = dst, c - w
                break
    return labels, state


def decode_tailbiting(G, H, z):
    """Exact minimum-weight tailbiting decoding of the received word z."""
    return decode_tailbiting_batch(G, H, [z])[0]


def decode_tailbiting_batch(G, H, words):
    """``decode_tailbiting`` of each word of a block of equal-length words, in order.

    The words are searched ``_search_tables(H).block`` at a time; a block
    of several words is traced back as arrays, a block of one by a walk.
    """
    results = []
    for out in _blocks(G, H, words):
        if isinstance(out, DecodeResult):
            results.append(out)
            continue
        betas, states = _dual_codes(G, H)[0], _search_tables(H).states
        results += [
            DecodeResult(tuple(y), tuple(e), wt, betas[a], states[s], t > 1)
            for y, e, wt, a, s, t in zip(*(field.tolist() for field in out))
        ]
    return results


def _decode_arrays(G, H, words):
    """``decode_tailbiting_batch``'s weights, codewords and ties of a non-empty block, as arrays.

    Returns the weights (words,), the codewords (words x N*n, 0/1 uint8)
    and the ``tie`` flags (words,) of the words in order; a block of
    several words is read from its arrays, with no ``DecodeResult``.
    """
    parts = [
        ([out.weight], np.array([out.codeword], dtype=np.uint8), [out.tie])
        if isinstance(out, DecodeResult)
        else (out.weight, out.codeword, out.ties > 1)
        for out in _blocks(G, H, words)
    ]
    weight, codeword, tie = zip(*parts)
    return np.concatenate(weight), np.concatenate(codeword), np.concatenate(tie)


class _Block(NamedTuple):
    """The results of a decode block of several words, one entry or row per word, in ``DecodeResult`` field order.

    ``codeword`` and ``error`` are (words x N*n) 0/1 uint8 rows, ``anchor``
    indexes the encoder states of ``_dual_codes`` and ``sigma`` the
    ``_search_tables`` states, and ``ties`` counts the anchors reaching
    ``weight``.
    """

    codeword: np.ndarray
    error: np.ndarray
    weight: np.ndarray
    anchor: np.ndarray
    sigma: np.ndarray
    ties: np.ndarray


def _blocks(G, H, words):
    """Per decode block of ``words``, in order: its ``_Block``, or for a block of one its ``DecodeResult``."""
    if not len(words):
        return
    if not len(words[0]):
        raise ValueError("a trellis needs at least one section")
    E = received(H, words)
    betas, duals = _dual_codes(G, H)
    tables = _search_tables(H)
    places, first, symbols, bits, step, shift = _layout(H, E.shape[1])
    for start in range(0, len(E), tables.block):
        block = E[start : start + tables.block]
        fin, zetas = sf_circular(H, block)
        rows = tables.index.take(fin[:, None] ^ duals)
        keys = zetas @ places + first
        if len(block) > 1:
            yield _decode_block(tables, block, rows, keys, step, shift, H.cols)
            continue
        w, ties, labels, sigma, beta = _search_word(tables, betas, rows, keys)
        z = (block @ symbols)[0].tolist()
        yield DecodeResult(
            codeword=tuple(chain.from_iterable(map(getitem, bits, map(xor, labels, z)))),
            error=tuple(chain.from_iterable(map(getitem, bits, labels))),
            weight=w,
            anchor_beta=beta,
            anchor_sigma=sigma,
            tie=ties > 1,
        )


def _decode_block(tables, block, rows, keys, step, shift, n):
    """The ``_Block`` of a block of several words, every anchor searched in one pass.

    ``block`` holds the words' symbol integers, ``rows`` each word's
    anchor states and ``keys`` its steps' keys; ``step`` and ``shift``
    place each symbol in its step's label.  Every (word, anchor) pair at
    its word's least weight walks forward at once; the smallest label row
    of each word, then its smallest anchor state, wins.
    """
    S, words, anchors = len(tables.states), *rows.shape
    dst, weight = sections = _sections(tables, keys)
    cost = _min_plus(sections, _ends(S).take(rows.T, axis=0).reshape(anchors, -1))
    reach = cost[0, np.arange(anchors), rows + _offsets(words, S)[..., 0]]
    w = reach.min(axis=1)
    if w.max() >= _UNREACHED:
        raise RuntimeError("no subtrellis holds a tailbiting path; inconsistent construction")
    word, anchor = np.nonzero(reach == w[:, None])
    ties = np.bincount(word, minlength=words)
    # one column per walk: its word, the label of each step, its anchor state
    walk = np.empty((len(dst) + 2, len(word)), dtype=np.intp)
    walk[0], walk[-1] = word, rows[word, anchor]
    base, key, every = word * (S + 1), keys[word], np.arange(len(word))
    at, c = walk[-1] + base, w[word]
    for t in range(len(dst)):
        d, e = dst[t][:, at], weight[t][:, at]
        slot = (e + cost[t + 1][anchor, d] == c).argmax(axis=0)
        walk[t + 1] = tables.sections.label[key[:, t], slot, at - base]
        at, c = d[slot, every], c - e[slot, every]
    # lexsort keys on its last row first: by word, then label row, then anchor state; each word's first wins
    win = np.lexsort(walk[::-1])[np.cumsum(ties) - ties]
    error = walk[1:-1, win].T.take(step, axis=1) >> shift & (1 << n) - 1
    codeword, error = (unpack(e, n).reshape(words, -1) for e in (error ^ block, error))
    return _Block(codeword, error, w, anchor[win], walk[-1, win], ties)


def _search_word(tables, betas, rows, keys):
    """A block of one word's (weight, number of anchors reaching it, labels, anchor sigma, anchor beta)."""
    sections = _sections(tables, keys)
    ends = _ends(len(tables.states))
    states, passes = rows[0].tolist(), []

    def search(anchors):
        end = rows[0].take(anchors)
        cost = _min_plus(sections, ends.take(end, axis=0))
        weight = cost[0, np.arange(len(anchors)), end].tolist()
        passes.append((cost, anchors.tolist(), weight))
        return min(weight)

    outs = [tables.sections.out[k] for k in keys[0].tolist()]
    if tables.prune:
        bound = _min_plus(sections, ends[-1:])
        lb = bound[0, 0, rows[0]]
        least = lb == lb.min()
        a = int(lb.argmin())
        if least.sum() == 1 and lb[a] < _UNREACHED:
            labels, end = _traceback(outs, bound[:, 0].tolist(), states[a])
            # closed on a: a tailbiting path of weight lb[a], below every other anchor's bound
            if end == states[a]:
                return int(lb[a]), 1, labels, tables.states[end], betas[a]
        w = search(np.flatnonzero(least))
        # no anchor whose bound exceeds w can reach w
        rest = np.flatnonzero(~least & (lb <= w))
        if len(rest):
            w = min(w, search(rest))
    else:
        w = search(np.arange(len(states)))
    if w >= _UNREACHED:
        raise RuntimeError("no subtrellis holds a tailbiting path; inconsistent construction")
    best, ties = None, 0
    for cost, anchors, weight in passes:
        for j in (j for j, x in enumerate(weight) if x == w):
            state = states[anchors[j]]
            found = _traceback(outs, cost[:, j].tolist(), state)[0], tables.states[state], betas[anchors[j]]
            best, ties = found if best is None else min(best, found), ties + 1
    return (w, ties, *best)


def format_result(res, n):
    """One-line rendering with n-bit symbol grouping."""
    return (
        f"weight={res.weight}"
        f" anchor_beta={format_state(res.anchor_beta)}"
        f" anchor_sigma={format_state(res.anchor_sigma)}"
        f" e={format_bits(res.error, group=n)}"
        f" y={format_bits(res.codeword, group=n)}"
    )
