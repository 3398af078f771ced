"""Minimum-weight error-path search over tailbiting error-trellises.

Decoding a tailbiting received word is exact maximum-likelihood for the
binary symmetric channel.  Code subtrellis beta corresponds to the error
subtrellis anchored at sigma_fin + dual(beta), so all S anchors share one
error trellis and are searched together, in backward min-plus passes
over the merged tables of ``error_trellis._search_tables``: a table
covers m consecutive sections with one merged edge per start and end
state, the lightest (m fixed per H by ``TABLE_BUDGET``; the N mod m
sections left over use the 1-section tables), so a pass makes
floor(N/m) + N mod m steps.

A block of words is decoded together.  A pass keeps, per step, an
int32 (columns x words * (states + 1)) matrix of the weight still to go
into each column's end states at cut N; a column belongs to one (word,
anchor) pair, and every word of a block has as many.  Each step is three
numpy calls: a gather of the next step's costs along every merged edge
of each word's own table, an add and a minimum over each state's edges.
The gather's flat indices and weights come from the stack of tables,
keyed by the integer each step's syndromes form, picked for all steps
and words of a block before the loop; each word's offset into the cost
row is added in place to that copy.  Edges that die inside a merged
section end in one extra, never reached state.  Where all anchors are
searched in one pass, a block holds as many words as keep that pass
within ``BLOCK_BUDGET`` entries per step (512 words of the reference
code, whose 4 states keep 4 merged edges each).  A larger block spreads
the fixed numpy cost of a step over more words; beyond a few hundred
words it is no faster and takes more memory.

A block of one word, which ``decode_tailbiting`` and every block of a
pruned code is, runs its front end on Python integers instead, where a
dozen numpy calls would cost more than the work they do.  Its symbols
are read by ``LinearMachine.word`` (tuples looked up one by one, an
array word packed at once, the first bad symbol named), the syndrome
former's one-word circular run (``LinearMachine.circular_word``, one
fold) gives sigma_fin and the syndromes, one pass over its steps packs
each step's key and received bits, and two takes from the stack give
the word's (steps x edges x states + 1) tables.  Its bound pass carries
one flat cost row per cut.  A block of several words gets its sigma_fin
and syndromes from one ``LinearMachine.circular`` of the block.

Pruning is exact and per word.  Where a pass over all anchors would
exceed the table budget (32 or 64 states, not the 4-state
reference code), a block holds one word, and a first pass with one
column that may end anywhere gives each anchor a lower bound ``lb`` on
its weight.  When one anchor alone has the least ``lb``, the traceback
walks that column from it; if the walk closes, ending in the anchor it
started from, it is the word's result and no search pass runs.  It is a
tailbiting path of weight ``lb``, which every other anchor's bound
exceeds, and the lexicographically smallest of all least-weight paths
out of the anchor, so also of those that return to it.  Otherwise a
tailbiting path is also a path into its anchor that may start anywhere:
one more 1-column pass, ``_start_anywhere``, runs ``_min_plus`` over the
tables' incoming stack in reversed step order, and each anchor's bound
rises to the larger of the two, still a lower bound.  When one anchor
alone now has the least bound and it is not the one already walked,
the same closing check walks the end-anywhere column from it; a walk
that closes weighs that anchor's end-anywhere bound, which is then its
larger bound, below every other anchor's, so the same argument holds.
Only when neither check closes are the anchors of least ``lb``
searched, giving weight w, then every other anchor with ``lb <= w``; an
anchor left out has ``lb > w``, so it can neither win nor tie.  Where
pruning does not pay, all anchors are searched in one pass.

``min_weight_path`` is the one-subtrellis reference on a built
``Trellis``: it reads the backward pass and the forward walk that every
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
at once.  A block of one word walks each pair in Python over the
tables' edge lists: the array walk's fixed numpy calls cost more than
one word's walk, which is a few list lookups per step.

One loop, ``_blocks``, decodes a block of words decode block by decode
block.  It gives a block of several words as arrays (``_Block``: weights,
codeword and error bits, winning anchors and tie counts) and a block of
one as its ``DecodeResult``.  Two readers consume it:
``decode_tailbiting_batch`` builds one ``DecodeResult`` per word, and
``_decode_arrays`` keeps the weights, codewords and ties as arrays, which
the verifier's decoder-oracle suite compares with no per-word object.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from operator import getitem, xor
from typing import NamedTuple

import numpy as np

from .codespec import check_matrices
from .error_trellis import _check_length, _search_tables
from .gf2 import format_bits, format_state
from .state_machines import _bit_tuples, dual_state_of, enc_state_space, syndrome_former, unpack
from .trellis import _walk

# above any path weight; unreachable costs grow past it by at most N*n
_UNREACHED = 2**30


class AnchorCollisionError(RuntimeError):
    """Two encoder states of a G/H pair map onto one error-subtrellis anchor."""


class DecodeResult(NamedTuple):
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
    first optimal edge in section order, the smallest label in a built
    trellis, which yields the lexicographically smallest lightest path.
    """
    cuts, i, walk = _walk(T, anchor)
    if not cuts[0][i][1]:
        raise RuntimeError(f"no tailbiting path through {format_state(anchor)}")
    labels, weight = [], cuts[0][i][0]
    for section, live, here, nxt in zip(T.sections, walk, cuts, cuts[1:]):
        k, i = next((k, j) for w, j, k in live[i] if w + nxt[j][0] == here[i][0])
        labels.append(section[k].label)
    return tuple(labels), weight


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
    """Per section cut, the least weight still to go into ``end``: one row per column, or one flat row.

    ``sections`` holds each step's (edges x words * (states + 1)) end
    states and weights; a word's states are consecutive entries of a row.
    ``end`` holds one row per column, or is one flat row: its cost at cut
    N over the states of every word.  Each step takes the next cut's
    costs along every edge, adds the weights and keeps each state's
    least.  State S, one past the last, is never reached: the tables point
    dead edges at it, and it keeps its cost.
    """
    dst, weight = sections
    cost = np.empty((len(dst) + 1, *end.shape), dtype=np.int32)
    cost[-1] = end
    for t in range(len(dst) - 1, -1, -1):
        via = cost[t + 1].take(dst[t], axis=-1)
        via += weight[t]
        np.minimum.reduce(via, axis=-2, out=cost[t])
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
    in the stack (with ``first``, 2^(r*m), added for single symbols), which
    are powers of two: a run's key concatenates its symbols' bits.  Then
    come, per symbol, its step and the shift of its n bits in the step's
    label.
    """
    m, r, n = _search_tables(H).m, H.rows, H.cols
    runs, cut = N // m, N - N % m
    t = np.arange(N)
    step = np.where(t < cut, t // m, runs + t - cut)
    place = np.where(t < cut, m - 1 - t % m, 0)
    places = np.zeros((N, runs + N - cut), dtype=np.intp)
    places[t, step] = 1 << r * place
    first = np.array([0] * runs + [1 << r * m] * (N - cut))
    return places, first, step, n * place


@lru_cache(maxsize=None)
def _label_tuples(H, N):
    """Per step of a one-word decode of N symbols, the bit tuples of its labels, indexed by label."""
    m, n = _search_tables(H).m, H.cols
    return [_bit_tuples(m * n)[0]] * (N // m) + [_bit_tuples(n)[0]] * (N % m)


@lru_cache(maxsize=None)
def _offsets(words, S):
    """Per entry of a block's cost row at one cut, the first of its word's S + 1 entries."""
    return np.repeat(np.arange(words) * (S + 1), S + 1)


def _sections(tables, keys):
    """The merged edges of a block of words: (steps x edges x words * (states + 1)) cost entries and weights.

    ``keys`` (words x steps) picks each step's run from the stack.  A
    word's entries point into its own states + 1 entries of a column's
    cost at the next cut: the offsets are added in place to the
    transposed copy.
    """
    sec = tables.sections
    shape = (keys.shape[1], sec.dst.shape[1], -1)
    dst, weight = (a.take(keys.T, axis=0).transpose(0, 2, 1, 3).reshape(shape) for a in (sec.dst, sec.weight))
    dst += _offsets(len(keys), len(tables.states))
    return dst, weight


def _start_anywhere(tables, at):
    """Per cut from N down to 0, each state's least weight from any state at cut 0, over the steps of keys ``at``.

    ``_min_plus`` over the incoming stack in reversed step order: row 0
    is cut N, where an anchor's entry bounds its weight from below.
    """
    return _min_plus(tuple(a.take(at[::-1], axis=0) for a in tables.sections.incoming), _ends(len(tables.states))[-1])


def _traceback(outs, togo, state):
    """Smallest label sequence along which ``togo`` (one column's costs, a (cuts x states + 1) memoryview) falls to 0.

    ``outs`` gives per step each state's edges.  Returns the label
    integer of each section's edge and the state the walk ends in: on a
    column that ends in one state only, that state; on the bound pass's
    column, any state, so that the walk closes only if it returns to
    where it started.
    """
    labels, c = [], togo[0, state]
    for t, out in enumerate(outs, 1):
        for label, dst, w in out[state]:
            if togo[t, dst] == c - w:
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
    """Per decode block of ``words``, in order: its ``_Block``, or for a block of one its ``DecodeResult``.

    The symbols are read first, then the words are checked to be non-empty
    and N >= M.
    """
    if not len(words):
        return
    sf = syndrome_former(H)
    E = [sf.word(words[0])] if len(words) == 1 else sf.symbol_ints(words, 2)
    if not len(E[0]):
        raise ValueError("a trellis needs at least one section")
    _check_length(H, len(E[0]))
    if len(words) == 1:
        yield _decode_word(G, H, E[0])
        return
    duals = _dual_codes(G, H)[1]
    tables = _search_tables(H)
    places, first, step, shift = _layout(H, E.shape[1])
    for start in range(0, len(E), tables.block):
        block = E[start : start + tables.block]
        if len(block) == 1:
            yield _decode_word(G, H, block[0].tolist())
            continue
        fin, zetas = sf.circular(block)
        rows = tables.index.take(fin[:, None] ^ duals)
        yield _decode_block(tables, block, rows, zetas @ places + first, step, shift, H.cols)


def _decode_word(G, H, es):
    """The ``DecodeResult`` of one word of N >= M symbol integers, on Python integers.

    The syndrome former's one-word circular run gives sigma_fin and the
    N syndromes.  One pass over the steps then packs each step's key in
    the stack and its received bits, the first symbol most significant.
    """
    betas, duals = _dual_codes(G, H)
    tables = _search_tables(H)
    N, m, r, n = len(es), tables.m, H.rows, H.cols
    fin, zetas = syndrome_former(H).circular_word(es)
    cut, keys, zs = N - N % m, [], []
    for t in range(0, cut, m):
        key = z = 0
        for i in range(t, t + m):
            key, z = key << r | zetas[i], z << n | es[i]
        keys.append(key)
        zs.append(z)
    keys += [(1 << r * m) + zeta for zeta in zetas[cut:]]
    zs += es[cut:]
    w, ties, labels, sigma, beta = _search_word(tables, betas, tables.index.take(fin ^ duals), keys)
    bits = _label_tuples(H, N)
    codeword = tuple(chain.from_iterable(map(getitem, bits, map(xor, labels, zs))))
    return DecodeResult(codeword, tuple(chain.from_iterable(map(getitem, bits, labels))), w, beta, sigma, ties > 1)


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
    reach = cost[0, np.arange(anchors), rows + np.arange(words)[:, None] * (S + 1)]
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
    """One word's (weight, number of anchors reaching it, labels, anchor sigma, anchor beta).

    ``rows`` holds its anchor states and ``keys`` its steps' keys, which
    take its steps' (edges x states + 1) end states and weights from the
    stack.
    """
    at, sec = np.array(keys), tables.sections
    sections = sec.dst.take(at, axis=0), sec.weight.take(at, axis=0)
    ends = _ends(len(tables.states))
    states, passes = rows.tolist(), []

    def search(anchors):
        end = rows.take(anchors)
        cost = _min_plus(sections, ends.take(end, axis=0))
        weight = cost[0, np.arange(len(anchors)), end].tolist()
        passes.append((cost, anchors.tolist(), weight))
        return min(weight)

    outs = [tables.sections.out[k] for k in keys]
    if tables.prune:
        bound = _min_plus(sections, ends[-1])
        # a walk reads about two entries per cut, fewer than converting the table costs
        view = memoryview(bound)
        lb, tried = bound[0].take(rows), None
        for second in (False, True):
            if second:
                # a tailbiting path also starts anywhere, so the larger bound is one too; a walk that closes on
                # the end-anywhere column weighs lb[a], which is then a's larger bound
                lb = np.maximum(lb, _start_anywhere(tables, at)[0].take(rows))
            low = min(bounds := lb.tolist())
            a = bounds.index(low) if bounds.count(low) == 1 and low < _UNREACHED else None
            if a is not None and a != tried:
                labels, end = _traceback(outs, view, states[a])
                # closed on a: a tailbiting path of weight lb[a], below every other anchor's bound
                if end == states[a]:
                    return low, 1, labels, tables.states[end], betas[a]
            tried = a
        least = lb == low
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
            found = _traceback(outs, memoryview(cost[:, j]), state)[0], tables.states[state], betas[anchors[j]]
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
