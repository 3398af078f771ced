"""Minimum-weight error-path search over tailbiting error-trellises.

Decoding a tailbiting received word is exact maximum-likelihood for the
binary symmetric channel.  Code subtrellis beta corresponds to the error
subtrellis anchored at sigma_fin + dual(beta), so all S anchors share one
error trellis and are searched together, in backward min-plus passes,
or walks over the metric automaton below that take the same steps,
over the merged tables of ``_search_tables``: a table covers m
consecutive sections with one merged edge per start and end state, the
lightest (m fixed per H by ``TABLE_BUDGET``; the N mod m sections left
over use the 1-section tables), so a pass makes floor(N/m) + N mod m
steps.

The merged m-section tables hold, of the m-step syndrome-former paths
that emit a run of m syndromes, the lightest from each state to each end
state: ``_search_tables`` enumerates those paths once per H, as one
broadcast XOR of the tables of the syndrome former's m-step machine
(``LinearMachine.power``), and keeps one per start and end state.  The
kept paths of runs of m and of single symbols form one list of merged
edges, keyed by the integer their syndromes form, which is scattered
once into every table of one record (``SearchTables``): out of each
start state and, in an incoming stack, into each end state.  That
record holds what both decode rules read; the automaton's own tables
are in ``_Automaton``, and the rows the pruned search's tracebacks walk,
each key's edges per state as plain lists (``_edge_rows``), are built
once in the pair record of a code with no automaton.  ``_singles``
tabulates, per H and N, the circular syndrome and state of every
single-bit error of a word of N symbols, which the low-weight
certificate reads.  This module is the one reader of the stack's key
layout, which it also builds.

Each code gets one decode rule, and a block of words one pipeline
(``_blocks``): a decode block holds as many words as keep
``BLOCK_BUDGET`` (word, anchor) walks per step, 1,024 words of a 4-state
code, so the verifier's 1,000 decoder-oracle words are one block, and 64
of the 64-state code.  A code with a metric automaton (below; the
4-state codes of the tests) walks it with a block's words together.  A
larger block spreads the fixed numpy cost of a step over more words;
beyond about a thousand words it is no faster and takes more memory.
Every other code (16, 32 or 64 states) prunes its anchors, one word of
a block at a time.

Every decode of a G/H pair reads one record (``_Pair``), built on the
pair's first decode and found by one lookup on (G, H), the class being
its own ``lru_cache``: the encoder states and the anchor states of each
sigma_fin, H's tables and automaton, the search's traceback rows, and,
as plain lists and dicts, what a one-word decode reads.
A one-word decode (``decode_tailbiting``) runs in one frame,
``_Pair.decode``, on Python integers, where a dozen numpy calls would
cost more than the work they do.  A word of symbol tuples is read a run
of m symbols at a time, one dict lookup per run; any other form (an
array, lists, bools) is read by ``LinearMachine.word``, which names the
first bad symbol, and decoded as tuples.  The syndrome former's circular
run then gives sigma_fin and each step's key in the stack: one fold of
the one-step machine over the word's last M symbols gives the state at
cut 0, from which the m-step machine (``LinearMachine.power``) takes
each run of m symbols in one XOR of its two tables, and the one-step
machine each of the N mod m single symbols left.  Both machines' tables
are repacked in the record so that a step's output is its key.  On a
code without a metric automaton two takes from the stack give the word's
(steps x edges x states + 1) tables, and its bound pass carries one flat
cost row per cut.  A decode block, of any code, is read once as symbol
integers and gets its sigma_fin and syndromes from one
``LinearMachine.circular`` of the block, so its words' anchor rows, and
its keys from the transposed syndromes by one shift-or per symbol of a
run, in time and memory linear in N.

On a code with no metric automaton a word goes four ways, in order: the
low-weight certificate, the bound pass and its closing check, the
start-anywhere pass and its own, then the search.  The certificate
(``_certificate``) reads the word's syndrome s, its circular run's step
outputs packed into one integer, against a table of the N*n single-bit
errors (``_singles``), of which the pair record keeps the last
``LENGTHS`` lengths decoded: s = 0, a syndrome that one
bit alone has, one that exactly one pair of bits has, or, when no error
of weight <= 2 has s, one that exactly one triple of bits has.  Every
error with syndrome s != 0 has an odd number of bits whose syndrome
covers s's lowest set bit; taking one such bit out of a triple leaves a
pair with syndrome s XOR that bit's, which the pair rule finds, so the
pair rule over each covering bit finds every triple.  Each
tailbiting path of the error trellis is an error sequence with the
word's syndrome whose circular state is an anchor, so when exactly one
error of weight <= 3, among all of them, has that syndrome, no lighter
one does and its state is an anchor, it is the word's unique optimum:
``tie`` is False and no label order is left to choose.  This is syndrome
decoding (Schalkwijk and Vinck, IEEE Trans. Commun. 1976) used as an
exact certificate; the table, not the code's free distance, proves it.
The weight stops at 3: a search for weight 4 by the same nesting costs
about as much as the bound pass it would skip.  Any other word runs the
passes below, as it did before.

Pruning is exact and per word.  On a code with no metric automaton a
first pass with one column that may end anywhere gives each anchor a
lower bound ``lb`` on its weight.  When one anchor alone has the least
``lb``, the traceback walks that column from it; if the walk closes,
ending in the anchor it started from, it is the word's result and no
search pass runs.  It is a tailbiting path of weight ``lb``, which every
other anchor's bound exceeds, and the lexicographically smallest of all
least-weight paths out of the anchor, so also of those that return to
it.  Otherwise a tailbiting path is also a path into its anchor that may
start anywhere: one more 1-column pass, ``_start_anywhere``, runs
``_min_plus`` over the tables' incoming stack in reversed step order,
and each anchor's bound rises to the larger of the two, still a lower
bound.  When one anchor alone now has the least bound and it is not the
one already walked, the same closing check walks the end-anywhere column
from it; a walk that closes weighs that anchor's end-anywhere bound,
which is then its larger bound, below every other anchor's, so the same
argument holds.  Only when neither check closes is the search run, one
loop over two sets of anchors: those of least ``lb``, giving weight w,
then every other anchor with ``lb <= w``; an anchor left out has
``lb > w``, so it can neither win nor tie.  The closing check is the first
iteration of the wrap-around Viterbi algorithm (Shao, Lin and Fossorier,
IEEE Trans. Commun. 2003).

A code with a metric automaton (``_automaton``) runs no pass at all: its
words walk it.  With hard decisions a backward pass only ever reaches a
few normalized cost columns, a column less its least entry below
``_UNREACHED`` with its unreached entries held there, and the normalized
column at a cut follows from the one at the next cut and the step's key
alone.  So the columns form a finite automaton, the metric-state chain
of Viterbi decoding (Best, Burnashev, Levy, Rabinovich, Fishburn,
Calderbank and Costello, IEEE Trans. Inf. Theory 1995).  It is built
once per H with numpy, breadth first from the S anchor columns under
every single symbol; a run of m symbols steps as its symbols do, the
last first, so the stack's keys reach no other column.  In a one-word
decode each anchor walks its word's keys backward, one list lookup per
step, and weighs its last column's entry at the anchor plus the offsets
it subtracted: min(w + c - k) = min(w + c) - k, so the weights, ``tie``,
the anchors and the smallest optimal error are those of a min-plus pass
over every anchor.  Per column, key and state the automaton also keeps
the first edge, in label order, that a traceback takes into the column,
packed as its label above its end state (``edges``), so each anchor of
least weight is traced forward with one lookup per step.  In a decode
block every (anchor, word) column walks back at once, one gather
of the next columns and offsets per step keyed by the step's keys, each
column starting at its anchor's own, then forward, one gather of its
packed edge per step from the same table.
Where the columns would hold more than ``TABLE_BUDGET`` entries
(columns x (states + 1)), as on the 16-, 32- and 64-state codes, there
is no automaton and the code prunes; the reference code has 24 columns.

``min_weight_path`` is the one-subtrellis reference on a built
``Trellis``: it reads the backward pass and the forward walk that every
subtrellis query in ``trellis`` shares.

Ties inside a subtrellis resolve to the lexicographically smallest label
sequence: from each anchor reaching the minimum, a forward walk takes
the first merged edge, in concatenated-label order, whose weight plus
the next step's cost equals the current cost (an automaton walk reads
that edge from ``edges``).  Ties across anchors set the ``tie`` flag and
resolve to the smallest label sequence, then the smallest anchor state.

A block of a code with a metric automaton walks all of its (anchor,
word) pairs forward together as arrays, time-major, one gather per step
(``_decode_block``); a pair with no tailbiting path walks too, and is
dropped.  numpy reduces across a long row far faster than along many
short ones (``min(axis=1)`` of a 1,000 x 4 array took 28 us, of a
4 x 1,000 one 2 us, numpy 2.4 on a 2-core x86-64 host), so each choice is
one elementwise operation across the block's words, the anchors down a
short axis: the least weight, the tie count, the pick of the walks still
at their word's least entry, label row by label row and then on the
anchor states, and the winning anchor.  A one-word decode walks each
pair in Python, reading each step's packed edge.  A pruned word, alone
or in a block (``_search_block``), is traced back in Python too, by the
first edge of its cost column that falls by its weight.  The array
walk's fixed numpy calls cost more than one word's walk, which is a few
list lookups per step.  Every back end gives its winner as (weight,
ties, labels, search-table row, encoder-state index); the rows and
indices ascend as the states they stand for, so ties break as on the
states, and ``_Pair.decode`` maps both to states once, at the end.  A
block's winners' labels split by shifts into the errors' symbol
integers, a run's label into its m symbols, and the codewords are those
XOR the block's own symbol integers (``_as_block``);
``decode_tailbiting_batch`` unpacks both to bits.

One loop, ``_blocks``, decodes a block of words decode block by decode
block.  It gives every block as arrays (``_Block``: weights, codewords
and errors as symbol integers, winning anchors and tie counts).  Two
readers consume it: ``decode_tailbiting_batch`` unpacks the symbols to
bits and builds one ``DecodeResult`` per word, and ``_decode_arrays``
keeps the weights, codewords and ties as arrays, the codewords as symbol
integers, the form of the verifier's codeword table, which its
decoder-oracle suite compares with no per-word object and no unpacking.
"""

from __future__ import annotations

from functools import lru_cache, partial, reduce
from itertools import count, product
from operator import getitem, xor
from typing import NamedTuple

import numpy as np

from .codespec import check_matrices
from .error_trellis import _check_length
from .gf2 import format_bits, format_state
from .state_machines import _powers, dual_state_of, enc_state_space, syndrome_former, unpack
from .trellis import _walk

# above any path weight; unreachable costs grow past it by at most N*n
_UNREACHED = 2**30
# (word, anchor) walks per step of a multi-word block of a code with a metric automaton: a block holds
# BLOCK_BUDGET // S words, 1,024 of a 4-state code
BLOCK_BUDGET = 1 << 12
# the lengths whose single-bit error tables (``_singles``) a pair record keeps, the most recently used
LENGTHS = 8
# entries the merged tables of one H may hold: it bounds m, the number of
# sections merged into one table, by the tables and by the labels of a
# run, and the metric automaton by its columns x (states + 1)
TABLE_BUDGET = 1 << 12


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


class SearchTables(NamedTuple):
    """The search tables of one H, over dense state indices; states in ``sf_state_space`` order.

    The stack holds the merged modules of runs of syndrome symbols, read
    out of each state by the search passes and the metric automaton's
    build and, through its incoming stack, into each state by the
    start-anywhere pass.  Under one symbol zeta a state has ``degree``
    edges or none, because the inputs e with eD = zeta + xC form a coset
    of the kernel of D or none.  Over j symbols it keeps one merged edge
    per end state, at most min(degree^j, S) of them: of the j-step paths
    of the syndrome former that emit the run and end there, the lightest,
    then the one of smallest label.  Each merged edge of an optimal path
    is a lightest one between its two states, so the first optimal edge
    in label order, which both tracebacks take, is a kept one: weights,
    ties and the smallest optimal error are those over all paths.  The
    stack holds every run of m symbols at the key its symbols' r-bit
    integers form, read as one integer, then every single symbol zeta at
    2^(r*m) + zeta; a run the syndrome former never emits has no edges.
    ``dst`` and ``weight`` (keys x slots x states + 1, slots the most
    edges a state keeps under one key) give each merged edge's end state
    and label weight, the edges of a state in concatenated-label order.
    Slots past a state's edges, and all of state S's, end in index S, one
    past the last state, which the search never reaches; their weight is
    0.  ``label`` (the same shape) gives each merged edge's label, the
    integer of its concatenated error symbols, the first symbol most
    significant.  ``incoming`` is the same edges read the other way: per
    key and end state, the merged edges that arrive there, as (start
    states, weights), each (keys x in-slots x states + 1), start states
    ascending.  It runs the backward min-plus kernel forward, in reversed
    step order, so a pass from every state at cut 0 gives each state at
    cut N its least incoming weight, the start-anywhere bound of the
    anchor there.  Its slots past a state's edges, and all of state S's,
    start in S with weight 0.
    """

    states: list
    index: np.ndarray  # syndrome-former state integer -> dense index, -1 if pinned
    m: int
    dst: np.ndarray
    weight: np.ndarray
    label: np.ndarray
    incoming: tuple


def _rank(group):
    """Each entry's rank among the earlier entries of its group."""
    order = group.argsort(kind="stable")
    rank = np.empty_like(group)
    rank[order] = np.arange(group.size) - np.searchsorted(group[order], group[order])
    return rank


def _paths(sf, j):
    """The lightest j-step path of ``sf`` from each state to each end state under each key.

    One broadcast XOR of the two tables of ``sf.power(j)`` steps every
    state under every run of j inputs, so path p's label is p, the
    integer of its j input symbols, and its key the integer of its j
    syndrome symbols.  Of the paths with one start, key and end state the
    lightest, then the one of smallest label, is kept.  Returns the kept
    paths' start indices, keys, end states and labels, in start, then
    label order.
    """
    run, S, P = sf.power(j), len(sf.states), len(sf.from_input) ** j
    x, key = np.divmod(run.tables[0][sf.states][:, None] ^ run.tables[1], 1 << run.out_bits)
    label = np.arange(S * P) % P
    edge = (key + (np.arange(S)[:, None] << run.out_bits)).ravel() << sf.state_bits | x.ravel()
    # sorted stably by (start, key, end state), then weight, each merged edge's kept path comes first
    order = (edge * (run.in_bits + 1) + np.bitwise_count(label)).argsort(kind="stable")
    first = np.append(True, edge[order[1:]] != edge[order[:-1]])
    keep = np.flatnonzero(np.bincount(order[first], minlength=len(edge)))
    return keep // P, key.ravel()[keep], x.ravel()[keep], label[keep]


@lru_cache(maxsize=None)
def _search_tables(H):
    """The syndrome former's m-step and single-step paths, one per end state, bucketed by the syndromes they emit.

    Built once per H with numpy: m is the largest run for which both the
    tables over all 2^(r*m) runs, emitted or not, with min(degree^m, S)
    slots per state, and the 2^(n*m) labels of a run fit
    ``TABLE_BUDGET``.  The kept paths of runs of m and of single symbols,
    the latter's keys from 2^(r*m) on, form one list of merged edges,
    scattered once into every table.  An edge's out-slot is its rank in
    label order among the edges of its key and start, its in-slot its
    rank in start order among those of its key and end state.
    """
    sf = syndrome_former(H)
    S = len(sf.states)
    index = np.full(len(sf.state_tuples), -1, dtype=np.intp)
    index[sf.states] = np.arange(S)
    states = [sf.state_tuples[x] for x in sf.states]
    degree = int(np.bincount(sf.tables[1] & sf.out_mask).max())
    m = 1
    # the tables of a run of m + 1 symbols and its labels
    while max(2 ** (sf.out_bits * (m + 1)) * S * min(degree ** (m + 1), S), 2 ** (sf.in_bits * (m + 1))) <= TABLE_BUDGET:
        m += 1
    first = 1 << sf.out_bits * m
    runs, single = _paths(sf, m), _paths(sf, 1)
    start, key, end, path = (np.concatenate(parts) for parts in zip(runs, single))
    key[len(runs[0]) :] += first
    end, weight = index[end], np.bitwise_count(path).astype(np.int32)
    slot, in_slot = _rank(key * S + start), _rank(key * S + end)
    shape = (first + 2**sf.out_bits, int(slot.max()) + 1, S + 1)
    at, into = (key, slot, start), (key, in_slot, end)
    dst, weights, label = np.full(shape, S, dtype=np.intp), np.zeros(shape, dtype=np.int32), np.zeros(shape, dtype=np.intp)
    dst[at], weights[at], label[at] = end, weight, path
    src = np.full((shape[0], in_slot.max() + 1, S + 1), S, dtype=np.intp)
    src_weight = np.zeros(src.shape, dtype=np.int32)
    src[into], src_weight[into] = start, weight
    return SearchTables(states, index, m, dst, weights, label, (src, src_weight))


def _edge_rows(tables):
    """Per stack key, each state below S's merged edges in label order as (label, end state index, weight).

    Read out of ``label``, ``dst`` and ``weight`` at once, as plain lists:
    the rows a pruned word's tracebacks walk, one list lookup per step.
    """
    S, arrays = len(tables.states), (tables.label, tables.dst, tables.weight)
    label, dst, weight = (a[:, :, :-1].transpose(0, 2, 1).tolist() for a in arrays)
    return [[[e for e in zip(*edges) if e[1] < S] for edges in zip(*key)] for key in zip(label, dst, weight)]


def _singles(H, N):
    """What ``_certificate`` reads of the N*n single-bit errors of a word of N symbols of H.

    Returns (states, places, bit, covers, widths, heaviest).  Per bit,
    symbol by symbol and most significant first, ``states`` holds its
    circular state and ``places`` its step and the bit it sets in that
    step's label.  ``bit`` maps each bit's circular syndrome, the N
    outputs packed with the first symbol's most significant, to the bit,
    or to -1 where two bits share it; ``covers`` lists per syndrome bit,
    the least significant first, the syndromes that have it, in bit
    order.  ``widths`` holds the bits of each step's outputs, and
    ``heaviest`` the most set bits of a single-bit syndrome, so no k
    bits together have a syndrome of more than k * ``heaviest``; the
    certificate finds pairs by ``covers`` and ``bit``, and triples by the
    pairs of s XOR each syndrome covering s's lowest set bit.  One
    ``LinearMachine.circular`` of the bits of the last d + 1 symbols
    gives them: only a bit of the last d symbols leaves a state at cut N,
    and the circular run is linear and shift-invariant, so the last
    symbol's syndromes, rotated by t symbols, are those of the symbol t
    earlier.
    """
    sf, n, r, m, W = syndrome_former(H), H.cols, H.rows, _search_tables(H).m, N * H.rows
    first, cut = max(N - sf.degree - 1, 0), N - N % m
    x, outs = sf.circular((np.eye(N - first, N, first, dtype=np.intp)[:, None] * _powers(n)[:, None]).reshape(-1, N))
    last = [reduce(lambda v, o: v << r | o, row, 0) for row in outs[-n:].tolist()]
    bit, covers = {}, [[] for _ in range(W)]
    for i, v in enumerate((u << k * r | u >> W - k * r) & (1 << W) - 1 for k in range(N - 1, -1, -1) for u in last):
        bit[v], rest = -1 if v in bit else i, v
        while rest:
            covers[(rest & -rest).bit_length() - 1].append(v)
            rest &= rest - 1
    # a run's symbols fill its label from the most significant end; a single symbol past the cut is a step alone
    places = [(t // m + max(t - cut, 0), 1 << n * (m - 1 - t % m) * (t < cut) + n - 1 - j) for t in range(N) for j in range(n)]
    widths = [r * m] * (N // m) + [r] * (N % m)
    return [0] * (first * n) + x.tolist(), places, bit, covers, widths, max(u.bit_count() for u in last)


class _Pair:
    """What every decode of one G/H pair reads, built on its first decode and found by one ``_pair`` lookup.

    ``betas`` holds the encoder states, ``duals`` the syndrome-former
    integers of their dual states (an array), and ``anchors`` per
    syndrome-former state integer x the dense indices of x + dual(beta),
    one per beta: the anchor states of a word whose sigma_fin is x.  H's
    ``_search_tables`` and ``_automaton`` (or None) are kept as built.  The
    rest is what ``decode`` reads, as plain lists and dicts: ``run_index``
    and ``symbol_index`` map a run of m symbol tuples and a symbol tuple to
    its integer, ``bits`` a run's and a symbol's label integer to its bits (a
    bytes of 0/1 values), and ``steps`` holds the tables of the syndrome
    former's m-step and one-step machines repacked to one layout, each
    entry its next state above r*m + 1 output bits.  A step's output is
    then its key in the stack: a run's m syndromes, and a single symbol's
    syndrome plus 2^(r*m), a bit only the one-step state table holds, so
    one XOR keeps it.  ``singles`` is ``_singles`` of H by length, of which
    the last ``LENGTHS`` are kept.  ``out`` holds, on a pair with no
    metric automaton, the rows its tracebacks walk (``_edge_rows``), built
    once for every key; a pair with an automaton never reads them and
    holds None.  The class is its own cache: ``_pair`` is ``_Pair`` under
    ``lru_cache``, so a decode finds the record by one lookup on (G, H).
    The pair is first checked as a spec load checks it
    (``check_matrices``).
    """

    def __init__(self, G, H):
        check_matrices(G, H)
        betas, sf, tables = enc_state_space(G), syndrome_former(H), _search_tables(H)
        duals = np.array([sf.state(dual_state_of(G, H, beta)) for beta in betas])
        if len(set(duals.tolist())) != len(betas):
            message = "encoder states map onto colliding error-subtrellis anchors; "
            raise AnchorCollisionError(message + "the dual-state labeling is not one-to-one for this G/H pair")
        self.H, self.sf, self.betas, self.duals, self.tables, self.automaton = H, sf, betas, duals, tables, _automaton(H)
        self.m, self.shift, run = tables.m, H.rows * tables.m + 1, sf.power(tables.m)
        self.anchors = {x: tables.index[x ^ duals].tolist() for x in sf.states}
        self.run_index, self.symbol_index = dict(zip(product(sf.in_tuples, repeat=self.m), count())), sf._in_index
        self.bits = [[bytes(t) for t in product((0, 1), repeat=H.cols * k)] for k in (self.m, 1)]
        # each entry's next state moved up to bit r*m + 1, and a single symbol's 2^(r*m) set in the one-step state table
        self.steps = [
            [[v >> M.out_bits << self.shift | v & M.out_mask | b for v in t.tolist()] for t, b in zip(M.tables, (bias, 0))]
            for M, bias in ((run, 0), (sf, 1 << self.shift - 1))
        ]
        self.singles = lru_cache(maxsize=LENGTHS)(partial(_singles, H))
        self.out = _edge_rows(tables) if self.automaton is None else None

    def decode(self, z):
        """The ``DecodeResult`` of one received word, in one frame.

        A sequence of symbol tuples is read a run of m symbols at a time,
        one dict lookup per run, and its N mod m last symbols one at a
        time; any other form, or a bad symbol, is read by
        ``LinearMachine.word``, which names the first bad one, and decoded
        as tuples.  The length is checked after the symbols.  One fold of
        the one-step machine over the word's last d = M <= N symbols gives
        the state at cuts 0 and N; from it each run takes
        one XOR of the m-step tables and each single symbol one of the
        one-step tables, whose outputs are the steps' keys.  With a metric
        automaton every anchor then walks it back from cut N, and each
        anchor of least weight is traced forward over the columns it
        passed (``_Automaton``); otherwise ``_certificate``, then
        ``_search_word``, decides.  The winner's labels, and those XOR the
        received steps, are read out as bits, and its search-table row and
        encoder-state index as states.
        """
        try:
            N, m, symbols = len(z), self.m, self.symbol_index
            es = [*map(self.run_index.__getitem__, zip(*[iter(z)] * m)), *map(symbols.__getitem__, z[N - N % m :])]
        except (KeyError, TypeError):
            return self.decode(list(map(self.sf.in_tuples.__getitem__, self.sf.word(z))))
        if not N:
            raise ValueError("a trellis needs at least one section")
        if N < self.H.deg:
            _check_length(self.H, N)
        (run, one), runs, d, shift, x, keys = self.steps, N // m, self.sf.degree, self.shift, 0, []
        # the last d = M <= N symbols, then the runs of m, then the single symbols
        mask, prefix = (1 << shift) - 1, map(symbols.__getitem__, z[N - d :])
        for (from_state, from_input), part in ((one, prefix), (run, es[:runs]), (one, es[runs:])):
            for e in part:
                v = from_state[x] ^ from_input[e]
                x = v >> shift
                keys.append(v & mask)
        rows, tables, keys, S = self.anchors[x], self.tables, keys[d:], len(self.tables.states)
        if self.automaton is None:
            found = _certificate(self.singles(N), keys, rows, tables)
            w, ties, labels, row, anchor = found or _search_word(self, rows, keys)
        else:
            # min(w + c - k) = min(w + c) - k: an anchor's weight is its last column's entry at it plus the offsets
            (columns, nxt, low, edges), back, weight, passed, walks = self.automaton.lists, keys[::-1], [], [], []
            for s in rows:
                c, k, cols = s, 0, []
                for key in back:
                    cols.append(c)
                    c, k = nxt[c][key], k + low[c][key]
                weight.append(columns[c][s] + k)
                passed.append(cols)
            if (w := min(weight)) >= _UNREACHED:
                raise RuntimeError("no subtrellis holds a tailbiting path; inconsistent construction")
            # each anchor of least weight is traced forward over the columns it passed, one packed edge a step
            for a, reach in enumerate(weight):
                if reach == w:
                    labels, s = [], rows[a]
                    for key, c in zip(keys, reversed(passed[a])):
                        v = edges[c][key * S + s]
                        labels.append(v >> 8)
                        s = v & 255
                    walks.append((labels, rows[a], a))
            ties, (labels, row, anchor) = len(walks), min(walks)
        bits = [self.bits[0]] * runs + [self.bits[1]] * (N - runs * m)
        codeword = tuple(b"".join(map(getitem, bits, map(xor, labels, es))))
        error = tuple(b"".join(map(getitem, bits, labels)))
        return tuple.__new__(DecodeResult, (codeword, error, w, self.betas[anchor], tables.states[row], ties > 1))


_pair = lru_cache(maxsize=None)(_Pair)


def _min_plus(sections, end):
    """Per section cut, the least weight still to go into ``end``: one row per column, or one flat row.

    ``sections`` holds each step's (edges x states + 1) end states and
    weights, or (edges x copies * (states + 1)) where the automaton's build
    steps several copies of a column at once; a copy's states are
    consecutive entries of a row.  ``end`` holds one row per column, or is
    one flat row: its cost at cut N.  Each step takes the next cut's
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


class _Automaton(NamedTuple):
    """The normalized cost columns one H's backward passes reach from its anchors, and the steps between them.

    ``columns`` (columns x states + 1, int32) holds the columns, the first
    S the anchor columns of ``_ends``, in state order.  One min-plus step
    of column c under ``key`` is column ``nxt[c, key]`` plus
    ``low[c, key]`` (columns x keys, intp and int32) at every entry below
    ``_UNREACHED``.  Into column c under ``key``, a state below S on a
    lightest path leaves by the merged edge ``edges[c, key * S + state]``
    (int32), its label times 256 plus its end state (S < 64): the first,
    in label order, of least weight plus c's entry at its end state,
    which is the edge a traceback takes.  A block's walks gather it, and
    a one-word walk indexes it through ``lists``, which holds the
    columns, ``nxt`` and ``low`` as lists of rows and a memoryview of
    each column's row of ``edges``.
    """

    columns: np.ndarray
    nxt: np.ndarray
    low: np.ndarray
    edges: np.ndarray
    lists: tuple


@lru_cache(maxsize=None)
def _automaton(H):
    """The ``_Automaton`` of H's all-anchor search, or None where its columns exceed ``TABLE_BUDGET``.

    Built once, breadth first from the anchor columns: each round is one
    ``_min_plus`` step of every new column under every single symbol,
    normalized by its least entry below ``_UNREACHED``, with unreached
    entries held at ``_UNREACHED``.  A run's merged edges are its lightest
    paths, so its step is its symbols' steps, the last symbol first, and
    reaches no other column.  The budget is checked before each round: the
    64 anchor columns of K=7 alone exceed it, and the 16- and 32-state
    codes pass it within a few rounds.  A code with no automaton prunes.
    """
    tables = _search_tables(H)
    S, r, m = len(tables.states), H.rows, tables.m
    columns = _ends(S)[:S].tolist()
    # the single symbols' keys, 2^(r*m) on, stepped at once on a row holding one copy of the column per symbol
    first, symbols = 1 << r * m, 1 << r
    dst = tables.dst[first:] + np.arange(symbols)[:, None, None] * (S + 1)
    step = tuple(a.transpose(1, 0, 2).reshape(1, a.shape[1], -1) for a in (dst, tables.weight[first:]))
    seen, done, nxt, low = {tuple(c): i for i, c in enumerate(columns)}, 0, [], []
    while done < len(columns):
        if len(columns) * (S + 1) > TABLE_BUDGET:
            return None
        new, done = np.array(columns[done:], dtype=np.int32), len(columns)
        cost = _min_plus(step, np.tile(new, symbols))[0].reshape(-1, S + 1)
        least = cost.min(axis=1, keepdims=True)
        least[least >= _UNREACHED] = 0
        low += least.ravel().tolist()
        for column in np.where(cost < _UNREACHED, cost - least, _UNREACHED).tolist():
            nxt.append(seen.setdefault(tuple(column), len(seen)))
            if len(seen) > len(columns):
                columns.append(column)
    table, (nxt, low) = np.array(columns, dtype=np.int32), (np.reshape(a, (-1, symbols)) for a in (nxt, low))
    # a run's key holds its last symbol in the low r bits
    at, gain, run = np.arange(len(table))[:, None], 0, np.arange(first)
    for p in range(m):
        z = run >> r * p & symbols - 1
        at, gain = nxt[at, z], gain + low[at, z]
    # each state's slots last, so the traceback's slot is an argmin over the last axis
    dst, weight = (a[:, :, :S].transpose(0, 2, 1).ravel() for a in (tables.dst, tables.weight))
    via = table.take(dst, axis=1)
    via += weight
    slots = via.reshape(len(table), -1, tables.dst.shape[1]).argmin(axis=-1)
    nxt, low = np.hstack((at, nxt)), np.hstack((gain, low)).astype(np.int32)
    # each slot's edge, its label above its end state's 8 bits (S < 64), which both walks read
    key, state = np.divmod(np.arange(slots.shape[1]), S)
    edges = (tables.label << 8 | tables.dst).astype(np.int32).take((key * tables.dst.shape[1] + slots) * (S + 1) + state)
    return _Automaton(table, nxt, low, edges, (table.tolist(), nxt.tolist(), low.tolist(), [*map(memoryview, edges)]))


def _start_anywhere(tables, at):
    """Per cut from N down to 0, each state's least weight from any state at cut 0, over the steps of keys ``at``.

    ``_min_plus`` over the incoming stack in reversed step order: row 0
    is cut N, where an anchor's entry bounds its weight from below.
    """
    return _min_plus(tuple(a.take(at[::-1], axis=0) for a in tables.incoming), _ends(len(tables.states))[-1])


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
    """Exact minimum-weight tailbiting decoding of the received word z.

    The pair is checked first, then the symbols are read, then the word is
    checked to be non-empty and N >= M (``_Pair.decode``).
    """
    return _pair(G, H).decode(z)


def decode_tailbiting_batch(G, H, words):
    """``decode_tailbiting`` of each word of a block of equal-length words, in order.

    The block is decoded in blocks of ``BLOCK_BUDGET // S`` words
    (``_blocks``); each block's codewords and errors are unpacked from its
    symbol integers to bits at once.
    """
    pair, results = _pair(G, H), []
    for out in _blocks(pair, words):
        bits = [unpack(field, H.cols).reshape(len(field), -1) for field in out[:2]]
        results += [
            DecodeResult(tuple(y), tuple(e), wt, pair.betas[a], pair.tables.states[s], t > 1)
            for y, e, wt, a, s, t in zip(*(field.tolist() for field in (*bits, *out[2:])))
        ]
    return results


def _decode_arrays(G, H, words):
    """``decode_tailbiting_batch``'s weights, codewords and ties of a non-empty block, as arrays.

    Returns the weights (words,), the codewords (words x N symbol
    integers, intp, the form of ``LinearMachine.symbol_ints`` and of the
    verifier's codeword table) and the ``tie`` flags (words,) of the words
    in order, read from the blocks' arrays with no ``DecodeResult`` and no
    bits.
    """
    weight, codeword, tie = zip(*((out.weight, out.codeword, out.ties > 1) for out in _blocks(_pair(G, H), words)))
    return np.concatenate(weight), np.concatenate(codeword), np.concatenate(tie)


class _Block(NamedTuple):
    """The results of a decode block, one entry or row per word, in ``DecodeResult`` field order.

    ``codeword`` and ``error`` are (words x N) rows of symbol integers
    (intp, each symbol's n bits the first most significant, as
    ``LinearMachine.symbol_ints`` packs them), ``anchor`` indexes the
    encoder states of ``_Pair`` and ``sigma`` the ``_search_tables``
    states, and ``ties`` counts the anchors reaching ``weight``.
    """

    codeword: np.ndarray
    error: np.ndarray
    weight: np.ndarray
    anchor: np.ndarray
    sigma: np.ndarray
    ties: np.ndarray


def _blocks(pair, words):
    """Per decode block of ``BLOCK_BUDGET // S`` of ``words``, in order, its ``_Block``.

    The words are read once, their symbols first; then a block of no
    words yields nothing, and the words are checked to be non-empty and
    N >= M.  One ``LinearMachine.circular`` of a block gives each word's
    sigma_fin, so its anchor rows, and its syndromes, from which each
    step's key takes O(N) per word.  Both are time-major, a column per
    word: the rows (anchors x words), and the keys (steps x words) from
    the transposed syndromes, a run's key by one shift-or per symbol of
    the run, the first most significant, and a single symbol's its
    syndrome plus 2^(r*m).  A pair with a metric automaton walks the block
    at once (``_decode_block``), any other decides its words in turn
    (``_search_block``).
    """
    E = pair.sf.symbol_ints(words, 2)
    if not len(E):
        return
    if not E.shape[1]:
        raise ValueError("a trellis needs at least one section")
    _check_length(pair.H, E.shape[1])
    N, m, r, size = E.shape[1], pair.m, pair.H.rows, BLOCK_BUDGET // len(pair.tables.states)
    for start in range(0, len(E), size):
        block = E[start : start + size]
        fin, zetas = pair.sf.circular(block)
        rows, runs = pair.tables.index.take(pair.duals[:, None] ^ fin), zetas.T[: N - N % m]
        # a run's key concatenates its symbols' syndromes, the first most significant; a single symbol's is 2^(r*m) on
        keys = reduce(lambda key, p: key << r | runs[p::m], range(1, m), runs[::m])
        keys = np.vstack((keys, zetas.T[len(runs) :] | 1 << r * m))
        yield (_search_block if pair.automaton is None else _decode_block)(pair, block, rows, keys)


def _certificate(singles, keys, rows, tables):
    """The ``_search_word`` result of a word whose one lightest error, of weight <= 3, is anchored, else None.

    ``singles`` is the ``_singles`` table of the word's length, ``keys``
    holds its steps' keys, floor(N/m) runs of m symbols then single ones,
    and ``rows`` its anchor states.  Their outputs (a single symbol's key
    less its 2^(r*m)), packed into one integer, the first most
    significant, are the word's syndrome s:
    s = 0 is the zero error's syndrome, a bit whose syndrome is s alone
    is the weight-1 error, and each weight-2 pair has exactly one bit
    covering s's lowest set bit, so looking up s XOR each such bit's
    syndrome finds every pair.  When no error of weight <= 2 has s, each
    triple has an odd number, so at least one, of bits covering s's
    lowest set bit, and without it is a pair with syndrome s XOR that
    bit's: the pair rule on s XOR each covering syndrome finds every
    triple, once per covering member, so the triples are kept as sets of
    bits.  A covering syndrome whose XOR with s has more set bits than
    two single syndromes can have is skipped.  Every path the search
    weighs is an error with syndrome s whose circular state is an anchor,
    so one such error of weight <= 3, found among all of them with no
    lighter one, is its unique optimum: one anchor reaches it and no
    label order is left to choose.  A shared single syndrome among the
    error's bits, two pairs or two triples, no error of weight <= 3, or
    an error whose state is not an anchor returns None.
    """
    states, places, bit, covers, widths, heaviest = singles
    s = 0
    for key, width in zip(keys, widths):
        s = s << width | key & (1 << width) - 1
    # no three single-bit syndromes together have more set bits than three times the heaviest's
    if s.bit_count() > 3 * heaviest:
        return None

    def pairs(s):
        low = covers[(s & -s).bit_length() - 1]
        return [(bit[s ^ j], bit[j]) for j in filter(bit.__contains__, map(s.__xor__, low))]

    if not s or s in bit:
        error = (bit[s],) if s else ()
    elif two := pairs(s):
        error = two[0] if len(two) == 1 else (-1,)
    else:
        # each triple once per member covering s's lowest set bit; a pair's syndrome has at most 2 * heaviest bits
        low = covers[(s & -s).bit_length() - 1]
        three = {frozenset((bit[j], *p)) for j in low if (s ^ j).bit_count() <= 2 * heaviest for p in pairs(s ^ j)}
        error = tuple(three.pop()) if len(three) == 1 else (-1,)
    row = tables.index.item(reduce(xor, map(states.__getitem__, error), 0))
    # -1 marks a syndrome of several errors or a bit whose syndrome another shares; the row it reads is never taken
    if min(error, default=0) < 0 or row not in rows:
        return None
    labels = [0] * len(keys)
    for step, label in map(places.__getitem__, error):
        labels[step] |= label
    return len(error), 1, labels, row, rows.index(row)


def _decode_block(pair, block, rows, keys):
    """The ``_Block`` of a block of a pair (``_Pair``) with a metric automaton, every anchor walked at once.

    ``block`` holds the words' symbol integers, ``rows`` (anchors x words)
    their anchor states and ``keys`` (steps x words) their steps' keys.
    Each (anchor, word) column walks the automaton backward from its
    anchor's column, one gather of ``nxt`` and ``low`` per step, then
    forward from its anchor, one gather of its packed edge per step, the
    one a one-word walk reads.  Every choice is then one elementwise
    operation across the block: the least weight, the tie count, and,
    among the walks at their word's least weight, the smallest label row
    by row, then the smallest anchor state, whose walk wins.
    """
    S, (anchors, words), steps = len(pair.tables.states), rows.shape, len(keys)
    columns, nxt, low, edges = pair.automaton[:4]
    # each step's (column, key) entry of edges, times S, at every cut but 0, walking back from cut N
    passed, at, gain = np.empty((steps, anchors, words), dtype=np.intp), rows, 0
    for t in range(steps - 1, -1, -1):
        i = at * nxt.shape[1] + keys[t]
        np.multiply(i, S, out=passed[t])
        at, gain = nxt.take(i), gain + low.take(i)
    reach = columns.take(at * (S + 1) + rows) + gain
    w = reach.min(axis=0)
    if w.max() >= _UNREACHED:
        raise RuntimeError("no subtrellis holds a tailbiting path; inconsistent construction")
    ties = (keep := reach == w).sum(axis=0)
    # each step's label, then the anchor state; an anchor with no tailbiting path may walk dead edges into state S,
    # which clip keeps in range, and is never kept
    walk = np.empty((steps + 1, anchors, words), dtype=np.intp)
    walk[-1] = state = rows
    for t in range(steps):
        edge = edges.take(passed[t] + state, mode="clip")
        walk[t], state = edge >> 8, edge & 255
    # row by row, keep the walks at their word's least entry, so one is left (a dropped walk reads _UNREACHED, above
    # every label and state)
    for row in walk:
        row = np.where(keep, row, _UNREACHED)
        keep &= row == row.min(axis=0)
    # keep holds one anchor per word, so its index is one product
    anchor = np.arange(anchors) @ keep
    won = walk.reshape(steps + 1, -1).take(anchor * words + np.arange(words), axis=1)
    return _as_block(pair, block, w, ties, won[:-1], won[-1], anchor)


def _search_block(pair, block, rows, keys):
    """The ``_Block`` of a block of a pair with no metric automaton, a word at a time.

    Each word's column of ``rows`` and of ``keys`` goes to ``_certificate``,
    and, unless it answers, to ``_search_word``, as a one-word decode's do.
    """
    singles, tables, rows, keys = pair.singles(block.shape[1]), pair.tables, rows.T.tolist(), keys.T.tolist()
    found = [_certificate(singles, k, r, tables) or _search_word(pair, r, k) for r, k in zip(rows, keys)]
    # .T turns the (words x steps) labels to (steps x words) and leaves the other, 1-D, fields as they are
    return _as_block(pair, block, *(np.array(field).T for field in zip(*found)))


def _as_block(pair, block, weight, ties, labels, sigma, anchor):
    """The ``_Block`` of a decode block from its words' winners: weights, tie counts, labels, table rows, anchors.

    The labels (steps x words) are the errors' symbol integers: each of
    the floor(N/m) run labels splits by shifts into its m symbols of n
    bits, the first most significant, as ``LinearMachine.power`` packs
    them, and the N mod m single symbols' labels are symbols already.  The
    errors XOR the block's symbol integers are the codewords, both
    transposed to (words x N).
    """
    m, n, runs = pair.m, pair.H.cols, block.shape[1] // pair.m
    symbols = labels[:runs, None] >> n * np.arange(m - 1, -1, -1)[:, None] & (1 << n) - 1
    error = np.vstack((symbols.reshape(-1, len(block)), labels[runs:]))
    return _Block((error ^ block.T).T, error.T, weight, anchor, sigma, ties)


def _search_word(pair, rows, keys):
    """One pruned word's (weight, number of anchors reaching it, labels, anchor's table row, anchor index).

    ``pair`` is the word's ``_Pair``, one with no metric automaton; ``rows``
    lists its anchor states and ``keys`` its steps' keys, which take its
    steps' (edges x states + 1) end states and weights from the stack of
    ``pair.tables`` for the passes, and its steps' edge rows from
    ``pair.out`` for the tracebacks.  The anchors are pruned: the bound pass
    and its closing check, then the start-anywhere pass and its own, then
    the search of the anchors the bounds leave, one loop that searches those
    of least bound, then the others whose bound does not exceed the least
    weight w found so far (an anchor left out has a bound above w).  A word
    reaches this only when ``_certificate``, which ``_Pair.decode`` asks
    first, has not found its one lightest anchored error of weight <= 3 (a
    word of weight >= 4, or one whose syndrome two errors of its least
    weight share, are such words).  Each step here is exact on its own, so
    the order changes which step decides a word, never its result.  Of the
    anchors reaching w, the smallest (labels, table row, index) wins: the
    rows and indices ascend as the states they stand for do.
    """
    tables, outs = pair.tables, [pair.out[k] for k in keys]
    states, rows, at = rows, np.array(rows), np.array(keys)
    sections = tables.dst.take(at, axis=0), tables.weight.take(at, axis=0)
    ends = _ends(len(tables.states))
    bound = _min_plus(sections, ends[-1])
    lb, tried = bound[0].take(rows), None
    for second in (False, True):
        if second:
            # a tailbiting path also starts anywhere, so the larger bound is one too; a walk that closes on
            # the end-anywhere column weighs lb[a], which is then a's larger bound
            lb = np.maximum(lb, _start_anywhere(tables, at)[0].take(rows))
        low = min(bounds := lb.tolist())
        a = bounds.index(low) if bounds.count(low) == 1 and low < _UNREACHED else None
        if a is not None and a != tried:
            # a walk reads about two entries per cut, fewer than converting the table costs
            labels, end = _traceback(outs, memoryview(bound), states[a])
            # closed on a: a tailbiting path of weight lb[a], below every other anchor's bound
            if end == states[a]:
                return low, 1, labels, end, a
        tried = a
    least, w, passes = lb == low, _UNREACHED, []
    # the anchors of least bound, then the others; no anchor whose bound exceeds w can reach w
    for group in (least, ~least):
        if len(anchors := np.flatnonzero(group & (lb <= w))):
            end = rows.take(anchors)
            cost = _min_plus(sections, ends.take(end, axis=0))
            weight = cost[0, np.arange(len(anchors)), end].tolist()
            passes.append((cost, anchors.tolist(), weight))
            w = min(w, *weight)
    found = [
        (_traceback(outs, memoryview(cost[:, j]), states[a])[0], states[a], a)
        for cost, anchors, weight in passes
        for j, a in enumerate(anchors)
        if weight[j] == w
    ]
    if w >= _UNREACHED:
        raise RuntimeError("no subtrellis holds a tailbiting path; inconsistent construction")
    return w, len(found), *min(found)


def format_result(res, n):
    """One-line rendering with n-bit symbol grouping."""
    return (
        f"weight={res.weight}"
        f" anchor_beta={format_state(res.anchor_beta)}"
        f" anchor_sigma={format_state(res.anchor_sigma)}"
        f" e={format_bits(res.error, group=n)}"
        f" y={format_bits(res.codeword, group=n)}"
    )
