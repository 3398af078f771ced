"""Tailbiting error-trellis construction, forward and backward.

The forward construction finds the self-consistent circular state
sigma_fin of the received word and the section syndromes of the run
from it, and concatenates one trellis module per syndrome symbol.  The
tailbiting paths of the result are exactly the error sequences whose
subtraction from the received word leaves a tailbiting codeword.  The
backward variant applies the same procedure to the reciprocal
parity-check matrix and the time-reversed word; its paths are the
forward paths read in reverse symbol order.

Because the syndrome former forgets its state in M steps (A^M = 0),
sigma_fin and the syndromes are its circular run, in which cut 0 and
cut N hold sigma_fin.  ``tailbiting_syndromes`` and
``backward_syndromes`` are one ``LinearMachine.circular_word`` each, one
integer fold over the word; the three ``_batch`` functions read the same
fold over a block of words, ``LinearMachine.circular``.  ``sigma_fin``
of one word is one ``LinearMachine.fold`` from the zero state over the
word.  A word is read once, by ``LinearMachine.word`` of the syndrome
former of H, before its length is checked; the backward functions fold
its symbol integers in reverse on the reciprocal machine.  Code
subtrellis beta matches the error subtrellis anchored at
sigma_fin + dual(beta): ``error_anchor`` is that sum, one XOR of the
syndrome former's state integers, and ``backward_error_anchor`` is
``error_anchor`` of the reciprocal pair at the backward state of beta.

The module of a syndrome symbol zeta is the set of syndrome-former
transitions that emit zeta: ``error_trellis_module`` groups
``syndrome_former(H).edges()`` by output, as the code trellis reads the
encoder's.  The decoder's merged m-section tables hold, of the m-step
syndrome-former paths that emit a run of m syndromes, the lightest from
each state to each end state: ``_search_tables`` enumerates those paths
once per H, as one broadcast XOR of the tables of the syndrome former's
m-step machine (``LinearMachine.power``), and keeps one per start and
end state.  The kept paths of runs of m and of single symbols form one
list of merged edges, keyed by the integer their syndromes form, which
is scattered once into every table: out of each start state and, in an
incoming stack, into each end state.  ``_singles`` tabulates, per H and
N, the circular syndrome and state of every single-bit error of a word
of N symbols, which the decoder's low-weight certificate reads.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from typing import NamedTuple

import numpy as np

from .gf2 import format_bits
from .state_machines import (
    _lookup,
    _powers,
    backward_state,
    dual_state_of,
    sf_state_space,
    syndrome_former,
    unpack,
)
from .trellis import Edge, _make_trellis, _Record


class SyndromeSequence(_Record):
    """A length-N sequence of r-bit syndrome symbols."""

    _fields = ("symbols", "kind")

    def __init__(self, symbols, kind):
        # kind: "forward" | "backward"
        self.__dict__.update(symbols=symbols, kind=kind)

    def __iter__(self):
        return iter(self.symbols)

    def __len__(self):
        return len(self.symbols)

    def __getitem__(self, i):
        return self.symbols[i]

    def __str__(self):
        return " ".join(format_bits(s) for s in self.symbols)


def _check_length(H, N):
    if N < H.deg:
        raise ValueError(f"need at least M={H.deg} received symbols, got {N}")


def received(H, words):
    """(words x N) symbol integers of a block of equal-length received words, N >= M when it holds a word."""
    E = syndrome_former(H).symbol_ints(words, 2)
    if len(E):
        _check_length(H, E.shape[1])
    return E


def _symbols(H, z):
    """The symbol integers of one word, read by ``LinearMachine.word``; N >= M is checked after the symbols."""
    es = syndrome_former(H).word(z)
    _check_length(H, len(es))
    return es


def sigma_fin_batch(H, words):
    """``sigma_fin`` of every word of a block, as 0/1 uint8 rows."""
    return unpack(syndrome_former(H).circular(received(H, words))[0], H.deg * H.rows)


def tailbiting_syndromes_batch(H, words):
    """The syndromes of every word of a block from its sigma_fin: (words x N x r) 0/1 uint8."""
    return unpack(syndrome_former(H).circular(received(H, words))[1], H.rows)


def sigma_fin(H, z):
    """Final syndrome-former state for input z, from any start.

    A is nilpotent (A^M = 0), so with N >= M the result is independent of
    the starting state: the state the last M symbols alone leave, which
    one fold from the zero state gives.
    """
    sf = syndrome_former(H)
    return sf.state_tuples[sf.fold(0, _symbols(H, z))[0]]


def _sequence(sf, es, kind):
    """The syndromes of the circular run of ``sf`` over es; none for an empty word, which only a memoryless H takes."""
    outs = sf.circular_word(es)[1] if es else []
    return SyndromeSequence(symbols=tuple(map(sf.out_tuples.__getitem__, outs)), kind=kind)


def tailbiting_syndromes(H, z):
    """Syndrome sequence of z when the initial state is set to sigma_fin."""
    return _sequence(syndrome_former(H), _symbols(H, z), "forward")


# entries the merged tables of one H may hold: it bounds m, the number of
# sections merged into one table, by the tables and by the labels of a
# run, and the decoder's metric automaton by its columns x (states + 1)
TABLE_BUDGET = 1 << 12


class _EdgeRows(dict):
    """Per stack key, each state's merged edges in label order as (label, end state index, weight).

    A key's rows are read out of the tables on its first lookup: only
    one-word decodes read them, and a word only its own keys.
    """

    def __init__(self, dst, weight, label):
        super().__init__()
        self.tables = dst, weight, label

    def __missing__(self, key):
        dst, weight, label = (a[key, :, :-1].T.tolist() for a in self.tables)
        S = len(dst)
        self[key] = rows = [[e for e in zip(*edges) if e[1] < S] for edges in zip(label, dst, weight)]
        return rows


class SearchSection(NamedTuple):
    """The merged modules of runs of syndrome symbols, over dense state indices.

    Under one symbol zeta a state has ``degree`` edges or none, because the
    inputs e with eD = zeta + xC form a coset of the kernel of D or none.
    Over j symbols it keeps one merged edge per end state, at most
    min(degree^j, S) of them: of the j-step paths of the syndrome former
    that emit the run and end there, the lightest, then the one of
    smallest label.  Each merged edge of an optimal path is a lightest one
    between its two states, so the first optimal edge in label order,
    which both tracebacks take, is a kept one: weights, ties and the
    smallest optimal error are those over all paths.  The stack holds
    every run of m symbols at the key its symbols' r-bit integers form,
    read as one integer, then every single symbol zeta at 2^(r*m) + zeta;
    a run the syndrome former never emits has no edges.  ``dst`` and
    ``weight`` (keys x slots x states + 1, slots the most edges a state
    keeps under one key) give each merged edge's end state and label
    weight, the edges of a state in concatenated-label order.  Slots
    past a state's edges, and all of state S's, end in index S, one past
    the last state, which the search never reaches; their weight is 0.
    ``label`` (the same shape) gives each merged edge's label, the integer
    of its concatenated error symbols, the first symbol most significant.
    ``out`` lists, per key and state below S, its edges in label order as
    (label, end state index, weight), read out of ``dst``, ``weight`` and
    ``label`` when the key is first looked up.  ``incoming`` is the same
    edges read the other way: per key and end state, the merged edges that
    arrive there, as (start states, weights), each (keys x in-slots x
    states + 1), start states ascending.  It runs the backward min-plus
    kernel forward, in reversed step order, so a pass from every state
    at cut 0 gives each state at cut N its least incoming weight, the
    start-anywhere bound of the anchor there.  Its slots past a state's
    edges, and all of state S's, start in S with weight 0.
    """

    dst: np.ndarray
    weight: np.ndarray
    label: np.ndarray
    out: _EdgeRows
    incoming: tuple


class SearchTables(NamedTuple):
    """The search tables of one H; states in ``sf_state_space`` order.

    ``sections`` is the ``SearchSection`` stack of runs of m and of single
    symbols, read out of each state by the search passes and the metric
    automaton's build and, through its incoming stack, into each state by
    the start-anywhere pass.
    """

    states: list
    index: np.ndarray  # syndrome-former state integer -> dense index, -1 if pinned
    m: int
    sections: SearchSection


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
    sections = SearchSection(dst, weights, label, _EdgeRows(dst, weights, label), (src, src_weight))
    return SearchTables(states, index, m, sections)


def _singles(H, N):
    """What ``decoder._certificate`` reads of the N*n single-bit errors of a word of N symbols of H.

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


@lru_cache(maxsize=None)
def _modules(H):
    """Per syndrome symbol, the syndrome former's transitions that emit it, as ``Edge``s in state, then input order."""
    modules = {zeta: [] for zeta in syndrome_former(H).out_tuples}
    for sigma, e, nxt, zeta in syndrome_former(H).edges():
        modules[zeta].append(Edge(sigma, e, nxt))
    return modules


def error_trellis_module(H, zeta):
    """All transitions (state, error symbol, next state) emitting ``zeta``, an r-bit syndrome symbol.

    A zeta of another width or with an entry other than 0/1 raises
    ValueError; a symbol that no transition emits has no edges.
    """
    return list(_lookup(_modules(H), zeta, "a syndrome symbol"))


def _error_trellis(kind, H, zetas):
    """One module of ``H`` per syndrome symbol of ``zetas``, over the syndrome-former states of ``H``."""
    return _make_trellis(kind, sf_state_space(H), [error_trellis_module(H, zeta) for zeta in zetas])


def build_tailbiting_error_trellis(H, z):
    """Concatenate error-trellis modules for the syndromes of z."""
    return _error_trellis("error", H, tailbiting_syndromes(H, z))


def error_anchor(beta, sigma_fin_state, G, H):
    """Anchor of the error subtrellis matching code subtrellis ``beta``: sigma_fin + dual(beta).

    One XOR of syndrome-former integers; beta is read (by ``dual_state_of``)
    before sigma_fin, so a call given two malformed states names beta.
    """
    sf = syndrome_former(H)
    return sf.state_tuples[sf.state(dual_state_of(G, H, beta)) ^ sf.state(sigma_fin_state)]


def eta_from_zeta(zeta, M):
    """Backward syndrome order: zeta_M..zeta_1 followed by zeta_N..zeta_{M+1}."""
    symbols = tuple(zeta)
    N = len(symbols)
    if N < M:
        raise ValueError(f"need at least M={M} symbols, got {N}")
    out = [symbols[M - i] if i <= M else symbols[N + M - i] for i in range(1, N + 1)]
    return SyndromeSequence(symbols=tuple(out), kind="backward")


def build_backward_error_trellis(H, z):
    """Error trellis of the reciprocal syndrome former on the reversed word."""
    return _error_trellis("backward-error", H.reciprocal(), backward_syndromes(H, z))


def backward_syndromes_batch(H, words):
    """``backward_syndromes`` of every word of a block: (words x N x r) 0/1 uint8.

    The reciprocal H runs the block with its symbol order reversed.
    """
    return unpack(syndrome_former(H.reciprocal()).circular(received(H, words)[:, ::-1])[1], H.rows)


def backward_syndromes(H, z):
    """Syndromes of the backward construction (kind marked backward)."""
    return _sequence(syndrome_former(H.reciprocal()), _symbols(H, z)[::-1], "backward")


def backward_sigma_fin(H, z):
    """Circular syndrome-former state of the backward construction: ``sigma_fin`` of the reciprocal H and the reversed word."""
    sf = syndrome_former(H.reciprocal())
    return sf.state_tuples[sf.fold(0, _symbols(H, z)[::-1])[0]]


def backward_error_anchor(beta, sigma_fin_tilde, G, H):
    """Anchor of the backward error subtrellis matching code subtrellis ``beta``.

    The same correspondence for the reciprocal pair: the backward code
    subtrellis is anchored at the backward state of beta, and its error
    subtrellis at sigma_fin~ + dual~(that state).
    """
    return error_anchor(backward_state(G, beta), sigma_fin_tilde, G.reciprocal(), H.reciprocal())
