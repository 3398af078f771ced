"""Tailbiting error-trellis construction, forward and backward.

The forward construction runs the received word through the syndrome
former once to find the self-consistent circular state, replays it from
that state to obtain the section syndromes, and concatenates one trellis
module per syndrome symbol.  The tailbiting paths of the result are
exactly the error sequences whose subtraction from the received word
leaves a tailbiting codeword.  The backward variant applies the same
procedure to the reciprocal parity-check matrix and the time-reversed
word; its paths are the forward paths read in reverse symbol order.

The modules of one H are tabulated once, straight from the syndrome
former's integer step table (``_search_tables``): the trellis builders
read their edges from it and the decoder its index arrays.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .gf2 import format_bits
from .state_machines import (
    backward_state,
    dual_state_of,
    sf_run,
    sf_state_space,
    sf_zero_state,
    syndrome_former,
    xor_states,
)
from .trellis import Edge, _make_trellis


@dataclass(frozen=True)
class SyndromeSequence:
    """A length-N sequence of r-bit syndrome symbols."""

    symbols: tuple
    kind: str  # "forward" | "backward"

    def __iter__(self):
        return iter(self.symbols)

    def __len__(self):
        return len(self.symbols)

    def __getitem__(self, i):
        return self.symbols[i]

    def __str__(self):
        return " ".join(format_bits(s) for s in self.symbols)


def _check_length(H, z):
    if len(z) < H.deg:
        raise ValueError(f"need at least M={H.deg} received symbols, got {len(z)}")


def sigma_fin(H, z):
    """Final syndrome-former state for input z, from the all-zero start.

    A is nilpotent (A^M = 0), so with N >= M the result is independent of
    the starting state and only the last M symbols are run.
    """
    _check_length(H, z)
    final, _ = sf_run(H, sf_zero_state(H), z[len(z) - H.deg :])
    return final


def circular_run(H, z):
    """sigma_fin of z and the syndromes of the run from it: M + N steps.

    The run is circularly consistent: it ends in sigma_fin again.
    """
    fin = sigma_fin(H, z)
    return fin, sf_run(H, fin, z)[1]


def tailbiting_syndromes(H, z):
    """Syndrome sequence of z when the initial state is set to sigma_fin."""
    return SyndromeSequence(symbols=tuple(circular_run(H, z)[1]), kind="forward")


# entries the merged tables of one H may hold: it sets m, the number of
# sections merged into one table, and whether the decoder's all-anchor
# pass (states x merged edges x anchors) is small enough to skip pruning
TABLE_BUDGET = 1 << 12


class SearchSection(NamedTuple):
    """The merged module of one run of syndrome symbols over dense state indices.

    Under one symbol zeta a state has ``degree`` edges or none, because the
    inputs e with eD = zeta + xC form a coset of the kernel of D or none;
    over m symbols it has degree^m merged edges, ordered by their
    concatenated labels.  ``dst`` and ``weight`` (degree^m x states) give
    each merged edge's end state and label weight; an edge that dies
    inside the run, as all of an edge-less state's do, ends in index S,
    one past the last state, which the search never reaches.  ``out``
    lists, per state, its live edges in label order as (label, end state
    index, weight), the label being the integer of the concatenated
    error symbols.
    """

    dst: np.ndarray
    weight: np.ndarray
    out: tuple


class SearchTables(NamedTuple):
    """The search tables of one H; states in ``sf_state_space`` order.

    ``sections`` is keyed by runs of syndrome symbols: every 1-tuple and,
    for m > 1, every m-tuple of the symbols the syndrome former emits.
    ``prune`` is true when a pass over all S anchor columns would exceed
    ``TABLE_BUDGET`` entries per section; ``modules`` holds each symbol's
    transitions as ``Edge``s.
    """

    states: list
    index: np.ndarray  # syndrome-former state integer -> dense index, -1 if pinned
    m: int
    sections: dict
    prune: bool
    modules: dict


def _merge(run, single, n):
    """The (dst, label) stacks of every run extended by one more symbol.

    A stack holds one (states + 1 x edges) table per run of symbols, with
    an edge-less row S; runs are extended in order, symbols ascending,
    and each merged label appends the n-bit label of the next edge.
    """
    dst, label = run
    nxt = np.arange(len(single[0]))[None, :, None, None], dst[:, None]
    shape = (-1, dst.shape[1], dst.shape[2] * single[0].shape[2])
    return single[0][nxt].reshape(shape), ((label[:, None, :, :, None] << n) | single[1][nxt]).reshape(shape)


def _section(dst, label):
    """The SearchSection of one (states + 1 x edges) table; a label's weight is its popcount."""
    S = len(dst) - 1
    weight = np.bitwise_count(label[:S]).astype(np.int32)
    rows = zip(label[:S].tolist(), dst[:S].tolist(), weight.tolist())
    out = tuple(tuple(edge for edge in zip(*row) if edge[1] != S) for row in rows)
    return SearchSection(np.ascontiguousarray(dst[:S].T), np.ascontiguousarray(weight.T), out)


@lru_cache(maxsize=None)
def _search_tables(H):
    """The syndrome former's transitions bucketed by the syndrome symbols they emit.

    Built once per H from the integer step table: one table per symbol,
    then, with numpy, one per m-tuple of symbols, m the largest run whose
    tables fit ``TABLE_BUDGET``.  Inputs are visited in ascending order,
    which is label order, so merged edges in index order are in
    concatenated-label order.
    """
    sf = syndrome_former(H)
    S = len(sf.states)
    index = np.full(len(sf.state_tuples), -1, dtype=np.intp)
    index[sf.states] = np.arange(S)
    states = [sf.state_tuples[x] for x in sf.states]
    out = defaultdict(lambda: [[] for _ in range(S)])
    for i, x in enumerate(sf.states):
        for e in range(len(sf.in_tuples)):
            nxt, zeta = sf.step(x, e)
            out[sf.out_tuples[zeta]][i].append((e, int(index[nxt])))
    symbols = sorted(out)
    degree = max(len(es) for rows in out.values() for es in rows)
    dst = np.full((len(symbols), S + 1, degree), S, dtype=np.intp)
    label = np.zeros_like(dst)
    for z, zeta in enumerate(symbols):
        for i, es in enumerate(out[zeta]):
            if es:
                label[z, i], dst[z, i] = zip(*es)
    single = dst, label
    m = 1
    while (len(symbols) * degree) ** (m + 1) * S <= TABLE_BUDGET:
        m += 1
    run, keys = single, [(zeta,) for zeta in symbols]
    sections = {key: _section(*t) for key, t in zip(keys, zip(*single))}
    for _ in range(m - 1):
        run = _merge(run, single, H.cols)
        keys = [key + (zeta,) for key in keys for zeta in symbols]
    sections.update({key: _section(*t) for key, t in zip(keys, zip(*run)) if len(key) > 1})
    modules = {
        zeta: tuple(Edge(states[i], sf.in_tuples[e], states[j]) for i, es in enumerate(rows) for e, j in es)
        for zeta, rows in out.items()
    }
    return SearchTables(states, index, m, sections, S * S * degree**m > TABLE_BUDGET, modules)


def error_trellis_module(H, zeta):
    """All transitions (state, error symbol, next state) emitting ``zeta``."""
    return list(_search_tables(H).modules.get(tuple(int(b) for b in zeta), ()))


def _error_trellis(kind, H, z):
    sections = [error_trellis_module(H, zeta) for zeta in tailbiting_syndromes(H, z)]
    return _make_trellis(kind, sf_state_space(H), sections)


def build_tailbiting_error_trellis(H, z):
    """Concatenate error-trellis modules for the syndromes of z."""
    return _error_trellis("error", H, z)


def error_anchor(beta, sigma_fin_state, G, H):
    """Anchor of the error subtrellis matching code subtrellis ``beta``."""
    return xor_states(sigma_fin_state, dual_state_of(G, H, beta))


def eta_from_zeta(zeta, M):
    """Backward syndrome order: zeta_M..zeta_1 followed by zeta_N..zeta_{M+1}."""
    symbols = tuple(zeta)
    N = len(symbols)
    if N < M:
        raise ValueError(f"need at least M={M} symbols, got {N}")
    out = [symbols[M - i] if i <= M else symbols[N + M - i] for i in range(1, N + 1)]
    return SyndromeSequence(symbols=tuple(out), kind="backward")


def _reversed(H, z):
    """The reciprocal parity-check matrix and the time-reversed word."""
    _check_length(H, z)
    return H.reciprocal(), list(reversed(list(z)))


def build_backward_error_trellis(H, z):
    """Error trellis of the reciprocal syndrome former on the reversed word."""
    return _error_trellis("backward-error", *_reversed(H, z))


def backward_syndromes(H, z):
    """Syndromes of the backward construction (kind marked backward)."""
    return SyndromeSequence(symbols=tailbiting_syndromes(*_reversed(H, z)).symbols, kind="backward")


def backward_sigma_fin(H, z):
    """Circular syndrome-former state of the backward construction."""
    return sigma_fin(*_reversed(H, z))


def backward_error_anchor(beta, sigma_fin_tilde, G, H):
    """Anchor of the backward error subtrellis matching code subtrellis ``beta``.

    The matching backward code subtrellis is anchored at the backward
    state of beta; its dual is taken with respect to the reciprocal pair.
    """
    beta_t = backward_state(G, beta)
    return xor_states(sigma_fin_tilde, dual_state_of(G.reciprocal(), H.reciprocal(), beta_t))
