"""Tailbiting error-trellis construction, forward and backward.

The forward construction runs the received word through the syndrome
former once to find the self-consistent circular state, replays it from
that state to obtain the section syndromes, and concatenates one trellis
module per syndrome symbol.  The tailbiting paths of the result are
exactly the error sequences whose subtraction from the received word
leaves a tailbiting codeword.  The backward variant applies the same
procedure to the reciprocal parity-check matrix and the time-reversed
word; its paths are the forward paths read in reverse symbol order.
"""

from __future__ import annotations

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


@lru_cache(maxsize=None)
def _module_table(H):
    """The syndrome former's transitions, bucketed by the syndrome symbol they emit."""
    table = {}
    for sigma, e, nxt, zeta in syndrome_former(H).edges():
        table.setdefault(zeta, []).append(Edge(src=sigma, label=e, dst=nxt))
    return table


class SearchSection(NamedTuple):
    """One module over dense state indices, for the all-anchor search.

    Edges are sorted by source.  Every state in ``sources`` (None when that
    is every state) has ``degree`` edges, because the inputs e with
    eD = zeta + xC form a coset of the kernel of D or none.  ``dst`` and
    ``weight`` (a column) give each edge's next state and label weight;
    ``out`` lists, per state, its (label, next state, weight) edges in
    label order.
    """

    dst: np.ndarray
    weight: np.ndarray
    degree: int
    sources: np.ndarray | None
    out: tuple


class SearchTables(NamedTuple):
    """The modules of one H keyed by syndrome symbol; states in ``sf_state_space`` order."""

    states: list
    index: dict  # syndrome-former state integer -> dense index
    sections: dict


@lru_cache(maxsize=None)
def _search_tables(H):
    """``_module_table`` as integer arrays, built in plain Python once per H."""
    sf = syndrome_former(H)
    index = {x: i for i, x in enumerate(sf.states)}
    dense = {sf.state_tuples[x]: i for x, i in index.items()}
    sections = {}
    for zeta, edges in _module_table(H).items():
        out = [[] for _ in index]
        for e in sorted(edges, key=lambda e: e.label):
            out[dense[e.src]].append((e.label, dense[e.dst], sum(e.label)))
        sources = [i for i, es in enumerate(out) if es]
        flat = [edge for i in sources for edge in out[i]]
        sections[zeta] = SearchSection(
            dst=np.array([d for _, d, _ in flat], dtype=np.intp),
            weight=np.array([[w] for _, _, w in flat], dtype=np.int32),
            degree=len(out[sources[0]]),
            sources=None if len(sources) == len(out) else np.array(sources, dtype=np.intp),
            out=tuple(tuple(es) for es in out),
        )
    return SearchTables([sf.state_tuples[x] for x in sf.states], index, sections)


def error_trellis_module(H, zeta):
    """All transitions (state, error symbol, next state) emitting ``zeta``."""
    return list(_module_table(H).get(tuple(int(b) for b in zeta), ()))


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
