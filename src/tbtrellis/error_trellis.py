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


class SearchSection(NamedTuple):
    """The module of one syndrome symbol zeta over dense state indices.

    Under zeta a state has ``degree`` edges or none, because the inputs e
    with eD = zeta + xC form a coset of the kernel of D or none.  ``dst``
    (states x degree) and ``weight`` (states x degree x 1) give each
    edge's next state and label weight; the row of a state without edges
    holds weight-0 edges into index S, one past the last state, which the
    search never reaches.  ``out`` lists, per state, its edges in label
    order as (``Edge``, next state index, weight).
    """

    dst: np.ndarray
    weight: np.ndarray
    out: tuple


class SearchTables(NamedTuple):
    """The modules of one H keyed by syndrome symbol; states in ``sf_state_space`` order."""

    states: list
    index: dict  # syndrome-former state integer -> dense index
    sections: dict


@lru_cache(maxsize=None)
def _search_tables(H):
    """The syndrome former's transitions bucketed by the syndrome symbol they emit.

    Built once per H from the integer step table.  Inputs are visited in
    ascending order, which is label order.
    """
    sf = syndrome_former(H)
    index = {x: i for i, x in enumerate(sf.states)}
    out = defaultdict(lambda: [[] for _ in index])
    for i, x in enumerate(sf.states):
        for e, label in enumerate(sf.in_tuples):
            nxt, zeta = sf.step(x, e)
            edge = Edge(src=sf.state_tuples[x], label=label, dst=sf.state_tuples[nxt])
            out[sf.out_tuples[zeta]][i].append((edge, index[nxt], sum(label)))
    sections = {}
    for zeta, rows in out.items():
        degree = max(len(es) for es in rows)
        sections[zeta] = SearchSection(
            dst=np.array([[d for _, d, _ in es] or [len(index)] * degree for es in rows], dtype=np.intp),
            weight=np.array([[[w] for _, _, w in es] or [[0]] * degree for es in rows], dtype=np.int32),
            out=tuple(tuple(es) for es in rows),
        )
    return SearchTables([sf.state_tuples[x] for x in sf.states], index, sections)


def error_trellis_module(H, zeta):
    """All transitions (state, error symbol, next state) emitting ``zeta``."""
    sec = _search_tables(H).sections.get(tuple(int(b) for b in zeta))
    return [edge for es in sec.out for edge, _, _ in es] if sec else []


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
