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
encoder's.
"""

from __future__ import annotations

from functools import lru_cache

from .gf2 import format_bits
from .state_machines import (
    _lookup,
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
