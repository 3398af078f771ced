"""Syndrome-former and encoder state machines for convolutional codes.

Both are linear machines over GF(2): a state row vector x and an input
symbol e give the next state x' = xA + eB and the output o = xC + eD.

The syndrome former of an r x n parity-check matrix H(D) of memory M is
realized in observer canonical form.  Its state is a flat tuple of M*r
bits laid out block-wise: position (p-1)*r + (q-1) holds the content of
memory cell p on the chain feeding syndrome bit q (p = 1..M closest
first).  A shifts every block one place towards the output,
B = [H_1^T ... H_M^T], C reads block 1 and D = H_0^T.  Cells that are
structurally absent (p exceeds the degree of row q) are pinned to zero.

The encoder of a k x n generator matrix G(D) of memory L is the
feedforward shift-register (controller) form: the state is a flat tuple
of k*L bits, row-major, each row holding the last L inputs of one input
stream, most recent last.  B writes the newest slot, A shifts the older
ones, C maps slot t of row j to row j of G_{L-t} and D = G_0.

Each matrix is compiled once, cached by the matrix, into the integer
tables of a :class:`LinearMachine`, which every function below reads.
A w-bit tuple is the integer whose most significant bit is its first
entry, so integer order is tuple order.  By linearity a transition is
the XOR of one state-table and one input-table entry, so the tables
hold 2^(state bits) + 2^(input bits) entries.  ``LinearMachine.fold``
is the one fold over a sequence: on integers, one XOR and two list
lookups per symbol.  ``word`` is the one reader of a word and ``state``
of a state: every function below that takes either reads it through
them, and ``run`` is the fold read through both and returned as tuples.

Both machines are nilpotent: the syndrome former forgets its state in
M steps (A^M = 0) and the encoder in L (A^L = 0).  So the state at a cut
is the state that the last d inputs alone leave, d being M for the
syndrome former and L for the encoder, and a circular run over N symbols
starts and ends in the state that the word's last d symbols, read
circularly, leave.  ``LinearMachine`` runs that rule as one fold, in two
sizes: from state 0 over the word's circular last d symbols and then
over the word, whose outputs are the run's.  ``circular_word`` folds one
word on integers; ``circular`` folds every row of a (words x N) block at
once, one gather of the state table per symbol.  Both hold for N < d
too, the word then read around more than once.  The decoder, the
error-trellis syndromes, tailbiting encoding and the verifier's codebook
and zero-syndrome suite all run circularly through one of the two.
``sf_step_batch`` steps a block of state/symbol pairs at once;
``sf_step`` is one step of the tuple fold, as ``encoder_step`` is.

A run of m steps is itself a linear machine, whose input is a run of m
symbols and whose output is their m outputs, each packed with the first
symbol's most significant.  ``LinearMachine.power(m)`` builds it once per
m from the one-step tables, by linearity: its rows are m-step folds of
the unit states under the zero run and of the unit runs from state 0.
Its tables hold 2^(state bits) + 2^(n*m) entries, 4,100 at most on the
codes of the tests (the reference code: 4 + 4,096, with n = 3 and m =
4).  ``error_trellis._paths`` steps every state under every run as one
broadcast XOR of its two tables, and the decoder's one-word front end
(``decoder._Pair.decode``) runs a word's circular run on the same two
tables as lists: one fold of the one-step machine over the word's last d
symbols (a decoded word has N >= d) leaves the state at cut 0, from which each run
of m symbols takes one XOR, and each of the N mod m single symbols left
over one XOR of the one-step tables.
"""

from __future__ import annotations

from functools import cached_property, lru_cache, reduce
from itertools import product
from typing import NamedTuple

import numpy as np

from .gf2 import is_bit_array


class ExtendedState(NamedTuple):
    """Syndrome-former state augmented with the current syndrome symbol."""

    zeta: tuple
    sigma: tuple


@lru_cache(maxsize=None)
def _bit_tuples(width):
    """All width-bit tuples in ascending order, and the index of each."""
    tuples = list(product((0, 1), repeat=width))
    return tuples, dict(zip(tuples, range(len(tuples))))


def _span(rows):
    """Images of all 2^len(rows) bit vectors, as an array, given each unit vector's image (the first row the top bit's).

    Each row, last first, doubles the table: the images with its bit set
    are those without it plus the row.
    """
    table = np.zeros(1, dtype=np.intp)
    for row in reversed(rows):
        table = np.concatenate((table, table ^ row))
    return table


def _as_int(bits):
    return int("".join(str(int(b)) for b in bits) or "0", 2)


def _compile(A, B, C, D, degree, free=None):
    """The ``LinearMachine`` of the matrices: row i of [A C] and of [B D] is the image of unit vector i.

    ``free`` marks the state cells that may hold a 1; a state with a 1 in
    any other cell is pinned, not a trellis state.
    """
    rows = ([_as_int(np.concatenate(row)) for row in zip(X, Y)] for X, Y in ((A, C), (B, D)))
    return LinearMachine(*rows, D.shape[1], degree, ~_as_int(free) if free is not None else 0)


class LinearMachine:
    """Tabulated realization x' = xA + eB, o = xC + eD of one matrix.

    Built from the packed image of each unit state and unit input
    vector, the most significant bit's first: ``_span`` spans them into
    ``tables``, whose entries pack the next state above the output bits,
    and ``from_state`` and ``from_input`` hold the same as lists.  ``states``
    lists the trellis states, ascending.  ``degree`` is d, the number of
    steps after which an input has left the state (A^d = 0).
    """

    def __init__(self, state_rows, input_rows, out_bits, degree, pinned):
        self.degree, self.out_bits, self.out_mask = degree, out_bits, 2**out_bits - 1
        self.state_bits, self.in_bits = len(state_rows), len(input_rows)
        self.tables = _span(state_rows), _span(input_rows)
        self.from_state, self.from_input = (table.tolist() for table in self.tables)
        self.state_tuples, self._state_index = _bit_tuples(self.state_bits)
        self.pinned, self.states = pinned, [x for x in range(len(self.from_state)) if not x & pinned]

    # the input and output codecs are built on first use: a run of m symbols has 2^(n*m) inputs and 2^(r*m)
    # outputs, neither of which the decoder reads as tuples
    in_tuples = cached_property(lambda self: _bit_tuples(self.in_bits)[0])
    _in_index = cached_property(lambda self: _bit_tuples(self.in_bits)[1])
    out_tuples = cached_property(lambda self: _bit_tuples(self.out_bits)[0])

    @lru_cache(maxsize=None)
    def power(self, m):
        """The machine of m steps at once: its input is a run of m symbols and its output their m outputs.

        Both pack the first symbol's most significant.  It keeps the
        states, and forgets its state in ceil(d/m) steps.  By linearity its
        rows are the m-step folds of the unit states under the zero run and
        of the unit runs from state 0; ``power(1)`` holds the machine's own
        tables.
        """
        def image(x, z):
            n = self.in_bits
            x, outs = self.fold(x, [z >> n * p & 2**n - 1 for p in range(m - 1, -1, -1)])
            return reduce(lambda v, o: v << self.out_bits | o, outs, x)

        states = [image(1 << b, 0) for b in range(self.state_bits - 1, -1, -1)]
        runs = [image(0, 1 << b) for b in range(self.in_bits * m - 1, -1, -1)]
        return LinearMachine(states, runs, self.out_bits * m, -(-self.degree // m), self.pinned)

    def state(self, bits):
        """Integer of a state tuple; ValueError unless it holds state-width 0/1 entries."""
        return _lookup(self._state_index, bits, "a state")

    def word(self, z):
        """The symbol integers of one word, as a list; a one-shot iterable is read once.

        Symbol tuples are looked up one at a time, and a list word whose
        first symbol is a list is read again with its list symbols made
        tuples; any other word goes to ``symbol_ints``, which packs a 2-D
        array, or a list of equal-shape arrays, in one product and names
        the first bad symbol.
        """
        z = z if hasattr(z, "__len__") else list(z)
        try:
            return list(map(self._in_index.__getitem__, z))
        except (KeyError, TypeError):
            if isinstance(z, list) and isinstance(z[0], list):
                return self.word([tuple(s) if isinstance(s, list) else s for s in z])
            return self.symbol_ints(z).tolist()

    def state_ints(self, states):
        """Integers of a sequence of states, as an intp array."""
        return _pack(states, self._state_index, self.state_bits, 1, "a state")

    def symbol_ints(self, symbols, depth=1):
        """Integers of the input symbols ``depth`` levels down: depth 2 takes a block of words."""
        return _pack(symbols, self._in_index, self.in_bits, depth, "an input symbol")

    def fold(self, x, es):
        """Fold the transitions over symbol integers from state integer x: (final state, output integers)."""
        from_state, from_input, shift, mask = self.from_state, self.from_input, self.out_bits, self.out_mask
        outs = []
        for e in es:
            v = from_state[x] ^ from_input[e]
            x = v >> shift
            outs.append(v & mask)
        return x, outs

    def circular_word(self, es):
        """One word's circular run on symbol integers: (the state at cuts 0 and N, the N outputs).

        One fold from state 0 over the word's last d symbols, read
        circularly, leaves the state at cut 0; the fold goes on over the
        word, whose outputs are the run's and which ends in that state.
        An empty word has no circular run: ValueError.
        """
        N, d = len(es), self.degree
        if not N:
            raise ValueError("need at least one input symbol")
        x, outs = self.fold(0, (es[N - d :] if N >= d else (es * d)[-d:]) + es)
        return x, outs[d:]

    def circular(self, E):
        """The circular run of every row of a (words x N) block of symbol integers.

        Returns the states at cuts 0 and N (words,) and the outputs
        (words x N) as integers: the fold of ``circular_word`` over the
        block's columns, from state 0 over columns N - d .. N - 1 (mod N)
        and then 0 .. N - 1.  The input tables are gathered for every
        column at once, and each step value overwrites its column's.
        """
        from_state, from_input = self.tables
        N, x = E.shape[1], np.zeros(len(E), dtype=np.intp)
        v = from_input.take(E.T)
        for t in range(-self.degree if N else 0, N):
            step = from_state.take(x) ^ v[t % N]
            x = step >> self.out_bits
            if t >= 0:
                v[t] = step
        return x, v.T & self.out_mask

    def run(self, sigma, seq):
        """``fold`` over a symbol sequence from a state, read and returned as tuples: (final state, outputs)."""
        x, outs = self.fold(self.state(sigma), self.word(seq))
        return self.state_tuples[x], list(map(self.out_tuples.__getitem__, outs))

    def edges(self):
        """Every transition out of ``states``: (state, input, next state, output) tuples."""
        for x in self.states:
            for e, u in enumerate(self.in_tuples):
                nxt, (o,) = self.fold(x, [e])
                yield self.state_tuples[x], u, self.state_tuples[nxt], self.out_tuples[o]


def _key(bits):
    """``bits`` as a tuple: an array's entries as ints, a 0/1 int as one bit, any other sequence's entries."""
    if isinstance(bits, np.ndarray):
        bits = bits.tolist()
    return (bits,) if isinstance(bits, (int, np.integer)) else tuple(bits)


def _lookup(index, bits, what):
    # a valid tuple is its own key; anything else is read by ``_key``, and shown as its tuple if it has one
    try:
        return index[bits]
    except (KeyError, TypeError):
        try:
            bits = _key(bits)
            return index[bits]
        except (KeyError, TypeError):
            width = len(next(iter(index)))
            raise ValueError(f"expected {what} of {width} bits in {{0, 1}}, got {bits!r}") from None


def _pack(bits, index, width, depth, what):
    """Integers of the width-bit vectors ``depth`` levels down in ``bits``, as an intp array.

    A 0/1 integer ndarray of that shape, or a list of equal-shape arrays
    that stack into one, is packed in one product, and tuples are looked
    up in ``index``; anything else goes through ``_lookup`` vector by
    vector, in order, so the ValueError names the first bad one.  A
    one-shot block, and each one-shot word of a block, is read once.
    """
    bits = bits if hasattr(bits, "__len__") else list(bits)
    arrays = isinstance(bits, list) and bits and all(isinstance(b, np.ndarray) and b.shape == bits[0].shape for b in bits)
    packed = np.array(bits) if arrays else bits
    if is_bit_array(packed, depth + 1, width):
        return packed @ _powers(width)
    if isinstance(bits, np.ndarray):
        bits = bits.tolist()
    elif depth == 2:
        bits = [word if hasattr(word, "__len__") else list(word) for word in bits]

    def walk(x, d):
        return [walk(y, d - 1) for y in x] if d else _lookup(index, x, what)

    try:
        out = [[index[v] for v in word] for word in bits] if depth == 2 else [index[v] for v in bits]
    except (KeyError, TypeError):
        out = walk(bits, depth)
    if depth == 1:
        return np.array(out, dtype=np.intp)
    try:
        return np.array(out, dtype=np.intp).reshape(len(out), len(out[0]) if out else 0)
    except ValueError:
        raise ValueError("the words of a block differ in length") from None


def _frozen(a):
    a.flags.writeable = False
    return a


@lru_cache(maxsize=None)
def _powers(width, dtype=np.intp):
    """2^(width-1) .. 2^0: the place of each bit of a width-bit vector, in ``dtype``."""
    return _frozen((1 << np.arange(width - 1, -1, -1)).astype(dtype))


def unpack(ints, width):
    """The width-bit rows (most significant first) of an integer array, as uint8 0/1 entries.

    The mask is taken in the array's own integer dtype where its value
    bits hold width bits, so a narrow array is not widened to intp.
    """
    fits = ints.dtype.kind in "ui" and width <= np.iinfo(ints.dtype).bits - (ints.dtype.kind == "i")
    return (ints[..., None] & _powers(width, ints.dtype if fits else np.intp) != 0).astype(np.uint8)


def _row_degrees(P):
    """The degree of each row of P, read from its integer entries; 0 for a zero row."""
    return [max(map(int.bit_length, (1, *row))) - 1 for row in P.entries]


@lru_cache(maxsize=None)
def syndrome_former(H):
    """Observer-canonical realization of the syndrome former of H, compiled."""
    M, r = H.deg, H.rows
    coeffs = H.coefficient_list()
    A = np.eye(M * r, k=-r, dtype=np.uint8)
    B = np.hstack([c.T for c in coeffs[1:]] or [np.zeros((H.cols, 0), np.uint8)])
    C = np.eye(M * r, r, dtype=np.uint8)
    free = [int(p <= d) for p in range(1, M + 1) for d in _row_degrees(H)]
    return _compile(A, B, C, coeffs[0].T, M, free)


@lru_cache(maxsize=None)
def encoder(G):
    """Controller-form realization of the feedforward encoder of G, compiled."""
    L, k = G.deg, G.rows
    coeffs = G.coefficient_list()
    eye = np.eye(k, dtype=np.uint8)
    A = np.kron(eye, np.eye(L, k=-1, dtype=np.uint8))
    B = np.kron(eye, np.eye(1, L, L - 1, dtype=np.uint8))
    C = np.array([coeffs[L - t][j] for j in range(k) for t in range(L)], dtype=np.uint8).reshape(k * L, G.cols)
    return _compile(A, B, C, coeffs[0], L)


def constraint_length(P):
    """Overall constraint length: sum of the row degrees of P."""
    return sum(_row_degrees(P))


def sf_zero_state(H):
    """The all-zero syndrome-former state for H."""
    return (0,) * (H.deg * H.rows)


def sf_step(H, sigma_prev, e):
    """One syndrome-former transition: returns (next state, syndrome symbol).

    The state shifts down one block and the input adds e*(H_1^T...H_M^T);
    the output is the first block of the old state plus e*H_0^T.
    """
    sigma, (zeta,) = syndrome_former(H).run(sigma_prev, [e])
    return sigma, zeta


def sf_step_batch(H, sigmas, es):
    """``sf_step`` of every row pair: (next states, syndrome symbols) as 0/1 uint8 rows; one state per symbol."""
    sf = syndrome_former(H)
    x, e = sf.state_ints(sigmas), sf.symbol_ints(es)
    if len(x) != len(e):
        raise ValueError(f"expected one state per symbol, got {len(x)} states and {len(e)} symbols")
    v = sf.tables[0][x] ^ sf.tables[1][e]
    return unpack(v >> sf.out_bits, sf.state_bits), unpack(v & sf.out_mask, sf.out_bits)


def sf_run(H, sigma0, seq):
    """Fold sf_step over a symbol sequence; returns (final state, syndromes)."""
    return syndrome_former(H).run(sigma0, seq)


def extended_state(H, window):
    """Syndrome and state produced by a window of the last M+1 input symbols, its length checked after its symbols."""
    sigma, zetas = sf_run(H, sf_zero_state(H), window)
    if len(zetas) != H.deg + 1:
        raise ValueError(f"window length {len(zetas)}, expected {H.deg + 1}")
    return ExtendedState(zetas[-1], sigma)


def dual_state(H, window):
    """Syndrome-former state reached by the last M encoder output symbols.

    M steps forget the starting state, so the run starts from zero.  The
    window's length is checked after its symbols.
    """
    sigma, zetas = sf_run(H, sf_zero_state(H), window)
    if len(zetas) != H.deg:
        raise ValueError(f"window length {len(zetas)}, expected {H.deg}")
    return sigma


def encoder_step(G, beta, u):
    """One encoder transition: returns (next state, output symbol)."""
    state, (y,) = encoder(G).run(beta, [u])
    return state, y


def encoder_run(G, beta, seq):
    """Fold encoder_step over input symbols; returns (final state, outputs)."""
    return encoder(G).run(beta, seq)


def dual_state_of(G, H, beta, fill=0):
    """Syndrome-former state labeling the encoder state beta: two folds from state 0.

    The encoder, read beta through its ``state``, folds over M ``fill``
    symbols (the unknown inputs before the register window) and then
    beta's register contents, oldest first: its outputs are the code
    symbols entering the cut where it sits in beta.  The syndrome former
    folds over all of them, and since A^M = 0 the state it ends in is the
    one the last M outputs alone leave.  For dual G/H pairs the result
    does not depend on ``fill``.
    """
    enc, sf = encoder(G), syndrome_former(H)
    regs = enc.state_tuples[enc.state(beta)]
    _, outs = enc.fold(0, enc.word([(fill,) * G.rows] * H.deg + [regs[t :: G.deg] for t in range(G.deg)]))
    # the syndrome former reads the outputs as a word, so a G and an H of different widths raise ValueError
    return sf.state_tuples[sf.fold(0, sf.word(map(enc.out_tuples.__getitem__, outs)))[0]]


def backward_state(G, beta):
    """State of the reciprocal encoder at the same cut, traversed in reverse.

    For shift-register states this is per-row reversal of the register
    contents.
    """
    L, enc = G.deg, encoder(G)
    regs = enc.state_tuples[enc.state(beta)]
    return tuple(b for j in range(G.rows) for b in reversed(regs[j * L : (j + 1) * L]))


def tailbiting_encode(G, inputs):
    """Circular-convolution (tailbiting) encoding of N input symbols.

    y_t = sum_i u_{(t-i) mod N} G_i: the encoder's circular run, which
    starts and ends in the state formed by the last L input symbols.
    """
    enc = encoder(G)
    return list(map(enc.out_tuples.__getitem__, enc.circular_word(enc.word(inputs))[1]))


def tailbiting_anchor(G, inputs):
    """Encoder state shared by cut 0 and cut N for a tailbiting input word."""
    enc = encoder(G)
    return enc.state_tuples[enc.circular_word(enc.word(inputs))[0]]


def enc_state_space(G):
    """All encoder states, in ascending tuple order."""
    return list(encoder(G).state_tuples)


def sf_state_space(H):
    """All syndrome-former states, structurally absent cells pinned to zero."""
    sf = syndrome_former(H)
    return [sf.state_tuples[x] for x in sf.states]


def xor_states(a, b):
    """Componentwise GF(2) sum of two states (tuples, lists or 0/1 arrays), as a tuple of ints.

    Each state is read as ``_key`` reads it; an entry other than 0/1 raises
    ValueError naming the state, and so do unequal lengths.
    """
    a, b = _key(a), _key(b)
    bad = [s for s in (a, b) if not all(x in (0, 1) for x in s)]
    if bad or len(a) != len(b):
        raise ValueError(f"expected a state of bits in {{0, 1}}, got {bad[0]!r}" if bad else "state length mismatch")
    return tuple(int(x) ^ int(y) for x, y in zip(a, b))


def poly_is_dual_pair(G, H):
    """True iff the polynomial product G(D) H(D)^T is the zero matrix."""
    return (G * H.T).is_zero()

