"""Self-verification suites: every construction against a brute-force oracle.

All suites work at desk scale (exhaustive enumeration of the 2^(Nk)
tailbiting codewords, which ``run_all`` builds once, by linearity from
the encoder's circular runs of the N*k unit inputs, and hands to the
suites that need them) and are deterministic given a seed.  They back the
``verify`` CLI command; the same properties are frozen individually in
the test suite.

A randomized suite draws all of its trials in one
``rng.getrandbits(trials * width)`` call of the standard library's
``random.Random(seed)`` (MT19937) when it starts, the fields of a trial
laid side by side in a row: bit j of the integer is row j // width,
column j % width (``_bits``).  The generator hands out 32 bits at a
time, low word first, so a draw of a multiple of 32 bits followed by
another gives the bits of one draw of their sum.  As the whole draw
comes first, a suite that fails early still leaves the generator past
all of its trials, and the suites that follow see the words they would
see after a PASS.

The codebook has two forms, row for row: the encoder's symbol integers,
a row of N a codeword, in the smallest unsigned dtype that holds an
n-bit symbol (20 MB at N = 20 on the reference code), and the same
codewords as ``gf2._lanes`` (8 MB there), the one packed form of a 0/1
row.  Both are spanned (``gf2._span``) from the units' runs, as are the
anchors, so no codeword is encoded or unpacked on its own.  The
zero-syndrome and set-equality suites read the integers as the syndrome
former reads its input; hscalar-membership and decoder-oracle read the
lanes.  As the span reads only the unit inputs' runs, ``run_all`` also
runs the encoder over a probe block of inputs that meets every state
under every input symbol, and the zero-syndrome suite fails unless the
codebook holds those runs.

The superposition, eta-zeta and hscalar-membership suites hand all of
their trials to one call of the kernel under test and compare whole
arrays.  hscalar-membership proves ker H_scalar = the codebook: every
codeword's lanes lie in the kernel (``gf2._in_kernel``, the kernel of
``is_tailbiting_codeword_batch``: XORed syndromes of the words' bytes,
exact at any width; containment), and the number of
distinct codewords, the rows over the repeats of the zero codeword,
equals 2^(N*n - rank H_scalar), the size of the kernel (count).  Its
random words then need only agree between the matrix and the syndrome
former.  The decoder-oracle suite hands all of its trials to the decoder
in one call of ``decoder._decode_arrays``, which splits them into its
own decode blocks (``decoder._blocks``: blocks of ``BLOCK_BUDGET // S``
words, 1,024 of a 4-state code, which a code with a metric automaton
walks at once and any other code searches a word at a time) and returns
the weights, codewords and tie flags as arrays, the codewords as symbol
integers, the codebook's own form, so the suite compares arrays with no
``DecodeResult`` per word and no unpacking.  It then compares them with
the exhaustive codeword table in one fused pass per distance block of
trials, as many as keep trials x codewords x lanes, the entries of the
XOR buffer, within ``DISTANCE_BLOCK``: on the reference code 1,024
trials at N = 5, so its 1,000 default trials are one block, eight at
N = 12 and one from N = 15 on.  The words are packed into
``gf2._lanes`` like the codebook's, and one XOR into a reused uint64 buffer and one popcount
into a reused uint8 buffer give every distance of a block at any width
(``_distances``; past one lane the lanes sum as uint16).  Per trial,
``_nearest`` takes the least distance and the first and last nearest
codeword.  The trial is unique when they are one, and its decoded
codeword must then be the table's row there.  The table holds its rows
anchor by anchor, so the nearest codewords lie in more than one code
subtrellis exactly when ``searchsorted`` on the anchors' first rows puts
the first and the last under different anchors; ``tie`` must hold
exactly there.
The zero-syndrome suite runs the syndrome former circularly over blocks
of as many codewords as hold ``DISTANCE_BLOCK`` symbols (all 32
codewords of the reference code at N = 5 in one block call).  The
subtrellis-set-equality suite builds each drawn word's sigma_fin, error
trellis and error anchors by the constructions under test, a word at a
time, then reads the words' built trellises at once into stacked integer
tables (``_tables``) and enumerates no path.  Containment: every
codeword of beta, XORed with the word, walks the word's next-state
table from beta's error anchor and must find an edge at every step and
end where it started, so beta's codewords B lie among the anchor's
tailbiting paths A.  Count: the diagonal of the word's product of its
section count matrices, one batched product per section over the
words, is |A|, which must equal |B|, beta's number of distinct
codewords.  B in A and |A| = |B| give A = B.  The product runs in
float64, exact up to 2^53, far above the 2^EXHAUSTIVE_BITS codewords a
beta can have.  The codewords are walked in the blocks of the codebook,
a word at a time.
"""

from __future__ import annotations

import random
from functools import reduce

import numpy as np

from .codespec import MAX_TRIALS
from .decoder import _decode_arrays, _pair
from .error_trellis import (
    backward_syndromes_batch,
    build_tailbiting_error_trellis,
    error_anchor,
    eta_from_zeta,
    sigma_fin,
    tailbiting_syndromes_batch,
)
from .gf2 import _in_kernel, _lanes, _span, rank
from .scalar_parity import hscalar_tailbiting
from .state_machines import dual_state_of, encoder, sf_step_batch, syndrome_former, unpack

EXHAUSTIVE_BITS = 20
DISTANCE_BLOCK = 1 << 15


def _bits(rng, trials, width):
    """``trials`` rows of ``width`` random bits from one ``rng.getrandbits`` call, as uint8.

    Bit j of the drawn integer, least significant first, is row
    j // width, column j % width: its little-endian bytes unpack LSB first.
    """
    draw = np.frombuffer(rng.getrandbits(trials * width).to_bytes(-(-trials * width // 8), "little"), dtype=np.uint8)
    return np.unpackbits(draw, count=trials * width, bitorder="little").reshape(trials, width)


def _codeword_table(G, N):
    """All 2^(N*k) tailbiting codewords, sorted by anchor: (anchor states, symbol integers, first row per anchor, lanes,
    encoded).

    Row i holds one codeword's N output symbols as the encoder emits them,
    in the smallest unsigned dtype that holds an n-bit symbol, and row i
    of the lanes the same codeword as ``gf2._lanes``.  The encoder's
    circular run is linear in its input, so ``_span`` of its runs of the
    N*k unit inputs gives the circular state, the symbols and the lanes
    of every input x at entry x (the first symbol's top bit highest): each
    is spanned and put in order by one stable sort by anchor in turn, so
    an anchor's rows keep input order.  The same ``enc.circular`` call runs
    the probe block: the inputs whose nonzero symbols lie among the last
    min(N, L + 1), so that from N = L + 1 on the last step meets every
    state under every input symbol.  ``encoded`` holds iff the spans hold
    those runs.
    """
    enc, k, units = encoder(G), G.rows, N * G.rows
    states, probes = len(enc.state_tuples), np.arange(1 << k * min(N, G.deg + 1))
    inputs = np.concatenate([1 << np.arange(units - 1, -1, -1), probes])
    fins, outs = enc.circular(inputs[:, None] >> k * np.arange(N - 1, -1, -1) & (1 << k) - 1)
    fin = _span(fins[:units].astype(np.min_scalar_type(states - 1)))
    syms = _span(outs[:units].astype(np.min_scalar_type(enc.out_mask)))
    encoded = (fin[probes] == fins[units:]).all() and (syms[probes] == outs[units:]).all()
    order, counts = fin.argsort(kind="stable"), np.bincount(fin, minlength=states)
    syms, anchors = syms[order], np.flatnonzero(counts)
    lanes = _span(_lanes(unpack(outs[:units], G.cols).reshape(units, -1)))[order]
    return [enc.state_tuples[a] for a in anchors], syms, (counts.cumsum() - counts)[anchors], lanes, bool(encoded)


def suite_superposition(H, rng, trials=1000):
    """Transitions add: the syndrome former is linear in (state, input)."""
    M, r, n = H.deg, H.rows, H.cols
    s1, s2, e1, e2 = np.split(_bits(rng, trials, 2 * M * r + 2 * n), [M * r, 2 * M * r, 2 * M * r + n], axis=1)
    nxt, zeta = sf_step_batch(H, np.concatenate([s1, s2, s1 ^ s2]), np.concatenate([e1, e2, e1 ^ e2]))
    (n1, n2, ns), (z1, z2, zs) = np.split(nxt, 3), np.split(zeta, 3)
    return bool((ns == n1 ^ n2).all() and (zs == z1 ^ z2).all())


def suite_zero_syndrome(G, H, anchors, syms, starts):
    """Codewords traverse the syndrome former from their dual anchor silently.

    A circular run of the syndrome former over every codeword, in blocks
    of as many as hold ``DISTANCE_BLOCK`` symbols, must emit no syndrome
    and end in dual(beta), beta the codeword's anchor.

    With N >= M that is the same as a run from dual(beta) ending there
    with no syndrome: A^M = 0, so every run over the word, whatever its
    start, ends in the circular state.  A run from dual(beta) that ends
    in dual(beta) therefore starts in the circular state and is the
    circular run; and where the circular state is dual(beta), the run
    from dual(beta) is the circular run, which ends there.
    """
    sf, step = syndrome_former(H), max(1, DISTANCE_BLOCK // syms.shape[1])
    duals = np.repeat([sf.state(dual_state_of(G, H, beta)) for beta in anchors], np.diff(starts, append=len(syms)))
    for start in range(0, len(syms), step):
        fin, zetas = sf.circular(syms[start : start + step])
        if zetas.any() or (fin != duals[start : start + step]).any():
            return False
    return True


def _tables(trellises, sf):
    """The built trellises read once into stacked integer tables: (state index, next-state tables, count matrices).

    States are indexed in the first trellis's cut 0 order, in every
    trellis at every cut, and a label is the integer of its symbol, as
    ``sf`` reads an input.  In trellis w's table, section t holds at start
    index << n | label the end index of that edge; a missing edge and
    every edge of state S, one past the last, end in S.  Entry (i, j) of
    its count matrix t is the number of section t's edges from i to j.
    Every edge of every trellis is read by one comprehension, the labels
    by one ``sf.word``, and the tables are one scatter and one
    ``bincount``.
    """
    index = {s: i for i, s in enumerate(trellises[0].states_per_cut[0])}
    (W, N, S), n = (len(trellises), trellises[0].n_sections, len(index)), sf.in_bits
    edges = [(w, t, e) for w, T in enumerate(trellises) for t, section in enumerate(T.sections) for e in section]
    w, t, src, dst = np.array([(w, t, index[e.src], index[e.dst]) for w, t, e in edges], dtype=np.intp).reshape(-1, 4).T
    nxt = np.full((W, N, S + 1 << n), S, dtype=np.intp)
    nxt[w, t, src << n | sf.word([e.label for *_, e in edges])] = dst
    return index, nxt, np.bincount(((w * N + t) * S + src) * S + dst, minlength=W * N * S * S).reshape(W, N, S, S)


def suite_set_equality(G, H, N, anchors, syms, starts, rng, words=5):
    """Error subtrellis paths shifted by z equal the matching code subtrellis.

    Each drawn word's sigma_fin, error trellis and error anchors come from
    the constructions under test, a word at a time; the built trellises
    are then read once into stacked integer tables (``_tables``).  Count:
    the diagonal of each word's product of its count matrices, one
    batched product per section over the words, gives |A| per anchor,
    which must equal the number of distinct codewords of beta.
    Containment: every codeword of beta, XORed with the word, walks the
    word's next-state table from beta's error anchor; it must find an
    edge at every step and end where it started, so beta's codewords B lie
    among the anchor's tailbiting paths A.  B in A and |A| = |B| give
    A = B, with no path left unchecked; a duplicated edge adds a path and
    fails the count.  The product runs in float64, whose entries are exact
    up to 2^53; a count past that stays past it, and past
    2^(N*k) <= 2^EXHAUSTIVE_BITS, the most codewords a beta has, so every
    comparison is exact.  The codewords' symbol integers, XORed with the
    word's, are walked in blocks of as many as hold ``DISTANCE_BLOCK``
    symbols.
    """
    sf, n, step = syndrome_former(H), H.cols, max(1, DISTANCE_BLOCK // N)
    rows = np.diff(starts, append=len(syms))
    # the circular run is linear: a codeword of beta repeats as often as 0 does in the zero anchor, the first
    sizes, group = rows // np.count_nonzero(~syms[: rows[0]].any(axis=1)), np.repeat(np.arange(len(anchors)), rows)
    drawn = _bits(rng, words, N * n).reshape(words, N, n)
    if not words:
        return True
    shifts, fins = sf.symbol_ints(drawn, 2), [sigma_fin(H, z) for z in drawn]
    index, nxt, counts = _tables([build_tailbiting_error_trellis(H, z) for z in drawn], sf)
    at = np.array([[index[error_anchor(beta, fin, G, H)] for beta in anchors] for fin in fins])
    paths = reduce(np.matmul, counts.astype(np.float64).swapaxes(0, 1))
    if (np.take_along_axis(paths.diagonal(axis1=1, axis2=2), at, axis=1) != sizes).any():
        return False
    for table, shift, anchor in zip(nxt, shifts, at):
        for start in range(0, len(syms), step):
            x = first = anchor[group[start : start + step]]
            for section, syms_t in zip(table, (syms[start : start + step] ^ shift).T):
                x = section.take(x << n | syms_t)
            if (x != first).any():
                return False
    return True


def suite_eta_zeta(H, N, rng, trials=1000):
    """Backward syndromes equal the reindexed forward syndromes."""
    words = _bits(rng, trials, N * H.cols).reshape(trials, N, H.cols)
    order = list(eta_from_zeta(range(N), H.deg))
    direct = backward_syndromes_batch(H, words)
    return bool((direct == tailbiting_syndromes_batch(H, words)[:, order]).all())


def suite_hscalar_membership(H, N, lanes, rng, trials=1000):
    """ker H_scalar == exhaustive codeword set, and matrix membership == zero syndrome sequence.

    Containment: every codeword's lanes lie in the kernel.  Count: the
    number of distinct codewords, len(lanes) over the number of all-zero
    rows (the encoder's run is linear, so every codeword repeats as often
    as the zero codeword), must equal 2^(N*n - rank H_scalar), the size of
    the kernel.  Containment and equal size give kernel = code, so the
    random words need only agree between the matrix and the syndromes.
    """
    n, P = H.cols, hscalar_tailbiting(H, N)
    words = _bits(rng, trials, N * n)
    distinct = len(lanes) // np.count_nonzero(~lanes.any(axis=1))
    if not _in_kernel(P.matrix, lanes).all() or distinct != 2 ** (N * n - rank(P.matrix)):
        return False
    zero_syndrome = ~tailbiting_syndromes_batch(H, words.reshape(trials, N, n)).any(axis=(1, 2))
    return bool((_in_kernel(P.matrix, _lanes(words)) == zero_syndrome).all())


def _distances(words, table, xor, count):
    """The Hamming distance from every row of ``words`` to every row of ``table``, both ``_lanes``.

    One XOR into the first entries of ``xor`` (uint64) and one popcount
    into those of ``count`` (uint8), buffers a caller reuses across
    blocks, give each lane's distance; a row within one lane reads it as
    uint8, and a wider row sums its lanes as uint16.
    """
    shape, size = (len(words), *table.shape), len(words) * table.size
    xor, count = xor[:size].reshape(shape), count[:size].reshape(shape)
    ones = np.bitwise_count(np.bitwise_xor(words[:, None], table, out=xor), out=count)
    return ones[:, :, 0] if shape[2] == 1 else ones.sum(axis=2, dtype=np.uint16)


def _nearest(dists, starts):
    """Per row of ``dists``: (least distance, first nearest column, unique, tie).

    ``unique`` holds where one column alone is nearest, and ``tie`` where
    the nearest lie under more than one anchor.  The columns are the
    codeword table's rows, anchor by anchor from ``starts`` on, so the
    nearest lie under one anchor exactly when the first and the last do.
    One comparison with the row minima and one ``flatnonzero`` give every
    nearest (row, column) in row order, so each row's first and last are
    the ends of its run, and two ``searchsorted`` in ``starts`` place
    them under their anchors.  A reversed argmin for the last would copy
    the distances first, at ~0.4 ms a row of 2^20.
    """
    best = dists.min(axis=1)
    row, col = np.divmod(np.flatnonzero(dists == best[:, None]), dists.shape[1])
    at = np.arange(len(dists))
    first, last = col[row.searchsorted(at)], col[row.searchsorted(at, "right") - 1]
    return best, first, first == last, starts.searchsorted(first, "right") != starts.searchsorted(last, "right")


def suite_decoder_oracle(G, H, N, syms, starts, lanes, rng, trials=1000):
    """Decoder weight equals the exhaustive minimum distance, every time.

    Where the nearest codeword is unique, the decoder returns it, as
    symbol integers like ``syms``.  ``tie`` holds exactly where the
    nearest codewords lie in more than one code subtrellis: ``syms`` holds
    the codewords anchor by anchor, each anchor's rows from its entry of
    ``starts`` on, and ``lanes`` holds the same rows packed.  Each
    distance block of trials is one ``_distances`` and one ``_nearest``.
    """
    n = H.cols
    words = _bits(rng, trials, N * n)
    if not trials:
        return True
    weight, codeword, tie = _decode_arrays(G, H, words.reshape(trials, N, n))
    table, lanes = lanes, _lanes(words)
    per_block = min(trials, max(1, DISTANCE_BLOCK // table.size))
    xor, count = (np.empty(per_block * table.size, dtype=dtype) for dtype in (np.uint64, np.uint8))
    for start in range(0, trials, per_block):
        block = slice(start, start + per_block)
        best, first, unique, ties = _nearest(_distances(lanes[block], table, xor, count), starts)
        wrong = unique & (codeword[block] != syms[first]).any(axis=1)
        if (weight[block] != best).any() or wrong.any() or (tie[block] != ties).any():
            return False
    return True


def run_all(G, H, N, seed=1, trials=1000):
    """Run every suite; returns [(name, passed)] in a fixed order.

    The pair is checked before any suite runs, by its decoder record
    (``decoder._pair``): as a spec load checks it, and for encoder states
    that map onto one anchor.  So is ``trials``: at most ``MAX_TRIALS``,
    since each randomized suite draws all of its trials at once.  The
    codebook is spanned from the encoder's runs of the unit inputs alone,
    so zero-syndrome also fails where the encoder's own runs of the probe
    block differ from it (``_codeword_table``'s ``encoded``).
    """
    _pair(G, H)
    if N < 1:
        raise ValueError(f"N must be at least 1, got {N}")
    if N < H.deg:
        raise ValueError(f"-N {N} is below M={H.deg}, the memory of H")
    if trials < 0:
        raise ValueError(f"trials must be at least 0, got {trials}")
    if trials > MAX_TRIALS:
        raise ValueError(f"trials must be at most {MAX_TRIALS}, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be at least 0, got {seed}")
    if N * G.rows > EXHAUSTIVE_BITS:
        raise ValueError(f"N*k = {N * G.rows} exceeds the exhaustive bound {EXHAUSTIVE_BITS}")
    rng = random.Random(seed)
    anchors, syms, starts, lanes, encoded = _codeword_table(G, N)
    return [
        ("superposition", suite_superposition(H, rng, trials)),
        ("zero-syndrome-traversal", encoded and suite_zero_syndrome(G, H, anchors, syms, starts)),
        ("subtrellis-set-equality", suite_set_equality(G, H, N, anchors, syms, starts, rng)),
        ("eta-zeta-correspondence", suite_eta_zeta(H, N, rng, trials)),
        ("hscalar-membership", suite_hscalar_membership(H, N, lanes, rng, trials)),
        ("decoder-oracle", suite_decoder_oracle(G, H, N, syms, starts, lanes, rng, trials)),
    ]
