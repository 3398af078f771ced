"""The decoder against its per-subtrellis definition, and its running costs.

The reference decodes one subtrellis at a time: it builds the error
trellis, runs ``min_weight_path`` from every anchor sigma_fin + dual(beta)
and sorts the candidates by (weight, labels, anchor, beta).
"""

import os
import subprocess
import sys
from collections import Counter
from itertools import chain, product
from pathlib import Path

import numpy as np
import pytest

import tbtrellis.decoder as decoder
import tbtrellis.error_trellis as error_trellis
from tbtrellis import (
    DecodeResult,
    build_tailbiting_error_trellis,
    decode_tailbiting,
    decode_tailbiting_batch,
    enc_state_space,
    error_anchor,
    min_weight_path,
    parse_bits,
    poly_from_strings,
    sigma_fin,
    sf_run,
    split_symbols,
)
from tbtrellis.cli import main
from tbtrellis.state_machines import LinearMachine
from tbtrellis.verify import run_all

from conftest import G1_STRINGS, G2_STRINGS, H1_STRINGS, H2_STRINGS, RANK_DEFICIENT, RECEIVED
from oracle import circ_encode, coeffs_from_strings, flat

K7_STRINGS = ([["1011011", "1111001"]], [["1111001", "1011011"]])
CODES = {
    "ref": ((G1_STRINGS, H1_STRINGS), 300),
    "mem2": ((G2_STRINGS, H2_STRINGS), 300),
    "16-state": (([["10011", "11101"]], [["11101", "10011"]]), 300),
    "k7": (K7_STRINGS, 30),
    "32-state": (([["101111", "110101"]], [["110101", "101111"]]), 100),
    # H_0 = 0: under each syndrome symbol only half of the states have edges
    "H0-zero": (([["11", "1"]], [["01", "011"]]), 300),
}


def brute_force_rows(H, tables):
    """Per stack key and state: (label, end state index, weight) of each input run whose syndromes read as the key.

    Every m-step and single-step input sequence is folded through
    ``sf_run`` from every state, in ascending label order.
    """
    r, n, states = H.rows, H.cols, tables.states
    rows = [[[] for _ in states] for _ in tables.sections.out]
    for j, first in ((tables.m, 0), (1, 1 << r * tables.m)):
        for label, bits in enumerate(product((0, 1), repeat=n * j)):
            for i, state in enumerate(states):
                end, zetas = sf_run(H, state, [bits[t * n : t * n + n] for t in range(j)])
                key = int("".join(map(str, chain(*zetas))), 2)
                rows[first + key][i].append((label, states.index(end), sum(bits)))
    return rows


def collapse(edges):
    """The lightest edge, then the one of smallest label, to each end state, in label order."""
    kept = {}
    for edge in sorted(edges, key=lambda e: (e[2], e[0])):
        kept.setdefault(edge[1], edge)
    return sorted(kept.values())


# two equal rows: from the states that emit 01 or 10, every step enters 00 or 11, which emit only 00 and 11
DOUBLED_ROW_H = [["11", "01", "11"], ["11", "01", "11"]]


@pytest.mark.parametrize("h", [h for (_, h), _ in CODES.values()] + [DOUBLED_ROW_H])
def test_search_tables_hold_exactly_the_syndrome_former_paths_of_each_key(h):
    """A key's live slots are, per end state, its lightest input run of smallest label, in label order; every other slot ends in S.

    Every optimal merged edge into an end state has the least weight of
    the runs into it, so both tracebacks, which take the first optimal
    slot in label order, take the kept run of some end state.  The
    incoming stack holds the same runs per end state, (start, weight)
    with starts ascending; its other slots start in S with weight 0.
    """
    H = poly_from_strings(h)
    tables = error_trellis._search_tables(H)
    sec, S = tables.sections, len(tables.states)
    rows = brute_force_rows(H, tables)
    kept = [[collapse(edges) for edges in run] for run in rows]
    assert [[list(edges) for edges in run] for run in sec.out] == kept
    src, src_weight = sec.incoming
    for key, run in enumerate(kept):
        for i, edges in enumerate(run):
            live = len(edges)
            assert sec.dst[key, :live, i].tolist() == [dst for _, dst, _ in edges]
            assert sec.weight[key, :live, i].tolist() == [w for _, _, w in edges]
            assert sec.label[key, :live, i].tolist() == [label for label, _, _ in edges]
            assert (sec.dst[key, live:, i] == S).all()
        for end in range(S + 1):
            into = [(start, w) for start, edges in enumerate(run) for _, dst, w in edges if dst == end]
            live = len(into)
            assert list(zip(src[key, :live, end].tolist(), src_weight[key, :live, end].tolist())) == into
            assert (src[key, live:, end] == S).all() and (src_weight[key, live:, end] == 0).all()
    assert (sec.dst[:, :, S] == S).all()
    if h == DOUBLED_ROW_H:
        m, r = tables.m, H.rows
        later = [{key >> r * p & 3 for p in range(m - 1)} for key in range(1 << r * m)]
        assert [not any(rows[key]) for key in range(1 << r * m)] == [bool(s & {1, 2}) for s in later]


def reference_decode(G, H, z):
    fin = sigma_fin(H, z)
    T = build_tailbiting_error_trellis(H, z)
    candidates = []
    for beta in enc_state_space(G):
        anchor = error_anchor(beta, fin, G, H)
        try:
            labels, w = min_weight_path(T, anchor)
        except RuntimeError:
            continue
        candidates.append((w, labels, anchor, beta))
    candidates.sort()
    w, labels, anchor, beta = candidates[0]
    error = flat(labels)
    return DecodeResult(
        codeword=tuple(a ^ b for a, b in zip(flat(z), error)),
        error=error,
        weight=w,
        anchor_beta=beta,
        anchor_sigma=anchor,
        tie=len(candidates) > 1 and candidates[1][0] == w,
    )


@pytest.mark.parametrize("name", sorted(CODES))
def test_decode_matches_per_subtrellis_reference(name):
    (g, h), words = CODES[name]
    G, H = poly_from_strings(g), poly_from_strings(h)
    M, L, n, m = H.deg, G.deg, H.cols, error_trellis._search_tables(H).m
    lengths = sorted({N for N in (M, L - 1, L, L + 1, 2 * L + 3, m - 1, m, m + 1, 2 * m + 1) if N >= max(M, 1)})
    rng = np.random.default_rng(53)
    ties = 0
    for i in range(words):
        N = lengths[i % len(lengths)]
        z = [tuple(int(b) for b in rng.integers(0, 2, n)) for _ in range(N)]
        res = decode_tailbiting(G, H, z)
        assert res == reference_decode(G, H, z), (N, z)
        ties += res.tie
    assert ties, f"expected a tie among {words} random words"


def low_noise_words(count, seed, N=48, p=0.03, strings=K7_STRINGS):
    """Oracle codewords of a rate-1/2 code (the K=7 code by default) at length N, each bit flipped with probability p."""
    g = coeffs_from_strings(strings[0])
    rng = np.random.default_rng(seed)
    words = []
    for _ in range(count):
        y = circ_encode(g, [(int(b),) for b in rng.integers(0, 2, N)])
        flips = (rng.random((N, 2)) < p).astype(int).tolist()
        words.append([tuple(b ^ f for b, f in zip(sym, row)) for sym, row in zip(y, flips)])
    return words


def test_decode_matches_per_subtrellis_reference_on_low_noise_k7_words():
    G, H = (poly_from_strings(s) for s in K7_STRINGS)
    for z in low_noise_words(4, 71):
        assert decode_tailbiting(G, H, z) == reference_decode(G, H, z), z


@pytest.mark.parametrize("name", sorted(CODES))
def test_decode_matches_per_subtrellis_reference_at_every_section_remainder(name):
    """Lengths M..M+m: every N mod m for the m of H's merged tables, and N < m where M < m."""
    (g, h), _ = CODES[name]
    G, H = poly_from_strings(g), poly_from_strings(h)
    m, low = error_trellis._search_tables(H).m, max(H.deg, 1)
    lengths = range(low, low + m + 1)
    assert {N % m for N in lengths} == set(range(m))
    rng = np.random.default_rng(89)
    for N in lengths:
        for _ in range(2 if name == "k7" else 6):
            z = [tuple(int(b) for b in rng.integers(0, 2, H.cols)) for _ in range(N)]
            assert decode_tailbiting(G, H, z) == reference_decode(G, H, z), (N, z)


# m, stack shape and block per code; the 16-state, 32-state and K=7 codes' merged runs keep
# every path, one per end state, so their tables are those the uncollapsed stack had
TABLE_SIZES = {
    "ref": (4, (2**8 + 2**2, 4, 5), 512),
    "mem2": (6, (2**6 + 2, 4, 5), 512),
    "16-state": (4, (2**4 + 2, 16, 17), 8),
    "k7": (3, (2**3 + 2, 8, 65), 1),
    "32-state": (3, (2**3 + 2, 8, 33), 1),
    "H0-zero": (6, (2**6 + 2, 4, 5), 512),
}


@pytest.mark.parametrize("name", sorted(CODES))
def test_search_tables_have_the_size_of_one_merged_edge_per_end_state(name):
    tables = error_trellis._search_tables(poly_from_strings(CODES[name][0][1]))
    assert (tables.m, tables.sections.dst.shape, tables.block) == TABLE_SIZES[name]


def test_pruning_runs_on_the_codes_whose_all_anchor_pass_exceeds_the_budget():
    pruned = {name for name, ((_, h), _) in CODES.items() if error_trellis._search_tables(poly_from_strings(h)).prune}
    assert pruned == {"32-state", "k7"}


def _recorded_passes(monkeypatch):
    """A list to which the caller appends one list per decode; each min-plus pass adds an entry to the last.

    A search pass adds its column count.  The two passes on one flat cost
    row add "end" (the end-anywhere bound pass) and "start" (the
    start-anywhere pass over the incoming stack).
    """
    passes = []
    real_min_plus, real_start_anywhere = decoder._min_plus, decoder._start_anywhere

    def recording_min_plus(sections, end):
        passes[-1].append(len(end) if end.ndim > 1 else "end")
        return real_min_plus(sections, end)

    def recording_start_anywhere(tables, at):
        cost = real_start_anywhere(tables, at)
        assert passes[-1][-1] == "end"
        passes[-1][-1] = "start"
        return cost

    monkeypatch.setattr(decoder, "_min_plus", recording_min_plus)
    monkeypatch.setattr(decoder, "_start_anywhere", recording_start_anywhere)
    return passes


def test_one_pass_kernel_prunes_anchors_on_low_noise_k7_words(monkeypatch):
    """Passes per word: a 1-column bound pass that mostly closes the word; else one 1-column start-anywhere pass that
    often closes it, else one set of few anchors."""
    passes = _recorded_passes(monkeypatch)
    G, H = (poly_from_strings(s) for s in K7_STRINGS)
    S = len(error_trellis._search_tables(H).states)
    for z in low_noise_words(200, 7):
        passes.append([])
        decode_tailbiting(G, H, z)
    assert all(c[0] == "end" for c in passes)
    assert sum(len(c) == 1 for c in passes) >= len(passes) * 3 / 4
    # every word that does not close on the first check runs one start-anywhere pass, then at most one search set
    opened = [c[1:] for c in passes if len(c) > 1]
    assert all(c[0] == "start" and len(c) <= 2 and all(isinstance(k, int) for k in c[1:]) for c in opened)
    assert any(len(c) == 1 for c in opened) and any(len(c) == 2 for c in opened)
    searched = [sum(c[1:]) for c in opened]
    assert max(searched) <= S and sum(searched) < len(passes) / 8
    # a 4-state code searches every anchor in one pass, without a bound pass
    G, H = poly_from_strings(G1_STRINGS), poly_from_strings(H1_STRINGS)
    passes.clear()
    for z in ([(1, 0, 1)] * 5, [(0, 1, 1)] * 16):
        passes.append([])
        decode_tailbiting(G, H, z)
    assert passes == [[4], [4]]


def test_every_outcome_of_the_bound_pass_matches_the_reference(monkeypatch):
    """The walk from the one least-bound anchor closes on it; it closes on the one anchor of least two-sided bound;
    neither closes and one anchor has the least two-sided bound; several anchors share it."""
    passes = _recorded_passes(monkeypatch)
    G, H = (poly_from_strings(s) for s in K7_STRINGS)
    outcomes = Counter()
    for z in low_noise_words(24, 37, N=12, p=0.1):
        passes.append([])
        assert decode_tailbiting(G, H, z) == reference_decode(G, H, z), z
        c = passes[-1]
        if len(c) < 3:
            outcomes[["closed", "closed on the second check"][len(c) - 1]] += 1
        else:
            outcomes["open" if c[2] == 1 else "shared"] += 1
    assert min(outcomes[k] for k in ("closed", "closed on the second check", "open", "shared")) >= 1, outcomes


def test_a_k7_word_that_closes_on_the_second_check_decodes_to_its_golden_line(monkeypatch, capsys):
    """The CLI line of a 48-symbol low-noise K=7 word whose bound pass does not close, but whose start-anywhere pass
    leaves one anchor of least bound, on which the walk closes; CI diffs the installed package against it."""
    passes = _recorded_passes(monkeypatch)
    golden = Path(__file__).parent / "golden"
    received = (golden / "decode_k7_received.txt").read_text().strip()
    code = str(Path(__file__).parent.parent / "perfbench" / "codes" / "k7.json")
    passes.append([])
    assert main(["decode", "--code", code, "--received", received]) == 0
    assert capsys.readouterr().out == (golden / "decode_k7.txt").read_text()
    assert passes == [["end", "start"]]


# the codes that prune, with p = 0.03, p = 0.06 and uniform words (p = 0.5)
PRUNED = ["k7", "32-state"]
NOISE = [0.03, 0.06, 0.5]


def _captured_words(monkeypatch, name, lengths, count):
    """Per word decoded at each length and noise level: the tables, anchor states and step keys ``_search_word`` got."""
    (g, h), _ = CODES[name]
    G, H = poly_from_strings(g), poly_from_strings(h)
    captured, real_search_word = [], decoder._search_word

    def capturing_search_word(tables, betas, rows, keys):
        captured.append((tables, rows, np.array(keys)))
        return real_search_word(tables, betas, rows, keys)

    monkeypatch.setattr(decoder, "_search_word", capturing_search_word)
    for i, (N, p) in enumerate(product(lengths, NOISE)):
        for z in low_noise_words(count, 97 + i, N=N, p=p, strings=(g, h)):
            decode_tailbiting(G, H, z)
    monkeypatch.undo()
    return captured


def start_bound_misses(tables, rows, at):
    """Anchors whose start-anywhere bound differs from the least cut-0 cost, over start states, of their column of an
    all-anchor pass."""
    S = len(tables.states)
    sections = tables.sections.dst.take(at, axis=0), tables.sections.weight.take(at, axis=0)
    every = decoder._min_plus(sections, decoder._ends(S).take(rows, axis=0))[0, :, :S].min(axis=1)
    return np.flatnonzero(decoder._start_anywhere(tables, at)[0].take(rows) != every)


@pytest.mark.parametrize("name", PRUNED)
def test_start_anywhere_bound_is_the_least_cost_into_each_anchor(monkeypatch, name):
    """Lengths M, M + 1, 12 and 48; an incoming stack missing its last slot fails the same check."""
    M = poly_from_strings(CODES[name][0][1]).deg
    captured = _captured_words(monkeypatch, name, [M, M + 1, 12, 48], 4)
    assert all(not len(start_bound_misses(*word)) for word in captured)
    tables = captured[0][0]
    assert tables.prune
    incoming = tables.sections.incoming
    short = tables._replace(sections=tables.sections._replace(incoming=tuple(a[:, :-1] for a in incoming)))
    assert any(len(start_bound_misses(short, rows, at)) for _, rows, at in captured)


@pytest.mark.parametrize("name", PRUNED)
def test_pruned_search_equals_the_search_of_every_anchor(monkeypatch, name):
    """Low-noise words at p = 0.03 and 0.06 at N = 48, and uniform words at short lengths and at 48."""
    (g, h), _ = CODES[name]
    G, H = poly_from_strings(g), poly_from_strings(h)
    rng = np.random.default_rng(29)
    M = H.deg
    uniform = [[tuple(int(b) for b in rng.integers(0, 2, 2)) for _ in range(N)] for N in [M, M + 1, M + 2, 48] * 10]
    words = low_noise_words(100, 13, strings=(g, h)) + low_noise_words(60, 19, p=0.06, strings=(g, h)) + uniform
    pruned = [decode_tailbiting(G, H, z) for z in words]
    tables = error_trellis._search_tables(H)
    assert tables.prune
    monkeypatch.setattr(decoder, "_search_tables", lambda H: tables._replace(prune=False))
    assert [decode_tailbiting(G, H, z) for z in words] == pruned


def test_decode_rejects_an_empty_word_of_a_memoryless_code():
    G, H = poly_from_strings([["1", "1"]]), poly_from_strings([["1", "1"]])
    assert decode_tailbiting(G, H, [(1, 0)]).weight == 1
    with pytest.raises(ValueError):
        decode_tailbiting(G, H, [])


def test_search_tables_size_m_from_every_syndrome_symbol():
    """m counts the keys of all 2^(r*m) runs of symbols, emitted or not.

    The rank-1 H of rows h and D*h emits 32 of the 64 runs of 3 symbols
    (its second syndrome bit is its first one step late) and 64 of the
    256 runs of 4.  Over all runs, 2^(2*m) keys x 8 states x min(4^m, 8)
    slots fill ``TABLE_BUDGET`` at m = 3; over the emitted runs alone,
    m = 4 would fit (64 x 8 x 8), and so would its 2^(3*4) labels.  Each
    state keeps 2 merged edges per key.  The rank-1 H of two equal rows
    emits 2 of its 4 symbols, but its stack spans the keys of all 4; its
    m = 4 is set by the 2^(3*m) labels.
    """
    tables = error_trellis._search_tables(poly_from_strings(RANK_DEFICIENT[1]["H"]))
    assert tables.m == 3
    assert tables.sections.dst.shape == (2**6 + 2**2, 2, 9)
    assert sum(map(any, tables.sections.out[: 2**6])) == 32
    tables = error_trellis._search_tables(poly_from_strings(RANK_DEFICIENT[0]["H"]))
    assert tables.m == 4
    assert tables.sections.dst.shape == (2**8 + 2**2, 1, 2)


# pairs that a spec load rejects, with a word each: before the check, the library decoded
# the first to y=110 001 111 and the second to y=111 110 111 011 101, neither a codeword
LIBRARY_REJECTS = [
    (RANK_DEFICIENT[0]["G"], RANK_DEFICIENT[0]["H"], "110 011 101", r"matrix H has rank 1 over GF\(2\)\(D\), need 2"),
    (G1_STRINGS, [["11", "01", "11"], ["01", "1", "0"]], RECEIVED, r"G and H are not dual: G\(D\) H\(D\)\^T is nonzero"),
]


@pytest.mark.parametrize("g, h, word, message", LIBRARY_REJECTS)
def test_library_entry_points_reject_the_pairs_a_spec_load_rejects(g, h, word, message):
    G, H = poly_from_strings(g), poly_from_strings(h)
    z = split_symbols(parse_bits(word), 3)
    calls = (
        lambda: decode_tailbiting(G, H, z),
        lambda: decode_tailbiting_batch(G, H, [z, z[::-1]]),
        lambda: run_all(G, H, len(z), trials=10),
    )
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()


def test_decode_runs_the_syndrome_former_once(monkeypatch):
    """One circular run per decode block, and no syndrome-former step.

    A block of one word is one ``LinearMachine.circular_word``, whose one
    integer fold runs over the word's last M symbols and then the word; a
    block of several words is one ``LinearMachine.circular`` call.  A
    second fold, e.g. for sigma_fin alone, counts.
    """
    K7 = [poly_from_strings(s) for s in K7_STRINGS]
    ref = poly_from_strings(G1_STRINGS), poly_from_strings(H1_STRINGS)
    z7, z = [(1, 0), (0, 1), (1, 1)] * 4, split_symbols(parse_bits(RECEIVED), 3)
    for G, H in (K7, ref):
        decode_tailbiting(G, H, z7 if G is K7[0] else z)  # fills the per-code caches
    calls = Counter()
    for name in ("circular", "circular_word", "fold"):
        real = getattr(LinearMachine, name)

        def counting(self, *args, _real=real, _name=name):
            calls[_name] += 1
            return _real(self, *args)

        monkeypatch.setattr(LinearMachine, name, counting)
    decode_tailbiting(*K7, z7)
    assert calls == {"circular_word": 1, "fold": 1}
    # a block of the 64-state code holds one word
    decode_tailbiting_batch(*K7, [z7, z7[::-1], z7])
    assert calls == {"circular_word": 4, "fold": 4}
    decode_tailbiting(*ref, z)
    assert calls == {"circular_word": 5, "fold": 5}
    # the reference code's 3 words fill one block
    decode_tailbiting_batch(*ref, [z, z[::-1], z])
    assert calls == {"circular_word": 5, "fold": 5, "circular": 1}
    # an array word is packed by ``received`` and run once
    decode_tailbiting(*ref, np.array(z))
    assert calls == {"circular_word": 6, "fold": 6, "circular": 1}


def test_decode_imports_nothing_new():
    """Decoding loads no module that importing the package did not (e.g. numpy.ma)."""
    script = (
        "import sys, tbtrellis\n"
        "before = set(sys.modules)\n"
        f"G, H = (tbtrellis.poly_from_strings(s) for s in {K7_STRINGS!r})\n"
        "tbtrellis.decode_tailbiting(G, H, [(1, 0), (0, 1), (1, 1)] * 16)\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.split() == []
