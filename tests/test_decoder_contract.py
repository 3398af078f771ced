"""The decoder against its per-subtrellis definition, and its running costs.

The reference decodes one subtrellis at a time: it builds the error
trellis, runs ``min_weight_path`` from every anchor sigma_fin + dual(beta)
and sorts the candidates by (weight, labels, anchor, beta).
"""

import hashlib
import os
import subprocess
import sys
from collections import Counter
from itertools import chain, product
from pathlib import Path

import numpy as np
import pytest

import tbtrellis.decoder as decoder
from tbtrellis import (
    DecodeResult,
    build_tailbiting_error_trellis,
    decode_tailbiting,
    decode_tailbiting_batch,
    dual_state_of,
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
from tbtrellis.gf2 import PolyMatrix
from tbtrellis.state_machines import LinearMachine, syndrome_former
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
    rows = [[[] for _ in states] for _ in tables.dst]
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
    tables = decoder._search_tables(H)
    S = len(tables.states)
    rows = brute_force_rows(H, tables)
    kept = [[collapse(edges) for edges in run] for run in rows]
    # a key's rows are read from the tables on its first lookup
    assert [tables.out[key] for key in range(len(tables.dst))] == kept
    src, src_weight = tables.incoming
    for key, run in enumerate(kept):
        for i, edges in enumerate(run):
            live = len(edges)
            assert tables.dst[key, :live, i].tolist() == [dst for _, dst, _ in edges]
            assert tables.weight[key, :live, i].tolist() == [w for _, _, w in edges]
            assert tables.label[key, :live, i].tolist() == [label for label, _, _ in edges]
            assert (tables.dst[key, live:, i] == S).all()
        for end in range(S + 1):
            into = [(start, w) for start, edges in enumerate(run) for _, dst, w in edges if dst == end]
            live = len(into)
            assert list(zip(src[key, :live, end].tolist(), src_weight[key, :live, end].tolist())) == into
            assert (src[key, live:, end] == S).all() and (src_weight[key, live:, end] == 0).all()
    assert (tables.dst[:, :, S] == S).all()
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
    M, L, n, m = H.deg, G.deg, H.cols, decoder._search_tables(H).m
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
    m, low = decoder._search_tables(H).m, max(H.deg, 1)
    lengths = range(low, low + m + 1)
    assert {N % m for N in lengths} == set(range(m))
    rng = np.random.default_rng(89)
    for N in lengths:
        for _ in range(2 if name == "k7" else 6):
            z = [tuple(int(b) for b in rng.integers(0, 2, H.cols)) for _ in range(N)]
            assert decode_tailbiting(G, H, z) == reference_decode(G, H, z), (N, z)


# m and stack shape per code; the 16-state, 32-state and K=7 codes' merged runs keep
# every path, one per end state, so their tables are those the uncollapsed stack had
TABLE_SIZES = {
    "ref": (4, (2**8 + 2**2, 4, 5)),
    "mem2": (6, (2**6 + 2, 4, 5)),
    "16-state": (4, (2**4 + 2, 16, 17)),
    "k7": (3, (2**3 + 2, 8, 65)),
    "32-state": (3, (2**3 + 2, 8, 33)),
    "H0-zero": (6, (2**6 + 2, 4, 5)),
}


@pytest.mark.parametrize("name", sorted(CODES))
def test_search_tables_have_the_size_of_one_merged_edge_per_end_state(name):
    tables = decoder._search_tables(poly_from_strings(CODES[name][0][1]))
    assert (tables.m, tables.dst.shape) == TABLE_SIZES[name]


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


def _search_every_anchor(monkeypatch):
    """Make every bound pass (a flat cost row at cut N) return zeros; returns the column counts of the search passes.

    A bound of 0 is a valid lower bound of every anchor, so the pruned
    search closes on neither check and searches every anchor in one pass.
    """
    searched, real_min_plus = [], decoder._min_plus

    def zero_bound_min_plus(sections, end):
        if end.ndim == 1:
            return np.zeros((len(sections[0]) + 1, *end.shape), dtype=np.int32)
        searched.append(len(end))
        return real_min_plus(sections, end)

    monkeypatch.setattr(decoder, "_min_plus", zero_bound_min_plus)
    return searched


# the low-weight certificate as the decoder defines it, which the helpers below patch over
CERTIFICATE = decoder._certificate


def _recorded_certificates(monkeypatch):
    """A list to which each call of ``_certificate`` (on, even if patched off before) appends whether it answered."""
    answered, real_certificate = [], CERTIFICATE

    def recording_certificate(*args):
        found = real_certificate(*args)
        answered.append(found is not None)
        return found

    monkeypatch.setattr(decoder, "_certificate", recording_certificate)
    return answered


def _certificate_off(monkeypatch):
    """Make ``_certificate`` answer no word, so every pruned word runs the passes it ran before the certificate."""
    monkeypatch.setattr(decoder, "_certificate", lambda *args: None)


def test_pruning_runs_on_the_codes_with_no_metric_automaton(monkeypatch):
    """A one-word decode opens with the end-anywhere bound pass exactly on the codes whose ``_automaton`` is None."""
    codes = {name: [poly_from_strings(s) for s in strings] for name, (strings, _) in CODES.items()}
    # each automaton's build, once per H, runs min-plus steps of its own: made first, the test does not depend on
    # the tests run before it
    unwalked = {name for name, (_, H) in codes.items() if decoder._automaton(H) is None}
    assert unwalked == {"16-state", "32-state", "k7"}
    passes = _recorded_passes(monkeypatch)
    _certificate_off(monkeypatch)
    for G, H in codes.values():
        passes.append([])
        decode_tailbiting(G, H, [(1,) * H.cols] * max(H.deg, 1))
    assert {name for name, c in zip(codes, passes) if c[:1] == ["end"]} == unwalked
    assert all(c == [] for name, c in zip(codes, passes) if name not in unwalked)
    # with the certificate on, exactly the pruned codes ask it, and a word it answers runs no pass: the K=7 word
    answered = _recorded_certificates(monkeypatch)
    passes.clear()
    for G, H in codes.values():
        passes.append([])
        decode_tailbiting(G, H, [(1,) * H.cols] * max(H.deg, 1))
    pruned = [c for name, c in zip(codes, passes) if name in unwalked]
    assert len(answered) == len(unwalked) and all(c == [] for name, c in zip(codes, passes) if name not in unwalked)
    assert [c == [] for c in pruned] == answered and [c[:1] == ["end"] for c in pruned] == [not a for a in answered]
    assert passes[list(codes).index("k7")] == []


def test_one_pass_kernel_prunes_anchors_on_low_noise_k7_words(monkeypatch):
    """Passes per word: a 1-column bound pass that mostly closes the word; else one 1-column start-anywhere pass that
    often closes it, else one set of few anchors."""
    passes = _recorded_passes(monkeypatch)
    G, H = (poly_from_strings(s) for s in K7_STRINGS)
    S = len(decoder._search_tables(H).states)
    words = low_noise_words(200, 7)
    _certificate_off(monkeypatch)
    for z in words:
        passes.append([])
        decode_tailbiting(G, H, z)
    searched_passes = passes[:]
    assert all(c[0] == "end" for c in passes)
    assert sum(len(c) == 1 for c in passes) >= len(passes) * 3 / 4
    # every word that does not close on the first check runs one start-anywhere pass, then at most one search set
    opened = [c[1:] for c in passes if len(c) > 1]
    assert all(c[0] == "start" and len(c) <= 2 and all(isinstance(k, int) for k in c[1:]) for c in opened)
    assert any(len(c) == 1 for c in opened) and any(len(c) == 2 for c in opened)
    searched = [sum(c[1:]) for c in opened]
    assert max(searched) <= S and sum(searched) < len(passes) / 8
    # with the certificate on, the words it answers (those of one error of weight <= 3, 69%) run no pass and every
    # other word runs the passes it ran with the certificate off
    answered = _recorded_certificates(monkeypatch)
    passes.clear()
    for z in words:
        passes.append([])
        decode_tailbiting(G, H, z)
    assert passes == [[] if a else c for a, c in zip(answered, searched_passes)]
    assert len(words) * 3 / 5 < sum(answered) < len(words) * 4 / 5
    # a 4-state code searches every anchor by walks over its automaton, with no min-plus pass, one word or a block
    # of several; the automaton's build, once per H, runs min-plus steps of its own
    G, H = poly_from_strings(G1_STRINGS), poly_from_strings(H1_STRINGS)
    passes.append([])
    assert decoder._automaton(H) is not None
    passes.clear()
    for z in ([(1, 0, 1)] * 5, [(0, 1, 1)] * 16):
        passes.append([])
        decode_tailbiting(G, H, z)
    passes.append([])
    assert len(decode_tailbiting_batch(G, H, [[(1, 0, 1)] * 5, [(0, 1, 1)] * 5, [(1, 1, 0)] * 5])) == 3
    assert passes == [[], [], []]
    assert len(answered) == len(words)


def test_every_outcome_of_the_bound_pass_matches_the_reference(monkeypatch):
    """The walk from the one least-bound anchor closes on it; it closes on the one anchor of least two-sided bound;
    neither closes and one anchor has the least two-sided bound; several anchors share it."""
    passes = _recorded_passes(monkeypatch)
    G, H = (poly_from_strings(s) for s in K7_STRINGS)
    outcomes = Counter()
    words = low_noise_words(24, 37, N=12, p=0.1)
    expected = [reference_decode(G, H, z) for z in words]
    _certificate_off(monkeypatch)
    for z, res in zip(words, expected):
        passes.append([])
        assert decode_tailbiting(G, H, z) == res, z
        c = passes[-1]
        if len(c) < 3:
            outcomes[["closed", "closed on the second check"][len(c) - 1]] += 1
        else:
            outcomes["open" if c[2] == 1 else "shared"] += 1
    assert min(outcomes[k] for k in ("closed", "closed on the second check", "open", "shared")) >= 1, outcomes
    # with the certificate on, a word it answers runs no pass, and the others run the same passes as above
    searched_passes, answered = passes[:], _recorded_certificates(monkeypatch)
    passes.clear()
    for z, res in zip(words, expected):
        passes.append([])
        assert decode_tailbiting(G, H, z) == res, z
    assert passes == [[] if a else c for a, c in zip(answered, searched_passes)] and any(answered)


def test_a_k7_word_that_closes_on_the_second_check_decodes_to_its_golden_line(monkeypatch, capsys):
    """The CLI line of a 48-symbol low-noise K=7 word whose bound pass does not close, but whose start-anywhere pass
    leaves one anchor of least bound, on which the walk closes; CI diffs the installed package against it.  Its one
    error of weight <= 2 is anchored, so with the certificate on it runs no pass, to the same line."""
    passes = _recorded_passes(monkeypatch)
    golden = Path(__file__).parent / "golden"
    received = (golden / "decode_k7_received.txt").read_text().strip()
    code = str(Path(__file__).parent.parent / "perfbench" / "codes" / "k7.json")
    _certificate_off(monkeypatch)
    passes.append([])
    assert main(["decode", "--code", code, "--received", received]) == 0
    assert capsys.readouterr().out == (golden / "decode_k7.txt").read_text()
    assert passes == [["end", "start"]]
    answered = _recorded_certificates(monkeypatch)
    passes.clear()
    passes.append([])
    assert main(["decode", "--code", code, "--received", received]) == 0
    assert capsys.readouterr().out == (golden / "decode_k7.txt").read_text()
    assert passes == [[]] and answered == [True]


def test_a_k7_word_of_weight_3_opens_with_the_bound_pass_and_decodes_to_its_golden_line(monkeypatch, capsys):
    """The CLI line of a 48-symbol low-noise K=7 word of ML weight 3: with the certificate off it opens with the
    end-anywhere bound pass, whose walk closes; its one error of weight <= 3 is anchored, so with the certificate on
    it runs no pass, to the same line.  CI diffs the installed package against it."""
    passes = _recorded_passes(monkeypatch)
    golden = Path(__file__).parent / "golden"
    received = (golden / "decode_k7_weight3_received.txt").read_text().strip()
    code = str(Path(__file__).parent.parent / "perfbench" / "codes" / "k7.json")
    _certificate_off(monkeypatch)
    passes.append([])
    assert main(["decode", "--code", code, "--received", received]) == 0
    assert capsys.readouterr().out == (golden / "decode_k7_weight3.txt").read_text()
    assert passes == [["end"]]
    answered = _recorded_certificates(monkeypatch)
    passes.clear()
    passes.append([])
    assert main(["decode", "--code", code, "--received", received]) == 0
    assert capsys.readouterr().out == (golden / "decode_k7_weight3.txt").read_text()
    assert answered == [True] and passes == [[]]
    assert (golden / "decode_k7_weight3.txt").read_text().startswith("weight=3 ")


def test_a_k7_word_of_weight_4_opens_with_the_bound_pass_and_decodes_to_its_golden_line(monkeypatch, capsys):
    """The CLI line of a 48-symbol low-noise K=7 word of ML weight 4: the certificate declines it, and it opens with
    the end-anywhere bound pass, whose walk closes; CI diffs the installed package against it."""
    passes, answered = _recorded_passes(monkeypatch), _recorded_certificates(monkeypatch)
    golden = Path(__file__).parent / "golden"
    received = (golden / "decode_k7_weight4_received.txt").read_text().strip()
    code = str(Path(__file__).parent.parent / "perfbench" / "codes" / "k7.json")
    passes.append([])
    assert main(["decode", "--code", code, "--received", received]) == 0
    assert capsys.readouterr().out == (golden / "decode_k7_weight4.txt").read_text()
    assert answered == [False] and passes == [["end"]]
    assert (golden / "decode_k7_weight4.txt").read_text().startswith("weight=4 ")


def _decode_16_state_golden(passes, capsys, word):
    """The passes (recorded into ``passes``) of the CLI decode of a 16-state golden word, whose stdout must equal its
    golden line."""
    golden = Path(__file__).parent / "golden"
    received = (golden / f"{word}_received.txt").read_text().strip()
    # the attempt to build its automaton, once per H, runs min-plus steps of its own: made here, the test does not
    # depend on the tests run before it
    passes.append([])
    assert decoder._automaton(poly_from_strings(CODES["16-state"][0][1])) is None
    passes.clear()
    passes.append([])
    assert main(["decode", "--code", str(golden / "code_16state.json"), "--received", received]) == 0
    assert capsys.readouterr().out == (golden / f"{word}.txt").read_text()
    return passes


def test_a_16_state_word_decodes_to_its_golden_line_on_the_pruned_route(monkeypatch, capsys):
    """The 16-state code has no automaton (over budget), so it prunes.  This word of ML weight 3 has one anchored
    error of weight <= 3, so the certificate answers it with no pass; with the certificate off it closes on neither
    check, then its one anchor of least bound and the 15 whose bound does not exceed that weight are searched, to the
    same line.  CI diffs the installed package's CLI line against the same golden."""
    passes, answered = _recorded_passes(monkeypatch), _recorded_certificates(monkeypatch)
    assert _decode_16_state_golden(passes, capsys, "decode_16state") == [[]] and answered == [True]
    _certificate_off(monkeypatch)
    assert _decode_16_state_golden(passes, capsys, "decode_16state") == [["end", "start", 1, 15]]


def test_a_16_state_word_of_weight_4_closes_on_neither_check_and_decodes_to_its_golden_line(monkeypatch, capsys):
    """A 16-state word of ML weight 4, which the certificate declines: it closes on neither check, then its one anchor
    of least bound and the 15 whose bound does not exceed that weight are searched; CI diffs the installed package's
    CLI line against the same golden."""
    passes, answered = _recorded_passes(monkeypatch), _recorded_certificates(monkeypatch)
    assert _decode_16_state_golden(passes, capsys, "decode_16state_weight4") == [["end", "start", 1, 15]]
    assert answered == [False]


# columns of each code's metric automaton; None where its columns pass TABLE_BUDGET entries, and the code prunes
AUTOMATON_SIZES = {"ref": 24, "mem2": 45, "H0-zero": 10, "16-state": None, "k7": None, "32-state": None}


@pytest.mark.parametrize("name", sorted(CODES))
def test_automaton_steps_are_one_min_plus_step_of_the_stack_normalized(monkeypatch, name):
    """Every (column, key) step is one ``_min_plus`` step of the column under that stack key, less its least entry
    below ``_UNREACHED`` (the step's offset), unreached entries held at ``_UNREACHED``; the first S columns are the
    anchor columns and the columns are distinct.  A state the step reaches leaves by its first edge, in label order,
    whose weight plus the column's entry at its end is the step's entry there, packed as its label above its end
    state's 8 bits.  The lists a one-word walk reads hold the same columns, steps and edges as the arrays a block's
    walks gather from."""
    H = poly_from_strings(CODES[name][0][1])
    tables, automaton = decoder._search_tables(H), decoder._automaton(H)
    S = len(tables.states)
    if automaton is None:
        assert AUTOMATON_SIZES[name] is None
        # the breadth-first build stopped on more columns than fit the budget: K=7's 64 anchor columns before its
        # first round, the 16- and 32-state codes' after a few rounds
        rounds = []
        real_min_plus = decoder._min_plus
        monkeypatch.setattr(decoder, "_min_plus", lambda *a: rounds.append(len(a[1])) or real_min_plus(*a))
        assert decoder._automaton.__wrapped__(H) is None
        if S * (S + 1) > decoder.TABLE_BUDGET:
            assert name == "k7" and rounds == []
        else:
            assert len(rounds) > 1 and sum(rounds) * (S + 1) <= decoder.TABLE_BUDGET
        return
    table = np.asarray(automaton.columns)
    assert len(table) == AUTOMATON_SIZES[name]
    assert (table[:S] == decoder._ends(S)[:S]).all()
    assert len({tuple(row) for row in table.tolist()}) == len(table)
    assert automaton.nxt.shape == automaton.low.shape == (len(table), len(tables.dst))
    assert automaton.edges.shape == (len(table), len(tables.dst) * S)
    columns, nxt, low, edges = automaton.lists
    assert columns == table.tolist() and (nxt, low) == (automaton.nxt.tolist(), automaton.low.tolist())
    assert [list(row) for row in edges] == automaton.edges.tolist()
    for key in range(len(tables.dst)):
        step = decoder._min_plus((tables.dst[key : key + 1], tables.weight[key : key + 1]), table)[0]
        live = step < decoder._UNREACHED
        least = np.where(live, step, decoder._UNREACHED).min(axis=1)
        least[least >= decoder._UNREACHED] = 0
        nxt = [row[key] for row in automaton.nxt]
        assert [row[key] for row in automaton.low] == least.tolist(), key
        assert (table[nxt] == np.where(live, step - least[:, None], decoder._UNREACHED)).all(), key
        for c, (column, cost) in enumerate(zip(table.tolist(), step.tolist())):
            for i, edges in enumerate(tables.out[key]):
                if cost[i] < decoder._UNREACHED:
                    label, dst, _ = next(edge for edge in edges if edge[2] + column[edge[1]] == cost[i])
                    assert automaton.edges[c][key * S + i] == label << 8 | dst, (c, key, i)


def test_automaton_search_equals_the_all_anchor_pass(monkeypatch):
    """A tie-rich corpus decodes to the same ``DecodeResult``s by automaton walks, one word at a time and in one
    multi-word block per (code, N), as by the pruned search (the automaton of the pair record patched to None) and by
    one min-plus pass over all anchors (every bound zeroed); ref, mem2 and H0-zero at N = M..M+8 (N < m and
    N mod m != 0 among them), seeded words."""
    groups = []
    rng = np.random.default_rng(41)
    for name in ("ref", "mem2", "H0-zero"):
        (g, h), _ = CODES[name]
        G, H = poly_from_strings(g), poly_from_strings(h)
        assert decoder._automaton(H) is not None
        lengths = range(max(H.deg, 1), max(H.deg, 1) + 9)
        m = decoder._search_tables(H).m
        assert min(lengths) < m and any(N % m for N in lengths)
        for N in lengths:
            groups.append((G, H, [[tuple(int(b) for b in rng.integers(0, 2, H.cols)) for _ in range(N)] for _ in range(40)]))
    walked = [[decode_tailbiting(G, H, z) for z in words] for G, H, words in groups]
    blocks = [decode_tailbiting_batch(G, H, words) for G, H, words in groups]
    assert blocks == walked
    for G, H, _ in groups:
        monkeypatch.setattr(decoder._pair(G, H), "automaton", None)
    # the pruned search, with the certificate on and then off
    answered = _recorded_certificates(monkeypatch)
    assert [[decode_tailbiting(G, H, z) for z in words] for G, H, words in groups] == walked
    assert [decode_tailbiting_batch(G, H, words) for G, H, words in groups] == walked
    assert len(answered) == 2 * len(groups) * 40 and any(answered)
    _certificate_off(monkeypatch)
    assert [[decode_tailbiting(G, H, z) for z in words] for G, H, words in groups] == walked
    searched = _search_every_anchor(monkeypatch)
    for (G, H, words), results in zip(groups, walked):
        searched.clear()
        assert [decode_tailbiting(G, H, z) for z in words] == results
        assert set(searched) == {len(enc_state_space(G))}
    assert sum(res.tie for results in walked for res in results) > len(groups) * 40 / 4
    # with the certificate on, each word it answers runs no pass, and every other word searches every anchor
    answered = _recorded_certificates(monkeypatch)
    searched.clear()
    assert [[decode_tailbiting(G, H, z) for z in words] for G, H, words in groups] == walked
    every = [len(enc_state_space(G)) for G, _, words in groups for _ in words]
    assert searched == [S for S, a in zip(every, answered) if not a] and any(answered)


# the codes that prune, those with no metric automaton, with p = 0.03, p = 0.06 and uniform words (p = 0.5)
PRUNED = ["k7", "32-state", "16-state"]
NOISE = [0.03, 0.06, 0.5]


def _captured_words(monkeypatch, name, lengths, count):
    """Per word decoded at each length and noise level: the tables, anchor states and step keys ``_search_word`` got."""
    (g, h), _ = CODES[name]
    G, H = poly_from_strings(g), poly_from_strings(h)
    captured, real_search_word = [], decoder._search_word

    def capturing_search_word(tables, rows, keys):
        captured.append((tables, rows, np.array(keys)))
        return real_search_word(tables, rows, keys)

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
    sections = tables.dst.take(at, axis=0), tables.weight.take(at, axis=0)
    every = decoder._min_plus(sections, decoder._ends(S).take(rows, axis=0))[0, :, :S].min(axis=1)
    return np.flatnonzero(decoder._start_anywhere(tables, at)[0].take(rows) != every)


@pytest.mark.parametrize("name", PRUNED)
def test_start_anywhere_bound_is_the_least_cost_into_each_anchor(monkeypatch, name):
    """Lengths M, M + 1, 12 and 48; an incoming stack missing its last slot fails the same check."""
    M = poly_from_strings(CODES[name][0][1]).deg
    captured = _captured_words(monkeypatch, name, [M, M + 1, 12, 48], 4)
    assert all(not len(start_bound_misses(*word)) for word in captured)
    tables = captured[0][0]
    assert decoder._automaton(poly_from_strings(CODES[name][0][1])) is None
    incoming = tables.incoming
    short = tables._replace(incoming=tuple(a[:, :-1] for a in incoming))
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
    assert decoder._automaton(H) is None
    searched = _search_every_anchor(monkeypatch)
    assert [decode_tailbiting(G, H, z) for z in words] == pruned
    assert set(searched) == {len(enc_state_space(G))}


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
    tables = decoder._search_tables(poly_from_strings(RANK_DEFICIENT[1]["H"]))
    assert tables.m == 3
    assert tables.dst.shape == (2**6 + 2**2, 2, 9)
    assert sum(any(tables.out[key]) for key in range(2**6)) == 32
    tables = decoder._search_tables(poly_from_strings(RANK_DEFICIENT[0]["H"]))
    assert tables.m == 4
    assert tables.dst.shape == (2**8 + 2**2, 1, 2)


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
    """One circular run per decode block, and no second fold.

    A one-word decode runs its circular run on the lists of its pair
    record (``_Pair.decode``), with no call of a ``LinearMachine`` fold.
    A decode block, of a pruned code too, is one
    ``LinearMachine.circular`` call, and so is the table of a pruned code's
    single-bit errors (``_singles``), once per length the record keeps.  A
    fold of either machine, e.g. for sigma_fin alone, or a
    ``circular_word``, counts.  No word is decoded before the count: the
    pair records are built by their own calls, and the K=7 word's length
    has no table yet.
    """
    K7 = [poly_from_strings(s) for s in K7_STRINGS]
    ref = poly_from_strings(G1_STRINGS), poly_from_strings(H1_STRINGS)
    z7, z = [(1, 0), (0, 1), (1, 1)] * 4, split_symbols(parse_bits(RECEIVED), 3)
    machines = {}
    for G, H in (K7, ref):
        decoder._pair(G, H).singles.cache_clear()
        sf = syndrome_former(H)
        machines.update({sf: "one-step", sf.power(decoder._search_tables(H).m): "m-step"})
    assert len(machines) == 4
    calls = Counter()
    for name in ("circular", "circular_word", "fold"):
        real = getattr(LinearMachine, name)

        def counting(self, *args, _real=real, _name=name):
            calls[_name, machines.get(self, "other")] += 1
            return _real(self, *args)

        monkeypatch.setattr(LinearMachine, name, counting)

    def runs(circulars):
        """The calls of ``circulars`` multi-word blocks and ``_singles`` tables."""
        return {("circular", "one-step"): circulars}

    # the first K=7 word of its length builds the length's table, in one circular run of the single-bit errors
    decode_tailbiting(*K7, z7)
    assert calls == runs(1)
    # the 64-state code's 3 words fill one block, which reads the table its length already has
    decode_tailbiting_batch(*K7, [z7, z7[::-1], z7])
    assert calls == runs(2)
    decode_tailbiting(*ref, z)
    assert calls == runs(2)
    # the reference code's 3 words fill one block
    decode_tailbiting_batch(*ref, [z, z[::-1], z])
    assert calls == runs(3)
    # an array word is read by ``LinearMachine.word``, then decoded as tuples
    decode_tailbiting(*ref, np.array(z))
    assert calls == runs(3)


@pytest.mark.parametrize("name", ["ref", "k7"])
def test_a_decode_hashes_each_matrix_once(monkeypatch, name):
    """A decode finds its pair record by one lookup on (G, H): at most 2 ``PolyMatrix.__hash__`` calls a word, once the
    first word has built the record, on the reference code (its automaton walked) and on the K=7 code (pruned: uniform
    words, which it searches, and low-noise words, which the certificate answers or declines)."""
    (g, h), _ = CODES[name]
    G, H = poly_from_strings(g), poly_from_strings(h)
    rng = np.random.default_rng(7)
    words = [[tuple(int(b) for b in rng.integers(0, 2, H.cols)) for _ in range(12)] for _ in range(10)]
    if name == "k7":
        words += low_noise_words(10, 3, N=12, p=0.03) + low_noise_words(10, 5, N=12, p=0.1)
    decode_tailbiting(G, H, words[0])
    hashes, real = [], PolyMatrix.__hash__
    monkeypatch.setattr(PolyMatrix, "__hash__", lambda self: hashes.append(self) or real(self))
    counts = []
    for z in words:
        hashes.clear()
        decode_tailbiting(G, H, z)
        counts.append(len(hashes))
    assert max(counts) <= 2, counts


def test_a_one_word_decode_searches_the_keys_and_anchors_of_its_circular_run(monkeypatch):
    """The one-word front end against ``circular_word``, then each step's key packed from its syndromes.

    A run of m symbols keys the stack by its syndromes, the first most
    significant, and a single symbol by 2^(r*m) plus its syndrome; the
    anchor states are sigma_fin + dual(beta), per beta, as dense indices.
    Every ``CODES`` pair at N = M..M+2m+1, N < m and N mod m != 0 among
    the lengths.  The keys and anchors are read where ``_search_word``
    gets them, so every pair's record prunes (its automaton patched to
    None): an automaton walk reads the same keys and anchors.
    """
    captured, real_search_word = [], decoder._search_word

    def capturing_search_word(tables, rows, keys):
        captured.append((rows, keys))
        return real_search_word(tables, rows, keys)

    monkeypatch.setattr(decoder, "_search_word", capturing_search_word)
    _certificate_off(monkeypatch)
    rng, lengths, hits = np.random.default_rng(67), [], 0
    for (g, h), _ in CODES.values():
        G, H = poly_from_strings(g), poly_from_strings(h)
        sf, tables = syndrome_former(H), decoder._search_tables(H)
        m, r = tables.m, H.rows
        monkeypatch.setattr(decoder._pair(G, H), "automaton", None)
        duals = np.array([sf.state(dual_state_of(G, H, beta)) for beta in enc_state_space(G)])
        for N in range(max(H.deg, 1), max(H.deg, 1) + 2 * m + 2):
            lengths.append((N, m))
            for _ in range(3):
                es = rng.integers(0, 2**H.cols, N).tolist()
                fin, zetas = sf.circular_word(es)
                cut, keys = N - N % m, []
                for t in range(0, cut, m):
                    key = 0
                    for zeta in zetas[t : t + m]:
                        key = key << r | zeta
                    keys.append(key)
                rows = tables.index[fin ^ duals].tolist()
                searched = [(rows, keys + [(1 << r * m) + zeta for zeta in zetas[cut:]])]
                captured.clear()
                decode_tailbiting(G, H, [sf.in_tuples[e] for e in es])
                assert captured == searched, (h, N)
                # with the certificate on, a word it answers is not searched
                answered = _recorded_certificates(monkeypatch)
                captured.clear()
                decode_tailbiting(G, H, [sf.in_tuples[e] for e in es])
                assert captured == ([] if any(answered) else searched), (h, N)
                hits += any(answered)
                _certificate_off(monkeypatch)
    assert any(N < m for N, m in lengths) and any(N % m for N, m in lengths) and hits


# the sha256 of the identity corpus's results, recorded at the commit before the one-word decode became one frame
CORPUS_SHA256 = "d673f4f8e14bdf7af1015f152f6962a4e9e72d0c1d75abc10ba02abf883862b1"


def test_the_decode_corpus_keeps_its_digest():
    """Seeded words of every ``CODES`` code at N = M..M+13 and 48, each bit of a codeword flipped with p in {0, 0.03,
    0.1, 0.5} (40 words a length and p), decode one at a time and as a batch to the results whose sha256 is pinned.
    The codewords are circular convolutions of uniform inputs, taken in numpy, not by the library."""
    rng, digest = np.random.default_rng(36), hashlib.sha256()
    for (g, h), _ in CODES.values():
        G, H, taps = poly_from_strings(g), poly_from_strings(h), coeffs_from_strings(g)
        for N, p in product([*range(max(H.deg, 1), max(H.deg, 1) + 14), 48], [0, 0.03, 0.1, 0.5]):
            u = rng.integers(0, 2, (40, N, G.rows))
            y = sum(np.roll(u, i, axis=1) @ tap for i, tap in enumerate(taps)) % 2
            words = [list(map(tuple, word)) for word in (y ^ (rng.random(y.shape) < p)).tolist()]
            one = [decode_tailbiting(G, H, z) for z in words]
            digest.update(repr(one).encode())
            digest.update(repr(decode_tailbiting_batch(G, H, words)).encode())
    assert digest.hexdigest() == CORPUS_SHA256


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
