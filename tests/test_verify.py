import random

import numpy as np
import pytest
from conftest import G1_STRINGS, G2_STRINGS
from oracle import all_tailbiting, coeffs_from_strings, row_echelon, set_equality_by_enumeration
from oracle import flat as flat_bits
from test_decoder_contract import CODES
from test_state_machines import G_K2_STRINGS

from tbtrellis import (
    Edge,
    build_tailbiting_error_trellis,
    decoder,
    enc_state_space,
    error_anchor,
    gf2,
    poly_from_strings,
    sigma_fin,
    verify,
)
from tbtrellis.codespec import CodeSpecError
from tbtrellis.state_machines import LinearMachine, encoder, unpack


EXPECTED_SUITES = [
    "superposition",
    "zero-syndrome-traversal",
    "subtrellis-set-equality",
    "eta-zeta-correspondence",
    "hscalar-membership",
    "decoder-oracle",
]


def test_all_suites_pass_on_reference_code(G1, H1):
    results = verify.run_all(G1, H1, 5, seed=1, trials=200)
    assert [name for name, _ in results] == EXPECTED_SUITES
    assert all(ok for _, ok in results)


def test_all_suites_pass_on_memory_two_code(G2, H2):
    results = verify.run_all(G2, H2, 4, seed=2, trials=200)
    assert all(ok for _, ok in results)


# a rate-1/5 G whose words at N = 13 are 65 bits long, one past a lane, with a basic H and a non-basic one
G_RATE_5 = [["11", "1", "1", "1", "1"]]
H_RATE_5_BASIC = [["1", "11", "0", "0", "0"], ["0", "1", "1", "0", "0"], ["0", "0", "1", "1", "0"], ["0", "0", "0", "1", "1"]]
H_RATE_5 = [["1", "11", "0", "0", "0"], ["1", "0", "11", "0", "0"], ["1", "0", "0", "11", "0"], ["1", "0", "0", "0", "11"]]


def _rows(syms, n):
    """The codebook's symbol integers as flat 0/1 rows."""
    return unpack(syms, n).reshape(len(syms), -1)


class _Draw:
    """A generator stand-in whose one draw is the given rows of bits: bit j of its integer is row j // width,
    column j % width, as ``_bits`` reads it."""

    def __init__(self, rows):
        self.rows = rows

    def getrandbits(self, k):
        assert k == self.rows.size
        return sum(int(bit) << j for j, bit in enumerate(self.rows.ravel().tolist()))


def test_all_suites_pass_on_words_wider_than_one_lane():
    G, H = poly_from_strings(G_RATE_5), poly_from_strings(H_RATE_5_BASIC)
    assert 13 * H.cols == 65
    assert verify.run_all(G, H, 13, seed=1) == [(name, True) for name in EXPECTED_SUITES]


@pytest.mark.parametrize("N", [1, 2, 3, 5, 13])
def test_a_non_basic_H_fails_exactly_hscalar_membership(N):
    """H_RATE_5 is dual to G_RATE_5 but not basic: row 1 plus any other row is 1+D times a 0/1 row, so three of its
    invariant factors are 1+D and its 4 x 4 minors share (1+D)^3.  1+D divides D^N + 1 at every N, so ker H_scalar
    is 2^3 = 8 times the codebook, which the suite's count must name while every other suite passes."""
    G, H = poly_from_strings(G_RATE_5), poly_from_strings(H_RATE_5)
    P = verify.hscalar_tailbiting(H, N)
    assert 2 ** (5 * N - len(row_echelon(P.matrix)[1])) == 8 * 2**N
    assert verify.run_all(G, H, N, seed=1) == [(name, name != "hscalar-membership") for name in EXPECTED_SUITES]


def test_a_codeword_with_bit_64_flipped_is_not_in_the_codeword_set():
    """The membership suite run on two words, a codeword and the codeword with bit 64 flipped: the matrix holds the
    first and not the second, as the codeword set and the syndromes do, and the suite passes."""
    G, H = poly_from_strings(G_RATE_5), poly_from_strings(H_RATE_5_BASIC)
    syms = verify._codeword_table(G, 13)[1]
    rows = _rows(syms, 5)
    codeword = rows[rows.sum(axis=1).argmax()]
    words = np.array([codeword, codeword ^ (np.arange(65) == 64)])
    assert [(rows == word).all(axis=1).any() for word in words] == [True, False]
    P = verify.hscalar_tailbiting(H, 13)
    assert verify.is_tailbiting_codeword_batch(P, words).tolist() == [True, False]
    assert verify.suite_hscalar_membership(H, 13, syms, _Draw(words), trials=2)


def test_all_suites_pass_on_the_16_state_code(monkeypatch):
    """The 16-state code has no metric automaton, so it prunes: the decoder-oracle suite's 1,000 words decode in
    blocks of ``BLOCK_BUDGET // 16`` = 256 words, each on the pruned route."""
    G, H = (poly_from_strings(s) for s in CODES["16-state"][0])
    assert decoder._automaton(H) is None
    blocks, real = [], decoder._search_block
    monkeypatch.setattr(decoder, "_search_block", lambda pair, block, *a: blocks.append(block.shape) or real(pair, block, *a))
    results = verify.run_all(G, H, 6, seed=1)
    assert results == [(name, True) for name in EXPECTED_SUITES]
    assert blocks == [(256, 6)] * 3 + [(232, 6)]


def test_boundary_section_count(G1, H1):
    # N = M is the smallest legal length
    results = verify.run_all(G1, H1, 1, seed=1, trials=100)
    assert all(ok for _, ok in results)


def test_exhaustive_bound(G1, H1):
    with pytest.raises(ValueError):
        verify.run_all(G1, H1, 21, seed=1)


def test_deterministic_given_seed(G1, H1):
    a = verify.run_all(G1, H1, 3, seed=5, trials=50)
    b = verify.run_all(G1, H1, 3, seed=5, trials=50)
    assert a == b


@pytest.mark.parametrize("width", [1, 7, 15, 60])
@pytest.mark.parametrize("trials", [0, 1, 1000])
def test_bits_are_one_getrandbits_integer_read_bit_by_bit(trials, width):
    """Bit j of the integer, least significant first, is row j // width, column j % width, and the generator is
    left where the one draw leaves it."""
    rng, rebuilt = random.Random(width), random.Random(width)
    rows, x = verify._bits(rng, trials, width), rebuilt.getrandbits(trials * width)
    assert rows.dtype == np.uint8 and rows.shape == (trials, width)
    assert rows.tolist() == [[x >> (t * width + c) & 1 for c in range(width)] for t in range(trials)]
    assert rng.getrandbits(32) == rebuilt.getrandbits(32)


@pytest.mark.parametrize("trials, width, first", [(64, 7, 32), (1000, 60, 8), (1000, 15, 320), (1000, 1, 32)])
def test_draws_of_whole_32_bit_words_chunk_one_draw(trials, width, first):
    """The generator hands out 32 bits at a time, low word first, so a draw of a multiple of 32 bits and a second
    draw read the bits of one draw of their sum, while a draw that ends within a word drops the rest of that word."""
    assert first * width % 32 == 0
    one, rng = verify._bits(random.Random(3), trials, width), random.Random(3)
    assert (np.vstack([verify._bits(rng, first, width), verify._bits(rng, trials - first, width)]) == one).all()
    if width % 32:
        rng = random.Random(3)
        assert (np.vstack([verify._bits(rng, 1, width), verify._bits(rng, trials - 1, width)]) != one).any()


def test_rejects_bad_length_and_trial_count(G1, H1):
    with pytest.raises(ValueError, match="N must be at least 1"):
        verify.run_all(G1, H1, 0, seed=1)
    with pytest.raises(ValueError, match="trials must be at least 0"):
        verify.run_all(G1, H1, 5, seed=1, trials=-1)
    with pytest.raises(ValueError, match="^seed must be at least 0, got -1$"):
        verify.run_all(G1, H1, 5, seed=-1)
    assert all(ok for _, ok in verify.run_all(G1, H1, 5, seed=1, trials=0))


# Each mutant is wrong on some inputs only; exactly the suite that reads
# the mutated name must catch it, and every other suite must still pass.


def _nonlinear_sf_step_batch(real):
    def sf_step_batch(H, sigmas, es):
        nxt, zeta = real(H, sigmas, es)
        zeta[(np.asarray(sigmas) == (1, 1)).all(axis=1), 0] ^= 1
        return nxt, zeta

    return sf_step_batch


def _wrong_dual_state(real):
    def dual_state_of(G, H, beta, fill=0):
        sigma = real(G, H, beta, fill)
        return (1 - sigma[0],) + sigma[1:] if beta == (1, 1) else sigma

    return dual_state_of


def _words_own_edge(T, H, z):
    """The edge of section 0 on the word's own path, which is the zero codeword of anchor 0 shifted by the word.

    That path runs from sigma_fin, the error anchor sigma_fin + dual(0) of
    anchor 0, under the word's symbols, so its first edge leaves sigma_fin
    under the first symbol.
    """
    fin, first = sigma_fin(H, z), tuple(np.asarray(z)[0].tolist())
    return next(e for e in T.sections[0] if (e.src, e.label) == (fin, first))


def _with_section_0(T, edges):
    return T._replace(sections=(tuple(edges), *T.sections[1:]))


def _dropping_an_edge(real):
    def build_tailbiting_error_trellis(H, z):
        T = real(H, z)
        edge = _words_own_edge(T, H, z)
        return _with_section_0(T, [e for e in T.sections[0] if e != edge])

    return build_tailbiting_error_trellis


def _starting_101(words):
    return (np.asarray(words)[:, 0] == (1, 0, 1)).all(axis=1)


def _flipping_backward_syndromes_batch(real):
    def backward_syndromes_batch(H, words):
        etas = real(H, words)
        etas[_starting_101(words), 0, 0] ^= 1
        return etas

    return backward_syndromes_batch


def _negating_membership_batch(real):
    def is_tailbiting_codeword_batch(P, words):
        return real(P, words) != (np.asarray(words) == (0,) * 15).all(axis=1)

    return is_tailbiting_codeword_batch


def _overweight_decoder_arrays(real):
    def _decode_arrays(G, H, words):
        weight, codeword, tie = real(G, H, words)
        return weight + _starting_101(words), codeword, tie

    return _decode_arrays


@pytest.mark.parametrize(
    "name, mutant, suite",
    [
        ("sf_step_batch", _nonlinear_sf_step_batch, "superposition"),
        ("dual_state_of", _wrong_dual_state, "zero-syndrome-traversal"),
        ("build_tailbiting_error_trellis", _dropping_an_edge, "subtrellis-set-equality"),
        ("backward_syndromes_batch", _flipping_backward_syndromes_batch, "eta-zeta-correspondence"),
        ("is_tailbiting_codeword_batch", _negating_membership_batch, "hscalar-membership"),
        ("_decode_arrays", _overweight_decoder_arrays, "decoder-oracle"),
    ],
)
def test_each_suite_catches_its_mutant(monkeypatch, G1, H1, name, mutant, suite):
    monkeypatch.setattr(verify, name, mutant(getattr(verify, name)))
    results = dict(verify.run_all(G1, H1, 5, seed=1, trials=200))
    assert results == {s: s != suite for s in EXPECTED_SUITES}


def _dropping_a_check_row(real):
    def hscalar_tailbiting(H, N):
        P = real(H, N)
        return P._replace(matrix=P.matrix[:-1])

    return hscalar_tailbiting


@pytest.mark.parametrize("seed", range(1, 11))
def test_hscalar_membership_counts_a_kernel_twice_the_codebook(monkeypatch, G1, H1, seed):
    """With the last check row of H_scalar dropped, its kernel still holds every codeword but is twice the codebook.
    Few random words fall in the extra half, so only the count fails the suite at every seed."""
    P = _dropping_a_check_row(verify.hscalar_tailbiting)(H1, 5)
    assert 2 ** (15 - len(row_echelon(P.matrix)[1])) == 2 * 2**5
    assert verify.is_tailbiting_codeword_batch(P, _rows(verify._codeword_table(G1, 5)[1], 3)).all()
    monkeypatch.setattr(verify, "hscalar_tailbiting", _dropping_a_check_row(verify.hscalar_tailbiting))
    results = dict(verify.run_all(G1, H1, 5, seed=seed, trials=200))
    assert results == {s: s != "hscalar-membership" for s in EXPECTED_SUITES}


def test_decoder_oracle_catches_a_tie_on_a_unique_nearest_codeword(monkeypatch, G1, H1):
    real = verify._decode_arrays

    def _decode_arrays(G, H, words):
        weight, codeword, tie = real(G, H, words)
        return weight, codeword, np.ones_like(tie)

    monkeypatch.setattr(verify, "_decode_arrays", _decode_arrays)
    results = dict(verify.run_all(G1, H1, 5, seed=1, trials=200))
    assert results == {s: s != "decoder-oracle" for s in EXPECTED_SUITES}


def test_decoder_oracle_catches_a_missed_tie(monkeypatch, G1, H1):
    """With one anchor counted at every least weight, no word reads ``tie``, though many words of the reference code tie."""
    real = decoder._decode_block

    def one_anchor_each(*args):
        out = real(*args)
        return out._replace(ties=np.ones_like(out.ties))

    monkeypatch.setattr(decoder, "_decode_block", one_anchor_each)
    results = dict(verify.run_all(G1, H1, 5, seed=1, trials=200))
    assert results == {s: s != "decoder-oracle" for s in EXPECTED_SUITES}


def _ties_forced(value):
    def mutant(real):
        def _decode_arrays(G, H, words):
            weight, codeword, tie = real(G, H, words)
            return weight, codeword, np.full_like(tie, value)

        return _decode_arrays

    return mutant


def _swapping_a_unique_codeword(real):
    """The decoder, with the codeword of its last trial whose nearest codeword is unique, counted bit by bit against
    the codeword table, swapped for the table's next row."""

    def _decode_arrays(G, H, words):
        weight, codeword, tie = real(G, H, words)
        N, n = words.shape[1:]
        syms = verify._codeword_table(G, N)[1]
        rows = _rows(syms, n)
        for j in range(len(words) - 1, -1, -1):
            dists = (rows != words[j].reshape(-1)).sum(axis=1)
            if np.count_nonzero(dists == dists.min()) == 1:
                codeword = codeword.copy()
                codeword[j] = syms[(dists.argmin() + 1) % len(syms)]
                return weight, codeword, tie
        raise AssertionError("no trial has a unique nearest codeword")

    return _decode_arrays


@pytest.mark.parametrize("N", [5, 12])
@pytest.mark.parametrize(
    "mutant",
    [
        pytest.param(_ties_forced(False), id="tie-false"),
        pytest.param(_ties_forced(True), id="tie-true"),
        pytest.param(_swapping_a_unique_codeword, id="next-codeword"),
    ],
)
def test_decoder_oracle_catches_each_wrong_decision(monkeypatch, G1, H1, mutant, N):
    """``tie`` forced False on every trial, forced True on every trial, and one unique trial's codeword swapped for
    the next codeword row each fail decoder-oracle alone; at N = 12 a distance block holds eight trials."""
    monkeypatch.setattr(verify, "_decode_arrays", mutant(verify._decode_arrays))
    results = dict(verify.run_all(G1, H1, N, seed=1, trials=200))
    assert results == {s: s != "decoder-oracle" for s in EXPECTED_SUITES}


@pytest.mark.parametrize("N", [4, 5, 12])
def test_nearest_equals_the_definitions_it_replaces(monkeypatch, G1, H1, N):
    """Per distance block, at the default ``DISTANCE_BLOCK`` and at 1, ``_nearest`` equals the nearest-codeword mask's
    reading: the least distance, the argmin, a mask row summing to 1 (unique), and more than one anchor's rows holding
    a nearest codeword by ``logical_or.reduceat`` over ``starts`` (tie).  Uniform words tie often, so both readings
    of tie occur; both budgets give the same decisions, and the suite passes."""
    _, syms, starts = verify._codeword_table(G1, N)
    decided = {}
    for budget in (verify.DISTANCE_BLOCK, 1):
        calls, real = [], verify._nearest

        def recording(dists, starts, _calls=calls):
            # the distances are a view of the suite's reused buffer
            _calls.append((dists.copy(), real(dists, starts)))
            return _calls[-1][1]

        with monkeypatch.context() as m:
            m.setattr(verify, "DISTANCE_BLOCK", budget)
            m.setattr(verify, "_nearest", recording)
            assert verify.suite_decoder_oracle(G1, H1, N, syms, starts, random.Random(N), trials=300)
        for dists, (best, first, unique, tie) in calls:
            nearest = dists == dists.min(axis=1, keepdims=True)
            assert (best == dists.min(axis=1)).all() and (first == dists.argmin(axis=1)).all()
            assert (unique == (nearest.sum(axis=1) == 1)).all()
            assert (tie == (np.logical_or.reduceat(nearest, starts, axis=1).sum(axis=1) > 1)).all()
        decided[budget] = [np.concatenate(field) for field in zip(*(out for _, out in calls))]
        assert sum(map(len, (dists for dists, _ in calls))) == 300
    (best, first, unique, tie), single = decided.values()
    assert all((a == b).all() for a, b in zip(decided[verify.DISTANCE_BLOCK], single))
    assert 0 < tie.sum() < 300 and unique.any() and not unique.all()


def _recorded_calls(monkeypatch, names, G, H, N, seed, trials):
    calls = {name: [] for name in names}
    with monkeypatch.context() as m:
        for name in names:
            real = getattr(verify, name)

            def record(*args, _real=real, _log=calls[name]):
                _log.append(args)
                return _real(*args)

            m.setattr(verify, name, record)
        results = verify.run_all(G, H, N, seed=seed, trials=trials)
    return results, calls


def _per_field_draws(H, N, seed, trials):
    """Each suite's one draw from ``random.Random(seed)``, in suite order, rebuilt bit by bit from its
    ``getrandbits`` integer (bit j is row j // width, column j % width) and cut into its trials' fields."""
    rng = random.Random(seed)
    M, r, n = H.deg, H.rows, H.cols

    def draw(rows, *fields):
        width = sum(fields)
        x, cuts = rng.getrandbits(rows * width), [sum(fields[:i]) for i in range(len(fields) + 1)]
        bits = [x >> j & 1 for j in range(rows * width)]
        return [[tuple(bits[t * width + a : t * width + b]) for a, b in zip(cuts, cuts[1:])] for t in range(rows)]

    steps = []
    for s1, s2, e1, e2 in draw(trials, M * r, M * r, n, n):
        s12 = tuple(a ^ b for a, b in zip(s1, s2))
        e12 = tuple(a ^ b for a, b in zip(e1, e2))
        steps += [(H, s1, e1), (H, s2, e2), (H, s12, e12)]
    set_equality = draw(5, *[n] * N)  # subtrellis-set-equality draws five words
    backward = [(H, word) for word in draw(trials, *[n] * N)]
    membership = [bits for (bits,) in draw(trials, N * n)]
    decoded = draw(trials, *[n] * N)
    return steps, set_equality, backward, membership, decoded


def _words(block):
    """The rows of a (words x N x n) block as lists of symbol tuples."""
    return [[tuple(sym) for sym in word] for word in block.tolist()]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_suites_see_the_words_of_a_per_field_draw(monkeypatch, G1, H1, seed):
    names = ["sf_step_batch", "backward_syndromes_batch", "is_tailbiting_codeword_batch", "_decode_arrays"]
    trials, N = 50, 5
    results, calls = _recorded_calls(monkeypatch, names, G1, H1, N, seed, trials)
    assert all(ok for _, ok in results)
    steps, _, backward, membership, decoded = _per_field_draws(H1, N, seed, trials)
    # one call on every first step of a trial, then every second, then every summed one
    ((H, sigmas, es),) = calls["sf_step_batch"]
    rows = [(H, tuple(s), tuple(e)) for s, e in zip(sigmas.tolist(), es.tolist())]
    thirds = rows[:trials], rows[trials : 2 * trials], rows[2 * trials :]
    assert [row for trial in zip(*thirds) for row in trial] == steps
    ((H, words),) = calls["backward_syndromes_batch"]
    assert [(H, word) for word in _words(words)] == backward
    # the suite first checks the 2^N codewords, then the random words
    (_, codewords), (_, words) = calls["is_tailbiting_codeword_batch"]
    assert len(codewords) == 2**N
    assert [tuple(y) for y in words.tolist()] == membership
    blocks = calls["_decode_arrays"]
    assert [(G, H, z) for G, H, block in blocks for z in _words(block)] == [(G1, H1, z) for z in decoded]
    # one decode call of all trials
    assert [len(block) for *_, block in blocks] == [trials]


@pytest.mark.parametrize("seed", [1, 2])
def test_set_equality_reads_the_construction_under_test(monkeypatch, G1, H1, seed):
    """One ``run_all`` builds the error trellis of each drawn word, with its sigma_fin, and asks for every beta's anchor."""
    names = ["sigma_fin", "build_tailbiting_error_trellis", "error_anchor"]
    results, calls = _recorded_calls(monkeypatch, names, G1, H1, 5, seed, 50)
    assert all(ok for _, ok in results)
    words = _per_field_draws(H1, 5, seed, 50)[1]
    for name in ("sigma_fin", "build_tailbiting_error_trellis"):
        assert [(H, [tuple(sym) for sym in z.tolist()]) for H, z in calls[name]] == [(H1, z) for z in words]
    fins = [sigma_fin(H1, z) for z in words]
    assert calls["error_anchor"] == [(beta, fin, G1, H1) for fin in fins for beta in enc_state_space(G1)]


DIFFERENTIAL = [
    pytest.param(g, h, N, id=f"{name}-N{N}")
    for name, ((g, h), _) in CODES.items()
    for N in range(poly_from_strings(h).deg, poly_from_strings(h).deg + 3)
] + [pytest.param(G_RATE_5, H_RATE_5, 13, id="rate-5-N13")]


@pytest.mark.parametrize("g, h, N", DIFFERENTIAL)
def test_set_equality_agrees_with_enumeration(monkeypatch, g, h, N):
    """The suite and the enumerate-and-sort check agree on the built trellises of two words, and with one edge of
    section 0 dropped or its label's first bit flipped, which both must fail.

    The duplicated edge is the strengthening: it adds a path that repeats a
    label sequence, so the enumeration, comparing distinct rows, passes it,
    while the suite's path count exceeds the codewords and fails.
    """
    G, H = poly_from_strings(g), poly_from_strings(h)
    table = verify._codeword_table(G, N)
    anchors, syms, starts = table
    for word in np.random.default_rng(N).integers(0, 2, (2, N * H.cols)).astype(np.uint8):
        z = word.reshape(N, H.cols)
        T, fin = build_tailbiting_error_trellis(H, z), sigma_fin(H, z)
        edge, section = _words_own_edge(T, H, z), T.sections[0]
        flipped = Edge(edge.src, (1 - edge.label[0], *edge.label[1:]), edge.dst)
        trellises = {
            "built": T,
            "dropped": _with_section_0(T, [e for e in section if e != edge]),
            "flipped": _with_section_0(T, [flipped if e == edge else e for e in section]),
            "duplicated": _with_section_0(T, [*section, edge]),
        }
        error_anchors, codewords = [error_anchor(beta, fin, G, H) for beta in anchors], np.split(_rows(syms, H.cols), starts[1:])
        verdicts = {}
        for name, trellis in trellises.items():
            monkeypatch.setattr(verify, "build_tailbiting_error_trellis", lambda H, z, _T=trellis: _T)
            suite = verify.suite_set_equality(G, H, N, *table, _Draw(word[None]), words=1)
            verdicts[name] = suite, set_equality_by_enumeration(trellis, word, error_anchors, codewords)
        assert verdicts == {"built": (True, True), "dropped": (False, False), "flipped": (False, False), "duplicated": (False, True)}


@pytest.mark.parametrize("code, N", [("1", 5), ("2", 4), ("1", 12)])
def test_distance_blocks_of_one_trial_change_nothing(request, monkeypatch, code, N):
    G, H = request.getfixturevalue("G" + code), request.getfixturevalue("H" + code)
    names = ["_decode_arrays", "_distances"]
    default = _recorded_calls(monkeypatch, names, G, H, N, 4, 300)
    monkeypatch.setattr(verify, "DISTANCE_BLOCK", 1)
    single = _recorded_calls(monkeypatch, names, G, H, N, 4, 300)

    def blocks(recorded):
        return [block for *_, block in recorded[1]["_decode_arrays"]]

    def distance_blocks(recorded):
        return [len(words) for words, *_ in recorded[1]["_distances"]]

    assert single[0] == default[0]
    assert distance_blocks(single) == [1] * 300
    # 2^15 over the entries of the XOR buffer a trial takes, codewords x lanes: 32 x 1 and 16 x 1 hold every trial,
    # 4,096 x 1 at N = 12 eight
    assert distance_blocks(default) == {("1", 5): [300], ("2", 4): [300], ("1", 12): [8] * 37 + [4]}[code, N]
    # one decode call of all trials, whatever the distance blocks
    assert [len(block) for block in blocks(single)] == [300]
    assert [len(block) for block in blocks(default)] == [300]
    assert [_words(block) for block in blocks(single)] == [_words(block) for block in blocks(default)]
    assert all(ok for _, ok in default[0])


def test_all_suites_pass_on_4096_codewords(G1, H1):
    results = verify.run_all(G1, H1, 12, seed=1, trials=50)
    assert [name for name, _ in results] == EXPECTED_SUITES
    assert all(ok for _, ok in results)


@pytest.mark.parametrize("N", [5, 6])
def test_all_suites_pass_on_a_pruned_code(monkeypatch, N):
    """The 32-state code prunes its anchors, so its 100 words are one decode block, searched a word at a time."""
    G, H = (poly_from_strings(s) for s in CODES["32-state"][0])
    assert decoder._automaton(H) is None
    blocks, real = [], decoder._search_block
    monkeypatch.setattr(decoder, "_search_block", lambda pair, block, *a: blocks.append(block.shape) or real(pair, block, *a))
    results = verify.run_all(G, H, N, seed=1, trials=100)
    assert [name for name, _ in results] == EXPECTED_SUITES
    assert all(ok for _, ok in results)
    assert blocks == [(100, N)]


def test_run_all_rejects_a_pair_before_any_suite_kernel(monkeypatch, G1):
    """The non-dual H, and a dual pair whose encoder states map onto one anchor, stop ``run_all`` at the pair's
    record (``decoder._pair``), before it encodes, draws or calls a suite or a kernel."""
    H = poly_from_strings([["11", "01", "11"], ["01", "1", "0"]])
    calls = []
    for name, f in list(vars(verify).items()):
        ours = callable(f) and getattr(f, "__module__", "").startswith("tbtrellis.")
        if ours and name not in ("run_all", "_pair"):
            monkeypatch.setattr(verify, name, lambda *args, _name=name, **kwargs: calls.append(_name))
    with pytest.raises(CodeSpecError, match="not dual"):
        verify.run_all(G1, H, 5, seed=1)
    with pytest.raises(decoder.AnchorCollisionError):
        verify.run_all(poly_from_strings([["11", "101"]]), poly_from_strings([["101", "11"]]), 5, seed=1)
    assert calls == []


def test_run_all_encodes_each_codeword_once(monkeypatch, G1, H1):
    """One ``run_all`` builds its codebook once, from encoder runs over all 2^(N*k) inputs, each once and in order."""
    N, enc = 5, encoder(G1)
    real_run, real_table = LinearMachine.circular, verify._codeword_table
    # a block of inputs holds as many as hold DISTANCE_BLOCK symbols
    for budget, sizes in ((verify.DISTANCE_BLOCK, [32]), (25, [5] * 6 + [2])):
        runs, tables = [], []

        def recording_run(self, E, _runs=runs):
            if self is enc:
                _runs.append(E)
            return real_run(self, E)

        def counting_table(*args, _tables=tables):
            _tables.append(args)
            return real_table(*args)

        with monkeypatch.context() as m:
            m.setattr(verify, "DISTANCE_BLOCK", budget)
            m.setattr(LinearMachine, "circular", recording_run)
            m.setattr(verify, "_codeword_table", counting_table)
            assert all(ok for _, ok in verify.run_all(G1, H1, N, seed=1, trials=20))
        assert tables == [(G1, N)]
        assert [len(E) for E in runs] == sizes
        inputs = np.concatenate(runs) @ (1 << G1.rows * np.arange(N - 1, -1, -1))
        assert inputs.tolist() == list(range(2 ** (N * G1.rows)))


CODEBOOKS = {
    "ref": (G1_STRINGS, range(1, 7)),
    "mem2": (G2_STRINGS, range(2, 6)),
    "k2": (G_K2_STRINGS[0], (1, 2, 3, 5)),
    "k2-unequal": (G_K2_STRINGS[1], (1, 2, 3, 5)),
    "memoryless": ([["1", "1"]], range(1, 5)),
}


@pytest.mark.parametrize(
    "strings, N",
    [pytest.param(g, N, id=f"{name}-N{N}") for name, (g, lengths) in CODEBOOKS.items() for N in lengths],
)
def test_codeword_table_equals_the_oracle_anchor_by_anchor(monkeypatch, strings, N):
    """Each anchor's rows, from its entry of ``starts`` on, are the circular convolutions anchored there (N < L wraps),
    as symbol integers, one byte a symbol of these codes."""
    G = poly_from_strings(strings)
    anchors, syms, starts = verify._codeword_table(G, N)
    want = all_tailbiting(coeffs_from_strings(strings), N, G.rows, G.deg)[0]
    assert syms.shape == (2 ** (N * G.rows), N) and syms.dtype == np.uint8
    assert starts[0] == 0 and (np.diff(starts) > 0).all()
    assert sorted(anchors) == sorted(want)
    for beta, rows in zip(anchors, np.split(_rows(syms, G.cols), starts[1:])):
        assert sorted(map(tuple, rows.tolist())) == sorted(map(flat_bits, want[beta]))
    # the inputs run in blocks of any size give the same table, and so do its unpacked blocks
    monkeypatch.setattr(verify, "DISTANCE_BLOCK", 3)
    small = verify._codeword_table(G, N)
    assert small[0] == anchors and (small[1] == syms).all() and (small[2] == starts).all()
    monkeypatch.setattr(verify, "MEMBERSHIP_BLOCK", 3)
    blocks = list(verify._unpacked(syms, G.cols))
    assert [start for start, _ in blocks] == list(range(0, len(syms), 3))
    assert (np.concatenate([rows for _, rows in blocks]) == _rows(syms, G.cols)).all()


@pytest.mark.parametrize("width", [1, 8, 15, 63, 64, 65, 130, 255, 256, 300])
def test_lane_distances_equal_a_bit_by_bit_count(width):
    """Rows wider than 64 bits span lanes: EXHAUSTIVE_BITS bounds N*k, not N*n.  One lane's distances are uint8,
    the popcounts themselves, and wider rows sum their lanes as uint16, which holds distances past 255.

    Read big-endian, lane j // 64 holds bit j at bit 63 - j % 64 and every bit past the row is 0; the
    elimination in ``gf2`` relies on that layout.
    """
    rng = np.random.default_rng(width)
    words, table = rng.integers(0, 2, (9, width), dtype=np.uint8), rng.integers(0, 2, (11, width), dtype=np.uint8)
    table[0], table[1] = 0, 1
    words[0] = 0
    # buffers longer than a block needs, as a suite's last distance block finds them
    size = 9 * 11 * -(-width // 64) + 5
    dists = verify._distances(gf2._lanes(words), gf2._lanes(table), np.empty(size, np.uint64), np.empty(size, np.uint8))
    assert dists.dtype == (np.uint8 if width <= 64 else np.uint16)
    assert dists[0, 1] == width
    assert dists.tolist() == [[sum(a != b for a, b in zip(w, t)) for t in table.tolist()] for w in words.tolist()]
    for row, bits in zip(gf2._lanes(table).view(">u8").tolist(), table.tolist()):
        assert len(row) == -(-width // 64)
        assert all(row[j // 64] >> 63 - j % 64 & 1 == b for j, b in enumerate(bits))
        assert row[-1] & (1 << -width % 64) - 1 == 0  # the bits past the row are 0
