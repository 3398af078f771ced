"""The low-weight certificate of the pruned codes against the search it skips and the per-subtrellis reference.

A code with no metric automaton first reads each word's syndrome for its
one error of weight <= 2 (``decoder._certificate``); only a word it does
not answer runs the bound pass, the closing checks and the search.
"""

from collections import Counter
from functools import reduce
from itertools import combinations, product

import numpy as np
import pytest
from test_decoder_contract import CERTIFICATE, CODES, PRUNED, low_noise_words, reference_decode

import tbtrellis.decoder as decoder
from tbtrellis import decode_tailbiting, decode_tailbiting_batch, poly_from_strings
from tbtrellis.decoder import _search_tables
from tbtrellis.state_machines import syndrome_former


def _pair(name):
    return tuple(poly_from_strings(s) for s in CODES[name][0])


def _keys(H, outs, width=None):
    """The step outputs of a word's circular run whose symbols output ``outs``: runs of m, then single ones.

    With ``width`` H.cols, the same packing of the symbols themselves gives the steps' labels.
    """
    m, r = _search_tables(H).m, width or H.rows
    cut = len(outs) - len(outs) % m
    return [reduce(lambda v, o: v << r | o, outs[t : t + m], 0) for t in range(0, cut, m)] + list(outs[cut:])


def _errors(H, N, weight):
    """Per syndrome (the step outputs of its circular run) of the errors of ``weight`` bits at length N: each such
    error's symbol integers and circular state, found by its own ``circular_word``."""
    sf, n, found = syndrome_former(H), H.cols, {}
    for bits in combinations(range(N * n), weight):
        es = [0] * N
        for b in bits:
            es[b // n] ^= 1 << n - 1 - b % n
        x, outs = sf.circular_word(es)
        found.setdefault(tuple(outs), []).append((es, x))
    return found


def _every_anchor(H):
    """``_certificate``'s anchor arguments that leave every state an anchor: rows and the search tables."""
    tables = _search_tables(H)
    return list(range(len(tables.states))), tables


@pytest.mark.parametrize("name", PRUNED)
def test_singles_hold_the_circular_run_of_every_single_bit_error(name):
    """Per bit, the state of its own circular run and its place in a label; ``bit``, ``covers`` and the heaviest
    syndrome's bit count read the syndromes of the same runs, and the steps' output widths are those of the runs."""
    H = _pair(name)[1]
    sf, n, r, m = syndrome_former(H), H.cols, H.rows, _search_tables(H).m
    for N in [*range(H.deg, H.deg + 2 * m + 2), 48]:
        singles, syndromes, states = decoder._singles(H, N), [], []
        for b in range(N * n):
            es = [0] * N
            es[b // n] = 1 << n - 1 - b % n
            x, outs = sf.circular_word(es)
            syndromes.append(int("".join(format(o, f"0{r}b") for o in outs), 2))
            states.append(x)
        bit = {v: i if syndromes.count(v) == 1 else -1 for i, v in enumerate(syndromes)}
        covers = [[v for v in syndromes if v >> p & 1] for p in range(N * r)]
        assert singles[0] == states and singles[2:4] == (bit, covers), N
        assert singles[4] == [r * m] * (N // m) + [r] * (N % m) and singles[5] == max(v.bit_count() for v in syndromes)
        # each bit's place: its step, and the bit it sets in the step's label, a run's first symbol most significant
        cut = N - N % m
        assert singles[1] == [
            (t // m, 1 << n * (m - 1 - t % m) + n - 1 - j) if t < cut else (N // m + t - cut, 1 << n - 1 - j)
            for t in range(N)
            for j in range(n)
        ]


@pytest.mark.parametrize("name", PRUNED)
def test_certificate_equals_the_search_and_the_reference(monkeypatch, name):
    """Low-noise corpora at N = M..M+13 and 48, one word at a time and in a block: every result equals the
    certificate-off search's, each word the certificate answers equals ``reference_decode``, and it answers words
    of weight 0, 1, 2 and 3, and no other (the 16-state corpus's one word of weight 3 ties, so it is declined)."""
    G, H = _pair(name)
    g, h = CODES[name][0]
    words = []
    for i, N in enumerate([*range(H.deg, H.deg + 14), 48]):
        words += low_noise_words(3, 300 + i, N=N, p=[0.02, 0.06][i % 2], strings=(g, h))
    answered = []

    def recording_certificate(*args):
        found = CERTIFICATE(*args)
        answered.append(found and found[0])
        return found

    monkeypatch.setattr(decoder, "_certificate", recording_certificate)
    results = [decode_tailbiting(G, H, z) for z in words]
    hits = [(z, res) for z, res, w in zip(words, results, answered) if w is not None]
    assert all(res == reference_decode(G, H, z) for z, res in hits)
    assert all(not res.tie and res.weight <= 3 for _, res in hits)
    assert Counter(answered).keys() >= {0, 1, 2, None} | ({3} if name != "16-state" else set())
    blocks = [decode_tailbiting_batch(G, H, words[i : i + 3]) for i in range(0, len(words), 3)]
    assert sum(blocks, []) == results
    monkeypatch.setattr(decoder, "_certificate", lambda *args: None)
    assert [decode_tailbiting(G, H, z) for z in words] == results


@pytest.mark.parametrize("name, N", [("k7", 6), ("16-state", 5)])
def test_a_syndrome_of_two_weight_2_errors_is_not_answered(name, N):
    """At these lengths the circular code has words of weight <= 4, so two weight-2 errors, which their own circular
    runs find, share a syndrome that no single bit has; the certificate, every state an anchor, declines it."""
    H = _pair(name)[1]
    count = {outs: len(errors) for outs, errors in _errors(H, N, 2).items()}
    bit, packed = decoder._singles(H, N)[2], {outs: reduce(lambda v, o: v << H.rows | o, outs, 0) for outs in count}
    shared = [outs for outs, k in count.items() if k > 1 and packed[outs] not in bit]
    assert shared
    for outs in shared:
        assert CERTIFICATE(decoder._singles(H, N), _keys(H, outs), *_every_anchor(H)) is None
    # a syndrome of one weight-2 error, every state an anchor, is answered
    once = next(outs for outs, k in count.items() if k == 1 and packed[outs] not in bit)
    assert CERTIFICATE(decoder._singles(H, N), _keys(H, once), *_every_anchor(H))[0] == 2


def _answers_every_lone_triple(H, N):
    """Every state an anchor, the certificate answers a syndrome of a weight-3 error at weight 3 exactly when no error
    of weight <= 2 has it and no other weight-3 error does: that error, its labels and circular state.  A syndrome of
    a lighter error is never answered at weight 3.  Returns the weight-3 syndromes each way, by their errors."""
    tables, lighter, routes = _search_tables(H), {outs for w in range(3) for outs in _errors(H, N, w)}, {}
    for outs, errors in _errors(H, N, 3).items():
        found = CERTIFICATE(decoder._singles(H, N), _keys(H, outs), *_every_anchor(H))
        if outs in lighter:
            assert found is None or found[0] < 3, outs
            routes.setdefault("lighter", []).append(errors)
        elif len(errors) > 1:
            assert found is None, outs
            routes.setdefault("shared", []).append(errors)
        else:
            ((es, x),) = errors
            assert found[:4] == (3, 1, _keys(H, es, H.cols), tables.index[x]), outs
            routes.setdefault("lone", []).append(errors)
    return routes


@pytest.mark.parametrize("name, N", [("k7", 11), ("16-state", 8)])
def test_a_syndrome_of_two_weight_3_errors_or_of_a_lighter_one_is_not_answered_at_weight_3(name, N):
    """At these lengths the circular code has words of weight <= 6, so two weight-3 errors share some syndromes, and
    some syndromes of weight-3 errors are also those of lighter ones; each way occurs, and so does a lone triple."""
    routes = _answers_every_lone_triple(_pair(name)[1], N)
    assert routes.keys() == {"lighter", "shared", "lone"}


def test_a_triple_with_a_member_of_shared_syndrome_is_not_answered():
    """H = [1+D^2+D^3, 1+D^2+D^3, 1]: the first two bits of each symbol share a syndrome, so a weight-3 error with one
    of them has a twin that differs only in that member; the two read as one triple of bits, with the shared member
    marked, and the certificate declines their syndrome."""
    H = poly_from_strings([["1011", "1011", "1"]])
    N = 10
    assert list(decoder._singles(H, N)[2].values()).count(-1) == N
    twins = [
        errors
        for errors in _answers_every_lone_triple(H, N)["shared"]
        if len(errors) == 2 and [a ^ b for a, b in zip(errors[0][0], errors[1][0]) if a != b] == [0b110]
    ]
    assert twins


def test_a_syndrome_of_two_single_bits_is_not_answered():
    """The memoryless H = [1 1]: both bits of a symbol have its syndrome, so no syndrome but 0 is answered."""
    H = poly_from_strings([["1", "1"]])
    assert set(decoder._singles(H, 3)[2].values()) == {-1}
    for outs in product((0, 1), repeat=3):
        found = CERTIFICATE(decoder._singles(H, 3), _keys(H, outs), *_every_anchor(H))
        assert found is None if any(outs) else found[0] == 0


def test_an_error_whose_state_is_not_an_anchor_is_not_answered():
    """Low-noise K=7 words the certificate answers: with the anchor of the error's state left out of the rows, it
    declines each of them."""
    G, H = _pair("k7")
    pair, sf = decoder._pair(G, H), syndrome_former(H)
    tables, declined = pair.tables, 0
    for z in low_noise_words(40, 11):
        fin, outs = sf.circular_word(sf.word(z))
        rows, keys, singles = pair.anchors[fin], _keys(H, outs), decoder._singles(H, len(z))
        found = CERTIFICATE(singles, keys, rows, tables)
        if found is None:
            continue
        row = found[3]
        assert found[1:] == (1, found[2], row, rows.index(row))
        assert CERTIFICATE(singles, keys, [r for r in rows if r != row], tables) is None
        declined += 1
    assert declined > 10


def test_a_word_the_certificate_answers_runs_no_pass(monkeypatch):
    """A 48-symbol K=7 codeword with two bits flipped far apart decodes with no min-plus pass."""
    G, H = _pair("k7")
    z = low_noise_words(1, 5, p=0)[0]
    z[3], z[30] = (1 - z[3][0], z[3][1]), (z[30][0], 1 - z[30][1])
    monkeypatch.setattr(decoder, "_min_plus", lambda *args: pytest.fail("a min-plus pass ran"))
    res = decode_tailbiting(G, H, z)
    assert res.weight == 2 and not res.tie
    assert np.flatnonzero(res.error).tolist() == [6, 61]


def test_a_word_of_weight_3_the_certificate_answers_runs_no_pass(monkeypatch):
    """A 48-symbol K=7 codeword with three bits flipped far apart decodes with no min-plus pass."""
    G, H = _pair("k7")
    z = low_noise_words(1, 5, p=0)[0]
    z[3], z[20], z[40] = (1 - z[3][0], z[3][1]), (z[20][0], 1 - z[20][1]), (1 - z[40][0], z[40][1])
    monkeypatch.setattr(decoder, "_min_plus", lambda *args: pytest.fail("a min-plus pass ran"))
    res = decode_tailbiting(G, H, z)
    assert res.weight == 3 and not res.tie
    assert np.flatnonzero(res.error).tolist() == [6, 41, 80]


def test_a_pair_record_keeps_the_single_bit_tables_of_its_last_lengths():
    """One K=7 word at each of 50 lengths: the record holds at most ``LENGTHS`` ``_singles`` tables after every decode,
    and every result equals ``decode_tailbiting_batch``'s of a block of two words of its length."""
    G, H = _pair("k7")
    cache = decoder._pair(G, H).singles
    cache.cache_clear()
    for N in range(H.deg, H.deg + 50):
        words = low_noise_words(2, 400 + N, N=N, p=0.05)
        assert [decode_tailbiting(G, H, z) for z in words] == decode_tailbiting_batch(G, H, words), N
        assert cache.cache_info().currsize <= decoder.LENGTHS, N
    assert cache.cache_info().currsize == cache.cache_info().maxsize == decoder.LENGTHS
