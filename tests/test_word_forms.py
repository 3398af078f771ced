"""Every form of a word, a symbol and a state reads the same, and a bad one fails with one message.

A word may be a list of symbol tuples, a list of lists, a 2-D 0/1 array,
a list of 0/1 arrays or a one-shot iterable; a one-bit symbol may also be
a 0/1 int.  A state may be a tuple, a list or a 0/1 array.
"""

import re
from itertools import product

import numpy as np
import pytest

from tbtrellis import (
    Edge,
    Trellis,
    backward_error_anchor,
    backward_sigma_fin,
    backward_syndromes,
    build_backward_error_trellis,
    build_tailbiting_code_trellis,
    build_tailbiting_error_trellis,
    count_paths,
    decode_tailbiting,
    dual_state,
    enc_state_space,
    encoder_run,
    enumerate_paths,
    error_anchor,
    extended_state,
    min_weight_path,
    sf_run,
    sf_state_space,
    sigma_fin,
    tailbiting_anchor,
    tailbiting_encode,
    tailbiting_syndromes,
    to_dot,
)
from tbtrellis.error_trellis import _search_tables
from tbtrellis.state_machines import syndrome_former
from tbtrellis import poly_from_strings
from test_decoder_contract import CODES

INPUTS = [(1,), (0,), (1,), (1,), (0,)]


def _forms(word):
    """Makers of one word in each form; the iterator is made anew for every reading."""
    forms = {
        "tuples": lambda: [tuple(s) for s in word],
        "lists": lambda: [list(s) for s in word],
        "array": lambda: np.array(word),
        "arrays": lambda: [np.array(s) for s in word],
        "iterator": lambda: iter([tuple(s) for s in word]),
    }
    if len(word[0]) == 1:
        forms["ints"] = lambda: [s[0] for s in word]
    return forms


# per public function that takes a word: the function of (G, H, word)
READERS = {
    "sigma_fin": lambda G, H, z: sigma_fin(H, z),
    "tailbiting_syndromes": lambda G, H, z: tailbiting_syndromes(H, z),
    "backward_sigma_fin": lambda G, H, z: backward_sigma_fin(H, z),
    "backward_syndromes": lambda G, H, z: backward_syndromes(H, z),
    "build_tailbiting_error_trellis": lambda G, H, z: build_tailbiting_error_trellis(H, z),
    "build_backward_error_trellis": lambda G, H, z: build_backward_error_trellis(H, z),
    "decode_tailbiting": decode_tailbiting,
    "sf_run": lambda G, H, z: sf_run(H, (1, 0), z),
    "encoder_run": lambda G, H, u: encoder_run(G, (0, 1), u),
    "tailbiting_encode": lambda G, H, u: tailbiting_encode(G, u),
    "tailbiting_anchor": lambda G, H, u: tailbiting_anchor(G, u),
}
# the encoder's functions take input words
INPUT_WORD = {"encoder_run", "tailbiting_encode", "tailbiting_anchor"}


@pytest.mark.parametrize("name", list(READERS))
def test_every_form_of_a_word_reads_the_same(G1, H1, received, name):
    word = INPUTS if name in INPUT_WORD else received
    expected = READERS[name](G1, H1, word)
    for form, make in _forms(word).items():
        assert READERS[name](G1, H1, make()) == expected, form


@pytest.mark.parametrize("name", list(READERS))
def test_every_form_of_a_word_names_its_bad_symbol(G1, H1, received, name):
    word = INPUTS if name in INPUT_WORD else received
    bad = (2,) if len(word[0]) == 1 else (0, 2, 1)
    message = rf"^expected an input symbol of {len(bad)} bits in \{{0, 1\}}, got {re.escape(repr(bad))}$"
    for at in range(len(word)):
        for form, make in _forms(word[:at] + [bad] + word[at + 1 :]).items():
            with pytest.raises(ValueError, match=message):
                READERS[name](G1, H1, make())


@pytest.mark.parametrize(
    "f",
    [sigma_fin, backward_sigma_fin, backward_syndromes, build_tailbiting_error_trellis, build_backward_error_trellis],
)
def test_a_construction_checks_every_symbol_then_the_length(H2, f):
    """As ``sigma_fin`` does: a bad symbol anywhere, even in a word shorter than M, is named first."""
    good = [(1, 0)] * 4
    for at in range(4):
        with pytest.raises(ValueError, match=r"^expected an input symbol of 2 bits in \{0, 1\}, got \(1, 2\)$"):
            f(H2, good[:at] + [(1, 2)] + good[at + 1 :])
    for short in ([(2, 0)], np.array([[1, 2]])):
        with pytest.raises(ValueError, match=r"^expected an input symbol of 2 bits in \{0, 1\}, got \(\d, \d\)$"):
            f(H2, short)
    with pytest.raises(ValueError, match="^need at least M=2 received symbols, got 1$"):
        f(H2, iter([(1, 0)]))


def test_a_window_is_read_before_its_length_is_checked(H1):
    window = [(1, 1, 1), (1, 1, 0)]
    for f, size in ((extended_state, 2), (dual_state, 1)):
        assert f(H1, iter(window[:size])) == f(H1, np.array(window[:size])) == f(H1, window[:size])
        for wrong in ([(1, 2, 0)] * (3 - size), [(0, 0, 0), (1, 2, 0), (0, 0, 0)]):
            with pytest.raises(ValueError, match=r"^expected an input symbol of 3 bits in \{0, 1\}, got \(1, 2, 0\)$"):
                f(H1, iter(wrong))
        with pytest.raises(ValueError, match=rf"^window length 3, expected {size}$"):
            f(H1, iter([(0, 0, 0)] * 3))


@pytest.mark.parametrize("anchor", [error_anchor, backward_error_anchor])
def test_an_anchor_reads_both_states_and_returns_ints(G1, H1, anchor):
    for sigma in ((2, 0), (1, 0, 1), np.array([2, 0])):
        shown = re.escape(repr(tuple(np.asarray(sigma).tolist())))
        with pytest.raises(ValueError, match=rf"^expected a state of 2 bits in \{{0, 1\}}, got {shown}$"):
            anchor((1, 0), sigma, G1, H1)
    for beta, sigma in product(enc_state_space(G1), sf_state_space(H1)):
        expected = anchor(beta, sigma, G1, H1)
        for form in (list, np.array):
            got = anchor(form(beta), form(sigma), G1, H1)
            assert got == expected and all(type(b) is int for b in got)


QUERIES = {
    "count_paths": count_paths,
    "enumerate_paths": enumerate_paths,
    "min_weight_path": min_weight_path,
    "to_dot": lambda T, anchor: to_dot(T, highlight=anchor),
}


@pytest.mark.parametrize("query", list(QUERIES))
def test_a_trellis_query_reads_a_list_or_array_anchor(G1, H1, received, query):
    f = QUERIES[query]
    for T in (build_tailbiting_code_trellis(G1, 4), build_tailbiting_error_trellis(H1, received)):
        for anchor in T.anchors:
            expected = f(T, anchor)
            assert f(T, list(anchor)) == f(T, np.array(anchor)) == expected
        for state in ((1, 1, 1), [1, 1, 1], np.array([1, 1, 1])):
            with pytest.raises(ValueError, match=r"^state \(1,1,1\) is not an anchor of this trellis$"):
                f(T, state)
    # state (1,) is at cut 0 but not at cut N: a state of the trellis, yet no anchor
    T = Trellis("code", 1, (((0,), (1,)), ((0,),)), ((Edge((0,), (0,), (0,)), Edge((1,), (1,), (0,))),))
    for state in ((1,), [1], np.array([1])):
        with pytest.raises(ValueError, match=r"^state \(1\) is not an anchor of this trellis$"):
            f(T, state)
    assert f(T, [0]) == f(T, np.array([0])) == f(T, (0,))


def _decode_forms(word):
    """``_forms`` of a word of symbol tuples, with tuples of bools and of ``np.int64`` entries besides."""
    forms = _forms(word)
    forms["bools"] = lambda: [tuple(bool(b) for b in s) for s in word]
    forms["int64"] = lambda: [tuple(np.int64(b) for b in s) for s in word]
    return forms


def _reader_cases():
    """(code name, N) for the reference, K=7 and H0-zero codes: the lengths N >= max(M, 1) below max(M, 1) + 2m whose
    N mod m is 0, 1 or m - 1, m being the run the decoder reads a word's symbols in."""
    for name in ("ref", "k7", "H0-zero"):
        H = poly_from_strings(CODES[name][0][1])
        m, low = _search_tables(H).m, max(H.deg, 1)
        for N in range(low, low + 2 * m):
            if N % m in (0, 1, m - 1):
                yield name, N


@pytest.mark.parametrize("name, N", list(_reader_cases()))
def test_the_run_reader_decodes_every_form_of_a_word_as_its_tuples(name, N):
    """A word of symbol tuples is read a run of m symbols at a time, any other form by ``LinearMachine.word``: both
    decode alike.  (No code has one-bit symbols, so the 0/1 int form of ``_forms`` does not arise here.)"""
    G, H = (poly_from_strings(s) for s in CODES[name][0])
    rng = np.random.default_rng(N)
    for _ in range(3):
        word = [tuple(int(b) for b in rng.integers(0, 2, H.cols)) for _ in range(N)]
        expected = decode_tailbiting(G, H, word)
        for form, make in _decode_forms(word).items():
            assert decode_tailbiting(G, H, make()) == expected, form


@pytest.mark.parametrize("name, N", list(_reader_cases()))
def test_the_run_reader_names_a_bad_symbol_in_a_run_or_the_tail_before_the_length(name, N):
    """A bad symbol in the first run of m symbols and in the last symbol (one of the N mod m single symbols, or of the
    last run), in every form that can hold it (a bool cannot), raises the message ``LinearMachine.word`` raises for the
    word; so does a bad symbol in a word shorter than M, whose length is checked only after its symbols.  A good word
    shorter than M names its length."""
    G, H = (poly_from_strings(s) for s in CODES[name][0])
    sf, n = syndrome_former(H), H.cols
    bad, good = (0,) * (n - 1) + (2,), [(1,) + (0,) * (n - 1)] * N
    message = rf"^expected an input symbol of {n} bits in \{{0, 1\}}, got {re.escape(repr(bad))}$"
    words = [good[:at] + [bad] + good[at + 1 :] for at in sorted({1, N - 1})]
    if H.deg > 1:
        words.append(good[: H.deg - 2] + [bad])
        with pytest.raises(ValueError, match=rf"^need at least M={H.deg} received symbols, got {H.deg - 1}$"):
            decode_tailbiting(G, H, good[: H.deg - 1])
    for word in words:
        for form, make in _decode_forms(word).items():
            if form != "bools":
                with pytest.raises(ValueError) as expected:
                    sf.word(make())
                with pytest.raises(ValueError) as got:
                    decode_tailbiting(G, H, make())
                assert str(got.value) == str(expected.value), (form, word)
                # an np.int64 entry is shown as its repr
                assert form == "int64" or re.match(message, str(got.value)), form
