from functools import reduce
from itertools import product

import numpy as np
import pytest
from test_decoder_contract import CODES

from tbtrellis import (
    backward_state,
    constraint_length,
    dual_state,
    dual_state_of,
    enc_state_space,
    encoder_run,
    encoder_step,
    extended_state,
    poly_from_strings,
    reciprocal,
    sf_run,
    sf_state_space,
    sf_step,
    sf_zero_state,
    tailbiting_anchor,
    tailbiting_encode,
    xor_states,
)
from tbtrellis.decoder import _search_tables
import tbtrellis.state_machines as state_machines
from tbtrellis.state_machines import encoder, syndrome_former, unpack

from oracle import circ_encode, coeffs_from_strings


def test_sf_step_from_zero(H1):
    sigma, zeta = sf_step(H1, (0, 0), (1, 1, 1))
    assert sigma == (1, 1)
    assert zeta == (0, 0)


def test_sf_step_mid_sequence(H1):
    sigma, zeta = sf_step(H1, (0, 1), (1, 1, 0))
    assert sigma == (0, 1)
    assert zeta == (1, 0)


def test_sf_step_all_zero(H1, H2):
    for H in (H1, H2):
        sigma, zeta = sf_step(H, sf_zero_state(H), (0,) * H.cols)
        assert sigma == sf_zero_state(H)
        assert zeta == (0,) * H.rows


def test_sf_step_rejects_bad_lengths(H1):
    with pytest.raises(ValueError):
        sf_step(H1, (0, 0, 0), (1, 1, 1))
    with pytest.raises(ValueError):
        sf_step(H1, (0, 0), (1, 1))


def test_sf_run_reference_word(H1, received):
    final, zetas = sf_run(H1, (0, 0), received)
    assert final == (0, 0)
    assert zetas == [(0, 0), (0, 0), (1, 0), (0, 1), (1, 1)]


def test_sf_run_empty(H1):
    assert sf_run(H1, (1, 0), []) == ((1, 0), [])


def test_sf_run_reciprocal_reversed_word(H1, received):
    final, etas = sf_run(reciprocal(H1), (0, 0), list(reversed(received)))
    assert final == (0, 0)
    assert etas == [(0, 0), (1, 1), (0, 1), (1, 0), (0, 0)]


def test_extended_state_examples(H1):
    assert extended_state(H1, [(0, 0, 0), (1, 1, 1)]) == ((0, 0), (1, 1))
    assert extended_state(H1, [(0, 0, 0), (0, 0, 0)]) == ((0, 0), (0, 0))
    assert extended_state(H1, [(1, 1, 1), (1, 1, 0)]) == ((0, 0), (0, 1))
    with pytest.raises(ValueError):
        extended_state(H1, [(0, 0, 0)])


def test_extended_state_matches_stepping(H1, H2):
    """The window formula agrees with running the machine from zero."""
    rng = np.random.default_rng(5)
    for H in (H1, H2):
        M, n = H.deg, H.cols
        for _ in range(200):
            seq = [tuple(rng.integers(0, 2, n)) for _ in range(M + 1)]
            sigma, zetas = sf_run(H, sf_zero_state(H), seq)
            ext = extended_state(H, seq)
            assert ext.sigma == sigma
            assert ext.zeta == zetas[-1]


def test_dual_state_window(H1):
    assert dual_state(H1, [(0, 0, 1)]) == (1, 0)
    assert dual_state(H1, [(0, 0, 0)]) == (0, 0)
    assert dual_state(reciprocal(H1), [(1, 1, 0)]) == (1, 1)
    with pytest.raises(ValueError):
        dual_state(H1, [(0, 0, 1), (0, 0, 1)])


def test_dual_state_of_reference_code(G1, H1):
    # beta = (u_{k-1}, u_k) maps to (u_{k-1}+u_k, u_k)
    assert dual_state_of(G1, H1, (1, 0)) == (1, 0)
    assert dual_state_of(G1, H1, (0, 0)) == (0, 0)
    assert dual_state_of(G1, H1, (1, 1)) == (0, 1)
    assert dual_state_of(G1, H1, (0, 1)) == (1, 1)


def test_dual_state_of_reciprocal_pair(G1, H1):
    # under the reciprocal pair the image is (u_{k-1}+u_k, u_{k-1})
    Gt, Ht = reciprocal(G1), reciprocal(H1)
    assert dual_state_of(Gt, Ht, (1, 0)) == (1, 1)
    assert dual_state_of(Gt, Ht, (0, 1)) == (1, 0)
    assert dual_state_of(Gt, Ht, (1, 1)) == (0, 1)


def test_dual_state_of_frozen_input_independence(G1, H1, G2, H2):
    for G, H in ((G1, H1), (G2, H2), (reciprocal(G1), reciprocal(H1))):
        for beta in enc_state_space(G):
            assert dual_state_of(G, H, beta, fill=0) == dual_state_of(G, H, beta, fill=1)


def test_encoder_step(G1):
    beta, y = encoder_step(G1, (0, 1), 1)
    assert (beta, y) == ((1, 1), (1, 1, 0))
    beta, y = encoder_step(G1, (0, 0), 0)
    assert (beta, y) == ((0, 0), (0, 0, 0))
    beta, y = encoder_step(G1, (1, 1), 0)
    assert (beta, y) == ((1, 0), (0, 1, 0))
    with pytest.raises(ValueError):
        encoder_step(G1, (1,), 1)


def test_backward_state(G1):
    assert backward_state(G1, (1, 0)) == (0, 1)
    assert backward_state(G1, (0, 0)) == (0, 0)
    assert backward_state(G1, (1, 1)) == (1, 1)


def test_backward_state_involution(G1, G2):
    for G in (G1, G2):
        for beta in enc_state_space(G):
            assert backward_state(G, backward_state(G, beta)) == beta


def test_superposition(H1, H2):
    """Transitions are additive in (state, input): 1000 random tuples."""
    rng = np.random.default_rng(2)
    for H in (H1, H2):
        bits, n = H.deg * H.rows, H.cols
        for _ in range(1000):
            s1 = tuple(rng.integers(0, 2, bits))
            s2 = tuple(rng.integers(0, 2, bits))
            e1 = tuple(rng.integers(0, 2, n))
            e2 = tuple(rng.integers(0, 2, n))
            n1, z1 = sf_step(H, s1, e1)
            n2, z2 = sf_step(H, s2, e2)
            ns, zs = sf_step(H, xor_states(s1, s2), xor_states(e1, e2))
            assert ns == xor_states(n1, n2)
            assert zs == xor_states(z1, z2)


def test_state_forgets_start_after_memory_steps(H1, H2):
    """From step M on, states agree for any two starting states; syndromes
    agree from step M+1 on."""
    rng = np.random.default_rng(3)
    for H in (H1, H2):
        M, bits, n = H.deg, H.deg * H.rows, H.cols
        for _ in range(200):
            seq = [tuple(rng.integers(0, 2, n)) for _ in range(M + 3)]
            s1 = tuple(rng.integers(0, 2, bits))
            s2 = tuple(rng.integers(0, 2, bits))
            states1, zetas1 = _trace(H, s1, seq)
            states2, zetas2 = _trace(H, s2, seq)
            assert states1[M:] == states2[M:]
            assert zetas1[M:] == zetas2[M:]


def _trace(H, sigma, seq):
    states, zetas = [], []
    for e in seq:
        sigma, zeta = sf_step(H, sigma, e)
        states.append(sigma)
        zetas.append(zeta)
    return states, zetas


def test_tailbiting_encode_matches_oracle(G1, g1_coeffs):
    rng = np.random.default_rng(4)
    for _ in range(100):
        u = [tuple(rng.integers(0, 2, 1)) for _ in range(5)]
        assert tuple(tailbiting_encode(G1, u)) == circ_encode(g1_coeffs, u)


def test_tailbiting_encode_rejects_an_empty_word(G1):
    """So does ``tailbiting_anchor``, with memory and without."""
    for G in (G1, poly_from_strings([["1", "1"]])):
        for circular in (tailbiting_encode, tailbiting_anchor):
            with pytest.raises(ValueError, match="^need at least one input symbol$"):
                circular(G, [])


def test_xor_states_rejects_unequal_lengths():
    assert xor_states((1, 0, 1), (1, 1, 0)) == (0, 1, 1)
    for a, b in (((1, 0), (1,)), ((), (0,))):
        with pytest.raises(ValueError, match="state length mismatch"):
            xor_states(a, b)


def test_xor_states_reads_states_like_every_state_reader():
    """Tuples, lists and 0/1 arrays give a tuple of plain ints; an entry other than 0/1 is named, not reduced mod 2."""
    for a, b in (((1, 0), (1, 1)), ([1, 0], [1, 1]), (np.array([1, 0]), (1, 1)), (np.array([1, 0]), np.array([1, 1]))):
        got = xor_states(a, b)
        assert got == (0, 1) and all(type(x) is int for x in got)
    for a, b in (([1, 2], [0, 0]), ((0, 0), np.array([1, 2])), (np.array([1, 2]), (0, 0, 0))):
        with pytest.raises(ValueError, match=r"^expected a state of bits in \{0, 1\}, got \(1, 2\)$"):
            xor_states(a, b)


def test_tailbiting_anchor(G1):
    assert tailbiting_anchor(G1, [(0,), (1,), (1,), (1,), (0,)]) == (1, 0)
    assert tailbiting_anchor(G1, [(0,)] * 5) == (0, 0)


def test_state_spaces(G1, H1, H2):
    assert len(enc_state_space(G1)) == 4
    assert sf_state_space(H1) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert len(sf_state_space(H2)) == 4


def test_state_space_pins_missing_cells():
    # second parity row is memoryless: its cell in every block stays zero
    from tbtrellis import poly_from_strings

    H = poly_from_strings([["11", "01", "1"], ["1", "1", "0"]])
    states = sf_state_space(H)
    assert len(states) == 2
    assert all(s[1] == 0 for s in states)


def test_constraint_length(G1, H1, H2):
    assert constraint_length(H1) == 2
    assert constraint_length(G1) == 2
    assert constraint_length(H2) == 2


def test_encoder_run_round_trip(G1):
    state, out = encoder_run(G1, (0, 0), [(1,), (1,), (0,)])
    assert state == (1, 0)
    assert out == [(1, 1, 1), (1, 1, 0), (0, 1, 0)]


# generators with two input rows; the second has unequal row degrees
G_K2_STRINGS = (
    [["101", "11", "1"], ["01", "1", "111"]],
    [["1011", "1", "0"], ["0", "11", "1"]],
)
# parity checks with a memoryless row, so some state cells are pinned
H_PINNED_STRINGS = (
    [["11", "01", "1"], ["1", "1", "0"]],
    [["111", "101", "0"], ["0", "1", "1"]],
)


def test_tailbiting_encode_two_inputs_matches_oracle():
    for strings in G_K2_STRINGS:
        G, coeffs = poly_from_strings(strings), coeffs_from_strings(strings)
        for N in (1, 2, 3, 5):  # N = 1 and 2 lie below the memory of the second G
            for bits in product((0, 1), repeat=2 * N):
                u = [bits[2 * t : 2 * t + 2] for t in range(N)]
                assert tuple(tailbiting_encode(G, u)) == circ_encode(coeffs, u)


def test_superposition_over_pinned_cells():
    """Linearity holds for every M*r-bit state, pinned cells set or not."""
    rng = np.random.default_rng(6)
    for strings in H_PINNED_STRINGS:
        H = poly_from_strings(strings)
        bits, n = H.deg * H.rows, H.cols
        assert len(sf_state_space(H)) < 2**bits
        for _ in range(500):
            s1, s2 = tuple(rng.integers(0, 2, bits)), tuple(rng.integers(0, 2, bits))
            e1, e2 = tuple(rng.integers(0, 2, n)), tuple(rng.integers(0, 2, n))
            n1, z1 = sf_step(H, s1, e1)
            n2, z2 = sf_step(H, s2, e2)
            ns, zs = sf_step(H, xor_states(s1, s2), xor_states(e1, e2))
            assert ns == xor_states(n1, n2)
            assert zs == xor_states(z1, z2)


def test_steps_reject_non_binary_entries(G1, H1):
    with pytest.raises(ValueError):
        sf_step(H1, (0, 2), (1, 1, 1))
    with pytest.raises(ValueError):
        sf_step(H1, (0, 0), (1, 2, 1))
    with pytest.raises(ValueError):
        sf_run(H1, (2, 0), [(1, 1, 1)])
    with pytest.raises(ValueError):
        sf_run(H1, (0, 0), [(0, 0, 0), (1, 1, 2)])
    with pytest.raises(ValueError):
        encoder_step(G1, (0, 2), 1)
    with pytest.raises(ValueError):
        encoder_step(G1, (0, 0), 2)
    with pytest.raises(ValueError):
        encoder_run(G1, (2, 0), [(1,)])
    with pytest.raises(ValueError):
        encoder_run(G1, (0, 0), [(1,), (2,)])


@pytest.mark.parametrize("name", sorted(CODES))
def test_a_block_circular_run_equals_the_one_word_run_of_each_row(name):
    """Both machines of every pair, at N = 1..2d+1: below d the word is read around more than once."""
    G, H = (poly_from_strings(s) for s in CODES[name][0])
    rng = np.random.default_rng(97)
    for machine, d in ((syndrome_former(H), H.deg), (encoder(G), G.deg)):
        for N in range(1, 2 * d + 2):
            E = rng.integers(0, 2**machine.in_bits, (7, N))
            fin, outs = machine.circular(E)
            assert outs.shape == E.shape
            for row, x, o in zip(E.tolist(), fin.tolist(), outs.tolist()):
                assert machine.circular_word(row) == (x, o)


@pytest.mark.parametrize("name", sorted(CODES))
def test_the_m_step_machine_is_m_one_step_folds(name):
    """``power(m)`` of the syndrome former, m its search tables' run, from every state under every run of m symbols.

    A transition is one XOR of its two tables; it equals m ``fold`` steps,
    the next state above the m outputs, the first symbol's most
    significant.  ``power(1)`` holds the machine's own tables.
    """
    H = poly_from_strings(CODES[name][0][1])
    sf, m = syndrome_former(H), _search_tables(H).m
    run, n, r = sf.power(m), sf.in_bits, sf.out_bits
    assert (sf.power(1).from_state, sf.power(1).from_input) == (sf.from_state, sf.from_input)
    assert run.states == sf.states and run.degree == -(-H.deg // m)
    assert (run.state_bits, run.in_bits, run.out_bits) == (sf.state_bits, m * n, m * r)
    folded = []
    for x in range(2**sf.state_bits):
        for z in range(2 ** (m * n)):
            y, outs = sf.fold(x, [z >> n * p & 2**n - 1 for p in range(m - 1, -1, -1)])
            folded.append(reduce(lambda v, o: v << r | o, outs, y))
    assert [x ^ z for x in run.from_state for z in run.from_input] == folded


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.intp])
def test_unpack_equals_a_bit_by_bit_reference_in_every_input_dtype(dtype):
    """Widths 1-8 of uint8, uint16 and intp arrays, each masked by the intp places of its bits."""
    rng = np.random.default_rng(83)
    for width in range(1, 9):
        ints = rng.integers(0, 2**width, (5, 7)).astype(dtype)
        bits = [[[int(v) >> width - 1 - p & 1 for p in range(width)] for v in row] for row in ints.tolist()]
        out = unpack(ints, width)
        assert out.dtype == np.uint8 and out.tolist() == bits, width


def test_a_word_of_lists_is_looked_up_as_tuples_with_no_per_symbol_lookup(monkeypatch):
    """A valid list-of-lists word reads as its tuples do, without ``_lookup``; a bad one still names its symbol."""
    sf = syndrome_former(poly_from_strings([["1111001", "1011011"]]))
    word = np.random.default_rng(5).integers(0, 2, (48, 2)).tolist()
    expected = sf.word([tuple(s) for s in word])
    monkeypatch.setattr(state_machines, "_lookup", lambda *args: pytest.fail("a symbol was looked up alone"))
    assert sf.word(word) == expected
    monkeypatch.undo()
    with pytest.raises(ValueError, match=r"^expected an input symbol of 2 bits in \{0, 1\}, got \(1, 2\)$"):
        sf.word(word[:3] + [[1, 2]] + word[3:])
