"""The subtrellis correspondence against its tuple-level definition.

Code subtrellis beta matches the error subtrellis anchored at
sigma_fin + dual(beta), and the backward error trellis follows the same
rule for the reciprocal pair at the backward state of beta.  The
reference below computes dual(beta) as the definition reads: run the
encoder from the zero state over M ``fill`` symbols and then beta's
register contents, oldest first, and take the syndrome-former state of
the last M outputs.  Its sums read beta before sigma, so a call given
two malformed states names beta.

Every pair is checked on every encoder state and every syndrome-former
state of H and of its reciprocal, values and error texts alike; the
seeded random pairs are mostly not dual, and some have a reciprocal of
another memory than their own, so both anchor functions also meet
states of the wrong width.
"""

import numpy as np
import pytest
from test_decoder_contract import CODES

from tbtrellis import (
    backward_error_anchor,
    backward_state,
    dual_state,
    dual_state_of,
    enc_state_space,
    encoder_run,
    error_anchor,
    poly_from_strings,
    sf_run,
    sf_state_space,
)

from conftest import G1_STRINGS, G2_STRINGS, H1_STRINGS, H2_STRINGS


def reference_dual_state(G, H, beta, fill=0):
    M, L = H.deg, G.deg
    regs, _ = encoder_run(G, beta, [])
    inputs = [(fill,) * G.rows] * M + [regs[t::L] for t in range(L)]
    _, outputs = encoder_run(G, (0,) * (G.rows * L), inputs)
    return dual_state(H, outputs[-M:] if M else [])


def reference_anchor(beta, sigma, G, H):
    dual = reference_dual_state(G, H, beta)
    sigma, _ = sf_run(H, sigma, [])
    return tuple((a + b) % 2 for a, b in zip(sigma, dual))


def reference_backward_anchor(beta, sigma, G, H):
    return reference_anchor(backward_state(G, beta), sigma, G.reciprocal(), H.reciprocal())


def outcome(f, *args):
    """f(*args), or the type and text of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as exc:
        return ValueError, str(exc)


def random_pairs(count, seed):
    """Seeded G/H pairs with k in {1, 2} and entries of degree below 3, dual or not."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(count):
        k = int(rng.integers(1, 3))
        n, r = k + int(rng.integers(1, 3)), int(rng.integers(1, 3))

        def matrix(rows):
            return poly_from_strings([["".join(map(str, rng.integers(0, 2, 3))) for _ in range(n)] for _ in range(rows)])

        pairs.append((matrix(k), matrix(r)))
    return pairs


DUAL = [(G1_STRINGS, H1_STRINGS), (G2_STRINGS, H2_STRINGS)] + [pair for pair, _ in CODES.values()]
PAIRS = [(poly_from_strings(g), poly_from_strings(h)) for g, h in DUAL]
PAIRS += [(G.reciprocal(), H.reciprocal()) for G, H in PAIRS]
RANDOM = random_pairs(60, seed=19)


def rows(G, H):
    """Every (beta, sigma): the encoder states of G by the syndrome-former states of H and of its reciprocal."""
    sigmas = dict.fromkeys(sf_state_space(H) + sf_state_space(H.reciprocal()))
    return [(beta, sigma) for beta in enc_state_space(G) for sigma in sigmas]


@pytest.mark.parametrize("G, H", PAIRS + RANDOM)
def test_dual_state_of_is_the_dual_of_the_reconstructed_outputs(G, H):
    for beta in enc_state_space(G):
        for fill in (0, 1):
            assert dual_state_of(G, H, beta, fill) == reference_dual_state(G, H, beta, fill)


@pytest.mark.parametrize("G, H", PAIRS + RANDOM)
def test_both_anchors_are_sigma_plus_the_dual_state(G, H):
    Gt, Ht = G.reciprocal(), H.reciprocal()
    for beta, sigma in rows(G, H):
        assert outcome(error_anchor, beta, sigma, G, H) == outcome(reference_anchor, beta, sigma, G, H)
        backward = outcome(backward_error_anchor, beta, sigma, G, H)
        assert backward == outcome(reference_backward_anchor, beta, sigma, G, H)
        assert backward == outcome(error_anchor, backward_state(G, beta), sigma, Gt, Ht)


def test_the_random_pairs_reach_both_outcomes():
    """Some random rows fail on a state of the wrong width, so the error texts above are pinned too."""
    got = [outcome(reference_backward_anchor, b, s, G, H) for G, H in RANDOM for b, s in rows(G, H)]
    assert any(x[:1] == (ValueError,) for x in got)
    assert sum(x[:1] != (ValueError,) for x in got) > len(got) // 2


@pytest.mark.parametrize("anchor", [error_anchor, backward_error_anchor])
def test_an_anchor_names_beta_when_both_states_are_malformed(G1, H1, anchor):
    with pytest.raises(ValueError, match=r"^expected a state of 2 bits in \{0, 1\}, got \(1, 2\)$"):
        anchor((1, 2), (3, 0), G1, H1)


def test_a_pair_of_different_widths_raises(G1, H1, G2, H2):
    """The syndrome former reads the encoder's outputs as a word, so they are never taken as integers of another width."""
    for G, H in ((G1, H2), (G2, H1)):
        with pytest.raises(ValueError, match="^expected an input symbol of"):
            dual_state_of(G, H, enc_state_space(G)[1])
