"""Tailbiting convolutional codes: trellises, syndrome formers, decoding.

The package builds code-trellises and (forward and backward) tailbiting
error-trellises for binary convolutional codes given their polynomial
generator/parity-check matrices, derives the scalar parity-check matrix
of the induced block code, and decodes received words by minimum-weight
error-path search.  Everything is exact GF(2) arithmetic and is sized
for desk-scale codes where exhaustive verification is feasible.
"""

from .codespec import CodeSpec, CodeSpecError, load_codespec, parse_codespec
from .decoder import (
    AnchorCollisionError,
    DecodeResult,
    decode_tailbiting,
    decode_tailbiting_batch,
    format_result,
    min_weight_path,
)
from .error_trellis import (
    SyndromeSequence,
    backward_error_anchor,
    backward_sigma_fin,
    backward_syndromes,
    backward_syndromes_batch,
    build_backward_error_trellis,
    build_tailbiting_error_trellis,
    error_anchor,
    error_trellis_module,
    eta_from_zeta,
    sigma_fin,
    sigma_fin_batch,
    tailbiting_syndromes,
    tailbiting_syndromes_batch,
)
from .gf2 import (
    PolyMatrix,
    as_bits,
    coefficient_expansion,
    format_bits,
    format_state,
    mat_mul,
    nullspace,
    parse_bits,
    parse_state,
    poly_from_strings,
    rank,
    reciprocal,
    split_symbols,
)
from .scalar_parity import (
    ScalarParity,
    annotate_blocks,
    format_matrix,
    hscalar_tailbiting,
    hscalar_terminated,
    is_tailbiting_codeword,
    is_tailbiting_codeword_batch,
)
from .state_machines import (
    ExtendedState,
    backward_state,
    constraint_length,
    dual_state,
    dual_state_of,
    enc_state_space,
    encoder_run,
    encoder_step,
    extended_state,
    poly_is_dual_pair,
    sf_run,
    sf_state_space,
    sf_step,
    sf_step_batch,
    sf_zero_state,
    tailbiting_anchor,
    tailbiting_encode,
    xor_states,
)
from .trellis import (
    Edge,
    Trellis,
    build_tailbiting_code_trellis,
    count_paths,
    enumerate_paths,
    to_dot,
    to_json,
)

__version__ = "0.1.0"
