import json
import re

import numpy as np
import pytest

from tbtrellis import (
    Edge,
    Trellis,
    build_backward_error_trellis,
    build_tailbiting_code_trellis,
    build_tailbiting_error_trellis,
    count_paths,
    enc_state_space,
    enumerate_paths,
    error_anchor,
    format_bits,
    format_state,
    min_weight_path,
    poly_from_strings,
    sigma_fin,
    to_dot,
    to_json,
    xor_states,
)

from oracle import all_tailbiting, coeffs_from_strings, flat
from test_decoder_contract import CODES, K7_STRINGS


def test_number_of_subtrellises(G1):
    T = build_tailbiting_code_trellis(G1, 5)
    assert T.n_sections == 5
    assert T.anchors == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert len(T.states_per_cut) == 6
    assert all(len(s) == 4 for s in T.states_per_cut)


def test_subtrellis_contains_known_path(G1):
    # input word 0,1,1,1,0 runs through the subtrellis anchored at (1,0)
    T = build_tailbiting_code_trellis(G1, 5)
    labels = {p[0] for p in enumerate_paths(T, (1, 0))}
    want = ((0, 1, 1), (1, 1, 1), (1, 1, 0), (1, 0, 1), (0, 1, 0))
    assert want in labels


def test_single_section_zero_subtrellis(G1):
    T = build_tailbiting_code_trellis(G1, 1)
    labels = {p[0] for p in enumerate_paths(T, (0, 0))}
    assert ((0, 0, 0),) in labels


def test_rejects_nonpositive_section_count(G1):
    with pytest.raises(ValueError):
        build_tailbiting_code_trellis(G1, 0)


def test_paths_per_subtrellis(G1):
    T = build_tailbiting_code_trellis(G1, 5)
    for anchor in T.anchors:
        paths = enumerate_paths(T, anchor)
        assert len(paths) == 8
        assert count_paths(T, anchor) == 8
        assert paths == sorted(paths, key=lambda p: p[0])
        for labels, states in paths:
            assert len(labels) == 5 and len(states) == 6
            assert states[0] == states[-1] == anchor


def test_path_count_conservation(G1, G2):
    for G, N in ((G1, 5), (G2, 4)):
        T = build_tailbiting_code_trellis(G, N)
        assert sum(count_paths(T, a) for a in T.anchors) == 2 ** (N * G.rows)


def test_paths_equal_circular_convolution(G1, g1_coeffs, G2, g2_coeffs):
    """The tailbiting path family is exactly the circular encodings."""
    for G, coeffs, N in ((G1, g1_coeffs, 5), (G2, g2_coeffs, 4)):
        by_anchor, _ = all_tailbiting(coeffs, N, G.rows, G.deg)
        T = build_tailbiting_code_trellis(G, N)
        got = {(a, p[0]) for a in T.anchors for p in enumerate_paths(T, a)}
        want = {(a, tuple(y)) for a, ys in by_anchor.items() for y in ys}
        assert got == want


def test_error_subtrellis_cross_check(G1, g1_coeffs, H1, received):
    # labels of error subtrellis (0,0) are exactly z + (codewords anchored (0,0))
    by_anchor, _ = all_tailbiting(g1_coeffs, 5, 1, 2)
    T = build_tailbiting_error_trellis(H1, received)
    got = {flat(p[0]) for p in enumerate_paths(T, (0, 0))}
    zf = flat(received)
    want = {tuple((a + b) % 2 for a, b in zip(zf, flat(y))) for y in by_anchor[(0, 0)]}
    assert got == want


def test_enumerate_unknown_anchor(G1):
    T = build_tailbiting_code_trellis(G1, 2)
    with pytest.raises(ValueError):
        enumerate_paths(T, (0, 0, 0))


def test_enumeration_bound(G1):
    T = build_tailbiting_code_trellis(G1, 5)
    with pytest.raises(ValueError):
        enumerate_paths(T, (0, 0), max_paths=7)


def test_trivial_self_loop_trellis():
    T = Trellis(
        kind="code",
        n_sections=1,
        states_per_cut=(((0,),), ((0,),)),
        sections=((Edge(src=(0,), label=(1,), dst=(0,)),),),
    )
    assert enumerate_paths(T, (0,)) == [(((1,),), ((0,), (0,)))]


EDGE_RE = re.compile(r'^\t"\d+\|\([01,]*\)" -> "\d+\|\([01,]*\)" \[label="[01]*"( style=bold penwidth=2)?\];$')


def test_dot_output_is_well_formed(G1):
    T = build_tailbiting_code_trellis(G1, 3)
    dot = to_dot(T)
    lines = dot.splitlines()
    assert lines[0].startswith("digraph") and lines[-1] == "}"
    assert dot.count("{") == dot.count("}")
    edge_lines = [l for l in lines if "->" in l]
    assert len(edge_lines) == sum(len(s) for s in T.sections)
    for line in edge_lines:
        assert EDGE_RE.match(line), line
    assert "style=bold" not in dot


def test_dot_highlight_marks_subtrellis(H1, received):
    T = build_tailbiting_error_trellis(H1, received)
    dot = to_dot(T, highlight=(1, 0))
    bold = [l for l in dot.splitlines() if "style=bold" in l]
    assert bold, "highlighting produced no bold edges"
    # every edge on an enumerated path of the subtrellis is bold
    path_edges = set()
    for labels, states in enumerate_paths(T, (1, 0)):
        for t in range(len(labels)):
            path_edges.add((t, states[t], labels[t], states[t + 1]))
    assert len(bold) == len(path_edges)


def test_json_export_schema(G1):
    T = build_tailbiting_code_trellis(G1, 2)
    obj = json.loads(to_json(T))
    assert set(obj) == {"cuts", "sections"}
    assert len(obj["cuts"]) == 3 and len(obj["sections"]) == 2
    assert obj["cuts"][0] == ["(0,0)", "(0,1)", "(1,0)", "(1,1)"]
    for section in obj["sections"]:
        assert len(section) == 8
        for edge in section:
            assert set(edge) == {"from", "label", "to"}
            assert re.fullmatch(r"[01]{3}", edge["label"])


def test_dot_highlight_rejects_a_state_that_is_not_an_anchor(G1, H1):
    for T, state in (
        (build_tailbiting_code_trellis(G1, 2), (1, 1, 1)),
        (build_tailbiting_error_trellis(H1, [(1, 1, 1)]), (0, 1, 0)),
    ):
        with pytest.raises(ValueError, match=r"is not an anchor of this trellis"):
            to_dot(T, highlight=state)


# H_0 = 0: under each syndrome symbol only half of the states have edges
H0_ZERO_STRINGS = ([["11", "1"]], [["01", "011"]])


def _bold_edges(dot):
    return {line.split(" style=bold")[0] for line in dot.splitlines() if "style=bold" in line}


def _path_edges(paths):
    return {
        f'\t"{t}|{format_state(states[t])}" -> "{t + 1}|{format_state(states[t + 1])}"'
        f' [label="{format_bits(label)}"'
        for labels, states in paths
        for t, label in enumerate(labels)
    }


@pytest.mark.parametrize("N", [2, 3, 5])
def test_subtrellis_queries_agree_on_states_without_edges(N):
    g, h = H0_ZERO_STRINGS
    G, H = poly_from_strings(g), poly_from_strings(h)
    by_anchor, _ = all_tailbiting(coeffs_from_strings(g), N, G.rows, G.deg)
    rng = np.random.default_rng(N)
    for _ in range(4):
        z = [tuple(int(b) for b in rng.integers(0, 2, H.cols)) for _ in range(N)]
        T = build_tailbiting_error_trellis(H, z)
        fin = sigma_fin(H, z)
        total = 0
        for beta in enc_state_space(G):
            anchor = error_anchor(beta, fin, G, H)
            paths = enumerate_paths(T, anchor)
            assert count_paths(T, anchor) == len(paths)
            total += len(paths)
            shifted = {tuple(xor_states(zs, es) for zs, es in zip(z, labels)) for labels, _ in paths}
            assert shifted == set(by_anchor[beta])
            assert min_weight_path(T, anchor)[1] == min(sum(flat(labels)) for labels, _ in paths)
            assert _bold_edges(to_dot(T, highlight=anchor)) == _path_edges(paths)
        assert total == 2 ** (N * G.rows)


def _check_subtrellis(T, anchor, want):
    """Every subtrellis query at ``anchor`` against ``want``, its label sequences."""
    paths = enumerate_paths(T, anchor)
    assert [labels for labels, _ in paths] == sorted(want)
    assert count_paths(T, anchor) == len(paths)
    weight, labels = min((sum(flat(labels)), labels) for labels, _ in paths)
    assert min_weight_path(T, anchor) == (labels, weight)
    assert _bold_edges(to_dot(T, highlight=anchor)) == _path_edges(paths)
    return len(paths)


@pytest.mark.parametrize("name", sorted(CODES))
@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_code_subtrellis_queries_equal_the_circular_encodings(name, N):
    (g, _), _ = CODES[name]
    G = poly_from_strings(g)
    by_anchor, _ = all_tailbiting(coeffs_from_strings(g), N, G.rows, G.deg)
    T = build_tailbiting_code_trellis(G, N)
    total = 0
    for anchor in T.anchors:
        if anchor in by_anchor:
            total += _check_subtrellis(T, anchor, by_anchor[anchor])
        else:
            assert enumerate_paths(T, anchor) == [] and count_paths(T, anchor) == 0
    assert total == 2 ** (N * G.rows)


@pytest.mark.parametrize("name", sorted(CODES))
def test_error_subtrellis_queries_equal_the_shifted_codewords(name):
    (g, h), _ = CODES[name]
    G, H = poly_from_strings(g), poly_from_strings(h)
    rng = np.random.default_rng(17)
    for N in (H.deg, H.deg + 1):
        by_anchor, _ = all_tailbiting(coeffs_from_strings(g), N, G.rows, G.deg)
        z = [tuple(int(b) for b in rng.integers(0, 2, H.cols)) for _ in range(N)]
        T = build_tailbiting_error_trellis(H, z)
        fin = sigma_fin(H, z)
        anchors = {error_anchor(beta, fin, G, H): beta for beta in by_anchor}
        total = 0
        for anchor in T.anchors:
            if anchor in anchors:
                want = [tuple(xor_states(zs, ys) for zs, ys in zip(z, y)) for y in by_anchor[anchors[anchor]]]
                total += _check_subtrellis(T, anchor, want)
            else:
                assert count_paths(T, anchor) == 0
        assert total == 2 ** (N * G.rows)


@pytest.mark.parametrize("name", sorted(CODES))
def test_sections_hold_their_edges_in_src_label_dst_order(name):
    """A trellis keeps each section's edges as its builder hands them: the code trellis sorts its one section, and
    the error modules of both directions arrive in (src, label, dst) order, which every section must show."""
    (g, h), _ = CODES[name]
    G, H = poly_from_strings(g), poly_from_strings(h)
    for N in (max(H.deg, 1), H.deg + 2):
        z = np.random.default_rng(N).integers(0, 2, (N, H.cols))
        for T in (
            build_tailbiting_code_trellis(G, N),
            build_tailbiting_error_trellis(H, z),
            build_backward_error_trellis(H, z),
        ):
            for section in T.sections:
                keys = [(e.src, e.label, e.dst) for e in section]
                assert keys == sorted(set(keys)), T.kind


def test_path_counts_are_exact_past_int64():
    G = poly_from_strings(K7_STRINGS[0])
    T = build_tailbiting_code_trellis(G, 80)
    anchor = T.anchors[5]
    assert count_paths(T, anchor) == 2**74
    with pytest.raises(ValueError, match=rf"^subtrellis has {2**74} paths, exceeding the bound {2**20}$"):
        enumerate_paths(T, anchor)
