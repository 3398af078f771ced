import json

import pytest

from tbtrellis import CodeSpecError, load_codespec, parse_codespec

from conftest import G1_STRINGS, H1_STRINGS, RANK_DEFICIENT


def _write(tmp_path, obj):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(obj))
    return str(path)


def test_load_full_spec(code_file):
    spec = load_codespec(code_file)
    assert (spec.n, spec.k, spec.r) == (3, 1, 2)
    assert spec.G.deg == 2 and spec.H.deg == 1
    assert spec.require_G() is spec.G
    assert spec.require_H() is spec.H


def test_parse_generator_only():
    spec = parse_codespec({"n": 3, "k": 1, "G": G1_STRINGS})
    assert spec.H is None
    with pytest.raises(CodeSpecError):
        spec.require_H()


def test_parse_parity_only():
    spec = parse_codespec({"n": 3, "k": 1, "H": H1_STRINGS})
    assert spec.G is None
    with pytest.raises(CodeSpecError):
        spec.require_G()


def test_rejects_missing_fields():
    with pytest.raises(CodeSpecError):
        parse_codespec({"k": 1, "G": G1_STRINGS})
    with pytest.raises(CodeSpecError):
        parse_codespec({"n": 3, "k": 1})
    with pytest.raises(CodeSpecError):
        parse_codespec([1, 2, 3])


@pytest.mark.parametrize("text", ["1e400", "2.5", "true", '"3"'])
def test_rejects_n_and_k_that_are_not_json_integers(text):
    value = json.loads(text)
    for fields in ({"n": value, "k": 1}, {"n": 3, "k": value}):
        with pytest.raises(CodeSpecError, match="^code spec needs integer fields 'n' and 'k'$"):
            parse_codespec({**fields, "H": H1_STRINGS})


def test_rejects_bad_rates():
    with pytest.raises(CodeSpecError):
        parse_codespec({"n": 3, "k": 3, "G": G1_STRINGS})
    with pytest.raises(CodeSpecError):
        parse_codespec({"n": 3, "k": 0, "G": G1_STRINGS})


def test_rejects_wrong_dimensions():
    with pytest.raises(CodeSpecError):
        parse_codespec({"n": 4, "k": 1, "G": G1_STRINGS})
    with pytest.raises(CodeSpecError):
        parse_codespec({"n": 3, "k": 1, "H": [H1_STRINGS[0]]})


def test_rejects_malformed_entries():
    with pytest.raises(CodeSpecError):
        parse_codespec({"n": 3, "k": 1, "G": [["1", "1x1", "111"]]})
    with pytest.raises(CodeSpecError):
        parse_codespec({"n": 3, "k": 1, "G": [["1", "101"]]})


def test_rejects_entries_that_are_not_strings():
    """A JSON number or list as an entry is a bad coefficient string, not a TypeError."""
    for entry in (101, ["1", "0", "1"], None):
        with pytest.raises(CodeSpecError, match="bad coefficient string"):
            parse_codespec({"n": 3, "k": 1, "G": [["1", entry, "111"]]})


def test_rejects_zero_parity_row():
    H = [["11", "01", "11"], ["0", "0", "0"]]
    with pytest.raises(CodeSpecError, match="zero"):
        parse_codespec({"n": 3, "k": 1, "H": H})


@pytest.mark.parametrize("spec", RANK_DEFICIENT)
def test_rejects_a_rank_deficient_parity_check_matrix(spec):
    with pytest.raises(CodeSpecError, match=r"matrix H has rank 1 over GF\(2\)\(D\), need 2"):
        parse_codespec(spec)


def test_rejects_a_rank_deficient_generator():
    G = [["1", "1", "0"], ["01", "01", "0"]]
    with pytest.raises(CodeSpecError, match=r"matrix G has rank 1 over GF\(2\)\(D\), need 2"):
        parse_codespec({"n": 3, "k": 2, "G": G, "H": [["1", "1", "0"]]})
    with pytest.raises(CodeSpecError, match="matrix G has rank 1"):
        parse_codespec({"n": 3, "k": 2, "G": G})


def test_rejects_non_dual_pair():
    H_bad = [["11", "01", "11"], ["01", "1", "0"]]
    with pytest.raises(CodeSpecError, match="dual"):
        parse_codespec({"n": 3, "k": 1, "G": G1_STRINGS, "H": H_bad})


def test_load_errors(tmp_path):
    with pytest.raises(CodeSpecError):
        load_codespec(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(CodeSpecError):
        load_codespec(str(bad))


def test_load_rejects_zero_row_file(tmp_path):
    path = _write(tmp_path, {"n": 3, "k": 1, "H": [["11", "01", "11"], ["0", "0", "0"]]})
    with pytest.raises(CodeSpecError):
        load_codespec(path)
