import json

import numpy as np
import pytest

from tbtrellis import parse_bits, poly_from_strings, split_symbols

# rate-1/3 code with memory-1 parity check: the worked reference example
G1_STRINGS = [["1", "101", "111"]]
H1_STRINGS = [["11", "01", "11"], ["01", "1", "1"]]
# rate-1/2 code with memory-2 parity check, to exercise multi-block states
G2_STRINGS = [["101", "111"]]
H2_STRINGS = [["111", "101"]]

RECEIVED = "111 110 110 111 000"

# specs whose H is dual to G but of rank 1 over GF(2)(D): two equal rows, and rows h and D*h
RANK_DEFICIENT = [
    {"n": 3, "k": 1, "G": [["1", "1", "0"]], "H": [["1", "1", "0"], ["1", "1", "0"]]},
    {"n": 3, "k": 1, "G": G1_STRINGS, "H": [["11", "01", "11"], ["011", "001", "011"]]},
]


@pytest.fixture(scope="session")
def G1():
    return poly_from_strings(G1_STRINGS)


@pytest.fixture(scope="session")
def H1():
    return poly_from_strings(H1_STRINGS)


@pytest.fixture(scope="session")
def G2():
    return poly_from_strings(G2_STRINGS)


@pytest.fixture(scope="session")
def H2():
    return poly_from_strings(H2_STRINGS)


@pytest.fixture
def received():
    return split_symbols(parse_bits(RECEIVED), 3)


@pytest.fixture(scope="session")
def g1_coeffs():
    # coefficient matrices for the independent oracle, spelled out by hand
    return [np.array(m, dtype=np.uint8) for m in ([[1, 1, 1]], [[0, 0, 1]], [[0, 1, 1]])]


@pytest.fixture(scope="session")
def g2_coeffs():
    return [np.array(m, dtype=np.uint8) for m in ([[1, 1]], [[0, 1]], [[1, 1]])]


@pytest.fixture
def code_file(tmp_path):
    path = tmp_path / "code.json"
    path.write_text(json.dumps({"n": 3, "k": 1, "G": G1_STRINGS, "H": H1_STRINGS}))
    return str(path)
