"""The public records keep what they had as frozen dataclasses: fields in order, keyword construction, repr text,
equality and hash over the fields, and read-only fields.  Each also takes ``_replace``."""

import numpy as np
import pytest

from tbtrellis import CodeSpec, Edge, ScalarParity, SyndromeSequence, Trellis, poly_from_strings

from conftest import G1_STRINGS, H1_STRINGS

EDGE = Edge(src=(0,), label=(1, 0), dst=(1,))
MATRIX = np.eye(2, 3, dtype=np.uint8)
MATRIX.flags.writeable = False

# per record: its fields in order, and one field with another value for it
RECORDS = [
    (CodeSpec, dict(n=3, k=1, G=poly_from_strings(G1_STRINGS), H=poly_from_strings(H1_STRINGS)), ("k", 2)),
    (Edge, dict(src=(0, 1), label=(1, 0, 1), dst=(1, 0)), ("dst", (1, 1))),
    (Trellis, dict(kind="code", n_sections=1, states_per_cut=(((0,), (1,)),) * 2, sections=((EDGE,),)), ("kind", "error")),
    (SyndromeSequence, dict(symbols=((0, 1), (1, 1)), kind="forward"), ("kind", "backward")),
    (ScalarParity, dict(matrix=MATRIX, kind="tailbiting", n_sections=1, block_dims=(2, 3)), ("n_sections", 2)),
]


def _hash(x):
    """hash(x), or the message of the TypeError when a field is unhashable (a ScalarParity's array)."""
    try:
        return hash(x)
    except TypeError as exc:
        return str(exc)


@pytest.mark.parametrize("cls, fields, change", RECORDS, ids=[cls.__name__ for cls, _, _ in RECORDS])
def test_a_record_keeps_its_fields_repr_equality_hash_and_immutability(cls, fields, change):
    a, b = cls(**fields), cls(*fields.values())
    assert cls._fields == tuple(fields) and all(getattr(a, k) is v for k, v in fields.items())
    assert repr(a) == f"{cls.__name__}(" + ", ".join(f"{k}={v!r}" for k, v in fields.items()) + ")"
    assert a == b and _hash(a) == _hash(b) == _hash(tuple(fields.values()))
    name, value = change
    other = cls(**{**fields, name: value})
    assert a != other and a._replace(**{name: value}) == other and a == cls(**fields)
    with pytest.raises(AttributeError):
        setattr(a, name, value)
    with pytest.raises(AttributeError):
        delattr(a, name)
    assert getattr(a, name) is fields[name]


def test_a_trellis_memo_stays_out_of_its_repr_and_equality_and_a_replaced_one_builds_its_own():
    T = Trellis(**RECORDS[2][1])
    rows = T._rows
    assert rows == [[[(1, 1, 0)], []]] and T._rows is rows
    assert T == Trellis(**RECORDS[2][1]) and repr(T) == repr(Trellis(**RECORDS[2][1]))
    U = T._replace(sections=((EDGE._replace(label=(1, 1)),),))
    assert U._rows == [[[(2, 1, 0)], []]]
