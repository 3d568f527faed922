"""The report writers against their per-value oracles in conftest.

serialize.iter_dumps writes JSON in pieces and dumps joins them; a list of
floats or of [float, float] pairs and a float array are formatted in one pass,
and the CLI formats one CSV row at a time.  All must give exactly the text of
the recursive, one-float-at-a-time oracles, on every float (signed zero,
subnormals, the largest doubles, NaN and infinities) and every other payload
type, also when the lists reach the writer as iterators.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from covchan import cli
from covchan import serialize as ser

from conftest import csv_lines_by_entry, dumps_by_recursion

WRITER_PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=300)

EDGE_FLOATS = [0.0, -0.0, 5e-324, -2.5e-320, 2.2250738585072009e-308, 1e308, -1e308,
               1.7976931348623157e308, float("nan"), float("inf"), float("-inf"), 0.1,
               1.0 / 3.0, 1e16, 123456789012345680.0]

floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
float_pairs = st.lists(floats, min_size=2, max_size=2)
matrices = hnp.arrays(np.complex128, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0,
                                                      max_side=4),
                      elements=st.complex_numbers(allow_subnormal=True))

leaves = st.one_of(
    floats,
    floats.map(np.float64),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),  # not serializable: both writers raise TypeError
    st.booleans(),
    st.integers(),
    st.none(),
    st.text(max_size=4),
    st.complex_numbers(allow_subnormal=True),
    float_pairs,
    matrices.map(ser.matrix_to_json),
    matrices.map(ser._matrix_object),  # "data" as the (rows * cols, 2) float view
    hnp.arrays(np.float64, st.tuples(st.integers(0, 6), st.just(2)), elements=floats),
)

payloads = st.recursive(leaves, lambda kids: st.one_of(
    st.lists(kids, max_size=5),
    st.lists(floats, max_size=6),
    st.lists(float_pairs, max_size=6),
    st.lists(kids, min_size=2, max_size=2),  # length 2, mostly not a float pair
    st.tuples(kids, kids),
    st.dictionaries(st.one_of(st.text(max_size=4), st.integers()), kids, max_size=4),
    hnp.arrays(np.float64, hnp.array_shapes(max_dims=2, max_side=3), elements=floats),
), max_leaves=24)


def text_or_error(fn, value):
    try:
        return fn(value)
    except TypeError:
        return TypeError


def pieces_joined(value):
    return "".join(ser.iter_dumps(value))


def as_iterators(value):
    """value with every list and tuple, at any depth, replaced by an iterator."""
    if isinstance(value, (list, tuple)):
        return iter([as_iterators(item) for item in value])
    if isinstance(value, dict):
        return {key: as_iterators(item) for key, item in value.items()}
    return value


@WRITER_PROPERTY
@given(payloads)
def test_dumps_equals_recursive_oracle(payload):
    want = text_or_error(dumps_by_recursion, payload)
    assert text_or_error(pieces_joined, payload) == text_or_error(ser.dumps, payload) == want
    assert text_or_error(ser.dumps, as_iterators(payload)) == want


def test_an_iterator_is_written_one_piece_per_item():
    mats = [np.full((2, 2), a + 0.5j) for a in range(3)]
    pieces = list(ser.iter_dumps({"masks": (ser._matrix_object(m) for m in mats), "n": 2}))
    items = [ser.dumps(ser.matrix_to_json(m)) for m in mats]
    assert pieces == ['{"masks": ', "[" + items[0], ", " + items[1], ", " + items[2], "]",
                      ', "n": ', "2", "}"]
    assert list(ser.iter_dumps(iter([]))) == ["[]"] and list(ser.iter_dumps({})) == ["{}"]


@WRITER_PROPERTY
@given(mat=matrices, transpose=st.booleans(), real=st.booleans())
def test_csv_lines_equal_per_entry_oracle(mat, transpose, real):
    if transpose:  # a non-contiguous view
        mat = mat.T
    if real:
        mat = mat.real
    assert cli._matrix_csv_lines("m", mat) == csv_lines_by_entry("m", mat)
