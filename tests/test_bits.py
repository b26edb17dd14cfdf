import copy
import pickle
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extlab.bits import (MAX_LEN, BitString, blocks, int_blocks, matrix,
                         slice_bits)
from reference import concat


def test_bit_indexing_is_left_to_right():
    x = BitString(4, 0b1011)
    assert x.n == 4 and x.val == 0b1011
    assert [x.bit(i) for i in range(4)] == [1, 0, 1, 1]


def test_str_roundtrip():
    assert str(BitString(12, 0b100110001111)) == "100110001111"


def test_xor_requires_equal_widths():
    assert BitString(4, 0b1100) ^ BitString(4, 0b1010) == BitString(4, 0b110)
    with pytest.raises(ValueError):
        BitString(2, 0b11) ^ BitString(3, 0b111)


def test_value_must_fit():
    with pytest.raises(ValueError):
        BitString(3, 8)
    with pytest.raises(ValueError):
        BitString(-1, 0)


def test_slice_and_concat():
    x = BitString(8, 0b10110100)
    assert slice_bits(x, 3) == BitString(3, 0b101)
    assert concat(slice_bits(x, 3), BitString(5, 0b10100)) == x


def test_blocks_pad_last_on_the_right():
    x = BitString(5, 0b10110)
    # blocks of 2: 10 | 11 | 0_ -> last padded right
    assert blocks(x, 2) == [0b10, 0b11, 0b00]
    assert blocks(x, 5) == [x.val]


def test_matrix_uniform_width():
    # the checked rows come back as a tuple, from a list or a tuple
    rows = [BitString(3, 0b101), BitString(3, 0b010)]
    assert matrix(rows) == tuple(rows) and type(matrix(rows)) is tuple
    assert matrix(tuple(rows)) == tuple(rows)
    with pytest.raises(ValueError):
        matrix([BitString(3, 0b101), BitString(2, 0b01)])


@given(st.integers(0, 1100).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, (1 << n) - 1))),
    st.integers(1, 64))
@settings(max_examples=300, deadline=None)
def test_blocks_match_a_reference_split(source, b):
    # split the 0/1 string itself, so the reference shares no shifts
    n, val = source
    x = BitString(n, val)
    padded = str(x) + "0" * (-n % b)
    assert blocks(x, b) == [int(padded[i:i + b], 2)
                            for i in range(0, len(padded), b)]


def _peel(val, n, b):
    # the generic split: blocks peeled off the low end of the padded int
    k = -(-n // b)
    v, out = val << (k * b - n), []
    for _ in range(k):
        out.append(v & ((1 << b) - 1))
        v >>= b
    return out[::-1]


@pytest.mark.parametrize("b", [8, 16, 32, 64])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_byte_aligned_blocks_match_the_peel(b, data):
    # the struct split of byte-aligned blocks, on whole blocks and on a
    # ragged last block padded right
    n = data.draw(st.one_of(st.sampled_from([0, b, 32 * b, 32 * b + 5]),
                            st.integers(0, 40 * b)), label="n")
    val = data.draw(st.integers(0, (1 << n) - 1), label="val")
    assert int_blocks(val, n, b) == _peel(val, n, b)


def test_bitstring_keeps_frozen_record_semantics():
    # slots and a hand-written __init__ keep the frozen dataclass behaviour
    x = BitString(4, 11)
    assert x == BitString(4, 11) and x != BitString(4, 10)
    assert x != (4, 11)  # another class is unequal
    assert hash(x) == hash((4, 11))
    assert repr(x) == "BitString(n=4, val=11)"
    for field in ("n", "val"):
        with pytest.raises(FrozenInstanceError):
            setattr(x, field, 1)
        with pytest.raises(FrozenInstanceError):
            delattr(x, field)
    with pytest.raises(FrozenInstanceError):
        x.extra = 1
    for obj in (x, BitString(0, 0)):
        for twin in (copy.copy(obj), copy.deepcopy(obj),
                     pickle.loads(pickle.dumps(obj))):
            assert twin == obj and type(twin) is type(obj)
            assert repr(twin) == repr(obj)


@pytest.mark.parametrize("n, val, msg", [
    (-1, 0, "bad width -1"), (MAX_LEN + 1, 0, f"bad width {MAX_LEN + 1}"),
    (3, 8, "value does not fit in 3 bits"),
    (3, -1, "value does not fit in 3 bits"),
    (0, 1, "value does not fit in 0 bits")])
def test_bitstring_checks_width_and_value(n, val, msg):
    with pytest.raises(ValueError, match=f"^{msg}$"):
        BitString(n, val)


@pytest.mark.parametrize("call, exc, message", [
    (lambda: BitString(4, 3).bit(4), IndexError, "4"),
    (lambda: BitString(4, 3).bit(-5), IndexError, "-5"),
    (lambda: int_blocks(5, 4, 0), ValueError, "block size must be positive"),
    (lambda: matrix([]), ValueError, "empty matrix"),
    (lambda: matrix([BitString(3, 0b101), BitString(2, 0b01)]), ValueError,
     "row width mismatch"),
], ids=["bit_past_end", "bit_before_start", "block_0", "empty_matrix",
        "matrix_row_width"])
def test_bad_inputs_raise_named_errors(call, exc, message):
    with pytest.raises(exc) as e:
        call()
    assert str(e.value) == message
