import random
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extlab import gf2
from extlab.bits import BitString, blocks, int_blocks
from extlab.nmx import fold16
from extlab.prob import sample_flat_source
from extlab.sext import (ExtScheme, affine_int, affine_scheme,
                         avg_case_bound, ext, ext_all_seeds_poly, ext_val,
                         fold, lhl_bound, poly_scheme)
from extlab.verify import strong_distance, strong_distance_poly_fast, \
    ext_fn_of
from reference import sample_positions


def test_poly_scheme_shape():
    s = poly_scheme(12, 2)
    assert s.block == 8 and s.d_seed == 16 and s.family == "poly"
    with pytest.raises(ValueError):
        poly_scheme(12, 9, block=8)  # m_out > block
    # the derived seed width and Horner constants stay out of ==, hash, repr
    assert poly_scheme(16, 4, block=4) == ExtScheme(16, 4, "poly", 4)
    assert hash(poly_scheme(16, 4, block=4)) == hash(
        ExtScheme(16, 4, "poly", 4))
    assert [f.name for f in fields(ExtScheme) if f.compare or f.repr] == [
        "n_in", "m_out", "family", "block"]
    assert "_horner" not in repr(s) and "d_seed" not in repr(s)


def test_affine_scheme_shape():
    s = affine_scheme(64, 24)
    assert s.block == 8 and s.d_seed == 24
    assert affine_scheme(64, 32).block == 16
    assert affine_scheme(64, 3).block == 1
    with pytest.raises(ValueError):
        ExtScheme(16, 8, "affine", 4)  # block 4 is not m_out's


def test_poly_ext_is_blockwise_polynomial():
    s = poly_scheme(12, 2)
    x = BitString(12, 0xABC)
    seed = BitString(16, (0x2A << 8) | 0x3C)
    acc = gf2.poly_eval(blocks(x, 8), 0x2A, 8)
    want = gf2.mul(acc, 0x3C, 8) >> 6
    assert ext(s, x, seed).val == want


@pytest.mark.parametrize("b", [*range(1, 17), 18, 20, 32])
def test_poly_ext_val_matches_its_block_list_reference(b):
    # up to 16 bits ext_val runs Horner off x's padded int; the reference
    # splits x into blocks, then evaluates with gf2.poly_eval and gf2.mul.
    # Widths that are not a multiple of b use the padding, and the seed
    # halves run through 0 and all ones
    rng, full = random.Random(b), (1 << b) - 1
    for n in sorted({1, b, 2 * b - 1, 3 * b + 1}):
        for m in sorted({1, max(b // 2, 1), b}):
            scheme = poly_scheme(n, m, block=b)
            for x in (0, (1 << n) - 1, rng.getrandbits(n), rng.getrandbits(n)):
                for s1 in (0, full, rng.getrandbits(b)):
                    for s2 in (0, full, rng.getrandbits(b)):
                        want = gf2.mul(gf2.poly_eval(int_blocks(x, n, b), s1,
                                                     b), s2, b) >> (b - m)
                        assert ext_val(scheme, x, (s1 << b) | s2) == want


def test_poly_ext_zero_source_is_zero():
    s = poly_scheme(16, 4, block=8)
    for sv in (0, 1, 0xFFFF, 0x1234):
        assert ext(s, BitString(16, 0), BitString(16, sv)).val == 0


def test_fold_xors_segments():
    x = BitString(12, 0b101101001110)
    assert fold(x.val, x.n, 4) == 0b1011 ^ 0b0100 ^ 0b1110
    # non-dividing width: last segment padded right
    assert fold(0b10110, 5, 3) == 0b101 ^ 0b100


@given(st.integers(0, 40).flatmap(lambda w: st.tuples(
    st.just(w), st.integers(0, w).flatmap(
        lambda n: st.builds(BitString, st.just(n),
                            st.integers(0, (1 << n) - 1))))))
def test_short_fold_is_right_padding(wx):
    w, x = wx
    assert fold(x.val, x.n, w) == x.val << (w - x.n)


def _to_symbols(x, n):
    return np.frombuffer(x.to_bytes(n // 8, "big"), ">u2").astype(np.uint16)


@pytest.mark.parametrize("shape", ["below", "equal", "above"])
@given(k=st.integers(2, 24), extra=st.integers(1, 60), data=st.data())
@settings(max_examples=40, deadline=None)
def test_fold16_matches_fold(shape, k, extra, data):
    # n and width in whole symbols: width = 16k, n below, equal to or
    # above it (dividing or not); a row of three sources folds row-wise
    n = 16 * {"below": 1 + extra % (k - 1), "equal": k,
              "above": k + extra}[shape]
    xs = [data.draw(st.integers(0, (1 << n) - 1)) for _ in range(3)]
    got = fold16(np.stack([_to_symbols(x, n) for x in xs]), 16 * k)
    assert got.shape == (3, k) and got.dtype == np.uint16
    assert [int.from_bytes(row.astype(">u2").tobytes(), "big")
            for row in got] == [fold(x, n, 16 * k) for x in xs]


def _affine_ref(m, z, s):
    """The affine law by shift-and-add products, block by block."""
    b = m & -m if m & 15 else 16
    mask, u, out = (1 << b) - 1, z >> m, 0
    for sh in range(m - b, -1, -b):
        out = (out << b) | gf2.mul_slow((u >> sh) & mask, (s >> sh) & mask, b)
    return out ^ (z & ((1 << m) - 1))


@pytest.mark.parametrize("m", range(1, 9))
def test_affine_int_table_matches_reference_exhaustively(m):
    # every (u, s) pair of the product table, v drawn at random
    rng = random.Random(m)
    for u in range(1 << m):
        for s in range(1 << m):
            z = (u << m) | rng.getrandbits(m)
            assert affine_int(m, z, s) == _affine_ref(m, z, s), (u, s)


@pytest.mark.parametrize("m", [9, 10, 12, 14, 24, 40, 64, 128, 256, 512])
def test_affine_int_wide_matches_reference(m):
    # above 8 bits every block (1, 2, 4, 8 and 16 here) multiplies through
    # its zero-sentinel log/exp tables in one loop
    rng = random.Random(m)
    for _ in range(500):
        z, s = rng.getrandbits(2 * m), rng.getrandbits(m)
        assert affine_int(m, z, s) == _affine_ref(m, z, s)


def _symbols(n):
    """n 16-bit symbols as one int, each zero about half the time."""
    sym = st.one_of(st.just(0), st.integers(0, 0xFFFF))
    return st.lists(sym, min_size=n, max_size=n).map(
        lambda xs: int.from_bytes(b"".join(x.to_bytes(2, "big")
                                           for x in xs), "big"))


@pytest.mark.parametrize("m", [256, 512])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_wide_affine_int_matches_the_log_exp_loop(m, data):
    # the law is blockwise, so the whole width and its 128-bit pieces
    # through the log/exp loop must agree.  Zero symbols in u and s meet
    # the tables' sentinel.
    u, v, s = (data.draw(_symbols(m // 16)) for _ in range(3))
    mask = (1 << 128) - 1
    want = 0
    for sh in range(m - 128, -1, -128):
        piece = affine_int(128, (((u >> sh) & mask) << 128)
                           | ((v >> sh) & mask), (s >> sh) & mask)
        want = (want << 128) | piece
    assert affine_int(m, (u << m) | v, s) == want


def test_narrow_affine_int_does_not_call_mul(monkeypatch):
    # up to 8 bits the law is one product-table lookup, above that one
    # log/exp lookup per block, at block 1, 2, 4 and 8 too
    def no_mul(*args):
        raise AssertionError("per-block gf2.mul call")

    monkeypatch.setattr(gf2, "mul", no_mul)
    rng = random.Random(3)
    for m in [*range(1, 9), 9, 10, 12, 14, 24, 40]:
        z, s = rng.getrandbits(2 * m), rng.getrandbits(m)
        assert affine_int(m, z, s) == _affine_ref(m, z, s)


def _ext_ref(scheme, x, seed):
    """ext on BitStrings, the scalar way: poly is Horner over blocks(x, b)
    times the seed's second element; affine XORs blocks(x, 2m) into z and
    applies affine_int's law."""
    if scheme.family == "poly":
        b = scheme.block
        acc = gf2.poly_eval(blocks(x, b), seed.val >> b, b)
        return gf2.mul(acc, seed.val & ((1 << b) - 1), b) >> (b - scheme.m_out)
    m, z = scheme.m_out, 0
    for part in blocks(x, 2 * m):
        z ^= part
    return affine_int(m, z, seed.val)


@st.composite
def _ext_cases(draw):
    if draw(st.booleans()):
        b = draw(st.sampled_from([*range(1, 9), 14, 32]))
        scheme = poly_scheme(draw(st.integers(1, 96)),
                             draw(st.integers(1, b)), block=b)
    else:
        m = draw(st.sampled_from([*range(1, 9), 12, 64, 128, 512]))
        scheme = affine_scheme(draw(st.integers(1, 3 * m + 8)), m)
    x = draw(st.integers(0, (1 << scheme.n_in) - 1))
    s = draw(st.integers(0, (1 << scheme.d_seed) - 1))
    return scheme, BitString(scheme.n_in, x), BitString(scheme.d_seed, s)


@given(_ext_cases())
@settings(max_examples=400, deadline=None)
def test_ext_val_matches_the_bitstring_body(case):
    scheme, x, seed = case
    want = _ext_ref(scheme, x, seed)
    assert ext_val(scheme, x.val, seed.val) == want
    assert ext(scheme, x, seed) == BitString(scheme.m_out, want)


def test_affine_ext_blockwise_law():
    # m_out = 12 derives block 4: three blocks of u*s + v over GF(2^4)
    s = affine_scheme(24, 12)
    assert s.block == 4
    x = BitString(24, 0xBEEF42)
    seed = BitString(12, 0x5A3)
    z = fold(x.val, x.n, 24)
    u, v = z >> 12, z & 0xFFF
    want = 0
    for i in (2, 1, 0):
        ub, vb, sb = (u >> 4 * i) & 0xF, (v >> 4 * i) & 0xF, \
            (0x5A3 >> 4 * i) & 0xF
        want |= (gf2.mul(ub, sb, 4) ^ vb) << (4 * i)
    assert ext(s, x, seed).val == want


def test_affine_wide_path_matches_blockwise():
    # a wide block-16 extraction must agree with gf2.mul block by block
    s = affine_scheme(512, 256)
    assert s.block == 16
    rng = np.random.Generator(np.random.Philox(9))
    for _ in range(10):
        x = BitString(512, int.from_bytes(rng.bytes(64), "big"))
        seed = BitString(256, int.from_bytes(rng.bytes(32), "big"))
        got = ext(s, x, seed).val
        z = fold(x.val, x.n, 512)
        u, v = z >> 256, z & ((1 << 256) - 1)
        want = 0
        for i in range(16):
            sh = (15 - i) * 16
            want = (want << 16) | (
                gf2.mul((u >> sh) & 0xFFFF, (seed.val >> sh) & 0xFFFF, 16)
                ^ ((v >> sh) & 0xFFFF))
        assert got == want


@given(st.integers(0, (1 << 12) - 1), st.integers(0, (1 << 12) - 1),
       st.integers(0, (1 << 16) - 1))
@settings(max_examples=100)
def test_poly_ext_linear_in_source(x1, x2, sv):
    s = poly_scheme(12, 2)
    seed = BitString(16, sv)
    a = ext(s, BitString(12, x1), seed)
    b = ext(s, BitString(12, x2), seed)
    c = ext(s, BitString(12, x1 ^ x2), seed)
    assert (a ^ b) == c


def test_lhl_bound_values():
    # single-block scheme is exactly universal: bound = sqrt(2^(m-k))/2
    s = poly_scheme(12, 2, block=12)
    assert abs(float(lhl_bound(s, 6)) - 0.5 * 2 ** -2) < 1e-10
    # two-block b=8 scheme pays the almost-universality excess
    s8 = poly_scheme(12, 2)
    assert float(lhl_bound(s8, 6)) > float(lhl_bound(s, 6))
    assert lhl_bound(s8, 0) == 1  # capped


def test_avg_case_bound_dominates_worst_case():
    s = poly_scheme(12, 2, block=12)
    assert avg_case_bound(s, 6) >= lhl_bound(s, 6)
    assert avg_case_bound(s, 6) <= lhl_bound(s, 4) + Fraction(1, 4)


def test_measured_distance_within_lhl_bound():
    rng = np.random.Generator(np.random.Philox(5))
    s = poly_scheme(10, 2, block=5)
    bound = lhl_bound(s, 5)
    for _ in range(10):
        src = sample_flat_source(rng, 10, 5)
        d = strong_distance(ext_fn_of(s), src, s.d_seed, s.m_out)
        assert d <= bound


def test_fast_strong_distance_matches_exact():
    rng = np.random.Generator(np.random.Philox(6))
    s = poly_scheme(10, 2, block=5)
    for _ in range(3):
        src = sample_flat_source(rng, 10, 5)
        assert strong_distance_poly_fast(s, src) == \
            strong_distance(ext_fn_of(s), src, s.d_seed, s.m_out)


def test_ext_all_seeds_poly_matches_scalar():
    # the count table tallies scalar ext over all 1,024 seeds, output
    # major, in column (s2 << 5) | s1 for the seed (s1 << 5) | s2
    s = poly_scheme(10, 2, block=5)
    xs = [0, 1, 0x155, 0x3FF]
    want = np.zeros((1 << 2, 1 << 10), dtype=np.int64)
    for x in xs:
        for seed in range(1 << 10):
            z = ext(s, BitString(10, x), BitString(10, seed)).val
            want[z, (seed & 31) << 5 | seed >> 5] += 1
    table = ext_all_seeds_poly(s, xs)
    assert table.shape == want.shape and table.dtype == np.int64
    assert (table == want).all()


def test_sample_positions_deterministic_and_in_range():
    r = BitString(6, 0b101110)
    pos = sample_positions(r, 2, 8)
    assert pos == [0b101, 0b110]
    assert sample_positions(r, 2, 5) == [0b101 % 5, 0b110 % 5]
    with pytest.raises(ValueError):
        sample_positions(r, 3, 8)  # needs 9 bits


def test_width_mismatch_raises():
    s = poly_scheme(12, 2)
    with pytest.raises(ValueError):
        ext(s, BitString(11, 0), BitString(16, 0))
    with pytest.raises(ValueError):
        ext(s, BitString(12, 0), BitString(15, 0))


@pytest.mark.parametrize("call, exc, message", [
    (lambda: ExtScheme(8, 4, "cubic", 8), ValueError,
     "unknown family 'cubic'"),
    (lambda: ExtScheme(8, 4, "poly", 0), ValueError,
     "block size out of range"),
    (lambda: ExtScheme(8, 4, "poly", gf2.MAX_DEGREE + 1), ValueError,
     "block size out of range"),
    (lambda: ExtScheme(8, 0, "poly", 8), ValueError, "empty output"),
    (lambda: sample_positions(BitString(8, 1), 1, 0), ValueError,
     "empty universe"),
    (lambda: ext_all_seeds_poly(poly_scheme(8, 4, block=9), [1]),
     ValueError, "seed space too large to enumerate"),
], ids=["family", "block_0", "block_over_max", "empty_output",
        "empty_universe", "block_9_seeds"])
def test_bad_inputs_raise_named_errors(call, exc, message):
    with pytest.raises(exc) as e:
        call()
    assert str(e.value) == message
