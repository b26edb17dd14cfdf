from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extlab.prob import (flat, from_counts, sample_flat_source,
                         stat_distance_maps, uniform)
from extlab.sext import poly_scheme
from extlab.verify import (MergerInstance, TamperFn,
                           adversarial_xor_instance, build_instance, count_table,
                           distance_of_counts, enumerate_tampers, ext_fn_of,
                           flip_low_bit_tamper, merger_distance,
                           nm_distance, rot, sample_tamper,
                           strong_distance, strong_distance_poly_fast,
                           xor_strawman)


def test_tamper_fn_rejects_fixed_points():
    with pytest.raises(ValueError):
        TamperFn(2, (0, 1, 2, 3))
    t = flip_low_bit_tamper(3)
    assert all(t(v) == v ^ 1 for v in range(8))


def test_enumerate_tampers_d2_count():
    ts = list(enumerate_tampers(2))
    assert len(ts) == 81  # 3^4: each point maps to one of 3 other points
    assert len({tuple(t.table) for t in ts}) == 81
    for t in ts:
        assert all(t(v) != v for v in range(4))


def test_sample_tamper_is_fixed_point_free():
    rng = np.random.Generator(np.random.Philox(2))
    for _ in range(20):
        t = sample_tamper(rng, 3)
        assert all(t(v) != v for v in range(8))


def test_strong_distance_of_constant_function_is_half():
    # f ignoring everything at m_out=1 sits at distance 1/2 from uniform
    d = strong_distance(lambda x, s: 0, uniform(4), 2, 1)
    assert d == Fraction(1, 2)


def test_strong_distance_of_identity_seed_is_zero():
    # f(x, s) = low bit of s is uniform and independent of the seed value
    # only when keyed by a fresh part; copying the seed is detected
    d = strong_distance(lambda x, s: s & 1, uniform(4), 2, 1)
    assert d == Fraction(1, 2)  # output is determined by the seed


def test_strong_distance_of_xor_extractor():
    # f(x, s) = <x, s> over GF(2) on a uniform 4-bit source: one biased
    # seed (s = 0), so average distance is 1/2 * 2^-d * sum = 1/2^d * 1/2
    def ip(x, s):
        return bin(x & s).count("1") & 1
    d = strong_distance(ip, uniform(4), 4, 1)
    assert d == Fraction(1, 2, ) * Fraction(1, 16)


def test_nm_distance_detects_copying():
    # an "extractor" that returns the seed's low bit: tampering the seed
    # fully determines both outputs -> large nm distance
    t = flip_low_bit_tamper(2)
    d = nm_distance(lambda x, s: s & 1, uniform(4), 2, 1, t)
    assert d == Fraction(1, 2)


def test_nm_distance_small_for_real_extractor():
    s = poly_scheme(10, 1, block=5)
    src = flat(10, range(32))  # k = 5
    t = flip_low_bit_tamper(10)
    d = nm_distance(ext_fn_of(s), src, 10, 1, t)
    assert d < Fraction(1, 4)


def test_nm_distance_evaluates_each_point_once():
    # one f call per (x, seed): 2^d * |support|, not twice that
    calls = []

    def f(x, s):
        calls.append((x, s))
        return (x ^ s) & 1

    src = flat(4, [1, 4, 6, 9, 13])
    d = nm_distance(f, src, 3, 1, flip_low_bit_tamper(3))
    assert len(calls) == (1 << 3) * 5
    assert sorted(calls) == sorted((x, s) for x in src.points
                                   for s in range(8))
    assert d == _dense_oracle(lambda x, y: (f(x, y), (f(x, y ^ 1), y)),
                              [int(x in src.points) for x in range(16)],
                              3, 1)


def test_rot():
    assert rot(0b0011, 4, 1) == 0b0110
    assert rot(0b1001, 4, 1) == 0b0011
    assert rot(0b1001, 4, 0) == 0b1001


def test_build_instance_shapes():
    rng = np.random.Generator(np.random.Philox(3))
    inst = build_instance(rng, L=2, m=6, d=4, t=2, witness=1)
    assert inst.L == 2 and inst.m == 6 and inst.d == 4 and inst.t == 2
    lat = 0x2B
    rows = inst.rows_of(lat)
    assert len(rows) == 2 and all(0 <= r < 64 for r in rows)
    for copy in range(2):
        trs = inst.tamper_rows[copy](rows)
        # witness row is pinned to the same constant for every latent
        other = inst.tamper_rows[copy](inst.rows_of(0))
        assert trs[inst.witness] == other[inst.witness]
        assert inst.tamper_y[copy](3) != 3


def test_merger_distance_flags_bad_and_passes_good():
    rng = np.random.Generator(np.random.Philox(4))
    inst = build_instance(rng, L=2, m=8, d=6, t=1, witness=1)
    # copying a latent-determined bit is maximally detectable
    assert merger_distance(lambda rows, y: rows[0] & 1, inst, 1) == \
        Fraction(1, 2)
    assert merger_distance(lambda rows, y: 0, inst, 1) == Fraction(1, 2)


def test_xor_strawman_fails_on_rotation_adversary():
    rng = np.random.Generator(np.random.Philox(5))
    inst = adversarial_xor_instance(rng, L=2, m=4, d=4)
    d = merger_distance(xor_strawman, inst, 4)
    assert d >= Fraction(2, 5)


def _dense_distance(counts: dict, m_out: int, total: int) -> Fraction:
    return _dense_joint_distance(
        {key: Fraction(c, total) for key, c in counts.items()}, m_out)


def _dense_joint_distance(p: dict, m_out: int) -> Fraction:
    """Reference: the sparse joint p of (z, r), as Fractions, against the
    dense map q(z, r) = 2^-m_out * Pr[r], by stat_distance_maps."""
    marg: dict = {}
    for (_, side), pr in p.items():
        marg[side] = marg.get(side, 0) + pr
    u = Fraction(1, 1 << m_out)
    q = {(z, side): u * pr
         for side, pr in marg.items() for z in range(1 << m_out)}
    return stat_distance_maps(p, q)


def _kernel_distance(counts: dict, m_out: int, total: int) -> Fraction:
    """The distance of z given the rest, the side information, for the
    dict counts {(z, side): weight}, each side a tuple of fields,
    through count_table and distance_of_counts."""
    z, sides = zip(*counts)
    C = count_table(z, zip(*sides), list(counts.values()), m_out, total)
    return distance_of_counts(C, m_out, total)


@pytest.mark.parametrize("m_out", [1, 2, 3])
@pytest.mark.parametrize("flat_weights", [True, False])
def test_distance_given_rest_matches_dense_formula(m_out, flat_weights):
    rng = np.random.Generator(np.random.Philox(60 + m_out))
    size = 1 << m_out
    for _ in range(40):
        counts = {}
        for side in range(int(rng.integers(1, 6))):
            # side 0 always misses all but one z; the others miss a
            # random number of them.  Side fields are wide, negative
            # and unsorted.
            seen = 1 if side == 0 else int(rng.integers(1, size + 1))
            fields = ((5 - side) << 60, -side, 7)
            for z in rng.choice(size, size=seen, replace=False):
                counts[(int(z), fields)] = (
                    1 if flat_weights else int(rng.integers(1, 9)))
        total = sum(counts.values())
        assert _kernel_distance(counts, m_out, total) == \
            _dense_distance(counts, m_out, total)


def test_distance_given_rest_known_values():
    cases = [({(z, (0,)): 1 for z in range(4)}, 2, 4, 0),
             ({(0, (0,)): 3}, 1, 3, Fraction(1, 2)),
             ({(0, (0,)): 1, (0, (1,)): 1}, 2, 2, Fraction(3, 4))]
    for counts, m_out, total, want in cases:
        assert _kernel_distance(counts, m_out, total) == want == \
            _dense_distance(counts, m_out, total)
    # the kernel alone, on an array with an empty column
    C = np.array([[3, 0, 1], [0, 0, 1]])
    assert distance_of_counts(C, 1, 5) == Fraction(3, 10) == \
        _dense_distance({(0, 0): 3, (0, 2): 1, (1, 2): 1}, 1, 5)
    for z in (2, -1, 1 << 64):
        with pytest.raises(ValueError):
            count_table([z], [[0]], [1], 1, 1)


# ------------------------------ oracles against dense Fraction weights

def _dense_oracle(key_of, counts, d_seed: int, m_out: int) -> Fraction:
    """Reference for the source oracles: the joint law of (z, r) built
    from the dense Fraction weights Pr[x] = counts[x] / sum(counts) and a
    uniform d_seed-bit seed; key_of(x, y) gives (z, r)."""
    total = sum(counts)
    joint: dict = {}
    for y in range(1 << d_seed):
        for x, c in enumerate(counts):
            if c:
                key = key_of(x, y)
                joint[key] = (joint.get(key, 0)
                              + Fraction(c, total) / (1 << d_seed))
    return _dense_joint_distance(joint, m_out)


def _weights(n: int, hi: int):
    return st.lists(st.integers(0, hi), min_size=1 << n,
                    max_size=1 << n).filter(any)


@settings(max_examples=60, deadline=None)
@given(_weights(4, 5), st.integers(1, 2), st.integers(0, 2 ** 32))
def test_strong_and_nm_distance_match_dense(counts, m_out, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    table = rng.integers(1 << m_out, size=(16, 8)).tolist()
    src = from_counts(4, counts)
    for f, d in ((lambda x, s: table[x][s], 3),
                 (ext_fn_of(poly_scheme(4, m_out, block=2)), 4)):
        assert strong_distance(f, src, d, m_out) == _dense_oracle(
            lambda x, y: (f(x, y), y), counts, d, m_out)
        t = sample_tamper(rng, d)
        assert nm_distance(f, src, d, m_out, t) == _dense_oracle(
            lambda x, y: (f(x, y), (f(x, t(y)), y)), counts, d, m_out)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 3).flatmap(lambda hi: _weights(6, hi)),
       st.booleans())
def test_strong_distance_poly_fast_matches_dense(counts, flatten):
    # flatten=True takes the numpy path (equal weights), else the scalar
    # fallback whenever two weights differ
    if flatten:
        counts = [3 if c else 0 for c in counts]
    scheme = poly_scheme(6, 2, block=3)
    f = ext_fn_of(scheme)
    want = _dense_oracle(lambda x, y: (f(x, y), y), counts, 6, 2)
    assert strong_distance_poly_fast(scheme, from_counts(6, counts)) == want


@st.composite
def _poly_flat_case(draw):
    """A poly scheme of block b <= 6 and a flat (n_in, k) source.  n_in
    runs from b to 12, so the last Horner block is often padded.  The
    scalar oracle makes 2^(2b + k) ext calls; k takes every value that
    keeps them at 2^15 or fewer (all of 0..n_in for b = 1)."""
    b = draw(st.integers(1, 6))
    m = draw(st.integers(1, b))
    n = draw(st.integers(b, 12))
    k = draw(st.integers(0, min(n, 15 - 2 * b)))
    rng = np.random.Generator(np.random.Philox(draw(st.integers(0, 2**32))))
    return poly_scheme(n, m, block=b), sample_flat_source(rng, n, k)


@settings(max_examples=60, deadline=None)
@given(_poly_flat_case())
def test_strong_distance_poly_fast_matches_scalar(case):
    scheme, src = case
    assert strong_distance_poly_fast(scheme, src) == strong_distance(
        ext_fn_of(scheme), src, scheme.d_seed, scheme.m_out)


def test_strong_distance_poly_fast_matches_scalar_at_block_8():
    # the scheme of `verify suite --module sext`: two blocks of 8, the
    # second padded by 4 bits, over all 2^16 seeds
    scheme = poly_scheme(12, 2)
    src = flat(12, [0x001, 0x0FF, 0x7A5])
    assert strong_distance_poly_fast(scheme, src) == strong_distance(
        ext_fn_of(scheme), src, scheme.d_seed, scheme.m_out)


def test_strong_distance_refuses_a_source_wider_than_the_scheme():
    # a 12-bit source on a 10-bit scheme: its largest point, 4073, does
    # not fit, so both paths refuse it rather than drop its high bits
    scheme = poly_scheme(10, 2, block=5)
    src = sample_flat_source(np.random.Generator(np.random.Philox(5)), 12, 6)
    assert src.points[-1] == 4073
    for path in (strong_distance_poly_fast, lambda s, x: strong_distance(
            ext_fn_of(s), x, s.d_seed, s.m_out)):
        with pytest.raises(ValueError) as e:
            path(scheme, src)
        assert str(e.value) == "value does not fit in 10 bits"
    # a narrower source stays legal
    narrow = flat(8, [0x01, 0x7F, 0xA5])
    assert strong_distance_poly_fast(scheme, narrow) == strong_distance(
        ext_fn_of(scheme), narrow, scheme.d_seed, scheme.m_out)


@pytest.mark.parametrize("big", [1 << 63, 1 << 70])
def test_strong_and_nm_distance_with_weights_past_int64(big):
    # weights near 2^63 or 2^70 put total 2^(m+1) past 2^63, so the
    # counts are Python ints; both oracles still match the dense Fractions
    rng = np.random.Generator(np.random.Philox(71))
    counts = [big + int(c) for c in rng.integers(0, 1 << 20, size=16)]
    counts[3], counts[5] = 0, 3
    src = from_counts(4, counts)
    assert src.den > 1 << 63
    for f, d, m_out in ((ext_fn_of(poly_scheme(4, 2, block=2)), 4, 2),
                        (lambda x, s: (x * 7 + s) % 3, 3, 2)):
        assert strong_distance(f, src, d, m_out) == _dense_oracle(
            lambda x, y: (f(x, y), y), counts, d, m_out)
        t = sample_tamper(rng, d)
        assert nm_distance(f, src, d, m_out, t) == _dense_oracle(
            lambda x, y: (f(x, y), (f(x, t(y)), y)), counts, d, m_out)


def _dense_merger(merge, inst, m_out: int) -> Fraction:
    """Reference for merger_distance: the joint law of (M, (Y, M^g, Y^g
    for each g)) as Fractions."""
    total = 1 << (inst.lat_x_bits + inst.d)
    joint: dict = {}
    for lat in range(1 << inst.lat_x_bits):
        rows = inst.rows_of(lat)
        for y in range(1 << inst.d):
            side = [y]
            for tf, ty in zip(inst.tamper_rows, inst.tamper_y):
                side += (merge(tf(rows), ty(y)), ty(y))
            key = (merge(rows, y), tuple(side))
            joint[key] = joint.get(key, 0) + Fraction(1, total)
    return _dense_joint_distance(joint, m_out)


@pytest.mark.parametrize("t", [5, 6])
def test_merger_distance_with_many_tampered_copies(t):
    # m_out = 8, d = 4: the side information (Y, M^g, Y^g for t copies)
    # holds 4 + 12 t bits, 64 at t = 5 and 76 at t = 6.  Only the last
    # copy's output varies with the latent, by at most 4 bits, so side
    # values that differ in those bits alone must stay apart.
    rng = np.random.Generator(np.random.Philox(73))
    inst = build_instance(rng, L=2, m=4, d=4, t=t, witness=1)
    pin = inst.tamper_rows[-1](inst.rows_of(0))[1]

    def merge(rows, y):
        return rows[0] if rows[1] == pin else rows[1] * (2 * y + 1) & 0xFF

    want = _dense_merger(merge, inst, 8)
    assert 0 < want < 1
    assert merger_distance(merge, inst, 8) == want
    # a tampered output wider than m_out bits is side information like
    # any other; only the merged output itself must fit
    honest = {inst.rows_of(lat) for lat in range(1 << inst.lat_x_bits)}

    def wide(rows, y):
        return merge(rows, y) | (rows not in honest) << 40

    assert merger_distance(wide, inst, 8) == _dense_merger(wide, inst, 8)


def test_merger_distance_calls_merge_once_per_needed_cell():
    # two latents share each row tuple, copy 1 swaps the two original
    # matrices, and copy 2 builds two new ones that are read only at the
    # image {0, 1, 2} of its seed table: 2 x 4 + 2 x 3 = 14 needed cells
    inst = MergerInstance(
        L=2, m=2, d=2, t=2, witness=1, lat_x_bits=3,
        rows_of=lambda lat: (lat & 1, 0),
        tamper_rows=(lambda rows: (rows[0] ^ 1, 0),
                     lambda rows: (rows[0], 1)),
        tamper_y=(TamperFn(2, (1, 0, 3, 2)), TamperFn(2, (1, 2, 1, 0))))
    need = {(inst.rows_of(lat), y) for lat in range(8) for y in range(4)}
    need |= {(tf(inst.rows_of(lat)), ty(y)) for lat in range(8)
             for y in range(4)
             for tf, ty in zip(inst.tamper_rows, inst.tamper_y)}
    assert len(need) == 14
    calls = Counter()

    def merge(rows, y):
        calls[rows, y] += 1
        return (3 * rows[0] + rows[1] + y * y) & 3

    got = merger_distance(merge, inst, 2)
    assert calls == Counter(dict.fromkeys(need, 1))
    assert isinstance(got, Fraction) and 0 < got < 1
    assert got == _dense_merger(merge, inst, 2)


@pytest.mark.parametrize("call, exc, message", [
    (lambda: TamperFn(2, (1, 0, 3)), ValueError, "table size mismatch"),
    (lambda: TamperFn(1, (2, 0)), ValueError, "table value out of range"),
    (lambda: next(iter(enumerate_tampers(4))), ValueError,
     "full enumeration limited to d <= 3; sample instead"),
    (lambda: nm_distance(lambda x, s: 0, uniform(2), 2, 1,
                         flip_low_bit_tamper(3)), ValueError,
     "tamper arity mismatch"),
    (lambda: MergerInstance(L=2, m=20, d=5, t=0, witness=0, lat_x_bits=20,
                            rows_of=None, tamper_rows=(), tamper_y=()),
     ValueError, "latent space too large to enumerate"),
    (lambda: MergerInstance(L=2, m=2, d=2, t=1, witness=0, lat_x_bits=2,
                            rows_of=None, tamper_rows=(), tamper_y=()),
     ValueError, "need one tamper pair per copy"),
    (lambda: build_instance(np.random.Generator(np.random.Philox(1)), 2, 2,
                            2, 1, 2), ValueError, "witness out of range"),
    (lambda: adversarial_xor_instance(np.random.Generator(
        np.random.Philox(1)), 1, 2, 2), ValueError, "need at least two rows"),
], ids=["tamper_size", "tamper_value", "enumerate_d_4", "nm_arity",
        "latent_space", "unpaired_tampers", "witness", "xor_one_row"])
def test_bad_inputs_raise_named_errors(call, exc, message):
    with pytest.raises(exc) as e:
        call()
    assert str(e.value) == message
