from dataclasses import fields

import numpy as np
import pytest

from extlab import gf2
from extlab.bits import BitString, blocks, slice_bits
from extlab.cbreak import (AdvGenParams, FlipFlopParams, adv_gen,
                           adv_gen_val, collision_bound, flip_flop,
                           plan_adv_gen, rs_masks)
from extlab.nipm import ParamError
from extlab.nmx import desk_params, micro_params
from extlab.pamp import _rand_bits
from extlab.sext import ext, lhl_bound, poly_scheme
from reference import concat, sample_positions


def test_plan_adv_gen_micro_shape():
    p = plan_adv_gen(16, 8, 0.1)
    assert p.rs_block == 4 and p.code_n == 4
    assert p.positions == 2 and p.a0p == 2
    assert p.advice_len == 2 + 2 * 4
    assert p.sampler == poly_scheme(16, 4, block=4) and p.a0 == 8
    # n and d are the only choices; the derived widths and shifts stay
    # out of ==, hash and repr
    q = AdvGenParams(16, 8)
    assert p == q and hash(p) == hash(q)
    assert [f.name for f in fields(AdvGenParams) if f.init] == ["n", "d"]
    assert [f.name for f in fields(AdvGenParams) if f.compare or f.repr] \
        == ["n", "d"]
    assert repr(p) == "AdvGenParams(n=16, d=8)"


@pytest.mark.parametrize("p", [micro_params().adv, plan_adv_gen(16, 8, 0.1),
                               desk_params().adv],
                         ids=["micro", "census", "desk"])
def test_rs_masks_reproduce_the_reed_solomon_symbols(p):
    # at every position, 0 included, the parities of y under the masks
    # are the bits of the Horner symbol, top bit first
    b, rng = p.rs_block, np.random.Generator(np.random.Philox(61))
    for y in (0, (1 << p.d) - 1, _rand_bits(rng, p.d), _rand_bits(rng, p.d)):
        msg = blocks(BitString(p.d, y), b)
        for i in range(p.code_n):
            want = gf2.poly_eval(msg, i, b)
            assert [(y & m).bit_count() & 1 for m in rs_masks(p.d, b, i)] \
                == [(want >> r) & 1 for r in range(b - 1, -1, -1)]


def test_plan_adv_gen_named_errors():
    # the 8-bit sampler seed would not fit in y, at construction
    for build in (lambda: plan_adv_gen(16, 4, 0.1),
                  lambda: AdvGenParams(16, 4)):
        with pytest.raises(ParamError) as e:
            build()
        assert e.value.name == "a0"
        assert str(e.value) == "a0: seed too short for the sampler (8 > 4)"


def test_advice_plans_meet_their_invariants():
    # what makes the checks AdvGenParams no longer runs hold on every
    # plan: the code fits its field, the sampler output is exactly the
    # positions' widths, the sampler seed and raw prefix fit in y, and
    # the advice is at least 10 bits
    refused = set()
    for d in range(8, 601):
        for eps in (0.1, 2 ** -20):
            try:
                p = plan_adv_gen(64, d, eps)
            except ParamError as e:
                assert e.name == "a0"
                refused.add(d)
                continue
            assert p.code_n <= 1 << p.rs_block
            w = (p.code_n - 1).bit_length()
            assert p.sampler.m_out == p.positions * w
            assert p.a0p <= p.a0 <= p.d
            assert p.advice_len >= 10
    # 9 to 11 bits of y take a 12-bit sampler seed
    assert refused == {9, 10, 11}


def test_advice_is_prefix_plus_sampled_symbols():
    p = plan_adv_gen(16, 8, 0.1)
    x = BitString(16, 0x9D3A)
    y = BitString(8, 0xC5)
    a = slice_bits(y, p.a0)
    r = ext(p.sampler, x, a)
    pos = sample_positions(r, p.positions, p.code_n)
    # Reed-Solomon codeword: the message polynomial at 0..code_n-1
    cw = [gf2.poly_eval(blocks(y, p.rs_block), i, p.rs_block)
          for i in range(p.code_n)]
    want = concat(slice_bits(y, p.a0p),
                  *[BitString(p.rs_block, cw[i]) for i in pos])
    assert adv_gen(x, y, p) == want


def _adv_gen_ref(x, y, p):
    """adv_gen step by step on BitStrings: the sampler seed sliced from y,
    positions from its output, the raw prefix and the sampled symbols
    concatenated."""
    a = slice_bits(y, p.a0)
    r = ext(p.sampler, x, a)
    pos = sample_positions(r, p.positions, p.code_n)
    msg = blocks(y, p.rs_block)
    parts = [slice_bits(y, p.a0p)]
    parts += [BitString(p.rs_block, gf2.poly_eval(msg, i, p.rs_block))
              for i in pos]
    return concat(*parts)


@pytest.mark.parametrize("p, draws", [
    (micro_params().adv, 500), (plan_adv_gen(16, 8, 0.1), 500),
    (desk_params().adv, 40), (plan_adv_gen(4096, 2048, 0.1), 40),
    (plan_adv_gen(64, 4096, 0.1), 40)],
    ids=["micro", "census", "desk", "sampler18", "sampler20"])
def test_adv_gen_int_body_matches_bitstring_reference(p, draws):
    rng = np.random.Generator(np.random.Philox(44))
    for _ in range(draws):
        x = BitString(p.n, _rand_bits(rng, p.n))
        y = BitString(p.d, _rand_bits(rng, p.d))
        want = _adv_gen_ref(x, y, p)
        assert adv_gen_val(x.val, y.val, p) == want.val
        assert adv_gen(x, y, p) == want


def test_distinct_seeds_rarely_share_advice():
    p = plan_adv_gen(16, 8, 0.1)
    rng = np.random.Generator(np.random.Philox(41))
    coll = pairs = 0
    for _ in range(5):
        x = BitString(16, int(rng.integers(1 << 16)))
        advs = [adv_gen(x, BitString(8, y), p) for y in range(256)]
        for i in range(256):
            for j in range(i + 1, 256):
                pairs += 1
                coll += advs[i] == advs[j]
    assert coll / pairs <= collision_bound(p) + 0.05


def test_collision_bound_formula():
    p = plan_adv_gen(16, 8, 0.1)
    deg = -(-8 // 4) - 1
    assert collision_bound(p) == (deg / 4) ** 2 + float(
        lhl_bound(p.sampler, 16))


def test_flip_flop_params_validated():
    FlipFlopParams(n=16, d_y=16, w=8, m_out=8)
    with pytest.raises(ParamError):
        FlipFlopParams(n=16, d_y=4, w=8, m_out=4)  # token wider than y
    with pytest.raises(ParamError):
        FlipFlopParams(n=16, d_y=16, w=8, m_out=9)


def _two_phase_recipe(x, y, bit, p):
    e_x, e_y, e_tok, e_out = (p.scheme_x(), p.scheme_y(),
                              p.scheme_tok(), p.scheme_out())
    s1 = slice_bits(y, p.w)
    r1 = ext(e_x, x, s1)
    s2 = ext(e_y, y, r1)
    ytil = s2 if bit else s1
    s1p = ytil
    r1p = ext(e_x, x, s1p)
    s2p = ext(e_tok, ytil, r1p)
    key = s1p if bit else s2p
    return ext(e_out, x, slice_bits(key, p.m_out))


def test_flip_flop_matches_pinned_recipe():
    p = FlipFlopParams(n=16, d_y=16, w=8, m_out=8)
    rng = np.random.Generator(np.random.Philox(42))
    for _ in range(100):
        x = BitString(16, int(rng.integers(1 << 16)))
        y = BitString(16, int(rng.integers(1 << 16)))
        for bit in (0, 1):
            assert flip_flop(x, y, bit, p) == _two_phase_recipe(x, y, bit, p)
    p = desk_params().ff
    for _ in range(20):
        x = BitString(p.n, _rand_bits(rng, p.n))
        y = BitString(p.d_y, _rand_bits(rng, p.d_y))
        for bit in (0, 1):
            assert flip_flop(x, y, bit, p) == _two_phase_recipe(x, y, bit, p)


def test_flip_flop_advice_bits_usually_disagree():
    # the whole point: opposite advice bits give unrelated outputs
    p = FlipFlopParams(n=16, d_y=16, w=8, m_out=8)
    rng = np.random.Generator(np.random.Philox(43))
    same = 0
    trials = 2000
    for _ in range(trials):
        x = BitString(16, int(rng.integers(1 << 16)))
        y = BitString(16, int(rng.integers(1 << 16)))
        same += flip_flop(x, y, 0, p) == flip_flop(x, y, 1, p)
    assert same / trials < 0.05


def test_flip_flop_rejects_bad_advice():
    p = FlipFlopParams(n=16, d_y=16, w=8, m_out=8)
    with pytest.raises(ValueError):
        flip_flop(BitString(16, 0), BitString(16, 0), 2, p)


@pytest.mark.parametrize("call, exc, message", [
    (lambda: adv_gen(BitString(15, 0), BitString(16, 0), micro_params().adv),
     ValueError, "input width mismatch"),
    (lambda: flip_flop(BitString(16, 0), BitString(15, 0), 0,
                       micro_params().ff),
     ValueError, "input width mismatch"),
], ids=["adv_gen_width", "flip_flop_width"])
def test_bad_inputs_raise_named_errors(call, exc, message):
    with pytest.raises(exc) as e:
        call()
    assert str(e.value) == message
