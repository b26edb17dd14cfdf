import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extlab import gf2, pamp
from extlab.bits import BitString, concat, slice_bits
from extlab.nmx import desk_params, nm_ext
from extlab.pamp import (Adversary, flip_round1, flip_round2,
                         hoeffding_ci, mac_tag, make_params, passive,
                         random_adversary, replace_round1, run_protocol,
                         security_experiment, table_adversary,
                         _flat_secret, _rand_bits)
from extlab.sext import ext

DESK = make_params(desk_params())


@pytest.mark.parametrize("bitgen", [np.random.PCG64, np.random.Philox])
def test_rand_bits_keeps_the_integers_stream(bitgen):
    # the formula _rand_bits replaced: one rng.integers word per 64 bits,
    # joined high word first; the generators must end in the same state
    def by_integers(rng, n):
        words = (n + 63) // 64
        v = 0
        for w in rng.integers(0, 1 << 64, size=words, dtype="uint64"):
            v = (v << 64) | int(w)
        return v >> (words * 64 - n)

    old, new = np.random.Generator(bitgen(9)), np.random.Generator(bitgen(9))
    for n in (1, 63, 64, 65, 512, 768):
        assert _rand_bits(new, n) == by_integers(old, n), n
        assert new.integers(1 << 20) == old.integers(1 << 20)
    assert str(new.bit_generator.state) == str(old.bit_generator.state)


def test_make_params_shape():
    p = DESK
    assert p.mac_bits == 16 and p.msg_symbols == 4
    assert p.w_len == 64 and p.final.d_seed == 64
    assert p.key_len == 32
    assert p.forgery_budget() == 4 / (1 << 16)


def test_mac_is_polynomial_in_the_key():
    s = 8
    key = BitString(16, (0x3C << 8) | 0x5A)  # a = 0x3C, b = 0x5A
    msg = BitString(16, 0xBEEF)
    tag = mac_tag(key, msg, s)
    want = 0x5A
    want ^= gf2.mul(0xBE, 0x3C, 8)
    want ^= gf2.mul(0xEF, gf2.mul(0x3C, 0x3C, 8), 8)
    assert tag.val == want
    with pytest.raises(ValueError):
        mac_tag(BitString(15, 0), msg, s)


@given(st.integers(1, 64).flatmap(lambda s: st.tuples(
    st.just(s), st.integers(0, (1 << 2 * s) - 1),
    st.lists(st.integers(0, (1 << s) - 1), max_size=8))))
@settings(max_examples=200, deadline=None)
def test_mac_tag_matches_its_power_sum(case):
    # b + sum m_i a^(i+1) term by term over mul_slow, the scalar reference
    s, key, syms = case
    a, want = key >> s, key & ((1 << s) - 1)
    apow = a
    for m in syms:
        want ^= gf2.mul_slow(m, apow, s)
        apow = gf2.mul_slow(apow, a, s)
    msg = concat(*(BitString(s, m) for m in syms))
    assert mac_tag(BitString(2 * s, key), msg, s).val == want


def test_mac_forgery_needs_a_root():
    # flipping one message symbol changes the tag unless a is a root of
    # the difference polynomial; count the exceptional keys exactly
    s = 4
    msg = BitString(8, 0x2B)
    delta = 0x10  # flips one symbol
    bad = 0
    for a in range(16):
        key = BitString(8, a << 4)
        if mac_tag(key, msg, s) == mac_tag(key, BitString(8, 0x2B ^ delta), s):
            bad += 1
    # difference polynomial has degree <= 2 -> at most 2 roots
    assert bad <= 2


def test_rand_bits_width():
    rng = np.random.Generator(np.random.Philox(71))
    for n in (1, 63, 64, 65, 512):
        v = _rand_bits(rng, n)
        assert 0 <= v < (1 << n)


def test_flat_secret_entropy_layout():
    rng = np.random.Generator(np.random.Philox(72))
    x = _flat_secret(rng, 64, 16)
    assert x.n == 64
    assert x.val & ((1 << 48) - 1) == 0  # suffix pinned


def test_passive_protocol_always_agrees():
    rng = np.random.Generator(np.random.Philox(73))
    for _ in range(20):
        x = _flat_secret(rng, DESK.nmx.n, 768)
        res = run_protocol(x, rng, DESK, passive())
        assert res.accepted and res.keys_agree
        assert not res.tampered and not res.attack_success


def test_round2_flip_is_caught_by_the_mac():
    rng = np.random.Generator(np.random.Philox(74))
    caught = 0
    for _ in range(50):
        x = _flat_secret(rng, DESK.nmx.n, 768)
        res = run_protocol(x, rng, DESK, flip_round2())
        assert res.tampered
        caught += not res.accepted
    assert caught == 50  # forgery odds are 2^-14-ish


def test_round1_flip_rarely_succeeds():
    rng = np.random.Generator(np.random.Philox(75))
    succ = 0
    for _ in range(50):
        x = _flat_secret(rng, DESK.nmx.n, 768)
        succ += run_protocol(x, rng, DESK, flip_round1()).attack_success
    assert succ <= 2


def test_table_and_random_adversaries_run():
    rng = np.random.Generator(np.random.Philox(76))
    x = _flat_secret(rng, DESK.nmx.n, 768)
    for adv in (table_adversary("tbl", [0b101], [3, 1]),
                random_adversary(rng),
                replace_round1(rng, DESK.nmx.d)):
        res = run_protocol(x, rng, DESK, adv)
        assert res.tampered


def test_table_adversary_rejects_a_mask_wider_than_its_field():
    # a 600-bit Y mask does not fit the 512-bit seed: it raises rather
    # than lose its top bits; in-range masks XOR on unchanged
    d, w_len, s = DESK.nmx.d, DESK.w_len, DESK.mac_bits
    y, w, t = BitString(d, 5), BitString(w_len, 6), BitString(s, 7)
    wide = table_adversary("wide", [1 << 599], [0, 0])
    with pytest.raises(ValueError, match=f"does not fit in {d} bits"):
        wide.round1(y)
    for r2_masks in ([1 << w_len, 0], [0, 1 << s]):
        with pytest.raises(ValueError, match="does not fit"):
            table_adversary("wide", [0], r2_masks).round2(y, w, t)
    top = table_adversary("top", [1 << (d - 1)], [1 << (w_len - 1), 1])
    assert top.round1(y).val == 5 | 1 << (d - 1)
    assert top.round2(y, w, t) == (BitString(w_len, 6 | 1 << (w_len - 1)),
                                   BitString(s, 6))


def test_security_experiment_report():
    rng = np.random.Generator(np.random.Philox(77))
    rep = security_experiment(rng, DESK, passive(), trials=30,
                              distinguisher_budget=0.01)
    assert rep.trials == 30 and rep.successes == 0
    assert rep.honest_failures == 0
    assert rep.budget == pytest.approx(DESK.forgery_budget() + 0.01)
    assert "ok" in rep.line()
    assert hoeffding_ci(30) > hoeffding_ci(3000)


def test_adversary_masks_reach_the_top_bits():
    # masks span the whole seed Y and message W, not only the low 62 bits
    rng = np.random.Generator(np.random.Philox(78))
    d, w_len = DESK.nmx.d, DESK.w_len
    y0, w0 = BitString(d, 0), BitString(w_len, 0)
    t0 = BitString(DESK.mac_bits, 0)
    adv = random_adversary(rng)
    top_y = top_w = top_fresh = 0
    for _ in range(64):
        ymask = adv.round1(y0).val
        wmask = adv.round2(y0, w0, t0)[0].val
        assert ymask and wmask
        top_y += ymask >> (d - 1)
        top_w += wmask >> (w_len - 1)
        top_fresh += replace_round1(rng, d).round1(y0).val >> (d - 1)
    assert top_y and top_w and top_fresh


def _final_ext_seeds(monkeypatch):
    """The seeds of every final-key extraction run_protocol makes."""
    seeds = []

    def counted(scheme, x, seed):
        if scheme is DESK.final:
            seeds.append(seed)
        return ext(scheme, x, seed)
    monkeypatch.setattr(pamp, "ext", counted)
    return seeds


def test_intact_w_extracts_the_final_key_once(monkeypatch):
    seeds = _final_ext_seeds(monkeypatch)
    rng = np.random.Generator(np.random.Philox(79))
    x = _flat_secret(rng, DESK.nmx.n, 768)
    res = run_protocol(x, rng, DESK, passive())
    assert res.accepted and res.keys_agree
    assert len(seeds) == 1
    seeds.clear()
    res = run_protocol(x, rng, DESK, flip_round2())
    assert not res.accepted and not res.keys_agree
    assert len(seeds) == 1


def test_accepted_altered_w_keys_alice_from_her_w(monkeypatch):
    # an adversary that knows x re-tags a flipped W, so Alice accepts a
    # W that Bob never sent and must extract her key from it
    rng = np.random.Generator(np.random.Philox(80))
    x = _flat_secret(rng, DESK.nmx.n, 768)
    s = DESK.mac_bits

    def forge(y, w, t):
        w2 = w ^ BitString(w.n, 1)
        key = slice_bits(nm_ext(x, y, DESK.nmx), 2 * s)
        return w2, mac_tag(key, w2, s)
    seeds = _final_ext_seeds(monkeypatch)
    res = run_protocol(x, rng, DESK, Adversary("forge", lambda y: y, forge))
    assert res.accepted and res.attack_success and not res.keys_agree
    assert len(seeds) == 2 and seeds[0] != seeds[1]


@pytest.mark.parametrize("adv, calls", [(passive(), 1), (flip_round2(), 1),
                                        (flip_round1(), 2)],
                         ids=["passive", "flip2", "flip1"])
def test_nm_ext_runs_once_per_distinct_seed(adv, calls, monkeypatch):
    # Bob extracts from the seed he received; Alice reuses his output when
    # her seed is the same one and extracts again only when round 1
    # changed it
    seeds, real = [], pamp.nm_ext

    def spy(x, y, p):
        seeds.append(y)
        return real(x, y, p)
    monkeypatch.setattr(pamp, "nm_ext", spy)
    rng = np.random.Generator(np.random.Philox(81))
    for _ in range(3):
        seeds.clear()
        x = _flat_secret(rng, DESK.nmx.n, 768)
        run_protocol(x, rng, DESK, adv)
        assert len(seeds) == len(set(seeds)) == calls
