import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extlab import gf2

# spot checks against well-known field facts
AES_POLY = 0x11B  # x^8 + x^4 + x^3 + x + 1, also the lex-least for b=8


def test_known_moduli():
    assert gf2.IRREDUCIBLE[1] == 0b11
    assert gf2.IRREDUCIBLE[2] == 0b111            # x^2 + x + 1
    assert gf2.IRREDUCIBLE[8] == AES_POLY
    assert gf2.IRREDUCIBLE[16] == 0x1002B
    assert set(gf2.IRREDUCIBLE) == set(range(1, 65))


def test_aes_multiplication_vector():
    # classic AES example: {53} * {CA} = {01}
    assert gf2.mul(0x53, 0xCA, 8) == 0x01
    assert gf2.mul_slow(0x53, 0xCA, 8) == 0x01


def test_mul_identity_and_zero():
    for b in (1, 2, 8, 16, 32):
        top = (1 << b) - 1
        assert gf2.mul(top, 1, b) == top
        assert gf2.mul(0, top, b) == 0


@given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
@settings(max_examples=200)
def test_field_laws_b8(a, b, c):
    m = lambda x, y: gf2.mul(x, y, 8)
    assert m(a, b) == m(b, a)
    assert m(a, m(b, c)) == m(m(a, b), c)
    assert m(a, b ^ c) == m(a, b) ^ m(a, c)


@given(st.integers(1, (1 << 16) - 1))
@settings(max_examples=100)
def test_tables_agree_with_slow_mul(a):
    assert gf2.mul(a, 0x1234 % (1 << 16), 16) == \
        gf2.mul_slow(a, 0x1234, 16)


@given(st.integers(1, (1 << 16) - 1))
@settings(max_examples=50)
def test_inverse_via_pow(a):
    inv = gf2.pow_(a, (1 << 16) - 2, 16)
    assert gf2.mul(a, inv, 16) == 1


def test_poly_eval_horner():
    # p(x) = 3 x^2 + 1 over GF(2^4): p(2) = mul(3,4) ^ 1
    x2 = gf2.mul(2, 2, 4)
    assert gf2.poly_eval([3, 0, 1], 2, 4) == gf2.mul(3, x2, 4) ^ 1
    assert gf2.poly_eval([7], 9, 4) == 7  # constant polynomial


def test_rs_distance_on_small_code():
    # distinct degree-<2 messages agree on at most 1 of 4 points
    seen = {}
    for m0 in range(4):
        for m1 in range(4):
            # Reed-Solomon codeword: the message polynomial at 0..3
            cw = tuple(gf2.poly_eval([m0, m1], x, 2) for x in range(4))
            seen[(m0, m1)] = cw
    msgs = list(seen)
    for i in range(len(msgs)):
        for j in range(i + 1, len(msgs)):
            a, b = seen[msgs[i]], seen[msgs[j]]
            agree = sum(x == y for x, y in zip(a, b))
            assert agree <= 1


def test_np_tables_match_mul():
    # the zero-sentinel law exp[log[a] + log[c]] == a * c, for a = 0, 1
    # and a random element against every c, zero included
    import random

    import numpy as np

    rng = random.Random(16)
    for b in (1, 2, 8, 16):
        log, exp = gf2.np_tables(b)
        c = np.arange(1 << b)
        for a in (0, 1, rng.randrange(2, 1 << b) if b > 1 else 1):
            prod = exp[log[a] + log[c]].tolist()
            assert prod == [gf2.mul(a, x, b) for x in range(1 << b)], (b, a)


@pytest.mark.parametrize("b", [1, 2, 8, 9, 14, 16])
def test_scalar_tables_match_mul_slow(b):
    # the zero-sentinel law on the scalar tables, lists up to b = 8 and
    # array buffers above, for a = 0, 1 and a random element against
    # every c, zero included
    import random

    log, exp = gf2._tables(b)
    for a in {0, 1, random.Random(b).randrange(1 << b)}:
        assert [exp[log[a] + log[c]] for c in range(1 << b)] == \
            [gf2.mul_slow(a, c, b) for c in range(1 << b)], a


@pytest.mark.parametrize("b", [9, 14, 16])
def test_scalar_tables_step_by_a_generator(b):
    # exp walks the powers of its generator through both copies, and
    # log inverts it on every nonzero element
    log, exp = gf2._tables(b)
    order, gen = (1 << b) - 1, exp[1]
    assert exp[0] == 1
    assert all(exp[i + 1] == gf2.mul_slow(exp[i], gen, b)
               for i in range(2 * order - 1))
    assert all(exp[log[a]] == a for a in range(1, order + 1))
    assert sorted(log[1:]) == list(range(order))


def test_np_tables_share_the_scalar_buffers():
    import numpy as np

    for table, view in zip(gf2._tables(16), gf2.np_tables(16)):
        assert np.shares_memory(view, np.asarray(table))
        assert not view.flags.writeable
        with pytest.raises(ValueError):
            view[1] = 0


@pytest.mark.parametrize("b", [17, 24, 32, 33, 64])
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_wide_mul_matches_mul_slow(b, data):
    # Horner over a's nibbles with c's first window table, zero included
    elem = st.one_of(st.sampled_from([0, 1, (1 << b) - 1]),
                     st.integers(0, (1 << b) - 1))
    a, c = data.draw(elem, label="a"), data.draw(elem, label="c")
    assert gf2.mul(a, c, b) == gf2.mul_slow(a, c, b)


def _horner_slow(coeffs, x, b):
    acc = 0
    for c in coeffs:
        acc = gf2.mul_slow(acc, x, b) ^ c
    return acc


@pytest.mark.parametrize("b", range(1, gf2.MAX_DEGREE + 1))
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_poly_eval_matches_horner_over_mul_slow(b, data):
    # poly_eval's per-call tables (log[x] up to b = 16, window tables
    # above) against the scalar shift-and-add reference
    elem = st.integers(0, (1 << b) - 1)
    x = data.draw(st.one_of(st.sampled_from([0, 1]), elem), label="x")
    coeffs = data.draw(st.one_of(st.lists(elem, max_size=1),
                                 st.lists(elem, max_size=40)), label="coeffs")
    assert gf2.poly_eval(coeffs, x, b) == _horner_slow(coeffs, x, b)
