import numpy as np
import pytest

from extlab import altx
from extlab.altx import look_ahead
from extlab.bits import BitString, slice_bits
from extlab.nipm import LevelPlan
from extlab.sext import ext


def test_chain_params_validated():
    LevelPlan(3, 8, 4, 4, 16)
    with pytest.raises(ValueError):
        LevelPlan(3, 8, 9, 4, 16)   # token wider than row
    with pytest.raises(ValueError):
        LevelPlan(3, 8, 4, 5, 16)   # output wider than token
    with pytest.raises(ValueError):
        LevelPlan(3, 8, 0, 0, 16)
    with pytest.raises(ValueError, match="output width"):
        LevelPlan(3, 8, 4, 0, 16)   # no chain or extraction has 0 bits
    with pytest.raises(ValueError, match="fan-in"):
        LevelPlan(ell=1, m_in=256, w=256, m_out=256, d_slice=256)


def test_look_ahead_single_row_degenerates():
    p = LevelPlan(3, 8, 4, 2, 16)
    row = BitString(8, 0x3A)
    w = BitString(16, 0x1234)
    out = look_ahead((row,), w, p)
    assert out == ext(p.scheme_final(), row, slice_bits(w, 2))


def test_look_ahead_matches_manual_unroll():
    rng = np.random.Generator(np.random.Philox(11))
    p = LevelPlan(3, 8, 4, 4, 16)
    e_w, e_q, e_f = (p.scheme_seed_src(), p.scheme_row(),
                     p.scheme_final())
    for _ in range(200):
        rows = tuple(BitString(8, int(v))
                     for v in rng.integers(256, size=3))
        w = BitString(16, int(rng.integers(1 << 16)))
        s1 = slice_bits(rows[0], 4)
        r1 = ext(e_w, w, s1)
        s2 = ext(e_q, rows[1], r1)
        r2 = ext(e_w, w, s2)
        want = ext(e_f, rows[2], slice_bits(r2, 4))
        assert look_ahead(rows, w, p) == want


def test_look_ahead_width_checks():
    p = LevelPlan(3, 8, 4, 4, 16)
    with pytest.raises(ValueError):
        look_ahead((BitString(7, 0),), BitString(16, 0), p)
    with pytest.raises(ValueError):
        look_ahead((BitString(8, 0),), BitString(15, 0), p)
    with pytest.raises(ValueError):
        look_ahead((), BitString(16, 0), p)


def test_chain_keeps_constant_width(monkeypatch):
    # tokens never grow or shrink along a long look-ahead chain
    p = LevelPlan(11, 16, 8, 8, 32)
    tokens = []

    def recorded(scheme, x, seed):
        tokens.append(ext(scheme, x, seed))
        return tokens[-1]
    monkeypatch.setattr(altx, "ext", recorded)
    rows = tuple(BitString(16, 0xABCD ^ (i * 0x1111)) for i in range(11))
    out = look_ahead(rows, BitString(32, 0xDEADBEEF), p)
    assert len(tokens) == 2 * 10 and tokens[-1] == out  # R_1..R_10, S_2..S_11
    assert {t.n for t in tokens} == {8}


@pytest.mark.parametrize("call, exc, message", [
    (lambda: LevelPlan(ell=2, m_in=4, w=4, m_out=8, d_slice=8), ValueError,
     "output exceeds row width"),
], ids=["m_out_over_m_in"])
def test_bad_inputs_raise_named_errors(call, exc, message):
    with pytest.raises(exc) as e:
        call()
    assert str(e.value) == message
