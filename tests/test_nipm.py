from fractions import Fraction

import numpy as np
import pytest

from extlab.bits import BitString, matrix, slice_bits
from extlab.nipm import (LevelPlan, NipmParams, ParamError,
                         assembled_bound, lt_nipm, nominal_m1,
                         nominal_schedule, plan_nipm, recursive_nipm)


def micro_params(L=4, t=1):
    levels = (LevelPlan(ell=2, m_in=8, w=4, m_out=4, d_slice=8),
              LevelPlan(ell=2, m_in=4, w=2, m_out=2, d_slice=12))
    return NipmParams(L=L, t=t, levels=levels, eps=0.05, c=4,
                      m1_nominal=nominal_m1(8, 2, t, 0.05),
                      m_nominal=(4, 2), d_nominal=(8, 12),
                      error_nominal=0.8)


def test_nominal_m1_formula():
    # (0.9/t) * (m - c*(t+1)*ell*ceil(log2(m/eps)))
    assert nominal_m1(1024, 4, 1, 2 ** -10) == \
        int(0.9 * (1024 - 4 * 2 * 4 * 20))
    assert nominal_m1(1024, 4, 2, 2 ** -10) == \
        int((0.9 / 2) * (1024 - 4 * 3 * 4 * 20))


def test_nominal_schedule_geometry():
    r, m_i, d_i, err = nominal_schedule(L=16, ell=4, t=1, m=4096,
                                        eps=2 ** -10)
    assert r == 2
    # seed slices grow by (t+2) per level
    assert d_i[1] == 3 * d_i[0]
    assert m_i[0] > m_i[1]
    assert err <= 2.0 * 4 * 16 * 2 ** -10


def test_plan_nipm_named_errors():
    with pytest.raises(ParamError) as e:
        plan_nipm(0, 1, 64, 64, 0.01)
    assert e.value.name == "L"
    with pytest.raises(ParamError) as e:
        plan_nipm(4, 1, 64, 4, 0.01)  # seed too short
    assert e.value.name in ("d", "d_i")
    with pytest.raises(ParamError) as e:
        nominal_schedule(4, 1, 1, 64, 0.01)
    assert e.value.name == "ell"


def test_plan_nipm_reduces_to_one_row():
    p = plan_nipm(20, 1, 256, 512, 1e-4, ell=4, m_target=32)
    assert p.r == 3 and p.m_out == 32
    assert p.d_min <= 512
    # the implemented widths shrink monotonically
    widths = [lv.m_in for lv in p.levels] + [p.m_out]
    assert widths == sorted(widths, reverse=True)


def test_lt_nipm_output_width_and_determinism():
    lp = LevelPlan(ell=2, m_in=8, w=4, m_out=4, d_slice=8)
    rows = [BitString(8, 0xA1), BitString(8, 0x5E)]
    y = BitString(12, 0x9B3)
    out = lt_nipm(rows, y, lp)
    assert out.n == 4
    assert out == lt_nipm(rows, y, lp)
    # only the d_slice prefix of y matters
    y2 = BitString(12, (y.val >> 4 << 4) | (~y.val & 0xF))
    assert slice_bits(y, 8) == slice_bits(y2, 8)
    assert lt_nipm(rows, y2, lp) == out
    with pytest.raises(ValueError):
        lt_nipm(rows * 2, y, lp)


def test_recursive_nipm_two_levels():
    p = micro_params()
    rng = np.random.Generator(np.random.Philox(21))
    for _ in range(50):
        rows = [BitString(8, int(v)) for v in rng.integers(256, size=4)]
        y = BitString(12, int(rng.integers(1 << 12)))
        out = recursive_nipm(matrix(rows), y, p)
        assert out.n == 2
        # manual unroll
        lv0, lv1 = p.levels
        a = lt_nipm(rows[:2], y, lv0)
        b = lt_nipm(rows[2:], y, lv0)
        assert out == lt_nipm([a, b], y, lv1)


def test_recursive_handles_leftover_row():
    p = micro_params(L=3)
    rows = [BitString(8, v) for v in (1, 2, 3)]
    y = BitString(12, 0x741)
    out = recursive_nipm(matrix(rows), y, p)
    lv0, lv1 = p.levels
    a = lt_nipm(rows[:2], y, lv0)
    b = slice_bits(rows[2], 4)        # leftover passes through trimmed
    assert out == lt_nipm([a, b], y, lv1)


def test_assembled_bound_monotone_and_capped():
    p = micro_params()
    hi = assembled_bound(p, k_row=8, k_seed=12)
    lo = assembled_bound(p, k_row=2, k_seed=2)
    assert Fraction(0) < hi <= Fraction(1)
    assert hi <= lo
    assert assembled_bound(p, 0, 0) == 1
    # slack terms enter the budget
    assert assembled_bound(p, 8, 12,
                           witness_slack=Fraction(1, 100)) >= hi
