import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extlab import msrc, nipm, nmx
from extlab.altx import look_ahead
from extlab.bits import BitString, matrix, slice_bits
from extlab.nipm import (LevelPlan, NipmParams, ParamError, _merge_level,
                         assembled_bound, hand_plan, lt_nipm, nominal_m1,
                         nominal_schedule, plan_nipm, recursive_nipm)


def micro_params(L=4, t=1):
    levels = (LevelPlan(ell=2, m_in=8, w=4, m_out=4, d_slice=8),
              LevelPlan(ell=2, m_in=4, w=2, m_out=2, d_slice=12))
    return hand_plan(L, t, levels)


def test_hand_plan_keeps_the_hand_written_nominal_fields():
    # the nominal fields micro_params and default_params spelled out by
    # hand before hand_plan derived them from the levels
    micro = (LevelPlan(ell=4, m_in=4, w=2, m_out=2, d_slice=4),
             LevelPlan(ell=4, m_in=2, w=1, m_out=1, d_slice=8))
    assert nmx.micro_params().ipm.nipm == NipmParams(
        L=10, t=1, levels=micro, eps=0.05, c=4, m1_nominal=-198,
        m_nominal=(2, 1), d_nominal=(4, 8), error_nominal=1.0)
    multi = (LevelPlan(ell=2, m_in=8, w=4, m_out=4, d_slice=8),
             LevelPlan(ell=2, m_in=4, w=2, m_out=2, d_slice=12))
    for t, m1 in ((1, -108), (2, -83)):
        assert msrc.default_params(11, t=t).ipm.nipm == NipmParams(
            L=4, t=t, levels=multi, eps=0.05, c=4, m1_nominal=m1,
            m_nominal=(4, 2), d_nominal=(8, 12), error_nominal=1.0)
    assert hand_plan(2, 1, multi[:1]).error_nominal == 2 * 4 * 2 * 0.05


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


def _chain(rows, y, lv):
    """One block by the BitString reference: look_ahead keyed by y's
    lv.d_slice-bit prefix.  lt_nipm runs the level body under test, so
    the unrolls below compose this instead."""
    return look_ahead(tuple(rows), slice_bits(y, lv.d_slice), lv)


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
        a = _chain(rows[:2], y, lv0)
        b = _chain(rows[2:], y, lv0)
        assert out == _chain([a, b], y, lv1)


def test_recursive_handles_leftover_row():
    p = micro_params(L=3)
    rows = [BitString(8, v) for v in (1, 2, 3)]
    y = BitString(12, 0x741)
    out = recursive_nipm(matrix(rows), y, p)
    lv0, lv1 = p.levels
    a = _chain(rows[:2], y, lv0)
    b = slice_bits(rows[2], 4)        # leftover passes through trimmed
    assert out == _chain([a, b], y, lv1)


def test_assembled_bound_monotone_and_capped():
    p = micro_params()
    hi = assembled_bound(p, k_row=8, k_seed=12)
    lo = assembled_bound(p, k_row=2, k_seed=2)
    assert Fraction(0) < hi <= Fraction(1)
    assert hi <= lo
    assert assembled_bound(p, 0, 0) == 1


def _rows(kind, L, m, rng):
    if kind == "sparse":
        # rows whose 16-bit symbols are zero half the time
        return [BitString(m, sum(rng.getrandbits(16) << sh
                                 for sh in range(0, m, 16)
                                 if rng.getrandbits(1)) % (1 << m))
                for _ in range(L)]
    if kind == "equal":
        return [BitString(m, rng.getrandbits(m))] * L
    if kind == "two":
        pair = [BitString(m, rng.getrandbits(m)) for _ in range(2)]
        return [pair[rng.getrandbits(1)] for _ in range(L)]
    return [BitString(m, rng.getrandbits(m)) for _ in range(L)]


def _per_block(rows, y, lv):
    """A level by the BitString reference: look_ahead on each block of
    lv.ell rows, a one-row block carried through trimmed to m_out."""
    return [slice_bits(b[0], lv.m_out) if len(b) == 1 else _chain(b, y, lv)
            for b in (rows[i:i + lv.ell] for i in range(0, len(rows), lv.ell))]


# narrow levels: micro nm_ext (blocks 2 and 1), the multi-source merger
# (w = 4 and 2) and desk levels 1-2 (block 16, one chain each); crit 3's
# single level is added per L, with ell = L
NARROW = (nmx.micro_params().nipm.levels
          + msrc.default_params(11).ipm.nipm.levels
          + nmx.desk_params().nipm.levels[1:])
# wide block-16 levels, run as int chains like every level: m_out < w,
# m_in > 2w with an m_in that is no multiple of 16, and a 256-bit chain
WIDE = (LevelPlan(ell=4, m_in=256, w=128, m_out=48, d_slice=200),
        LevelPlan(ell=3, m_in=600, w=128, m_out=128, d_slice=512),
        LevelPlan(ell=4, m_in=512, w=256, m_out=256, d_slice=512))


@pytest.mark.parametrize("L", range(2, 22))
@given(t=st.sampled_from([1, 2]), kind=st.sampled_from(
    ["distinct", "equal", "two", "sparse"]), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=12, deadline=None)
def test_lockstep_level_matches_lt_nipm_per_block(L, t, kind, seed):
    # every level against look_ahead (lt_nipm's reference) block by
    # block: the planned first level (w = m_out = 128, block 16), the WIDE
    # levels and the narrow levels; L mod ell covers full, ragged and
    # carried-through blocks
    p = plan_nipm(L, t, 256, 512, 1e-4, ell=4)
    crit3 = LevelPlan(ell=L, m_in=6, w=2, m_out=2, d_slice=6)
    rng = random.Random(seed)
    y = BitString(512, rng.getrandbits(512))
    for lv in (p.levels[0], crit3) + WIDE + NARROW:
        rows = _rows(kind, L, lv.m_in, rng)
        got = _merge_level([r.val for r in rows],
                           y.val >> (y.n - lv.d_slice), lv)
        assert got == [r.val for r in _per_block(rows, y, lv)], lv
    rows = _rows(kind, L, 256, rng)
    want = rows
    for lv in p.levels:
        want = _per_block(want, y, lv)
    assert [recursive_nipm(matrix(rows), y, p)] == want


# crit 3's one-level merger plans (rows of m bits, a d-bit seed, fan-in
# L), the weak-seed merger's inner level, and a level whose seed slice is
# narrower than its output, so a one-row call fails its slice
CRIT3 = tuple(LevelPlan(ell=L, m_in=m, w=2, m_out=2, d_slice=d)
              for L, m, d in ((2, 8, 6), (3, 6, 6), (4, 6, 4), (2, 6, 8),
                              (3, 4, 6), (4, 4, 6), (2, 8, 8), (3, 6, 4),
                              (2, 4, 4)))
SHORT_SLICE = LevelPlan(ell=3, m_in=8, w=4, m_out=4, d_slice=2)


def _outcome(f, *args):
    try:
        return "value", f(*args)
    except ValueError as e:
        return "error", str(e)


@given(lv=st.sampled_from(NARROW + WIDE + CRIT3 + (SHORT_SLICE,)),
       data=st.data())
@settings(max_examples=400, deadline=None)
def test_lt_nipm_matches_look_ahead(lv, data):
    # lt_nipm runs the level body on one block; look_ahead on the seed's
    # d_slice prefix is its reference, for 1..ell rows, with the same
    # ValueErrors for no rows, a row of the wrong width, a seed shorter
    # than the slice and, on one row, a slice shorter than m_out
    k = data.draw(st.integers(0, lv.ell + 1), label="rows")
    widths = data.draw(st.lists(st.sampled_from([lv.m_in] * 9 + [lv.m_in + 1]),
                                min_size=k, max_size=k), label="widths")
    rows = [BitString(w, data.draw(st.integers(0, (1 << w) - 1)))
            for w in widths]
    y_n = data.draw(st.sampled_from(
        [lv.d_slice] * 4 + [lv.d_slice + 9, lv.d_slice - 1]), label="y.n")
    y = BitString(y_n, data.draw(st.integers(0, (1 << y_n) - 1)))
    got = _outcome(lt_nipm, rows, y, lv)
    if k > lv.ell:
        assert got == ("error", "too many rows for this level")
    else:
        assert got == _outcome(lambda: look_ahead(
            tuple(rows), slice_bits(y, lv.d_slice), lv))


def test_desk_level_0_runs_in_lockstep(monkeypatch):
    # desk nm_ext merges 20 rows: level 0 (five chains of 128 bits) in
    # lockstep on its GF(2^16) symbols, one chain16 call for all 20 rows;
    # the single chains of levels 1 and 2 as int chains
    calls, real = [], nipm.chain16

    def spy(log_z, v_z, s, log_mid, *rest):
        calls.append(len(s) * (log_mid.shape[1] + 2))
        return real(log_z, v_z, s, log_mid, *rest)
    monkeypatch.setattr(nmx, "chain16", spy)
    p = nmx.desk_params()
    rng = random.Random(8)
    nmx.nm_ext(BitString(p.n, rng.getrandbits(p.n)),
               BitString(p.d, rng.getrandbits(p.d)), p)
    assert [lv.ell for lv in p.nipm.levels] == [4, 4, 4]
    assert p.nipm.L == 20 and calls == [20]
