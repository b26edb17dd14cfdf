import numpy as np
import pytest

from extlab import ipm
from extlab.bits import BitString, matrix, slice_bits
from extlab.ipm import ipm_weak, micro_ipm
from extlab.nipm import LevelPlan, ParamError, hand_plan, recursive_nipm
from extlab.sext import affine_scheme, ext, ext_val


def micro_nipm():
    levels = (LevelPlan(ell=2, m_in=4, w=2, m_out=2, d_slice=4),)
    return hand_plan(2, 1, levels)


def test_params_validation():
    with pytest.raises(ParamError) as e:
        micro_ipm(L=2, t=1, m=2, n_y=8, k_y=6, d_z=6,
                  nipm=micro_nipm())  # d_z > m
    assert e.value.name == "d_z"
    p = micro_ipm(L=2, t=1, m=8, n_y=8, k_y=6, d_z=6, nipm=micro_nipm())
    assert p.m_v == 4


def test_micro_ipm_rejects_a_merger_of_other_shape():
    # the row count and t must be those the merger was planned for
    for L, t, name in ((4, 1, "L"), (2, 2, "t")):
        with pytest.raises(ParamError) as e:
            micro_ipm(L=L, t=t, m=8, n_y=8, k_y=6, d_z=6, nipm=micro_nipm())
        assert e.value.name == name


def test_ipm_weak_matches_manual_pipeline():
    p = micro_ipm(L=2, t=1, m=8, n_y=8, k_y=6, d_z=6, nipm=micro_nipm())
    rng = np.random.Generator(np.random.Philox(31))
    for _ in range(100):
        drawn = [BitString(8, int(v)) for v in rng.integers(256, size=2)]
        y = BitString(8, int(rng.integers(256)))
        # the drawn rows, and each of them repeated
        for rows in (drawn, drawn[:1] * 2, drawn[1:] * 2):
            got = ipm_weak(matrix(rows), y, p)
            w = slice_bits(rows[0], 6)
            z = ext(p.scheme_boot(), y, w)
            v = slice_bits(z, 4)
            refresh = affine_scheme(8, 4)
            vbar = [slice_bits(ext(refresh, r, v), 4) for r in rows]
            assert got == recursive_nipm(matrix(vbar), z, p.nipm)
            assert got.n == 2


def test_ipm_weak_refreshes_each_distinct_row_once(monkeypatch):
    levels = (LevelPlan(ell=2, m_in=4, w=2, m_out=2, d_slice=4),
              LevelPlan(ell=2, m_in=2, w=1, m_out=1, d_slice=6))
    p = micro_ipm(L=4, t=1, m=8, n_y=8, k_y=6, d_z=6,
                  nipm=hand_plan(4, 1, levels))
    refresh = affine_scheme(p.m, p.m_v)
    refreshed = []

    def counted(scheme, x, seed):
        if scheme == refresh:
            refreshed.append(BitString(scheme.n_in, x))
        return ext_val(scheme, x, seed)
    monkeypatch.setattr(ipm, "ext_val", counted)
    a, b, c = (BitString(8, v) for v in (0x3C, 0xA5, 0x0F))
    for rows in ([a] * 4, [a, b, a, b], [a, b, c, a], [c, b, a, a]):
        refreshed.clear()
        ipm_weak(matrix(rows), BitString(8, 0x5D), p)
        assert sorted(refreshed, key=lambda r: r.val) == \
            sorted(set(rows), key=lambda r: r.val)


def test_ipm_weak_width_checks():
    p = micro_ipm(L=2, t=1, m=8, n_y=8, k_y=6, d_z=6, nipm=micro_nipm())
    with pytest.raises(ValueError):
        ipm_weak(matrix([BitString(7, 0)] * 2), BitString(8, 0), p)
    with pytest.raises(ValueError):
        ipm_weak(matrix([BitString(8, 0)] * 2), BitString(9, 0), p)
