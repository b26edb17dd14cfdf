import numpy as np
import pytest

from extlab.bits import BitString, matrix, slice_bits
from extlab.ipm import ipm_weak, micro_ipm, plan_ipm
from extlab.nipm import LevelPlan, NipmParams, ParamError, nominal_m1, \
    recursive_nipm
from extlab.sext import ext


def micro_nipm():
    levels = (LevelPlan(ell=2, m_in=4, w=2, m_out=2, d_slice=4),)
    return NipmParams(L=2, t=1, levels=levels, eps=0.05, c=4,
                      m1_nominal=nominal_m1(4, 2, 1, 0.05),
                      m_nominal=(2,), d_nominal=(4,), error_nominal=0.8)


def test_params_validation():
    with pytest.raises(ParamError):
        micro_ipm(L=2, t=1, m=2, n_y=8, k_y=6, d_z=6,
                  nipm=micro_nipm())  # d_z > m
    p = micro_ipm(L=2, t=1, m=8, n_y=8, k_y=6, d_z=6, nipm=micro_nipm())
    assert p.d_prime == p.m_v == 4


def test_plan_ipm_rejects_low_entropy_seed():
    with pytest.raises(ParamError) as e:
        plan_ipm(4, 1, 64, 64, 8, 0.01)
    assert e.value.name == "k"


def test_plan_ipm_shapes():
    p = plan_ipm(4, 1, 64, 128, 96, 0.01)
    assert p.d_z == min(76, 64) == 64
    assert p.d_prime == p.m_v <= p.d_z
    assert p.nipm.m_out <= p.m_v


def test_ipm_weak_matches_manual_pipeline():
    p = micro_ipm(L=2, t=1, m=8, n_y=8, k_y=6, d_z=6, nipm=micro_nipm())
    rng = np.random.Generator(np.random.Philox(31))
    for _ in range(100):
        rows = [BitString(8, int(v)) for v in rng.integers(256, size=2)]
        y = BitString(8, int(rng.integers(256)))
        got = ipm_weak(matrix(rows), y, p)
        w = slice_bits(rows[0], 6)
        z = ext(p.scheme_boot(), y, w)
        v = slice_bits(z, 4)
        refresh = p.scheme_refresh()
        vbar = [slice_bits(ext(refresh, r, v), 4) for r in rows]
        assert got == recursive_nipm(matrix(vbar), z, p.nipm)
        assert got.n == 2


def test_ipm_weak_width_checks():
    p = micro_ipm(L=2, t=1, m=8, n_y=8, k_y=6, d_z=6, nipm=micro_nipm())
    with pytest.raises(ValueError):
        ipm_weak(matrix([BitString(7, 0)] * 2), BitString(8, 0), p)
    with pytest.raises(ValueError):
        ipm_weak(matrix([BitString(8, 0)] * 2), BitString(9, 0), p)
