from dataclasses import replace

import numpy as np
import pytest

from extlab import nmx
from extlab.bits import BitString, matrix, slice_bits
from extlab.cbreak import adv_gen, flip_flop
from extlab.ipm import ipm_weak
from extlab.nipm import ParamError, recursive_nipm
from extlab.nmx import desk_params, micro_params, nm_ext, plan_params
from extlab.pamp import _rand_bits
from extlab.sext import affine_scheme, ext


def test_plan_params_desk_scale():
    p = desk_params()
    assert p.n == 1024 and p.d == 512 and p.m == 32
    assert p.adv.advice_len == p.ipm.nipm.L
    assert p.ipm.d_z <= p.ff.m_out == p.ipm.m
    assert p.ipm.nipm.d_min <= p.ipm.d_z
    assert p.ipm.n_y == p.ipm.k_y == p.d
    assert p.m == p.ipm.nipm.m_out
    nom = p.nominal
    assert nom.eps1 == pytest.approx(2 ** -8 / (2 * 4 * 1024))
    assert nom.L == 2 * 31  # 2 * ceil(log2(n/eps1)), eps1 ~ 2^-21


def test_plan_params_named_errors():
    with pytest.raises(ParamError) as e:
        plan_params(1024, 768, 512, 32, 2 ** -8, rescale="bogus")
    assert e.value.name == "rescale"
    with pytest.raises(ParamError) as e:
        # entropy budget too small for the flip-flop output
        plan_params(1024, 256, 512, 32, 2 ** -8)
    assert e.value.name == "k"


def test_params_reject_a_merger_of_other_widths():
    p = micro_params()
    for ipm in (replace(p.ipm, m=16), replace(p.ipm, n_y=24, k_y=24)):
        with pytest.raises(ParamError) as e:
            replace(p, ipm=ipm)
        assert e.value.name == "ipm"


def test_log_rescale_gives_larger_eps1():
    lin = plan_params(1024, 768, 512, 32, 2 ** -8, rescale="linear")
    log = plan_params(1024, 768, 512, 32, 2 ** -8, rescale="log")
    assert log.nominal.eps1 > lin.nominal.eps1


def test_micro_params_shape():
    p = micro_params()
    assert (p.n, p.d, p.m) == (16, 16, 1)
    assert p.adv.advice_len == 10
    assert p.ipm.nipm.m_out == 1 and p.ipm.d_z == p.ff.m_out == 8


def _flip_flop_rows(x, y, p):
    advice = adv_gen(x, y, p.adv)
    y1 = slice_bits(y, p.d1)
    return [flip_flop(x, y1, advice.bit(i), p.ff) for i in range(advice.n)]


def _nm_ext_per_row(x, y, p):
    """Reference pipeline: one flip-flop and one refresh per advice bit,
    the bootstrap spelled out from the merger's widths."""
    rows = _flip_flop_rows(x, y, p)
    vbar1 = slice_bits(rows[0], p.ipm.d_z)
    ybar = ext(affine_scheme(p.d, p.ipm.d_z), y, vbar1)
    ybar1 = slice_bits(ybar, p.ipm.m_v)
    refresh = affine_scheme(p.ff.m_out, p.ipm.m_v)
    z = [ext(refresh, v, ybar1) for v in rows]
    return recursive_nipm(matrix(z), ybar, p.ipm.nipm)


def _draws(p, seed, count):
    rng = np.random.Generator(np.random.Philox(seed))
    return [(BitString(p.n, _rand_bits(rng, p.n)),
             BitString(p.d, _rand_bits(rng, p.d))) for _ in range(count)]


def test_nm_ext_matches_manual_pipeline():
    p = micro_params()
    rng = np.random.Generator(np.random.Philox(51))
    for _ in range(50):
        x = BitString(16, int(rng.integers(1 << 16)))
        y = BitString(16, int(rng.integers(1 << 16)))
        assert nm_ext(x, y, p) == _nm_ext_per_row(x, y, p)


def test_nm_ext_matches_manual_pipeline_at_desk_width():
    p = desk_params()
    for x, y in _draws(p, 52, 4):
        assert nm_ext(x, y, p) == _nm_ext_per_row(x, y, p)


@pytest.mark.parametrize("params, count", [(micro_params, 200),
                                           (desk_params, 8)],
                         ids=["micro", "desk"])
def test_nm_ext_is_the_weak_seed_merger_of_its_flip_flop_rows(params,
                                                              count):
    p = params()
    for x, y in _draws(p, 55, count):
        rows = _flip_flop_rows(x, y, p)
        assert nm_ext(x, y, p) == ipm_weak(matrix(rows), y, p.ipm)


@pytest.mark.parametrize("params", [micro_params, desk_params],
                         ids=["micro", "desk"])
def test_nm_ext_runs_one_flip_flop_per_advice_value(params, monkeypatch):
    p = params()
    calls = []

    def counted(x, y, bit, ff):
        calls.append(bit)
        return flip_flop(x, y, bit, ff)
    monkeypatch.setattr(nmx, "flip_flop", counted)
    for x, y in _draws(p, 54, 6):
        calls.clear()
        nm_ext(x, y, p)
        advice = adv_gen(x, y, p.adv)
        assert sorted(calls) == sorted({advice.bit(i)
                                        for i in range(advice.n)})


def test_nm_ext_width_checks():
    p = micro_params()
    with pytest.raises(ValueError):
        nm_ext(BitString(15, 0), BitString(16, 0), p)
    with pytest.raises(ValueError):
        nm_ext(BitString(16, 0), BitString(17, 0), p)


def test_output_is_seed_sensitive():
    # flipping one seed bit should change the output about half the time
    p = micro_params()
    rng = np.random.Generator(np.random.Philox(53))
    diff = 0
    trials = 3000
    for _ in range(trials):
        x = BitString(16, int(rng.integers(1 << 16)))
        y = BitString(16, int(rng.integers(1 << 16)))
        diff += nm_ext(x, y, p) != nm_ext(x, y ^ BitString(16, 1), p)
    assert 0.35 < diff / trials < 0.65
