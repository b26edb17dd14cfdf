import random
from dataclasses import fields, replace

import numpy as np
import pytest

from extlab import cbreak, nmx
from extlab.bits import BitString, matrix, slice_bits
from extlab.cbreak import (AdvGenParams, FlipFlopParams, adv_gen, flip_flop,
                           flip_flop_vals)
from extlab.ipm import ipm_weak, merge_rows_val
from extlab.nipm import ParamError, hand_plan, recursive_nipm
from extlab.nmx import (NmExtParams, desk_params, micro_params, nm_ext,
                        plan_params)
from extlab.pamp import _rand_bits
from extlab.sext import affine_scheme, ext, ext_val


def test_plan_params_desk_scale():
    p = desk_params()
    assert p.n == 1024 and p.d == 512 and p.m == 32
    assert p.d1 == 512 and p.ipm.m_v == 256 and p.adv.a0 == 28
    assert p.adv.rs_block == 9 and p.adv.positions == 2
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
        # seed too short for the 512-bit flip-flop token
        plan_params(1024, 768, 256, 32, 2 ** -8)
    assert str(e.value) == "d1: seed too short for the flip-flop chain"
    with pytest.raises(ParamError) as e:
        # entropy budget too small for the flip-flop output
        plan_params(1024, 256, 512, 32, 2 ** -8)
    assert str(e.value) == "k: flip-flop output exceeds the entropy budget"


def test_params_reject_rows_wider_than_the_source():
    # micro's 8-bit flip-flop rows on a 4-bit source
    p = micro_params()
    with pytest.raises(ParamError) as e:
        replace(p, adv=AdvGenParams(4, 16))
    assert e.value.name == "m_ff"


def test_params_reject_merger_slices_wider_than_z():
    # a level-1 slice of 12 bits of micro's 8-bit z
    p = micro_params()
    lv0, lv1 = p.nipm.levels
    with pytest.raises(ParamError) as e:
        replace(p, nipm=hand_plan(10, 1, (lv0, replace(lv1, d_slice=12))))
    assert str(e.value) == "d: merger seed slices exceed z"


def test_planned_widths_meet_their_invariants():
    # what makes the checks NmExtParams no longer runs hold on every plan:
    # token, rows and z are 2 m_v wide and fit in x, y1 is min(d, 2w),
    # the merger's slices fit in z, and the symbol path is taken exactly
    # when n, d and level 0's chain token are multiples of 16
    plans = symbol_plans = 0
    grid = [(n, k, d, m, t) for n in (1000, 1024, 2048)
            for k in (n // 2, 3 * n // 4) for d in (256, 512, 520, 1024)
            for m in (8, 20, 32) for t in (1, 2)]
    for n, k, d, m, t in grid:
        try:
            p = plan_params(n, k, d, m, 2 ** -8, t=t)
        except ParamError:
            continue
        plans += 1
        ff, lv = p.ff, p.nipm.levels[0]
        assert ff.w == ff.m_out == p.ipm.d_z == 2 * p.ipm.m_v <= n
        assert p.d1 == min(d, 2 * ff.w)
        assert p.nipm.d_min <= p.ipm.d_z
        sym = not (n % 16 or d % 16 or lv.w % 16)
        assert bool(p.symbols16) == sym
        symbol_plans += sym
    assert (plans, symbol_plans) == (114, 56)


def test_log_rescale_gives_larger_eps1():
    lin = plan_params(1024, 768, 512, 32, 2 ** -8, rescale="linear")
    log = plan_params(1024, 768, 512, 32, 2 ** -8, rescale="log")
    assert log.nominal.eps1 > lin.nominal.eps1


def test_micro_params_shape():
    p = micro_params()
    assert (p.n, p.d, p.m) == (16, 16, 1)
    assert p.d1 == 16 and p.ipm.m_v == 4 and p.adv.a0 == 12
    assert p.adv.advice_len == 10
    assert p.ipm.nipm.m_out == 1 and p.ipm.d_z == p.ff.m_out == 8
    assert p.ff == FlipFlopParams(n=16, d_y=16, w=8, m_out=8)
    # the plan stores its choices only; the flip-flop and the weak-seed
    # merger are derived, so a replaced merger reaches them
    assert [f.name for f in fields(NmExtParams) if f.init] \
        == ["adv", "nipm", "nominal"]
    lv0, lv1 = p.nipm.levels
    q = replace(p, nipm=hand_plan(10, 1, (replace(lv0, m_in=3),
                                          replace(lv1, d_slice=6))))
    assert (q.ff.w, q.ff.m_out, q.ipm.d_z, q.ipm.m_v) == (6, 6, 6, 3)
    assert q.d1 == 12


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


@pytest.mark.parametrize("params", [micro_params], ids=["micro"])
def test_nm_ext_runs_one_flip_flop_per_advice_value(params, monkeypatch):
    # on the int path one call builds every distinct bit's row: one
    # shared r1, then a key and an output extraction per bit (desk takes
    # the symbol path, checked below)
    p = params()
    calls, exts = [], []

    def counted_ext(scheme, src, seed):
        exts.append(scheme)
        return ext_val(scheme, src, seed)

    def counted(x, y, bits, ff):
        bits, before = list(bits), len(exts)
        rows = flip_flop_vals(x, y, bits, ff)
        calls.append((sorted(bits), len(exts) - before))
        return rows
    monkeypatch.setattr(cbreak, "ext_val", counted_ext)
    monkeypatch.setattr(nmx, "flip_flop_vals", counted)
    for x, y in _draws(p, 54, 6):
        calls.clear()
        nm_ext(x, y, p)
        advice = adv_gen(x, y, p.adv)
        distinct = sorted({advice.bit(i) for i in range(advice.n)})
        assert calls == [(distinct, 1 + 2 * len(distinct))]


# plans whose every flip-flop, bootstrap, refresh and level-0 width is a
# multiple of 16, so nm_ext runs those stages on GF(2^16) symbols: desk;
# m = 8 and m = 20, where the flip-flop token is shorter than y1 and the
# two rows differ (m = 20: five-symbol level-0 tokens); and level 0 with
# a ragged last block of two rows, at L = 18 and at L = 22 (rows differ)
SYMBOL_PLANS = {
    "desk": desk_params,
    "m8": lambda: plan_params(1024, 768, 512, 8, 2 ** -8),
    "m20": lambda: plan_params(1024, 768, 512, 20, 2 ** -8),
    "L18": lambda: plan_params(1024, 768, 256, 16, 2 ** -8),
    "L22": lambda: plan_params(2048, 1536, 1024, 32, 2 ** -8),
}


def _forced_advice(kind, L, rng):
    if kind == "zeros":
        return 0
    if kind == "ones":
        return (1 << L) - 1
    v = rng.getrandbits(L)
    return v ^ 1 if v in (0, (1 << L) - 1) else v


def _symbol_path_mismatches(p, draws, advice, rng, monkeypatch):
    """The draws on which nm_ext (the symbol path) differs from the int
    path, flip_flop_vals and merge_rows_val, under forced advice of the
    given kind; and how many draws had distinct rows."""
    L, forced, bad, differ = p.adv.advice_len, [], [], 0
    monkeypatch.setattr(nmx, "adv_gen_val", lambda x, y, adv: forced[-1])
    for x, y in draws:
        forced.append(_forced_advice(advice, L, rng))
        bits = [(forced[-1] >> i) & 1 for i in range(L - 1, -1, -1)]
        rows = flip_flop_vals(x.val, y.val >> (p.d - p.d1), (0, 1), p.ff)
        want = merge_rows_val([rows[b] for b in bits], y.val, p.ipm)
        if nm_ext(x, y, p) != BitString(*want):
            bad.append((x, y, forced[-1]))
        differ += rows[0] != rows[1]
    return bad, differ


@pytest.mark.parametrize("advice", ["zeros", "ones", "mixed"])
@pytest.mark.parametrize("plan", list(SYMBOL_PLANS))
def test_symbol_path_matches_the_int_path(plan, advice, monkeypatch):
    # the advice is forced, so every row pattern is reached whatever the
    # draws
    p = SYMBOL_PLANS[plan]()
    assert p.symbols16
    if plan.startswith("L"):
        assert p.adv.advice_len % p.nipm.levels[0].ell == 2
        assert p.adv.advice_len == int(plan[1:])
    draws = _draws(p, 57, 4)
    bad, differ = _symbol_path_mismatches(
        p, draws, advice, random.Random(plan + advice), monkeypatch)
    assert bad == []
    if p.ff.w < p.d1:
        assert differ == len(draws)


def _zero_symbols(v, n, rng):
    """v with each of its n / 16 symbols cleared with probability 1/3."""
    for i in range(n // 16):
        if rng.random() < 1 / 3:
            v &= ~(0xFFFF << (16 * i))
    return v


@pytest.mark.parametrize("advice", ["zeros", "ones", "mixed"])
@pytest.mark.parametrize("plan", list(SYMBOL_PLANS))
def test_symbol_path_matches_the_int_path_on_zero_symbols(plan, advice,
                                                          monkeypatch):
    # zero symbols read the log table's sentinel, in the gather of x and
    # y and in every law after it; the last two draws zero all of y and
    # all of x
    p, rng = SYMBOL_PLANS[plan](), random.Random(plan + advice)
    draws = [(BitString(p.n, _zero_symbols(x.val, p.n, rng)),
              BitString(p.d, _zero_symbols(y.val, p.d, rng)))
             for x, y in _draws(p, 59, 4)]
    draws += [(draws[0][0], BitString(p.d, 0)),
              (BitString(p.n, 0), draws[1][1])]
    assert _symbol_path_mismatches(p, draws, advice, rng,
                                   monkeypatch)[0] == []


def _fold_kinds(q):
    """How ``sext.fold`` takes each symbol-path source to twice its law's
    output, from the plan's widths: x to 2w (r1), y1 to 2w, x to 2w (the
    rows) and y to 2w (z)."""
    return tuple("identity" if n == 2 * q.w else "zero pad" if n == q.w
                 else "half pad" if n < 2 * q.w else "xor fold"
                 for n in (q.nx, q.d1, q.nx, q.ny))


def test_symbol_plans_reach_every_fold_case():
    # identity (desk's x), zero pad (desk's keys and z), half pad (m20's
    # key 1 and z) and XOR fold (m8's x and z)
    plans = [_fold_kinds(params().symbols16)
             for params in SYMBOL_PLANS.values()]
    assert {kind for kinds in plans for kind in kinds} \
        == {"identity", "zero pad", "half pad", "xor fold"}
    x_w, y1_w, _, y_z = _fold_kinds(desk_params().symbols16)
    assert (x_w, y1_w, y_z) == ("identity", "zero pad", "zero pad")
    _, y1_w, _, y_z = _fold_kinds(SYMBOL_PLANS["m20"]().symbols16)
    assert y1_w == y_z == "half pad"
    x_w, _, x_m, y_z = _fold_kinds(SYMBOL_PLANS["m8"]().symbols16)
    assert x_w == x_m == y_z == "xor fold"


def test_desk_nm_ext_takes_the_symbol_path(monkeypatch):
    # desk never calls the int flip-flop or merger: one symbol-path call
    # per extraction, on that extraction's advice, with the outputs of the
    # per-row reference
    p = desk_params()
    calls, real = [], nmx._nm_ext16

    def int_path(*args):
        raise AssertionError("desk nm_ext took the int path")

    def spy(*args):
        calls.append(args[2])
        return real(*args)
    monkeypatch.setattr(nmx, "flip_flop_vals", int_path)
    monkeypatch.setattr(nmx, "merge_rows_val", int_path)
    monkeypatch.setattr(nmx, "_nm_ext16", spy)
    for x, y in _draws(p, 54, 6):
        calls.clear()
        assert nm_ext(x, y, p) == _nm_ext_per_row(x, y, p)
        advice = adv_gen(x, y, p.adv)
        assert calls == [advice.val]


def test_symbol_path_is_chosen_by_width(monkeypatch):
    # micro widths (8-bit tokens) and a source or seed width that is no
    # multiple of 16 keep the int path
    def symbol_path(*args):
        raise AssertionError("took the symbol path")
    monkeypatch.setattr(nmx, "_nm_ext16", symbol_path)
    for p in (micro_params(), plan_params(1000, 768, 512, 32, 2 ** -8),
              plan_params(1024, 768, 520, 32, 2 ** -8)):
        assert not p.symbols16
        for x, y in _draws(p, 58, 3):
            nm_ext(x, y, p)


@pytest.mark.parametrize("params", [micro_params, desk_params],
                         ids=["micro", "desk"])
def test_nm_ext_builds_one_bitstring(params, monkeypatch):
    # the stages pass ints; the only BitString built is the result
    p = params()
    (x, y), = _draws(p, 56, 1)
    built = []
    init = BitString.__init__

    def counted(self, n, val):
        built.append(n)
        init(self, n, val)
    monkeypatch.setattr(BitString, "__init__", counted)
    z = nm_ext(x, y, p)
    assert built == [p.m] and z.n == p.m


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


def _advice_moves_output(p, draws, monkeypatch):
    """The draws on which nm_ext's output differs between forced advice
    of all zeros, all ones and 0101...: whether the advice reaches the
    output at all."""
    L, forced = p.adv.advice_len, []
    monkeypatch.setattr(nmx, "adv_gen_val", lambda x, y, adv: forced[0])
    moved = 0
    for x, y in draws:
        outs = set()
        for advice in (0, (1 << L) - 1, (1 << L) // 3):
            forced[:] = [advice]
            outs.add(nm_ext(x, y, p))
        moved += len(outs) > 1
    return moved


# the flip-flop's bit-1 key is Ext_y(y1, r1) and its bit-0 key Ext_tok(s1,
# r1), s1 = y1's w-bit prefix; when d1 = w (desk) the two keys, and so
# the two rows, are one, and the output cannot see its advice
@pytest.mark.xfail(strict=True, reason="desk flip-flop rows ignore the "
                   "advice bit: both keys are one key when d1 = w")
def test_desk_output_moves_with_forced_advice(monkeypatch):
    p = desk_params()
    assert _advice_moves_output(p, _draws(p, 61, 20), monkeypatch) > 0


def test_micro_output_moves_with_forced_advice(monkeypatch):
    # the control: at micro widths the same probe sees the advice
    p = micro_params()
    assert _advice_moves_output(p, _draws(p, 61, 20), monkeypatch) > 0
