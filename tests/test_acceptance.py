"""Acceptance battery: eleven end-to-end criteria, one pass/fail line each.

Every criterion checks an implemented primitive against an exact
micro-scale oracle or an analytic budget assembled from component
bounds.  Assembled budgets are capped at one; when a cap is hit the
printed line says so and the teeth of that criterion come from its
exact sub-checks and negative controls.
"""

import math
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from extlab import cbreak, ipm, msrc, nmx, pamp, prob, sext
from extlab.altx import look_ahead
from extlab.bits import BitString, matrix, slice_bits
from extlab.nipm import (LevelPlan, NipmParams, ParamError, assembled_bound,
                         hand_plan, lt_nipm, nominal_schedule, plan_nipm,
                         recursive_nipm)
from extlab.prob import Dist, bit_error, stat_distance, uniform
from extlab.sext import ext, poly_scheme
from extlab.verify import (adversarial_xor_instance, build_instance,
                           count_table, distance_of_counts,
                           enumerate_tampers, ext_fn_of, merger_distance,
                           nm_distance, sample_tamper, strong_distance,
                           strong_distance_poly_fast, xor_strawman)

ONE = Fraction(1)


def _report(num: int, label: str, ok: bool, detail: str, t0: float) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"\n[criterion {num:02d}] {label}: {verdict} "
          f"({detail}; {time.time() - t0:.1f}s)")
    assert ok, f"criterion {num:02d} {label}: {detail}"


def _rng(seed: int):
    return np.random.Generator(np.random.Philox(seed))


# ---------------------------------------------------------------------------
# 1. exact strong distance of the polynomial hash on 1000 flat sources
# ---------------------------------------------------------------------------

def test_criterion_01_poly_hash_exact_distance():
    t0 = time.time()
    rng = _rng(101)
    scheme = poly_scheme(12, 2, block=6)
    target = Fraction(1, 8)  # 2^((m-k)/2 - 1) at m=2, k=6
    worst = Fraction(0)
    violations = 0
    for _ in range(1000):
        src = prob.sample_flat_source(rng, 12, 6)
        d = strong_distance_poly_fast(scheme, src)
        worst = max(worst, d)
        violations += d > target
    _report(1, "poly hash exact strong distance", violations == 0,
            f"1000 flat(12,6) sources, worst {float(worst):.4f} "
            f"<= {float(target)}, violations {violations}", t0)


# ---------------------------------------------------------------------------
# 2. look-ahead chain equals its explicit unrolled trace
# ---------------------------------------------------------------------------

def test_criterion_02_look_ahead_unrolled():
    t0 = time.time()
    rng = _rng(202)
    p = LevelPlan(3, 8, 4, 4, 16)
    e_w, e_q, e_f = (p.scheme_seed_src(), p.scheme_row(), p.scheme_final())
    mismatches = 0
    for _ in range(10_000):
        rows = tuple(BitString(8, int(v))
                     for v in rng.integers(256, size=3))
        w = BitString(16, int(rng.integers(1 << 16)))
        s1 = slice_bits(rows[0], 4)
        r1 = ext(e_w, w, s1)
        s2 = ext(e_q, rows[1], r1)
        r2 = ext(e_w, w, s2)
        want = ext(e_f, rows[2], slice_bits(r2, 4))
        mismatches += look_ahead(rows, w, p) != want
    _report(2, "look-ahead matches unrolled trace", mismatches == 0,
            f"10000 random inputs, mismatches {mismatches}", t0)


# ---------------------------------------------------------------------------
# 3. exact merger distance of every merger on 50 planted instances
# ---------------------------------------------------------------------------

def _one_level(L: int, t: int, m: int, d: int, w: int = 2,
               m_out: int = 2) -> NipmParams:
    return hand_plan(L, t, (LevelPlan(ell=L, m_in=m, w=w, m_out=m_out,
                                      d_slice=d),))


def _micro_ipm_params() -> ipm.IpmParams:
    inner = _one_level(2, 1, 4, 4)
    return ipm.micro_ipm(L=2, t=1, m=8, n_y=8, k_y=6, d_z=6, nipm=inner)


def test_criterion_03_merger_distance_battery():
    t0 = time.time()
    rng = _rng(303)
    checked = 0
    worst_gap = ONE

    def check(dist: Fraction, bound: Fraction) -> None:
        nonlocal checked, worst_gap
        assert dist <= bound, f"instance {checked}: {dist} > {bound}"
        worst_gap = min(worst_gap, bound - dist)
        checked += 1

    capped = 0
    # planted instances: rows exactly uniform (k_row = m), seed uniform
    specs = [(t, L, m, d) for t in (1, 2)
             for L, m, d in ((2, 8, 6), (3, 6, 6), (4, 6, 4), (2, 6, 8),
                             (3, 4, 6), (4, 4, 6), (2, 8, 8), (3, 6, 4))]
    for t, L, m, d in specs:
        for witness in range(L):
            p = _one_level(L, t, m, d)
            inst = build_instance(rng, L=L, m=m, d=d, t=t, witness=witness)
            bound = assembled_bound(p, k_row=m, k_seed=d)
            capped += bound == ONE
            if checked % 3 == 0:
                merge = lambda rows, y: recursive_nipm(
                    matrix([BitString(m, r) for r in rows]),
                    BitString(d, y), p).val
            else:
                merge = lambda rows, y: lt_nipm(
                    [BitString(m, r) for r in rows],
                    BitString(d, y), p.levels[0]).val
            check(merger_distance(merge, inst, p.m_out), bound)
    # weak-seed merger instances (y is the weak source of the reduction)
    pi = _micro_ipm_params()
    for witness in (0, 1):
        inst = build_instance(rng, L=2, m=8, d=8, t=1, witness=witness)
        mi = lambda rows, y: ipm.ipm_weak(
            matrix([BitString(8, r) for r in rows]),
            BitString(8, y), pi).val
        check(merger_distance(mi, inst, pi.nipm.m_out), ONE)
    # negative control: the XOR strawman must fail on its adversary
    straw_ok = True
    for seed in range(2):
        ia = adversarial_xor_instance(_rng(330 + seed), L=2, m=4, d=4)
        ds = merger_distance(xor_strawman, ia, 4)
        straw_ok = straw_ok and ds >= Fraction(2, 5)
        checked += 1
    _report(3, "exact merger distances within assembled bounds",
            checked == 50 and straw_ok,
            f"{checked} instances, {capped} budgets capped at 1, "
            f"min slack {float(worst_gap):.4f}, strawman fails >= 0.4: "
            f"{straw_ok}", t0)


# ---------------------------------------------------------------------------
# 4. two hand-unrolled merger levels are bit-identical to the recursion
# ---------------------------------------------------------------------------

def test_criterion_04_compose_equals_recursion():
    t0 = time.time()
    rng = _rng(404)
    levels = (LevelPlan(ell=2, m_in=8, w=4, m_out=4, d_slice=8),
              LevelPlan(ell=2, m_in=4, w=2, m_out=2, d_slice=12))
    p = hand_plan(4, 1, levels)
    lv0, lv1 = levels
    mismatches = 0
    for _ in range(1000):
        rows = [BitString(8, int(v)) for v in rng.integers(256, size=4)]
        y = BitString(12, int(rng.integers(1 << 12)))
        # composed from the BitString reference, not from lt_nipm, which
        # runs the same level body as the recursion
        w0, w1 = slice_bits(y, lv0.d_slice), slice_bits(y, lv1.d_slice)
        want = look_ahead((look_ahead(tuple(rows[:2]), w0, lv0),
                           look_ahead(tuple(rows[2:]), w0, lv0)), w1, lv1)
        mismatches += recursive_nipm(matrix(rows), y, p) != want
    _report(4, "unrolled lt_nipm levels == depth-2 recursion",
            mismatches == 0,
            f"1000 random inputs, mismatches {mismatches}", t0)


# ---------------------------------------------------------------------------
# 5. advice collisions over all seed pairs stay under the planner target
# ---------------------------------------------------------------------------

def test_criterion_05_advice_collision_rate():
    t0 = time.time()
    rng = _rng(505)
    eps_target = 2.0 ** -4
    p = cbreak.plan_adv_gen(16, 8, eps_target)
    pairs = 256 * 255 // 2
    total = 0.0
    worst = 0.0
    n_src = 200
    for _ in range(n_src):
        src = prob.sample_flat_source(rng, 16, 12)
        sup = src.support()
        x = BitString(16, sup[int(rng.integers(len(sup)))])
        cnt = Counter(cbreak.adv_gen(x, BitString(8, y), p).val
                      for y in range(256))
        rate = sum(v * (v - 1) // 2 for v in cnt.values()) / pairs
        total += rate
        worst = max(worst, rate)
    mean = total / n_src
    bound = cbreak.collision_bound(p)
    ok = mean <= eps_target and mean <= bound
    _report(5, "advice collision rate under planner target", ok,
            f"all C(256,2) seed pairs x {n_src} sources, mean rate "
            f"{mean:.5f} <= eps {eps_target}, analytic bound {bound:.3f}, "
            f"worst source {worst:.5f}", t0)


# ---------------------------------------------------------------------------
# 6. flip-flop: distinct advice passes the chain bound, equal advice fails
# ---------------------------------------------------------------------------

def _ff_joint_distance(p: cbreak.FlipFlopParams, src: Dist, b: int,
                       bp: int, tamper) -> Fraction:
    """Exact distance of (out, tampered out, Y) from (uniform, ., Y) for
    a flat source."""
    sup, ys = src.support(), range(1 << p.d_y)

    def outs(bit: int, seeds) -> np.ndarray:  # outs[y, x]
        return np.array([[cbreak.flip_flop(BitString(p.n, x),
                                           BitString(p.d_y, y), bit, p).val
                          for x in sup] for y in seeds])

    o = outs(b, ys)
    oa = outs(bp, [tamper(y) if tamper else y for y in ys])
    side = [oa, np.arange(1 << p.d_y)[:, None]]
    total = o.size
    return distance_of_counts(count_table(o, side, 1, p.m_out, total),
                              p.m_out, total)


def _chain_budget(p: cbreak.FlipFlopParams, k: int, t: int = 1) -> Fraction:
    """Assembled chain-composition budget with entropy accounting: each
    of the two look-ahead phases reveals (t+1)*w token bits of the
    source across the honest and tampered copies, so the second phase
    and the output extraction run at reduced conditional entropy.  When
    the remaining floor drops below the widths still to be extracted
    the leftover-hash step carries no guarantee and the budget caps at
    one (the micro regime; the criterion's teeth then come from the
    exact separation controls)."""
    floor = k - 2 * (t + 1) * p.w
    if floor < p.m_out + p.w:
        return ONE
    e_x = ONE * sext.lhl_bound(p.scheme_x(), k)
    e_out = ONE * sext.lhl_bound(p.scheme_out(), floor)
    return min(ONE, 2 * (2 * e_x + e_out))


def _chain_estimate(p: cbreak.FlipFlopParams, src: Dist) -> Fraction:
    """Informational per-source chain estimate (no conditioning term):
    two row extractions plus the output extraction at their exact
    strong distances on the unconditioned source, doubled once."""
    e_x = strong_distance(ext_fn_of(p.scheme_x()), src,
                          p.scheme_x().d_seed, p.w)
    e_out = strong_distance(ext_fn_of(p.scheme_out()), src,
                            p.scheme_out().d_seed, p.m_out)
    return 2 * (2 * e_x + e_out)


def test_criterion_06_flip_flop_advice_separation():
    t0 = time.time()
    rng = _rng(606)
    min_sep = ONE
    capped = 0
    n_checks = 0
    ok = True
    for d_y, w, m_out in ((4, 2, 2), (4, 2, 1), (6, 2, 2)):
        p = cbreak.FlipFlopParams(n=8, d_y=d_y, w=w, m_out=m_out)
        budget = _chain_budget(p, k=6)
        capped += budget == ONE
        for _ in range(2):
            src = prob.sample_flat_source(rng, 8, 6)
            # negative control: same advice, untampered seed -> the two
            # outputs coincide and the distance is exactly 1 - 2^-m'
            ctrl = _ff_joint_distance(p, src, 1, 1, None)
            base = ONE - Fraction(1, 1 << m_out)
            ok = ok and ctrl >= Fraction(9, 10) * base
            n_checks += 1
            cases = [None] + [sample_tamper(rng, d_y) for _ in range(3)]
            for tam in cases:
                d = _ff_joint_distance(p, src, 0, 1, tam)
                # within budget, and strictly separated from the control
                ok = ok and d <= budget and d < ctrl
                min_sep = min(min_sep, ctrl - d)
                n_checks += 1
    _report(6, "flip-flop advice-bit separation", ok,
            f"{n_checks} exact checks over 3 width profiles "
            f"({capped}/3 budgets capped at 1 by the entropy floor), "
            f"distinct-advice distances sit >= {float(min_sep):.3f} below "
            f"the equal-advice controls at 1-2^-m'", t0)


# ---------------------------------------------------------------------------
# 7. micro non-malleable extractor: adversary battery + exact tamper scan
# ---------------------------------------------------------------------------

def test_criterion_07_nm_ext_micro_battery():
    t0 = time.time()
    mp = nmx.micro_params()
    d = mp.d
    mask = (1 << d) - 1
    advs = {
        "bitflip": lambda y: y ^ 1,
        "offset": lambda y: (y + 3) & mask,
        "permute": lambda y: ((y << 1) | (y >> (d - 1))) & mask,
        "replace": lambda y: 0x5A5A if y != 0x5A5A else 0x5A5B,
    }
    # budget assembled from component bounds; at these widths the
    # leftover-hash and advice terms cap the sum at one, so the battery
    # check is a sanity floor and the teeth are in the exact scan below
    budget = min(1.0, cbreak.collision_bound(mp.adv)
                 + float(assembled_bound(mp.ipm.nipm, k_row=mp.ff.m_out,
                                         k_seed=mp.ipm.d_z)))
    trials = 25_000
    ci = pamp.hoeffding_ci(trials)
    worst_adv = 0.0
    rng = _rng(707)
    for name, adv in advs.items():
        coll = 0
        for _ in range(trials):
            x = BitString(mp.n, int(rng.integers(1 << mp.n)))
            y = int(rng.integers(1 << d))
            o = nmx.nm_ext(x, BitString(d, y), mp).val
            oa = nmx.nm_ext(x, BitString(d, adv(y)), mp).val
            coll += o == oa
        worst_adv = max(worst_adv, abs(coll / trials - 0.5))
    battery_ok = worst_adv <= budget + ci

    # exact scan: every fixed-point-free tamper table of a 2-bit seed
    # against the flip-flop layer; the assembled budget caps at 1 here
    # (entropy floor), so the asserted teeth are separation below the
    # seed-copying failure level 0.9*(1 - 2^-m'), with the per-source
    # chain estimate reported alongside
    pf = cbreak.FlipFlopParams(n=8, d_y=2, w=2, m_out=1)
    src = prob.sample_flat_source(_rng(717), 8, 6)
    bound = _chain_budget(pf, k=6)
    est = _chain_estimate(pf, src)
    worst_exact = Fraction(0)
    for bit in (0, 1):
        fn = lambda x, s, _b=bit: cbreak.flip_flop(
            BitString(8, x), BitString(2, s), _b, pf).val
        for tam in enumerate_tampers(2):
            worst_exact = max(worst_exact, nm_distance(fn, src, 2, 1, tam))
    fail_level = Fraction(9, 10) * (ONE - Fraction(1, 1 << pf.m_out))
    exact_ok = worst_exact <= bound and worst_exact < fail_level
    _report(7, "micro nm-extractor battery and exact tamper scan",
            battery_ok and exact_ok,
            f"4 adversaries x {trials} trials, worst advantage "
            f"{worst_adv:.4f} <= budget {budget:.2f}"
            f"{' (capped)' if budget >= 1.0 else ''} + ci {ci:.4f}; "
            f"2x81 exact tamper tables, worst {float(worst_exact):.4f} "
            f"< failure level {float(fail_level):.2f} "
            f"(chain estimate {float(est):.3f})", t0)


# ---------------------------------------------------------------------------
# 8. XOR of independent biased bits follows the exact product law
# ---------------------------------------------------------------------------

def test_criterion_08_xor_product_law():
    t0 = time.time()
    rng = _rng(808)
    worst_naive_gap = 0.0
    for _ in range(20):
        ell = int(rng.integers(2, 7))
        dists = []
        for _ in range(ell):
            num = int(rng.integers(0, 129))
            p1 = Fraction(1, 2) + Fraction(num, 256)  # bias in [0, 1/2]
            dists.append(prob.from_weights(1, (ONE - p1, p1)))
        out = prob.xor_bit_dists(dists)
        exact = stat_distance(out, uniform(1))
        product_law = Fraction(1 << (ell - 1)) * math.prod(
            bit_error(b) for b in dists)
        assert exact == product_law
        # informational: the additive estimate sum(eps_i) overshoots the
        # exact product unless a single bit carries all the bias
        naive = min(ONE, sum(bit_error(b) for b in dists))
        worst_naive_gap = max(worst_naive_gap, float(naive - exact))
    _report(8, "xor bias product law", True,
            "20 parameterizations, exact == 2^(l-1) * prod(eps); "
            f"additive estimate overshoots by up to {worst_naive_gap:.4f}",
            t0)


# ---------------------------------------------------------------------------
# 9. majority over planted bad indices matches the exact binomial oracle
# ---------------------------------------------------------------------------

def test_criterion_09_majority_vs_binomial_oracle():
    t0 = time.time()
    rng = _rng(909)
    # alpha near zero relaxes the bad-set cap to the full 10 indices
    p = msrc.default_params(101, alpha=0.001)
    gen = msrc.make_generator(rng, p, n_bad=10)
    assert len(gen.bad_set) == 10
    trials = 2000
    hits = {0: 0, 1: 0}
    count = {0: 0, 1: 0}
    bias_sum = 0
    for _ in range(trials):
        srcs = [BitString(16, int(rng.integers(1 << 16))) for _ in range(3)]
        weak = BitString(p.ipm.n_y, int(rng.integers(1 << p.ipm.n_y)))
        bits = msrc.reduce_bits(gen.matrices(srcs), weak, p)
        b = bits[gen.bad_set[0]]
        count[b] += 1
        out = msrc.majority(bits)
        hits[b] += out
        bias_sum += out
    p_one = float(msrc.exact_majority_prob_one(p.r, 10))
    expect = {1: p_one, 0: 1.0 - p_one}
    ci = pamp.hoeffding_ci(trials // 4)
    cond_ok = all(abs(hits[b] / count[b] - expect[b]) <= ci
                  for b in (0, 1) if count[b])
    bias = abs(bias_sum / trials - 0.5)
    # a bias is at most 1/2, so an analytic bound above 1 is capped at 1;
    # the teeth are the conditional rates against the binomial oracle
    bound = min(1.0, msrc.majority_bias_bound(p))
    bias_ok = bias <= bound + pamp.hoeffding_ci(trials)
    _report(9, "majority bias matches exact binomial oracle",
            cond_ok and bias_ok,
            f"r=101, 10 planted bad indices, {trials} trials; conditional "
            f"rates within {ci:.4f} of {p_one:.4f}/{1 - p_one:.4f}, "
            f"overall bias {bias:.4f} <= bound {bound:.4f}"
            f"{' (capped)' if bound >= 1.0 else ''} + ci", t0)


# ---------------------------------------------------------------------------
# 10. two-round privacy amplification security experiment
# ---------------------------------------------------------------------------

def test_criterion_10_privacy_amplification():
    t0 = time.time()
    p = pamp.make_params(nmx.desk_params())
    s_bits = p.mac_bits
    ell = p.msg_symbols
    forge = ell / 2.0 ** s_bits

    rng = _rng(1010)
    passive = pamp.security_experiment(rng, p, pamp.passive(), 100_000)
    passive_ok = passive.honest_failures == 0 and passive.accepts == 100_000

    rng = _rng(1011)
    t2 = 20_000
    flip2 = pamp.security_experiment(rng, p, pamp.flip_round2(), t2)
    sigma = math.sqrt(forge * (1 - forge) / t2)
    flip2_ok = flip2.accepts / t2 <= forge + 3 * sigma

    rng = _rng(1012)
    t1 = 5000
    budget = forge + p.nmx.nominal.eps_out
    ci = pamp.hoeffding_ci(t1)
    subst_ok = True
    lines = []
    for adv in (pamp.flip_round1(), pamp.replace_round1(rng, p.nmx.d),
                pamp.random_adversary(rng)):
        rep = pamp.security_experiment(rng, p, adv, t1,
                                       distinguisher_budget=0.05)
        subst_ok = subst_ok and rep.estimate <= budget + 0.05 + ci
        lines.append(f"{rep.adversary} {rep.estimate:.4f}")
    _report(10, "privacy amplification experiment",
            passive_ok and flip2_ok and subst_ok,
            f"passive 0/100000 failures; round-2 flips accepted "
            f"{flip2.accepts}/{t2} <= {forge:.2e}+3sigma; substitutions "
            f"[{', '.join(lines)}] <= budget {budget + 0.05:.3f} + ci "
            f"{ci:.3f}", t0)


# ---------------------------------------------------------------------------
# 11. planner regression at full scale
# ---------------------------------------------------------------------------

def test_criterion_11_planner_regression():
    t0 = time.time()
    p = nmx.plan_params(2 ** 20, 3 * 2 ** 18, 2 ** 18, 64, 2 ** -10)
    nom = p.nominal
    ok = nom.ell == 2 ** math.ceil(math.sqrt(math.log2(nom.L)))
    ok = ok and nom.r == math.ceil(math.log(nom.L) / math.log(nom.ell))
    ds = p.ipm.nipm.d_nominal
    ok = ok and all(ds[i] == (p.ipm.nipm.t + 2) * ds[i - 1]
                    for i in range(1, len(ds)))
    ok = ok and all(lv.m_out >= 8 and lv.w >= 8 and lv.d_slice >= 8
                    for lv in p.ipm.nipm.levels)
    with pytest.raises(ParamError) as e:
        plan_nipm(0, 1, 64, 64, 0.01)
    ok = ok and e.value.name == "L"
    with pytest.raises(ParamError) as e:
        plan_nipm(4, 1, 64, 4, 0.01)
    ok = ok and e.value.name in ("d", "d_i")
    with pytest.raises(ParamError) as e:
        nominal_schedule(4, 1, 1, 64, 0.01)
    ok = ok and e.value.name == "ell"
    _report(11, "planner regression at n=2^20", ok,
            f"ell {nom.ell} = 2^ceil(sqrt(log L)), r {nom.r}, seed growth "
            f"x{p.ipm.nipm.t + 2} per level, implemented widths >= 8, "
            f"3 named parameter errors", t0)
