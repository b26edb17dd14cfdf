"""Seeded non-malleable extractor.

Pipeline: advice generation fingerprints (x, y) into L advice bits; one
flip-flop per advice bit turns x and a slice y1 of y into an L-row
matrix whose witness rows break correlation with any tampered seed; a
slice of the first row re-extracts y into a near-uniform ybar; a slice
of ybar refreshes every row; the recursive merger folds the matrix into
the output, seeded by ybar.  Row i depends on i only through its advice
bit, so rows with equal advice bits are equal: each distinct row (at
most two) is built and refreshed once and shared by its rows.

``plan_params`` emits the nominal schedule (rescaled error, advice
length, fan-in and recursion depth as stated for the abstract
construction) side by side with the implemented widths of the affine
chain family; a plan with t > 1 gives the merger a t-copy schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bits import BitString, matrix, slice_bits
from .cbreak import AdvGenParams, FlipFlopParams, adv_gen, flip_flop, \
    plan_adv_gen
from .nipm import NipmParams, ParamError, plan_nipm, recursive_nipm
from .sext import ExtScheme, affine_scheme, ext

C_RESCALE = 4       # eps1 = eps / (2 * C * n)  (default rescaling)
C_ADV = 2           # advice length multiplier


@dataclass(frozen=True)
class NominalPlan:
    eps1: float
    L: int
    ell: int
    r: int
    d1: int
    d2: int
    d3: int
    d_prime: int
    eps_out: float


@dataclass(frozen=True)
class NmExtParams:
    n: int
    d: int
    m: int
    t: int
    adv: AdvGenParams
    ff: FlipFlopParams
    d1: int                   # slice of y feeding the flip-flops
    d2: int                   # slice of v_1 that re-extracts y
    d3: int                   # slice of ybar refreshing the rows
    m_mid: int                # refreshed row width (merger input)
    nipm: NipmParams
    nominal: NominalPlan

    def __post_init__(self) -> None:
        if self.d1 > self.d:
            raise ParamError("d1", "y1 slice exceeds seed")
        if self.d2 > self.ff.m_out:
            raise ParamError("d2", "vbar1 slice exceeds row width")
        if self.m != self.nipm.m_out:
            raise ParamError("m", "merger output does not match m")

    def scheme_ybar(self) -> ExtScheme:
        # re-extract the full seed with the d2-bit slice of row one
        return affine_scheme(self.d, self.d2)

    def scheme_refresh(self) -> ExtScheme:
        return affine_scheme(self.ff.m_out, self.m_mid)


def _nominal_plan(n: int, k: int, d: int, eps: float,
                  rescale: str) -> NominalPlan:
    if rescale == "linear":
        eps1 = eps / (2 * C_RESCALE * n)
    elif rescale == "log":
        eps1 = eps / (2 * C_RESCALE * max(2, math.log2(n)))
    else:
        raise ParamError("rescale", rescale)
    if eps1 <= 0:
        raise ParamError("eps", f"rescaled error of eps={eps} is not > 0")
    L_nom = C_ADV * max(1, math.ceil(math.log2(n / eps1)))
    ell_nom = 1 << math.ceil(math.sqrt(math.log2(max(L_nom, 2))))
    r_nom = math.ceil(math.log(L_nom) / math.log(ell_nom))
    log_n = max(1, math.ceil(math.log2(n / eps1)))
    d1_nom = (C_ADV + C_ADV + 1) * log_n
    d2_nom = C_RESCALE * max(1, math.ceil(math.log2(max(d, 2) / eps1)))
    mprime_nom = max(1, (9 * k) // 10)
    d3_nom = C_RESCALE * max(1, math.ceil(math.log2(mprime_nom / eps1)))
    d_prime_nom = (9 * d) // 10 - 2 * d1_nom - C_ADV * log_n
    eps_out = C_RESCALE * eps1 * log_n
    return NominalPlan(eps1=eps1, L=L_nom, ell=ell_nom, r=r_nom,
                       d1=d1_nom, d2=d2_nom, d3=d3_nom,
                       d_prime=d_prime_nom, eps_out=eps_out)


def plan_params(n: int, k: int, d: int, m: int, eps: float, t: int = 1,
                rescale: str = "linear") -> NmExtParams:
    """Plan the pipeline for an (n, k) source and d-bit seed.

    ``rescale`` picks the error rescaling of the outer reduction:
    "linear" sets eps1 = eps / (2 C n), "log" sets eps1 = eps/(2 C log n).
    """
    nominal = _nominal_plan(n, k, d, eps, rescale)
    eps1 = nominal.eps1

    # implemented widths (affine chain family)
    adv = plan_adv_gen(n, d, eps1)
    L = adv.advice_len
    if L < 8:
        raise ParamError("L", "advice below 8 bits")
    ell_impl = 4
    r_impl = max(1, math.ceil(math.log(L) / math.log(ell_impl)))
    m_mid = m << r_impl               # rows halve once per merger level
    m_ff = 2 * m_mid
    w_ff = max(m_ff, 8)
    d1 = min(d, max(2 * w_ff, 8))
    if d1 < w_ff:
        raise ParamError("d1", "seed too short for the flip-flop chain")
    if m_ff > k:
        raise ParamError("k", "flip-flop output exceeds the entropy budget")
    ff = FlipFlopParams(n=n, d_y=d1, w=w_ff, m_out=m_ff)
    d2 = min(2 * m_mid + m, m_ff)
    d3 = m_mid
    nipm = plan_nipm(L, t, m_mid, d2, eps1, ell=ell_impl, m_target=m)
    if nipm.d_min > d2:
        raise ParamError("d", "merger seed slices exceed ybar")
    return NmExtParams(n=n, d=d, m=m, t=t, adv=adv, ff=ff, d1=d1, d2=d2,
                       d3=d3, m_mid=m_mid, nipm=nipm, nominal=nominal)


def micro_params(eps: float = 0.05) -> NmExtParams:
    """Oracle-scale pipeline: 16-bit source, 16-bit seed, 1-bit output.

    Built by hand because the general planner floors every width at 8
    bits; the micro widths keep exhaustive tamper enumeration feasible.
    """
    from .nipm import LevelPlan, NipmParams, nominal_m1

    n, d, m = 16, 16, 1
    adv = plan_adv_gen(n, d, eps)
    L = adv.advice_len                      # 10
    m_mid, m_ff = 4, 8
    levels = (LevelPlan(ell=4, m_in=4, w=2, m_out=2, d_slice=4),
              LevelPlan(ell=4, m_in=2, w=1, m_out=1, d_slice=8))
    nipm = NipmParams(L=L, t=1, levels=levels, eps=eps, c=4,
                      m1_nominal=nominal_m1(m_mid, 4, 1, eps),
                      m_nominal=(2, 1), d_nominal=(4, 8),
                      error_nominal=min(2.0 * 4 * L * eps, 1.0))
    ff = FlipFlopParams(n=n, d_y=16, w=8, m_out=m_ff)
    return NmExtParams(n=n, d=d, m=m, t=1, adv=adv, ff=ff, d1=16, d2=8,
                       d3=4, m_mid=m_mid, nipm=nipm,
                       nominal=_nominal_plan(n, 12, d, eps, "linear"))


def desk_params(eps: float = 2 ** -8) -> NmExtParams:
    """Protocol-scale pipeline used by the privacy-amplification bench:
    1024-bit source with 768 bits of entropy, 512-bit seed, 32-bit
    output."""
    return plan_params(n=1024, k=768, d=512, m=32, eps=eps)


def nm_ext(x: BitString, y: BitString, p: NmExtParams) -> BitString:
    """Non-malleable extraction of x with seed y."""
    if x.n != p.n or y.n != p.d:
        raise ValueError("input width mismatch")
    advice = adv_gen(x, y, p.adv)
    bits = [advice.bit(i) for i in range(advice.n)]
    y1 = slice_bits(y, p.d1)
    # row i depends on i only through the advice bit alpha_i, so each
    # distinct bit's row is built and refreshed once
    row = {b: flip_flop(x, y1, b, p.ff) for b in dict.fromkeys(bits)}
    vbar1 = slice_bits(row[bits[0]], p.d2)
    ybar = ext(p.scheme_ybar(), y, vbar1)
    ybar1 = slice_bits(ybar, p.d3)
    refresh = p.scheme_refresh()
    z = {b: ext(refresh, v, ybar1) for b, v in row.items()}
    return recursive_nipm(matrix([z[b] for b in bits]), ybar, p.nipm)
