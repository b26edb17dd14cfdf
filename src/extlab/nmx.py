"""Seeded non-malleable extractor.

Pipeline: advice generation fingerprints (x, y) into L advice bits; one
flip-flop per advice bit turns x and a slice y1 of y into an L-row
matrix whose witness rows break correlation with any tampered seed; the
weak-seed merger (``ipm.merge_rows``, with y as its seed) folds the
matrix into the output: a slice of the first row re-extracts y into a
near-uniform z, a slice of z refreshes every row, and the recursive
merger seeded by z merges them.  Row i depends on i only through its
advice bit, so rows with equal advice bits are equal: each distinct row
(at most two) is built and refreshed once and shared by its rows.

``plan_params`` emits the nominal schedule (rescaled error, advice
length, fan-in and recursion depth as stated for the abstract
construction) side by side with the implemented widths of the affine
chain family; a plan with t > 1 gives the merger a t-copy schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bits import BitString, slice_bits
from .cbreak import AdvGenParams, FlipFlopParams, adv_gen, flip_flop, \
    plan_adv_gen
from .ipm import IpmParams, merge_rows
from .nipm import LevelPlan, ParamError, hand_plan, plan_nipm

C_RESCALE = 4       # eps1 = eps / (2 * C * n)  (default rescaling)
C_ADV = 2           # advice length multiplier


@dataclass(frozen=True)
class NominalPlan:
    eps1: float
    L: int
    ell: int
    r: int
    d1: int
    d_z: int
    m_v: int
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
    ipm: IpmParams            # weak-seed merger of the flip-flop rows
    nominal: NominalPlan

    def __post_init__(self) -> None:
        if self.d1 > self.d:
            raise ParamError("d1", "y1 slice exceeds seed")
        if self.ipm.m != self.ff.m_out or self.ipm.n_y != self.d:
            raise ParamError("ipm", "merger widths do not match rows and seed")
        if self.m != self.ipm.nipm.m_out:
            raise ParamError("m", "merger output does not match m")


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
    d_z_nom = C_RESCALE * max(1, math.ceil(math.log2(max(d, 2) / eps1)))
    mprime_nom = max(1, (9 * k) // 10)
    m_v_nom = C_RESCALE * max(1, math.ceil(math.log2(mprime_nom / eps1)))
    eps_out = C_RESCALE * eps1 * log_n
    return NominalPlan(eps1=eps1, L=L_nom, ell=ell_nom, r=r_nom,
                       d1=d1_nom, d_z=d_z_nom, m_v=m_v_nom,
                       eps_out=eps_out)


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
    m_v = m << r_impl               # rows halve once per merger level
    m_ff = 2 * m_v
    w_ff = max(m_ff, 8)
    d1 = min(d, max(2 * w_ff, 8))
    if d1 < w_ff:
        raise ParamError("d1", "seed too short for the flip-flop chain")
    if m_ff > k:
        raise ParamError("k", "flip-flop output exceeds the entropy budget")
    ff = FlipFlopParams(n=n, d_y=d1, w=w_ff, m_out=m_ff)
    d_z = min(2 * m_v + m, m_ff)
    nipm = plan_nipm(L, t, m_v, d_z, eps1, ell=ell_impl, m_target=m)
    if nipm.d_min > d_z:
        raise ParamError("d", "merger seed slices exceed z")
    ipm = IpmParams(n_y=d, k_y=d, m=m_ff, d_z=d_z, m_v=m_v, nipm=nipm)
    return NmExtParams(n=n, d=d, m=m, t=t, adv=adv, ff=ff, d1=d1, ipm=ipm,
                       nominal=nominal)


def micro_params(eps: float = 0.05) -> NmExtParams:
    """Oracle-scale pipeline: 16-bit source, 16-bit seed, 1-bit output.

    Built by hand because the general planner floors every width at 8
    bits; the micro widths keep exhaustive tamper enumeration feasible.
    """
    n, d, m = 16, 16, 1
    adv = plan_adv_gen(n, d, eps)
    levels = (LevelPlan(ell=4, m_in=4, w=2, m_out=2, d_slice=4),
              LevelPlan(ell=4, m_in=2, w=1, m_out=1, d_slice=8))
    nipm = hand_plan(adv.advice_len, 1, levels, eps)    # L = 10
    ff = FlipFlopParams(n=n, d_y=16, w=8, m_out=8)
    ipm = IpmParams(n_y=d, k_y=d, m=ff.m_out, d_z=8, m_v=4, nipm=nipm)
    return NmExtParams(n=n, d=d, m=m, t=1, adv=adv, ff=ff, d1=16, ipm=ipm,
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
    # distinct bit's row is built once (and refreshed once by merge_rows)
    row = {b: flip_flop(x, y1, b, p.ff) for b in dict.fromkeys(bits)}
    return merge_rows([row[b] for b in bits], y, p.ipm)
