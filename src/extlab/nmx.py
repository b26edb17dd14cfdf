"""Seeded non-malleable extractor.

Pipeline: advice generation fingerprints (x, y) into L advice bits; one
flip-flop per advice bit turns x and a slice y1 of y into an L-row
matrix whose witness rows break correlation with any tampered seed; the
weak-seed merger (``ipm.merge_rows_val``, with y as its seed) folds the
matrix into the output: a slice of the first row re-extracts y into a
near-uniform z, a slice of z refreshes every row, and the recursive
merger seeded by z merges them.  Row i depends on i only through its
advice bit, so rows with equal advice bits are equal: each distinct row
(at most two) is built and refreshed once and shared by its rows.  The
stages pass plain ints; ``nm_ext`` builds one ``BitString``, its result.
When every width from the flip-flop through merger level 0 is a multiple
of 16 (``NmExtParams.symbols16``, desk among them), those stages run on
GF(2^16) symbol arrays instead, both rows at once (``_nm_ext16``); the
int stages stay the path of every other plan and the reference the
symbol path is tested against.

``plan_params`` emits the nominal schedule (rescaled error, advice
length, fan-in and recursion depth as stated for the abstract
construction) side by side with the implemented widths of the affine
chain family; a plan with t > 1 gives the merger a t-copy schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import gf2
from .bits import BitString
from .cbreak import AdvGenParams, FlipFlopParams, adv_gen_val, \
    flip_flop_vals, plan_adv_gen
from .ipm import IpmParams, merge_rows_val
from .nipm import LevelPlan, NipmParams, ParamError, _clog2, \
    _lockstep_level, chain16, hand_plan, plan_nipm, recursive_nipm_val
from .sext import affine16, fold16

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
    adv: AdvGenParams
    ff: FlipFlopParams        # flip-flop over x and the slice y1 of y
    d_z: int                  # bootstrap width of the weak-seed merger
    nipm: NipmParams          # recursive merger of the refreshed rows
    nominal: NominalPlan
    # weak-seed merger of the flip-flop rows, seeded by y (derived)
    ipm: IpmParams = field(init=False, repr=False, compare=False)
    # nm_ext runs the flip-flop through merger level 0 on GF(2^16)
    # symbols: every width they touch is a multiple of 16 (derived)
    symbols16: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.ff.n != self.adv.n:
            raise ParamError("n", "flip-flop and advice source widths differ")
        if self.d1 > self.d:
            raise ParamError("d1", "y1 slice exceeds seed")
        object.__setattr__(self, "ipm", IpmParams(
            n_y=self.d, k_y=self.d, m=self.ff.m_out, d_z=self.d_z,
            nipm=self.nipm))
        lv = self.nipm.levels[0]
        widths = (self.n, self.d, self.d1, self.ff.w, self.ff.m_out,
                  self.d_z, lv.m_in, lv.w, lv.m_out, lv.d_slice)
        object.__setattr__(self, "symbols16", lv.d_slice <= self.d_z
                           and not any(v % 16 for v in widths))

    @property
    def n(self) -> int:
        return self.adv.n

    @property
    def d(self) -> int:
        return self.adv.d

    @property
    def m(self) -> int:
        return self.nipm.m_out

    @property
    def d1(self) -> int:
        """Slice of y feeding the flip-flops."""
        return self.ff.d_y


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
    log_n = _clog2(n / eps1)
    L_nom = C_ADV * log_n
    ell_nom = 1 << math.ceil(math.sqrt(math.log2(max(L_nom, 2))))
    r_nom = math.ceil(math.log(L_nom) / math.log(ell_nom))
    d1_nom = (C_ADV + C_ADV + 1) * log_n
    d_z_nom = C_RESCALE * _clog2(max(d, 2) / eps1)
    mprime_nom = max(1, (9 * k) // 10)
    m_v_nom = C_RESCALE * _clog2(mprime_nom / eps1)
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
    if k > n:
        raise ParamError("k", f"min-entropy {k} exceeds the source width {n}")
    nominal = _nominal_plan(n, k, d, eps, rescale)
    eps1 = nominal.eps1

    # implemented widths (affine chain family)
    adv = plan_adv_gen(n, d, eps1)
    L = adv.advice_len
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
    return NmExtParams(adv=adv, ff=ff, d_z=d_z, nipm=nipm, nominal=nominal)


def micro_params() -> NmExtParams:
    """Oracle-scale pipeline: 16-bit source, 16-bit seed, 1-bit output,
    eps = 0.05.

    Built by hand because the general planner floors every width at 8
    bits; the micro widths keep exhaustive tamper enumeration feasible.
    """
    n, d, eps = 16, 16, 0.05
    adv = plan_adv_gen(n, d, eps)
    levels = (LevelPlan(ell=4, m_in=4, w=2, m_out=2, d_slice=4),
              LevelPlan(ell=4, m_in=2, w=1, m_out=1, d_slice=8))
    nipm = hand_plan(adv.advice_len, 1, levels)    # L = 10
    ff = FlipFlopParams(n=n, d_y=16, w=8, m_out=8)
    return NmExtParams(adv=adv, ff=ff, d_z=8, nipm=nipm,
                       nominal=_nominal_plan(n, 12, d, eps, "linear"))


def desk_params() -> NmExtParams:
    """Protocol-scale pipeline used by the privacy-amplification bench:
    1024-bit source with 768 bits of entropy, 512-bit seed, 32-bit
    output, eps = 2^-8."""
    return plan_params(n=1024, k=768, d=512, m=32, eps=2 ** -8)


def nm_ext(x: BitString, y: BitString, p: NmExtParams) -> BitString:
    """Non-malleable extraction of x with seed y."""
    if x.n != p.n or y.n != p.d:
        raise ValueError("input width mismatch")
    advice = adv_gen_val(x.val, y.val, p.adv)
    bits = [(advice >> i) & 1 for i in range(p.adv.advice_len - 1, -1, -1)]
    if p.symbols16:
        return BitString(*_nm_ext16(x.val, y.val, bits, p))
    y1 = y.val >> (p.d - p.d1)
    # row i depends on i only through the advice bit alpha_i, so each
    # distinct bit's row is built once (and refreshed once by the merger)
    row = flip_flop_vals(x.val, y1, dict.fromkeys(bits), p.ff)
    return BitString(*merge_rows_val([row[b] for b in bits], y.val, p.ipm))


def _nm_ext16(x: int, y: int, bits: list[int], p: NmExtParams
              ) -> tuple[int, int]:
    """``nm_ext`` after the advice, for params with ``symbols16`` set:
    x and y become GF(2^16) symbols once, and the flip-flop, the
    bootstrap, the refresh and merger level 0 run as ``affine16`` laws
    on symbol arrays, both advice bits' rows at once in (2, symbols)
    arrays whatever the advice.  Level 0 gathers its rows by advice bit
    and runs ``nipm.chain16`` on its full blocks; a ragged last block
    and the later levels run on ints.  Returns (width, value)."""
    import numpy as np

    ff, ipm, lv = p.ff, p.ipm, p.nipm.levels[0]
    log = gf2.np_tables(16)[0]

    def law(z, s):
        # the affine law of the source z folded to 2m bits, seed s
        k = z.shape[-1] // 2
        return affine16(log.take(z[..., :k]), s, z[..., k:])

    sym = np.frombuffer(x.to_bytes(p.n // 8, "big")
                        + y.to_bytes(p.d // 8, "big"), dtype=">u2")
    sym = sym.astype(np.uint16)
    xs, ys = sym[:p.n // 16], sym[p.n // 16:]
    # flip-flop: key 0 is Ext_tok(s1, r1) and key 1 is Ext_y(y1, r1)
    s1 = ys[:ff.w // 16]
    r1 = law(fold16(xs, 2 * ff.w), s1)
    keys = law(np.concatenate((fold16(s1, 2 * ff.w),
                               fold16(ys[:p.d1 // 16], 2 * ff.w))
                              ).reshape(2, -1), r1)
    rows = law(fold16(xs, 2 * ff.m_out), keys[:, :ff.m_out // 16])
    # bootstrap z keyed by row 0, then refresh both rows keyed by z
    z = law(fold16(ys, 2 * ipm.d_z), rows[bits[0], :ipm.d_z // 16])
    fresh = law(fold16(rows, 2 * ipm.m_v), z[:ipm.m_v // 16])
    z_int = _sym_int(z)
    nw, nm, ell = lv.w // 16, lv.m_out // 16, lv.ell
    chains = len(bits) // ell
    out = []
    if chains:
        z_src = fold16(z[:lv.d_slice // 16], 2 * lv.w)
        blocks = fresh[np.array(bits[:chains * ell]).reshape(chains, ell)]
        mid = fold16(blocks[:, 1:-1], 2 * lv.w)
        last = fold16(blocks[:, -1], 2 * lv.m_out)
        merged = chain16(log.take(z_src[:nw]), z_src[nw:],
                         blocks[:, 0, :nw], log.take(mid[..., :nw]),
                         mid[..., nw:], log.take(last[:, :nm]), last[:, nm:])
        data, step = merged.astype(">u2").tobytes(), 2 * nm
        out = [int.from_bytes(data[i:i + step], "big")
               for i in range(0, len(data), step)]
    rest = bits[chains * ell:]
    if rest:
        fresh_int = [_sym_int(row) for row in fresh]
        out += _lockstep_level([fresh_int[b] for b in rest],
                               z_int >> (ipm.d_z - lv.d_slice), lv)
    if len(out) == 1:
        return lv.m_out, out[0]
    return recursive_nipm_val(out, lv.m_out, z_int, ipm.d_z, p.nipm, start=1)


def _sym_int(a) -> int:
    """The int whose big-endian 16-bit symbols are the array a."""
    return int.from_bytes(a.astype(">u2").tobytes(), "big")
