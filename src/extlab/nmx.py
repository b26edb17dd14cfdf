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
A plan (``NmExtParams``) stores only the advice, the merger and the
nominal schedule; the flip-flop and the weak-seed merger are derived
(token, rows and z are twice the merger's row width).  When n, d and
level 0's token are multiples of 16 and level 0 folds its rows by
identity (``NmExtParams.symbols16``, a ``SymbolPlan``; desk among them),
those stages run on GF(2^16) symbol arrays instead, both rows at once
(``_nm_ext16``), and numpy runs there only: its kernels are the block-16
affine law ``affine16``, the fold ``fold16`` and level 0's chains
``chain16``.  The int stages are pure Python at every width, the path of
every other plan and the reference the symbol path is tested against.

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
from .nipm import LevelPlan, NipmParams, ParamError, _at_least_1, \
    _clog2, _merge_level, _positive_eps, hand_plan, plan_nipm, \
    recursive_nipm_val

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
class SymbolPlan:
    """The symbol path of a plan, widths in GF(2^16) symbols.  Each law
    folds its source to twice its output by ``sext.fold``'s rule, read
    off the widths: x to 2w (r1 and the rows), y1 to 2w (key 1; key 0 is
    s1, padded) and y to 2w (z).  A source no wider than twice the
    output pads, so its u half's logs come from the one gather of x and
    y; a wider one XOR-folds."""
    nx: int          # x
    ny: int          # y
    w: int           # flip-flop token, rows and z; refreshed rows: w / 2
    d1: int          # the slice y1 of y
    top: int         # advice >> top is row 0's advice bit
    chains: int      # level 0's full blocks, of ell rows each
    rest: int        # rows of level 0's ragged last block
    shifts: object   # (chains, ell): advice >> shifts & 1 picks the rows


def _symbol_plan(p: "NmExtParams") -> SymbolPlan | None:
    """``p``'s symbol path, or None if it has none: n, d or level 0's
    chain token w is not a multiple of 16, or level 0 folds a row other
    than by identity (m_in = d_slice = 2w = 2 m_out; every
    ``plan_params`` plan does).  Every other width follows from these."""
    lv = p.nipm.levels[0]
    if (p.n % 16 or p.d % 16 or lv.w % 16
            or not lv.m_in == lv.d_slice == 2 * lv.w == 2 * lv.m_out):
        return None
    import numpy as np

    L, ell = p.adv.advice_len, lv.ell
    chains = L // ell
    return SymbolPlan(
        p.n // 16, p.d // 16, p.ff.w // 16, p.d1 // 16, top=L - 1,
        chains=chains, rest=L - chains * ell,
        shifts=(L - 1 - np.arange(chains * ell)).reshape(chains, ell))


@dataclass(frozen=True)
class NmExtParams:
    """A plan of the pipeline: the advice, the recursive merger of the
    refreshed rows and the nominal schedule.  The rest is derived: the
    flip-flop token, its rows and the bootstrap z are all w = 2 m_v
    wide, m_v the merger's row width, and y1 is min(d, 2w) wide."""
    adv: AdvGenParams
    nipm: NipmParams          # recursive merger of the refreshed rows
    nominal: NominalPlan
    # flip-flop over x and the slice y1 of y (derived)
    ff: FlipFlopParams = field(init=False, repr=False, compare=False)
    # weak-seed merger of the flip-flop rows, seeded by y (derived)
    ipm: IpmParams = field(init=False, repr=False, compare=False)
    # nm_ext runs the flip-flop through merger level 0 on GF(2^16)
    # symbols by this plan, or on ints if None (derived)
    symbols16: SymbolPlan | None = field(init=False, repr=False,
                                         compare=False)

    def __post_init__(self) -> None:
        w = 2 * self.nipm.levels[0].m_in
        if w > self.n:
            raise ParamError("m_ff", "flip-flop rows wider than the source")
        if self.nipm.d_min > w:
            raise ParamError("d", "merger seed slices exceed z")
        object.__setattr__(self, "ff", FlipFlopParams(
            n=self.n, d_y=min(self.d, 2 * w), w=w, m_out=w))
        object.__setattr__(self, "ipm", IpmParams(
            n_y=self.d, k_y=self.d, m=w, d_z=w, nipm=self.nipm))
        object.__setattr__(self, "symbols16", _symbol_plan(self))

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
    _positive_eps(eps)
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
    ell_nom = 1 << math.ceil(math.sqrt(math.log2(L_nom)))
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
    _at_least_1(n=n, m=m, t=t)
    if k > n:
        raise ParamError("k", f"min-entropy {k} exceeds the source width {n}")
    nominal = _nominal_plan(n, k, d, eps, rescale)
    eps1 = nominal.eps1

    # implemented widths (affine chain family)
    adv = plan_adv_gen(n, d, eps1)
    L = adv.advice_len
    ell_impl = 4
    r_impl = math.ceil(math.log(L) / math.log(ell_impl))
    m_v = m << r_impl               # rows halve once per merger level
    if 2 * m_v > d:
        raise ParamError("d1", "seed too short for the flip-flop chain")
    if 2 * m_v > k:
        raise ParamError("k", "flip-flop output exceeds the entropy budget")
    nipm = plan_nipm(L, t, m_v, 2 * m_v, eps1, ell=ell_impl)
    if nipm.m_out != m:             # the halving floors rows at 8 bits
        raise ParamError("m_i", f"level {nipm.r - 1} output {m} below 8 bits")
    return NmExtParams(adv=adv, nipm=nipm, nominal=nominal)


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
    return NmExtParams(adv=adv, nipm=nipm,
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
    if p.symbols16:
        return BitString(*_nm_ext16(x.val, y.val, advice, p))
    bits = [(advice >> i) & 1 for i in range(p.adv.advice_len - 1, -1, -1)]
    y1 = y.val >> (p.d - p.d1)
    # row i depends on i only through the advice bit alpha_i, so each
    # distinct bit's row is built once (and refreshed once by the merger)
    row = flip_flop_vals(x.val, y1, dict.fromkeys(bits), p.ff)
    return BitString(*merge_rows_val([row[b] for b in bits], y.val, p.ipm))


def _nm_ext16(x: int, y: int, advice: int, p: NmExtParams
              ) -> tuple[int, int]:
    """``nm_ext`` after the advice, for params with a ``symbols16`` plan:
    x and y become GF(2^16) symbols once, and their logs one gather; the
    flip-flop, the bootstrap, the refresh and merger level 0 run as
    affine laws on symbol arrays (``_law16``), both advice bits' rows at
    once in (2, symbols) arrays whatever the advice.  Level 0 gathers
    its rows by the advice bits and runs ``chain16`` on its full
    blocks; a ragged last block and the later levels run on ints.
    Returns (width, value)."""
    import numpy as np

    q, lv = p.symbols16, p.nipm.levels[0]
    log, exp = gf2.np_tables(16)
    sym = np.frombuffer(x.to_bytes(2 * q.nx, "big")
                        + y.to_bytes(2 * q.ny, "big"), dtype=">u2")
    sym = sym.astype(np.uint16)
    ls = log.take(sym)
    xs, ys, lx, ly = sym[:q.nx], sym[q.nx:], ls[:q.nx], ls[q.nx:]
    w, mv, nw = q.w, q.w // 2, lv.w // 16
    # flip-flop: r1 = Ext_x(x, s1), key 0 is Ext_tok(s1, r1) = s1 * r1 and
    # key 1 is Ext_y(y1, r1); s1 is y's first w symbols, so it is the u
    # half of both keys, and key 1 adds the v half y1[w:]
    r1 = _law16(xs, lx, w, ly[:w])
    keys = exp.take(ly[:w] + log.take(r1))[None].repeat(2, axis=0)
    if q.d1 > w:
        keys[1, :q.d1 - w] ^= ys[w:q.d1]
    rows = _law16(xs, lx, w, log.take(keys))
    # bootstrap z keyed by row 0, then refresh both rows keyed by z (the
    # rows fold to 2 m_v by identity)
    z = _law16(ys, ly, w, log.take(rows[advice >> q.top]))
    lz = log.take(z[:mv])
    fresh = affine16(lz, rows[:, :mv], rows[:, mv:])
    z_int = _sym_int(z)
    out = []
    if q.chains:
        # level 0 keyed by z's first m_v symbols; every row folds by
        # identity and m_out = w, so one gather gives the u halves of
        # the middle and last rows
        blocks = fresh[(advice >> q.shifts) & 1]
        lb = log.take(blocks[:, 1:, :nw])
        merged = chain16(lz[:nw], z[nw:mv], blocks[:, 0, :nw], lb[:, :-1],
                         blocks[:, 1:-1, nw:], lb[:, -1], blocks[:, -1, nw:])
        data, step = merged.astype(">u2").tobytes(), 2 * nw
        out = [int.from_bytes(data[i:i + step], "big")
               for i in range(0, len(data), step)]
    if q.rest:
        fresh_int = [_sym_int(row) for row in fresh]
        bits = [(advice >> i) & 1 for i in range(q.rest - 1, -1, -1)]
        out += _merge_level([fresh_int[b] for b in bits],
                            z_int >> (p.ipm.d_z - lv.d_slice), lv)
    if len(out) == 1:
        return lv.m_out, out[0]
    return recursive_nipm_val(out, lv.m_out, z_int, p.ipm.d_z,
                              p.nipm.levels[1:])


def _law16(a, la, k: int, lseed):
    """The affine law u * s + v (``affine16``) of the symbols a
    folded to 2k symbols by ``sext.fold``'s rule, keyed by the seed logs
    lseed; la holds a's logs.  An a wider than 2k XOR-folds and takes
    its u half's logs afresh; one no wider pads (or is already 2k), so
    its first k logs are the u half's and any symbols past k start the
    v half."""
    log, exp = gf2.np_tables(16)
    if a.shape[-1] > 2 * k:
        a = fold16(a, 32 * k)
        la = log.take(a[..., :k])
    out = exp.take(la[..., :k] + lseed)
    if a.shape[-1] > k:
        out[..., :a.shape[-1] - k] ^= a[..., k:]
    return out


def chain16(log_z, v_z, s, log_mid, v_mid, log_last, v_last):
    """The look-ahead chains of one block-16 level, all at once on
    (chains, ...) arrays of GF(2^16) symbols through ``affine16``: z_src
    folded to 2w bits (the logs of its u half, and its v half), each
    chain's w-bit start token s, the logs and v halves of its middle
    rows folded to 2w bits, shape (chains, ell - 2, w/16), and of its
    last row folded to 2 * m_out bits.  Returns the (chains, m_out/16)
    outputs."""
    for j in range(log_mid.shape[1]):
        s = affine16(log_mid[:, j], affine16(log_z, s, v_z), v_mid[:, j])
    r = affine16(log_z, s, v_z)[:, :log_last.shape[-1]]
    return affine16(log_last, r, v_last)


def affine16(log_u, s, v):
    """The block-16 affine law u * s + v on numpy arrays of GF(2^16)
    symbols, one gather, add, gather and XOR: log_u holds the
    ``gf2.np_tables(16)`` logs of u, and s and v hold symbols; the three
    broadcast, e.g. over (chains, symbols).  The zero-sentinel tables
    make the law hold at zero symbols with no mask.  The result is
    native-order uint16, so take ``astype(">u2")`` before
    ``tobytes()``."""
    log, exp = gf2.np_tables(16)
    return exp.take(log_u + log.take(s)) ^ v


def fold16(a, width: int):
    """``sext.fold`` on numpy arrays of GF(2^16) symbols: the XOR of
    consecutive ``width``-bit segments along a's last axis (the last
    padded right), for width a multiple of 16, over any leading axes."""
    import numpy as np

    k = width // 16
    pad = -a.shape[-1] % k
    if pad:
        a = np.concatenate((a, np.zeros(a.shape[:-1] + (pad,), a.dtype)), -1)
    if a.shape[-1] == k:
        return a
    return np.bitwise_xor.reduce(
        a.reshape(a.shape[:-1] + (a.shape[-1] // k, k)), axis=-2)


def _sym_int(a) -> int:
    """The int whose big-endian 16-bit symbols are the array a."""
    return int.from_bytes(a.astype(">u2").tobytes(), "big")
