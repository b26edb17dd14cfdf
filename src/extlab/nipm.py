"""Independence-preserving mergers built on look-ahead extraction.

``lt_nipm`` merges up to ell rows in one look-ahead chain: one block of
the level body, ``_merge_level``, with ``BitString`` ends.
``recursive_nipm`` merges L rows with geometrically growing seed slices,
running each level's chains on plain ints (``recursive_nipm_val``), one
block at a time in pure Python at every width; ``altx.look_ahead`` is
the ``BitString`` reference both are tested against.  ``chain16`` is the
same chain on numpy arrays of GF(2^16) symbols, all blocks at once: only
``nmx.nm_ext``'s symbol path runs it, on its level-0 blocks.

Planners emit the nominal parameter schedule (output lengths and errors
as stated for the abstract construction, with all logs ceiled) next to
the widths actually used by the implemented hash family, and refuse
infeasible requests with named errors instead of degrading silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .altx import LevelPlan
from .bits import BitString, RowMatrix
from .sext import affine16, affine_int, avg_case_bound, fold

DEFAULT_C = 4  # planner constant for the c * ell * log(m/eps) overhead


class ParamError(ValueError):
    """A named parameter constraint failed."""

    def __init__(self, name: str, detail: str):
        self.name = name
        super().__init__(f"{name}: {detail}")


def _clog2(x: float) -> int:
    """ceil(log2 x), at least 1, of a ratio x over eps (inf: eps too small)."""
    if x == math.inf:
        raise ParamError("eps", "too small: a log term overflows")
    return max(1, math.ceil(math.log2(x)))


@dataclass(frozen=True)
class NipmParams:
    L: int
    t: int
    levels: tuple[LevelPlan, ...]
    # nominal schedule (abstract construction, ceiled logs)
    eps: float
    c: int
    m1_nominal: int
    m_nominal: tuple[int, ...]
    d_nominal: tuple[int, ...]
    error_nominal: float

    @property
    def r(self) -> int:
        return len(self.levels)

    @property
    def m_out(self) -> int:
        return self.levels[-1].m_out

    @property
    def d_min(self) -> int:
        return max(lv.d_slice for lv in self.levels)


def nominal_m1(m: int, ell: int, t: int, eps: float) -> int:
    """Nominal merged output length (0.9/t)*(m - c*(t+1)*ell*log(m/eps))
    with c = DEFAULT_C; the t=1 case reduces to 0.9*(m - c*ell*log(m/eps))."""
    overhead = DEFAULT_C * (t + 1) * ell * _clog2(m / eps)
    return math.floor((0.9 / t) * (m - overhead))


def nominal_schedule(L: int, ell: int, t: int, m: int, eps: float
                     ) -> tuple[int, list[int], list[int], float]:
    """(r, m_i list, d_i list, total error) for the recursive merger."""
    if ell < 2:
        raise ParamError("ell", "fan-in must be at least 2")
    c = DEFAULT_C
    r = math.ceil(math.log(L) / math.log(ell)) if L > 1 else 1
    logterm = _clog2(m / eps)
    d1 = _clog2(1 / eps) + c * (t + 1) * ell * logterm
    d = [d1 * (t + 2) ** i for i in range(r)]
    m_i = [math.floor((0.9 ** i) * (m - i * c * (t + 1) * ell * logterm))
           for i in range(1, r + 1)]
    # per-level error eps_i = ell * eps_{i-1} + c' * ell * eps, c' folded to c
    err = 0.0
    for _ in range(r):
        err = ell * err + c * ell * eps
    err = min(err, 2.0 * c * L * eps)
    return r, m_i, d, err


def plan_nipm(L: int, t: int, m: int, d: int, eps: float,
              ell: int | None = None, m_target: int | None = None
              ) -> NipmParams:
    """Plan a recursive (L, ell, t) merger over m-bit rows with a d-bit
    seed source.  Implemented widths follow the affine chain family
    (token width = level output width); nominal fields record the
    abstract schedule."""
    if L < 1:
        raise ParamError("L", "need at least one row")
    if ell is None:
        ell = 1 << math.ceil(math.sqrt(max(1, math.ceil(math.log2(max(L, 2))))))
        ell = min(max(ell, 2), max(L, 2))
    elif ell < 2:
        raise ParamError("ell", "fan-in must be at least 2")
    r, m_nom, d_nom, err = (nominal_schedule(L, ell, t, m, eps)
                            if L > 1 else (1, [m], [8], DEFAULT_C * eps))

    # implemented: shrink rows by half per level so every chain stays
    # inside its row; floor at 8 bits
    levels: list[LevelPlan] = []
    m_in = m
    for i in range(r):
        m_out = m_target if (m_target and i == r - 1) else max(m_in // 2, 8)
        if m_out < 8:
            raise ParamError("m_i", f"level {i} output {m_out} below 8 bits")
        if m_out > m_in:
            raise ParamError("m_i", "level output exceeds row width")
        d_slice = min(d, max(8, 2 * m_out) * (t + 2) ** i)
        if d_slice < max(8, m_out):
            raise ParamError("d_i", f"seed slice {d_slice} too narrow")
        levels.append(LevelPlan(ell, m_in, m_out, m_out, d_slice))
        m_in = m_out
    if levels[-1].d_slice > d:
        raise ParamError("d", "seed source shorter than final slice")
    return NipmParams(L=L, t=t, levels=tuple(levels), eps=eps, c=DEFAULT_C,
                      m1_nominal=nominal_m1(m, ell, t, eps),
                      m_nominal=tuple(m_nom), d_nominal=tuple(d_nom),
                      error_nominal=err)


def hand_plan(L: int, t: int, levels: Sequence[LevelPlan]) -> NipmParams:
    """A merger over hand-picked levels (micro widths below the planner's
    8-bit floors) at eps = 0.05, its nominal fields derived from those
    levels."""
    eps, c = 0.05, DEFAULT_C
    return NipmParams(L=L, t=t, levels=tuple(levels), eps=eps, c=c,
                      m1_nominal=nominal_m1(levels[0].m_in, levels[0].ell,
                                            t, eps),
                      m_nominal=tuple(lv.m_out for lv in levels),
                      d_nominal=tuple(lv.d_slice for lv in levels),
                      error_nominal=min(2.0 * c * L * eps, 1.0))


def lt_nipm(rows: Sequence[BitString], y: BitString, lp: LevelPlan
            ) -> BitString:
    """Merge up to lp.ell rows with one look-ahead chain seeded from y:
    ``_merge_level`` on one block, with look_ahead's errors.  One row is
    look_ahead's wide extraction, where the level body carries it."""
    d, m_in, m_out = lp.d_slice, lp.m_in, lp.m_out
    if len(rows) > lp.ell:
        raise ValueError("too many rows for this level")
    if not 0 <= d <= y.n:
        raise ValueError(f"slice width {d} out of range for {y.n} bits")
    if not rows:
        raise ValueError("no rows")
    if any(row.n != m_in for row in rows):
        raise ValueError("row width mismatch")
    w_src = y.val >> (y.n - d)
    if len(rows) > 1:
        return BitString(m_out, _merge_level([r.val for r in rows], w_src,
                                             lp)[0])
    if m_out > d:
        raise ValueError(f"slice width {m_out} out of range for {d} bits")
    z = fold(rows[0].val, m_in, 2 * m_out)
    return BitString(m_out, affine_int(m_out, z, w_src >> (d - m_out)))


def recursive_nipm(mat: RowMatrix, y: BitString, params: NipmParams
                   ) -> BitString:
    """Merge an L-row matrix level by level; every level runs one
    look-ahead chain per block of rows (``_merge_level``)."""
    return BitString(*recursive_nipm_val([r.val for r in mat.rows], mat.m,
                                         y.val, y.n, params.levels))


def recursive_nipm_val(rows: Sequence[int], m: int, y: int, y_n: int,
                       levels: Sequence[LevelPlan]) -> tuple[int, int]:
    """``recursive_nipm`` on ints: rows of m bits and a y_n-bit seed y,
    merged by ``levels`` in turn until one row is left (``nmx.nm_ext``'s
    symbol path runs level 0 itself on GF(2^16) symbols and passes the
    rest).  Returns the merged row as (width, value)."""
    for lv in levels:
        if m != lv.m_in:
            raise ValueError("row width mismatch")
        if lv.d_slice > y_n:
            raise ValueError(f"slice width {lv.d_slice} out of range for "
                             f"{y_n} bits")
        rows, m = _merge_level(rows, y >> (y_n - lv.d_slice), lv), lv.m_out
        if len(rows) == 1:
            break
    if len(rows) != 1:
        raise ValueError("level schedule did not reduce to one row")
    return m, rows[0]


def _merge_level(rows: Sequence[int], w_src: int, lp: LevelPlan
                 ) -> list[int]:
    """One level over lp.m_in-bit rows, keyed by the lp.d_slice-bit seed
    slice w_src: one look-ahead chain of ``affine_int`` calls per block
    of lp.ell rows.  Same outputs as lt_nipm block by block; a leftover
    one-row block is carried through, trimmed to m_out."""
    w, m_in, m_out = lp.w, lp.m_in, lp.m_out
    z_src = fold(w_src, lp.d_slice, 2 * w)
    out = []
    for lo in range(0, len(rows), lp.ell):
        block = rows[lo:lo + lp.ell]
        if len(block) == 1:
            out.append(block[0] >> (m_in - m_out))
            continue
        s = block[0] >> (m_in - w)
        for row in block[1:-1]:
            s = affine_int(w, fold(row, m_in, 2 * w), affine_int(w, z_src, s))
        r = affine_int(w, z_src, s) >> (w - m_out)
        out.append(affine_int(m_out, fold(block[-1], m_in, 2 * m_out), r))
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


def assembled_bound(params: NipmParams, k_row: float, k_seed: float
                    ) -> Fraction:
    """Error budget for the merger on an instance whose rows carry k_row
    bits of conditional min-entropy and whose seed source carries k_seed.

    Mirrors the per-step ledger: each chain step conditions all prior
    tokens across the t+1 copies (average conditional entropy drops by
    the revealed widths), and each extraction contributes its
    average-case leftover-hash error.
    """
    t = params.t
    total = Fraction(0)
    ky, kr = k_seed, k_row
    for lv in params.levels:
        eps_level = Fraction(0)
        ky_lvl, kr_lvl = ky, kr
        for j in range(1, lv.ell):
            ky_lvl -= (t + 1) * lv.w          # tokens S_j revealed
            eps_level += avg_case_bound(lv.scheme_seed_src(),
                                        max(ky_lvl, 0))
            kr_step = kr_lvl - (t + 1) * lv.w  # tokens R_j revealed
            scheme = (lv.scheme_final() if j == lv.ell - 1
                      else lv.scheme_row())
            eps_level += avg_case_bound(scheme, max(kr_step, 0))
        total = lv.ell * total + eps_level
        kr = lv.m_out  # merged rows at most this wide
        ky -= (t + 1) * 2 * lv.w * (lv.ell - 1)
    return min(total, Fraction(1))
