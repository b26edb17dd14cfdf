"""Independence-preserving mergers built on look-ahead extraction.

``lt_nipm`` merges up to ell rows against t tampered row/seed pairs in
one look-ahead chain.  ``recursive_nipm`` stacks levels of lt_nipm to
merge L rows with geometrically growing seed slices.

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

from .altx import ChainParams, look_ahead
from .bits import BitString, RowMatrix, slice_bits
from .sext import avg_case_bound

DEFAULT_C = 4  # planner constant for the c * ell * log(m/eps) overhead


class ParamError(ValueError):
    """A named parameter constraint failed."""

    def __init__(self, name: str, detail: str):
        self.name = name
        super().__init__(f"{name}: {detail}")


def _clog2(x: float) -> int:
    return max(1, math.ceil(math.log2(x)))


@dataclass(frozen=True)
class LevelPlan:
    ell: int       # fan-in at this level
    m_in: int      # row width entering the level
    w: int         # chain token width
    m_out: int     # merged row width leaving the level
    d_slice: int   # prefix of the seed source visible to this level

    def chain(self) -> ChainParams:
        return ChainParams(self.w, self.m_in, self.d_slice, self.m_out)


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


def nominal_m1(m: int, ell: int, t: int, eps: float, c: int = DEFAULT_C) -> int:
    """Nominal merged output length (0.9/t)*(m - c*(t+1)*ell*log(m/eps));
    the t=1 case reduces to 0.9*(m - c*ell*log(m/eps))."""
    overhead = c * (t + 1) * ell * _clog2(m / eps)
    return math.floor((0.9 / t) * (m - overhead))


def nominal_schedule(L: int, ell: int, t: int, m: int, eps: float,
                     d_prime: int = 0, c: int = DEFAULT_C
                     ) -> tuple[int, list[int], list[int], float]:
    """(r, m_i list, d_i list, total error) for the recursive merger."""
    if ell < 2:
        raise ParamError("ell", "fan-in must be at least 2")
    r = math.ceil(math.log(L) / math.log(ell)) if L > 1 else 1
    logterm = _clog2(m / eps)
    d1 = d_prime + _clog2(1 / eps) + c * (t + 1) * ell * logterm
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
              ell: int | None = None, m_target: int | None = None,
              c: int = DEFAULT_C) -> NipmParams:
    """Plan a recursive (L, ell, t) merger over m-bit rows with a d-bit
    seed source.  Implemented widths follow the affine chain family
    (token width = level output width); nominal fields record the
    abstract schedule."""
    if L < 1:
        raise ParamError("L", "need at least one row")
    if ell is None:
        ell = 1 << math.ceil(math.sqrt(max(1, math.ceil(math.log2(max(L, 2))))))
        ell = min(max(ell, 2), max(L, 2))
    r, m_nom, d_nom, err = (nominal_schedule(L, ell, t, m, eps, c=c)
                            if L > 1 else (1, [m], [8], c * eps))

    # implemented: shrink rows by half per level so every chain stays
    # inside its row; floor at 8 bits
    levels: list[LevelPlan] = []
    m_in = m
    remaining = L
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
        remaining = math.ceil(remaining / ell)
    if levels[-1].d_slice > d:
        raise ParamError("d", "seed source shorter than final slice")
    return NipmParams(L=L, t=t, levels=tuple(levels), eps=eps, c=c,
                      m1_nominal=nominal_m1(m, ell, t, eps, c),
                      m_nominal=tuple(m_nom), d_nominal=tuple(d_nom),
                      error_nominal=err)


def hand_plan(L: int, t: int, levels: Sequence[LevelPlan],
              eps: float = 0.05) -> NipmParams:
    """A merger over hand-picked levels (micro widths below the planner's
    8-bit floors), its nominal fields derived from those levels."""
    c = DEFAULT_C
    return NipmParams(L=L, t=t, levels=tuple(levels), eps=eps, c=c,
                      m1_nominal=nominal_m1(levels[0].m_in, levels[0].ell,
                                            t, eps, c),
                      m_nominal=tuple(lv.m_out for lv in levels),
                      d_nominal=tuple(lv.d_slice for lv in levels),
                      error_nominal=min(2.0 * c * L * eps, 1.0))


def lt_nipm(rows: Sequence[BitString], y: BitString, lp: LevelPlan
            ) -> BitString:
    """Merge up to lp.ell rows with one look-ahead chain seeded from y."""
    if len(rows) > lp.ell:
        raise ValueError("too many rows for this level")
    return look_ahead(tuple(rows), slice_bits(y, lp.d_slice), lp.chain())


def recursive_nipm(mat: RowMatrix, y: BitString, params: NipmParams
                   ) -> BitString:
    """Merge an L-row matrix level by level with lt_nipm."""
    rows: Sequence[BitString] = mat.rows
    for lv in params.levels:
        nxt: list[BitString] = []
        for i in range(0, len(rows), lv.ell):
            block = rows[i:i + lv.ell]
            if len(block) == 1:
                # a leftover short block is carried through unmerged,
                # trimmed to the level's output width
                nxt.append(slice_bits(block[0], lv.m_out))
            else:
                nxt.append(lt_nipm(block, y, lv))
        rows = nxt
        if len(rows) == 1:
            break
    if len(rows) != 1:
        raise ValueError("level schedule did not reduce to one row")
    return rows[0]


def assembled_bound(params: NipmParams, k_row: float, k_seed: float,
                    row_slack: Fraction = Fraction(0),
                    witness_slack: Fraction = Fraction(0)) -> Fraction:
    """Error budget for the merger on an instance whose rows carry k_row
    bits of conditional min-entropy and whose seed source carries k_seed.

    Mirrors the per-step ledger: each chain step conditions all prior
    tokens across the t+1 copies (average conditional entropy drops by
    the revealed widths), and each extraction contributes its
    average-case leftover-hash error.  Row closeness and witness slack
    enter once per row / once per instance.
    """
    t = params.t
    total = witness_slack
    ky, kr = k_seed, k_row
    for lv in params.levels:
        eps_level = Fraction(0)
        chain = lv.chain()
        ky_lvl, kr_lvl = ky, kr
        for j in range(1, lv.ell):
            ky_lvl -= (t + 1) * lv.w          # tokens S_j revealed
            eps_level += avg_case_bound(chain.scheme_seed_src(),
                                        max(ky_lvl, 0))
            kr_step = kr_lvl - (t + 1) * lv.w  # tokens R_j revealed
            scheme = (chain.scheme_final() if j == lv.ell - 1
                      else chain.scheme_row())
            eps_level += avg_case_bound(scheme, max(kr_step, 0))
        eps_level += lv.ell * row_slack
        total = lv.ell * total + eps_level
        kr = lv.m_out  # merged rows at most this wide
        ky -= (t + 1) * 2 * lv.w * (lv.ell - 1)
    return min(total, Fraction(1))
