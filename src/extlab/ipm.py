"""Independence-preserving merging with a weak seed.

The seed Y is only guaranteed min-entropy, not uniformity, so the
merger first bootstraps: a slice of the first row seeds an extraction
from Y, giving a near-uniform string z; a slice of z re-extracts every
row; the refreshed rows are merged by the recursive merger seeded with
z itself.  A single Y is shared by all tampered copies.

``merge_rows_val`` is the one bootstrap-and-merge body, on plain ints.
``ipm_weak`` checks widths, runs it on any sequence of ``BitString``
rows and wraps the result in a ``BitString``.  The non-malleable
extractor, ``nmx.nm_ext``, calls it on its flip-flop rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .bits import BitString
from .nipm import NipmParams, ParamError, recursive_nipm_val
from .sext import ExtScheme, affine_scheme, ext_val


@dataclass(frozen=True)
class IpmParams:
    n_y: int        # weak seed length
    k_y: int        # weak seed min-entropy floor
    m: int          # row width
    d_z: int        # width of the bootstrap extraction z (0.8 * k_y capped)
    nipm: NipmParams

    def __post_init__(self) -> None:
        if self.d_z > self.m:
            raise ParamError("d_z", "bootstrap slice exceeds row width")
        if self.m_v > self.d_z:  # and so m_v <= d_z <= m
            raise ParamError("m_v", "refresh slice exceeds z")

    @property
    def m_v(self) -> int:
        """Refreshed row width, and the slice of z refreshing them."""
        return self.nipm.levels[0].m_in

    def scheme_boot(self) -> ExtScheme:
        return affine_scheme(self.n_y, self.d_z)


def micro_ipm(L: int, t: int, m: int, n_y: int, k_y: int, d_z: int,
              nipm: NipmParams) -> IpmParams:
    """Oracle-scale parameters without the 8-bit planner floors."""
    if L != nipm.L:
        raise ParamError("L", f"{L} rows, but the merger takes {nipm.L}")
    if t != nipm.t:
        raise ParamError("t", f"t = {t}, but the merger has t = {nipm.t}")
    return IpmParams(n_y=n_y, k_y=k_y, m=m, d_z=d_z, nipm=nipm)


def ipm_weak(rows: Sequence[BitString], y: BitString, p: IpmParams
             ) -> BitString:
    vals = [r.val for r in rows if r.n == p.m]
    if len(vals) != len(rows):
        raise ValueError("row width mismatch")
    if not vals:
        raise ValueError("no rows")
    if y.n != p.n_y:
        raise ValueError("seed width mismatch")
    return BitString(*merge_rows_val(vals, y.val, p))


def merge_rows_val(rows: Sequence[int], y: int, p: IpmParams
                   ) -> tuple[int, int]:
    """Bootstrap z from y keyed by the first row, refresh every row keyed
    by a slice of z, and merge the refreshed rows seeded by z, on ints:
    p.m-bit rows and the p.n_y-bit seed y.  Returns the merged row as
    (width, value).  Equal rows refresh to equal rows, so each distinct
    row is refreshed once."""
    z = ext_val(p.scheme_boot(), y, rows[0] >> (p.m - p.d_z))
    v = z >> (p.d_z - p.m_v)
    refresh = affine_scheme(p.m, p.m_v)
    fresh = {r: ext_val(refresh, r, v) for r in dict.fromkeys(rows)}
    return recursive_nipm_val([fresh[r] for r in rows], p.m_v, z, p.d_z,
                              p.nipm.levels)
