"""Per-layer call counts and self time, measured from outside the program.

``Tracer.install`` wraps the public functions of each ``extlab`` layer and
puts the wrapper in every ``extlab`` module namespace that holds the
function, so calls between modules and inside a module both go through it.
``src/`` is not modified; ``uninstall`` restores every binding.

A span's self time is its duration minus the time of the spans it called.
Spans live on one stack in memory, because a run is one thread.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from functools import wraps

from extlab import altx, cbreak, gf2, ipm, msrc, nipm, nmx, pamp, prob, \
    sext, verify

_clock = time.perf_counter


def _ext_key(args, kwargs) -> str:
    scheme = args[0]
    if scheme.family == "poly":
        return "sext.ext.poly"
    # the numpy lane path of sext._ext_affine
    if scheme.block == 16 and scheme.m_out >= 128:
        return "sext.ext.affine_wide"
    return "sext.ext.affine"


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.root_s = 0.0          # time covered by outermost spans
        self.cells = 0             # lattice cells merger_distance enumerated
        self._stack: list[float] = []   # child time of each open span
        self._levels: list[tuple] = []  # level plans of open recursive_nipm
        self._saved: list[tuple] = []

    # ------------------------------------------------------------ spans

    def _span(self, fn, key):
        """Timed wrapper; ``key`` is a name or a function of the args."""
        keyed = callable(key)

        @wraps(fn)
        def span(*args, **kwargs):
            name = key(args, kwargs) if keyed else key
            stack = self._stack
            stack.append(0.0)
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                self.calls[name] += 1
                self.self_s[name] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
                else:
                    self.root_s += dt
        return span

    def _count(self, fn, name):
        """Count-only wrapper, for calls too short to time without
        distorting their callers."""
        calls = self.calls

        @wraps(fn)
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _recursive_nipm(self, fn):
        span = self._span(fn, "nipm.recursive_nipm")

        @wraps(fn)
        def wrapper(mat, y, params):
            self._levels.append(params.levels)
            try:
                return span(mat, y, params)
            finally:
                self._levels.pop()
        return wrapper

    def _lt_key(self, args, kwargs) -> str:
        lp = args[2] if len(args) > 2 else kwargs["lp"]
        levels = self._levels[-1] if self._levels else (lp,)
        return f"nipm.lt_nipm.L{levels.index(lp) if lp in levels else 0}"

    def _with_callback(self, fn, name, cells=None):
        """Span for an oracle whose first argument is a benchmark-supplied
        callback; the callback gets its own span so the oracle's self time
        excludes it.  ``cells`` counts the lattice cells of an instance."""
        span = self._span(fn, name)
        cb_name = name + ".callback"

        @wraps(fn)
        def wrapper(cb, arg, *rest, **kwargs):
            if cells:
                self.cells += cells(arg)
            return span(self._span(cb, cb_name), arg, *rest, **kwargs)
        return wrapper

    # ------------------------------------------------------- installing

    def wrappers(self) -> dict:
        """original function -> wrapper, for every traced layer entry."""
        s = self._span
        run_key = lambda a, k: f"pamp.run_protocol.{a[3].name}"
        return {
            sext.ext: s(sext.ext, _ext_key),
            sext.ext_all_seeds_poly: s(sext.ext_all_seeds_poly,
                                       "sext.ext_all_seeds_poly"),
            gf2.mul: self._count(gf2.mul, "gf2.mul"),
            gf2.poly_eval: s(gf2.poly_eval, "gf2.poly_eval"),
            altx.look_ahead: s(altx.look_ahead, "altx.look_ahead"),
            nipm.lt_nipm: s(nipm.lt_nipm, self._lt_key),
            nipm.recursive_nipm: self._recursive_nipm(nipm.recursive_nipm),
            ipm.ipm_weak: s(ipm.ipm_weak, "ipm.ipm_weak"),
            cbreak.adv_gen: s(cbreak.adv_gen, "cbreak.adv_gen"),
            cbreak.flip_flop: s(cbreak.flip_flop, "cbreak.flip_flop"),
            nmx.nm_ext: s(nmx.nm_ext, "nmx.nm_ext"),
            pamp.run_protocol: s(pamp.run_protocol, run_key),
            pamp.mac_tag: s(pamp.mac_tag, "pamp.mac_tag"),
            msrc.reduce_bits: s(msrc.reduce_bits, "msrc.reduce_bits"),
            msrc.majority: s(msrc.majority, "msrc.majority"),
            verify.merger_distance: self._with_callback(
                verify.merger_distance, "verify.merger_distance",
                lambda inst: 1 << (inst.lat_x_bits + inst.d)),
            verify.nm_distance: self._with_callback(
                verify.nm_distance, "verify.nm_distance"),
            verify.strong_distance_poly_fast: s(
                verify.strong_distance_poly_fast,
                "verify.strong_distance_poly_fast"),
            prob.flat: s(prob.flat, "prob.flat"),
            prob.sample_flat_source: s(prob.sample_flat_source,
                                       "prob.sample_flat_source"),
            prob.stat_distance_maps: s(prob.stat_distance_maps,
                                       "prob.stat_distance_maps"),
        }

    def install(self) -> None:
        for original, wrapper in self.wrappers().items():
            self._saved += patch_everywhere(original, wrapper)
        gen = msrc.SyntheticGenerator
        self._saved.append((gen, "matrices", gen.matrices))
        gen.matrices = self._span(gen.matrices, "msrc.matrices")

    def uninstall(self) -> None:
        restore(self._saved)
        self._saved = []


def _extlab_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "extlab"
                                  or name.startswith("extlab."))]


def patch_everywhere(original, replacement) -> list[tuple]:
    """Bind ``replacement`` wherever an extlab module holds ``original``;
    returns the bindings for ``restore``."""
    saved = []
    for mod in _extlab_modules():
        for attr, val in list(vars(mod).items()):
            if val is original:
                saved.append((mod, attr, val))
                setattr(mod, attr, replacement)
    return saved


def restore(saved: list[tuple]) -> None:
    for owner, attr, val in reversed(saved):
        setattr(owner, attr, val)
