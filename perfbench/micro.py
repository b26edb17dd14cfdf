"""Per-call microbenchmarks for the calls in the ROADMAP per-call table.

They give ``gf2.mul`` a time figure that the traced run cannot measure
without distortion, and pin the costs the workloads are built from.
Each call is timed in batches on fixed inputs; the figure is the median
over batches of the time per call.
"""

from __future__ import annotations

import statistics
import time

from extlab import cbreak, gf2, nmx, pamp, prob, sext
from extlab.bits import BitString, slice_bits

from workloads import rand_bits, rng_for

_PROBE_STREAM = 3


def _per_call(fn, calls: int, batches: int) -> float:
    """Median seconds per call of ``fn()`` over ``batches`` batches."""
    times = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - t0) / calls)
    return statistics.median(times)


def run_all(seed: int) -> dict[str, tuple[float, str]]:
    """Metric name -> (value, unit) for every per-call figure."""
    rng = rng_for(seed, _PROBE_STREAM)
    desk = pamp.make_params(nmx.desk_params())
    micro = nmx.micro_params()
    out = {}
    for b in (8, 16, 32):
        a, c = rand_bits(rng, b) | 1, rand_bits(rng, b) | 1
        out[f"micro.gf2.mul.b{b}_us"] = (
            _per_call(lambda: gf2.mul(a, c, b), 2000, 7) * 1e6, "us")
    n, d = desk.nmx.n, desk.nmx.d
    x = BitString(n, rand_bits(rng, n))
    y = BitString(d, rand_bits(rng, d))
    w = BitString(desk.w_len, rand_bits(rng, desk.w_len))
    out["micro.sext.poly_final_b32_us"] = (
        _per_call(lambda: sext.ext(desk.final, x, w), 20, 7) * 1e6, "us")
    xm = BitString(micro.n, rand_bits(rng, micro.n))
    ym = BitString(micro.d, rand_bits(rng, micro.d))
    out["micro.nmx.nm_ext.micro_ms"] = (
        _per_call(lambda: nmx.nm_ext(xm, ym, micro), 100, 7) * 1e3, "ms")
    out["micro.nmx.nm_ext.desk_ms"] = (
        _per_call(lambda: nmx.nm_ext(x, y, desk.nmx), 10, 7) * 1e3, "ms")
    y1 = slice_bits(y, desk.nmx.d1)
    out["micro.cbreak.flip_flop_desk_us"] = (
        _per_call(lambda: cbreak.flip_flop(x, y1, 1, desk.nmx.ff), 50, 7)
        * 1e6, "us")
    out["micro.cbreak.adv_gen_desk_us"] = (
        _per_call(lambda: cbreak.adv_gen(x, y, desk.nmx.adv), 50, 7)
        * 1e6, "us")
    out["micro.prob.sample_flat_source_12_6_ms"] = (
        _per_call(lambda: prob.sample_flat_source(rng, 12, 6), 4, 5)
        * 1e3, "ms")
    out["micro.prob.sample_flat_source_16_12_ms"] = (
        _per_call(lambda: prob.sample_flat_source(rng, 16, 12), 1, 5)
        * 1e3, "ms")
    return out
