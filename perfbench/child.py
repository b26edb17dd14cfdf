"""One benchmark client: a fresh process that runs one workload in a closed
loop on one thread and prints its measurements as one JSON line.

It prints ``READY`` once extlab is imported, the workload's parameters are
planned, its lazy tables are built and the first op is ready; the parent
times set-up up to that line.  With ``--setup-only`` it then prints the
host kernel's median time over a few runs and exits.

Untraced runs time a fixed op list pass after pass until ``--seconds``
have passed (see ``timed``); an op's latency is the median over the
passes of its time scaled by the host kernel (``hostref``), and the
end-to-end figures are taken over every op.
Traced runs alternate an untraced and a traced pass over a fixed op list
until ``--seconds`` have passed, then time the per-call microbenchmarks.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import micro
import workloads
from hostref import REF_S, host_ref
from tracer import Tracer

EXPECTED = Path(__file__).with_name("expected_digests.json")
# cycles in an untraced run's op list, 0.7-3.5 s of ops on a 2-vCPU host
PASS_CYCLES = {"pa-desk": 9, "exact-micro": 2, "micro-mc": 12}
MIN_PASSES = 3       # an untraced run times each op at least this often
REF_EVERY_S = 0.03   # op time between two runs of the host kernel
SETUP_REF_RUNS = 7   # host kernel runs after set-up in a set-up-only run
# cycles in a traced run's op list; exact-micro needs seven to meet every
# merger spec
TRACE_CYCLES = {"pa-desk": 5, "exact-micro": 7, "micro-mc": 5}

# per-layer metrics: calls and self time, self time only, calls only
CALLS_AND_SELF = (
    "sext.ext.affine_wide", "sext.ext.affine", "sext.ext.poly",
    "gf2.poly_eval", "altx.look_ahead", "nipm.lt_nipm.L0",
    "nipm.lt_nipm.L1", "nipm.lt_nipm.L2", "ipm.ipm_weak", "cbreak.adv_gen",
    "cbreak.flip_flop", "nmx.nm_ext", "pamp.mac_tag")
SELF_ONLY = (
    "sext.ext_all_seeds_poly", "nipm.recursive_nipm",
    "pamp.run_protocol.passive", "pamp.run_protocol.flip2",
    "pamp.run_protocol.flip1", "pamp.run_protocol.table",
    "msrc.reduce_bits", "msrc.matrices", "msrc.majority",
    "verify.merger_distance", "verify.nm_distance",
    "verify.strong_distance_poly_fast", "prob.flat",
    "prob.sample_flat_source", "prob.stat_distance_maps")
CALLS_ONLY = ("gf2.mul",)


class Run:
    """Verdicts and output digests of the ops one client ran.

    An op may run more than once; only its first run counts toward the op
    mix, the run-level gates and the run's digests, and every run goes
    into the digest of the current pass."""

    def __init__(self, wl: workloads.Workload):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.units = 0
        self.mix: dict = {}            # kind -> [ops, units]
        self.inputs = workloads.Digest()
        self.outputs = workloads.Digest()
        self.pass_outputs = workloads.Digest()

    def op(self, op: workloads.Op, first: bool = True) -> float:
        """Run and check one op; return its time, or inf if it raised."""
        self.attempted += 1
        if first:
            self.inputs.add(f"{op.kind} {op.key} {op.arg}")
        t0 = time.perf_counter()
        try:
            out = self.wl.run(op)
        except Exception:       # the client keeps going; the op counts failed
            traceback.print_exc()
            self.failed += 1
            return math.inf
        dt = time.perf_counter() - t0
        if not self.wl.check(op, out):
            print(f"verdict failed: {op}", file=sys.stderr)
            self.failed += 1
        line = self.wl.record(op, out)
        self.pass_outputs.add(line)
        if first:
            kind = self.mix.setdefault(op.kind, [0, 0])
            kind[0] += 1
            kind[1] += op.units
            self.units += op.units
            self.wl.tally(op, out)
            self.outputs.add(line)
        return dt

    def repeat(self, ops: list[workloads.Op], want: str) -> list[float]:
        """Run ``ops`` again; their outputs must digest to ``want``."""
        self.pass_outputs = workloads.Digest()
        times = [self.op(op, first=False) for op in ops]
        if self.pass_outputs.hexdigest() != want:
            print("a repeated pass changed its outputs", file=sys.stderr)
            self.failed += 1
        return times

    def gates(self) -> list[str]:
        """Run-level gates plus the default-seed digest."""
        bad = self.wl.finish()
        want = json.loads(EXPECTED.read_text())[self.wl.name]
        got, golden_bad = workloads.golden_digest(type(self.wl))
        bad += golden_bad
        if got != want:
            bad.append(f"default-seed digest {got} != recorded {want}")
        return bad


def one_pass(run: Run, ops: list[workloads.Op],
             first: bool) -> tuple[list[float], list[float]]:
    """Run ``ops`` once; return each op's time, and its time over the host
    kernel's time around it.  The kernel runs before the pass and after
    every ``REF_EVERY_S`` of op time, and an op is divided by the mean of
    the two kernel times on either side of its group."""
    run.pass_outputs = workloads.Digest()
    times, ratios, group = [], [], []
    before = host_ref()
    for i, op in enumerate(ops):
        group.append(run.op(op, first))
        if sum(group) >= REF_EVERY_S or i == len(ops) - 1:
            after = host_ref()
            ref = (before + after) / 2
            times += group
            ratios += [dt / ref for dt in group]
            before, group = after, []
    return times, ratios


def timed(wl: workloads.Workload, seconds: float) -> dict:
    """Time a fixed op list of ``PASS_CYCLES`` cycles, pass after pass,
    until ``seconds`` have passed; every pass reruns the same ops on the
    same inputs, and its outputs must match the first pass's.

    Each op time is divided by the time of the host kernel run next to
    it (``one_pass``, ``hostref``).  An op's latency is the median of its
    ratios over the passes, times ``REF_S``.  Every op, and with it every
    input and every slow path, counts in the figures."""
    run = Run(wl)
    ops = [op for c in range(PASS_CYCLES[wl.name]) for op in wl.cycle(c)]
    end = time.perf_counter() + seconds
    passes = [one_pass(run, ops, True)]
    want = run.pass_outputs.hexdigest()
    while len(passes) < MIN_PASSES or time.perf_counter() < end:
        passes.append(one_pass(run, ops, False))
        if run.pass_outputs.hexdigest() != want:
            print("a repeated pass changed its outputs", file=sys.stderr)
            run.failed += 1
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    lat = [statistics.median(r) * REF_S
           for r in zip(*(ratios for _, ratios in passes))]
    unscaled = [statistics.median(t)
                for t in zip(*(times for times, _ in passes))]
    done = [(op, dt) for op, dt in zip(ops, lat) if dt < math.inf]
    lat_ms = [dt * 1e3 for _, dt in done]
    total_s = sum(dt for _, dt in done)
    rate = sum(op.units for op, _ in done) / total_s
    share = {}
    for op, dt in done:
        share[op.kind] = share.get(op.kind, 0.0) + dt / total_s
    return {
        "run": run,
        "metrics": {
            "work_per_s": (rate, "1/s"),
            "op_p50_ms": (statistics.median(lat_ms), "ms"),
            "op_p90_ms": (statistics.quantiles(lat_ms, n=10)[8], "ms"),
            "peak_rss_mb": (rss_mb, "MB"),
            "ok_ops_frac": ((run.attempted - run.failed) / run.attempted,
                            "ratio"),
        },
        "samples": {"cycles": PASS_CYCLES[wl.name], "passes": len(passes),
                    "ops": len(ops), "latencies": len(lat_ms),
                    "time_share": share,
                    # the same figures before scaling, for reference
                    "unscaled_work_per_s": sum(op.units for op in ops)
                    / sum(unscaled),
                    "unscaled_op_p50_ms": statistics.median(unscaled) * 1e3},
    }


def traced(wl: workloads.Workload, seconds: float) -> dict:
    run = Run(wl)
    ops = [op for c in range(TRACE_CYCLES[wl.name]) for op in wl.cycle(c)]
    want = None
    tr = Tracer()
    plain_s = traced_s = 0.0
    passes = 0
    end = time.perf_counter() + seconds
    while passes == 0 or time.perf_counter() < end:
        if want is None:
            plain_s += sum(run.op(op) for op in ops)
            want = run.pass_outputs.hexdigest()
        else:
            plain_s += sum(run.repeat(ops, want))
        tr.install()
        try:
            traced_s += sum(run.repeat(ops, want))
        finally:
            tr.uninstall()
        passes += 1
    per = passes * sum(op.units for op in ops)
    m = {}
    for name in CALLS_AND_SELF + CALLS_ONLY:
        m[name + ".calls"] = (tr.calls.get(name, 0) / per, "calls/unit")
    for name in CALLS_AND_SELF + SELF_ONLY:
        m[name + ".self_ms"] = (tr.self_s.get(name, 0.0) * 1e3 / per,
                                "ms/unit")
    cb = tr.calls.get("verify.merger_distance.callback", 0)
    m["verify.merger_distance.evals_per_cell"] = (
        cb / tr.cells if tr.cells else 0.0, "ratio")
    m["trace.overhead"] = (plain_s / traced_s, "ratio")
    m["trace.uncovered_frac"] = ((traced_s - tr.root_s) / traced_s, "ratio")
    m.update(micro.run_all(wl.seed))
    return {"run": run, "metrics": m,
            "samples": {"passes": passes, "ops": run.attempted}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.cycle(0)
    print("READY", flush=True)
    if args.setup_only:
        # the host kernel's time in this process, to scale its set-up by
        print(statistics.median(host_ref() for _ in range(SETUP_REF_RUNS)))
        return 0
    res = (traced if args.trace else timed)(wl, args.seconds)
    run = res.pop("run")
    failures = run.gates()
    for msg in failures:
        print(f"gate failed: {msg}", file=sys.stderr)
    res.update({
        "correct": run.failed == 0 and not failures,
        "attempted": run.attempted, "failed": run.failed,
        "failures": failures,
        "unit_of_work": wl.unit, "units": run.units,
        "op_mix": {k: {"ops": v[0], "units": v[1]}
                   for k, v in run.mix.items()},
        "instance_digest": run.inputs.hexdigest(),
        "output_digest": run.outputs.hexdigest(),
        "python": sys.version.split()[0], "numpy": np.__version__,
    })
    print(json.dumps(res), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
