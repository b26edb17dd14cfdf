"""The benchmark's three workloads, their inputs and their correctness gates.

A workload is a deterministic stream of ops built from the workload seed.
Ops come in cycles: every cycle holds the same fixed mix of op kinds, in
the proportions of the acceptance battery's own trial counts for the
criteria the workload stands for, so a run that completes whole cycles
measures the same traffic.  Each op is one call into a public entry point
of ``extlab``; its inputs (sources, instances, adversary masks) are drawn
inside the op from a generator keyed by ``(seed, cycle, slot)``, because
users pay for them.

Every op output is checked by ``check`` against the program's own bound for
that verdict and folded by ``tally`` into the run-level statistical gates
that ``finish`` evaluates; ``record`` gives the canonical text that goes
into the run digest.  Nothing per op is kept, so the client's memory does
not grow with the number of ops it completed.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from extlab import cbreak, ipm, msrc, nipm, nmx, pamp, prob, sext, verify
from extlab.bits import BitString, matrix, slice_bits
from extlab.nipm import LevelPlan, NipmParams, assembled_bound, nominal_m1

DEFAULT_SEED = 1
# false-alarm odds of each run-level Hoeffding gate; a comparison makes
# dozens of runs, so the 1% of the acceptance battery would trip by chance
GATE_DELTA = 1e-9
ONE = Fraction(1)

_OPS, _PROBES, _SETUP = 0, 1, 2   # generator streams under one seed


def rng_for(*key: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


@dataclass(frozen=True)
class Op:
    kind: str
    units: int
    key: tuple[int, ...]     # generator key of the op's inputs
    arg: tuple = ()          # fixed spec of the op (widths, table, ...)


class Digest:
    """SHA-256 over lines of text, fed one line at a time."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, line: str) -> None:
        self._h.update(line.encode() + b"\n")

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def rand_bits(rng, n: int) -> int:
    """Uniform n-bit integer, drawn at full width."""
    words = -(-n // 64)
    v = 0
    for w in rng.integers(0, 1 << 64, size=words, dtype=np.uint64):
        v = (v << 64) | int(w)
    return v >> (64 * words - n)


def nonzero_bits(rng, n: int) -> int:
    while True:
        v = rand_bits(rng, n)
        if v:
            return v


class Workload:
    name = ""
    unit = ""
    mix: tuple = ()

    def __init__(self, seed: int):
        self.seed = seed

    def cycle(self, c: int) -> list[Op]:
        return [Op(kind, units, (self.seed, _OPS, c, slot), arg)
                for slot, (kind, units, arg) in enumerate(self.mix)]

    def golden_ops(self) -> list[Op]:
        """The ops the default-seed digest covers."""
        return self.cycle(0)

    def run(self, op: Op):
        raise NotImplementedError

    def check(self, op: Op, out) -> bool:
        raise NotImplementedError

    def record(self, op: Op, out) -> str:
        raise NotImplementedError

    def tally(self, op: Op, out) -> None:
        """Fold one output into the run-level gates."""

    def finish(self) -> list[str]:
        """Run-level gates over every tallied output; failure messages."""
        return []

    def probes(self) -> list[str]:
        """Extra outputs of the program on fixed inputs, for the digest."""
        return []


# --------------------------------------------------------------- pa-desk

class PaDesk(Workload):
    """Two-round privacy amplification at desk widths (crit 10).

    An op is one ``security_experiment`` call of one trial.  A cycle runs
    crit 10's trial counts over 5000: 100k passive, 20k round-2 flips, 5k
    round-1 flips, and 10k full-width table tampers in place of crit 10's
    5k ``replace`` and 5k ``random``.  Those two built-ins only reach the
    low 62 bits and are left out so their fix does not move this workload.
    Tamper trials are judged by the run-level gate: a one-trial estimate
    says nothing alone."""

    name = "pa-desk"
    unit = "protocol trial"
    mix = ((("passive", 1, ()),) * 20 + (("flip2", 1, ()),) * 4
           + (("flip1", 1, ()),) + (("table", 1, ()),) * 2)
    DISTINGUISHER = 0.05   # crit 10's allowance for the nm-extractor

    def __init__(self, seed: int):
        super().__init__(seed)
        self.p = pamp.make_params(nmx.desk_params())
        self.forge = self.p.forgery_budget()
        self.trials, self.successes = Counter(), Counter()
        # one public call per layer builds every lazy table
        rng = rng_for(seed, _SETUP)
        x = BitString(self.p.nmx.n, rand_bits(rng, self.p.nmx.n))
        z = nmx.nm_ext(x, BitString(self.p.nmx.d, 1), self.p.nmx)
        w = BitString(self.p.w_len, 1)
        pamp.mac_tag(slice_bits(z, 2 * self.p.mac_bits), w, self.p.mac_bits)
        sext.ext(self.p.final, x, w)

    def adversary(self, kind: str, rng) -> pamp.Adversary:
        if kind == "passive":
            return pamp.passive()
        if kind == "flip2":
            return pamp.flip_round2()
        if kind == "flip1":
            return pamp.flip_round1()
        p = self.p
        return pamp.table_adversary(
            "table", [nonzero_bits(rng, p.nmx.d)],
            [nonzero_bits(rng, p.w_len), rand_bits(rng, p.mac_bits)])

    def budget(self, kind: str) -> float:
        if kind in ("flip1", "table"):
            return self.forge + self.p.nmx.nominal.eps_out + self.DISTINGUISHER
        return self.forge

    def run(self, op: Op):
        rng = rng_for(*op.key)
        adv = self.adversary(op.kind, rng)
        return pamp.security_experiment(
            rng, self.p, adv, op.units,
            distinguisher_budget=self.budget(op.kind) - self.forge)

    def check(self, op: Op, rep) -> bool:
        if rep.trials != op.units:
            return False
        if op.kind == "passive":
            return (rep.honest_failures == 0 and rep.accepts == op.units
                    and rep.successes == 0)
        return True

    def record(self, op: Op, rep) -> str:
        return (f"{op.kind} {rep.trials} {rep.accepts} {rep.successes} "
                f"{rep.honest_failures}")

    def tally(self, op: Op, rep) -> None:
        self.trials[op.kind] += rep.trials
        self.successes[op.kind] += rep.successes

    def finish(self) -> list[str]:
        bad = []
        for kind, n in self.trials.items():
            lim = self.budget(kind) + pamp.hoeffding_ci(n, GATE_DELTA)
            succ = self.successes[kind]
            if succ / n > lim:
                bad.append(f"{kind}: success {succ}/{n} > {lim:.4f}")
        return bad

    def probes(self) -> list[str]:
        p, s = self.p, self.p.mac_bits
        rng = rng_for(self.seed, _PROBES)
        out = []
        for _ in range(3):
            x = BitString(p.nmx.n, rand_bits(rng, p.nmx.n))
            y = BitString(p.nmx.d, rand_bits(rng, p.nmx.d))
            w = BitString(p.w_len, rand_bits(rng, p.w_len))
            z = nmx.nm_ext(x, y, p.nmx)
            tag = pamp.mac_tag(slice_bits(z, 2 * s), w, s)
            key = sext.ext(p.final, x, w)
            out.append(f"probe {z.val:x} {tag.val:x} {key.val:x}")
        return out


# ----------------------------------------------------------- exact-micro

def one_level(L: int, t: int, m: int, d: int) -> NipmParams:
    """Single-level merger plan of the acceptance battery's crit 3."""
    lv = (LevelPlan(ell=L, m_in=m, w=2, m_out=2, d_slice=d),)
    return NipmParams(L=L, t=t, levels=lv, eps=0.05, c=4,
                      m1_nominal=nominal_m1(m, L, t, 0.05),
                      m_nominal=(2,), d_nominal=(d,), error_nominal=0.8)


def weak_ipm(t: int) -> ipm.IpmParams:
    """Weak-seed merger over 6-bit rows with a 4-bit weak seed."""
    return ipm.micro_ipm(L=2, t=t, m=6, n_y=4, k_y=4, d_z=6,
                         nipm=one_level(2, t, 4, 4))


class ExactMicro(Workload):
    """Exact oracles at micro widths (crits 1, 3, 5 and 7's exact scan).

    A cycle runs the battery's instance counts over 50: crit 1's 1000
    strong distances, crit 7's 162 tamper tables, crit 3's 52 merger
    instances and crit 5's 200 census sources give 20 : 3 : 1 : 4.  The
    one merger op of a cycle takes the merger specs in turn, from one that
    depends on the seed, so runs on a few seeds time every spec; that
    gives the weak-seed merger and the strawman one cycle in seven each,
    where crit 3 gives them 2 of 52 instances.  The default-seed digest
    covers every spec."""

    name = "exact-micro"
    unit = "oracle verdict"
    MERGERS = (("lt_nipm", 1, 3, 6, 4), ("lt_nipm", 2, 4, 6, 4),
               ("recursive_nipm", 1, 3, 4, 6),
               ("recursive_nipm", 2, 4, 4, 6),
               ("ipm_weak", 1, 2, 6, 4), ("ipm_weak", 2, 2, 6, 4),
               ("xor_strawman", 1, 2, 4, 4))
    N_STRONG, N_NM, N_CENSUS = 20, 3, 4
    TAMPERS = tuple(verify.enumerate_tampers(2))
    CENSUS_EPS = 2.0 ** -4          # crit 5's planner target
    NM_FF = cbreak.FlipFlopParams(n=8, d_y=2, w=2, m_out=1)
    # crit 7: distinct-advice distances stay below 0.9 * (1 - 2^-m')
    NM_FAIL = Fraction(9, 10) * (ONE - Fraction(1, 2))

    def __init__(self, seed: int):
        super().__init__(seed)
        self.strong_scheme = sext.poly_scheme(12, 2, block=6)
        self.strong_bound = sext.lhl_bound(self.strong_scheme, 6)
        self.adv = cbreak.plan_adv_gen(16, 8, self.CENSUS_EPS)
        self.census_bound = cbreak.collision_bound(self.adv)
        self.census_n = self.census_coll = 0
        self.plans = {(t, L, m, d): one_level(L, t, m, d)
                      for _, t, L, m, d in self.MERGERS}
        self.ipms = {t: weak_ipm(t) for t in (1, 2)}
        # crit 3: plain-seed mergers within the assembled budget, the
        # strawman at least 2/5 away; the weak-seed merger has no bound
        # below 1, so only the digest judges it
        self.merger_bounds = {
            spec: assembled_bound(self.plans[spec[1:]], k_row=spec[3],
                                  k_seed=spec[4])
            for spec in self.MERGERS
            if spec[0] in ("lt_nipm", "recursive_nipm")}
        # one public call per layer builds every lazy table
        sext.ext(self.strong_scheme, BitString(12, 1), BitString(12, 1))
        cbreak.adv_gen(BitString(16, 1), BitString(8, 1), self.adv)
        cbreak.flip_flop(BitString(8, 1), BitString(2, 1), 0, self.NM_FF)
        ipm.ipm_weak(matrix([BitString(6, 1)] * 2), BitString(4, 1),
                     self.ipms[1])

    def cycle(self, c: int) -> list[Op]:
        ops = []
        slot = 0

        def add(kind, arg=()):
            nonlocal slot
            ops.append(Op(kind, 1, (self.seed, _OPS, c, slot), arg))
            slot += 1

        for _ in range(self.N_STRONG):
            add("strong")
        for j in range(self.N_NM):
            # walk the 2 x 81 (advice bit, tamper table) scan across cycles
            idx = (c * self.N_NM + j) % (2 * len(self.TAMPERS))
            add("nm", (idx % 2, idx // 2))
        add("merger", self.MERGERS[(self.seed + c) % len(self.MERGERS)])
        for _ in range(self.N_CENSUS):
            add("census")
        return ops

    def golden_ops(self) -> list[Op]:
        first = self.cycle(0)
        return first + [Op("merger", 1, (self.seed, _PROBES, j), spec)
                        for j, spec in enumerate(self.MERGERS)
                        if all(op.arg != spec for op in first)]

    def merge_fn(self, spec):
        which, t, L, m, d = spec
        if which == "xor_strawman":
            return verify.xor_strawman
        if which == "ipm_weak":
            pi = self.ipms[t]
            return lambda rows, y: ipm.ipm_weak(
                matrix([BitString(m, r) for r in rows]),
                BitString(d, y), pi).val
        pl = self.plans[(t, L, m, d)]
        if which == "lt_nipm":
            return lambda rows, y: nipm.lt_nipm(
                [BitString(m, r) for r in rows], BitString(d, y),
                pl.levels[0]).val
        return lambda rows, y: nipm.recursive_nipm(
            matrix([BitString(m, r) for r in rows]), BitString(d, y), pl).val

    def run(self, op: Op):
        rng = rng_for(*op.key)
        if op.kind == "strong":
            src = prob.sample_flat_source(rng, 12, 6)
            return verify.strong_distance_poly_fast(self.strong_scheme, src)
        if op.kind == "nm":
            bit, table = op.arg
            pf = self.NM_FF
            src = prob.sample_flat_source(rng, 8, 6)
            fn = lambda x, s: cbreak.flip_flop(
                BitString(8, x), BitString(2, s), bit, pf).val
            return verify.nm_distance(fn, src, 2, 1, self.TAMPERS[table])
        if op.kind == "merger":
            which, t, L, m, d = op.arg
            if which == "xor_strawman":
                inst = verify.adversarial_xor_instance(rng, L=L, m=m, d=d)
                m_out = m
            else:
                inst = verify.build_instance(
                    rng, L=L, m=m, d=d, t=t, witness=int(rng.integers(L)))
                m_out = (self.ipms[t].nipm if which == "ipm_weak"
                         else self.plans[(t, L, m, d)]).m_out
            return verify.merger_distance(self.merge_fn(op.arg), inst, m_out)
        # census: advice collisions over all 256 seeds for one source point
        src = prob.sample_flat_source(rng, 16, 12)
        sup = src.support()
        x = BitString(16, sup[int(rng.integers(len(sup)))])
        cnt = Counter(cbreak.adv_gen(x, BitString(8, y), self.adv).val
                      for y in range(256))
        return sum(v * (v - 1) // 2 for v in cnt.values())

    def check(self, op: Op, out) -> bool:
        if op.kind == "census":
            return 0 <= out <= self.census_bound * (256 * 255 // 2)
        if not isinstance(out, Fraction) or not 0 <= out <= 1:
            return False
        if op.kind == "strong":
            return out <= self.strong_bound
        if op.kind == "nm":
            return out < self.NM_FAIL
        if op.arg[0] == "xor_strawman":
            return out >= Fraction(2, 5)
        return out <= self.merger_bounds.get(op.arg, ONE)

    def record(self, op: Op, out) -> str:
        return f"{op.kind} {op.arg} {out}"

    def tally(self, op: Op, out) -> None:
        if op.kind == "census":
            self.census_n += 1
            self.census_coll += out

    def finish(self) -> list[str]:
        if not self.census_n:
            return []
        mean = self.census_coll / (self.census_n * (256 * 255 // 2))
        if mean > self.CENSUS_EPS or mean > self.census_bound:
            return [f"census: mean collision rate {mean:.5f} over target"]
        return []


# --------------------------------------------------------------- micro-mc

def _rotl(y: int, d: int) -> int:
    return ((y << 1) | (y >> (d - 1))) & ((1 << d) - 1)


class MicroMc(Workload):
    """Monte Carlo at 16-bit widths: crit 7's adversary battery and crit
    9's multi-source majority trial, 25 to 2 as crit 7's 25k draws of
    (x, y) to crit 9's 2k trials.  A battery trial scores one draw against
    all four tampers.  Crit 7's own budget caps at 1 at these widths, so
    battery outputs are judged by the digest alone."""

    name = "micro-mc"
    unit = "Monte-Carlo trial"
    mix = (("battery", 1, ()),) * 25 + (("multi", 1, ()),) * 2
    N_BAD = 10

    def __init__(self, seed: int):
        super().__init__(seed)
        self.mp = nmx.micro_params()
        d = self.mp.d
        mask = (1 << d) - 1
        self.tampers = (lambda y: y ^ 1,
                        lambda y: (y + 3) & mask,
                        lambda y: _rotl(y, d),
                        lambda y: 0x5A5A if y != 0x5A5A else 0x5A5B)
        # crit 9's parameters: alpha near zero admits 10 bad indices
        self.msp = msrc.default_params(101, alpha=0.001)
        self.gen = msrc.make_generator(rng_for(seed, _SETUP), self.msp,
                                       n_bad=self.N_BAD)
        self.p_one = msrc.exact_majority_prob_one(self.msp.r, self.N_BAD)
        self.bias_bound = msrc.majority_bias_bound(self.msp)
        self.multi_n, self.multi_hits = Counter(), Counter()
        # one public call per layer builds every lazy table
        nmx.nm_ext(BitString(16, 1), BitString(16, 1), self.mp)
        ipm.ipm_weak(matrix([BitString(16, 1)] * 4), BitString(16, 1),
                     self.msp.ipm)

    def run(self, op: Op):
        rng = rng_for(*op.key)
        if op.kind == "battery":
            mp = self.mp
            x = BitString(mp.n, int(rng.integers(1 << mp.n)))
            y = int(rng.integers(1 << mp.d))
            outs = [nmx.nm_ext(x, BitString(mp.d, y), mp).val]
            outs += [nmx.nm_ext(x, BitString(mp.d, f(y)), mp).val
                     for f in self.tampers]
            return tuple(outs)
        srcs = [BitString(16, int(rng.integers(1 << 16))) for _ in range(3)]
        weak = BitString(16, int(rng.integers(1 << 16)))
        bits = msrc.reduce_bits(self.gen.matrices(srcs), weak, self.msp)
        return tuple(bits), msrc.majority(bits)

    def check(self, op: Op, out) -> bool:
        if op.kind == "battery":
            return len(out) == 5 and all(v in (0, 1) for v in out)
        bits, maj = out
        bad = {bits[i] for i in self.gen.bad_set}
        return (len(bits) == self.msp.r and len(bad) == 1
                and maj == int(2 * sum(bits) > len(bits)))

    def record(self, op: Op, out) -> str:
        if op.kind == "battery":
            return "battery " + "".join(map(str, out))
        bits, maj = out
        return f"multi {int(''.join(map(str, bits)), 2):x} {maj}"

    def tally(self, op: Op, out) -> None:
        if op.kind == "multi":
            bits, maj = out
            b = bits[self.gen.bad_set[0]]
            self.multi_n[b] += 1
            self.multi_hits[b] += maj

    def finish(self) -> list[str]:
        bad = []
        if self.multi_n:
            expect = {1: float(self.p_one), 0: 1.0 - float(self.p_one)}
            for b, n in self.multi_n.items():
                ci = pamp.hoeffding_ci(n, GATE_DELTA)
                if abs(self.multi_hits[b] / n - expect[b]) > ci:
                    bad.append(f"multi: rate given bad bit {b} off oracle")
            n = sum(self.multi_n.values())
            bias = abs(sum(self.multi_hits.values()) / n - 0.5)
            if bias > self.bias_bound + pamp.hoeffding_ci(n, GATE_DELTA):
                bad.append(f"multi: bias {bias:.4f} over bound")
        return bad

    def probes(self) -> list[str]:
        rng = rng_for(self.seed, _PROBES)
        mp = self.mp
        out = []
        for _ in range(4):
            x = BitString(mp.n, int(rng.integers(1 << mp.n)))
            y = BitString(mp.d, int(rng.integers(1 << mp.d)))
            out.append(f"probe {nmx.nm_ext(x, y, mp).val}")
        return out


WORKLOADS = {w.name: w for w in (PaDesk, ExactMicro, MicroMc)}


def golden_digest(cls, seed: int = DEFAULT_SEED) -> tuple[str, list[str]]:
    """Digest of the golden ops and the probes under ``seed``, with the
    messages of any per-op or run-level gate that failed on the way."""
    wl = cls(seed)
    h, failures = Digest(), []
    for op in wl.golden_ops():
        out = wl.run(op)
        if not wl.check(op, out):
            failures.append(f"{op.kind} {op.arg}: verdict failed")
        wl.tally(op, out)
        h.add(wl.record(op, out))
    failures += wl.finish()
    for line in wl.probes():
        h.add(line)
    return h.hexdigest(), failures
