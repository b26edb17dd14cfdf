"""Two-round privacy amplification over an unauthenticated channel.

Round 1: Alice sends a fresh seed Y.  Both sides derive Z from the
shared weak secret X and the seed as received, and read a one-time MAC
key off Z.  Round 2: Bob sends a fresh extraction seed W plus its tag
under his Z; Alice accepts iff the tag verifies under her Z, and both
sides key the final extraction of X with the W they hold.

The adversary is a pair of total functions over the transcript (it sees
and may rewrite both rounds but never X).  Security at this scale is
estimated, not proven: reports carry the Monte-Carlo estimate with a
99% Hoeffding interval next to the analytic MAC + distinguisher budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, ClassVar

from . import gf2
from .bits import BitString, blocks, slice_bits
from .nipm import ParamError
from .nmx import NmExtParams, nm_ext
from .sext import ExtScheme, ext, poly_scheme


@dataclass(frozen=True)
class PampParams:
    nmx: NmExtParams
    final: ExtScheme       # final key extraction from x, seeded by W
    mac_bits: ClassVar[int] = 16      # s'; MAC works in GF(2^s')
    msg_symbols: ClassVar[int] = 4    # ell; W is ell symbols of s' bits

    def __post_init__(self) -> None:
        if self.nmx.m < 2 * self.mac_bits:
            raise ParamError("m", "round-1 key shorter than two MAC words")
        if self.final.d_seed != self.w_len:
            raise ParamError("w_len", "final seed width mismatch")

    @property
    def key_len(self) -> int:
        """Final extracted key length."""
        return self.final.m_out

    @property
    def w_len(self) -> int:
        return self.msg_symbols * self.mac_bits

    def forgery_budget(self) -> float:
        """One-time MAC forgery bound ell / 2^s'."""
        return self.msg_symbols / (1 << self.mac_bits)


def make_params(nmx_params: NmExtParams) -> PampParams:
    """A MAC over GF(2^16), W of four 16-bit symbols, and a 32-bit final
    key extracted by the poly family seeded by W."""
    # the final scheme's seed W is two field elements
    block = PampParams.msg_symbols * PampParams.mac_bits // 2
    final = poly_scheme(nmx_params.n, 32, block=block)
    return PampParams(nmx=nmx_params, final=final)


def mac_tag(key: BitString, msg: BitString, s: int) -> BitString:
    """Polynomial one-time MAC: key = (a, b), tag = b + sum m_i a^i."""
    if key.n != 2 * s:
        raise ValueError("MAC key must be two field elements")
    if msg.n % s:
        raise ValueError("message must be whole symbols")
    a, b = key.val >> s, key.val & ((1 << s) - 1)
    # sum m_i a^(i+1) by Horner, from the last symbol down to a^1
    return BitString(s, gf2.poly_eval(blocks(msg, s)[::-1] + [0], a, s) ^ b)


Round1Fn = Callable[[BitString], BitString]
Round2Fn = Callable[[BitString, BitString, BitString],
                    tuple[BitString, BitString]]


@dataclass(frozen=True)
class Adversary:
    name: str
    round1: Round1Fn
    round2: Round2Fn


def passive() -> Adversary:
    return Adversary("passive", lambda y: y, lambda y, w, t: (w, t))


def flip_round1() -> Adversary:
    """Flips the first bit of the round-1 seed Y."""
    def r1(y: BitString) -> BitString:
        return y ^ BitString(y.n, 1 << (y.n - 1))
    return Adversary("flip1", r1, lambda y, w, t: (w, t))


def flip_round2() -> Adversary:
    """Flips the first bit of the round-2 seed W."""
    def r2(y: BitString, w: BitString, t: BitString):
        return w ^ BitString(w.n, 1 << (w.n - 1)), t
    return Adversary("flip2", lambda y: y, r2)


def replace_round1(rng, d: int) -> Adversary:
    fresh = BitString(d, _rand_bits(rng, d))

    def r1(y: BitString) -> BitString:
        return fresh if fresh != y else y ^ BitString(d, 1)
    return Adversary("replace", r1, lambda y, w, t: (w, t))


def random_adversary(rng) -> Adversary:
    def r1(y: BitString) -> BitString:
        return y ^ BitString(y.n, _nonzero_bits(rng, y.n))

    def r2(y: BitString, w: BitString, t: BitString):
        wmask = _nonzero_bits(rng, w.n)
        tmask = int(rng.integers(1 << t.n))
        return w ^ BitString(w.n, wmask), t ^ BitString(t.n, tmask)
    return Adversary("random", r1, r2)


def table_adversary(name: str, r1_masks: list[int], r2_masks: list[int]
                    ) -> Adversary:
    """Deterministic table adversary (for --adversary custom.json):
    round i XORs its masks onto (y,) or (w, tag).  A mask wider than its
    field raises ``ValueError`` when the round runs."""
    def r1(y: BitString) -> BitString:
        return y ^ BitString(y.n, r1_masks[0])

    def r2(y: BitString, w: BitString, t: BitString):
        return (w ^ BitString(w.n, r2_masks[0]),
                t ^ BitString(t.n, r2_masks[1]))
    return Adversary(name, r1, r2)


@dataclass
class TrialResult:
    accepted: bool
    tampered: bool       # adversary changed anything Alice/Bob rely on
    keys_agree: bool
    attack_success: bool  # Alice accepted a transcript Bob never sent


def run_protocol(x: BitString, rng, p: PampParams, adv: Adversary
                 ) -> TrialResult:
    s = p.mac_bits
    y = BitString(p.nmx.d, _rand_bits(rng, p.nmx.d))
    y_recv = adv.round1(y)

    z_bob = nm_ext(x, y_recv, p.nmx)
    w = BitString(p.w_len, _rand_bits(rng, p.w_len))
    tag = mac_tag(slice_bits(z_bob, 2 * s), w, s)
    w_recv, tag_recv = adv.round2(y, w, tag)

    z_alice = z_bob if y_recv == y else nm_ext(x, y, p.nmx)
    accepted = tag_recv == mac_tag(slice_bits(z_alice, 2 * s), w_recv, s)
    key_bob = ext(p.final, x, w)
    key_alice = None
    if accepted:
        key_alice = key_bob if w_recv == w else ext(p.final, x, w_recv)
    tampered = (y_recv != y) or (w_recv, tag_recv) != (w, tag)
    agree = accepted and key_alice == key_bob
    success = accepted and (w_recv != w or (y_recv != y and not agree))
    return TrialResult(accepted=accepted, tampered=tampered,
                       keys_agree=agree, attack_success=success)


def _rand_bits(rng, n: int) -> int:
    """n random bits from the numpy Generator rng: ceil(n / 64) raw 64-bit
    words read as one big-endian int, keeping its top n bits.  The words
    are the stream of ``rng.integers(0, 2**64, words, dtype="uint64")``,
    whose full-range path takes one raw draw per word."""
    words = (n + 63) // 64
    raw = rng.bit_generator.random_raw(words)
    return int.from_bytes(raw.astype(">u8").tobytes(), "big") >> (
        words * 64 - n)


def _nonzero_bits(rng, n: int) -> int:
    v = 0
    while not v:
        v = _rand_bits(rng, n)
    return v


@dataclass
class SecurityReport:
    adversary: str
    trials: int
    accepts: int
    successes: int
    honest_failures: int
    estimate: float
    ci99: float
    budget: float

    def line(self) -> str:
        verdict = "ok" if self.estimate <= self.budget + self.ci99 else "FAIL"
        return (f"{self.adversary:10s} trials={self.trials} "
                f"succ={self.estimate:.5f} ci={self.ci99:.5f} "
                f"budget={self.budget:.5f} {verdict}")


def hoeffding_ci(trials: int, delta: float = 0.01) -> float:
    return math.sqrt(math.log(2 / delta) / (2 * trials))


def security_experiment(rng, p: PampParams, adv: Adversary, trials: int,
                        distinguisher_budget: float = 0.0
                        ) -> SecurityReport:
    """Estimate attack success over ``trials`` fresh flat secrets of
    min-entropy 3n/4."""
    n = p.nmx.n
    k = 3 * n // 4
    accepts = succ = honest_fail = 0
    for _ in range(trials):
        x = _flat_secret(rng, n, k)
        res = run_protocol(x, rng, p, adv)
        accepts += res.accepted
        succ += res.attack_success
        if not res.tampered and (not res.accepted or not res.keys_agree):
            honest_fail += 1
    return SecurityReport(
        adversary=adv.name, trials=trials, accepts=accepts, successes=succ,
        honest_failures=honest_fail, estimate=succ / trials,
        ci99=hoeffding_ci(trials),
        budget=p.forgery_budget() + distinguisher_budget)


def _flat_secret(rng, n: int, k: int) -> BitString:
    """Secret with k fresh bits spread over n: pads entropy words with a
    fixed pattern so the source is flat with min-entropy k."""
    fresh = _rand_bits(rng, k)
    return BitString(n, fresh << (n - k))
