"""Command-line front end.

Every command draws all of its randomness from one recorded 64-bit seed
through a counter-based generator, so a report is byte-identical across
runs with the same configuration and seed.  Reports are delimited text;
when written to a file with --out, a PNG bar chart of the report's
numeric values is placed next to it, drawn with the standard library
(``zlib`` and ``struct``) and carrying the report's title and the bars'
names in ``tEXt`` chunks.  A failure to write either file is an error.

Exit codes: 0 success, 1 verification failure, 2 parameter/usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import struct
import sys
import zlib
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import cbreak, msrc, nipm, nmx, pamp, prob, sext, verify
from .bits import BitString
from .nipm import ParamError

OK, FAIL, USAGE = 0, 1, 2


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed & ((1 << 64) - 1)))


def emit_report(rows: list[dict], out: str | None, title: str) -> None:
    header = sorted({k for r in rows for k in r})
    lines = ["\t".join(header)]
    for r in rows:
        lines.append("\t".join(str(r.get(k, "")) for k in header))
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
        return
    path = Path(out)
    path.write_text(text)
    _render_figure(rows, path, title)


def _render_figure(rows: list[dict], path: Path, title: str) -> None:
    """Write a bar chart of the report's numeric ``value`` cells to
    ``path`` with a ``.png`` suffix.  The title and the bars' names and
    values, left to right, go into ``tEXt`` chunks."""
    bars = [(r.get("name", str(i)), r["value"], x)
            for i, r in enumerate(rows)
            if (x := _bar_value(r.get("value"))) is not None]
    desc = "\n".join(f"{name}={value}" for name, value, _ in bars)
    png = _png_bars([x for _, _, x in bars],
                    {"Title": title, "Description": desc})
    path.with_suffix(".png").write_bytes(png)


def _bar_value(v) -> Fraction | None:
    """A report cell as an exact number if it is a finite real number;
    None for anything else, including bools and strings that happen to
    parse as numbers (``nmext eval``'s hex output)."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        return None
    if isinstance(v, numbers.Rational):
        return Fraction(v)
    v = float(v)
    return Fraction(v) if math.isfinite(v) else None


_BAR, _GAP, _MARGIN, _PLOT, _MIN_WIDTH = 12, 6, 8, 96, 64
_WHITE, _BLUE, _AXIS = b"\xff\xff\xff", b"\x48\x78\xa8", b"\x40\x40\x40"


def _png_bars(values: list[Fraction], text: dict[str, str]) -> bytes:
    """An 8-bit RGB PNG with one bar per value, drawn from a zero
    baseline over the range min(0, values)..max(0, values).  Pixel
    positions are computed in exact arithmetic and the stream is
    compressed at a fixed level, so equal inputs give equal bytes."""
    n = len(values)
    width = max(_MIN_WIDTH, 2 * _MARGIN + n * _BAR + max(n - 1, 0) * _GAP)
    height = 2 * _MARGIN + _PLOT
    lo, hi = min([0, *values]), max([0, *values])
    span = hi - lo

    def row(v: Fraction) -> int:
        return _MARGIN + (round((hi - v) * _PLOT / span) if span else _PLOT)

    zero = row(Fraction(0))
    canvas = [bytearray(_WHITE * width) for _ in range(height)]
    canvas[zero][:] = _AXIS * width
    for i, v in enumerate(values):
        x = 3 * (_MARGIN + i * (_BAR + _GAP))
        top, bottom = (row(v), zero) if v >= 0 else (zero + 1, row(v) + 1)
        for y in range(top, bottom):
            canvas[y][x:x + 3 * _BAR] = _BLUE * _BAR
    raw = b"".join(b"\x00" + bytes(line) for line in canvas)
    ihdr = struct.pack(">IIBBBBB", width, height, 8, 2, 0, 0, 0)
    chunks = [(b"IHDR", ihdr)]
    chunks += [(b"tEXt", key.encode("latin-1") + b"\x00"
                + val.encode("latin-1", "replace"))
               for key, val in text.items()]
    chunks += [(b"IDAT", zlib.compress(raw, 9)), (b"IEND", b"")]
    return b"\x89PNG\r\n\x1a\n" + b"".join(
        struct.pack(">I", len(data)) + tag + data
        + struct.pack(">I", zlib.crc32(tag + data)) for tag, data in chunks)


# ----------------------------------------------------------- subcommands

def cmd_plan_nipm(args) -> int:
    p = nipm.plan_nipm(args.L, args.t, args.m, args.d, args.eps,
                       ell=args.ell)
    rows = [{"name": "r", "value": p.r},
            {"name": "m1_nominal", "value": p.m1_nominal},
            {"name": "error_nominal", "value": p.error_nominal}]
    for i, lv in enumerate(p.levels):
        rows.append({"name": f"level{i}",
                     "value": lv.m_out,
                     "detail": f"ell={lv.ell} m_in={lv.m_in} w={lv.w} "
                               f"d_slice={lv.d_slice} "
                               f"m_nom={p.m_nominal[i]} "
                               f"d_nom={p.d_nominal[i]}"})
    emit_report(rows, args.out, "plan-nipm")
    return OK


def cmd_plan_nmext(args) -> int:
    p = nmx.plan_params(args.n, args.k, args.d, args.m, args.eps,
                        t=args.t, rescale=args.rescale)
    nom = p.nominal
    rows = [
        {"name": "L_advice", "value": p.adv.advice_len,
         "detail": f"nominal={nom.L}"},
        {"name": "ell", "value": p.ipm.nipm.levels[0].ell,
         "detail": f"nominal={nom.ell}"},
        {"name": "r", "value": p.ipm.nipm.r, "detail": f"nominal={nom.r}"},
        {"name": "d1", "value": p.d1, "detail": f"nominal={nom.d1}"},
        {"name": "d2", "value": p.ipm.d_z, "detail": f"nominal={nom.d_z}"},
        {"name": "d3", "value": p.ipm.m_v, "detail": f"nominal={nom.m_v}"},
        {"name": "m_ff", "value": p.ff.m_out},
        {"name": "m_mid", "value": p.ipm.m_v},
        {"name": "m", "value": p.m},
        {"name": "eps1", "value": nom.eps1},
        {"name": "eps_out_nominal", "value": nom.eps_out},
    ]
    emit_report(rows, args.out, "plan-nmext")
    return OK


def cmd_nmext_eval(args) -> int:
    rng = make_rng(args.seed)
    p = nmx.plan_params(args.n, args.k, args.d, args.m, args.eps)
    if args.x_hex:
        x = BitString(args.n, int(args.x_hex, 16))
    else:
        x = BitString(args.n, pamp._rand_bits(rng, args.n))
    if args.y_hex:
        y = BitString(args.d, int(args.y_hex, 16))
    else:
        y = BitString(args.d, pamp._rand_bits(rng, args.d))
    out = nmx.nm_ext(x, y, p)
    rows = [{"name": "output_hex", "value": format(out.val, "x")},
            {"name": "output_bits", "value": out.n},
            {"name": "seed64", "value": args.seed}]
    emit_report(rows, args.out, "nmext-eval")
    return OK


def _suite_sext(rng) -> list[dict]:
    scheme = sext.poly_scheme(12, 2, claimed_k=6)
    bound = sext.lhl_bound(scheme, 6)
    worst = Fraction(0)
    for _ in range(50):
        src = prob.sample_flat_source(rng, 12, 6)
        d = verify.strong_distance_poly_fast(scheme, src)
        worst = max(worst, d)
    return [{"name": "strong_distance_max", "value": float(worst),
             "bound": float(bound), "pass": worst <= bound}]


def _suite_nipm(rng) -> list[dict]:
    rows = []
    lp = nipm.LevelPlan(ell=2, m_in=8, w=2, m_out=1, d_slice=6)
    params = nipm.hand_plan(2, 1, (lp,))
    inst = verify.build_instance(rng, L=2, m=8, d=6, t=1, witness=1)

    def merge(rws, y):
        return nipm.lt_nipm([BitString(8, r) for r in rws],
                            BitString(6, y), lp).val
    d = verify.merger_distance(merge, inst, 1)
    bound = nipm.assembled_bound(params, 8, 6)
    rows.append({"name": "lt_nipm_distance", "value": float(d),
                 "bound": float(bound), "pass": d <= bound})
    adv = verify.adversarial_xor_instance(rng, L=2, m=4, d=4)
    d2 = verify.merger_distance(verify.xor_strawman, adv, 4)
    rows.append({"name": "xor_strawman_distance", "value": float(d2),
                 "bound": 0.4, "pass": d2 >= Fraction(2, 5)})
    return rows


def _suite_ipm(rng) -> list[dict]:
    from . import ipm as ipm_mod
    lp = nipm.LevelPlan(ell=2, m_in=4, w=2, m_out=1, d_slice=4)
    p = ipm_mod.micro_ipm(L=2, t=1, m=8, n_y=8, k_y=6, d_z=6,
                          nipm=nipm.hand_plan(2, 1, (lp,)))
    inst = verify.build_instance(rng, L=2, m=8, d=8, t=1, witness=1)

    def merge(rws, y):
        from .bits import matrix
        return ipm_mod.ipm_weak(matrix([BitString(8, r) for r in rws]),
                                BitString(8, y), p).val
    d = verify.merger_distance(merge, inst, 1)
    return [{"name": "ipm_weak_distance", "value": float(d),
             "bound": 1.0, "pass": d <= 1}]


def _suite_cbreak(rng) -> list[dict]:
    rows = []
    p = cbreak.plan_adv_gen(16, 8, 0.1)
    coll = 0
    pairs = 0
    for _ in range(20):
        x = BitString(16, int(rng.integers(1 << 16)))
        advs = [cbreak.adv_gen(x, BitString(8, y), p) for y in range(256)]
        for i in range(256):
            for j in range(i + 1, 256):
                pairs += 1
                coll += advs[i] == advs[j]
    rate = coll / pairs
    rows.append({"name": "advice_collision_rate", "value": rate,
                 "bound": 0.1, "pass": rate <= 0.1})
    return rows


def _suite_nmx(rng) -> list[dict]:
    p = nmx.micro_params()
    mismatch = 0
    trials = 2000
    agree = 0
    for _ in range(trials):
        x = BitString(p.n, int(rng.integers(1 << p.n)))
        y = BitString(p.d, int(rng.integers(1 << p.d)))
        ya = BitString(p.d, y.val ^ 1)
        o = nmx.nm_ext(x, y, p)
        oa = nmx.nm_ext(x, ya, p)
        agree += o == oa
    dev = abs(agree / trials - 0.5)
    ci = pamp.hoeffding_ci(trials)
    return [{"name": "tampered_agreement_bias", "value": dev,
             "bound": 0.1 + ci, "pass": dev <= 0.1 + ci}]


SUITES = {"sext": _suite_sext, "nipm": _suite_nipm, "ipm": _suite_ipm,
          "cbreak": _suite_cbreak, "nmx": _suite_nmx}


def cmd_verify(args) -> int:
    rng = make_rng(args.seed)
    rows = SUITES[args.module](rng)
    for r in rows:
        r["seed64"] = args.seed
    emit_report(rows, args.out, f"verify-{args.module}")
    return OK if all(r.get("pass", True) for r in rows) else FAIL


def _load_adversary(path: str) -> pamp.Adversary:
    """The adversary of a JSON file ``{"name": ..., "round1": [mask],
    "round2": [w_mask, tag_mask]}``; masks are strings int(., 0) parses."""
    spec = json.loads(Path(path).read_text())
    if not isinstance(spec, dict):
        raise ValueError("adversary: expected a JSON object")
    masks = {}
    for key, count in (("round1", 1), ("round2", 2)):
        got = spec.get(key)
        if (not isinstance(got, list) or len(got) != count
                or not all(isinstance(m, str) for m in got)):
            raise ValueError(f"adversary: {key} must be a list of "
                             f"{count} mask string(s), got {got!r}")
        masks[key] = [int(m, 0) for m in got]
    return pamp.table_adversary(spec.get("name", "custom"),
                                masks["round1"], masks["round2"])


def cmd_pa(args) -> int:
    rng = make_rng(args.seed)
    p = pamp.make_params(nmx.desk_params())
    if args.adversary.endswith(".json"):
        adv = _load_adversary(args.adversary)
    else:
        adv = {
            "passive": pamp.passive,
            "flip1": pamp.flip_round1,
            "flip2": pamp.flip_round2,
            "replace": lambda: pamp.replace_round1(rng, p.nmx.d),
            "random": lambda: pamp.random_adversary(rng),
        }[args.adversary]()
    rep = pamp.security_experiment(rng, p, adv, args.trials,
                                   distinguisher_budget=0.05)
    rows = [{"name": "attack_success", "value": rep.estimate,
             "bound": rep.budget + rep.ci99,
             "pass": rep.estimate <= rep.budget + rep.ci99,
             "detail": rep.line(), "seed64": args.seed}]
    emit_report(rows, args.out, f"pa-{adv.name}")
    return OK if rows[0]["pass"] else FAIL


def cmd_multisource(args) -> int:
    """The planted bad matrices all reduce to one shared bit (a function
    of the weak seed), so the exact binomial oracle applies trial by
    trial conditioned on that bit's value."""
    rng = make_rng(args.seed)
    p = msrc.default_params(args.r)
    gen = msrc.make_generator(rng, p, n_bad=args.bad)
    hits = {0: 0, 1: 0}
    count = {0: 0, 1: 0}
    for _ in range(args.trials):
        srcs = [BitString(16, int(rng.integers(1 << 16)))
                for _ in range(3)]
        weak = BitString(p.ipm.n_y, int(rng.integers(1 << p.ipm.n_y)))
        bits = msrc.reduce_bits(gen.matrices(srcs), weak, p)
        bad_bit = bits[gen.bad_set[0]] if gen.bad_set else 1
        count[bad_bit] += 1
        hits[bad_bit] += msrc.majority(bits)
    p_one = float(msrc.exact_majority_prob_one(p.r, args.bad))
    expect = {1: p_one, 0: 1.0 - p_one}
    # a bound above 1 says nothing about a bias: cap it and say so
    bound = msrc.majority_bias_bound(p)
    capped = bound > 1
    bound = min(bound, 1.0)
    ci = pamp.hoeffding_ci(max(args.trials // 4, 1))
    rows = []
    ok = True
    for b in (0, 1):
        if count[b] == 0:
            continue
        freq = hits[b] / count[b]
        good = abs(freq - expect[b]) <= ci
        ok = ok and good
        rows.append({"name": f"maj_rate_bad{b}", "value": freq,
                     "bound": f"{expect[b]:.5f}+-{ci:.5f}",
                     "detail": f"trials={count[b]}", "pass": good,
                     "seed64": args.seed})
    total = hits[0] + hits[1]
    bias = abs(total / args.trials - 0.5)
    good = bias <= bound + ci
    ok = ok and good
    row = {"name": "majority_bias", "value": bias,
           "bound": bound, "pass": good, "seed64": args.seed}
    if capped:
        row["detail"] = "capped"
    rows.append(row)
    emit_report(rows, args.out, "multisource")
    return OK if ok else FAIL


def positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def nonnegative_int(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {n}")
    return n


def error_rate(text: str) -> float:
    """An error bound eps with 0 < eps < 1 (rejects nan and inf too)."""
    eps = float(text)
    if not 0 < eps < 1:
        raise argparse.ArgumentTypeError(
            f"must be strictly between 0 and 1, got {text}")
    return eps


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="extlab")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0,
                        help="64-bit seed for all randomness")
    common.add_argument("--out",
                        help="write the report here (plus a .png)")
    sub = ap.add_subparsers(dest="cmd", required=True)

    params = sub.add_parser("params").add_subparsers(dest="sub",
                                                     required=True)
    pn = params.add_parser("plan-nipm", parents=[common])
    pn.add_argument("--L", type=positive_int, required=True)
    pn.add_argument("--t", type=positive_int, default=1)
    pn.add_argument("--m", type=positive_int, required=True)
    pn.add_argument("--d", type=positive_int, required=True)
    pn.add_argument("--eps", type=error_rate, required=True)
    pn.add_argument("--ell", type=int, default=None)
    pn.set_defaults(fn=cmd_plan_nipm)
    pe = params.add_parser("plan-nmext", parents=[common])
    pe.add_argument("--n", type=positive_int, required=True)
    pe.add_argument("--k", type=positive_int, required=True)
    pe.add_argument("--d", type=positive_int, required=True)
    pe.add_argument("--m", type=positive_int, required=True)
    pe.add_argument("--eps", type=error_rate, required=True)
    pe.add_argument("--t", type=positive_int, default=1)
    pe.add_argument("--rescale", default="linear",
                    choices=["linear", "log"])
    pe.set_defaults(fn=cmd_plan_nmext)

    ne = sub.add_parser("nmext").add_subparsers(dest="sub", required=True)
    ev = ne.add_parser("eval", parents=[common])
    ev.add_argument("--n", type=positive_int, default=1024)
    ev.add_argument("--k", type=positive_int, default=768)
    ev.add_argument("--d", type=positive_int, default=512)
    ev.add_argument("--m", type=positive_int, default=32)
    ev.add_argument("--eps", type=error_rate, default=2 ** -8)
    ev.add_argument("--x-hex")
    ev.add_argument("--y-hex")
    ev.set_defaults(fn=cmd_nmext_eval)

    vf = sub.add_parser("verify").add_subparsers(dest="sub", required=True)
    st = vf.add_parser("suite", parents=[common])
    st.add_argument("--module", required=True, choices=sorted(SUITES))
    st.set_defaults(fn=cmd_verify)

    pa = sub.add_parser("pa").add_subparsers(dest="sub", required=True)
    sim = pa.add_parser("simulate", parents=[common])
    sim.add_argument("--adversary", default="passive")
    sim.add_argument("--trials", type=positive_int, default=200)
    sim.set_defaults(fn=cmd_pa)

    ms = sub.add_parser("multisource").add_subparsers(dest="sub",
                                                      required=True)
    run = ms.add_parser("run", parents=[common])
    run.add_argument("--r", type=positive_int, default=11)
    run.add_argument("--bad", type=nonnegative_int, default=1)
    run.add_argument("--trials", type=positive_int, default=400)
    run.set_defaults(fn=cmd_multisource)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return USAGE if e.code not in (0, None) else OK
    try:
        return args.fn(args)
    except (ParamError, ValueError, OSError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
