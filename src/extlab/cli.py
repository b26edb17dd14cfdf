"""Command-line front end.

Every command draws all of its randomness from one recorded 64-bit seed
through a counter-based generator, so a report is byte-identical across
runs with the same configuration and seed.  Reports are delimited text;
when written to a file with --out, a PNG bar chart of the report's
numeric values is placed next to it, drawn with the standard library
(``zlib`` and ``struct``) and carrying the report's title and the bars'
names in ``tEXt`` chunks.  A failure to write either file is an error;
an --out that names a directory, sits in a missing directory or ends in
the figure's own ``.png`` is rejected before the command runs.

Exit codes: 0 success, 1 some report row failed its check (``emit_report``
decides it for every command), 2 parameter/usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import struct
import sys
import zlib
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import cbreak, ipm, msrc, nipm, nmx, pamp, prob, sext, verify
from .bits import MAX_LEN, BitString
from .nipm import ParamError

OK, FAIL, USAGE = 0, 1, 2


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def emit_report(rows: list[dict], out: str | None, title: str) -> int:
    """Write the report, to stdout or to ``out`` and its figure, and
    return the command's exit code: FAIL if some row's ``pass`` is
    false, else OK."""
    header = sorted({k for r in rows for k in r})
    lines = ["\t".join(header)]
    for r in rows:
        lines.append("\t".join(str(r.get(k, "")) for k in header))
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        path = Path(out)
        path.write_text(text)
        _render_figure(rows, path, title)
    return OK if all(r.get("pass", True) for r in rows) else FAIL


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
    return emit_report(rows, args.out, "plan-nipm")


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
    return emit_report(rows, args.out, "plan-nmext")


def cmd_nmext_eval(args) -> int:
    rng = make_rng(args.seed)
    p = nmx.plan_params(args.n, args.k, args.d, args.m, args.eps)
    x = _bits_arg("x-hex", args.x_hex, args.n, rng)
    y = _bits_arg("y-hex", args.y_hex, args.d, rng)
    out = nmx.nm_ext(x, y, p)
    rows = [{"name": "output_hex", "value": format(out.val, "x")},
            {"name": "output_bits", "value": out.n},
            {"name": "seed64", "value": args.seed}]
    return emit_report(rows, args.out, "nmext-eval")


def _bits_arg(name: str, text: str | None, width: int, rng) -> BitString:
    """A --x-hex / --y-hex value as a width-bit string, or width random
    bits when the flag is not given."""
    if text is None:
        return BitString(width, pamp._rand_bits(rng, width))
    try:
        v = int(text, 16)
    except ValueError:
        raise ParamError(name, f"not a hex number: {text}") from None
    if v < 0 or v >> width:
        raise ParamError(name, f"not a {width}-bit value: {text}")
    return BitString(width, v)


def _suite_sext(rng) -> list[dict]:
    scheme = sext.poly_scheme(12, 2)
    bound = sext.lhl_bound(scheme, 6)
    worst = Fraction(0)
    for _ in range(50):
        src = prob.sample_flat_source(rng, 12, 6)
        d = verify.strong_distance_poly_fast(scheme, src)
        worst = max(worst, d)
    return [{"name": "strong_distance_max", "value": float(worst),
             "bound": float(bound), "pass": worst <= bound}]


def _suite_nipm(rng) -> list[dict]:
    lp = nipm.LevelPlan(ell=2, m_in=8, w=2, m_out=1, d_slice=6)
    params = nipm.hand_plan(2, 1, (lp,))
    inst = verify.build_instance(rng, L=2, m=8, d=6, t=1, witness=1)
    # lt_nipm's level body on one block of two 8-bit rows
    d = verify.merger_distance(
        lambda rws, y: nipm.recursive_nipm_val(rws, 8, y, 6, (lp,))[1],
        inst, 1)
    bound = nipm.assembled_bound(params, 8, 6)
    adv = verify.adversarial_xor_instance(rng, L=2, m=4, d=4)
    d2 = verify.merger_distance(verify.xor_strawman, adv, 4)
    return [{"name": "lt_nipm_distance", "value": float(d),
             "bound": float(bound), "pass": d <= bound,
             "detail": "capped" if bound == 1 else ""},
            {"name": "xor_strawman_distance", "value": float(d2),
             "bound": 0.4, "pass": d2 >= Fraction(2, 5)}]


def _suite_ipm(rng) -> list[dict]:
    lp = nipm.LevelPlan(ell=2, m_in=4, w=2, m_out=1, d_slice=4)
    p = ipm.micro_ipm(L=2, t=1, m=8, n_y=8, k_y=6, d_z=6,
                      nipm=nipm.hand_plan(2, 1, (lp,)))
    inst = verify.build_instance(rng, L=2, m=8, d=8, t=1, witness=1)
    d = verify.merger_distance(
        lambda rws, y: ipm.merge_rows_val(rws, y, p)[1], inst, 1)
    return [{"name": "ipm_weak_distance", "value": float(d),
             "bound": 1.0, "pass": d <= 1, "detail": "capped"}]


def _suite_cbreak(rng) -> list[dict]:
    p = cbreak.plan_adv_gen(16, 8, 0.1)
    coll = 0
    for _ in range(20):
        x = int(rng.integers(1 << 16))
        # c seeds sharing one advice value make c(c-1)/2 colliding pairs
        advs = Counter(cbreak.adv_gen_val(x, y, p) for y in range(256))
        coll += sum(c * (c - 1) // 2 for c in advs.values())
    rate = coll / (20 * (256 * 255 // 2))
    return [{"name": "advice_collision_rate", "value": rate,
             "bound": 0.1, "pass": rate <= 0.1}]


def _suite_nmx(rng) -> list[dict]:
    p = nmx.micro_params()
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
    return emit_report(rows, args.out, f"verify-{args.module}")


def _load_adversary(path: str, p: pamp.PampParams) -> pamp.Adversary:
    """The adversary of a JSON file ``{"name": ..., "round1": [mask],
    "round2": [w_mask, tag_mask]}``; masks are strings int(., 0) parses,
    each in 0 .. 2^width - 1 for the width it is XORed onto: the seed
    Y, W and the tag."""
    try:
        spec = json.loads(Path(path).read_text())
    except json.JSONDecodeError as e:
        raise ValueError(f"adversary: not JSON: {e}") from None
    if not isinstance(spec, dict):
        raise ValueError("adversary: expected a JSON object")
    name = spec.get("name", "custom")
    if not isinstance(name, str):
        raise ValueError(f"adversary: name must be a string, got {name!r}")
    masks = {}
    for key, fields in (("round1", [("Y", p.nmx.d)]),
                        ("round2", [("W", p.w_len), ("tag", p.mac_bits)])):
        got = spec.get(key)
        if (not isinstance(got, list) or len(got) != len(fields)
                or not all(isinstance(m, str) for m in got)):
            raise ValueError(f"adversary: {key} must be a list of "
                             f"{len(fields)} mask string(s), got {got!r}")
        try:
            masks[key] = [int(m, 0) for m in got]
        except ValueError:
            raise ValueError(f"adversary: {key} masks must be integer "
                             f"literals, got {got!r}") from None
        for text, mask, (what, width) in zip(got, masks[key], fields):
            if mask < 0 or mask >> width:
                raise ValueError(f"adversary: {key} mask for {what} must be "
                                 f"in 0 .. 2^{width} - 1, got {text}")
    return pamp.table_adversary(name, masks["round1"], masks["round2"])


def cmd_pa(args) -> int:
    rng = make_rng(args.seed)
    p = pamp.make_params(nmx.desk_params())
    builtin = {
        "passive": pamp.passive,
        "flip1": pamp.flip_round1,
        "flip2": pamp.flip_round2,
        "replace": lambda: pamp.replace_round1(rng, p.nmx.d),
        "random": lambda: pamp.random_adversary(rng),
    }
    if args.adversary.endswith(".json"):
        adv = _load_adversary(args.adversary, p)
    elif args.adversary in builtin:
        adv = builtin[args.adversary]()
    else:
        raise ValueError(f"adversary: unknown name {args.adversary!r}; "
                         f"choose one of {', '.join(builtin)} or a .json "
                         f"file")
    rep = pamp.security_experiment(rng, p, adv, args.trials,
                                   distinguisher_budget=0.05)
    rows = [{"name": "attack_success", "value": rep.estimate,
             "bound": rep.budget + rep.ci99,
             "pass": rep.estimate <= rep.budget + rep.ci99,
             "detail": rep.line(), "seed64": args.seed}]
    return emit_report(rows, args.out, f"pa-{adv.name}")


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
    for b in (0, 1):
        if count[b] == 0:
            continue
        freq = hits[b] / count[b]
        rows.append({"name": f"maj_rate_bad{b}", "value": freq,
                     "bound": f"{expect[b]:.5f}+-{ci:.5f}",
                     "detail": f"trials={count[b]}",
                     "pass": abs(freq - expect[b]) <= ci,
                     "seed64": args.seed})
    total = hits[0] + hits[1]
    bias = abs(total / args.trials - 0.5)
    row = {"name": "majority_bias", "value": bias,
           "bound": bound, "pass": bias <= bound + ci, "seed64": args.seed}
    if capped:
        row["detail"] = "capped"
    rows.append(row)
    return emit_report(rows, args.out, "multisource")


def positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def size(text: str) -> int:
    """A width in bits, or a count of rows, tampers or merger fan-in: a
    positive int at most ``bits.MAX_LEN`` (2^24), so every planner gets
    values its float arithmetic can hold."""
    n = positive_int(text)
    if n > MAX_LEN:
        raise argparse.ArgumentTypeError(
            f"must be at most 2^24 = {MAX_LEN}, got {n}")
    return n


def seed64(text: str) -> int:
    """A seed in 0..2^64 - 1, recorded as given and used unmasked."""
    n = int(text)
    if not 0 <= n < 1 << 64:
        raise argparse.ArgumentTypeError(
            f"must be in 0..2^64 - 1, got {n}")
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
    common.add_argument("--seed", type=seed64, default=0,
                        help="64-bit seed for all randomness")
    common.add_argument("--out",
                        help="write the report here (plus a .png)")
    sub = ap.add_subparsers(dest="cmd", required=True)

    params = sub.add_parser("params").add_subparsers(dest="sub",
                                                     required=True)
    pn = params.add_parser("plan-nipm", parents=[common])
    pn.add_argument("--L", type=size, required=True)
    pn.add_argument("--t", type=size, default=1)
    pn.add_argument("--m", type=size, required=True)
    pn.add_argument("--d", type=size, required=True)
    pn.add_argument("--eps", type=error_rate, required=True)
    pn.add_argument("--ell", type=size, default=None)
    pn.set_defaults(fn=cmd_plan_nipm)
    pe = params.add_parser("plan-nmext", parents=[common])
    pe.add_argument("--n", type=size, required=True)
    pe.add_argument("--k", type=size, required=True)
    pe.add_argument("--d", type=size, required=True)
    pe.add_argument("--m", type=size, required=True)
    pe.add_argument("--eps", type=error_rate, required=True)
    pe.add_argument("--t", type=size, default=1)
    pe.add_argument("--rescale", default="linear",
                    choices=["linear", "log"])
    pe.set_defaults(fn=cmd_plan_nmext)

    ne = sub.add_parser("nmext").add_subparsers(dest="sub", required=True)
    ev = ne.add_parser("eval", parents=[common])
    ev.add_argument("--n", type=size, default=1024)
    ev.add_argument("--k", type=size, default=768)
    ev.add_argument("--d", type=size, default=512)
    ev.add_argument("--m", type=size, default=32)
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


def _check_out(out: str | None) -> None:
    """Reject an --out that cannot hold the report and its figure before
    any work is done: the report and the .png next to it must be two
    files, in a directory that exists."""
    if out is None:
        return
    path = Path(out)
    if path.suffix.lower() == ".png":
        raise ParamError("out", f"{out} has the figure's .png suffix; "
                                "the figure would overwrite the report")
    if path.is_dir():
        raise ParamError("out", f"{out} is a directory")
    if not path.parent.is_dir():
        raise ParamError("out", f"no such directory: {path.parent}")
    if path.with_suffix(".png").is_dir():
        raise ParamError("out", f"{path.with_suffix('.png')} is a directory")


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return USAGE if e.code not in (0, None) else OK
    try:
        _check_out(args.out)
        return args.fn(args)
    except (ParamError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
