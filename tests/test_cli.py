import json
import struct
import subprocess
import sys
import zlib
from fractions import Fraction

import pytest

from extlab import msrc, pamp, verify
from extlab.bits import MAX_LEN
from extlab.cli import _bar_value, main

RUN = [sys.executable, "-m", "extlab.cli"]


def run_cli(*args):
    return subprocess.run(RUN + list(args), capture_output=True,
                          text=True)


def test_plan_nipm_stdout_and_exit_code():
    r = run_cli("params", "plan-nipm", "--L", "20", "--t", "1",
                "--m", "256", "--d", "512", "--eps", "1e-4")
    assert r.returncode == 0
    assert "level0" in r.stdout and "m1_nominal" in r.stdout


def test_plan_nmext_reports_nominal_next_to_implemented():
    r = run_cli("params", "plan-nmext", "--n", "1024", "--k", "768",
                "--d", "512", "--m", "32", "--eps", "0.00390625")
    assert r.returncode == 0
    assert "nominal=" in r.stdout and "eps_out_nominal" in r.stdout


def test_bad_params_exit_code_2():
    r = run_cli("params", "plan-nmext", "--n", "1024", "--k", "256",
                "--d", "512", "--m", "32", "--eps", "0.00390625")
    assert r.returncode == 2
    assert "error:" in r.stderr
    assert run_cli("bogus").returncode == 2


def test_nmext_eval_is_deterministic_under_seed(tmp_path):
    args = ("nmext", "eval", "--seed", "9")
    a, b = run_cli(*args), run_cli(*args)
    assert a.returncode == 0
    assert a.stdout == b.stdout
    c = run_cli("nmext", "eval", "--seed", "10")
    assert c.stdout != a.stdout


def test_nmext_eval_accepts_hex_inputs():
    r = run_cli("nmext", "eval", "--n", "16", "--k", "12", "--d", "16",
                "--m", "1", "--eps", "0.05", "--x-hex", "1234",
                "--y-hex", "9e37")
    # desk planner can't build n=16; should fail cleanly with code 2
    assert r.returncode == 2


def test_verify_suite_report_is_byte_identical(tmp_path):
    out1 = tmp_path / "a.tsv"
    out2 = tmp_path / "b.tsv"
    for out in (out1, out2):
        rc = main(["verify", "suite", "--module", "nipm", "--seed", "5",
                   "--out", str(out)])
        assert rc == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert (tmp_path / "a.png").exists()  # figure rendered alongside


def test_pa_simulate_passive_in_process(tmp_path):
    out = tmp_path / "pa.tsv"
    rc = main(["pa", "simulate", "--adversary", "passive", "--trials",
               "20", "--seed", "3", "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    assert "attack_success" in text and "passive" in text


def test_pa_custom_adversary_json(tmp_path):
    spec = tmp_path / "adv.json"
    spec.write_text(
        '{"name": "masks", "round1": ["0x1"], "round2": ["0x2", "0x0"]}')
    rc = main(["pa", "simulate", "--adversary", str(spec), "--trials",
               "10", "--seed", "3"])
    assert rc in (0, 1)  # must run; success budget decides the code


def _assert_usage_error(rc, capsys):
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    return err


@pytest.mark.parametrize("cmd", [["pa", "simulate"], ["multisource", "run"]])
def test_zero_trials_is_a_usage_error(cmd, capsys):
    _assert_usage_error(main(cmd + ["--trials", "0"]), capsys)


@pytest.mark.parametrize("spec", [
    '{"round1": [], "round2": ["0x2", "0x0"]}',
    '{"round1": ["0x1"], "round2": ["0x2"]}',
    '{"round1": [1], "round2": ["0x2", "0x0"]}',
    '{"name": null, "round1": ["0x1"], "round2": ["0x2", "0x0"]}',
    '{"name": 7, "round1": ["0x1"], "round2": ["0x2", "0x0"]}',
    '{"round1": ["zz"], "round2": ["0x2", "0x0"]}',
    '{round1: ["0x1"]}',
], ids=["round1_empty", "round2_one_mask", "mask_not_a_string",
        "name_null", "name_not_a_string", "mask_not_a_number", "not_json"])
def test_bad_adversary_json_is_a_usage_error(spec, tmp_path, capsys):
    path = tmp_path / "adv.json"
    path.write_text(spec)
    err = _assert_usage_error(main(["pa", "simulate", "--adversary",
                                    str(path), "--trials", "2"]), capsys)
    assert "error: adversary:" in err


@pytest.mark.parametrize("round1, round2", [
    (hex(1 << 512), ["0x0", "0x0"]),
    ("-1", ["0x0", "0x0"]),
    ("0x1", [hex(1 << 64), "0x0"]),
    ("0x1", ["-0x2", "0x0"]),
    ("0x1", ["0x0", hex(1 << 16)]),
    ("0x1", ["0x0", "-1"]),
], ids=["y_too_wide", "y_negative", "w_too_wide", "w_negative",
        "tag_too_wide", "tag_negative"])
def test_adversary_mask_outside_its_field_is_a_usage_error(
        round1, round2, tmp_path, capsys):
    # masks are XORed onto the 512-bit Y, the 64-bit W and the 16-bit
    # tag; a wider or negative mask would be cut down to that width
    path = tmp_path / "adv.json"
    path.write_text(json.dumps({"round1": [round1], "round2": round2}))
    err = _assert_usage_error(main(["pa", "simulate", "--adversary",
                                    str(path), "--trials", "2"]), capsys)
    assert "error: adversary:" in err and "mask" in err


def test_adversary_masks_of_full_width_run(tmp_path):
    path = tmp_path / "adv.json"
    path.write_text(json.dumps({"round1": [hex((1 << 512) - 1)],
                                "round2": [hex((1 << 64) - 1), "0xffff"]}))
    assert main(["pa", "simulate", "--adversary", str(path), "--trials",
                 "2", "--seed", "3"]) in (0, 1)


def test_unknown_adversary_is_a_named_usage_error(capsys):
    err = _assert_usage_error(main(["pa", "simulate", "--adversary",
                                    "nosuch", "--trials", "2"]), capsys)
    assert "error: adversary: unknown name 'nosuch'" in err
    for name in ("passive", "flip1", "flip2", "replace", "random"):
        assert name in err


PLAN_NIPM = ["params", "plan-nipm", "--L", "20", "--m", "256", "--d", "512"]
PLAN_NMEXT = ["params", "plan-nmext", "--k", "768", "--d", "512",
              "--m", "32"]
ONE_ROW = ["params", "plan-nipm", "--L", "1", "--m", "64", "--d", "64",
           "--eps", "0.01"]


@pytest.mark.parametrize("argv, name", [
    (PLAN_NIPM + ["--eps", "0"], "--eps"),
    (PLAN_NIPM + ["--eps", "-1"], "--eps"),
    (PLAN_NIPM + ["--eps", "0.01", "--t", "0"], "--t"),
    (ONE_ROW + ["--ell", "0"], "--ell"),
    (ONE_ROW + ["--ell", "-5"], "--ell"),
    (ONE_ROW + ["--ell", "1"], "ell"),
    (PLAN_NMEXT + ["--n", "1024", "--eps", "0"], "--eps"),
    (PLAN_NMEXT + ["--n", "1024", "--eps", "1"], "--eps"),
    (PLAN_NMEXT + ["--n", "1024", "--eps", "nan"], "--eps"),
    (PLAN_NMEXT + ["--n", "1024", "--eps", "5e-324"], "eps"),
    (PLAN_NIPM + ["--eps", "1e-306"], "eps"),
    (PLAN_NMEXT + ["--n", "0", "--eps", "0.01"], "--n"),
    (["params", "plan-nmext", "--n", "1024", "--k", "2000", "--d", "512",
      "--m", "32", "--eps", "0.01"], "k"),
    (PLAN_NMEXT + ["--n", "1024", "--eps", "0.01", "--m", "0"], "--m"),
    (["nmext", "eval", "--eps", "0"], "--eps"),
    (["nmext", "eval", "--eps", "1e-310"], "eps"),
    (["nmext", "eval", "--k", "-1"], "--k"),
    (["nmext", "eval", "--x-hex", "zz"], "x-hex"),
    (["nmext", "eval", "--x-hex", "1" + "0" * 256], "x-hex"),
    (["nmext", "eval", "--y-hex", "-5"], "y-hex"),
    (["nmext", "eval", "--y-hex", "1" + "0" * 128], "y-hex"),
    (["nmext", "eval", "--x-hex", ""], "x-hex: not a hex number: "),
    (["nmext", "eval", "--y-hex", ""], "y-hex: not a hex number: "),
    (["multisource", "run", "--bad", "-1"], "--bad"),
    (["multisource", "run", "--r", "-1"], "--r"),
    (["params", "plan-nipm", "--L", "20", "--m", "1" + "0" * 320, "--d",
      "512", "--eps", "0.01"], "--m"),
    (["params", "plan-nmext", "--n", "1" + "0" * 320, "--k", "768", "--d",
      "512", "--m", "32", "--eps", "0.01"], "--n"),
    (PLAN_NIPM + ["--eps", "0.01", "--L", str(MAX_LEN + 1)], "--L"),
    (PLAN_NIPM + ["--eps", "0.01", "--t", str(MAX_LEN + 1)], "--t"),
    (ONE_ROW + ["--ell", "1" + "0" * 320], "--ell"),
    (PLAN_NMEXT + ["--n", "1024", "--eps", "0.01", "--d",
                   str(MAX_LEN + 1)], "--d"),
    (["nmext", "eval", "--k", "1" + "0" * 320], "--k"),
], ids=["nipm_eps_0", "nipm_eps_neg", "nipm_t_0", "nipm_ell_0",
        "nipm_ell_neg", "nipm_ell_1", "nmext_eps_0",
        "nmext_eps_1", "nmext_eps_nan", "nmext_eps_underflow",
        "nipm_eps_overflow", "nmext_n_0", "nmext_k_above_n", "nmext_m_0",
        "eval_eps_0", "eval_eps_overflow", "eval_k_neg",
        "eval_x_not_hex", "eval_x_too_wide", "eval_y_negative",
        "eval_y_too_wide", "eval_x_empty", "eval_y_empty",
        "ms_bad_neg", "ms_r_neg", "nipm_m_huge", "nmext_n_huge",
        "nipm_L_above_max", "nipm_t_above_max", "nipm_ell_huge",
        "nmext_d_above_max", "eval_k_huge"])
def test_bad_number_is_a_usage_error(argv, name, capsys):
    err = _assert_usage_error(main(argv), capsys)
    assert f"error: {name}" in err or f"error: argument {name}:" in err


def test_planners_run_at_the_size_cap(capsys):
    top = str(MAX_LEN)
    assert main(["params", "plan-nipm", "--L", top, "--t", top, "--m", top,
                 "--d", top, "--ell", top, "--eps", "0.01"]) == 0
    assert main(["params", "plan-nmext", "--n", top, "--k", top, "--d", top,
                 "--m", "32", "--eps", "0.01"]) == 0
    assert "Traceback" not in capsys.readouterr().err


def test_multisource_run_in_process(tmp_path):
    out = tmp_path / "ms.tsv"
    rc = main(["multisource", "run", "--r", "5", "--bad", "1",
               "--trials", "120", "--seed", "8", "--out", str(out)])
    assert rc == 0
    assert "majority_bias" in out.read_text()


BAR_RGB = b"\x48\x78\xa8"


def read_png(path):
    """Decode an 8-bit RGB PNG with zlib and struct alone, checking the
    signature, every chunk CRC and the inflated size.  Returns the
    IHDR width and height, the pixel rows and the tEXt entries."""
    data = path.read_bytes()
    assert data[:8] == b"\x89PNG\r\n\x1a\n"
    chunks, pos = [], 8
    while pos < len(data):
        (length,) = struct.unpack(">I", data[pos:pos + 4])
        tag = data[pos + 4:pos + 8]
        body = data[pos + 8:pos + 8 + length]
        (crc,) = struct.unpack(">I", data[pos + 8 + length:pos + 12 + length])
        assert crc == zlib.crc32(tag + body), tag
        chunks.append((tag, body))
        pos += 12 + length
    assert pos == len(data)
    assert chunks[0][0] == b"IHDR" and chunks[-1] == (b"IEND", b"")
    width, height, *fmt = struct.unpack(">IIBBBBB", chunks[0][1])
    assert fmt == [8, 2, 0, 0, 0]  # 8-bit RGB, deflate, no interlace
    raw = zlib.decompress(b"".join(b for t, b in chunks if t == b"IDAT"))
    row_bytes = 3 * width
    assert len(raw) == height * (1 + row_bytes)
    lines = [raw[y * (1 + row_bytes):(y + 1) * (1 + row_bytes)]
             for y in range(height)]
    assert all(line[0] == 0 for line in lines)  # filter type 0
    text = dict(b.decode("latin-1").split("\0", 1)
                for t, b in chunks if t == b"tEXt")
    return width, height, [line[1:] for line in lines], text


def bar_rows(rows):
    """Indices of the pixel rows holding any bar pixel."""
    return [y for y, line in enumerate(rows)
            if any(line[x:x + 3] == BAR_RGB
                   for x in range(0, len(line), 3))]


def axis_row(rows):
    """Index of the one pixel row that is a single grey line."""
    (y,) = [y for y, line in enumerate(rows)
            if line == line[:3] * (len(line) // 3)
            and line[:3] not in (BAR_RGB, b"\xff\xff\xff")]
    return y


def png_twice(tmp_path, *argv):
    """Run the CLI twice with --out; check both reports and both figures
    are byte-identical and return the decoded figure."""
    outs = [tmp_path / "one.tsv", tmp_path / "two.tsv"]
    for out in outs:
        assert main([*argv, "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    pngs = [out.with_suffix(".png") for out in outs]
    assert pngs[0].read_bytes() == pngs[1].read_bytes()
    return read_png(pngs[0])


def test_verify_suite_png_is_a_bar_chart(tmp_path):
    width, height, rows, text = png_twice(
        tmp_path, "verify", "suite", "--module", "nipm", "--seed", "5")
    assert width > 0 and height > 0 and len(rows) == height
    assert text["Title"] == "verify-nipm"
    assert text["Description"].splitlines() == [
        "lt_nipm_distance=0.0", "xor_strawman_distance=0.9375"]
    # lt_nipm_distance is 0, so one bar rises above the baseline
    assert bar_rows(rows) and max(bar_rows(rows)) < axis_row(rows)


def test_pa_passive_all_zero_png(tmp_path):
    _, height, rows, text = png_twice(
        tmp_path, "pa", "simulate", "--adversary", "passive", "--trials",
        "20", "--seed", "3")
    assert text["Title"] == "pa-passive"
    assert text["Description"] == "attack_success=0.0"
    assert bar_rows(rows) == [] and 0 < axis_row(rows) < height


def test_plan_nipm_negative_value_png(tmp_path):
    _, height, rows, text = png_twice(
        tmp_path, "params", "plan-nipm", "--L", "20", "--m", "256",
        "--d", "512", "--eps", "1e-4")
    assert "m1_nominal=-1037" in text["Description"].splitlines()
    zero = axis_row(rows)
    ys = bar_rows(rows)
    assert min(ys) < zero < max(ys) < height


def test_png_charts_numbers_not_numeric_strings(tmp_path):
    out = tmp_path / "ev.tsv"
    assert main(["nmext", "eval", "--seed", "2", "--out", str(out)]) == 0
    assert "output_hex\t52640409" in out.read_text()
    _, _, _, text = read_png(out.with_suffix(".png"))
    names = [line.split("=")[0] for line in text["Description"].splitlines()]
    assert names == ["output_bits", "seed64"]
    for cell in ("52640409", "1e999", True, float("inf"), float("nan")):
        assert _bar_value(cell) is None
    assert _bar_value(-3) == -3 and _bar_value(0.25) == Fraction(1, 4)
    assert _bar_value(Fraction(1, 3)) == Fraction(1, 3)


def test_png_write_failure_is_reported(tmp_path, capsys):
    (tmp_path / "r.png").mkdir()
    rc = main(["params", "plan-nipm", "--L", "20", "--m", "256", "--d",
               "512", "--eps", "1e-4", "--out", str(tmp_path / "r.tsv")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("out, detail, made", [
    ("r.png", "r.png has the figure's .png suffix", []),
    ("R.PNG", "R.PNG has the figure's .png suffix", []),
    (".", ". is a directory", []),
    ("nosuch/r.tsv", "no such directory: nosuch", []),
    ("r.tsv", "r.png is a directory", ["r.png"]),
], ids=["png_suffix", "png_suffix_upper", "directory", "missing_parent",
        "figure_is_a_directory"])
def test_bad_out_is_rejected_before_the_run(out, detail, made, tmp_path,
                                             monkeypatch, capsys):
    # an unknown adversary fails only once the command runs, so the out
    # error shows that --out is checked first; nothing is written
    monkeypatch.chdir(tmp_path)
    for name in made:
        (tmp_path / name).mkdir()
    err = _assert_usage_error(main(["pa", "simulate", "--adversary",
                                    "nosuch", "--out", out]), capsys)
    assert f"error: out: {detail}" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == made


def test_verify_suite_sext_report_is_pinned(capsys):
    assert main(["verify", "suite", "--module", "sext", "--seed", "5"]) == 0
    assert capsys.readouterr().out == (
        "bound\tname\tpass\tseed64\tvalue\n"
        "0.13975424859373753\tstrong_distance_max\tTrue\t5\t"
        "0.08828496932983398\n")


# reports recorded before the pipeline stages passed ints between them;
# the int bodies must reproduce them byte for byte
PINNED_REPORTS = {
    "nmext eval --seed 5": (
        "name\tvalue\n"
        "output_hex\tc442e2c6\n"
        "output_bits\t32\n"
        "seed64\t5\n"),
    "verify suite --module nmx --seed 5": (
        "bound\tname\tpass\tseed64\tvalue\n"
        "0.13639477080072093\ttampered_agreement_bias\tTrue\t5\t"
        "0.016500000000000015\n"),
    "verify suite --module cbreak --seed 5": (
        "bound\tname\tpass\tseed64\tvalue\n"
        "0.1\tadvice_collision_rate\tTrue\t5\t0.0026393995098039215\n"),
    "verify suite --module nipm --seed 5": (
        "bound\tdetail\tname\tpass\tseed64\tvalue\n"
        "1.0\tcapped\tlt_nipm_distance\tTrue\t5\t0.0\n"
        "0.4\t\txor_strawman_distance\tTrue\t5\t0.9375\n"),
    "verify suite --module ipm --seed 5": (
        "bound\tdetail\tname\tpass\tseed64\tvalue\n"
        "1.0\tcapped\tipm_weak_distance\tTrue\t5\t0.0\n"),
    "multisource run --r 11 --trials 40 --seed 5": (
        "bound\tdetail\tname\tpass\tseed64\tvalue\n"
        "0.37695+-0.51470\ttrials=23\tmaj_rate_bad0\tTrue\t5\t"
        "0.17391304347826086\n"
        "0.62305+-0.51470\ttrials=17\tmaj_rate_bad1\tTrue\t5\t"
        "0.5294117647058824\n"
        "0.8015113445777636\t\tmajority_bias\tTrue\t5\t0.175\n"),
    # desk's plan, and one at n = 2048 whose symbol path XOR-folds x,
    # adds y1's v half to key 1 and has a ragged level-0 block (L = 22)
    "params plan-nmext --n 1024 --k 768 --d 512 --m 32 --eps 0.00390625": (
        "detail\tname\tvalue\n"
        "nominal=62\tL_advice\t20\n"
        "nominal=8\tell\t4\n"
        "nominal=2\tr\t3\n"
        "nominal=155\td1\t512\n"
        "nominal=120\td2\t512\n"
        "nominal=124\td3\t256\n"
        "\tm_ff\t512\n"
        "\tm_mid\t256\n"
        "\tm\t32\n"
        "\teps1\t4.76837158203125e-07\n"
        "\teps_out_nominal\t5.91278076171875e-05\n"),
    "params plan-nmext --n 2048 --k 1536 --d 1024 --m 32 --eps 0.00390625": (
        "detail\tname\tvalue\n"
        "nominal=66\tL_advice\t22\n"
        "nominal=8\tell\t4\n"
        "nominal=3\tr\t3\n"
        "nominal=165\td1\t1024\n"
        "nominal=128\td2\t512\n"
        "nominal=132\td3\t256\n"
        "\tm_ff\t512\n"
        "\tm_mid\t256\n"
        "\tm\t32\n"
        "\teps1\t2.384185791015625e-07\n"
        "\teps_out_nominal\t3.147125244140625e-05\n"),
    "nmext eval --n 2048 --k 1536 --d 1024 --m 32 --seed 5": (
        "name\tvalue\n"
        "output_hex\t1ea49da8\n"
        "output_bits\t32\n"
        "seed64\t5\n"),
}


@pytest.mark.parametrize("cmd", PINNED_REPORTS)
def test_report_is_pinned(cmd, capsys):
    assert main(cmd.split()) == 0
    assert capsys.readouterr().out == PINNED_REPORTS[cmd]


SEEDED = [PLAN_NIPM + ["--eps", "0.01"],
          PLAN_NMEXT + ["--n", "1024", "--eps", "0.01"],
          ["nmext", "eval"], ["verify", "suite", "--module", "sext"],
          ["pa", "simulate", "--trials", "1"],
          ["multisource", "run", "--trials", "1"]]
SEEDED_IDS = ["plan_nipm", "plan_nmext", "nmext_eval", "verify_suite",
              "pa_simulate", "multisource_run"]


@pytest.mark.parametrize("argv", SEEDED, ids=SEEDED_IDS)
def test_seed_outside_64_bits_is_a_usage_error(argv, capsys):
    for seed in ("-1", str(1 << 64)):
        err = _assert_usage_error(main(argv + ["--seed", seed]), capsys)
        assert f"error: argument --seed: must be in 0..2^64 - 1, got {seed}" \
            in err


@pytest.mark.parametrize("argv", SEEDED, ids=SEEDED_IDS)
def test_largest_seed_is_accepted_and_recorded(argv, capsys):
    top = str((1 << 64) - 1)
    assert main(argv + ["--seed", top]) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    if "seed64" in header.split("\t"):
        col = header.split("\t").index("seed64")
        assert {line.split("\t")[col] for line in lines} == {top}
    elif argv[0] == "nmext":
        assert f"seed64\t{top}" in lines


def _majority_bias_row(r, bad, capsys):
    rc = main(["multisource", "run", "--r", r, "--bad", bad,
               "--trials", "40", "--seed", "4"])
    assert rc == 0
    header, *lines = capsys.readouterr().out.splitlines()
    rows = [dict(zip(header.split("\t"), line.split("\t")))
            for line in lines]
    return next(row for row in rows if row["name"] == "majority_bias")


@pytest.mark.parametrize("r, bad, capped", [("1", "0", True),
                                          ("3", "0", True),
                                          ("5", "1", False)])
def test_multisource_bias_bound_is_capped_at_one(r, bad, capped, capsys):
    # majority_bias_bound is 1.5 at r = 1, 1.077 at r = 3 and 0.947 at r = 5
    row = _majority_bias_row(r, bad, capsys)
    assert float(row["bound"]) <= 1
    assert row["detail"] == ("capped" if capped else "")


# one failing row per reporting command, forced at the layer below it
FAILING = {
    "verify": (["verify", "suite", "--module", "sext"],
               verify, "strong_distance_poly_fast",
               lambda scheme, src: Fraction(1)),
    "pa": (["pa", "simulate", "--trials", "20"], pamp, "run_protocol",
           lambda x, rng, p, adv: pamp.TrialResult(True, True, False, True)),
    "multisource": (["multisource", "run", "--trials", "40"], msrc,
                    "exact_majority_prob_one", lambda r, bad: Fraction(2)),
}


@pytest.mark.parametrize("cmd", FAILING)
def test_failed_row_exits_1_and_writes_the_report(cmd, tmp_path,
                                                  monkeypatch):
    argv, module, name, fake = FAILING[cmd]
    monkeypatch.setattr(module, name, fake)
    out = tmp_path / "report.tsv"
    assert main(argv + ["--seed", "3", "--out", str(out)]) == 1
    header, *lines = out.read_text().splitlines()
    col = header.split("\t").index("pass")
    assert "False" in [line.split("\t")[col] for line in lines]
    assert out.with_suffix(".png").exists()


@pytest.mark.parametrize("argv", [
    PLAN_NIPM + ["--eps", "0.01"],
    PLAN_NMEXT + ["--n", "1024", "--eps", "0.01"],
    ["nmext", "eval"]], ids=["plan_nipm", "plan_nmext", "nmext_eval"])
def test_reports_without_a_verdict_exit_0(argv, capsys):
    assert main(argv) == 0
    assert "pass" not in capsys.readouterr().out.splitlines()[0].split("\t")


@pytest.mark.parametrize("argv, spec, message", [
    (["pa", "simulate", "--trials", "2", "--adversary"], '["0x1"]',
     "error: adversary: expected a JSON object"),
    (["params", "plan-nipm", "--L", "20", "--m", "4", "--d", "512",
      "--eps", "0.01"], None, "error: m_i: level output exceeds row width"),
], ids=["adversary_array", "plan_nipm_m_4"])
def test_bad_inputs_print_named_errors(argv, spec, message, tmp_path,
                                       capsys):
    if spec is not None:  # the last option names a file holding spec
        path = tmp_path / "adv.json"
        path.write_text(spec)
        argv = argv + [str(path)]
    assert _assert_usage_error(main(argv), capsys).strip() == message
