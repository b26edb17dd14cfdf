import struct
import subprocess
import sys
import zlib
from fractions import Fraction
from pathlib import Path

import pytest

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
], ids=["round1_empty", "round2_one_mask", "mask_not_a_string"])
def test_bad_adversary_json_is_a_usage_error(spec, tmp_path, capsys):
    path = tmp_path / "adv.json"
    path.write_text(spec)
    _assert_usage_error(main(["pa", "simulate", "--adversary", str(path),
                              "--trials", "2"]), capsys)


PLAN_NIPM = ["params", "plan-nipm", "--L", "20", "--m", "256", "--d", "512"]
PLAN_NMEXT = ["params", "plan-nmext", "--k", "768", "--d", "512",
              "--m", "32"]


@pytest.mark.parametrize("argv, name", [
    (PLAN_NIPM + ["--eps", "0"], "--eps"),
    (PLAN_NIPM + ["--eps", "-1"], "--eps"),
    (PLAN_NIPM + ["--eps", "0.01", "--t", "0"], "--t"),
    (PLAN_NMEXT + ["--n", "1024", "--eps", "0"], "--eps"),
    (PLAN_NMEXT + ["--n", "1024", "--eps", "1"], "--eps"),
    (PLAN_NMEXT + ["--n", "1024", "--eps", "nan"], "--eps"),
    (PLAN_NMEXT + ["--n", "1024", "--eps", "5e-324"], "eps"),
    (PLAN_NMEXT + ["--n", "0", "--eps", "0.01"], "--n"),
    (PLAN_NMEXT + ["--n", "1024", "--eps", "0.01", "--m", "0"], "--m"),
    (["nmext", "eval", "--eps", "0"], "--eps"),
    (["nmext", "eval", "--k", "-1"], "--k"),
    (["multisource", "run", "--bad", "-1"], "--bad"),
    (["multisource", "run", "--r", "-1"], "--r"),
], ids=["nipm_eps_0", "nipm_eps_neg", "nipm_t_0", "nmext_eps_0",
        "nmext_eps_1", "nmext_eps_nan", "nmext_eps_underflow", "nmext_n_0",
        "nmext_m_0", "eval_eps_0", "eval_k_neg", "ms_bad_neg", "ms_r_neg"])
def test_bad_number_is_a_usage_error(argv, name, capsys):
    err = _assert_usage_error(main(argv), capsys)
    assert f"error: {name}" in err or f"error: argument {name}:" in err


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
