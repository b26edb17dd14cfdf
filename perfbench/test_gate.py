"""The benchmark's own tests: its correctness gate must trip on a perturbed
construction, its tracer must not change outputs, and it must refuse to
run without the program's sources.

    python3 -m pytest perfbench/test_gate.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from extlab import nmx, pamp  # noqa: E402
from extlab.bits import BitString  # noqa: E402

import child  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, patch_everywhere, restore  # noqa: E402

EXPECTED = json.loads(child.EXPECTED.read_text())


def test_default_seed_digests_match():
    for name, cls in workloads.WORKLOADS.items():
        got, failures = workloads.golden_digest(cls)
        assert failures == [] and got == EXPECTED[name], name


class FlippedMerger(workloads.ExactMicro):
    """Merger callbacks wrapped to flip one output bit when the first row
    is odd.  A flip that depends on nothing or on the seed alone would only
    relabel outputs, which no distance sees."""

    def merge_fn(self, spec):
        merge = super().merge_fn(spec)
        return lambda rows, y: merge(rows, y) ^ (rows[0] & 1)


def test_flipped_merger_callback_trips_gate():
    run = child.Run(FlippedMerger(workloads.DEFAULT_SEED))
    for op in run.wl.cycle(0):
        run.op(op)
    assert any("digest" in msg for msg in run.gates())


def test_flipped_nm_ext_bit_trips_gate():
    real = nmx.nm_ext

    def flipped(x, y, p):
        z = real(x, y, p)
        return z ^ BitString(z.n, 1)

    saved = patch_everywhere(real, flipped)
    try:
        for cls in (workloads.PaDesk, workloads.MicroMc):
            got, _ = workloads.golden_digest(cls)
            assert got != EXPECTED[cls.name], cls.name
    finally:
        restore(saved)


def test_forgeable_mac_trips_run_level_gate():
    saved = patch_everywhere(pamp.mac_tag, lambda key, msg, s: BitString(s, 0))
    try:
        wl = workloads.PaDesk(workloads.DEFAULT_SEED)
        op = workloads.Op("flip2", 20, (workloads.DEFAULT_SEED, 9))
        wl.tally(op, wl.run(op))
        assert any("flip2" in msg for msg in wl.finish())
    finally:
        restore(saved)


def test_tracer_keeps_outputs_and_counts_layers():
    wl = workloads.MicroMc(workloads.DEFAULT_SEED)
    ops = wl.cycle(0)
    plain = [wl.record(op, wl.run(op)) for op in ops]
    tr = Tracer()
    tr.install()
    try:
        traced = [wl.record(op, wl.run(op)) for op in ops]
    finally:
        tr.uninstall()
    assert traced == plain
    assert tr.calls["nmx.nm_ext"] == 25 * 5
    assert tr.calls["ipm.ipm_weak"] == 2 * wl.msp.r
    assert not hasattr(nmx.nm_ext, "__wrapped__")


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    r = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                        "micro-mc", "--seed", "1", "--seconds", "1",
                        "--trace", "0"], cwd=tmp_path, capture_output=True,
                       text=True, timeout=60)
    assert r.returncode != 0
    assert r.stdout.strip() == ""
