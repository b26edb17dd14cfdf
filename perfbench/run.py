"""extlab benchmark: run one workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload pa-desk --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Each run starts one client process
(``child.py``) that runs the workload in a closed loop on one thread, and
set-up-only processes before and after it, one at a time; ``setup_s`` is
the median over the set-up-only processes of the time from process start
to the ``READY`` line, each scaled by the host kernel's time in the same
process just after (``hostref.py``).  With ``--trace 0`` the last line
holds the end-to-end metrics, with ``--trace 1`` the per-layer ones.  A
result file with provenance goes to ``perfbench/out/``.  The exit code is
0 when every output passed its check, 1 when one failed, and 2 when the
benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostref import REF_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5          # set-up-only processes before and after the client
# the whole run may take twice --seconds (a traced run may start its last
# pass pair just before the time is up) plus this, for the set-up probes,
# the default-seed replay and the microbenchmarks
SLACK_S = 100


class BenchError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _spawn(args, setup_only: bool, deadline: float) -> tuple[float, str]:
    """Start a client; return (seconds to READY, rest of its stdout)."""
    cmd = [sys.executable, str(HERE / "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), text=True,
                            stdout=subprocess.PIPE)
    try:
        ready, _, _ = select.select([proc.stdout], [], [],
                                    max(deadline - time.monotonic(), 0))
        line = proc.stdout.readline() if ready else ""
        setup = time.perf_counter() - t0
        if line.strip() != "READY":
            raise BenchError("client did not get ready")
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 0))
    except subprocess.TimeoutExpired:
        raise BenchError("client ran past the deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"client exited with {proc.returncode}")
    return setup, out


def _probe(args, deadline: float) -> tuple[float, float]:
    """Set up one set-up-only process; return its set-up time and that
    time scaled by the host kernel's time in the same process."""
    setup, out = _spawn(args, True, deadline)
    return setup, setup / float(out) * REF_S


def _git_sha() -> str:
    # a checkout that is not a repository must not report an enclosing one
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                           text=True, capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "extlab" / "__init__.py").is_file():
        print(f"no extlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + 2 * args.seconds + SLACK_S
    try:
        probes = [_probe(args, deadline) for _ in range(SETUP_PROBES)]
        client_setup, out = _spawn(args, False, deadline)
        res = json.loads(out.strip().splitlines()[-1])
        probes += [_probe(args, deadline) for _ in range(SETUP_PROBES)]
    except (BenchError, ValueError, IndexError) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 2

    metrics = res.pop("metrics")
    if not args.trace:
        metrics["setup_s"] = (statistics.median(p[1] for p in probes), "s")
    res.update({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "git_sha": _git_sha(), "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "setup_samples_s": [p[0] for p in probes],
        "setup_scaled_s": [p[1] for p in probes],
        "client_setup_s": client_setup, "metrics": metrics,
    })
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(res, indent=1) + "\n")

    print(json.dumps({
        "correct": res["correct"], "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
