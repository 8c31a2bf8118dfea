"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload breaking-em --seed 1 --seconds 20 --trace 0

``--trace 0`` starts one fresh process (worker.py) that runs whole rounds of
the workload for about ``--seconds`` and reports the end-to-end metrics.
``--trace 1`` first makes the same untraced run, then a traced run of the
same rounds in a second fresh process, and reports the per-layer metrics;
``trace.overhead_s`` is the traced mean round time minus the untraced one.
The last line of stdout is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
attempted and failed count ensemble paths.  On any error the command exits
non-zero without printing that line.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402

#: Worker threads of smch2's ensemble: the program's default on a 2-core
#: machine, pinned so that runs on larger machines measure the same thing.
THREADS = "2"
#: Every run must end within this many seconds.
DEADLINE_S = 175.0


def run_worker(args, extra=(), deadline=DEADLINE_S) -> dict:
    env = dict(os.environ, SMCH2_THREADS=THREADS)
    t0 = time.monotonic()
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--t0", repr(t0), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=deadline)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    print(f"{'traced' if '--trace' in extra else 'untraced'} rounds: "
          f"wall_s {[round(w, 3) for w in result['walls']]} path_steps {result['steps']}")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one smch2 benchmark workload.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "smch2").is_dir():
        print(f"error: no smch2 sources under {ROOT / 'src'}", file=sys.stderr)
        return 1

    start = time.monotonic()
    try:
        plain = run_worker(args)
        if not args.trace:
            result = plain
        else:
            traced = run_worker(
                args, ("--trace", "1", "--rounds", str(plain["rounds"])),
                deadline=DEADLINE_S - (time.monotonic() - start),
            )
            overhead = statistics.mean(traced["walls"]) - statistics.mean(plain["walls"])
            traced["metrics"]["trace.overhead_s"] = {"value": overhead, "unit": "s"}
            if traced["absent"]:
                print("absent: " + " ".join(traced["absent"]))
            result = {
                "correct": plain["correct"] and traced["correct"],
                "attempted": plain["attempted"] + traced["attempted"],
                "failed": plain["failed"] + traced["failed"],
                "metrics": traced["metrics"],
            }
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    (BENCH / "_out").mkdir(exist_ok=True)
    (BENCH / "_out" / f"result_{args.workload}_{args.seed}_trace{args.trace}.json").write_text(json.dumps(out))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
