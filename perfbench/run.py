"""Benchmark of the searchcontest library and CLI, measured from outside.

Run from the repository root:

    python3 perfbench/run.py --workload closed-form --seed 1 --seconds 30 --trace 0

Each run starts fresh interpreters: SETUP_PROBES of them only import
`searchcontest.cli` and build the workload's inputs, which times set-up;
one more does the same and then runs the workload (see worker.py). The
library is taken from `src/` of the current directory. The last line of
standard output is one JSON object: `correct`, `attempted`, `failed` and
`metrics` (the end-to-end metrics, or with `--trace 1` the per-layer ones).
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

WORKLOADS = ("closed-form", "mc-exchangeable", "per-agent")
SETUP_PROBES = 2
DEADLINE_S = 170.0
WORKER = Path(__file__).resolve().parent / "worker.py"


def start_worker(args, env, deadline: float, setup_only: bool) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--t0", repr(time.monotonic())]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = Path.cwd() / "src"
    if not (src / "searchcontest" / "cli.py").is_file():
        print("error: src/searchcontest not found; run from the repository root",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"

    try:
        setups = [start_worker(args, env, deadline, True)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        res = start_worker(args, env, deadline, False)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(res["setup_s"])

    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in res["per_layer"].items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": res["wall_s"], "unit": "s"},
            "job_p50_ms": {"value": res["job_p50_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    print(f"workload {args.workload} seed {args.seed}: {res['rounds']} untraced rounds of "
          f"{res['jobs_per_round']} job runs; setup samples {[round(s, 4) for s in setups]}")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    for msg in res["known_failures"]:
        print(f"known fault: {msg}")
    for msg in res["failures"]:
        print(f"FAILED: {msg}")
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
