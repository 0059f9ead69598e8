"""One workload in one process: set up, run timed rounds, check, report.

run.py starts this script; it prints one JSON object on its last line.
Rounds repeat the workload's whole schedule (every job, some of them
several times) until the time is up, so the share of failed jobs is the
same in every run. A traced run alternates untraced and traced rounds, so
that both see the same drift in the host's speed; the difference of their
mean round times is the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pickle
import resource
import statistics
import sys
import time
from pathlib import Path

OUT_DIR = Path(__file__).resolve().parent / "out"


def run_round(jobs, order, workloads):
    """One pass over the schedule: (round time, latency and output per slot)."""
    state, outputs, latencies = {}, [], []
    t_round = time.perf_counter()
    for j in order:
        t0 = time.perf_counter()
        outputs.append(workloads.call(jobs[j], state))
        latencies.append(time.perf_counter() - t0)
    return time.perf_counter() - t_round, latencies, outputs


def run_rounds(jobs, order, seconds: float, workloads, tracer=None):
    """Whole rounds of the schedule until `seconds` have passed (at least one).

    With a tracer, each untraced round is followed by a traced one. Returns
    the untraced and the traced rounds.
    """
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain.append(run_round(jobs, order, workloads))
        if tracer is not None:
            tracer.install()
            try:
                traced.append(run_round(jobs, order, workloads))
            finally:
                tracer.uninstall()
        if time.perf_counter() - start >= seconds:
            return plain, traced


def check_rounds(jobs, order, rounds, workloads):
    """Check every slot of every round; identical outputs share one verdict.

    A check may read the round's other outputs (the last one of each job),
    so the verdict's key holds the whole round as well as the slot.
    """
    verdicts: dict[tuple, list[str]] = {}
    attempted = failed = 0
    unexpected: list[str] = []
    known: list[str] = []
    for _, _, outputs in rounds:
        by_name = {jobs[j].name: out for j, out in zip(order, outputs)}
        canon = [jobs[j].canon(out) for j, out in zip(order, outputs)]
        round_key = hashlib.sha256(pickle.dumps(
            {jobs[j].name: c for j, c in zip(order, canon)})).hexdigest()
        for j, out, c in zip(order, outputs, canon):
            key = (round_key, j, hashlib.sha256(pickle.dumps(c)).hexdigest())
            if key not in verdicts:
                verdicts[key] = workloads.check(jobs[j], out, by_name)
            errs = verdicts[key]
            attempted += 1
            if errs:
                failed += 1
                (known if jobs[j].known_fault else unexpected).extend(errs)
    return attempted, failed, unexpected, known


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import searchcontest as sc
    t_cli = time.monotonic()
    import searchcontest.cli  # noqa: F401  (every CLI call pays this import)
    import_cli_s = time.monotonic() - t_cli

    import tracer as tracing
    import workloads

    jobs = workloads.build(args.workload, args.seed, sc)
    order = workloads.schedule(jobs)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tr = tracing.Tracer() if args.trace else None
    plain, traced = run_rounds(jobs, order, args.seconds, workloads, tr)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # Each job's latency is its median over all its runs. On a shared host
    # the same call runs at speeds up to 1.5x apart, in spells of tens of
    # milliseconds to seconds: a job's fastest run depends on whether any
    # run caught a fast spell, and its mean on a few slow outliers, while
    # its median moves least from run to run.
    samples: list[list[float]] = [[] for _ in jobs]
    for _, latencies, _ in plain:
        for j, t in zip(order, latencies):
            samples[j].append(t)
    typical = [statistics.median(s) for s in samples]
    result = {
        "setup_s": setup_s,
        "wall_s": sum(typical),
        "job_p50_ms": statistics.median(typical) * 1e3,
        "peak_rss_mb": peak_rss_mb,
        "rounds": len(plain),
        "jobs_per_round": len(order),
    }
    if tr is not None:
        per_layer = tracing.summarize(tr, len(traced))
        per_layer["cli.import_s"] = (import_cli_s, "s")
        per_layer["trace.overhead_s"] = (
            statistics.mean(r[0] for r in traced) - statistics.mean(r[0] for r in plain), "s")
        result["per_layer"] = per_layer
        OUT_DIR.mkdir(exist_ok=True)
        tr.save(OUT_DIR / f"spans-{args.workload}.npz")

    attempted, failed, unexpected, known = check_rounds(jobs, order, plain + traced, workloads)
    result.update(attempted=attempted, failed=failed, correct=not unexpected,
                  failures=sorted(set(unexpected))[:20], known_failures=sorted(set(known)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
