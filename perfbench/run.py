#!/usr/bin/env python3
"""perfbench: the repository's end-to-end benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload profile-fixed --seed 1 --seconds 20 --trace 0

builds the shipped release binaries, runs the workload for about
`--seconds` seconds, checks every output, and prints as its last stdout
line one JSON object: `correct`, `attempted`, `failed` and `metrics`, each
metric with its unit. `--trace 0` reports the end-to-end metrics,
`--trace 1` the per-layer ledger. The line before it is the environment
record. `--record-expected` rewrites expected.json (the kept output
digests) from the current build instead. See README.md.
"""

import argparse
import json
import sys

# Leave the benchmark's directory as it was checked out.
sys.dont_write_bytecode = True

import workloads  # noqa: E402
from harness import (CI_SCALE, DEEP_SCALE, BenchError, Workspace, build,  # noqa: E402
                     child_env, environment, log, result_line)

WORKLOADS = ("profile-fixed", "profile-deep", "all-warm", "serve-mixed")


def measure(ws, workload, seed, seconds, trace):
    if trace:
        return workloads.run_trace(ws, workload, seed, seconds)
    if workload == "profile-fixed":
        return workloads.run_profile(ws, CI_SCALE, seconds)
    if workload == "profile-deep":
        return workloads.run_profile(ws, DEEP_SCALE, seconds)
    if workload == "all-warm":
        return workloads.run_all(ws, seconds)
    return workloads.run_serve(ws, seed, seconds)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-expected", action="store_true")
    args = ap.parse_args()
    if not args.record_expected and args.workload is None:
        ap.error("--workload is required")
    try:
        build(with_ledger=bool(args.trace))
        ws = Workspace()
        try:
            if args.record_expected:
                workloads.record_expected(ws)
                log(f"wrote {workloads.EXPECTED_PATH}")
                return 0
            rep = measure(ws, args.workload, args.seed, args.seconds, args.trace)
        finally:
            ws.close()
        line = result_line(args.trace, rep.attempted, rep.failed, rep.metrics)
    except BenchError as e:
        log(f"error: {e}")
        return 2
    for problem in rep.failures[:20]:
        log(f"FAILED {problem}")
    if len(rep.failures) > 20:
        log(f"... and {len(rep.failures) - 20} more failures")
    scale = DEEP_SCALE if args.workload == "profile-deep" else CI_SCALE
    serving = args.trace or args.workload == "serve-mixed"
    env = child_env("<fresh per operation>", scale,
                    {"MICA_SERVE_ADDR": "127.0.0.1:0"} if serving else None)
    record = environment(args.workload, args.seed, args.trace, rep.backend, env)
    print(json.dumps({"environment": record}))
    print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
