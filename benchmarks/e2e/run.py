#!/usr/bin/env python3
"""The repo's benchmark: four serving workloads measured end to end.

::

    python3 benchmarks/e2e/run.py --workload warm_read --seed 7 --seconds 12 --trace 0
    python3 benchmarks/e2e/run.py [--seed 7] [--trace] [--out FILE]   # all four workloads
    python3 benchmarks/e2e/run.py --aa 5 [--out FILE]                 # run-to-run spread
    python3 benchmarks/e2e/run.py compare A.json B.json               # which layer moved

Every metric is printed by name and unit; with ``--workload`` the last
line of standard output is the one-object JSON result BENCHMARK.json's
driver reads.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer ones (see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

DEFAULT_SEED = 7


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="length of the timed phase (default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: the traced run and its per-layer metrics; 0: end-to-end metrics",
    )
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--out", metavar="FILE", help="also write the results as JSON")
    parser.add_argument("--aa", type=int, metavar="N", help="N sets of runs; print spreads")
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    import report

    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            raise SystemExit("usage: run.py compare A.json B.json")
        return report.compare_files(argv[1], argv[2])
    args = build_parser().parse_args(argv)
    import plans
    import servers
    import tracing
    import workloads

    if args.workload is not None and args.workload not in plans.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; expected one of {plans.WORKLOADS}")
    seconds = args.seconds if args.seconds is not None else report.load_contract()["run_seconds"]
    names = [args.workload] if args.workload else list(plans.WORKLOADS)
    servers.pin_to_one_cpu()

    if args.aa:
        return report.run_aa(
            lambda workload, seed: workloads.run_end_to_end(workload, seed, seconds, args.scale),
            names, args.aa, args.seed, args.out,
        )

    # One workload: exactly the pass the driver asked for.  All of them:
    # the end-to-end pass, and with --trace the traced pass after it.
    passes = [args.trace] if args.workload else [0, 1][: 1 + args.trace]
    results = []
    for workload in names:
        for trace in passes:
            run = tracing.run_traced if trace else workloads.run_end_to_end
            result = run(workload, args.seed, seconds, args.scale)
            report.print_result(result)
            results.append(result)
    if args.out:
        report.write_results(args.out, results)
    if args.workload:
        # The driver's contract: one JSON object, last line of stdout.  A
        # per-layer metric without a reading (untraced, or nothing of its
        # kind in this workload) is null in result files and 0 here, where
        # every value must be a number.
        only = results[0]
        print(json.dumps({
            "correct": only["failed"] == 0,
            "attempted": only["attempted"],
            "failed": only["failed"],
            "metrics": {
                name: {"value": 0.0 if metric["value"] is None else metric["value"],
                       "unit": metric["unit"]}
                for name, metric in only["metrics"].items()
            },
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
