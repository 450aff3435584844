"""Benchmark entry point: one workload, one seed, one JSON result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing.
``--trace 1`` measures the same workload once untraced and once with
spans around every layer call, and reports the per-layer metrics plus
the tracing overhead between the two.  The last line of standard output
is the result object; the lines before it are a human-readable report
(host, thread pins, sample counts, output checks).  See README.md in
this directory for what each workload and metric is for.
"""

from __future__ import annotations

import os

# BLAS thread pools are sized when numpy loads; pin them first, so every
# workload process (and every forked pool worker) computes on one thread.
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_PINS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("fleet", "timeline", "serve", "pool")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every input (self-test size)")
    parser.add_argument("--plant-wrong-output", action="store_true",
                        help="corrupt one collected output before the "
                             "checks, which must then fail the run")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program sources under {SRC}; run from the "
              "root of a full checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    import harness  # noqa: E402  (needs the pins and sys.path above)

    result, report = harness.run(args)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
