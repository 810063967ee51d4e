"""The mfx benchmark: one workload, one closed-loop client, one thread.

    python3 benchmark/run.py --workload scan --seed 0 --seconds 28 --trace 0

Requests run in whole passes over the workload's pool, each pass in a
fresh seeded order, until ``--seconds`` have passed and at least 100
requests have run.  Every output is compared byte for byte with its
reference after the request's clock has stopped.

With ``--trace 0`` the run is split over five worker processes, started
one after the other (``--worker`` runs one of them).  Each sets up once
(documents, references, warm-up) and runs its share of the time; the
requests of all five are pooled, ``setup_s`` is the median of their
set-up times, and the last line of standard output is a JSON object with
the end-to-end metrics.  With ``--trace 1`` the run stays in one process,
which sets up three times (``setup_s`` is the median), passes alternate
between untraced and traced, the per-layer metrics come from the traced
passes,
``trace.overhead_ms`` is the traced minus the untraced median latency, and
the spans, per-query rows and self-time check are written to
``.bench_out/trace-<workload>-<seed>.json``.

``--rows-100k`` instead runs every corpus query at 100k nodes (seed 0) and
checks the peaks against the ROADMAP baseline.

The package is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with status 2 and prints no result.
"""

import argparse
import json
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", help="scan, copy, pipeline or oracle")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rows-100k", action="store_true",
                    help="run the one-off 100k-node row set instead")
    ap.add_argument("--worker", type=int, metavar="INDEX",
                    help=argparse.SUPPRESS)
    ap.add_argument("--min-requests", type=int, default=0,
                    help=argparse.SUPPRESS)
    ap.add_argument("--rid-base", type=int, default=0,
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.rows_100k and args.workload is None:
        ap.error("--workload is required")

    sys.dont_write_bytecode = True
    src = os.path.join(ROOT, "src")
    sys.path[:0] = [HERE, src]
    try:
        import mfx.stream  # noqa: F401
    except ImportError as e:
        print("benchmark: cannot import mfx from %s: %s" % (src, e),
              file=sys.stderr)
        return 2
    import harness

    if args.workload not in (None,) + harness.W.WORKLOADS:
        ap.error("unknown workload %r" % args.workload)
    if args.worker is not None:
        print(json.dumps(harness.worker(args.workload, args.seed, args.worker,
                                        args.seconds, args.min_requests,
                                        args.rid_base)))
        return 0
    # a terminated run unwinds, so that a running worker is killed and
    # waited for on the way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    out_dir = os.path.join(ROOT, ".bench_out")
    if args.rows_100k:
        return harness.rows_100k(out_dir)
    result = harness.bench(args.workload, args.seed, args.seconds,
                           bool(args.trace), out_dir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
