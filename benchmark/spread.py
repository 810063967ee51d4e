"""Run the benchmark on several seeds and report each end-to-end metric's
median and spread (interquartile range over median).

    python3 benchmark/spread.py --workloads scan,copy --seeds 0-9

Each run is a separate process started from the checkout root, the way
``BENCHMARK.json`` names the command.  Raw results go to
``.bench_out/spread-<workload>-<label>.json`` and the medians and spreads
to ``.bench_out/spread-summary-<label>.json``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="0-9")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--label", default="set",
                    help="suffix of the files written to .bench_out/")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    worst, summary = 0.0, {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds_of(args.seeds):
            t0 = time.time()
            proc = subprocess.run(
                spec["command"] + ["--workload", workload, "--seed", str(seed),
                                   "--seconds", str(args.seconds),
                                   "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=180)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"], result["wall_s"] = seed, time.time() - t0
            runs.append(result)
            print("%s seed=%d wall=%.1fs correct=%s attempted=%d %s" % (
                workload, seed, result["wall_s"], result["correct"],
                result["attempted"],
                " ".join("%s=%.4g" % (k, v["value"])
                         for k, v in result["metrics"].items())), flush=True)
        path = os.path.join(out_dir,
                            "spread-%s-%s.json" % (workload, args.label))
        with open(path, "w") as fh:
            json.dump(runs, fh, indent=1)
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs]
            s = spread(values) if len(values) >= 2 else 0.0
            summary.setdefault(workload, {})[name] = {
                "median": statistics.median(values), "spread": s,
                "values": values}
            if name != "setup_s":
                worst = max(worst, s / bounds[name])
            print("  %-8s %-22s median=%-12.5g spread=%.4f bound=%.2f%s" % (
                workload, name, statistics.median(values), s, bounds[name],
                "" if s < bounds[name] / 3 or name == "setup_s"
                else "  <-- above a third of the bound"))
    path = os.path.join(out_dir, "spread-summary-%s.json" % args.label)
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=1)
    print("largest spread/bound (setup_s excluded): %.3f" % worst)
    return 0


if __name__ == "__main__":
    sys.exit(main())
