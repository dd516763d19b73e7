"""One workload process, started by run.py from the root of a checkout.

  child.py setup   --workload W --seed N --dir D --out F
      imports mixedmeans and mixedmeans.cli, writes the inputs to D and
      writes {"start", "end", "digest"} to F: the clock times before any
      import of the package or of numpy and after the inputs are written.
  child.py measure --dir D --seconds S --trace 0|1 --out F
      runs the closed loop on the inputs in D, checks every output after
      the timed loop and writes the raw records to F.  With --trace 1 the
      first half of the time runs untraced and the same passes then run
      again traced.

Times are raw ``time.perf_counter`` readings: run.py takes out the
calibration stops and scales them to the reference host speed (speed.py).
"""
import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

# Address-space budget of a workload process.  It turns an oversized
# allocation into a prompt MemoryError on any host, instead of depending on
# the host's overcommit policy and free memory.
MEMORY_BUDGET = 4 << 30


def setup(args):
    import mixedmeans  # noqa: F401
    import mixedmeans.cli  # noqa: F401

    import workloads

    digest = workloads.write_inputs(args.workload, args.seed, args.dir)
    return {"start": _START, "end": time.perf_counter(), "digest": digest}


def measure(args):
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    budget = MEMORY_BUDGET if hard == resource.RLIM_INFINITY else min(MEMORY_BUDGET, hard)
    resource.setrlimit(resource.RLIMIT_AS, (budget, hard))

    import mixedmeans
    import mixedmeans.cli  # noqa: F401
    import mpmath
    import numpy
    import scipy

    import tracer
    import workloads

    workload = workloads.load(args.dir, mixedmeans)
    seconds = args.seconds / 2 if args.trace else args.seconds
    records, wall, passes = workloads.run_passes(workload, seconds=seconds)
    untraced = len(records)
    if args.trace:
        spans = tracer.Tracer()
        names, absent = spans.install()
        try:
            traced, _, _ = workloads.run_passes(workload, passes=passes, tracer=spans)
        finally:
            spans.uninstall()
        records += traced
    status = workloads.classify(workload, records)
    result = {
        "env": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "mpmath": mpmath.__version__,
        },
        "wall_s": wall,
        "passes": passes,
        "untraced_ops": untraced,
        "starts": [outcome.start for _, _, outcome in records],
        "latencies_s": [outcome.latency_s for _, _, outcome in records],
        "status": [s for s, _ in status],
        "reasons": sorted({reason for s, reason in status if s != workloads.OK}),
        "labels": workloads.labels(workload, records[:untraced], status[:untraced]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if args.trace:
        result["trace"] = {
            "absent": absent,
            "names": sorted(names),
            "summary": spans.summary(),
        }
        with open(args.out + ".spans.jsonl", "w", encoding="utf-8") as fh:
            for span in spans.spans:
                fh.write(json.dumps(span) + "\n")
    return result


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload")
    parser.add_argument("--dir", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    result = setup(args) if args.mode == "setup" else measure(args)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
