"""Benchmark of the mixedmeans package: three workloads, each a closed loop
with one caller over seeded inputs, run in fresh processes.

    python3 perfbench/run.py [--workload certify-mix|search|points|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout; it imports the package from ``src/``.
For each workload it sets up SETUP_REPEATS times (each a fresh process that
imports the package and writes the inputs), then measures in one more fresh
process, checks every output after the timed loop, and prints the metrics
by name with their units.  Times are scaled to a reference host speed that
this process calibrates while the workload process is stopped (speed.py).  The
last line of stdout is one JSON object: the end-to-end metrics with
--trace 0, the per-layer metrics of a traced run with --trace 1.  Records
and spans go to .perfbench_out/.
"""
from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import speed  # noqa: E402
import stats  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = tuple(workloads.WORKLOADS)
SETUP_REPEATS = 3
OUT_DIR = ".perfbench_out"
# Whole-run limit, so a hung or very slow program ends the run with an error.
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    pass


def _nproc():
    return len(os.sched_getaffinity(0))


def _child_env():
    """Numeric thread pools capped at the cores this process may use."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.update({var: str(_nproc()) for var in THREAD_VARS})
    return env


def _child(calibrator, mode, args, work, timeout):
    """Run child.py under the calibrator; returns what it wrote to --out."""
    out = os.path.join(work, f"{mode}.json")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), mode, *args, "--out", out]
    log = os.path.join(work, f"{mode}.log")
    with open(log, "w", encoding="utf-8") as fh:
        try:
            code = calibrator.run(cmd, _child_env(), max(timeout, 1.0), fh)
        except TimeoutError as exc:
            raise BenchError(f"{mode} did not finish within {timeout:.0f} s") from exc
    if code != 0:
        with open(log, encoding="utf-8") as fh:
            raise BenchError(f"{mode} exited {code}: {fh.read().strip()[-2000:]}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def _revision(root):
    """git revision of the checkout, or None when it is not a git work tree."""
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest(root):
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for base, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def _ops_per_busy_s(status, busy):
    return sum(s == "ok" for s in status) / sum(busy)


def run_workload(name, seed, seconds, trace, root):
    """Set up and measure one workload; returns (result line, record)."""
    start = time.monotonic()

    def left():
        return DEADLINE_S - (time.monotonic() - start)

    work = os.path.join(OUT_DIR, f"{name}-seed{seed}-trace{trace}")
    inputs = os.path.join(work, "inputs")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(inputs)

    # A traced run is not stopped, so that its span times hold no stops.
    calibrator = speed.Calibrator(None if trace else speed.PERIOD_S)
    setups = []
    for _ in range(SETUP_REPEATS):
        setup = _child(calibrator, "setup", ["--workload", name, "--seed", str(seed),
                                             "--dir", inputs], work, left())
        span = (setup["start"], setup["end"])
        setups.append(dict(setup, raw_s=calibrator.net(*span), scale=calibrator.scale_at(*span)))
    if len({s["digest"] for s in setups}) != 1:
        raise BenchError("set-ups wrote different inputs for the same seed")

    raw = _child(calibrator, "measure", ["--dir", inputs, "--seconds", str(seconds),
                                         "--trace", str(trace)], work, left())
    shutil.rmtree(inputs)
    spans = [(t, t + dt) for t, dt in zip(raw["starts"], raw["latencies_s"])]
    raw["net_s"] = [calibrator.net(*span) for span in spans]
    raw["scales"] = [calibrator.scale_at(*span) for span in spans]

    status = raw["status"]
    untraced = raw["untraced_ops"]
    scaled = [f * t for f, t in zip(raw["scales"], raw["net_s"])]
    line = stats.tally(status)
    cls = workloads.WORKLOADS[name]
    if trace:
        before = _ops_per_busy_s(status[:untraced], scaled[:untraced])
        after = _ops_per_busy_s(status[untraced:], scaled[untraced:])
        layer = tracer.layer_metrics(
            raw["trace"]["summary"], raw["trace"]["names"], len(status) - untraced,
            after / before if before else 0.0, statistics.median(raw["scales"][untraced:]))
        metrics = {k: (v, unit) for k, (v, unit, _) in layer.items()}
    else:
        metrics = stats.end_to_end(
            scaled, [s == "ok" for s in status],
            statistics.median(s["raw_s"] * s["scale"] for s in setups),
            raw["peak_rss_mb"], cls.TAIL_PERCENTILE)
    line["metrics"] = {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()}

    outcomes = collections.Counter(label for label in raw["labels"] if label is not None)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "env": dict(raw["env"], nproc=_nproc(), platform=platform.platform(),
                    revision=_revision(root), source_sha256=_source_digest(root)),
        "setup_s": [s["raw_s"] for s in setups],
        "setup_scale": [s["scale"] for s in setups],
        "scale": statistics.median(raw["scales"][:untraced]),
        "passes": raw["passes"],
        "tail_percentile": cls.TAIL_PERCENTILE,
        "rule_percentile": stats.highest_tail_percentile(untraced),
        "fail_ratio": line["failed"] / line["attempted"],
        "errors": status.count("error"),
        "wrong": status.count("wrong"),
        "outcomes": dict(sorted(outcomes.items())),
        "reasons": raw["reasons"],
        "ops": {k: raw[k] for k in ("starts", "latencies_s", "net_s", "scales", "status",
                                    "labels")},
        "bursts": calibrator.bursts,
        "stops": calibrator.stops,
        "result": line,
    }
    if trace:
        record["absent"] = raw["trace"]["absent"]
        record["absent_metrics"] = [k for k, (_, _, absent) in layer.items() if absent]
        record["trace_summary"] = raw["trace"]["summary"]
    with open(os.path.join(work, "record.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return line, record


def _report(line, record):
    env = record["env"]
    print(f"# workload {record['workload']}  seed {record['seed']}  "
          f"seconds {record['seconds']}  trace {record['trace']}")
    print(f"# python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}  "
          f"mpmath {env['mpmath']}  nproc {env['nproc']}  revision {env['revision']}  "
          f"source {env['source_sha256'][:12]}")
    print(f"# passes {record['passes']}  attempted {line['attempted']}  failed {line['failed']} "
          f"(errors {record['errors']}, wrong {record['wrong']})  fail_ratio "
          f"{record['fail_ratio']:.4f}  correct {line['correct']}")
    if record["outcomes"]:
        print("# outcomes " + ", ".join(f"{k}: {n}" for k, n in record["outcomes"].items()))
    print(f"# host speed scale {record['scale']:.4f} (median over operations, "
          f"{len(record['bursts'])} calibrations): times are scaled to the reference "
          f"host speed, see speed.py")
    if record["trace"] == 0:
        print(f"# op_tail_ms is the p{record['tail_percentile']} latency; this run's ops "
              f"allow up to p{record['rule_percentile']}")
    for reason in record["reasons"][:10]:
        print(f"#   failure: {reason}")
    absent = set(record.get("absent_metrics", ()))
    for name, metric in line["metrics"].items():
        mark = "  (absent)" if name in absent else ""
        print(f"{name:32s} {metric['value']:>16.6g} {metric['unit']}{mark}")
    for point in record.get("absent", ()):
        print(f"# absent wrap point: {point}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind, so that a workload process is killed (and never
    # left stopped) on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "mixedmeans", "cli.py")):
        sys.stderr.write("perfbench: src/mixedmeans not found; run from the repository root\n")
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            line, record = run_workload(name, args.seed, args.seconds, args.trace, root)
            _report(line, record)
            print(json.dumps(line), flush=True)
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
