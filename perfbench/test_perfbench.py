"""Tests of the benchmark's own logic.  Run from the repository root:

    python3 -m pytest perfbench/test_perfbench.py
"""
import json
import math
import os
import sys
import types

import pytest

import speed
import stats
import tracer
import workloads


# -- tail percentile rule ---------------------------------------------------

def test_tail_rule_leaves_ten_operations_beyond():
    assert stats.ops_beyond(100, 90) == 10
    assert stats.ops_beyond(100, 91) == 9
    assert stats.highest_tail_percentile(100) == 90
    assert stats.highest_tail_percentile(11) == 9
    assert stats.highest_tail_percentile(10) is None
    for n in (40, 137, 1000):
        p = stats.highest_tail_percentile(n)
        assert stats.ops_beyond(n, p) >= stats.MIN_BEYOND > stats.ops_beyond(n, p + 1)


def test_failures_count_as_infinite_latency():
    latencies = [0.001 * (i + 1) for i in range(100)]
    ok = [True] * 95 + [False] * 5
    metrics = stats.end_to_end(latencies, ok, setup_s=0.5, peak_rss_mb=10.0, tail_p=90)
    assert metrics["op_p50_ms"][0] == pytest.approx(50.5)
    assert metrics["op_tail_ms"][0] == pytest.approx(90.1)  # below the failed operations
    assert metrics["ops_per_s"][0] == pytest.approx(95 / sum(latencies))
    assert metrics["ok_ratio"][0] == pytest.approx(0.95)
    reaching = stats.end_to_end(latencies, ok, 0.5, 10.0, tail_p=96)
    assert reaching["op_tail_ms"][0] == sys.float_info.max
    assert stats.percentile([1.0, math.inf], 0) == 1.0
    assert stats.percentile([1.0, math.inf], 50) == math.inf


# -- counting failures --------------------------------------------------------

def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_planted_memory_error_fails_the_operation_not_the_run(tmp_path):
    path = _write(tmp_path, "w.json", {"w": [1.0, 1.0, 1.0]})
    ops = [{"w": path, "argv": ["certify", path, "boom"]}, {"w": path, "argv": ["certify", path]}]

    def run(argv):
        if argv[-1] == "boom":
            raise MemoryError("Unable to allocate 12.2 GiB")
        sys.stdout.write(json.dumps({
            "route": "holland", "slack": 3.0, "numeric_max": None,
            "reports": [{"margins": [{"value": 3.0}]}],
        }) + "\n")
        return 0

    mm = types.SimpleNamespace(cli=types.SimpleNamespace(run=run))
    workload = workloads.CertifyMix({"passes": [ops]}, mm)
    records, _, passes = workloads.run_passes(workload, passes=2)
    status = workloads.classify(workload, records)
    assert passes == 2 and len(records) == 4
    assert [s for s, _ in status] == ["error", "ok", "error", "ok"]
    assert "MemoryError" in status[0][1]
    assert workloads.labels(workload, records, status) == [
        "error", "route holland (exit 0)"] * 2
    assert stats.tally([s for s, _ in status]) == {"correct": True, "attempted": 4, "failed": 2}


@pytest.mark.parametrize("w, x, reason", [
    ([1.0, 1.0, 1.0], [1.0, 2.0, 3.0], "satisfy Holland or Gao"),
    ([1.0, 1.0, 6.0], [1.0, 1.0, 1.0], "not confirmed by the 50-digit increment"),
])
def test_planted_false_violation_is_wrong(tmp_path, w, x, reason):
    path = _write(tmp_path, "w.json", {"w": w})
    op = {"w": path, "argv": ["search", path]}
    out = json.dumps({"best_value": 1.0, "best_point": x, "trials_run": 1, "seed": 0,
                      "violation": True})
    workload = workloads.Search({"passes": [[op]]}, types.SimpleNamespace(cli=None))
    status, why = workload.check(op, (2, out, ""))
    assert status == "wrong" and reason in why
    assert stats.tally([status, "ok"]) == {"correct": False, "attempted": 2, "failed": 1}


def test_non_strict_json_and_exit_one(tmp_path):
    path = _write(tmp_path, "w.json", {"w": [1.0, 1.0, 6.0]})
    op = {"w": path, "argv": ["search", path]}
    workload = workloads.Search({"passes": [[op]]}, types.SimpleNamespace(cli=None))
    out = '{"best_value": NaN, "best_point": [1, 1, 1], "trials_run": 1, "violation": false}'
    assert workload.check(op, (0, out, ""))[0] == "wrong"
    assert workload.check(op, (1, "", "mixedmeans: error: bad"))[0] == "error"


# -- self time ----------------------------------------------------------------

def test_self_time_is_span_minus_child_spans():
    clock = iter([0.0, 1.0, 4.0, 5.0, 5.2, 5.5, 6.0, 10.0])
    spans = tracer.Tracer(clock=lambda: next(clock))
    spans.enter("cli.run")
    spans.enter("reduction.certify")  # 1.0 .. 4.0
    spans.exit()
    spans.enter("search.grid_max_F")  # 5.0 .. 6.0
    spans.enter("reduction.objective_F")  # 5.2 .. 5.5
    spans.exit()
    spans.exit()
    spans.exit()  # cli.run 0.0 .. 10.0
    calls, total, own = zip(*(spans.stats[n] for n in (
        "cli.run", "reduction.certify", "search.grid_max_F", "reduction.objective_F")))
    assert calls == (1, 1, 1, 1)
    assert total == pytest.approx((10.0, 3.0, 1.0, 0.3))
    assert own == pytest.approx((6.0, 3.0, 0.7, 0.3))
    assert spans.edges[("search.grid_max_F", "reduction.objective_F")] == 1
    by_id = {s[1]: s for s in spans.spans}
    child = next(s for s in spans.spans if s[3] == "reduction.objective_F")
    assert by_id[child[2]][3] == "search.grid_max_F"

    names = {"cli.run", "reduction.certify", "search.grid_max_F", "reduction.objective_F"}
    metrics = tracer.layer_metrics(spans.summary(), names, n_ops=2, overhead_ratio=0.9)
    assert metrics["cli.self_ms"][0] == pytest.approx(3000.0)
    assert metrics["reduction.self_ms"][0] == pytest.approx(1650.0)
    assert metrics["reduction.objective_F.calls"][0] == pytest.approx(0.5)


# -- absent names ---------------------------------------------------------------

def test_absent_wrap_points_are_skipped(monkeypatch):
    module = types.ModuleType("fakepkg.search")

    def grid_max_F(w, resolution):
        return resolution

    grid_max_F.__module__ = "fakepkg.search"
    grid_max_F.__qualname__ = "grid_max_F"
    module.grid_max_F = grid_max_F
    monkeypatch.setitem(sys.modules, "fakepkg.search", module)

    spans = tracer.Tracer()
    names, absent = spans.install([
        "fakepkg.search:grid_max_F",
        "fakepkg.search:multistart_max_F",
        "fakepkg.search:Missing.method",
        "no_such_package_for_tests:run",
    ])
    try:
        assert names == {"search.grid_max_F"}
        assert absent == ["fakepkg.search:multistart_max_F", "fakepkg.search:Missing.method",
                          "no_such_package_for_tests:run"]
        assert module.grid_max_F(types.SimpleNamespace(n=3), 5) == 5
    finally:
        spans.uninstall()
    assert module.grid_max_F is grid_max_F
    assert spans.stats["search.grid_max_F"][0] == 1
    assert spans.counts["grid_cells"] == 25

    metrics = tracer.layer_metrics(spans.summary(), names, n_ops=1, overhead_ratio=1.0)
    assert metrics["search.grid_cells"] == (25.0, "cells/op", False)
    assert metrics["means.head_rebuilds"] == (0.0, "count/op", True)
    assert metrics["search.trials"][2] is True


# -- inputs and passes --------------------------------------------------------

def test_inputs_come_from_the_seed(tmp_path):
    digests = [workloads.write_inputs("search", seed, str(tmp_path)) for seed in (4, 3, 3)]
    assert digests[0] != digests[1] == digests[2]
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert len(manifest["passes"]) == workloads.Search.PASSES


# -- calibration ----------------------------------------------------------------

def test_stops_are_taken_out_and_bursts_near_an_interval_scale_it():
    calibrator = speed.Calibrator()
    calibrator.stops = [(1.0, 1.1), (2.0, 2.2)]
    calibrator.bursts = [(1.1, [1e-3]), (2.2, [3e-3]), (9.0, [8e-3])]
    assert calibrator.net(0.5, 2.1) == pytest.approx(1.6 - 0.1 - 0.1)
    assert calibrator.net(3.0, 4.0) == pytest.approx(1.0)
    assert calibrator.scale_at(1.5, 1.9) == pytest.approx(2e-3 / 2e-3)
    assert calibrator.scale_at(1.0, 1.2) == pytest.approx(2e-3 / 1e-3)
    assert calibrator.scale_at(5.0, 6.0) == pytest.approx(2e-3 / 4e-3)  # none near: all


def test_calibrator_stops_a_running_process_for_its_bursts(tmp_path):
    out = tmp_path / "times.txt"
    script = ("import time\n"
              "start = time.perf_counter()\n"
              "while time.perf_counter() - start < 0.8:\n"
              "    pass\n"
              "print(start, time.perf_counter())\n")
    calibrator = speed.Calibrator()
    with open(out, "w") as fh:
        assert calibrator.run([sys.executable, "-c", script], None, 60, fh) == 0
    start, end = map(float, out.read_text().split())
    assert len(calibrator.stops) >= 2
    assert len(calibrator.bursts) == len(calibrator.stops) + 2
    assert calibrator.net(start, end) < end - start
    assert all(len(d) == speed.BURST_RUNS for _, d in calibrator.bursts)

    with pytest.raises(TimeoutError):
        speed.Calibrator().run([sys.executable, "-c", "import time; time.sleep(60)"],
                               None, 0.5, None)
