"""End-to-end acceptance checks.

Each test covers one acceptance criterion and prints a single
``criterion N: PASS/FAIL`` line on the real stdout (bypassing capture)
so the run log shows the verdicts at a glance.  Criteria with a runtime
budget assert on wall-clock time as well.
"""
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from mixedmeans import (
    WeightSequence,
    box_upper,
    critical_weight,
    eliminate_last,
    existence_check,
    gao_conditions,
    grid_max_F,
    identity_residuals,
    induction_gap,
    objective_F,
    objective_g,
    partial_mean_sequence,
    popoviciu_increment,
    product_form_lhs,
    rado_increment,
    rado_value,
    stationary_analysis,
    tail_sum_maximizer,
    violation_tolerance,
    x_to_y,
    y_to_x,
)
from mixedmeans.cli import run
from sampling import (
    holland_weights,
    log_uniform,
    nanjundiah_weights,
    random_samples,
    random_weights,
    with_last,
)


@pytest.fixture
def announce(capsys):
    def _announce(line):
        with capsys.disabled():
            print(line, flush=True)

    return _announce


@contextmanager
def verdict(announce, number, label):
    try:
        yield
    except BaseException:
        announce(f"criterion {number} ({label}): FAIL")
        raise
    announce(f"criterion {number} ({label}): PASS")


def test_criterion_1_equality_case(announce):
    with verdict(announce, 1, "equality case on constant data"):
        start = time.perf_counter()
        rng = np.random.default_rng(101)
        for _ in range(200):
            n = int(rng.integers(2, 11))
            w = random_weights(rng, n)
            c = float(log_uniform(rng, 0.1, 10.0, 1)[0])
            x = np.full(n, c)
            s = float(rng.choice([-1.0, 0.0, 0.5, 2.0]))
            k = int(rng.integers(2, n + 1))
            assert abs(rado_value(w, x, s, k)) < 1e-10
            assert abs(rado_increment(w, x, s, k)) < 1e-10
            assert abs(popoviciu_increment(w, x, k)) < 1e-10
            assert product_form_lhs(w, x) == pytest.approx(1.0, abs=1e-12)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0


def test_criterion_2_second_weight_condition_region(announce):
    with verdict(announce, 2, "no violations under the quadratic tail bound"):
        start = time.perf_counter()
        rng = np.random.default_rng(102)
        for _ in range(10_000):
            n = int(rng.integers(2, 11))
            w = holland_weights(rng, n)
            x = random_samples(rng, n)
            assert rado_increment(w, x, 0.0, n) >= -violation_tolerance(w, x)
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0


def test_criterion_3_first_weight_condition_and_reversal(announce):
    with verdict(announce, 3, "monotone increments and reversal above s=1"):
        rng = np.random.default_rng(103)
        for _ in range(10_000):
            n = int(rng.integers(2, 11))
            w = nanjundiah_weights(rng, n)
            x = random_samples(rng, n)
            tol = violation_tolerance(w, x)
            for s in (-1.0, 0.0, 0.5):
                assert rado_increment(w, x, s, n) >= -tol
            assert rado_increment(w, x, 2.0, n) <= tol


def test_criterion_4_desk_check(announce):
    with verdict(announce, 4, "reference weights (1, 1, 4.05)"):
        start = time.perf_counter()
        w = WeightSequence([1, 1, 4.05])
        rep = gao_conditions(w)
        assert rep.holds
        assert rep.margins[0] == pytest.approx(0.0125, abs=1e-3)
        assert rep.margins[3] == pytest.approx(0.0296, abs=1e-3)
        res = grid_max_F(w, 2001)
        assert res.best_value == pytest.approx(1.0, abs=1e-6)
        cells = 2.0 * box_upper(w) / 2000.0
        assert abs(res.best_point[0] - 1.0) <= cells[0]
        assert abs(res.best_point[1] - 1.0) <= cells[1]
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0


def _grid_oracle_last(w, y_head):
    """Refining 1-D grid maximization of F over the last coordinate."""
    lo, hi = 0.0, float(box_upper(w)[-1])
    best_t = None
    for _ in range(4):
        ts = np.linspace(lo, hi, 2001)
        vals = objective_F(w, with_last(y_head, ts))
        i = int(np.argmax(vals))
        best_t = ts[i]
        span = ts[1] - ts[0]
        lo = max(0.0, best_t - 2 * span)
        hi = min(float(box_upper(w)[-1]), best_t + 2 * span)
    return objective_F(w, np.append(y_head, best_t))


def test_criterion_5_elimination_identities(announce):
    with verdict(announce, 5, "stationary point and closed-form elimination"):
        rng = np.random.default_rng(105)
        for _ in range(100):
            n = int(rng.integers(3, 11))
            w = random_weights(rng, n)
            sp = stationary_analysis(w, 1.0)
            assert abs(sp.residual) <= 1e-12
            np.testing.assert_allclose(sp.a, 1.0, rtol=0, atol=1e-14)
            assert objective_g(w, np.ones(n - 2)) == pytest.approx(
                1.0, abs=1e-14
            )
        for trial in range(100):
            n = 3 + trial % 2
            w = random_weights(rng, n)
            upper = box_upper(w)[:-1]
            y_head = rng.uniform(0.05, 0.95, n - 2) * upper
            elim = eliminate_last(w, y_head)
            assert not elim.degenerate
            assert elim.max_value == pytest.approx(
                _grid_oracle_last(w, y_head), abs=1e-8
            )


def test_criterion_6_identity_and_round_trip(announce):
    with verdict(announce, 6, "mean identity and coordinate round trip"):
        rng = np.random.default_rng(106)
        for _ in range(1000):
            n = int(rng.integers(2, 13))
            w = random_weights(rng, n, 1e-3, 1e3)
            x = random_samples(rng, n, 1e-3, 1e3)
            r1, r2 = identity_residuals(w, x)
            assert r1 < 1e-12 and r2 < 1e-12
            scale = float(partial_mean_sequence(w, x, 1.0)[-1])
            back = y_to_x(w, x_to_y(w, x), scale=scale)
            np.testing.assert_allclose(back, x, rtol=1e-12)


def test_criterion_7_existence_above_critical_weight(announce):
    with verdict(announce, 7, "a qualifying tail weight always exists"):
        rng = np.random.default_rng(107)
        for _ in range(200):
            m = int(rng.integers(2, 10))
            # moderate spread: for lopsided heads the qualifying interval
            # above the critical weight can be narrower than 1e-4 relative
            head = log_uniform(rng, 0.5, 2.0, m)
            assert existence_check(head).holds
            crit = critical_weight(head)
            assert any(
                gao_conditions(
                    WeightSequence(np.append(head, crit * (1 + delta)))
                ).holds
                for delta in (1e-4, 1e-3, 1e-2)
            )
            gap = induction_gap(head, tail_sum_maximizer(head))
            assert abs(math.expm1(-gap)) < 1e-10


def test_criterion_8_region_scan(announce, capsys, tmp_path):
    with verdict(announce, 8, "scan of the pair head reproduces the regions"):
        start = time.perf_counter()
        head_file = tmp_path / "head.json"
        head_file.write_text('{"w": [1, 1]}')
        code = run(
            ["scan", str(head_file), "--range", "3:6", "--steps", "61"]
        )
        out = capsys.readouterr().out
        assert code == 0
        lines = out.splitlines()
        header = lines[0].split(",")
        rows = [
            {k: (float(v) if v else None) for k, v in zip(header, line.split(","))}
            for line in lines[1:]
        ]
        assert len(rows) == 61

        # the quadratic tail bound changes sign exactly once, at w_n = 4
        hol_signs = [r["holland_margin"] >= 0 for r in rows]
        flips = [i for i in range(1, 61) if hol_signs[i] != hol_signs[i - 1]]
        assert len(flips) == 1
        i = flips[0]
        assert rows[i - 1]["w_n"] < 4.0 < rows[i]["w_n"]

        # the tail-product margin changes sign once, between 4 and 4.5;
        # direct evaluation pins the endpoint inside (4.1, 4.5)
        d_signs = [r["gao_d"] >= 0 for r in rows if r["gao_d"] is not None]
        d_rows = [r for r in rows if r["gao_d"] is not None]
        flips = [
            i for i in range(1, len(d_signs)) if d_signs[i] != d_signs[i - 1]
        ]
        assert len(flips) == 1
        i = flips[0]
        assert 4.0 < d_rows[i - 1]["w_n"] < 4.5
        assert 4.1 < d_rows[i]["w_n"] < 4.5
        assert gao_conditions(WeightSequence([1, 1, 4.1])).margins[3] > 0
        assert gao_conditions(WeightSequence([1, 1, 4.5])).margins[3] < 0

        # wherever either proof route applies, the grid never exceeds 1
        for r in rows:
            gao_ok = (
                r["gao_a"] is not None
                and r["gao_a"] > 1e-12
                and all(r[k] >= 0 for k in ("gao_b", "gao_c", "gao_d"))
            )
            if r["holland_margin"] >= 0 or gao_ok:
                assert r["grid_max"] <= 1.0 + 1e-9
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0
