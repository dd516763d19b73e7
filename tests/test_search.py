import math
import tracemalloc

import numpy as np
import pytest

from mixedmeans import (
    InputError,
    SearchConfig,
    WeightSequence,
    critical_weight,
    gao_conditions,
    grid_max_F,
    grid_max_envelope,
    holland_condition,
    multistart_max_F,
    rado_increment,
    violation_search,
    weight_scan,
)
import dense_lattice
import serial_search
from mixedmeans import search
from mixedmeans.conditions import ReducedProblem
from mixedmeans.search import SCAN_FIELDS, _rado_increment_precise
from sampling import random_samples, random_weights


class TestGridMaxF:
    def test_lattice_contains_constant_point(self):
        w = WeightSequence([1, 1, 4.05])
        res = grid_max_F(w, 501)
        assert res.best_value >= 1.0

    def test_gao_region_example(self):
        w = WeightSequence([1, 1, 4.05])
        res = grid_max_F(w, 2001)
        assert res.best_value == pytest.approx(1.0, abs=1e-6)
        assert res.best_point == pytest.approx((1.0, 1.0), abs=2e-3)

    def test_holland_region_example(self):
        res = grid_max_F(WeightSequence([1, 1, 3]), 2001)
        assert res.best_value <= 1.0 + 1e-9

    def test_deterministic(self):
        w = WeightSequence([1, 2, 3, 4])
        a = grid_max_F(w, 61)
        b = grid_max_F(w, 61)
        assert a == b

    def test_dimension_guard(self):
        with pytest.raises(InputError):
            grid_max_F(WeightSequence([1] * 7), 11)

    def test_trials_run_counts_lattice(self):
        res = grid_max_F(WeightSequence([1, 1]), 11)
        assert res.trials_run == 11

    def test_envelope_agreement(self):
        rng = np.random.default_rng(60)
        for _ in range(10):
            w = random_weights(rng, 3, 0.2, 5.0)
            full = grid_max_F(w, 801)
            env = grid_max_envelope(w, 801)
            assert env.best_value == pytest.approx(full.best_value, abs=1e-6)


def _lattice_cases():
    """Weights and resolutions for the lattice maxima: random weights and,
    from n = 3, a head with a Holland, a Gao (just past the critical tail
    weight) and a refutable tail, at n = 2..5; degenerate weights last."""
    rng = np.random.default_rng(80)
    for n in (2, 3, 4, 5):
        ws = [random_weights(rng, n, 0.2, 8.0)]
        if n >= 3:
            head = rng.uniform(0.5, 2.0, n - 1)
            tail = critical_weight(head)
            ws += [
                WeightSequence(np.append(head, tail * f)) for f in (0.6, 1 + 1e-5, 2.5)
            ]
        for w in ws:
            for resolution in (2, 3, 11, 61, 201) if n <= 4 else (2, 3, 11, 41):
                yield w, resolution
    # an exponent underflows to 0 (-inf log-terms); a tiny weight
    for w in ([1, 1e-300, 1e300], [1, 2, 1e-300, 4]):
        yield WeightSequence(w), 41


class TestDenseReference:
    """The branch and bound returns exactly the filled lattice's results."""

    @staticmethod
    def _check_all():
        for w, resolution in _lattice_cases():
            pairs = [(grid_max_F, dense_lattice.grid_max_F)]
            if w.n >= 3:
                pairs.append((grid_max_envelope, dense_lattice.grid_max_envelope))
            for fast, dense in pairs:
                with np.errstate(all="ignore"):
                    got, want = fast(w, resolution), dense(w, resolution)
                assert got == want, (w, resolution, fast.__name__)

    def test_matches_dense(self):
        self._check_all()

    def test_small_blocks_and_batches(self, monkeypatch):
        # frontier chunks of 8 to 32 blocks
        monkeypatch.setattr(search, "_CELL_CAP", 64)
        self._check_all()

    def test_out_of_range_tables_raise(self):
        # alpha is NaN for the first two; W_{n-1} W_n overflows for the last
        for w in ([1, 1, 1e308], [1, 1, 1, 1, 1e308], [1e200, 1, 1]):
            with pytest.raises(InputError, match="out of float64 range"):
                grid_max_F(WeightSequence(w), 41)

    def test_extreme_weights(self):
        # each table raises, or both maxima are non-NaN and equal the filled
        # lattice's
        rng = np.random.default_rng(81)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            try:
                w = WeightSequence(10.0 ** rng.uniform(-320.0, 308.0, n))
                ReducedProblem(w)
            except InputError:
                continue
            pairs = [(grid_max_F, dense_lattice.grid_max_F)]
            if n >= 3:
                pairs.append((grid_max_envelope, dense_lattice.grid_max_envelope))
            for fast, dense in pairs:
                got = fast(w, 9)
                with np.errstate(all="ignore"):
                    want = dense(w, 9)
                assert not math.isnan(got.best_value)
                assert got == want, (w.w, fast.__name__)

    def test_other_monotone_combines(self):
        # few distinct values, so many cells tie at the top; and log F's
        # ingredients summed, whose maximum is an interior cell where the
        # summation order shows in the last bits
        rp = ReducedProblem(WeightSequence([1, 2, 0.5, 6]))

        def coarse(L1, L2):
            return np.floor(4.0 * rp.F(L1, L2))

        def total(L1, L2):
            return np.add(L1, L2, out=L1)

        for combine in (coarse, total):
            for dims, resolution in ((2, 61), (3, 31), (3, 201)):
                got = search._lattice_max(rp, dims, resolution, combine)
                want = dense_lattice.lattice_max(rp, dims, resolution, combine)
                assert got == want

    def test_five_weights_at_default_resolution(self):
        # 201^4 cells: the filled lattice would need 12 GB
        w = WeightSequence([1, 1, 1, 1, 9])
        res = grid_max_F(w, 201)
        assert res.trials_run == 201**4
        assert len(res.best_point) == 4
        assert res.best_value > 1.0

    def test_memory_bounded(self):
        head = np.array([1.0, 1.5, 0.7, 1.2])
        w = WeightSequence(np.append(head, 0.6 * critical_weight(head)))
        assert holland_condition(w).holds
        tracemalloc.start()
        try:
            res = grid_max_F(w, 201)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.best_value == pytest.approx(1.0, abs=1e-12)
        assert peak < 64 * 2**20


class TestViolationSearch:
    def test_nanjundiah_region_clean(self):
        res = violation_search(
            WeightSequence([1, 1, 1]), 0.0, SearchConfig(seed=3, trials=150)
        )
        assert res.best_value <= 1e-9
        assert not res.violation

    def test_gao_region_clean(self):
        res = violation_search(
            WeightSequence([1, 1, 4.05]), 0.0, SearchConfig(seed=4, trials=150)
        )
        assert res.best_value <= 1e-9
        assert not res.violation

    def test_unproven_region_finds_violation(self):
        res = violation_search(
            WeightSequence([1, 1, 6]), 0.0, SearchConfig(seed=5, trials=100)
        )
        assert res.violation
        assert res.best_value > 0
        # no false positives: the flagged point re-verifies independently
        assert (
            _rado_increment_precise(WeightSequence([1, 1, 6]), res.best_point, 0.0, 3)
            < -1e-6
        )

    def test_deterministic(self):
        w = WeightSequence([1, 2, 5])
        cfg = SearchConfig(seed=9, trials=60)
        assert violation_search(w, 0.0, cfg) == violation_search(w, 0.0, cfg)

    def test_seed_changes_exploration(self):
        w = WeightSequence([1, 1, 6])
        a = violation_search(w, 0.0, SearchConfig(seed=1, trials=30))
        b = violation_search(w, 0.0, SearchConfig(seed=2, trials=30))
        assert a.best_point != b.best_point

    def test_result_records_config(self):
        res = violation_search(
            WeightSequence([1, 1]), 0.0, SearchConfig(seed=77, trials=5)
        )
        assert res.seed == 77
        assert res.trials_run == 5


class TestMultistartMaxF:
    def test_reaches_constant_point_value(self):
        w = WeightSequence([1, 1, 1, 1, 1, 1])  # 5 box dimensions
        res = multistart_max_F(w, SearchConfig(seed=0, trials=20, local_steps=10))
        assert res.best_value == pytest.approx(1.0, abs=1e-3)
        assert res.best_value <= 1.0 + 1e-9

    def test_deterministic(self):
        w = WeightSequence([1, 1, 1, 2, 1, 1])
        cfg = SearchConfig(seed=8, trials=10, local_steps=6)
        assert multistart_max_F(w, cfg) == multistart_max_F(w, cfg)


class TestSerialReference:
    """The batched line ascent returns exactly the serial walk's results."""

    def test_violation_search(self):
        rng = np.random.default_rng(70)
        cases = [(n, s) for n in range(2, 9) for s in (-1.0, 0.0, 0.5, 2.0)]
        for j, (n, s) in enumerate(cases):
            w = random_weights(rng, n, 0.2, 8.0)
            cfg = SearchConfig(seed=j, trials=1 + j % 12)
            assert violation_search(w, s, cfg) == serial_search.violation_search(
                w, s, cfg
            )

    def test_multistart_max_F(self):
        rng = np.random.default_rng(71)
        for j, n in enumerate((6, 6, 7, 7)):
            w = random_weights(rng, n, 0.2, 8.0)
            cfg = SearchConfig(seed=j, trials=40, local_steps=6 + j)
            assert multistart_max_F(w, cfg) == serial_search.multistart_max_F(w, cfg)

    @pytest.mark.parametrize("max_moves", [50, 5, 2])
    def test_rough_objectives(self, monkeypatch, max_moves):
        # Values that jump between neighbouring floats make the walk take
        # its steps back (off the lattice by rounding) and turn at the
        # clamps, which the smooth objectives above rarely do.  Small move
        # budgets make those steps back count against the budget.
        monkeypatch.setattr(search, "_MAX_MOVES", max_moves)

        def rough(Z):
            return np.sin(1e17 * Z).sum(axis=-1) - (Z**2).sum(axis=-1)

        def serial(z):
            return float(rough(z[None])[0])

        for d, steps, lo, hi, local_steps in (
            (1, 0.3, -1.0, 1.0, 6),
            (3, 0.7, -2.0, 2.0, 4),
            (5, 0.25, 0.0, 1.0, 3),
        ):
            cfg = SearchConfig(seed=d, trials=40, local_steps=local_steps)

            def draw(rng):
                return rng.uniform(lo, hi, d)

            batched = list(search._multistart(rough, cfg, draw, steps, lo, hi))
            for t, (val, z) in enumerate(batched):
                z0 = draw(search._trial_rng(cfg.seed, t))
                ref_val, ref_z = serial_search.coordinate_ascent(
                    serial, z0, steps, lo, hi, local_steps, max_moves
                )
                assert val == ref_val
                assert z.tolist() == ref_z.tolist()

    def test_budget_ends_walk_before_step_back(self, monkeypatch):
        # Row 0 makes its seventh and last move up to 0.31 + 7 steps, where
        # the step back lands off the lattice and would win; the budget is
        # spent, so the walk ends there.  Row 1 steps back after one move,
        # so the second round (after a first one of 4 steps) looks further
        # ahead than row 0 has moves left.
        monkeypatch.setattr(search, "_MAX_MOVES", 7)
        monkeypatch.setattr(search, "_ROUND", 1)
        step, starts, backs = 0.1, (0.31, -0.45), []
        for start, moves in zip(starts, (7, 1)):
            line = [start]
            for _ in range(moves):
                line.append(line[-1] + step)
            backs.append(line[-1] - step)
            assert backs[-1] != line[-2]

        def fun(Z):
            z = Z[:, 0]
            near = np.where(z >= 0.0, -abs(z - 1.03), -abs(z + 0.33))
            return near + 1000.0 * np.isin(z, backs)

        Z = np.array(starts)[:, None]
        best = fun(Z)
        search._climb(fun, Z, best, 0, step, -5.0, 5.0)
        for t, start in enumerate(starts):
            ref_val, ref_z = serial_search.coordinate_ascent(
                lambda z: float(fun(z[None])[0]), np.array([start]), step,
                -5.0, 5.0, 1, 7,
            )
            assert (best[t], Z[t, 0]) == (ref_val, ref_z[0])
        assert Z[1, 0] == backs[1]

    def test_chunking_changes_nothing(self, monkeypatch):
        w = WeightSequence([1, 2, 0.5, 6])
        cfg = SearchConfig(seed=5, trials=9, local_steps=5)
        whole = (violation_search(w, 0.5, cfg), multistart_max_F(w, cfg))
        monkeypatch.setattr(search, "_CELL_CAP", 8)  # one trial, two rows at a time
        assert (violation_search(w, 0.5, cfg), multistart_max_F(w, cfg)) == whole

    def test_memory_bounded(self):
        # 20k trials of 2 x 50 candidate rows of 3 entries would alone be 48 MB
        tracemalloc.start()
        try:
            violation_search(
                WeightSequence([1, 1, 6]),
                0.0,
                SearchConfig(seed=0, trials=20_000, local_steps=1),
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestSearchConfig:
    def test_validation(self):
        with pytest.raises(InputError):
            SearchConfig(trials=0)
        with pytest.raises(InputError):
            SearchConfig(box_padding=0.0)
        with pytest.raises(InputError):
            SearchConfig(local_steps=-1)


class TestWeightScan:
    def test_fields_and_regions(self):
        rows = weight_scan([1, 1], (3.0, 6.0), steps=13, resolution=101)
        assert len(rows) == 13
        assert all(set(r) == set(SCAN_FIELDS) for r in rows)
        w_ns = [r["w_n"] for r in rows]
        assert w_ns[0] == pytest.approx(3.0) and w_ns[-1] == pytest.approx(6.0)
        # geometric spacing: constant ratio
        ratios = [b / a for a, b in zip(w_ns, w_ns[1:])]
        assert max(ratios) == pytest.approx(min(ratios), rel=1e-12)
        # Holland margin decreasing, crossing zero at w_n = 4
        margins = [r["holland_margin"] for r in rows]
        assert all(b < a for a, b in zip(margins, margins[1:]))
        for r in rows:
            assert (r["holland_margin"] >= 0) == (r["w_n"] <= 4.0 + 1e-12)
            if r["gao_a"] is not None and r["gao_a"] > 0:
                assert r["interior_bound"] is not None
            if r["holland_margin"] >= 0 or (
                r["gao_a"] > 1e-12
                and r["gao_b"] >= 0
                and r["gao_c"] >= 0
                and r["gao_d"] >= 0
            ):
                assert r["grid_max"] <= 1.0 + 1e-9

    def test_interior_bound_absent_below_critical(self):
        rows = weight_scan([1, 1], (3.0, 3.9), steps=3, resolution=51)
        assert all(r["interior_bound"] is None for r in rows)

    def test_range_validation(self):
        with pytest.raises(InputError):
            weight_scan([1, 1], (0.0, 5.0), steps=5, resolution=51)
        with pytest.raises(InputError):
            weight_scan([1, 1], (3.0, 6.0), steps=1, resolution=51)

    def test_consistency_with_condition_checkers(self):
        rows = weight_scan([1, 2], (8.0, 10.0), steps=5, resolution=51)
        for r in rows:
            w = WeightSequence([1, 2, r["w_n"]])
            assert r["holland_margin"] == holland_condition(w).margins[0]
            assert (
                r["gao_a"],
                r["gao_b"],
                r["gao_c"],
                r["gao_d"],
            ) == gao_conditions(w).margins
