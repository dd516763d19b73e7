import functools
import math
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mixedmeans import (
    InputError,
    SearchConfig,
    WeightSequence,
    box_upper,
    critical_weight,
    curve_max_F,
    gao_conditions,
    holland_condition,
    multistart_max_F,
    objective_F,
    rado_increment,
    violation_search,
    violation_tolerance,
    weight_scan,
)
import curve_reference
import dense_lattice
import oracle
import serial_search
from mixedmeans import search
from mixedmeans.conditions import _CURVE_STEP, ReducedProblem
from mixedmeans.functionals import (
    _orientation,
    _rado_increment_precise,
    _top_increment,
    _top_lines,
)
from mixedmeans.reduction import SCAN_FIELDS, find_stationary_d
from sampling import log_uniform, random_samples, random_weights


class TestGridMaxF:
    """The maximum of F that ``certify`` and the ``grid_max`` column of
    ``scan`` report: the curve maximum."""

    def test_lattice_contains_constant_point(self):
        w = WeightSequence([1, 1, 4.05])
        res = curve_max_F(w)
        assert res.best_value >= 1.0

    def test_gao_region_example(self):
        w = WeightSequence([1, 1, 4.05])
        res = curve_max_F(w)
        assert res.best_value == pytest.approx(1.0, abs=1e-6)
        assert res.best_point == pytest.approx((1.0, 1.0), abs=2e-3)

    def test_holland_region_example(self):
        res = curve_max_F(WeightSequence([1, 1, 3]))
        assert res.best_value <= 1.0 + 1e-9

    def test_deterministic(self):
        w = WeightSequence([1, 2, 3, 4])
        a = curve_max_F(w)
        b = curve_max_F(w)
        assert a == b

    def test_envelope_agreement(self):
        rng = np.random.default_rng(60)
        for _ in range(10):
            w = random_weights(rng, 3, 0.2, 5.0)
            full = curve_max_F(w)
            env = dense_lattice.grid_max_envelope(w, 801)
            assert env.best_value == pytest.approx(full.best_value, abs=1e-6)

    def test_constant_point_and_corners_are_candidates(self):
        # each is returned exactly where it is the first maximum: the point 1
        # for tails up to the refutation threshold, the origin for heavier
        # ones; the multistart reads the same end points, bit for bit
        for ws, point in (
            ([1, 1, 4.05], (1.0, 1.0)),
            ([1, 1, 4.5], (1.0, 1.0)),
            ([1, 1, 6], (0.0, 0.0)),
            ([1, 2, 3, 4, 20], (0.0,) * 4),
        ):
            w = WeightSequence(ws)
            assert curve_max_F(w).best_point == point
        rng = np.random.default_rng(61)
        for j in range(30):
            w = random_weights(rng, int(rng.integers(2, 13)), 0.1, 30.0)
            multistart = multistart_max_F(w, SearchConfig(seed=j, trials=2))
            for best in (curve_max_F(w).best_value, multistart.best_value):
                for corner in (np.ones(w.n - 1), np.zeros(w.n - 1), box_upper(w)):
                    assert best >= objective_F(w, corner), (w.w, corner)

    def test_slope_on_the_curve_has_the_sign_of_R(self):
        # sign phi'(t) = sign R(t), R = L_2 - L_1 - t, by central differences
        rng = np.random.default_rng(63)
        checked = 0
        for _ in range(40):
            rp = ReducedProblem.of(random_weights(rng, int(rng.integers(2, 8)), 0.2, 8.0))
            t = rng.uniform(-8.0, 8.0, 50)
            L1, L2, _ = rp.curve(t)
            R = L2 - L1 - t
            up, down = (rp.F(*rp.curve(t + h)[:2]) for h in (1e-5, -1e-5))
            keep = np.abs(R) > 1e-3
            checked += keep.sum()
            assert (np.sign(up - down)[keep] == np.sign(R)[keep]).all()
        assert checked > 1000

    def test_at_least_multistart(self):
        # beyond four box dimensions; both take the same end points first,
        # and 1e-15 relative: a walk may end a rounding above a root's value
        rng = np.random.default_rng(62)
        for j in range(45):
            w = random_weights(rng, 6 + j % 15, 0.2, 8.0)
            want = multistart_max_F(w, SearchConfig(seed=j)).best_value
            assert curve_max_F(w).best_value >= want * (1.0 - 1e-15), (w.w, want)


@functools.lru_cache(maxsize=None)
def _curve_corpus():
    """240 tables, n = 3..8: log-weights uniform in [-2, 2], and heads
    log-uniform in [0.5, 2] with a tail 1-3 times the critical weight."""
    rng = np.random.default_rng(64)
    ws = []
    for j in range(240):
        n = 3 + j % 6
        if j % 2:
            head = log_uniform(rng, 0.5, 2.0, n - 1)
            ws.append(np.append(head, critical_weight(head) * rng.uniform(1.0, 3.0)))
        else:
            ws.append(np.exp(rng.uniform(-2.0, 2.0, n)))
    return tuple(tuple(w.tolist()) for w in ws)


def _roots(rp):
    """``ReducedProblem.curve_roots`` of ``rp``: the roots as an array, and the count."""
    roots, evaluations = rp.curve_roots
    return np.array(roots), evaluations


class TestCurveOracle:
    """The curve's roots, its maximum and its scalar evaluator against the
    50-digit oracle and the array kernel."""

    def test_roots_match_the_oracle(self):
        checked = 0
        for ws in _curve_corpus():
            w = WeightSequence(ws)
            rp = ReducedProblem.of(w)
            for t in _roots(rp)[0].tolist():
                with mpmath.workdps(oracle.DPS):
                    ref = mpmath.findroot(
                        lambda d: oracle.stationary_residual(ws, d), math.exp(t)
                    )
                assert math.exp(t) == pytest.approx(float(ref), rel=1e-12), (ws, t)
                checked += 1
        assert checked > 100

    def test_best_is_the_first_maximum_of_the_candidates(self):
        # the point 1, the origin, the top corner and Q at every root, each
        # through objective_F on its own: the first largest, bit for bit.  Q
        # comes from the scalar rows, as curve_max_F forms it; a test on
        # extreme weights below compares those points with the array pass
        for ws in _curve_corpus():
            w = WeightSequence(ws)
            rp = ReducedProblem.of(w)
            roots, evaluations = _roots(rp)
            points = [np.ones(w.n - 1), np.zeros(w.n - 1), rp.upper]
            points += [np.minimum(np.exp(rp.curve_log_q(t)), rp.upper) for t in roots.tolist()]
            values = [objective_F(w, y) for y in points]
            k = values.index(max(values))
            res = curve_max_F(w)
            assert res.best_value == values[k] and res.best_point == tuple(points[k].tolist())
            assert res.trials_run == evaluations + roots.size

    def test_best_value_is_F_at_best_point(self):
        for ws in _curve_corpus():
            res = curve_max_F(WeightSequence(ws))
            ref = float(oracle.objective_F(ws, res.best_point))
            assert res.best_value == pytest.approx(ref, rel=1e-14), ws

    def test_scalar_curve_matches_the_kernel(self):
        # R, and each log Q_i of curve_log_q, to a few ulp of the magnitudes
        # they are formed from (log Q_i from log W_i, log w_{i+1}, t and a
        # softplus below 1); R' to a central difference of the kernel's R
        eps, h = sys.float_info.epsilon, 1e-5
        rng = np.random.default_rng(65)
        for ws in _curve_corpus():
            rp = ReducedProblem.of(WeightSequence(ws))
            grid = curve_reference.full_lattice(rp)
            t = np.concatenate([grid[::9], rng.uniform(grid[0], grid[-1], 8), [0.0, 1e-9]])
            L1, L2, log_q = rp.curve(t)
            scale = (
                np.abs(log_q) @ rp.alpha
                + np.abs(log_q + t[:, None]) @ rp.beta
                + (rp.alpha + rp.beta) @ np.abs(rp.log_W[1:])
                + np.abs(t)
            )
            up, down = (rp.curve(t + dt) for dt in (h, -h))
            central = ((up[1] - up[0]) - (down[1] - down[0]) - 2 * h) / (2 * h)
            for x, R, size, diff, q in zip(t.tolist(), L2 - L1 - t, scale, central, log_q):
                R_at, slope, _ = rp.curve_at(x)
                assert abs(R_at - R) <= 4 * eps * size, (ws, x)
                assert slope == pytest.approx(diff, abs=1e-6), (ws, x)
                q_size = np.abs(rp.log_W[1:]) + np.abs(rp.log_W[:-1]) + np.abs(rp.log_w[1:])
                q_size += abs(x) + 1.0
                assert (np.abs(rp.curve_log_q(x) - q) <= 4 * eps * q_size).all(), (ws, x)

    def test_slope_at_one(self):
        # R'(0) = sum (alpha_i - beta_i) w_{i+1}/W_{i+1} - w_1/W_n
        for ws in _curve_corpus()[:40]:
            rp = ReducedProblem.of(WeightSequence(ws))
            want = (rp.alpha - rp.beta) @ (rp.w_next / rp.W_next) - rp.w_1 / rp.W_n
            assert rp.curve_at(0.0)[1] == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_flat_curve_has_no_root(self):
        # alpha - beta = 0, so R' = -w_1/W_n < 0 on the whole line: the grid
        # is the window's ends and t = 0, and R's rounding noise gives no root
        w = WeightSequence([1.0, 1e20])
        rp = ReducedProblem.of(w)
        grid = rp.curve_grid
        assert grid.tolist() == [curve_reference.full_lattice(rp)[0], 0.0, -grid[0]]
        assert rp.curve_roots == ((), 3)
        assert curve_max_F(w).best_value == pytest.approx(1.0, abs=1e-14)

    def test_one_grid_pass_serves_the_maximum_and_the_roots(self, monkeypatch):
        # the table forms its grid and roots once: curve_max_F, then
        # find_stationary_d on the same weights, evaluate the grid once
        calls = []
        curve = ReducedProblem.curve
        monkeypatch.setattr(ReducedProblem, "curve", lambda rp, t: calls.append(t) or curve(rp, t))
        w = WeightSequence([1.0, 1.0, 6.0])
        res = curve_max_F(w)
        roots = find_stationary_d(w)
        assert len(calls) == 1 and calls[0] is ReducedProblem.of(w).curve_grid
        assert len(roots) > 1 and res.best_value > 1.0

    def test_pruned_roots_match_the_full_lattice(self):
        # the same roots as on every node of the window, to 1e-12 relative
        for ws in _curve_corpus():
            rp = ReducedProblem.of(WeightSequence(ws))
            want = curve_reference.roots(rp)
            got = _roots(rp)[0]
            assert got.size == want.size and got == pytest.approx(want, rel=1e-12), ws

    def test_pruned_roots_match_the_full_lattice_on_extreme_weights(self):
        # Each root is within 1e-12 relative, or within the width 2 bound/|R'|
        # in which float64 cannot tell R from 0, of one of the other's.
        # Roots wider than a step are sign changes of rounding noise, which
        # the pruned grid may drop where R is proven monotone.
        rng = np.random.default_rng(66)
        tables, noise = 0, [0, 0]
        for span in (30.0, 300.0):
            for _ in range(2000):
                try:
                    w = WeightSequence(10.0 ** rng.uniform(-span, span, int(rng.integers(2, 9))))
                    rp = ReducedProblem.of(w)
                except InputError:
                    continue
                if not rp.representable:
                    continue
                tables += 1
                found = []
                for j, roots in enumerate((curve_reference.roots(rp), _roots(rp)[0])):
                    keep = []
                    for t in roots.tolist():
                        _, slope, bound = rp.curve_at(t)
                        width = 2.0 * bound / abs(slope) if slope else math.inf
                        if width < _CURVE_STEP:
                            keep.append((t, max(width, 1e-12 * abs(t))))
                        else:
                            noise[j] += 1
                    found.append(keep)
                want, got = found
                assert len(got) == len(want), w.w
                for (a, wa), (b, wb) in zip(want, got):
                    assert abs(a - b) <= max(wa, wb), (w.w, a, b)
        assert tables > 500
        assert noise[1] < noise[0]

    def test_scalar_root_points_match_the_array_pass_on_extreme_weights(self):
        # Q at each root comes from the scalar rows (math.exp, math.log1p),
        # not numpy's: the maximum is within 4 ulp of the array pass's, with
        # the same verdict, and it is objective_F at its point, bit for bit
        rng = np.random.default_rng(68)
        tables = 0
        while tables < 300:
            try:
                w = WeightSequence(10.0 ** rng.uniform(-300.0, 300.0, int(rng.integers(2, 9))))
                rp = ReducedProblem.of(w)
            except InputError:
                continue
            if not rp.representable:
                continue
            tables += 1
            got, want = curve_max_F(w), curve_reference.curve_max_F(rp)
            assert abs(got.best_value - want) <= 4 * math.ulp(want), w.w
            assert (got.best_value > 1.0 + 1e-9) == (want > 1.0 + 1e-9), w.w
            assert objective_F(w, got.best_point) == got.best_value, w.w

    def test_slope_has_the_proven_sign_past_the_bounds(self):
        # R' <= -w_1/W_n / 2 at t <= L, and R' has the sign of sum alpha - 1 at t >= U
        rng = np.random.default_rng(67)
        checked = 0
        for span in (2.0, 30.0, 300.0):
            for _ in range(150):
                try:
                    rp = ReducedProblem.of(
                        WeightSequence(10.0 ** rng.uniform(-span, span, int(rng.integers(2, 9))))
                    )
                except InputError:
                    continue
                lo, hi = rp.monotone_ends
                kappa, e = rp.w_1 / rp.W_n, float(np.sum(rp.alpha - rp.beta)) - rp.w_1 / rp.W_n
                for t in (lo - rng.exponential(20.0, 4)).tolist():
                    if math.isfinite(t):
                        assert rp.curve_at(t)[1] <= -0.5 * kappa * (1.0 - 1e-12), (rp.w_n, t)
                        checked += 1
                for t in (hi + rng.exponential(20.0, 4)).tolist():
                    if math.isfinite(t):
                        assert rp.curve_at(t)[1] * e > 0.0, (t, e)
                        assert abs(rp.curve_at(t)[1]) >= 0.5 * abs(e) * (1.0 - 1e-12)
                        checked += 1
        assert checked > 1000


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
    """The curve maximum against the filled lattice, whose points all lie in
    the box."""

    def test_matches_dense(self):
        # at least every lattice maximum, up to 1e-15 relative rounding
        for w, resolution in _lattice_cases():
            if not ReducedProblem.of(w).representable:
                continue
            with np.errstate(all="ignore"):
                want = dense_lattice.grid_max_F(w, resolution).best_value
            got = curve_max_F(w).best_value
            assert got >= want - 1e-15 * abs(want), (w.w, resolution)

    def test_out_of_range_tables_raise(self):
        # alpha is NaN for the first two; W_{n-1} W_n overflows for the third;
        # beta_1 underflows to 0, and a box bound rounds to 1, for the last two
        for w in (
            [1, 1, 1e308], [1, 1, 1, 1, 1e308], [1e200, 1, 1],
            [1, 1e-300, 1e300], [1, 2, 1e-300, 4],
        ):
            with pytest.raises(InputError, match="out of float64 range"):
                curve_max_F(WeightSequence(w))

    def test_extreme_weights(self):
        # each table raises or is refused, or the maximum is not NaN and
        # gives the filled lattice's verdict
        rng = np.random.default_rng(81)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            try:
                w = WeightSequence(10.0 ** rng.uniform(-320.0, 308.0, n))
                if not ReducedProblem(w).representable:
                    continue
            except InputError:
                continue
            got = curve_max_F(w).best_value
            with np.errstate(all="ignore"):
                want = dense_lattice.grid_max_F(w, 9).best_value
            assert not math.isnan(got)
            assert (got > 1.0 + 1e-9) == (want > 1.0 + 1e-9), w.w

    def test_five_weights_at_default_resolution(self):
        w = WeightSequence([1, 1, 1, 1, 9])
        res = curve_max_F(w)
        assert len(res.best_point) == 4
        assert res.best_value > 1.0

    def test_memory_bounded(self):
        head = np.array([1.0, 1.5, 0.7, 1.2])
        w = WeightSequence(np.append(head, 0.6 * critical_weight(head)))
        assert holland_condition(w).holds
        tracemalloc.start()
        try:
            res = curve_max_F(w)
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

    def test_violation_at_small_scale(self):
        # The walk ends at data of scale ~1e-5, where the increment is
        # -3e-7: far beyond violation_tolerance (~1.6e-13), so a violation,
        # which no absolute bound on the 50-digit increment may drop.
        w = WeightSequence([
            1.7030417326851062, 1.216843312378811, 1.1014381992620612,
            0.8423990253330988, 0.8838727362440361, 5.47685358903886,
        ])
        res = violation_search(w, 0.0, SearchConfig(seed=1, trials=1))
        assert res.violation
        assert res.best_value == pytest.approx(2.98e-7, rel=1e-2)
        precise = _rado_increment_precise(w, res.best_point, 0.0, w.n)
        assert -1e-6 < precise < -violation_tolerance(w, res.best_point)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        head=st.lists(st.floats(min_value=0.5, max_value=2.0), min_size=2, max_size=6),
        tail=st.one_of(
            st.floats(min_value=0.3, max_value=1.0),
            st.floats(min_value=-6.0, max_value=-4.0).map(lambda e: 1.0 + 10.0**e),
        ),
        trials=st.integers(1, 20),
        seed=st.integers(0, 2**32),
    )
    def test_no_violation_where_holland_or_gao_holds(self, head, tail, trials, seed):
        w = WeightSequence([*head, critical_weight(head) * tail])
        assume(holland_condition(w).holds or gao_conditions(w).holds)
        res = violation_search(w, 0.0, SearchConfig(seed=seed, trials=trials))
        assert not res.violation, (w.w.tolist(), trials, seed)

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

    def test_precise_increment_matches_oracle(self):
        rng = np.random.default_rng(72)
        for n in (*range(2, 9), 20, 40, 60):
            for s in (-1.0, 0.0, 0.5, 1.0, 2.0):
                w = random_weights(rng, n)
                x = random_samples(rng, n, 1e-6, 1e6)
                k = int(rng.integers(2, n + 1))
                want = float(oracle.rado_increment(w.w, x, s, k))
                got = _rado_increment_precise(w, x, s, k)
                assert got == pytest.approx(want, abs=1e-14 * w.W[k - 1] * x[:k].max())

    @pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
    def test_non_finite_exponent(self, monkeypatch, s):
        def no_trials(*args, **kwargs):
            raise AssertionError("the search ran a trial")

        monkeypatch.setattr(search, "_multistart", no_trials)
        with pytest.raises(InputError, match="finite"):
            violation_search(WeightSequence([1, 1, 6]), s, SearchConfig())


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


@functools.cache
def _serial(name, w, *args):
    """``serial_search.<name>`` for the weights tuple ``w``, computed once for
    the tests that run the batched search with each replay."""
    return getattr(serial_search, name)(WeightSequence(w), *args)


class TestSerialReference:
    """The batched line ascent returns exactly the serial walk's results."""

    @staticmethod
    def _scalar_line(fun):
        """The scalar line of the batch objective ``fun``, as ``_multistart`` takes."""

        def line(z, i):
            z = np.array(z, dtype=float)

            def at(c):
                z[i] = c
                return float(fun(z[None])[0])

            return at

        return line

    def test_violation_search(self):
        rng = np.random.default_rng(70)
        cases = [(n, s) for n in range(2, 9) for s in (-1.0, 0.0, 0.5, 2.0)]
        for j, (n, s) in enumerate(cases):
            w = random_weights(rng, n, 0.2, 8.0)
            cfg = SearchConfig(seed=j, trials=1 + j % 12)
            assert violation_search(w, s, cfg) == _serial(
                "violation_search", tuple(w.w.tolist()), s, cfg
            )

    def test_multistart_max_F(self):
        rng = np.random.default_rng(71)
        for j, n in enumerate((6, 6, 7, 7, 9, 12, 20)):
            w = random_weights(rng, n, 0.2, 8.0)
            cfg = SearchConfig(seed=j, trials=40, local_steps=6 + j)
            assert multistart_max_F(w, cfg) == _serial(
                "multistart_max_F", tuple(w.w.tolist()), cfg
            )

    @pytest.mark.parametrize("max_moves", [50, 5, 2])
    def test_rough_objectives(self, monkeypatch, max_moves):
        # Values that jump between neighbouring floats make the walks stop
        # after a step or two, in either direction, and run into the
        # clamps, which the smooth objectives above rarely do.  Small move
        # budgets cut the walks short.
        monkeypatch.setattr(search, "_MAX_MOVES", max_moves)

        def rough(Z):
            return np.sin(1e17 * Z).sum(axis=-1) - (Z**2).sum(axis=-1)

        def serial(z):
            return float(rough(z[None])[0])

        def lines(Z):
            return functools.partial(search._values, rough)

        line = self._scalar_line(rough)

        for d, steps, lo, hi, local_steps in (
            (1, 0.3, -1.0, 1.0, 6),
            (3, 0.7, -2.0, 2.0, 4),
            (5, 0.25, 0.0, 1.0, 3),
        ):
            cfg = SearchConfig(seed=d, trials=40, local_steps=local_steps)

            def draw(rng):
                return rng.uniform(lo, hi, d)

            batched = list(search._multistart(lines, cfg, draw, steps, lo, hi, line))
            for t, (val, z) in enumerate(batched):
                z0 = draw(search._trial_rng(cfg.seed, t))
                ref_val, ref_z = serial_search.coordinate_ascent(
                    serial, z0, steps, lo, hi, local_steps, max_moves
                )
                assert val == ref_val
                assert z.tolist() == ref_z.tolist()

    # At the default search._LIST_WALKS the tests above walk a block of at
    # most that many trials alone and a larger one in array rounds; here
    # every block in array rounds, or every walk alone.  F has no scalar line
    # and takes array rounds at both settings.
    @pytest.mark.parametrize("list_walks", [0, 10**6], ids=["arrays", "walk"])
    def test_violation_search_each_replay(self, monkeypatch, list_walks):
        monkeypatch.setattr(search, "_LIST_WALKS", list_walks)
        self.test_violation_search()

    @pytest.mark.parametrize("list_walks", [0, 10**6], ids=["arrays", "lists"])
    def test_multistart_max_F_each_replay(self, monkeypatch, list_walks):
        monkeypatch.setattr(search, "_LIST_WALKS", list_walks)
        self.test_multistart_max_F()

    @pytest.mark.parametrize("list_walks", [0, 10**6], ids=["arrays", "walk"])
    @pytest.mark.parametrize("max_moves", [50, 5, 2])
    def test_rough_objectives_each_replay(self, monkeypatch, max_moves, list_walks):
        monkeypatch.setattr(search, "_LIST_WALKS", list_walks)
        self.test_rough_objectives(monkeypatch, max_moves)

    def test_block_split_matches_the_serial_walk(self):
        # _LIST_WALKS trials walk alone, one more take array rounds; a split
        # below 1 or past 64 trials is tested at 1 or 64, on one side of it
        split = min(max(search._LIST_WALKS, 1), 64)
        rng = np.random.default_rng(75)
        for j, (n, s) in enumerate(((2, 0.0), (3, 2.0), (5, 0.5), (8, -1.0))):
            w = random_weights(rng, n, 0.2, 8.0)
            for trials in (split, split + 1):
                cfg = SearchConfig(seed=j, trials=trials, local_steps=4)
                assert violation_search(w, s, cfg) == serial_search.violation_search(w, s, cfg)

    def test_budget_ends_walk_before_step_back(self, monkeypatch):
        # Row 0 climbs to the peak at 3 in every step and makes its seventh
        # and last move up to 0.61 + 7 steps: 4 in a first round, then 3 in a
        # second one, cut to the moves it has left.  That round's - line
        # starts at the step back from 0.61 + 4 steps, which lands off the
        # lattice and would win; the walk goes on up.  Row 1 moves once, and
        # its step back lands off the lattice and would win; it stops.  Alone,
        # each walk has the whole budget of _MAX_MOVES.
        monkeypatch.setattr(search, "_MAX_MOVES", 7)
        monkeypatch.setattr(search, "_ROUND", 1)
        step, starts, backs, tops = 0.1, (0.61, -0.45), [], []
        for start, moves in zip(starts, (4, 1)):
            line = [start]
            for _ in range(moves):
                line.append(line[-1] + step)
            backs.append(line[-1] - step)
            assert backs[-1] != line[-2]
            tops.append(line[-1])
        for _ in range(3):
            tops[0] += step

        def fun(Z):
            z = Z[:, 0]
            near = np.where(z >= 0.0, -abs(z - 3.0), -abs(z + 0.33))
            return near + 1000.0 * np.isin(z, backs)

        # in array rounds, then each walk alone on a scalar line
        for alone in (False, True):
            Z = np.array(starts)[:, None]
            best = fun(Z)
            self._climb_or_walk(fun, Z, best, step, alone)
            for t, start in enumerate(starts):
                ref_val, ref_z = serial_search.coordinate_ascent(
                    lambda z: float(fun(z[None])[0]), np.array([start]), step,
                    -5.0, 5.0, 1, 7,
                )
                assert (best[t], Z[t, 0]) == (ref_val, ref_z[0])
            assert Z[:, 0].tolist() == tops
            assert not np.isin(Z[:, 0], backs).any()

    def _climb_or_walk(self, fun, Z, best, step, alone):
        """Coordinate 0 of the rows of ``Z`` in [-5, 5], in array rounds
        (``_climb``), or each row alone (``_walk``) on the scalar line of
        ``fun``, with ``best`` updated in place."""
        if not alone:
            search._climb(functools.partial(search._values, fun), Z, best, 0, step, -5.0, 5.0)
            return
        line = self._scalar_line(fun)
        for t, z in enumerate(Z.tolist()):
            Z[t, 0], best[t] = search._walk(line(z, 0), z[0], float(best[t]), step, -5.0, 5.0)

    def test_climb_evaluates_one_side_after_the_first_round(self, monkeypatch):
        # The first round takes k steps on each side of every walk; after it,
        # each walk's side is fixed and a round takes its k steps on that
        # side only.  Row 0 climbs to 3 and row 1 down to -3 over several
        # rounds, row 2 sits on the peak at 3 and stops in the first.
        monkeypatch.setattr(search, "_ROUND", 1)
        rows = []

        def fun(Z):
            return -abs(abs(Z[:, 0]) - 3.0)

        def evaluate(Z, owner, i, pos):
            rows.append(np.bincount(owner, minlength=len(Z)).tolist())
            return search._values(fun, Z, owner, i, pos)

        starts = (0.05, -0.05, 3.0)
        Z = np.array(starts)[:, None]
        best = fun(Z)
        search._climb(evaluate, Z, best, 0, 0.1, -5.0, 5.0)
        # k = 4 on both sides, then 8, 16 and the 22 moves left on one side
        assert rows == [[8, 8, 8], [8, 8, 0], [16, 16, 0], [22, 22, 0]]
        for t, start in enumerate(starts):
            ref_val, ref_z = serial_search.coordinate_ascent(
                lambda z: float(fun(z[None])[0]), np.array([start]), 0.1, -5.0, 5.0, 1,
            )
            assert (best[t], Z[t, 0]) == (ref_val, ref_z[0])

    @pytest.mark.parametrize("alone", [False, True], ids=["arrays", "walk"])
    def test_budget_cuts_run(self, monkeypatch, alone):
        # Row 0 climbs in every step; in array rounds it makes 4 moves in a
        # first round, then the 3 it has left, and stops there.  Row 1 moves
        # once; its step back lands off the lattice and would win, but the
        # walk stops.  Row 2 never moves.  Row 3 climbs to its peak at 2.03 in
        # exactly the 4 steps of a first round; in the second, its + step
        # fails and its step back, which lands off the lattice and would win,
        # is the first of the - line: the walk keeps its side and stops.
        # Alone, row 0 stops after its seventh move too.
        monkeypatch.setattr(search, "_MAX_MOVES", 7)
        monkeypatch.setattr(search, "_ROUND", 1)
        step, starts, lines = 0.1, (0.31, -0.45, -0.33, 1.61), []
        for start, moves in zip(starts, (7, 1, 0, 4)):
            lines.append([start])
            for _ in range(moves):
                lines[-1].append(lines[-1][-1] + step)
        backs = [lines[t][-1] - step for t in (1, 3)]
        assert backs[0] != lines[1][-2] and backs[1] != lines[3][-2]

        def fun(Z):
            z = Z[:, 0]
            near = np.where(
                z < 0.0, -abs(z + 0.33), np.where(z < 1.5, -abs(z - 3.0), -abs(z - 2.03))
            )
            return near + 1000.0 * np.isin(z, backs)

        Z = np.array(starts)[:, None]
        best = fun(Z)
        self._climb_or_walk(fun, Z, best, step, alone)
        for t, start in enumerate(starts):
            ref_val, ref_z = serial_search.coordinate_ascent(
                lambda z: float(fun(z[None])[0]), np.array([start]), step,
                -5.0, 5.0, 1, 7,
            )
            assert (best[t], Z[t, 0]) == (ref_val, ref_z[0])
        assert Z[:, 0].tolist() == [line[-1] for line in lines]
        assert not np.isin(Z[:, 0], backs).any()

    @staticmethod
    def _lone_walks(monkeypatch, fun, lines, draw, cfg, steps, lo, hi):
        """Run the walks of ``cfg.trials`` trials, which go alone from the
        start (``_LIST_WALKS`` is raised to ``cfg.trials`` if below it), by
        the batch objective ``fun`` and its scalar lines ``lines``, and check
        them against the serial walk.  The batch is never called.
        The scalar lines must be evaluated first at each walk's start, then at
        exactly the serial walk's candidates, walk by walk, less those equal
        to the walk's position (a clamp).  No candidate of a walk lies back
        toward the point it started from.  Returns the count of clamps."""
        rows, points, walks = [], [], {}

        def batch(Z):
            rows.append(len(Z))
            return fun(Z)

        def line(z, i):
            at = lines(z, i)

            def counted(c):
                points.append(c)
                return at(c)

            return counted

        def serial(t):
            def counted(z):
                walk = sys._getframe(1).f_locals  # coordinate_ascent's loop state
                if "i" in walk:  # not the starting point
                    i = walk["i"]
                    key = (walk["p"], i, t)
                    walks.setdefault(key, []).append((float(walk["z"][i]), float(z[i])))
                return float(fun(z[None])[0])

            return counted

        monkeypatch.setattr(search, "_LIST_WALKS", max(search._LIST_WALKS, cfg.trials))
        got = list(search._multistart(
            lambda Z: functools.partial(search._values, batch),
            cfg, draw, steps, lo, hi, line,
        ))
        for t, (val, z) in enumerate(got):
            z0 = draw(search._trial_rng(cfg.seed, t))
            ref = serial_search.coordinate_ascent(
                serial(t), z0, steps, lo, hi, cfg.local_steps
            )
            assert (val, z.tolist()) == (ref[0], ref[1].tolist())
        # a block walks step by step and coordinate by coordinate, row by row
        want = [float(draw(search._trial_rng(cfg.seed, t))[0]) for t in range(cfg.trials)]
        clamps = 0
        for key in sorted(walks):
            start = walks[key][0][0]
            for c, x in walks[key]:
                assert (x - c) * (c - start) >= 0.0  # it never turns back
                clamps += x == c
                if x != c:
                    want.append(x)
        assert rows == []
        assert points == want
        return clamps

    @pytest.mark.parametrize("trials, list_walks", [(1, None), (3, 3)])
    def test_lone_walks_evaluate_what_the_serial_walk_does(
        self, monkeypatch, trials, list_walks
    ):
        if list_walks is not None:
            monkeypatch.setattr(search, "_LIST_WALKS", list_walks)
        rng = np.random.default_rng(74)
        skipped = 0
        for n, s in ((2, 0.0), (3, 0.0), (4, 2.0), (5, 0.5), (6, -1.0)):
            w = random_weights(rng, n, 0.2, 8.0)

            def fun(Z):
                return -_orientation(s) * _top_increment(w, Z, s)

            def draw(rng):
                return rng.uniform(-3.0, 3.0, n) * math.log(10.0)

            skipped += self._lone_walks(
                monkeypatch, fun, _top_lines(w, s), draw, SearchConfig(seed=n, trials=trials),
                math.log(2.0), math.log(1e-6), math.log(1e6),
            )
        assert skipped > 0

    @pytest.mark.parametrize("trials", [1, 3])
    def test_lone_walks_skip_clamps(self, monkeypatch, trials):
        # Rough values (see test_rough_objectives) from starts on the clamps:
        # the first step out of the box lands on the start, which the lone
        # walk does not evaluate again; in array rounds its value repeats the
        # start's and does not win.
        def rough(Z):
            return np.sin(1e17 * Z).sum(axis=-1) - (Z**2).sum(axis=-1)

        def draw(rng):
            return np.where(rng.uniform(size=3) < 0.5, -2.0, 2.0)

        cfg = SearchConfig(seed=3, trials=trials, local_steps=4)
        line = self._scalar_line(rough)
        assert self._lone_walks(monkeypatch, rough, line, draw, cfg, 0.7, -2.0, 2.0) > 0
        monkeypatch.setattr(search, "_LIST_WALKS", 0)

        def lines(Z):
            return functools.partial(search._values, rough)

        for t, (val, z) in enumerate(search._multistart(lines, cfg, draw, 0.7, -2.0, 2.0, line)):
            ref = serial_search.coordinate_ascent(
                lambda z: float(rough(z[None])[0]),
                draw(search._trial_rng(cfg.seed, t)), 0.7, -2.0, 2.0, cfg.local_steps,
            )
            assert (val, z.tolist()) == (ref[0], ref[1].tolist())

    def test_chunking_changes_nothing(self, monkeypatch):
        w = WeightSequence([1, 2, 0.5, 6])
        cfg = SearchConfig(seed=5, trials=9, local_steps=5)
        whole = (violation_search(w, 0.5, cfg), multistart_max_F(w, cfg))
        # one trial at a time; two rows of the increment, one candidate of F
        monkeypatch.setattr(search, "_CELL_CAP", 8)
        assert (violation_search(w, 0.5, cfg), multistart_max_F(w, cfg)) == whole

    def test_trial_streams(self):
        # one generator re-keyed per trial draws what a new one per trial
        # does, past the first block of trials and for seeds outside int64
        def draw(rng):
            return rng.uniform(0.0, 1.0, 3)

        def lines(Z):
            return functools.partial(search._values, lambda U: U.sum(axis=-1))

        for seed in (0, -1, 2**63 + 5):
            cfg = SearchConfig(seed=seed, trials=701, local_steps=0)
            got = search._multistart(lines, cfg, draw, 0.1, 0.0, 1.0)
            want = (draw(search._trial_rng(seed, t)) for t in range(701))
            assert [z.tolist() for _, z in got] == [z.tolist() for z in want]
        seeds = (0, -1, -2, 2**63, 2**63 + 5)
        firsts = {tuple(draw(search._trial_rng(s, 0))) for s in seeds}
        assert len(firsts) == len(seeds)

    def test_memory_bounded(self):
        # 20k trials of 2 x 50 candidate rows would alone be 48 MB with the
        # increment's 3 entries and 32 MB with F's 2
        tracemalloc.start()
        try:
            violation_search(
                WeightSequence([1, 1, 6]),
                0.0,
                SearchConfig(seed=0, trials=20_000, local_steps=1),
            )
            multistart_max_F(
                WeightSequence([1, 1, 6]),
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
            SearchConfig(local_steps=-1)


class TestWeightScan:
    def test_fields_and_regions(self):
        rows = weight_scan([1, 1], (3.0, 6.0), steps=13)
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
        rows = weight_scan([1, 1], (3.0, 3.9), steps=3)
        assert all(r["interior_bound"] is None for r in rows)

    def test_range_validation(self):
        with pytest.raises(InputError):
            weight_scan([1, 1], (0.0, 5.0), steps=5)
        with pytest.raises(InputError):
            weight_scan([1, 1], (3.0, 6.0), steps=1)

    def test_grid_max_blank_where_table_not_representable(self):
        # beta_1 underflows to 0; a box bound rounds to 1
        for head, tail in (([1, 1e-300], 1e300), ([1, 2, 1e-300], 4.0)):
            rows = weight_scan(head, (tail, tail), steps=2)
            assert [r["grid_max"] for r in rows] == [None, None]
            assert all(r["boundary_bound"] is not None for r in rows)

    def test_consistency_with_condition_checkers(self):
        rows = weight_scan([1, 2], (8.0, 10.0), steps=5)
        for r in rows:
            w = WeightSequence([1, 2, r["w_n"]])
            assert r["holland_margin"] == holland_condition(w).margins[0]
            assert (
                r["gao_a"],
                r["gao_b"],
                r["gao_c"],
                r["gao_d"],
            ) == gao_conditions(w).margins
