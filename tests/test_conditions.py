import math
import re
import sys

import numpy as np
import pytest

from mixedmeans import (
    InputError,
    NotApplicableError,
    WeightSequence,
    critical_weight,
    d_zero,
    existence_check,
    gao_conditions,
    holland_condition,
    induction_gap,
    nanjundiah_condition,
    tail_sum_maximizer,
)
from mixedmeans.conditions import ReducedProblem, _exp
from sampling import log_uniform, random_weights


class TestNanjundiah:
    def test_uniform(self):
        rep = nanjundiah_condition(WeightSequence([1, 1, 1]))
        assert rep.holds
        assert rep.margins == (1.0,)

    def test_heavy_tail_fails(self):
        rep = nanjundiah_condition(WeightSequence([1, 1, 4.05]))
        assert not rep.holds
        assert rep.margins[0] == pytest.approx(-2.05, abs=1e-12)

    def test_pair_is_vacuous(self):
        rep = nanjundiah_condition(WeightSequence([0.2, 9.0]))
        assert rep.holds
        assert rep.margins == ()

    def test_margins_equal_the_per_k_expression(self):
        rng = np.random.default_rng(17)
        for n in range(2, 13):
            w = random_weights(rng, n, 1e-3, 1e3)
            W_n, w_n = float(w.W[-1]), float(w.w[-1])
            want = tuple(
                W_n * float(w.w[k - 1]) - float(w.W[k - 1]) * w_n for k in range(2, n)
            )
            rep = nanjundiah_condition(w)
            assert rep.margins == want
            assert rep.details == tuple(f"k={k}" for k in range(2, n))


class TestHolland:
    def test_boundary(self):
        rep = holland_condition(WeightSequence([1, 1, 4]))
        assert rep.holds
        assert rep.margins[0] == 0.0

    def test_fails(self):
        rep = holland_condition(WeightSequence([1, 1, 5]))
        assert not rep.holds
        assert rep.margins[0] == pytest.approx(-1.0, abs=1e-12)

    def test_pair_empty_sum(self):
        rep = holland_condition(WeightSequence([3, 100]))
        assert rep.holds
        assert rep.margins[0] == pytest.approx(9.0, abs=1e-12)

    def test_holds_exactly_when_exponents_sum_to_at_most_one(self):
        # w_n S_{n-1} <= W_{n-1} W_n, i.e. sum alpha_i <= 1; tails on both
        # sides of the critical weight, away from the margin's zero
        rng = np.random.default_rng(24)
        sides = set()
        for _ in range(2000):
            head = log_uniform(rng, 0.1, 10.0, int(rng.integers(2, 9)))
            tail = critical_weight(head) * math.exp(rng.uniform(-1.0, 1.0))
            w = WeightSequence(np.append(head, tail))
            rep = holland_condition(w)
            if abs(rep.margins[0]) < 1e-9 * float(w.W[-2]) ** 2:
                continue
            assert rep.holds == (ReducedProblem(w).alpha.sum() <= 1.0), w.w
            sides.add(rep.holds)
        assert sides == {True, False}


class TestGao:
    def test_holds_example(self):
        rep = gao_conditions(WeightSequence([1, 1, 4.05]))
        assert rep.holds
        e, b, c, d = rep.margins
        assert e == pytest.approx(0.0125, abs=1e-12)
        assert b == pytest.approx(1 / 4.05 - 0.0125, abs=1e-12)
        assert c > 0 and d > 0
        # frozen from direct evaluation of the two product margins
        assert c == pytest.approx(0.3330895974939512, abs=1e-12)
        assert d == pytest.approx(0.029627429619618284, abs=1e-12)

    def test_fails_beyond_region(self):
        rep = gao_conditions(WeightSequence([1, 1, 4.5]))
        assert not rep.holds
        assert rep.margins[3] < 0  # tail product margin

    def test_boundary_not_strict(self):
        rep = gao_conditions(WeightSequence([1, 1, 4]))
        assert not rep.holds
        assert rep.boundary
        assert holland_condition(WeightSequence([1, 1, 4])).holds

    def test_needs_three_weights(self):
        with pytest.raises(NotApplicableError):
            gao_conditions(WeightSequence([1, 2]))

    def test_overflowing_head_product(self):
        # the top corner's log-product is 1.7e199, so its value overflows
        # float64: the margin reads the most negative float, an upper bound
        rep = gao_conditions(WeightSequence([1, 1, 1e200]))
        assert not rep.holds
        assert rep.margins[2] == -sys.float_info.max
        assert all(math.isfinite(m) for m in rep.margins)


def _reference_log_corners(rp):
    """``log_corners`` as arrays: one np.log and np.sum per corner, then
    ``log_g`` on [log c, -inf] and [-inf, log c'] (numpy's logaddexp)."""
    head = slice(0, rp.upper.size - 1)
    log_c_top = np.sum(rp.alpha[head] * np.log(rp.upper[head]))
    log_cp_zero = np.sum(rp.beta[head] * np.log(rp.second_max[head]))
    L = rp.log_g(np.array([log_c_top, -np.inf]), np.array([-np.inf, log_cp_zero]))
    return float(L[0]), float(L[1])


def _reference_gao_margins(w):
    """The four Gao margins from the array corners and the excess
    w_n S_{n-2} / W_{n-1}**2 - 1."""
    rp = ReducedProblem.of(w)
    top, origin = _reference_log_corners(rp)
    e = float(w.w[-1]) * float(w.S[-3]) / float(w.W[-2]) ** 2 - 1.0
    try:
        margin_c = -math.expm1(top)
    except OverflowError:
        margin_c = -sys.float_info.max
    bound = _exp(origin) * (1.0 + e * rp.W_n1 / rp.w_1)
    return e, rp.w_1 / rp.w_n - e, margin_c, max(1.0 - bound, -sys.float_info.max)


def _corner_tables(count):
    """``count`` weight sequences of n = 3..12 whose table builds: a fifth
    of weights 10^U[-300, 300], the rest a head log-uniform in [0.5, 2]
    with a tail at 0.3..3 or 1 + 10^U[-8, -1] critical weights, or
    exp(U[-3, 3]) entries."""
    rng = np.random.default_rng(2025)
    tables, j = [], 0
    while len(tables) < count:
        n, kind, j = 3 + j % 10, j // 10 % 5, j + 1
        if kind == 0:
            w = 10.0 ** rng.uniform(-300, 300, n)
        elif kind == 4:
            w = np.exp(rng.uniform(-3, 3, n))
        else:
            head = log_uniform(rng, 0.5, 2.0, n - 1)
            W = np.cumsum(head)
            factor = rng.uniform(0.3, 3.0) if kind < 3 else 1.0 + 10.0 ** rng.uniform(-8, -1)
            w = np.append(head, W[-1] ** 2 / np.cumsum(W)[-2] * factor)
        try:
            ReducedProblem.of(w := WeightSequence(w))
        except InputError:
            continue
        tables.append(w)
    return tables


class TestCorners:
    def test_corners_and_gao_margins_match_the_array_reference(self):
        hex_of = lambda values: [float(v).hex() for v in values]  # noqa: E731
        compared = set()
        for w in _corner_tables(3000):
            rp = ReducedProblem.of(w)
            assert hex_of(rp.log_corners) == hex_of(_reference_log_corners(rp)), w.w
            if float(w.W[-2]) ** 2 >= sys.float_info.min:  # the excess divides by it
                ref = _reference_gao_margins(w)
                assert hex_of(gao_conditions(w).margins) == hex_of(ref), w.w
                compared.add(w.n)
        assert compared == set(range(3, 13))  # n >= 10 reaches numpy's pairwise sum


class TestTinyHead:
    # W_{n-1}^2 underflows to 0 below ~1e-162: the excess divides by neither
    w = [1e-300, 1e-300, 1.0]

    def test_excess_and_threshold(self):
        w = WeightSequence(self.w)
        rep = gao_conditions(w)
        assert rep.margins[0] == pytest.approx(2.5e299, rel=1e-15)
        assert not rep.holds
        assert all(math.isfinite(m) for m in rep.margins)
        assert d_zero(w) == 0.0  # (w_1/w_n)/e = 4e-600 underflows

    def test_quotient_form_only_below_normal_squares(self):
        # at W_{n-1} = 1e-150 the square is normal: the excess keeps its bits
        w = WeightSequence([5e-151, 5e-151, 3e-300])
        e = float(w.w[-1]) * float(w.S[-3]) / float(w.W[-2]) ** 2 - 1.0
        assert gao_conditions(w).margins[0] == e


class TestDZero:
    def test_values(self):
        assert d_zero(WeightSequence([1, 1, 4.1])) == pytest.approx(
            (1 / 4.1) / 0.025, rel=1e-12
        )
        assert d_zero(WeightSequence([1, 1, 4.05])) == pytest.approx(
            (1 / 4.05) / 0.0125, rel=1e-12
        )

    def test_boundary_raises(self):
        with pytest.raises(NotApplicableError):
            d_zero(WeightSequence([1, 1, 4]))

    def test_square_overflow_is_named(self):
        # W_2^2 = 1e600: each square names itself, not the errno of float ** 2
        w = WeightSequence([1e300, 1e-300, 1])
        for call, name in (
            (holland_condition, "holland margin: W_{n-1}^2"),
            (d_zero, "gao excess: W_{n-1}^2"),
            (lambda w: critical_weight(w.w[:-1]), "critical weight: W_{n-1}^2"),
        ):
            with pytest.raises(OverflowError, match=r"^" + re.escape(name)):
                call(w)


class TestCriticalWeight:
    @pytest.mark.parametrize(
        "head,expected",
        [([1, 1], 4.0), ([1, 2], 9.0), ([1, 1, 1], 3.0)],
    )
    def test_examples(self, head, expected):
        assert critical_weight(head) == pytest.approx(expected, rel=1e-14)

    def test_short_head(self):
        with pytest.raises(InputError):
            critical_weight([1])

    def test_makes_excess_vanish(self):
        rng = np.random.default_rng(30)
        for _ in range(50):
            m = int(rng.integers(2, 10))
            head = log_uniform(rng, 0.1, 10.0, m)
            w = WeightSequence(np.append(head, critical_weight(head)))
            assert holland_condition(w).margins[0] == pytest.approx(
                0.0, abs=1e-9 * w.total**2
            )


class TestExistence:
    def test_pair_head(self):
        rep = existence_check([1, 1])
        assert rep.holds
        assert rep.margins[0] == pytest.approx(math.log(3.0 / 2.0) + math.log(2.0) - math.log(2.0), abs=1e-12)
        assert rep.margins[0] == pytest.approx(0.4054651081081645, abs=1e-12)
        assert rep.margins[1] == pytest.approx(1.0 - (2.0 / 3.0) * math.sqrt(2.0), abs=1e-12)

    @pytest.mark.parametrize("head", [[1, 2], [5, 5, 5]])
    def test_other_heads(self, head):
        rep = existence_check(head)
        assert rep.holds
        assert all(m > 0 for m in rep.margins)

    def test_random_heads(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            m = int(rng.integers(2, 10))
            head = log_uniform(rng, 0.1, 10.0, m)
            assert existence_check(head).holds

    def test_neighborhood_of_critical_weight(self):
        rng = np.random.default_rng(32)
        for _ in range(100):
            m = int(rng.integers(2, 10))
            head = log_uniform(rng, 0.1, 10.0, m)
            crit = critical_weight(head)
            # just below: Holland holds, the Gao excess is not yet positive
            below = WeightSequence(np.append(head, crit * (1 - 1e-6)))
            assert holland_condition(below).holds
            assert gao_conditions(below).margins[0] < 0
            # just above: some small relative offset lands in the Gao region
            # (how far the region extends depends on the head, so scan)
            assert any(
                gao_conditions(
                    WeightSequence(np.append(head, crit * (1 + delta)))
                ).holds
                for delta in np.geomspace(1e-10, 1e-1, 46)
            )


class TestDichotomy:
    def test_exactly_one_side(self):
        rng = np.random.default_rng(33)
        for _ in range(200):
            n = int(rng.integers(3, 11))
            w = random_weights(rng, n)
            holland_ok = holland_condition(w).margins[0] >= 0
            excess_pos = gao_conditions(w).margins[0] > 0
            assert holland_ok != excess_pos or holland_condition(w).margins[0] == 0.0


class TestInductionGap:
    def test_zero_at_maximizer(self):
        rng = np.random.default_rng(34)
        for _ in range(100):
            m = int(rng.integers(2, 10))
            head = log_uniform(rng, 0.1, 10.0, m)
            peak = tail_sum_maximizer(head)
            gap = induction_gap(head, peak)
            assert abs(math.expm1(-gap)) < 1e-10

    def test_maximizer_out_of_range(self):
        # W_3 S_3 = 6e400 overflows on the way to 6e200; a value past float64
        # raises
        peak = tail_sum_maximizer([1e-300, 1e200, 1e200])
        assert peak == pytest.approx(6e200, rel=1e-15)
        with pytest.raises(InputError, match="out of float64 range"):
            tail_sum_maximizer([1e-300, 1e300])

    def test_nonnegative_elsewhere(self):
        rng = np.random.default_rng(35)
        for _ in range(100):
            m = int(rng.integers(2, 10))
            head = log_uniform(rng, 0.1, 10.0, m)
            peak = tail_sum_maximizer(head)
            for factor in (0.5, 0.9, 1.1, 2.0):
                assert induction_gap(head, peak * factor) >= -1e-10
