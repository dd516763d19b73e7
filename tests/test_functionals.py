import math

import numpy as np
import pytest

import oracle
from mixedmeans import (
    InputError,
    WeightSequence,
    popoviciu_increment,
    product_form_lhs,
    rado_increment,
    rado_value,
    violation_tolerance,
)
from mixedmeans.functionals import (
    _confirmed_violation,
    _orientation,
    _rado_increment_precise,
    _rado_increments,
    _top_increment,
    _top_lines,
    _violates,
)
from sampling import nanjundiah_weights, random_samples, random_weights


class TestRadoValue:
    def test_single_point_is_zero(self):
        w = WeightSequence([2, 3])
        assert rado_value(w, [1.5, 7.0], 0.0, 1) == 0.0

    def test_uniform_example(self):
        w = WeightSequence([1, 1, 1])
        # frozen from the 50-digit oracle
        assert rado_value(w, [1, 2, 3], 0.0, 3) == pytest.approx(
            0.09541455571699048, abs=1e-13
        )
        assert rado_value(w, [1, 2, 3], 0.0, 2) == pytest.approx(
            0.03527618041008295, abs=1e-13
        )

    def test_constant_data(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            w = random_weights(rng, n)
            c = float(random_samples(rng, 1, 0.1, 10.0)[0])
            s = float(rng.uniform(-2, 2))
            k = int(rng.integers(1, n + 1))
            assert abs(rado_value(w, np.full(n, c), s, k)) < 1e-11

    def test_level_out_of_range(self):
        w = WeightSequence([1, 1])
        with pytest.raises(InputError):
            rado_value(w, [1, 2], 0.0, 3)

    def test_s_equal_one_is_exactly_zero(self):
        w = WeightSequence([2, 1, 4])
        assert rado_value(w, [3, 1, 7], 1.0, 3) == 0.0


class TestRadoIncrement:
    def test_uniform_example(self):
        w = WeightSequence([1, 1, 1])
        # frozen from the 50-digit oracle
        assert rado_increment(w, [1, 2, 3], 0.0, 3) == pytest.approx(
            0.06013837530690753, abs=1e-13
        )

    def test_constant_data(self):
        w = WeightSequence([3, 1, 2])
        assert abs(rado_increment(w, [2, 2, 2], 0.0, 3)) < 1e-13

    def test_skewed_tail_observation(self):
        # Holland fails here (4 < 5) but this data does not violate
        w = WeightSequence([1, 1, 5])
        assert rado_increment(w, [1, 1, 1e3], 0.0, 3) > 0.0

    def test_matches_oracle(self):
        rng = np.random.default_rng(21)
        for trial in range(32):
            # 25 short sequences, then n = 20, 40, 60 for the accumulated
            # pass, then n = 60 and 200 at s = -3 and 4
            n = int(rng.integers(2, 9)) if trial < 25 else 20 * (trial - 24)
            n = (60, 200)[trial % 2] if trial >= 28 else n
            w = random_weights(rng, n)
            x = random_samples(rng, n)
            s = float(rng.choice([-1.0, 0.0, 0.5, 2.0]))
            s = (-3.0, 4.0)[trial // 30] if trial >= 28 else s
            k = int(rng.integers(2, n + 1))
            got = rado_increment(w, x, s, k)
            want = float(oracle.rado_increment(w.w, x, s, k))
            assert got == pytest.approx(want, abs=violation_tolerance(w, x))


    @pytest.mark.parametrize("s", [1e-60, -1e-60, 1e-300])
    def test_precise_increment_at_tiny_s(self, s):
        # v**s = 1 + s log v + ...: at 50 digits the level-2 increment read
        # 0.0 at s = 1e-60; the s = 0 value is 6.788862803829715e-05
        w, x = WeightSequence([1, 1, 1]), [1.154, 1.119, 201.511]
        want = _rado_increment_precise(w, x, 0.0, 2)
        assert _rado_increment_precise(w, x, s, 2) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("s", [2.0**-1074, 2.0**-1000])
    def test_precise_increment_at_power_of_two_s(self, s):
        # 1/s is an integer here, and the powers are still exp of s log v:
        # every level is the s = 0 level, from which it differs by less than
        # 1e-300 relative (n = 2, 5 and 11)
        rng = np.random.default_rng(31)
        for n in (2, 5, 11):
            w, x = random_weights(rng, n), random_samples(rng, n)
            for k in range(2, n + 1):
                assert _rado_increment_precise(w, x, s, k) == _rado_increment_precise(w, x, 0.0, k)

    @pytest.mark.parametrize("s", [1e-300, -1e-300, 1e-12, -1e-12, 1e-9, 1e-6, 9.99e-4])
    def test_every_level_at_small_s_matches_precise(self, s):
        # 0 < |s| < _SMALL_R, where the running s-means are log1p of a mean of
        # expm1, whose rounding does not grow like 1/|s|.  60 tables, n =
        # 2..11, weights log-uniform in [0.1, 10], data in [1e-3, 1e3].
        rng = np.random.default_rng(28)
        for j in range(60):
            n = 2 + j % 10
            w, x = random_weights(rng, n), random_samples(rng, n)
            got = _rado_increments(w, np.log(x), s).tolist()
            want = [_rado_increment_precise(w, x, s, k) for k in range(2, n + 1)]
            bound = 1e-13 * w.total * x.max()
            assert all(abs(a - b) <= bound for a, b in zip(got, want))

    @pytest.mark.parametrize("s", [5e-324, -5e-324, 1e-310])
    def test_subnormal_s_reads_as_zero(self, s):
        # r z keeps only a few bits below the least normal float: the levels
        # are the s = 0 levels bit for bit on 60 tables (n = 2..11), and on
        # the first five within 2e-15 W_n max x of 50 digits at s (which
        # works at 374 digits at s = 2**-1074).
        rng = np.random.default_rng(0)
        for j in range(60):
            n = 2 + j % 10
            w, x = random_weights(rng, n), random_samples(rng, n)
            got = _rado_increments(w, np.log(x), s)
            assert np.array_equal(got, _rado_increments(w, np.log(x), 0.0))
            if j < 5:
                want = [_rado_increment_precise(w, x, s, k) for k in range(2, n + 1)]
                error = max(abs(a - b) for a, b in zip(got.tolist(), want))
                assert error <= 2e-15 * w.total * x.max()

    def test_float_violation_cleared_at_50_digits(self):
        # A made-up float row whose level 2 breaks the rule, where the 50-digit
        # value, +6.79e-5, clears it; and a row that flags the true violation
        # of [0.001, 1, 1000] under weights 1, 1, 6, which is confirmed.
        w, x = WeightSequence([1, 1, 1]), [1.154, 1.119, 201.511]
        row = np.array([-8.5e-5, 4.724])
        assert _violates(w, x, 1e-12, row).tolist() == [True, False]
        assert not _confirmed_violation(w, x, 1e-12, row, 2)
        w, x = WeightSequence([1, 1, 6]), [0.001, 1.0, 1000.0]
        row = _rado_increments(w, np.log(x), 0.0)
        assert _violates(w, x, 0.0, row).tolist() == [False, True]
        assert _confirmed_violation(w, x, 0.0, row, 2)


class TestTopIncrement:
    """The search objective: the level-n increment in the direct form, on
    log-data."""

    LEVELS = (*range(2, 9), 20, 40, 60)
    EXPONENTS = (-1.0, 0.0, 0.5, 2.0)

    @staticmethod
    def _log_data(rng, n, clamped):
        """Log-uniform data inside [1e-3, 1e3], or on the search's clamps
        +-ln 1e6 with every third entry anywhere between them."""
        if not clamped:
            return np.log(random_samples(rng, n))
        z = rng.choice([-1.0, 1.0], n) * math.log(1e6)
        z[::3] = rng.uniform(-math.log(1e6), math.log(1e6), z[::3].size)
        return z

    def test_matches_oracle(self):
        rng = np.random.default_rng(23)
        for n in self.LEVELS:
            for s in self.EXPONENTS:
                for clamped in (False, True):
                    w = random_weights(rng, n)
                    z = self._log_data(rng, n, clamped)
                    x = np.exp(z)
                    got = float(_top_increment(w, z, s))
                    tol = violation_tolerance(w, x)
                    want = float(oracle.rado_increment(w.w, x, s, n))
                    assert got == pytest.approx(want, abs=tol)
                    assert got == pytest.approx(rado_increment(w, x, s, n), abs=tol)

    def test_batch_rows_match_single_points(self):
        rng = np.random.default_rng(24)
        for n in self.LEVELS:
            w = random_weights(rng, n)
            Z = np.stack([self._log_data(rng, n, j % 2 == 1) for j in range(12)])
            Z = Z.reshape(3, 4, n)
            for s in (*self.EXPONENTS, 1.0, 1e-9, -1e-12):
                batch = _top_increment(w, Z, s)
                assert batch.shape == (3, 4)
                for index in np.ndindex(3, 4):
                    assert batch[index] == _top_increment(w, Z[index], s)

    def test_is_the_public_level_n_increment(self):
        # the search objective is rado_increment at level n, bit for bit
        rng = np.random.default_rng(26)
        for _ in range(2000):
            n = int(rng.integers(2, 41))
            s = float(rng.choice([-2.0, -1.0, 0.0, 0.5, 1.0, 2.0, 3.0]))
            w = random_weights(rng, n)
            x = random_samples(rng, n)
            assert float(_top_increment(w, np.log(x), s)) == rado_increment(w, x, s, n)

    def test_s_equal_one_is_exactly_zero(self):
        w = WeightSequence([2, 1, 4])
        z = np.log([[3.0, 1.0, 7.0], [1e-6, 1e6, 2.0]])
        assert _top_increment(w, z, 1.0).tolist() == [0.0, 0.0]

    def test_needs_two_points(self):
        with pytest.raises(InputError, match="level 1 out of range 2..1"):
            _top_increment(WeightSequence([2]), np.zeros((4, 1)), 0.0)
        # the search builds its lines first and leaves the error to the batch
        for s in (0.0, 0.5, 1.0):
            _top_lines(WeightSequence([2]), s)

    def test_no_scalar_lines_at_small_s(self):
        # _top_lines copies only the s = 0 objective: at every other s, the
        # tiniest included, the search walks in array rounds
        w = WeightSequence([1, 2, 3])
        for s in (5e-324, 1e-9, 1e-3, 0.5, 1.0, 2.0, -1.0):
            assert _top_lines(w, s) is None
        z = [1.0, 2.0, 3.0]
        for s in (0.0, -0.0):
            assert _top_lines(w, s)(z, 1)(2.0) == -_top_increment(w, np.array(z), s)

    @staticmethod
    def _check_line(line, w, z, i, cs, s):
        """The scalar line of row ``z`` on entry ``i`` at the positions ``cs``
        has the bits of the oriented batch rows, evaluated in any order."""
        Z = np.repeat(z[None], cs.size, axis=0)
        Z[:, i] = cs
        with np.errstate(all="ignore"):
            want = -_orientation(s) * _top_increment(w, Z, s)
            at = line(z.tolist(), i)
            got = np.array([at(c) for c in cs.tolist()])
            # the same line again, up and down: nothing it keeps changes
            up = np.argsort(cs)
            for k in (up, up[::-1]):
                again = np.array([at(c) for c in cs[k].tolist()])
                assert np.array_equal(again, want[k], equal_nan=True)
        assert np.array_equal(got, want, equal_nan=True)
        zero = want == 0.0
        assert (np.signbit(got[zero]) == np.signbit(want[zero])).all()

    @pytest.mark.parametrize("s", [0.0, -0.0])
    def test_scalar_lines_bit_identical(self, s):
        # Every point of a scalar line has the bits of the negated batch row.
        rng = np.random.default_rng(25)
        clamp = math.log(1e6)
        weights = [random_weights(rng, n) for n in range(2, 21)]
        weights.append(WeightSequence([1, 1e-300, 1e300]))
        for w in weights:
            line = _top_lines(w, s)
            for clamped in (False, True):
                z = self._log_data(rng, w.n, clamped)
                for i in range(w.n):
                    cs = np.append(rng.uniform(-clamp, clamp, 4), [-clamp, clamp])
                    self._check_line(line, w, z, i, cs, s)
        # Ties, at z = 0 and c = 0: the running log-sum of w_j x_j equals the
        # next log-term, logaddexp's x == y branch (x + log 2), at the second
        # entry for uniform weights and at every entry for 1, 1, 2, 4, ...
        for n in range(2, 7):
            doubling = [1.0] + [2.0**j for j in range(n - 1)]
            for w in (WeightSequence([1.0] * n), WeightSequence(doubling)):
                sums = np.logaddexp.accumulate(w.log_w)
                assert sums[0] == w.log_w[1]
                if w.w[-1] > 1.0:
                    assert (sums[:-1] == w.log_w[1:]).all()
                line = _top_lines(w, s)
                for i in range(n):
                    self._check_line(line, w, np.zeros(n), i, np.array([0.0, -clamp, clamp]), s)


class TestPopoviciuIncrement:
    def test_constant_data(self):
        w = WeightSequence([1, 2, 3])
        assert abs(popoviciu_increment(w, [5, 5, 5], 3)) < 1e-13

    def test_pair_equality_case(self):
        w = WeightSequence([2, 7])
        assert abs(popoviciu_increment(w, [3, 3], 2)) < 1e-14

    def test_uniform_example(self):
        w = WeightSequence([1, 1, 1])
        # frozen from the 50-digit oracle
        got = popoviciu_increment(w, [1, 2, 3], 3)
        assert got == pytest.approx(0.037884820130820694, abs=1e-13)
        assert got > 0.0

    def test_matches_oracle(self):
        rng = np.random.default_rng(22)
        for trial in range(25):
            # 20 short sequences, then n = 20, 40, 60 for the accumulated
            # pass, then n = 60 and 200
            n = int(rng.integers(2, 9)) if trial < 20 else 20 * (trial - 19)
            n = (60, 200)[trial - 23] if trial >= 23 else n
            w = random_weights(rng, n)
            x = random_samples(rng, n, 0.1, 10.0)
            k = int(rng.integers(2, n + 1))
            got = popoviciu_increment(w, x, k)
            want = float(oracle.popoviciu_increment(w.w, x, k))
            assert got == pytest.approx(want, abs=1e-10 * w.total)


class TestProductFormLhs:
    def test_constant_data_is_one(self):
        w = WeightSequence([2, 5, 1])
        assert product_form_lhs(w, [3, 3, 3]) == pytest.approx(1.0, abs=1e-14)

    def test_uniform_example(self):
        w = WeightSequence([1, 1, 1])
        # frozen from the 50-digit oracle
        got = product_form_lhs(w, [1, 2, 3])
        assert got == pytest.approx(0.9861007931532754, abs=1e-13)
        assert got < 1.0

    def test_pair_example(self):
        w = WeightSequence([1, 1])
        # frozen from the 50-digit oracle
        got = product_form_lhs(w, [1, 4])
        assert got == pytest.approx(0.9486832980505138, abs=1e-13)
        assert got < 1.0
        assert rado_increment(w, [1, 4], 0.0, 2) > 0.0

    def test_needs_two_points(self):
        with pytest.raises(InputError):
            product_form_lhs(WeightSequence([1]), [2])

    def test_scale_invariance(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            n = int(rng.integers(2, 10))
            w = random_weights(rng, n)
            x = random_samples(rng, n, 0.1, 10.0)
            c = float(random_samples(rng, 1, 1e-3, 1e3)[0])
            assert product_form_lhs(w, c * x) == pytest.approx(
                product_form_lhs(w, x), rel=1e-12
            )

    def test_sign_equivalence_with_increment(self):
        rng = np.random.default_rng(24)
        for _ in range(200):
            n = int(rng.integers(2, 10))
            w = random_weights(rng, n)
            x = random_samples(rng, n)
            gap = 1.0 - product_form_lhs(w, x)
            inc = rado_increment(w, x, 0.0, n)
            if abs(gap) > 1e-10 and abs(inc) > violation_tolerance(w, x):
                assert (gap > 0) == (inc > 0)


class TestMonotonicityProperties:
    def test_nanjundiah_weights_nonnegative_below_one(self):
        rng = np.random.default_rng(25)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            w = nanjundiah_weights(rng, n)
            x = random_samples(rng, n)
            tol = violation_tolerance(w, x)
            for s in (-1.0, 0.0, 0.5):
                assert rado_increment(w, x, s, n) >= -tol

    def test_nanjundiah_weights_reversed_above_one(self):
        rng = np.random.default_rng(26)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            w = nanjundiah_weights(rng, n)
            x = random_samples(rng, n)
            assert rado_increment(w, x, 2.0, n) <= violation_tolerance(w, x)

    def test_nanjundiah_weights_popoviciu(self):
        rng = np.random.default_rng(27)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            w = nanjundiah_weights(rng, n)
            x = random_samples(rng, n, 0.1, 10.0)
            assert popoviciu_increment(w, x, n) >= -1e-10
