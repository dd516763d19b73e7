import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from mixedmeans import (
    InputError,
    WeightSequence,
    identity_residuals,
    mixed_mean,
    partial_mean_sequence,
    power_mean,
)
from sampling import random_samples, random_weights


class TestWeightSequence:
    def test_prefix_sum_overflow(self):
        for w in ([1, 1e308, 1e308], [1e308] * 3):
            with np.errstate(over="raise"):  # the check itself warns of nothing
                with pytest.raises(InputError, match="overflow"):
                    WeightSequence(w)

    def test_cached_logs(self):
        w = WeightSequence([0.5, 2.0, 3.0])
        assert w.log_w.tolist() == np.log([0.5, 2.0, 3.0]).tolist()
        assert w.log_W.tolist() == np.log([0.5, 2.5, 5.5]).tolist()
        with pytest.raises(ValueError):
            w.log_W[0] = 0.0


class TestPowerMean:
    def test_arithmetic(self):
        assert power_mean([0.5, 0.5], [1, 4], 1.0) == pytest.approx(2.5, abs=1e-15)

    def test_geometric(self):
        assert power_mean([0.5, 0.5], [1, 4], 0.0) == pytest.approx(2.0, abs=1e-15)

    def test_harmonic(self):
        # (0.5*(1 + 1/4))^-1
        assert power_mean([0.5, 0.5], [1, 4], -1.0) == pytest.approx(1.6, abs=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            power_mean([0.5, 0.5], [1, 2, 3], 1.0)

    def test_nonpositive_sample(self):
        with pytest.raises(InputError):
            power_mean([0.5, 0.5], [1, 0], 1.0)

    def test_unnormalized_weights(self):
        with pytest.raises(InputError):
            power_mean([0.5, 0.6], [1, 4], 1.0)

    def test_nonpositive_weight(self):
        with pytest.raises(InputError):
            power_mean([1.0, 0.0], [1, 4], 1.0)

    def test_monotone_in_exponent(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            q = rng.uniform(0.1, 1.0, n)
            q /= q.sum()
            x = random_samples(rng, n, 0.01, 100.0)
            vals = [power_mean(q, x, r) for r in (-2.0, -1.0, 0.0, 0.5, 1.0, 2.0)]
            assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_bounds(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            q = rng.uniform(0.1, 1.0, n)
            q /= q.sum()
            x = random_samples(rng, n)
            r = rng.uniform(-3, 3)
            m = power_mean(q, x, r)
            assert x.min() * (1 - 1e-12) <= m <= x.max() * (1 + 1e-12)

    @settings(max_examples=100, deadline=None)
    @given(
        c=st.floats(min_value=1e-3, max_value=1e3),
        r=st.sampled_from([-2.0, -1.0, 0.0, 0.5, 1.0, 2.0]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_scale_equivariance(self, c, r, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 7))
        q = rng.uniform(0.1, 1.0, n)
        q /= q.sum()
        x = random_samples(rng, n, 0.1, 10.0)
        assert power_mean(q, c * x, r) == pytest.approx(
            c * power_mean(q, x, r), rel=1e-13
        )

    @pytest.mark.parametrize("r", [1e-6, -1e-6, 1e-9, -1e-9, 1e-12, -1e-12])
    def test_small_exponent_matches_oracle(self, r):
        # dyadic weights, so that they sum to 1 exactly: at r = 1e-12 the
        # oracle's (sum q)^(1/r) would magnify a rounded sum
        rng = np.random.default_rng(14)
        for _ in range(20):
            n = int(rng.integers(1, 8))
            k = rng.integers(1, 2**17, n)
            k[-1] = 2**20 - k[:-1].sum()
            q, x = k / 2**20, random_samples(rng, n)
            with np.errstate(all="raise"):
                got = power_mean(q, x, r)
            assert got == pytest.approx(float(oracle.power_mean(q, x, r)), rel=1e-14)

    @pytest.mark.parametrize("r", [1e-3, -1e-3, 1e-2, -1e-2])
    def test_log_sum_exp_exponent_matches_oracle(self, r):
        # From |r| = 1e-3 on, the mean is log-sum-exp / r, whose rounding
        # grows like 1/|r|.  Dyadic weights, as above.
        rng = np.random.default_rng(18)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            k = rng.integers(1, 2**17, n)
            k[-1] = 2**20 - k[:-1].sum()
            q, x = k / 2**20, random_samples(rng, n)
            got = power_mean(q, x, r)
            assert got == pytest.approx(float(oracle.power_mean(q, x, r)), rel=1e-12)

    @pytest.mark.parametrize("r", [5e-324, -5e-324, 1e-310])
    def test_subnormal_exponent_is_geometric(self, r):
        # below the least normal float r log x keeps only a few bits: the
        # mean is the geometric mean, bit for bit
        rng = np.random.default_rng(19)
        for _ in range(20):
            n = int(rng.integers(1, 9))
            q = rng.uniform(0.1, 1.0, n)
            q /= q.sum()
            x = random_samples(rng, n)
            assert power_mean(q, x, r) == power_mean(q, x, 0.0)

    def test_continuity_at_zero(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            q = rng.uniform(0.1, 1.0, n)
            q /= q.sum()
            x = random_samples(rng, n, 0.1, 10.0)
            g = power_mean(q, x, 0.0)
            near = power_mean(q, x, 1e-6)
            assert abs(near - g) / g < 1e-5


class TestPartialMeanSequence:
    def test_running_averages(self):
        w = WeightSequence([1, 1, 1])
        np.testing.assert_allclose(
            partial_mean_sequence(w, [1, 2, 3], 1.0), [1.0, 1.5, 2.0], rtol=1e-15
        )

    def test_running_geometric(self):
        w = WeightSequence([1, 1, 1])
        np.testing.assert_allclose(
            partial_mean_sequence(w, [1, 2, 3], 0.0),
            [1.0, math.sqrt(2.0), 6.0 ** (1.0 / 3.0)],
            rtol=1e-14,
        )

    def test_constant_data(self):
        w = WeightSequence([2, 1])
        for r in (-1.0, 0.0, 1.0, 2.5):
            np.testing.assert_allclose(
                partial_mean_sequence(w, [5, 5], r), [5.0, 5.0], rtol=1e-14
            )

    def test_first_entry_exact(self):
        w = WeightSequence([3, 2, 5])
        assert partial_mean_sequence(w, [0.7, 2, 9], 0.37)[0] == 0.7

    def test_matches_oracle(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            w = random_weights(rng, n)
            x = random_samples(rng, n)
            r = float(rng.choice([-1.5, 0.0, 0.5, 2.0]))
            got = partial_mean_sequence(w, x, r)
            want = [float(v) for v in oracle.partial_means(w.w, x, r)]
            np.testing.assert_allclose(got, want, rtol=1e-12)


class TestMixedMean:
    def test_geometric_of_arithmetic(self):
        w = WeightSequence([1, 1, 1])
        # frozen from the 50-digit oracle: (1 * 1.5 * 2)^(1/3)
        assert mixed_mean(w, [1, 2, 3], outer=0.0, inner=1.0) == pytest.approx(
            1.4422495703074083, abs=1e-14
        )

    def test_arithmetic_of_geometric(self):
        w = WeightSequence([1, 1, 1])
        # frozen from the 50-digit oracle: (1 + sqrt(2) + 6^(1/3)) / 3
        assert mixed_mean(w, [1, 2, 3], outer=1.0, inner=0.0) == pytest.approx(
            1.4104447184017448, abs=1e-14
        )

    def test_constant_data(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            n = int(rng.integers(1, 9))
            w = random_weights(rng, n)
            c = float(random_samples(rng, 1, 0.1, 10.0)[0])
            outer, inner = rng.uniform(-2, 2, 2)
            got = mixed_mean(w, np.full(n, c), float(outer), float(inner))
            assert got == pytest.approx(c, rel=1e-13)


class TestSmallExponents:
    @pytest.mark.parametrize("r", [1e-12, -1e-12, 1e-300])
    def test_running_and_mixed_means_match_oracle(self, monkeypatch, r):
        # v**r = 1 + r log v + ...: the oracle keeps a mean only past the
        # digits that r takes, so it works at 50 + ceil(-log10 |r|) digits.
        monkeypatch.setattr(oracle, "DPS", 50 + math.ceil(-math.log10(abs(r))))
        rng = np.random.default_rng(17)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            w, x = random_weights(rng, n), random_samples(rng, n)
            want = [float(v) for v in oracle.partial_means(w.w, x, r)]
            np.testing.assert_allclose(partial_mean_sequence(w, x, r), want, rtol=1e-12)
            for outer, inner in ((r, 1.0), (1.0, r), (r, r), (0.0, r)):
                want = float(oracle.mixed_mean(w.w, x, outer, inner))
                assert mixed_mean(w, x, outer, inner) == pytest.approx(want, rel=1e-12)


class TestIdentityResiduals:
    def test_uniform_example(self):
        w = WeightSequence([1, 1, 1])
        r1, r2 = identity_residuals(w, [1, 2, 3])
        assert r1 < 1e-12 and r2 < 1e-12

    def test_skewed_example(self):
        w = WeightSequence([3, 2, 5, 1])
        r1, r2 = identity_residuals(w, [0.1, 7, 2, 9])
        assert r1 < 1e-12 and r2 < 1e-12

    def test_constant_data(self):
        w = WeightSequence([2, 3, 1])
        r1, r2 = identity_residuals(w, [4, 4, 4])
        assert r1 < 1e-14 and r2 < 1e-14

    def test_requires_two_points(self):
        with pytest.raises(InputError):
            identity_residuals(WeightSequence([1]), [1])

    def test_random_instances(self):
        rng = np.random.default_rng(16)
        for _ in range(300):
            n = int(rng.integers(2, 13))
            w = random_weights(rng, n, 1e-3, 1e3)
            x = random_samples(rng, n)
            r1, r2 = identity_residuals(w, x)
            assert r1 < 1e-12 and r2 < 1e-12
