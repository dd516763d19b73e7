import math

import mpmath
import numpy as np
import pytest

import dense_lattice
import oracle
from mixedmeans import (
    InputError,
    WeightSequence,
    YPoint,
    boundary_bound,
    box_upper,
    certify,
    eliminate_last,
    find_stationary_d,
    gao_conditions,
    interior_bound,
    objective_F,
    objective_g,
    product_form_lhs,
    stationary_analysis,
    x_to_y,
    y_to_x,
)
from mixedmeans.conditions import NotApplicableError, ReducedProblem
from sampling import log_uniform, random_samples, random_weights, with_last


class TestCoordinateChange:
    def test_constant_data_maps_to_ones(self):
        w = WeightSequence([2, 1, 3])
        yp = x_to_y(w, [5, 5, 5])
        np.testing.assert_allclose(yp.y, [1.0, 1.0], rtol=1e-15)

    def test_uniform_example(self):
        w = WeightSequence([1, 1, 1])
        yp = x_to_y(w, [1, 2, 3])
        np.testing.assert_allclose(yp.y, [2.0 / 3.0, 0.75], rtol=1e-15)

    def test_strictly_interior(self):
        rng = np.random.default_rng(40)
        for _ in range(50):
            n = int(rng.integers(2, 10))
            w = random_weights(rng, n)
            yp = x_to_y(w, random_samples(rng, n))
            upper = box_upper(w)
            assert np.all(yp.y > 0) and np.all(yp.y < upper)

    def test_round_trip_from_data(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            n = int(rng.integers(2, 13))
            w = random_weights(rng, n, 1e-3, 1e3)
            x = random_samples(rng, n)
            scale = float(np.sum(w.w * x) / w.total)
            back = y_to_x(w, x_to_y(w, x), scale)
            np.testing.assert_allclose(back, x, rtol=1e-12)

    def test_round_trip_from_coordinates(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(2, 13))
            w = random_weights(rng, n)
            y = box_upper(w) * rng.uniform(0.05, 0.95, n - 1)
            x = y_to_x(w, y, scale=2.0)
            np.testing.assert_allclose(x_to_y(w, x).y, y, rtol=1e-12)

    def test_ones_invert_to_constant(self):
        w = WeightSequence([1, 2, 4])
        np.testing.assert_allclose(
            y_to_x(w, np.ones(2), scale=7.0), [7.0, 7.0, 7.0], rtol=1e-13
        )

    def test_round_trip_from_the_top_face(self):
        # y_i rounds onto W_{i+1}/W_i; its compensation term keeps it inside
        for ws, x in (
            ([1, 1], [1, 1e-20]),
            ([1, 2, 3], [1, 2, 1e-18]),
            ([1, 1, 1], [5, 1e-17, 3]),
        ):
            w = WeightSequence(ws)
            yp = x_to_y(w, x)
            assert np.any(yp.y == box_upper(w))
            scale = float(np.sum(w.w * np.array(x)) / w.total)
            np.testing.assert_allclose(y_to_x(w, yp, scale), x, rtol=1e-12)

    def test_boundary_rejected(self):
        w = WeightSequence([1, 1, 1])
        upper = box_upper(w)
        with pytest.raises(InputError):
            y_to_x(w, [upper[0], 0.5], scale=1.0)
        with pytest.raises(InputError):
            y_to_x(w, [0.0, 0.5], scale=1.0)

    def test_data_past_float64_rejected(self):
        # interior points whose x_2 is positive at the transform's precision
        # but underflows to 0.0 (1e-325) or overflows to inf (5e309) as a float
        for ws, y, scale in (
            ([1, 1], YPoint([2.0], [-1e-20]), 1e-305),
            ([1, 1e-300], [0.5], 1e10),
        ):
            with pytest.raises(InputError, match="strictly interior"):
                y_to_x(WeightSequence(ws), y, scale)


class TestObjectiveF:
    def test_ones_give_one(self):
        for ws in ([1, 1], [1, 1, 1], [2, 0.5, 3, 1]):
            w = WeightSequence(ws)
            assert objective_F(w, np.ones(w.n - 1)) == pytest.approx(1.0, abs=1e-15)

    def test_zero_face(self):
        # first product vanishes; only (w_n/W_n) * second product remains
        w = WeightSequence([1, 1, 4.05])
        got = objective_F(w, [0.0, 1.0])
        second = ((2.0 - 0.0) / 1.0) ** (1.0 / 6.05)
        assert got == pytest.approx((4.05 / 6.05) * second, rel=1e-13)

    def test_composition_with_product_form(self):
        rng = np.random.default_rng(43)
        for _ in range(300):
            n = int(rng.integers(2, 10))
            w = random_weights(rng, n)
            x = random_samples(rng, n)
            assert objective_F(w, x_to_y(w, x)) == pytest.approx(
                product_form_lhs(w, x), rel=1e-10
            )

    def test_outside_box_rejected(self):
        w = WeightSequence([1, 1, 1])
        with pytest.raises(InputError):
            objective_F(w, [-0.1, 1.0])
        with pytest.raises(InputError):
            objective_F(w, [1.0, 3.0])

    def test_matches_oracle(self):
        rng = np.random.default_rng(44)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            w = random_weights(rng, n)
            y = box_upper(w) * rng.uniform(0.01, 0.99, n - 1)
            assert objective_F(w, y) == pytest.approx(
                float(oracle.objective_F(w.w, y)), rel=1e-12
            )


    def test_batches_match_single_points(self):
        # rows of a (2, 40, d) batch, faces and corners included, equal the
        # per-point values exactly, for F and for g
        rng = np.random.default_rng(48)
        for n in range(2, 9):
            w = random_weights(rng, n)
            upper = box_upper(w)
            Y = upper * rng.uniform(0.0, 1.0, (2, 40, n - 1))
            Y[:, ::3, 0] = 0.0
            Y[:, ::4, -1] = upper[-1]
            Y[0, 5], Y[1, 7] = upper, 0.0
            F = objective_F(w, Y)
            assert F.shape == (2, 40)
            for idx in np.ndindex(F.shape):
                assert F[idx] == objective_F(w, Y[idx])
            if n >= 3:
                g = objective_g(w, Y[..., :-1])
                for idx in np.ndindex(g.shape):
                    assert g[idx] == objective_g(w, Y[idx][:-1])

    def test_log_products_sum_in_axis_order(self):
        # the running sum of the log-terms, axis 0 first, bit for bit, also
        # past seven axes where numpy's pairwise sum changes the order
        rng = np.random.default_rng(49)
        for d in (1, 7, 8, 9, 40):
            rp = ReducedProblem(random_weights(rng, d + 1))
            Y = rp.upper * rng.uniform(0.0, 1.0, (3, 50, d))
            Y[0, 0] = 0.0
            terms = [rp.log_terms(Y[..., i], i) for i in range(d)]
            for k, got in enumerate(rp.log_products(Y)):
                want = sum(t[k] for t in terms)
                assert got.tolist() == want.tolist()
            for k, got in enumerate(rp.log_products(Y[1, 7])):
                assert got.shape == ()
                assert float(got) == sum(float(t[k][1, 7]) for t in terms)

    def test_zero_base_with_an_underflowed_exponent_gives_minus_inf(self):
        # beta_1 = w_2/W_3 underflows to 0 (the table is not representable),
        # and the second base of axis 1 vanishes at its top, y_1 = 1: its
        # log-term is -inf, not 0 * -inf = NaN, and so is the product's: F
        # at (1, 1) is p_1 G_1 = p_1
        w = WeightSequence([1, 1e-300, 1e300])
        rp = ReducedProblem(w)
        assert rp.beta[0] == 0.0 and rp.upper[0] == 1.0 and not rp.representable
        assert rp.log_terms(np.array([0.5, 1.0]), 0)[1].tolist() == [0.0, -math.inf]
        assert rp.log_products(np.array([1.0, 1.0]))[1] == -math.inf
        assert objective_F(w, [1.0, 1.0]) == rp.p[0]


class TestObjectiveG:
    def test_ones_give_one(self):
        for ws in ([1, 1, 1], [1, 1, 4.05], [2, 0.5, 3, 1]):
            w = WeightSequence(ws)
            assert objective_g(w, np.ones(w.n - 2)) == pytest.approx(1.0, abs=1e-15)

    def test_half_example(self):
        w = WeightSequence([1, 1, 4.05])
        # frozen from the 50-digit oracle
        assert objective_g(w, [0.5]) == pytest.approx(0.9837338539832393, rel=1e-13)

    def test_needs_three_entries(self):
        with pytest.raises(InputError):
            objective_g(WeightSequence([1, 1]), [])


class TestEliminateLast:
    def test_unit_head_collapses(self):
        for ws in ([1, 1, 4.05], [2, 1, 3, 0.5]):
            w = WeightSequence(ws)
            el = eliminate_last(w, np.ones(w.n - 2))
            assert el.y_star == pytest.approx(1.0, abs=1e-14)
            assert el.max_value == pytest.approx(1.0, abs=1e-14)
            assert not el.degenerate

    def test_envelope_dominates_slices(self):
        rng = np.random.default_rng(45)
        for _ in range(30):
            n = int(rng.integers(3, 7))
            w = random_weights(rng, n)
            y_head = box_upper(w)[: n - 2] * rng.uniform(0.05, 0.95, n - 2)
            el = eliminate_last(w, y_head)
            last_hi = float(w.W[-1] / w.W[-2])
            for t in rng.uniform(0.0, last_hi, 100):
                val = objective_F(w, np.append(y_head, t))
                assert val <= el.max_value + 1e-10
            at_star = objective_F(w, np.append(y_head, el.y_star))
            assert at_star == pytest.approx(el.max_value, abs=1e-8)

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(46)
        for _ in range(20):
            n = int(rng.integers(3, 5))
            w = random_weights(rng, n)
            y_head = box_upper(w)[: n - 2] * rng.uniform(0.05, 0.95, n - 2)
            el = eliminate_last(w, y_head)
            last_hi = float(w.W[-1] / w.W[-2])
            ts = np.linspace(0.0, last_hi, 200_001)
            vals = objective_F(w, with_last(y_head, ts[::2000]))
            # coarse sweep then a fine local pass around the best slice
            t0 = ts[::2000][int(np.argmax(vals))]
            fine = np.linspace(max(0.0, t0 - last_hi / 100), min(last_hi, t0 + last_hi / 100), 20_001)
            best = objective_F(w, with_last(y_head, fine)).max()
            assert best == pytest.approx(el.max_value, abs=1e-8)

    def test_degenerate_head(self):
        w = WeightSequence([1, 1, 4.05])
        el = eliminate_last(w, [0.0])
        assert el.degenerate
        assert el.y_star == 0.0
        # supremum of the remaining decreasing slice sits at the origin
        assert el.max_value == pytest.approx(
            objective_F(w, [0.0, 0.0]), rel=1e-12
        )
        el_top = eliminate_last(w, [2.0])
        assert el_top.degenerate
        assert el_top.y_star == pytest.approx(6.05 / 2.0, rel=1e-15)

    def test_batch_rejected(self):
        with pytest.raises(InputError, match="batch"):
            eliminate_last(WeightSequence([1, 1, 1, 4]), np.ones((3, 2)))

    def test_max_is_g_power(self):
        # one envelope formula: max over the last coordinate is g^(W_{n-1}/W_n)
        rng = np.random.default_rng(53)
        ref = WeightSequence([1, 1, 4.05])
        cases = [(ref, [0.0]), (ref, [2.0])]  # both degenerate heads
        for _ in range(30):
            n = int(rng.integers(3, 7))
            w = random_weights(rng, n)
            cases.append((w, box_upper(w)[: n - 2] * rng.uniform(0.05, 0.95, n - 2)))
        for w, y_head in cases:
            power = float(w.W[-2] / w.W[-1])
            assert eliminate_last(w, y_head).max_value == pytest.approx(
                objective_g(w, y_head) ** power, rel=1e-13
            )
        for ws in ([1, 1, 4.05], [1, 1, 6], [2, 1, 3, 5], [1, 2, 3, 4, 20]):
            w = WeightSequence(ws)
            res = dense_lattice.grid_max_envelope(w, 41)
            assert res.best_value == pytest.approx(
                eliminate_last(w, res.best_point).max_value, rel=1e-14
            )


class TestStationaryAnalysis:
    def test_d_one_is_exact(self):
        rng = np.random.default_rng(47)
        for _ in range(50):
            n = int(rng.integers(3, 11))
            w = random_weights(rng, n, 1e-3, 1e3)
            sp = stationary_analysis(w, 1.0)
            np.testing.assert_array_equal(sp.a, np.ones(n - 2))
            assert sp.residual == 0.0
            assert sp.g_value == pytest.approx(1.0, abs=1e-14)

    def test_d_two_example(self):
        w = WeightSequence([1, 1, 4.05])
        sp = stationary_analysis(w, 2.0)
        assert sp.a[0] == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert sp.g_value == pytest.approx(
            float(oracle.objective_g([1, 1, 4.05], [2.0 / 3.0])), rel=1e-13
        )
        assert sp.residual != 0.0

    def test_large_d_approaches_boundary(self):
        w = WeightSequence([1, 1, 4.05])
        sp = stationary_analysis(w, 1e8)
        assert sp.a[0] < 1e-7
        assert sp.g_value == pytest.approx(objective_g(w, [0.0]), rel=1e-6)

    def test_invalid_d(self):
        w = WeightSequence([1, 1, 1])
        with pytest.raises(InputError):
            stationary_analysis(w, 0.0)

    def test_residual_matches_oracle(self):
        rng = np.random.default_rng(46)
        for _ in range(100):
            n = int(rng.integers(3, 9))
            w = random_weights(rng, n)
            d = float(log_uniform(rng, 1e-8, 1e8, 1)[0])
            want = float(oracle.stationary_residual(w.w.tolist(), d))
            got = stationary_analysis(w, d).residual
            assert got == pytest.approx(want, rel=1e-12, abs=1e-14), (w.w, d)

    def test_slope_matches_oracle(self):
        # h'(d) against a 50-digit central difference of h(d) - h(1)
        rng = np.random.default_rng(50)
        for j in range(100):
            w = random_weights(rng, 3 + j % 6)
            d = float(log_uniform(rng, 1e-8, 1e8, 1)[0])
            with mpmath.workdps(oracle.DPS):
                h = mpmath.mpf(d) * mpmath.mpf(10) ** -20
                want = float(
                    (oracle.stationary_residual(w.w.tolist(), d + h)
                     - oracle.stationary_residual(w.w.tolist(), d - h)) / (2 * h)
                )
            got = stationary_analysis(w, d).h_prime
            assert got == pytest.approx(want, rel=1e-12), (w.w, d)

    def test_profile_decreasing_when_no_excess(self):
        rng = np.random.default_rng(48)
        ds = np.array([0.1, 0.3, 1.0, 3.0, 10.0])
        found = 0
        for _ in range(300):
            n = int(rng.integers(3, 10))
            w = random_weights(rng, n)
            if gao_conditions(w).margins[0] <= 0:
                found += 1
                for d in ds:
                    assert stationary_analysis(w, float(d)).h_prime < 0.0
        assert found > 50

    def test_profile_decreasing_below_threshold(self):
        from mixedmeans import d_zero

        rng = np.random.default_rng(49)
        found = 0
        for _ in range(300):
            n = int(rng.integers(3, 10))
            w = random_weights(rng, n)
            if gao_conditions(w).margins[0] > 0:
                found += 1
                d0 = d_zero(w)
                for d in np.linspace(0.05, 0.999, 8) * min(d0, 50.0):
                    assert stationary_analysis(w, float(d)).h_prime < 0.0
        assert found > 50


class TestBounds:
    def test_boundary_bound_values(self):
        # frozen from direct evaluation of the two corner products
        assert boundary_bound(WeightSequence([1, 1, 4.05])) == pytest.approx(
            0.9467049467125678, rel=1e-13
        )
        assert boundary_bound(WeightSequence([1, 1, 4.5])) == pytest.approx(
            0.9790709277967582, rel=1e-13
        )
        assert boundary_bound(WeightSequence([1, 1, 1])) == pytest.approx(
            0.7928047433351473, rel=1e-13
        )

    def test_boundary_bound_dominates_faces(self):
        rng = np.random.default_rng(50)
        for ws in ([1, 1, 4.05], [1, 1, 4.5], [2, 1, 3, 5], [1, 2, 3, 4, 20]):
            w = WeightSequence(ws)
            bb = boundary_bound(w)
            dims = w.n - 2
            upper = box_upper(w)[:dims]
            for axis in range(dims):
                for face_val in (0.0, float(upper[axis])):
                    for _ in range(10_000 // (2 * dims)):
                        y = upper * rng.uniform(0, 1, dims)
                        y[axis] = face_val
                        assert objective_g(w, y) <= bb + 1e-10

    def test_interior_bound_values(self):
        assert interior_bound(WeightSequence([1, 1, 4.05])) == pytest.approx(
            0.9703725703803817, rel=1e-12
        )
        assert interior_bound(WeightSequence([1, 1, 4.1])) == pytest.approx(
            0.998063833773143, rel=1e-12
        )
        assert interior_bound(WeightSequence([1, 1, 4.5])) == pytest.approx(
            1.2238386597459476, rel=1e-12
        )

    def test_interior_bound_matches_gao_margin(self):
        rng = np.random.default_rng(51)
        checked = 0
        for _ in range(300):
            n = int(rng.integers(3, 10))
            w = random_weights(rng, n)
            gao = gao_conditions(w)
            if gao.margins[0] > 0:
                checked += 1
                assert 1.0 - interior_bound(w) == pytest.approx(
                    gao.margins[3], abs=1e-12 * max(1.0, interior_bound(w))
                )
        assert checked > 50

    def test_boundary_bound_overflow_reads_inf(self):
        assert boundary_bound(WeightSequence([1, 1, 1e200])) == math.inf
        assert math.isfinite(interior_bound(WeightSequence([1, 1, 1e200])))

    def test_interior_bound_of_tiny_head(self):
        # W_{n-1}^2 underflows to 0: the bound is 1 minus the tail margin
        w = WeightSequence([1e-300, 1e-300, 1.0])
        assert interior_bound(w) == pytest.approx(7.071067811865474e299, rel=1e-12)
        assert 1.0 - interior_bound(w) == gao_conditions(w).margins[3]

    def test_interior_bound_needs_excess(self):
        with pytest.raises(NotApplicableError):
            interior_bound(WeightSequence([1, 1, 3]))


class TestFindStationaryD:
    def test_always_contains_one(self):
        rng = np.random.default_rng(52)
        for _ in range(20):
            n = int(rng.integers(3, 8))
            w = random_weights(rng, n)
            roots = find_stationary_d(w)
            assert 1.0 in roots and roots == sorted(roots)

    @pytest.mark.parametrize(
        "w, near",
        [
            ([1, 1, 10], 0.0873780253841527),
            ([1, 1, 1, 4], 3.18962598128788),
            # next to the root d = 1
            ([1.1312609652967525, 0.5976626822152902, 5.968876507481005], 0.96776138),
            # past d = 100
            (
                [2.4618851870353953, 0.49081854846023093, 2.4529684276356107,
                 0.6863709211628388, 3.635922036414029],
                1.0468e8,
            ),
            (
                [1.5445667529346374, 0.6393047815981492, 0.4810750221867373,
                 0.4033197373573569, 0.5218740915063163, 0.5398831419963901,
                 1.0767466773608265, 1.7925965186551498],
                454.715,
            ),
        ],
    )
    def test_second_root(self, w, near):
        with mpmath.workdps(oracle.DPS):
            ref = mpmath.findroot(lambda d: oracle.stationary_residual(w, d), near)
        roots = find_stationary_d(WeightSequence(w))
        other = [r for r in roots if abs(r - 1.0) > 1e-6]
        assert len(roots) == 2 and len(other) == 1
        assert other[0] == pytest.approx(float(ref), rel=1e-12)


    @pytest.mark.parametrize(
        "w, t", [([1, 1, 4.004], 347.2667), ([1, 1, 1000], -345.8804)]
    )
    def test_root_past_the_window(self, w, t):
        # past the curve window R is linear in t; its closed-form root there
        # (right, then left) is a sign change of the 50-digit residual
        other = [math.log(d) for d in find_stationary_d(WeightSequence(w)) if d != 1.0]
        assert other == [pytest.approx(t, abs=1e-4)]
        with mpmath.workdps(oracle.DPS):
            below, above = (
                oracle.stationary_residual(w, mpmath.exp(mpmath.mpf(other[0]) + dt))
                for dt in (-1, 1)
            )
        assert below * above < 0

    def test_root_past_float64_is_left_out(self):
        # tail 1.0001 w_c: the right root is at t = 3466, where e^t overflows
        assert find_stationary_d(WeightSequence([1, 1, 4.0004])) == [1.0]


class TestCertify:
    def test_holland_route(self):
        cert = certify(WeightSequence([1, 1, 3]))
        assert cert.route == "holland"
        assert cert.slack == pytest.approx(1.0, abs=1e-12)

    def test_gao_route(self):
        cert = certify(WeightSequence([1, 1, 4.05]))
        assert cert.route == "gao"
        assert cert.slack == pytest.approx(1.0 - 0.9703725703803817, rel=1e-9)

    def test_numeric_route(self):
        cert = certify(WeightSequence([1, 1, 4.5]))
        assert cert.route == "numeric-only"
        assert cert.numeric_max is not None
        assert cert.numeric_max["value"] == pytest.approx(1.0, abs=1e-9)

    def test_refuted_route(self):
        cert = certify(WeightSequence([1, 1, 6]))
        assert cert.route == "refuted-numeric"
        assert cert.numeric_max["value"] > 1.0 + 1e-9

    def test_numeric_route_refuses_unrepresentable_tables(self):
        # beta_1 underflows to 0; the box bound W_3/W_2 rounds to 1
        for ws in ([1, 1e-300, 1e300], [1, 2, 1e-300, 4], [1] * 5 + [1e-300, 9]):
            with pytest.raises(InputError, match="out of float64 range"):
                certify(WeightSequence(ws))

    def test_pair_always_holland(self):
        cert = certify(WeightSequence([1, 100]))
        assert cert.route == "holland"

    def test_serialization(self):
        cert = certify(WeightSequence([1, 1, 4.5]))
        d = cert.to_dict()
        assert set(d) == {"route", "reports", "numeric_max", "slack"}
        assert {"value", "argmax"} == set(d["numeric_max"])


class TestSharedTable:
    @pytest.fixture
    def builds(self, monkeypatch):
        """The weight sequences each ``ReducedProblem`` was built from."""
        seen = []
        init = ReducedProblem.__init__

        def counting(self, w):
            seen.append(w)
            init(self, w)

        monkeypatch.setattr(ReducedProblem, "__init__", counting)
        return seen

    def test_one_build_per_weight_sequence(self, builds):
        for ws, routes in (
            ([1, 1, 3], {"holland"}),
            ([1, 1, 4.05], {"gao"}),
            ([1, 1, 4.5], {"numeric-only"}),
            ([1, 1, 1, 1, 1, 30], {"numeric-only", "refuted-numeric"}),
        ):
            builds.clear()
            w = WeightSequence(ws)
            cert = certify(w)
            assert cert.route in routes
            assert len(builds) == (0 if cert.route == "holland" else 1)
        w = WeightSequence([2, 0.5, 3, 1])
        builds.clear()
        for _ in range(5):
            objective_F(w, np.ones(3))
            objective_g(w, np.ones(2))
        assert builds == [w]

    def test_failed_build_raises_every_time(self, builds):
        w = WeightSequence([1, 1, 1, 1e308])
        for _ in range(2):
            with pytest.raises(InputError, match="out of float64 range"):
                objective_F(w, np.ones(3))
            with pytest.raises(InputError, match="out of float64 range"):
                certify(w)
        assert len(builds) == 4

    def test_table_is_read_only(self):
        w = WeightSequence([1, 2, 0.5, 6])
        rp = ReducedProblem.of(w)
        for arr in (
            rp.upper, rp.alpha, rp.beta, rp.second_max,
            rp.W_prev, rp.W_next, rp.w_next, box_upper(w),
        ):
            with pytest.raises(ValueError):
                arr[0] = 0.5
        np.testing.assert_array_equal(box_upper(w), w.W[1:] / w.W[:-1])
