"""Serial reference for the batched line ascent in ``mixedmeans.search``.

This is the one-point-at-a-time greedy coordinate ascent, with the
per-trial loops of ``violation_search`` and ``multistart_max_F`` around it.
On each coordinate and step size it walks one way, the first that wins,
and stops at the first step that does not.  The maximum of F starts from
the candidates of the curve maximum, the first with the largest F: the
point 1, the origin, the top corner, then Q at each root of the curve.  Its
walks run in the closed box.  The batched search must return results equal
to these, field by field.
"""
import math

import numpy as np

from mixedmeans import SearchResult, WeightSequence
from mixedmeans.conditions import ReducedProblem
from mixedmeans.functionals import _rado_increment_precise, _top_increment, _violates
from mixedmeans.search import _LOG10_RANGE, _trial_rng


def coordinate_ascent(fun, z, steps, lo, hi, local_steps, max_moves=50):
    """Greedy coordinate ascent with a geometrically shrinking step.  Along
    each coordinate it climbs by +step (clamped to [lo, hi]) while each step
    beats the last value, or, if the first does not, by -step the same way,
    for at most ``max_moves`` moves: it never turns back."""
    best = fun(z)
    for p in range(local_steps):
        step = steps * 0.5**p
        for i in range(z.size):
            moves = 0
            for sgn in (1.0, -1.0):
                while moves < max_moves:
                    cand = z.copy()
                    cand[i] = min(max(cand[i] + sgn * step, lo), hi)
                    val = fun(cand)
                    if not val > best:
                        break
                    best, z, moves = val, cand, moves + 1
                if moves:
                    break
    return best, z


def multistart_max_F(w: WeightSequence, config) -> SearchResult:
    dims = w.n - 1
    rp = ReducedProblem(w)
    upper = rp.upper

    def fun(y):
        return float(rp.F(*rp.log_products(y)))

    best_val, best_y = -math.inf, None
    candidates = [np.ones(dims), np.zeros(dims), upper]  # the point 1 and two corners
    candidates += [np.minimum(np.exp(rp.curve_log_q(t)), upper) for t in rp.curve_roots[0]]
    for y in candidates:
        if (val := fun(y)) > best_val:
            best_val, best_y = val, y
    for t in range(config.trials):
        rng = _trial_rng(config.seed, t)
        u = rng.uniform(0.0, 1.0, dims)
        val, u = coordinate_ascent(
            lambda u: fun(u * upper), u, 0.25, 0.0, 1.0, config.local_steps
        )
        if val > best_val:
            best_val, best_y = val, u * upper
    return SearchResult(
        best_value=best_val,
        best_point=tuple(float(v) for v in best_y),
        trials_run=config.trials,
        seed=config.seed,
    )


def violation_search(w: WeightSequence, s: float, config) -> SearchResult:
    n = w.n
    sign = 1.0 if s <= 1.0 else -1.0  # the inequality reverses for s > 1
    best_val = -math.inf
    best_x = None
    for t in range(config.trials):
        rng = _trial_rng(config.seed, t)
        z0 = rng.uniform(-_LOG10_RANGE, _LOG10_RANGE, n) * math.log(10.0)

        def fun(z):
            return -sign * float(_top_increment(w, z, s))

        val, z = coordinate_ascent(
            fun, z0, math.log(2.0), math.log(1e-6), math.log(1e6), config.local_steps
        )
        if val > best_val:
            best_val = val
            best_x = np.exp(z)
    assert best_x is not None
    violation = _violates(w, best_x, s, -sign * best_val) and _violates(
        w, best_x, s, _rado_increment_precise(w, best_x, s, n)
    )
    return SearchResult(
        best_value=best_val,
        best_point=tuple(float(v) for v in best_x),
        trials_run=config.trials,
        seed=config.seed,
        violation=violation,
    )
