"""Shared random-instance generators for the property and acceptance tests,
and point batches for one-call objective sweeps."""
import numpy as np

from mixedmeans import WeightSequence, critical_weight, curve_max_F, holland_condition
from mixedmeans.conditions import ReducedProblem


def log_uniform(rng, lo, hi, n):
    return np.exp(rng.uniform(np.log(lo), np.log(hi), n))


def random_weights(rng, n, lo=0.1, hi=10.0):
    return WeightSequence(log_uniform(rng, lo, hi, n))


def random_samples(rng, n, lo=1e-3, hi=1e3):
    return log_uniform(rng, lo, hi, n)


def holland_weights(rng, n, lo=0.1, hi=10.0, max_tries=1000):
    """Rejection-sample weights whose Holland margin is nonnegative."""
    for _ in range(max_tries):
        w = random_weights(rng, n, lo, hi)
        if holland_condition(w).holds:
            return w
    raise RuntimeError(f"no Holland weights found in {max_tries} tries (n={n})")


def nanjundiah_weights(rng, n, lo=0.1, hi=10.0):
    """Weights with W_n w_k - W_k w_n > 0 for 2 <= k <= n-1: draw a head,
    then pick the tail weight below the head's smallest prefix ratio."""
    head = log_uniform(rng, lo, hi, n - 1)
    if n == 2:
        return WeightSequence(np.append(head, log_uniform(rng, lo, hi, 1)))
    W = np.cumsum(head)
    rho = rng.uniform(0.05, 0.95) * float(np.min(head[1:] / W[1:]))
    w_n = rho * W[-1] / (1.0 - rho)
    return WeightSequence(np.append(head, w_n))


def with_last(y_head, ts):
    """The points np.append(y_head, t) for every t in ts, one per row."""
    return np.column_stack([np.tile(y_head, (ts.size, 1)), ts])


def interior_maximum_weights(count, seed=7):
    """The first ``count`` weight sequences whose maximum of F (``curve_max_F``)
    lies at a root of the curve, not at the point 1 or a corner of the box:
    from ``default_rng(seed)``, n uniform in 6..10, a head log-uniform in
    [0.05, 20] and a tail 1-3 times its critical weight, tables that are
    ``ReducedProblem.representable`` only: about 1 in 150 of them qualifies."""
    rng = np.random.default_rng(seed)
    found = []
    while len(found) < count:
        head = log_uniform(rng, 0.05, 20.0, int(rng.integers(5, 10)))
        w = WeightSequence(np.append(head, critical_weight(head) * rng.uniform(1.0, 3.0)))
        rp = ReducedProblem.of(w)
        if not rp.representable:
            continue
        ends = ((1.0,) * rp.upper.size, (0.0,) * rp.upper.size, tuple(rp.upper.tolist()))
        if curve_max_F(w).best_point not in ends:
            found.append(w)
    return found
