"""Shared random-instance generators for the property and acceptance tests,
and point batches for one-call objective sweeps."""
import numpy as np

from mixedmeans import WeightSequence, holland_condition


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
