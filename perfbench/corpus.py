"""Seeded inputs for the workloads: the operations of one pass.

A pass is a fixed mix of operations, one per stratum (route class, length
n, exponent s).  The seed draws the weights and data inside each stratum,
so every whole pass does about the same work and a run's figures depend
little on the seed.
"""
from __future__ import annotations

import math

import numpy as np

import reference

POINT_EXPONENTS = (-1.0, 0.0, 0.5, 2.0)
POINT_STRATA = 16
POINT_N = (20, 200)

# Condition margins of generated weights stay this far from zero, so a
# verdict never hinges on rounding.
MARGIN = 1e-9


def _log_uniform(rng, lo, hi, size=None):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), size))


def _head(rng, n):
    return _log_uniform(rng, 0.5, 2.0, n - 1)


def _with_tail(head, factor):
    return [float(v) for v in head] + [reference.critical_weight(head) * float(factor)]


def holland_weights(rng, n):
    """Tail weight below the critical weight: Holland holds."""
    return _with_tail(_head(rng, n), rng.uniform(0.3, 0.9))


def gao_weights(rng, n):
    """Tail weight just above the critical weight, inside the Gao region."""
    for _ in range(1000):
        w = _with_tail(_head(rng, n), 1.0 + _log_uniform(rng, 1e-6, 1e-4))
        if reference.gao_holds(w, MARGIN):
            return w
    raise RuntimeError(f"no Gao weights found for n={n}")


def refutable_weights(rng, n):
    """Tail weight well above the critical weight: Holland and Gao fail."""
    for _ in range(1000):
        w = _with_tail(_head(rng, n), rng.uniform(2.0, 3.0))
        if reference.holland_margin(w)[0] < 0 and min(reference.gao_margins(w)[:4]) < -MARGIN:
            return w
    raise RuntimeError(f"no refutable weights found for n={n}")


def certify_pass(rng):
    """Cheap verdicts (Holland, Gao) for n = 3..7, and the numeric route for
    n = 3..6: a 2-D and a 3-D grid, the 4-D grid at the default resolution
    (which runs out of memory at the seed commit) and the multistart."""
    return (
        [holland_weights(rng, n) for n in range(3, 8)]
        + [gao_weights(rng, n) for n in range(3, 8)]
        + [refutable_weights(rng, n) for n in range(3, 7)]
    )


def search_pass(rng, index):
    """For n = 3..6, one weight sequence that satisfies Holland or Gao
    (alternating) and one that is refutable, each with its own search seed."""
    ops = []
    for n in range(3, 7):
        holds = holland_weights(rng, n) if (n + index) % 2 else gao_weights(rng, n)
        for w in (holds, refutable_weights(rng, n)):
            ops.append((w, int(rng.integers(0, 2**31))))
    return ops


def points_pass(rng, index):
    """One data point per stratum of log n over [20, 200], with the exponent
    s cycling through POINT_EXPONENTS."""
    lo, hi = (math.log(v) for v in POINT_N)
    ops = []
    for i in range(POINT_STRATA):
        u = (i + rng.uniform()) / POINT_STRATA
        n = min(max(round(math.exp(lo + u * (hi - lo))), POINT_N[0]), POINT_N[1])
        w = _log_uniform(rng, 0.1, 10.0, n).tolist()
        x = _log_uniform(rng, 1e-3, 1e3, n).tolist()
        ops.append((w, x, POINT_EXPONENTS[(i + index) % len(POINT_EXPONENTS)]))
    return ops
