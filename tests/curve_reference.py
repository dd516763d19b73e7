"""References for the curve maximum ``mixedmeans.search.curve_max_F``.

``roots``: the curve roots on the full window lattice, a reference for the
pruned grid of ``ReducedProblem.curve_roots``.  Every node of step ``_CURVE_STEP``
across the window is evaluated, with no bound on where R is monotone, and
each grid sign change of S(t) = R(t)/t is refined by the same bracketed
Newton iteration on ``ReducedProblem.curve_at``.

``curve_max_F``: the maximum with each root's point Q from a second array
pass over the roots (``ReducedProblem.curve``), not from the scalar rows.
"""
import math

import numpy as np

from mixedmeans.conditions import _CURVE_MARGIN, _CURVE_STEP, ReducedProblem


def full_lattice(rp: ReducedProblem) -> np.ndarray:
    """Every node t = j ``_CURVE_STEP`` of the curve window."""
    reach = np.abs(rp.log_W[:-1] - rp.log_w[1:]).max() + _CURVE_MARGIN
    h = math.ceil(reach / _CURVE_STEP)
    return np.arange(-h, h + 1) * _CURVE_STEP


def roots(rp: ReducedProblem) -> np.ndarray:
    """The roots t != 0 of R, one per sign change of S on ``full_lattice``."""
    t = full_lattice(rp)
    L1, L2, _ = rp.curve(t)
    up = np.where(t == 0.0, rp.curve_at(0.0)[1] > 0.0, (L2 - L1 > t) == (t > 0.0))
    k = np.flatnonzero(up[:-1] != up[1:])
    found = []
    for a, b, rises in zip(t[k].tolist(), t[k + 1].tolist(), up[k].tolist()):
        x, done = 0.5 * (a + b), False
        while not done:
            R, slope, bound = rp.curve_at(x)
            like_a = ((R > 0.0) == (x > 0.0)) == rises
            a, b = (x, b) if like_a else (a, x)
            done = abs(R) <= bound or b - a <= 2.0**-43 * (1.0 + abs(x))
            den = slope * x - R
            step = x - R * x / den if den else math.nan
            x = step if a < step < b else x if done else 0.5 * (a + b)
        found.append(x)
    return np.array(found)


def curve_max_F(rp: ReducedProblem) -> float:
    """F's largest value at the point 1, the two corners and Q at each root of
    ``ReducedProblem.curve_roots``, with Q from ``ReducedProblem.curve``'s log Q."""
    roots = np.array(rp.curve_roots[0])
    ends = np.array([np.ones_like(rp.upper), np.zeros_like(rp.upper), rp.upper])
    Y = np.vstack([ends, np.minimum(np.exp(rp.curve(roots)[2]), rp.upper)])
    return float(rp.F(*rp.log_products(Y)).max())
