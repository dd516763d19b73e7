"""Rado- and Popoviciu-type increment functionals.

The sign of ``rado_increment`` at level k is the level-k instance of the
mixed-mean inequality: nonnegative means the weighted gap between the
s-mean of running arithmetic means and the arithmetic mean of running
s-means grew when the k-th point was added.  ``product_form_lhs`` is the
same level-n statement divided through by the mixed geometric-arithmetic
mean and rearranged into a sum of two products of powers bounded by 1.

The public functionals are slices of one per-level profile, which gives
every level in one pass, as ``verify`` and level-k calls need.  The
violation search needs only level n, at many points: its objective is the
private kernel ``_top_increment``, the direct form of the level-n increment
on log-data from one running-mean pass.
"""
from __future__ import annotations

import math

import numpy as np

from .conditions import ReducedProblem
from .means import InputError, WeightSequence, _partial_means, as_samples

__all__ = [
    "rado_value",
    "rado_increment",
    "popoviciu_increment",
    "product_form_lhs",
    "violation_tolerance",
]


def _profile(w: WeightSequence, x: np.ndarray, s: float, log: bool = False):
    """Entry k-1 is W_k * (s-mean of running arithmetic means - arithmetic
    mean of running s-means) over the first k points, with both means
    logged first when ``log`` is set.  Level 1 is exactly zero: both sides
    are the same running-mean value x_1.  ``x`` holds validated samples of
    shape (..., n); the profile runs along the last axis.
    """
    outer = _partial_means(w, _partial_means(w, x, 1.0), s)
    inner = _partial_means(w, _partial_means(w, x, s), 1.0)
    if log:
        outer, inner = np.log(outer), np.log(inner)
    return w.W * (outer - inner)


def _increment(w: WeightSequence, x: np.ndarray, s: float, k: int, log: bool = False):
    """Level-k increment of ``_profile`` for validated samples (..., n)."""
    if not 2 <= k <= w.n:
        raise InputError(f"level {k} out of range 2..{w.n}")
    profile = _profile(w, x, s, log)
    return profile[..., k - 1] - profile[..., k - 2]


def _top_increment(w: WeightSequence, z: np.ndarray, s: float) -> np.ndarray:
    """Level-n Rado increment at the data exp(z), for log-data of shape
    (..., n), in the direct form W_n O_n - W_{n-1} O_{n-1} - w_n M_n: O_k is
    the s-mean of the running arithmetic means A_1..A_k and M_n the s-mean
    of x_1..x_n.  Every sum along the data axis runs in index order, so a
    row of a batch gives the same bits as a call on that row.  Exactly 0
    at s = 1, where the functional vanishes identically.  Bit-identity
    contract: ``_top_lines`` repeats these operations on floats and gives
    the same bits, NaN and infinities included; change both or neither.
    """
    if w.n < 2:
        raise InputError(f"level {w.n} out of range 2..{w.n}")
    if s == 1.0:
        return np.zeros(z.shape[:-1])
    log_A = np.logaddexp.accumulate(w.log_w + z, axis=-1) - w.log_W
    if s == 0.0:
        log_O = (w.w * log_A).cumsum(axis=-1)[..., -2:] / w.W[-2:]
        log_M = (w.w * z).cumsum(axis=-1)[..., -1] / w.W[-1]
    else:
        acc = np.logaddexp.accumulate(w.log_w + s * log_A, axis=-1)[..., -2:]
        log_O = (acc - w.log_W[-2:]) / s
        log_M = (np.logaddexp.reduce(w.log_w + s * z, axis=-1) - w.log_W[-1]) / s
    O = w.W[-2:] * np.exp(log_O)
    return O[..., 1] - O[..., 0] - w.w[-1] * np.exp(log_M)


def _logaddexp(x: float, y: float) -> float:
    """numpy's scalar logaddexp on floats, with the same libm exp and log1p."""
    d = x - y
    if d > 0:
        return x + math.log1p(math.exp(-d))
    return y + math.log1p(math.exp(d)) if d < 0 else x + math.log(2.0) if x == y else d


def _top_lines(w: WeightSequence, s: float):
    """Scalar lines of ``-_top_increment``, the violation search's objective
    (n >= 2): ``_top_lines(w, s)(z, i)`` maps c to its value at the row ``z``
    with entry i set to c, bit for bit.  A line keeps the sums for log A, O
    and M over the entries before i, from -inf or -0.0, which add exactly (no
    term is -0.0), and the terms of the later entries free of c; ``at(c)``
    repeats the batch's operations from i on, in one loop for s = 0 and one
    for s != 0.  Its one ``np.exp`` call may warn; ``math.exp`` can differ."""
    if s == 1.0:
        return lambda z, i: lambda c: -0.0
    lw, lW, ww, W = (a.tolist() for a in (w.log_w, w.log_W, w.w, w.W))
    lae = _logaddexp

    def line(z, i):
        z, a, o = z.tolist(), -math.inf, -math.inf if s else -0.0
        m, u = o, lw if s else ww  # O sums lw_j + s log A_j in logs, or ww_j log A_j
        rows = [(lw[j] + z[j], u[j], lW[j], lw[j] + s * z[j] if s else u[j] * z[j])
                for j in range(len(z))]
        for ka, uj, lWj, km in rows[:i]:
            a = lae(a, ka)
            o, m = (lae(o, uj + s * (a - lWj)), lae(m, km)) if s else (o + uj * (a - lWj), m + km)
        W_n, W_p, w_n, lW_n, lW_p = W[-1], W[-2], ww[-1], lW[-1], lW[-2]  # n >= 2 here
        lw_i, u_i, lW_i, tail, out = lw[i], u[i], lW[i], rows[i + 1 :], np.empty(3)
        if s:
            def at(c):
                a_ = lae(a, lw_i + c)
                p, o_, m_ = o, lae(o, u_i + s * (a_ - lW_i)), lae(m, lw_i + s * c)
                for ka, uj, lWj, km in tail:
                    a_ = lae(a_, ka)
                    p, o_, m_ = o_, lae(o_, uj + s * (a_ - lWj)), lae(m_, km)
                out[0], out[1], out[2] = (p - lW_p) / s, (o_ - lW_n) / s, (m_ - lW_n) / s
                e_p, e_n, e_m = np.exp(out, out=out).tolist()
                return -(W_n * e_n - W_p * e_p - w_n * e_m)
        else:
            def at(c):
                a_ = lae(a, lw_i + c)
                p, o_, m_ = o, o + u_i * (a_ - lW_i), m + u_i * c
                for ka, uj, lWj, km in tail:
                    a_ = lae(a_, ka)
                    p, o_, m_ = o_, o_ + uj * (a_ - lWj), m_ + km
                out[0], out[1], out[2] = p / W_p, o_ / W_n, m_ / W_n
                e_p, e_n, e_m = np.exp(out, out=out).tolist()
                return -(W_n * e_n - W_p * e_p - w_n * e_m)
        return at

    return line


def rado_value(w: WeightSequence, x, s: float, k: int) -> float:
    """W_k * (s-mean of running arithmetic means - arithmetic mean of
    running s-means), over the first k points.  Zero at k = 1, where both
    inner means collapse to x_1.
    """
    x = as_samples(x, w.n)
    if not 1 <= k <= w.n:
        raise InputError(f"level {k} out of range 1..{w.n}")
    return float(_profile(w, x, s)[k - 1])


def rado_increment(w: WeightSequence, x, s: float, k: int) -> float:
    """Level-k increment of ``rado_value``; nonnegative certifies the
    level-k mixed-mean inequality (for s < 1; the sign flips for s > 1).
    """
    return float(_increment(w, as_samples(x, w.n), s, k))


def popoviciu_increment(w: WeightSequence, x, k: int) -> float:
    """Logarithmic analogue of ``rado_increment`` at level k: the increment
    of W_k * (ln of geometric mean of arithmetic means - ln of arithmetic
    mean of geometric means)."""
    return float(_increment(w, as_samples(x, w.n), 0.0, k, log=True))


def product_form_lhs(w: WeightSequence, x) -> float:
    """Left side of the product recasting of the level-n increment
    inequality:

        (W_{n-1}/W_n) * prod_i (A_i/A_{i+1})^{W_i w_n/(W_{n-1} W_n)}
      + (w_n/W_n)     * prod_i (x_i/A_i)^{w_i/W_n}

    A value <= 1 is equivalent to ``rado_increment(w, x, 0, n) >= 0``.
    It is F at y_i = A_i/A_{i+1}, evaluated from the data: there
    second_i(y) = x_{i+1}/A_{i+1}, and the i = 1 factor x_1/A_1 is 1.
    """
    if w.n < 2:
        raise InputError("need at least two entries")
    x = as_samples(x, w.n)
    log_A = np.log(_partial_means(w, x, 1.0))
    rp = ReducedProblem.of(w)
    L1 = np.array(np.sum(rp.alpha * (log_A[:-1] - log_A[1:])))
    L2 = np.array(np.sum(rp.beta * (np.log(x[1:]) - log_A[1:])))
    return float(rp.F(L1, L2))


def violation_tolerance(w: WeightSequence, x) -> float:
    """Slack below which a negative increment is treated as rounding noise:
    1e-9 scaled by W_n * max(x), the natural size of the compared terms.
    """
    return 1e-9 * w.total * float(np.max(np.asarray(x, dtype=float)))
