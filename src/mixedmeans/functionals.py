"""Rado- and Popoviciu-type increment functionals.

The sign of ``rado_increment`` at level k is the level-k instance of the
mixed-mean inequality: nonnegative means the weighted gap between the
s-mean of running arithmetic means and the arithmetic mean of running
s-means grew when the k-th point was added.  ``product_form_lhs`` is the
same level-n statement divided through by the mixed geometric-arithmetic
mean and rearranged into a sum of two products of powers bounded by 1.

Every functional reads logs of running means from the one primitive
``means._log_means``: O_k, the s-mean of the running arithmetic means
A_1..A_k, and M_k, the s-mean of x_1..x_k.  One pass gives the Rado
increments W_k O_k - W_{k-1} O_{k-1} - w_k M_k at every level, for
``verify`` and level-k calls; the search's ``_top_increment`` is its
level-n slice.  The Popoviciu increments difference one profile of logs.
"""
from __future__ import annotations

import math

import numpy as np

from .conditions import ReducedProblem
from .means import InputError, WeightSequence, _log_means, as_samples

__all__ = [
    "rado_value",
    "rado_increment",
    "popoviciu_increment",
    "product_form_lhs",
    "violation_tolerance",
]


def _level(w: WeightSequence, k: int, lowest: int = 2) -> None:
    """Raise unless k is a level in lowest..n."""
    if not lowest <= k <= w.n:
        raise InputError(f"level {k} out of range {lowest}..{w.n}")


def _rado_increments(w: WeightSequence, z: np.ndarray, s: float, k: int = 2):
    """Rado increments at levels k..n for log-data z, shape (..., n), in the
    direct form W_j O_j - W_{j-1} O_{j-1} - w_j M_j of the module docstring;
    exactly 0 at s = 1, where the functional vanishes.  A level's bits depend
    neither on k nor on the other rows of a batch."""
    _level(w, k)
    if s == 1.0:
        return np.zeros((*z.shape[:-1], w.n - k + 1))
    log_O = _log_means(w, _log_means(w, z, 1.0), s)[..., k - 2 :]
    log_M = _log_means(w, z, s)[..., k - 1 :]
    O = w.W[k - 2 :] * np.exp(log_O)
    return O[..., 1:] - O[..., :-1] - w.w[k - 1 :] * np.exp(log_M)


def _top_increment(w: WeightSequence, z: np.ndarray, s: float) -> np.ndarray:
    """``rado_increment`` at level n bit for bit, from three exps; log-data
    of shape (..., n).  The violation search maximizes it times
    ``-_orientation(s)``.  Contract: ``_top_lines`` repeats these operations
    on floats with the same bits, NaN and infinities included; change both
    or neither."""
    return _rado_increments(w, z, s, w.n)[..., 0]


def _popoviciu_profile(w: WeightSequence, z: np.ndarray) -> np.ndarray:
    """Entry k-1 is W_k * (log of the geometric mean of the running
    arithmetic means A_1..A_k - log of the arithmetic mean of the running
    geometric means G_1..G_k), for log-data z of shape (..., n)."""
    log_B = _log_means(w, _log_means(w, z, 0.0), 1.0)
    return w.W * (_log_means(w, _log_means(w, z, 1.0), 0.0) - log_B)


def _logaddexp(x: float, y: float) -> float:
    """numpy's scalar logaddexp on floats, with the same libm exp and log1p."""
    d = x - y
    if d > 0:
        return x + math.log1p(math.exp(-d))
    return y + math.log1p(math.exp(d)) if d < 0 else x + math.log(2.0) if x == y else d


def _orientation(s: float) -> float:
    """1 where a negative increment violates the inequality (s <= 1), -1
    where a positive one does (s > 1, where the inequality reverses)."""
    return 1.0 if s <= 1.0 else -1.0


def _top_lines(w: WeightSequence, s: float):
    """Scalar lines of ``-_orientation(s) * _top_increment``, the violation
    search's objective (n >= 2): ``_top_lines(w, s)(z, i)`` maps c to its
    value at the row ``z``, a list of floats, with entry i set to c, bit for
    bit.  A line keeps the sums for log A, O and M over the entries before i,
    from -inf or -0.0, which add exactly (no term is -0.0), and the terms of
    the later entries free of c; ``at(c)`` repeats the batch's operations from
    i on, in one loop for s = 0 (which negates, and takes ``_logaddexp``'s
    three branches inline: x + log 2 on a tie) and one for s != 0.  Its one
    ``np.exp(out, out)`` call, ``out`` positional, may warn; ``math.exp``
    can differ."""
    if s == 1.0:
        return lambda z, i: lambda c: -0.0
    lw, lW, ww, W = (a.tolist() for a in (w.log_w, w.log_W, w.w, w.W))
    lae, flip, exp, log1p, log2 = _logaddexp, -_orientation(s), math.exp, math.log1p, math.log(2.0)

    def line(z, i):
        a, o = -math.inf, -math.inf if s else -0.0
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
                e_p, e_n, e_m = np.exp(out, out).tolist()
                return flip * (W_n * e_n - W_p * e_p - w_n * e_m)
        else:
            def at(c):
                ka = lw_i + c
                d = a - ka  # a_ = _logaddexp(a, ka), and a_ = _logaddexp(a_, ka) below
                a_ = (a + log1p(exp(-d)) if d > 0 else ka + log1p(exp(d)) if d < 0
                      else a + log2 if a == ka else d)
                p, o_, m_ = o, o + u_i * (a_ - lW_i), m + u_i * c
                for ka, uj, lWj, km in tail:
                    d = a_ - ka
                    a_ = (a_ + log1p(exp(-d)) if d > 0 else ka + log1p(exp(d)) if d < 0
                          else a_ + log2 if a_ == ka else d)
                    p, o_, m_ = o_, o_ + uj * (a_ - lWj), m_ + km
                out[0], out[1], out[2] = p / W_p, o_ / W_n, m_ / W_n
                e_p, e_n, e_m = np.exp(out, out).tolist()
                return -(W_n * e_n - W_p * e_p - w_n * e_m)
        return at

    return line


def rado_value(w: WeightSequence, x, s: float, k: int) -> float:
    """W_k * (s-mean of running arithmetic means - arithmetic mean of
    running s-means), over the first k points.  Zero at k = 1, where both
    inner means collapse to x_1, and at s = 1.
    """
    z = np.log(as_samples(x, w.n))
    _level(w, k, 1)
    if k == 1 or s == 1.0:
        return 0.0
    log_O = _log_means(w, _log_means(w, z, 1.0), s)
    log_B = _log_means(w, _log_means(w, z, s), 1.0)  # arithmetic mean of M_1..M_k
    return float(w.W[k - 1] * (np.exp(log_O[k - 1]) - np.exp(log_B[k - 1])))


def rado_increment(w: WeightSequence, x, s: float, k: int) -> float:
    """Level-k increment of ``rado_value``; nonnegative certifies the
    level-k mixed-mean inequality (for s < 1; the sign flips for s > 1).
    """
    z = np.log(as_samples(x, w.n))
    _level(w, k)
    return float(_rado_increments(w, z, s)[k - 2])


def popoviciu_increment(w: WeightSequence, x, k: int) -> float:
    """Logarithmic analogue of ``rado_increment`` at level k: the increment
    of W_k * (ln of geometric mean of arithmetic means - ln of arithmetic
    mean of geometric means)."""
    z = np.log(as_samples(x, w.n))
    _level(w, k)
    return float(np.diff(_popoviciu_profile(w, z))[k - 2])


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
    z = np.log(as_samples(x, w.n))
    log_A = _log_means(w, z, 1.0)
    rp = ReducedProblem.of(w)
    L1 = np.array(np.sum(rp.alpha * (log_A[:-1] - log_A[1:])))
    L2 = np.array(np.sum(rp.beta * (z[1:] - log_A[1:])))
    return float(rp.F(L1, L2))


def violation_tolerance(w: WeightSequence, x) -> float:
    """Slack below which a negative increment is treated as rounding noise:
    1e-9 scaled by W_n * max(x), the natural size of the compared terms.
    """
    return 1e-9 * w.total * float(np.max(np.asarray(x, dtype=float)))


def _violates(w: WeightSequence, x, s: float, increment):
    """The violation rule of ``verify`` and the search: True where an
    increment at the data x, oriented by ``_orientation(s)``, is below
    -``violation_tolerance(w, x)``.  NaN is never a violation."""
    return _orientation(s) * increment < -violation_tolerance(w, x)
