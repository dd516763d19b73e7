"""Independent evaluations the benchmark checks the program's outputs against.

Nothing here imports ``mixedmeans``: the weight conditions, the reduced
objective and the increments are written out again from their formulas,
in 50-digit mpmath where a sign decides a verdict and in plain numpy where
a whole profile of levels is compared with a tolerance.
"""
from __future__ import annotations

import math

import mpmath
import numpy as np

DPS = 50


def _mp(values):
    return [mpmath.mpf(float(v)) for v in values]


def _prefix(values):
    out, acc = [], mpmath.mpf(0)
    for v in values:
        acc += v
        out.append(acc)
    return out


def critical_weight(head) -> float:
    """Tail weight W_{n-1}^2 / S_{n-2} that puts Holland on its boundary."""
    W = np.cumsum(np.asarray(head, dtype=float))
    S = np.cumsum(W)
    return float(W[-1] ** 2 / S[-2])


def holland_margin(w) -> tuple[float, float]:
    """W_{n-1}^2 - w_n S_{n-2} and the size of its two terms, at 50 digits."""
    with mpmath.workdps(DPS):
        wv = _mp(w)
        W = _prefix(wv)
        S = _prefix(W)
        S_n2 = S[-3] if len(wv) >= 3 else mpmath.mpf(0)
        left, right = W[-2] ** 2, wv[-1] * S_n2
        return float(left - right), float(left + right)


def gao_margins(w) -> tuple[float, float, float, float, float]:
    """The four Gao margins (excess, w1/wn - excess, head product, tail
    product) and the slack 1 - max(boundary bound, interior bound)."""
    with mpmath.workdps(DPS):
        wv = _mp(w)
        W = _prefix(wv)
        S = _prefix(W)
        W_n, W_n1, w_n, w_1 = W[-1], W[-2], wv[-1], wv[0]
        e = w_n * S[-3] / W_n1**2 - 1
        b = w_1 / w_n - e
        head = mpmath.exp(mpmath.fsum(
            W[i] * w_n / W_n1**2 * mpmath.log(W[i + 1] / W[i])
            for i in range(len(wv) - 2)
        ))
        tail = mpmath.exp(mpmath.fsum(
            wv[i] / W_n1 * mpmath.log(W[i] / wv[i]) for i in range(1, len(wv) - 1)
        ))
        c = 1 - W_n1 / W_n * head
        interior = (W_n1 * w_n / (W_n * w_1) * e + w_n / W_n) * tail
        d = 1 - interior
        boundary = max(W_n1 / W_n * head, w_n / W_n * tail)
        slack = 1 - max(boundary, interior)
        return float(e), float(b), float(c), float(d), float(slack)


def gao_holds(w, margin: float = 0.0) -> bool:
    """All four Gao margins exceed ``margin`` (n >= 3)."""
    if len(w) < 3:
        return False
    return min(gao_margins(w)[:4]) > margin


def objective_F(w, y) -> float:
    """Reduced objective F at a box point y, at 50 digits; a base that the
    point puts at zero (a box face) makes its product zero."""
    with mpmath.workdps(DPS):
        wv = _mp(w)
        W = _prefix(wv)
        yv = _mp(y)
        W_n, W_n1, w_n = W[-1], W[-2], wv[-1]
        first, second = mpmath.mpf(1), mpmath.mpf(1)
        for i, yi in enumerate(yv):
            alpha = W[i] * w_n / (W_n1 * W_n)
            base = max((W[i + 1] - W[i] * yi) / wv[i + 1], mpmath.mpf(0))
            first *= yi ** alpha if yi > 0 else mpmath.mpf(0)
            second *= base ** (wv[i + 1] / W_n) if base > 0 else mpmath.mpf(0)
        return float(W_n1 / W_n * first + w_n / W_n * second)


def rado_increment_mp(w, x, s: float, k: int) -> float:
    """Level-k Rado increment at 50 digits, from running prefix sums."""
    with mpmath.workdps(DPS):
        wv, xv = _mp(w), _mp(x)
        sm = mpmath.mpf(s)

        def power_mean(q, v, total):
            if s == 0.0:
                return mpmath.exp(mpmath.fsum(a * mpmath.log(b) for a, b in zip(q, v)) / total)
            return (mpmath.fsum(a * b**sm for a, b in zip(q, v)) / total) ** (1 / sm)

        def value(m):
            arith, smeans = [], []
            W, wx, wxs = mpmath.mpf(0), mpmath.mpf(0), mpmath.mpf(0)
            for a, b in zip(wv[:m], xv[:m]):
                W += a
                wx += a * b
                wxs += a * (mpmath.log(b) if s == 0.0 else b**sm)
                arith.append(wx / W)
                smeans.append(mpmath.exp(wxs / W) if s == 0.0 else (wxs / W) ** (1 / sm))
            outer = power_mean(wv[:m], arith, W)
            inner = mpmath.fsum(a * b for a, b in zip(wv[:m], smeans)) / W
            return W * (outer - inner)

        return float(value(k) - value(k - 1))


def _running(w, values):
    """Running weighted means of ``values`` (entry i over the first i+1)."""
    return np.cumsum(w * values) / np.cumsum(w)


def rado_increments(w, x, s: float) -> np.ndarray:
    """Rado increments for every level k = 2..n in one O(n) float pass."""
    w, x = np.asarray(w, dtype=float), np.asarray(x, dtype=float)
    W = np.cumsum(w)
    A = _running(w, x)
    if s == 0.0:
        M = np.exp(_running(w, np.log(x)))
        outer = np.exp(_running(w, np.log(A)))
    else:
        M = _running(w, x**s) ** (1.0 / s)
        outer = _running(w, A**s) ** (1.0 / s)
    values = W * (outer - _running(w, M))
    values[0] = 0.0
    return np.diff(values)


def popoviciu_increments(w, x) -> np.ndarray:
    """Popoviciu (log-gap) increments for every level k = 2..n."""
    w, x = np.asarray(w, dtype=float), np.asarray(x, dtype=float)
    W = np.cumsum(w)
    A = _running(w, x)
    G = np.exp(_running(w, np.log(x)))
    gaps = W * (_running(w, np.log(A)) - np.log(_running(w, G)))
    gaps[0] = 0.0
    return np.diff(gaps)


def close(a: float, b: float, scale: float, rtol: float = 1e-9) -> bool:
    return math.isfinite(a) and abs(a - b) <= rtol * max(abs(scale), abs(b), 1e-300)
