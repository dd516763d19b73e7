"""Independent high-precision reference implementations (mpmath, 50 digits).

Written straight from the defining formulas with plain loops, deliberately
sharing no code with the package: these are the oracles the fast float64
implementations are checked against.
"""
import mpmath

DPS = 50


def _mpf(v):
    """A float64 value exactly, or an mpf as it is: rounding a weight w_j / W_i
    or a running mean to float64 would cost digits that r -> 0 magnifies."""
    return v if isinstance(v, mpmath.mpf) else mpmath.mpf(float(v))


def power_mean(q, x, r):
    with mpmath.workdps(DPS):
        q = [_mpf(v) for v in q]
        x = [_mpf(v) for v in x]
        if float(r) == 0.0:
            return mpmath.exp(mpmath.fsum(a * mpmath.log(b) for a, b in zip(q, x)))
        r = _mpf(r)
        return mpmath.fsum(a * b**r for a, b in zip(q, x)) ** (1 / r)


def partial_means(w, x, r):
    with mpmath.workdps(DPS):
        w = [_mpf(v) for v in w]
        x = [_mpf(v) for v in x]
        out = []
        for i in range(1, len(w) + 1):
            Wi = mpmath.fsum(w[:i])
            out.append(power_mean([v / Wi for v in w[:i]], x[:i], r))
        return out


def mixed_mean(w, x, outer, inner):
    with mpmath.workdps(DPS):
        w = [_mpf(v) for v in w]
        Wn = mpmath.fsum(w)
        return power_mean([v / Wn for v in w], partial_means(w, x, inner), outer)


def rado_value(w, x, s, k):
    if k == 1:
        return mpmath.mpf(0)
    with mpmath.workdps(DPS):
        wk = [_mpf(v) for v in w[:k]]
        xk = [_mpf(v) for v in x[:k]]
        Wk = mpmath.fsum(wk)
        return Wk * (mixed_mean(wk, xk, s, 1) - mixed_mean(wk, xk, 1, s))


def rado_increment(w, x, s, k):
    with mpmath.workdps(DPS):
        return rado_value(w, x, s, k) - rado_value(w, x, s, k - 1)


def popoviciu_increment(w, x, k):
    def level(m):
        if m == 1:
            return mpmath.mpf(0)
        wm = [_mpf(v) for v in w[:m]]
        xm = [_mpf(v) for v in x[:m]]
        Wm = mpmath.fsum(wm)
        return Wm * (
            mpmath.log(mixed_mean(wm, xm, 0, 1)) - mpmath.log(mixed_mean(wm, xm, 1, 0))
        )

    with mpmath.workdps(DPS):
        return level(k) - level(k - 1)


def product_lhs(w, x):
    with mpmath.workdps(DPS):
        w = [_mpf(v) for v in w]
        x = [_mpf(v) for v in x]
        n = len(w)
        W = []
        acc = mpmath.mpf(0)
        for v in w:
            acc += v
            W.append(acc)
        A = partial_means(w, x, 1)
        t1 = mpmath.mpf(1)
        for i in range(n - 1):
            t1 *= (A[i] / A[i + 1]) ** (W[i] * w[-1] / (W[-2] * W[-1]))
        t2 = mpmath.mpf(1)
        for i in range(n):
            t2 *= (x[i] / A[i]) ** (w[i] / W[-1])
        return (W[-2] / W[-1]) * t1 + (w[-1] / W[-1]) * t2


def objective_F(w, y):
    with mpmath.workdps(DPS):
        w = [_mpf(v) for v in w]
        y = [_mpf(v) for v in y]
        n = len(w)
        W = []
        acc = mpmath.mpf(0)
        for v in w:
            acc += v
            W.append(acc)
        t1 = mpmath.mpf(1)
        t2 = mpmath.mpf(1)
        for i in range(n - 1):
            t1 *= y[i] ** (W[i] * w[-1] / (W[-2] * W[-1]))
            t2 *= ((W[i + 1] - W[i] * y[i]) / w[i + 1]) ** (w[i + 1] / W[-1])
        return (W[-2] / W[-1]) * t1 + (w[-1] / W[-1]) * t2


def objective_g(w, y_head):
    with mpmath.workdps(DPS):
        w = [_mpf(v) for v in w]
        y = [_mpf(v) for v in y_head]
        n = len(w)
        W = []
        acc = mpmath.mpf(0)
        for v in w:
            acc += v
            W.append(acc)
        t1 = mpmath.mpf(1)
        t2 = mpmath.mpf(1)
        for i in range(n - 2):
            t1 *= y[i] ** (W[i] * w[-1] / W[-2] ** 2)
            t2 *= ((W[i + 1] - W[i] * y[i]) / w[i + 1]) ** (w[i + 1] / W[-2])
        return (W[-2] / W[-1]) * t1 + (w[-1] / W[-1]) * t2


def stationary_residual(w, d):
    """h(d) - h(1) for the critical-point family of g:
    sum_{i<=n-2} c_i log((d w_{i+1} + W_i) / W_{i+1}) - (w_1/W_{n-1}) log d,
    with c_i = (W_i w_n - W_{n-1} w_{i+1}) / W_{n-1}^2."""
    with mpmath.workdps(DPS):
        w = [_mpf(v) for v in w]
        d = mpmath.mpf(d)
        W = [mpmath.fsum(w[: i + 1]) for i in range(len(w))]
        W_n1, w_n = W[-2], w[-1]
        total = -(w[0] / W_n1) * mpmath.log(d)
        for i in range(len(w) - 2):
            c = (W[i] * w_n - W_n1 * w[i + 1]) / W_n1**2
            total += c * mpmath.log((d * w[i + 1] + W[i]) / W[i + 1])
        return total
