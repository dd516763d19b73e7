"""Weight-sequence admissibility checks.

Three sufficient conditions for the level-n mixed arithmetic-geometric mean
increment inequality, ordered by generality:

* Nanjundiah: W_n w_k - W_k w_n > 0 for 2 <= k <= n-1 (works for all
  exponent pairs);
* Holland: W_{n-1}^2 >= w_n * (W_1 + ... + W_{n-2});
* Gao: a strict-excess regime where Holland fails but the excess
  e = w_n S_{n-2} / W_{n-1}^2 - 1 stays below w_1/w_n and two product
  bounds hold.  e is formed without the square where it underflows, so a
  tiny head gives a margin, not a division by 0.

``existence_check`` verifies that for any positive head w_1..w_{n-1} the
critical tail weight (which puts Holland exactly on its boundary) has a
right-neighborhood where the Gao conditions hold.

``ReducedProblem`` is the one table of the reduced problem (box, exponents,
second bases, corner log-products), built once per weight sequence by
``ReducedProblem.of``.  The Gao product margins read its corners: two
floats, from one numpy log and float sums in ``np.sum``'s order
(``log_corners``);
``reduction`` and ``search`` build F, g, the elimination step and the bounds
from it.  It owns the curve of F's interior critical points: its kernel, its
monotone ends, its grid and its Newton roots, each formed once, which
``search.curve_max_F`` and ``reduction.find_stationary_d`` both read.
"""
from __future__ import annotations

import functools
import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

from .means import InputError, WeightSequence

__all__ = [
    "NotApplicableError",
    "ConditionReport",
    "nanjundiah_condition",
    "holland_condition",
    "gao_conditions",
    "d_zero",
    "critical_weight",
    "existence_check",
    "tail_sum_maximizer",
    "induction_gap",
]

# Strict inequalities count as satisfied only above this margin; ties are
# reported as failing with the boundary flag set.
STRICT_TOL = 1e-12
OUT_OF_RANGE = "weights out of float64 range for the reduced problem"

# The curve window reaches _CURVE_MARGIN beyond every t = log(W_i/w_{i+1}),
# where the Q_i move: e**-37 < 2**-53, so past it each Q_i or d Q_i is
# constant in float64.  A sign change of R(t)/t on its grid, of step
# _CURVE_STEP where R may not be monotone, is refined by Newton's method to a
# root t, where F is taken.
_CURVE_MARGIN = 37.0
_CURVE_STEP = 0.125


def _exp(v: float) -> float:
    """math.exp, or inf where the value overflows float64."""
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


def _square(v: float, name: str) -> float:
    """v**2, or an ``OverflowError`` that names the square ``name``."""
    try:
        return v**2
    except OverflowError:
        raise OverflowError(f"{name} exceeds float64") from None


class NotApplicableError(ValueError):
    """The condition does not apply to this input (e.g. n too small, or a
    threshold whose defining denominator is not positive)."""


@dataclass(frozen=True)
class ConditionReport:
    """Named verdict with one signed margin per sub-inequality
    (positive = satisfied with that slack)."""

    name: str
    holds: bool
    margins: tuple[float, ...]
    details: tuple[str, ...]
    boundary: bool = False

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "holds": self.holds,
            "margins": [
                {"label": label, "value": value}
                for label, value in zip(self.details, self.margins)
            ],
        }


def nanjundiah_condition(w: WeightSequence) -> ConditionReport:
    """Margins W_n w_k - W_k w_n for k = 2..n-1; vacuous at n = 2."""
    if w.n < 2:
        raise InputError("need at least two weights")
    try:
        with np.errstate(over="raise"):
            margins = tuple((w.W[-1] * w.w[1:-1] - w.W[1:-1] * w.w[-1]).tolist())
    except FloatingPointError as exc:
        raise OverflowError(f"nanjundiah margin: {exc}") from None
    details = tuple(f"k={k}" for k in range(2, w.n))
    return ConditionReport(
        name="nanjundiah",
        holds=all(m >= 0.0 for m in margins),
        margins=margins,
        details=details,
    )


def holland_condition(w: WeightSequence) -> ConditionReport:
    """Single margin W_{n-1}^2 - w_n * S_{n-2} (empty sum at n = 2).

    As S_{n-1} = S_{n-2} + W_{n-1} and W_n = W_{n-1} + w_n, w_n S_{n-1} <=
    W_{n-1} W_n <=> W_{n-1}^2 >= w_n S_{n-2}.  The left side is sum alpha_i
    <= 1 for the exponents of the reduced objective F, and sum beta_i =
    1 - w_1/W_n < 1; so both products of F are concave, F is, and its
    maximum on the curve of its critical points is F(1, ..., 1) = 1."""
    if w.n < 2:
        raise InputError("need at least two weights")
    S_n2 = float(w.S[-3]) if w.n >= 3 else 0.0
    margin = _square(float(w.W[-2]), "holland margin: W_{n-1}^2") - float(w.w[-1]) * S_n2
    return ConditionReport(
        name="holland",
        holds=margin >= 0.0,
        margins=(margin,),
        details=("W_{n-1}^2 - w_n*S_{n-2}",),
    )


def _excess(w: WeightSequence) -> float:
    """e = w_n S_{n-2} / W_{n-1}^2 - 1, the amount by which Holland fails;
    as (w_n / W_{n-1}) (S_{n-2} / W_{n-1}) - 1 where W_{n-1}^2 is below the
    normal floats (W_{n-1} below ~1.5e-154), so that it never divides by 0."""
    w_n, S_n2, W_n1 = float(w.w[-1]), float(w.S[-3]), float(w.W[-2])
    if (square := _square(W_n1, "gao excess: W_{n-1}^2")) >= sys.float_info.min:
        return w_n * S_n2 / square - 1.0
    return (w_n / W_n1) * (S_n2 / W_n1) - 1.0


class ReducedProblem:
    """The reduced form of the level-n increment inequality, derived once
    per weight sequence (``ReducedProblem.of``) and shared by F, g, the
    elimination step, the curve maximum and the bounds.  Its arrays are
    read-only.

    With y_i = A_i / A_{i+1} the inequality reads F(y) <= 1 on the box
    0 <= y_i <= ``upper[i]`` = W_{i+1}/W_i, where

        F(y) = p_1 prod y_i^alpha_i + p_2 prod second_i(y)^beta_i,
        second_i(y) = (W_{i+1} - W_i y_i) / w_{i+1},

    p_1 = W_{n-1}/W_n and p_2 = w_n/W_n.  Maximizing over the last
    coordinate leaves, with c and c' the two products over the first n-2
    coordinates and r = W_n/W_{n-1},

        g = p_1 c^r + p_2 c'^r,   max over y_{n-1} of F = g^(1/r).

    ``log_corners`` holds log g at the upper corner, where every second base
    is exactly 0, and at the origin, where every y_i is 0 and every second
    base takes its maximum ``second_max[i]`` = W_{i+1}/w_{i+1}.

    Every entry of the table is finite, so the log-terms are finite or -inf
    and never NaN: weights for which a box bound (the last is r), an
    exponent, a second-base maximum or the denominator W_{n-1} W_n of alpha
    overflows, or p_2 underflows to 0, raise ``InputError``.
    """

    def __init__(self, w: WeightSequence):
        if w.n < 2:
            raise InputError("need at least two entries")
        W = w.W
        self.W_n1, self.W_n = float(W[-2]), float(W[-1])
        self.w_1, self.w_n = float(w.w[0]), float(w.w[-1])
        self.r = self.W_n / self.W_n1
        self.p = (self.W_n1 / self.W_n, self.w_n / self.W_n)
        self.W_prev, self.W_next, self.w_next = W[:-1], W[1:], w.w[1:]
        self.log_W, self.log_w = w.log_W, w.log_w
        # r is upper[-1], and p_2 underflows to 0 only where second_max[-1]
        # = 1/p_2 overflows; a numpy scalar lets W_{n-1} W_n overflow raise
        try:
            with np.errstate(over="raise", invalid="raise"):
                self.upper = self.W_next / self.W_prev
                self.alpha = self.W_prev * self.w_n / (np.float64(self.W_n1) * self.W_n)
                self.beta = self.w_next / self.W_n
                self.second_max = self.W_next / self.w_next
        except FloatingPointError:
            raise InputError(OUT_OF_RANGE) from None
        for arr in (self.upper, self.alpha, self.beta, self.second_max):
            arr.setflags(write=False)
        # whether every exponent is positive and every box bound exceeds 1, as
        # the faces of the box need; float64 may round them to 0 or 1
        exponents = self.alpha.tolist() + self.beta.tolist()
        self.representable = min(exponents) > 0.0 and min(self.upper.tolist()) > 1.0
        self.log_p = (math.log(self.p[0]), math.log(self.p[1]))

    @classmethod
    def of(cls, w: WeightSequence) -> ReducedProblem:
        """The table of ``w``, built on first use and kept in its ``reduced``
        slot; a build that raises is not kept, so every use raises."""
        if not hasattr(w, "reduced"):
            w.reduced = cls(w)
        return w.reduced

    def log_terms(self, y, i):
        """alpha_i log y_i and beta_i log second_i(y) on axis or axes ``i``,
        stacked on a new first axis, from one log call; a zero base gives
        -inf even where its exponent underflowed to 0 (so not representable)."""
        second = np.maximum((self.W_next[i] - self.W_prev[i] * y) / self.w_next[i], 0.0)
        base = np.array([y, second])
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.log(base)
            terms[0] *= self.alpha[i]
            terms[1] *= self.beta[i]
        return terms if self.representable else np.where(base == 0.0, -np.inf, terms)

    def log_products(self, y):
        """log of both products of F over the leading coordinates, for points
        y of shape (..., d), summed over the last axis in axis order (a
        running sum, for any d; numpy's pairwise ``sum`` is not in order past
        seven axes); arrays (0-d for one point) for ``F`` and ``log_g``."""
        L = self.log_terms(y, slice(0, np.shape(y)[-1])).cumsum(axis=-1)[..., -1]
        return L[0, ...], L[1, ...]

    def curve(self, t):
        """At every t = log d in ``t``: the two log-products L_1, L_2 of F at
        the point Q_i(d) = W_{i+1}/(W_i + d w_{i+1}) of the curve of its
        interior critical points, where second_i = d Q_i, and log Q along a
        new last axis.  One softplus log(1 + e^-|log W_i - t - log w_{i+1}|)
        per axis serves log Q and log(d Q), neither of which cancels."""
        t = np.asarray(t)[..., None]
        b = t + self.log_w[1:]
        s = np.log1p(np.exp(-np.abs(self.log_W[:-1] - b)))
        log_q = self.log_W[1:] - (np.maximum(self.log_W[:-1], b) + s)
        log_dq = self.log_W[1:] - (np.maximum(self.log_W[:-1] - t, self.log_w[1:]) + s)
        return log_q @ self.alpha, log_dq @ self.beta, log_q

    def curve_at(self, t: float):
        """``curve``'s operations on one float t, to a few ulp: R(t) = L_2 - L_1
        - t, R'(t) = sum (alpha_i - beta_i) u_i - w_1/W_n with u_i = d w_{i+1}/(W_i
        + d w_{i+1}), and 8 eps (sum alpha_i |log Q_i| + sum beta_i |log d Q_i| +
        sum (alpha_i + beta_i) |log W_{i+1}| + |t|), R's rounding bound (log Q_i
        near 0 keeps the rounding of log W_{i+1})."""
        rows, size = self._curve_rows
        L1, L2, slope = 0.0, 0.0, -self.w_1 / self.W_n
        for lW, lw, lW_next, a, b in rows:
            x = lW - (t + lw)
            s = math.log1p(e := math.exp(-abs(x)))
            log_q = lW_next - (max(lW, t + lw) + s)
            log_dq = lW_next - (max(lW - t, lw) + s)
            L1, L2 = L1 + a * log_q, L2 + b * log_dq
            size += a * abs(log_q) + b * abs(log_dq)
            slope += (a - b) * (e if x > 0.0 else 1.0) / (1.0 + e)
        return L2 - L1 - t, slope, 8.0 * sys.float_info.epsilon * (size + abs(t))

    def curve_log_q(self, t: float) -> list:
        """``curve``'s log Q_i at one float t, from the rows of ``curve_at``."""
        return [lW_next - (max(lW, t + lw) + math.log1p(math.exp(-abs(lW - (t + lw)))))
                for lW, lw, lW_next, _, _ in self._curve_rows[0]]

    @functools.cached_property
    def _curve_rows(self):
        rows = self.log_W[:-1], self.log_w[1:], self.log_W[1:], self.alpha, self.beta
        floor = (self.alpha + self.beta) @ np.abs(self.log_W[1:])
        return list(zip(*(a.tolist() for a in rows))), float(floor)

    @functools.cached_property
    def monotone_ends(self) -> tuple[float, float]:
        """(L, U): R' <= -kappa/2 for t <= L, kappa = w_1/W_n, and R' has the
        sign of its limit e = sum a_i - kappa for t >= U, so R is strictly
        monotone on each end.  Proof: R' = sum a_i u_i - kappa with a_i =
        alpha_i - beta_i, u_i = sigma(t - c_i), c_i = log(W_i/w_{i+1}), and
        u_i <= e^(t - c_i), 1 - u_i <= e^(c_i - t); so L = log(kappa/2) - log
        sum_{a_i > 0} a_i e^-c_i and U = log sum_{sign a_i = sign e} |a_i| e^c_i
        - log(|e|/2).  L is -inf where kappa underflows to 0, U inf where e is
        within rounding of 0; an empty sum makes its bound +-inf."""
        rows, _ = self._curve_rows
        ac = [(a - b, lW - lw) for lW, lw, _, a, b in rows]  # (a_i, c_i)
        kappa = self.w_1 / self.W_n
        e = math.fsum(a for a, _ in ac) - kappa

        def log_sum(terms):  # log sum e^x over terms; -inf + log 1 if empty
            top = max(terms, default=-math.inf)
            return top + math.log(math.fsum(math.exp(x - top) for x in terms) or 1.0)

        left = log_sum([math.log(a) - c for a, c in ac if a > 0.0])
        right = log_sum([math.log(abs(a)) + c for a, c in ac if a and (a > 0.0) == (e > 0.0)])
        lo = math.log(kappa) - math.log(2.0) - left if kappa else -math.inf
        tol = 4.0 * len(ac) * sys.float_info.epsilon * (1.0 + math.fsum(self.alpha.tolist()))
        return lo, right - math.log(abs(e) / 2.0) if abs(e) > tol else math.inf

    @functools.cached_property
    def curve_grid(self) -> np.ndarray:
        """The nodes t = log d of the curve window, reaching ``_CURVE_MARGIN``
        beyond every c_i = log(W_i/w_{i+1}): its ends, t = 0, and the lattice of
        step ``_CURVE_STEP`` that covers [L, U] = ``monotone_ends``.  Past L and
        U, R is strictly monotone: at most one root, none by t = 0."""
        lo, hi = self.monotone_ends
        reach = max(abs(lW - lw) for lW, lw, *_ in self._curve_rows[0]) + _CURVE_MARGIN
        h = math.ceil(reach / _CURVE_STEP)
        first = math.floor(min(max(lo / _CURVE_STEP, -h), h))
        last = math.ceil(min(max(hi / _CURVE_STEP, -h), h))
        below = range(max(first, 1 - h), min(last, -1) + 1)
        above = range(max(first, 1), min(last, h - 1) + 1)
        grid = np.array([-h, *below, 0, *above, h], dtype=float) * _CURVE_STEP
        grid.setflags(write=False)
        return grid

    @functools.cached_property
    def curve_roots(self) -> tuple[tuple, int]:
        """The roots t = log d != 0 of R(t) = L_2 - L_1 - t (``curve``) in the
        curve window, one per sign change of S(t) = R(t)/t on ``curve_grid``
        (S(0) = R'(0): d = 1 is an exact root), by Newton's method on S in
        floats (``curve_at``), bisecting where a step leaves the bracket or S'
        is 0 or not finite; on S, a bracket ending at t = 0 never closes on
        R(0) = 0, and past L or U it holds no other root and is skipped.  A
        bracket wider than a step starts where R's chord crosses 0, the others
        at their middle.  Each stops once |R| is within its rounding bound or
        the bracket within 2**-43 (1 + |t|), with its last step if in the
        bracket.  Also the count of points evaluated: grid and Newton."""
        (lo, hi), t = self.monotone_ends, self.curve_grid
        L1, L2, _ = self.curve(t)
        t, D = t.tolist(), (L2 - L1 - t).tolist()  # R on the grid
        up = [(R > 0.0) == (x > 0.0) if x else self.curve_at(0.0)[1] > 0.0 for x, R in zip(t, D)]
        roots, evaluations = [], len(t)
        for a, b, rises, after, Da, Db in zip(t, t[1:], up, up[1:], D, D[1:]):
            if rises == after or 0.0 in (a, b) and (b <= lo or a >= hi):
                continue
            x, done = 0.5 * (a + b), False
            if b - a > _CURVE_STEP and a < (f := a + (b - a) * Da / (Da - Db)) < b:
                x = f
            while not done:
                R, slope, bound = self.curve_at(x)
                evaluations += 1
                like_a = ((R > 0.0) == (x > 0.0)) == rises  # sign S(x) = sign S(a)
                a, b = (x, b) if like_a else (a, x)
                done = abs(R) <= bound or b - a <= 2.0**-43 * (1.0 + abs(x))
                den = slope * x - R  # S/S' = R x/(R' x - R)
                step = x - R * x / den if den else math.nan
                x = step if a < step < b else x if done else 0.5 * (a + b)
            roots.append(x)
        return tuple(roots), evaluations

    def F(self, L1, L2):
        """F from its two log-products; overwrites and returns ``L1``."""
        np.exp(L1, out=L1)
        L1 *= self.p[0]
        np.exp(L2, out=L2)
        L2 *= self.p[1]
        L1 += L2
        return L1

    def log_g(self, L1, L2):
        """log g from log c and log c'; overwrites and returns ``L1``.  A
        vanishing product (-inf) leaves the other term alone."""
        L1 *= self.r
        L1 += self.log_p[0]
        L2 *= self.r
        L2 += self.log_p[1]
        return np.logaddexp(L1, L2, out=L1)

    @functools.cached_property
    def log_corners(self) -> tuple[float, float]:
        """log g = r L + log p_k at the upper corner (k = 1) and the origin
        (k = 2), where the other product is 0, with L = sum alpha_i log
        upper_i or sum beta_i log second_max_i over the head: one numpy log,
        then floats, summed in ``np.sum``'s order (in sequence below 8 terms)."""
        m = self.upper.size - 1
        logs = np.log(np.concatenate((self.upper[:m], self.second_max[:m]))).tolist()
        sums = []
        for k, exponents in enumerate((self.alpha, self.beta)):
            terms = [e * v for e, v in zip(exponents[:m].tolist(), logs[k * m:])]
            # not builtin sum: it compensates its rounding from Python 3.12
            total = np.sum(terms) if m >= 8 else functools.reduce(operator.add, terms, 0.0)
            sums.append(float(total))
        return self.r * sums[0] + self.log_p[0], self.r * sums[1] + self.log_p[1]

    def interior_bound(self, e: float) -> float:
        """Bound on g at interior critical points past d_0 = (w_1/w_n)/e:
        g at the origin times 1 + e W_{n-1}/w_1; inf where g there overflows
        float64."""
        return _exp(self.log_corners[1]) * (1.0 + e * self.W_n1 / self.w_1)


def gao_conditions(w: WeightSequence) -> ConditionReport:
    """Four margins: (a) strict positivity of the excess e, (b) e bounded by
    w_1/w_n, (c) the head product bound, (d) the tail product bound.  The
    products are the corner values of the reduced objective g, accumulated
    in the log domain; their margins are reported as 1 minus the value.  A
    margin whose value overflows float64 reads -sys.float_info.max, an upper
    bound on the true margin.
    """
    if w.n < 3:
        raise NotApplicableError("needs at least three weights")
    rp = ReducedProblem.of(w)
    e = _excess(w)
    margin_b = rp.w_1 / rp.w_n - e
    try:
        margin_c = -math.expm1(rp.log_corners[0])
    except OverflowError:
        margin_c = -sys.float_info.max
    margin_d = max(1.0 - rp.interior_bound(e), -sys.float_info.max)

    on_boundary = abs(e) <= STRICT_TOL
    holds = (
        e > STRICT_TOL
        and margin_b >= 0.0
        and margin_c >= 0.0
        and margin_d >= 0.0
    )
    return ConditionReport(
        name="gao",
        holds=holds,
        margins=(e, margin_b, margin_c, margin_d),
        details=("excess", "w1/wn - excess", "head product", "tail product"),
        boundary=on_boundary,
    )


def d_zero(w: WeightSequence) -> float:
    """Threshold (w_1/w_n) / e below which the stationarity profile is
    provably decreasing; only defined when the excess e is positive."""
    if w.n < 3:
        raise NotApplicableError("needs at least three weights")
    e = _excess(w)
    if e <= 0.0:
        raise NotApplicableError("excess is not positive; threshold undefined")
    return (float(w.w[0]) / float(w.w[-1])) / e


def _head_weights(head) -> WeightSequence:
    """A head w_1..w_{n-1}, validated as weights, of at least two."""
    w = WeightSequence(head)
    if w.n < 2:
        raise InputError("head must have at least two weights")
    return w


def critical_weight(head) -> float:
    """The tail weight W_{n-1}^2 / S_{n-2} that, appended to the head,
    makes the excess vanish (Holland exactly on its boundary).  Where it
    leaves float64, a square that overflows raises ``OverflowError``, and a
    quotient that overflows or underflows to 0 ``InputError``."""
    w = _head_weights(head)
    value = _square(float(w.W[-1]), "critical weight: W_{n-1}^2") / float(w.S[-2])
    if not 0.0 < value < math.inf:
        raise InputError("the critical weight is out of float64 range")
    return value


def existence_check(head) -> ConditionReport:
    """Strict margins guaranteeing that the Gao conditions hold in a
    right-neighborhood of the critical tail weight:

    * power margin (log domain): prod W_i^{w_i} over i <= n-2 strictly
      exceeds (S_{n-2}/S_{n-1})^{S_{n-2}} * W_{n-1}^{W_{n-2}};
    * product margin: (W_{n-1}/S_{n-1}) * prod (W_{i+1}/w_{i+1})^{w_{i+1}/W_{n-1}}
      is strictly below 1.

    Both hold for every positive head; a failing margin signals an
    implementation bug, not a mathematical possibility.
    """
    w = _head_weights(head)
    head, W, S = w.w, w.W, w.S
    W_n1 = float(W[-1])
    S_n2 = float(S[-2])
    S_n1 = float(S[-1])

    margin_power = float(np.sum(head[:-1] * np.log(W[:-1]))) - (
        S_n2 * math.log(S_n2 / S_n1) + float(W[-2]) * math.log(W_n1)
    )
    log_prod = float(np.sum((head[1:] / W_n1) * np.log(W[1:] / head[1:])))
    margin_product = -math.expm1(math.log(W_n1 / S_n1) + log_prod)

    margins = (margin_power, margin_product)
    return ConditionReport(
        name="existence",
        holds=all(m > STRICT_TOL for m in margins),
        margins=margins,
        details=("power margin (log)", "product margin"),
        boundary=any(abs(m) <= STRICT_TOL for m in margins),
    )


def tail_sum_maximizer(head) -> float:
    """The total weight W_n = W_{n-1} S_{n-1} / S_{n-2} at which the
    right side of the induction bound (see ``induction_gap``) peaks.  Raises
    ``InputError`` where it overflows float64."""
    w = _head_weights(head)
    value = float(w.W[-1]) * (float(w.S[-1]) / float(w.S[-2]))
    if not 0.0 < value < math.inf:
        raise InputError("the maximizing total weight is out of float64 range")
    return value


def induction_gap(head, W_n: float) -> float:
    """Log-domain gap (left minus right) of the induction step behind the
    power margin of ``existence_check``:

        (S_{n-2}/S_{n-1})^{S_{n-2}} W_{n-1}^{W_{n-1}}
            >= (S_{n-1}/S_n)^{S_{n-1}} W_n^{W_{n-1}},

    where S_n = S_{n-1} + W_n.  The gap vanishes at the maximizing W_n.
    """
    w = _head_weights(head)
    if W_n <= 0.0:
        raise InputError("W_n must be positive")
    W_n1 = float(w.W[-1])
    S_n2 = float(w.S[-2])
    S_n1 = float(w.S[-1])
    S_n = S_n1 + W_n
    left = S_n2 * math.log(S_n2 / S_n1) + W_n1 * math.log(W_n1)
    right = S_n1 * math.log(S_n1 / S_n) + W_n1 * math.log(W_n)
    return left - right
