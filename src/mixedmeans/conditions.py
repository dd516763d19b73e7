"""Weight-sequence admissibility checks.

Three sufficient conditions for the level-n mixed arithmetic-geometric mean
increment inequality, ordered by generality:

* Nanjundiah: W_n w_k - W_k w_n > 0 for 2 <= k <= n-1 (works for all
  exponent pairs);
* Holland: W_{n-1}^2 >= w_n * (W_1 + ... + W_{n-2});
* Gao: a strict-excess regime where Holland fails but the excess
  e = w_n S_{n-2} / W_{n-1}^2 - 1 stays below w_1/w_n and two product
  bounds hold.

``existence_check`` verifies that for any positive head w_1..w_{n-1} the
critical tail weight (which puts Holland exactly on its boundary) has a
right-neighborhood where the Gao conditions hold.

``ReducedProblem`` is the one table of the reduced problem (box, exponents,
second bases, corner log-products), built once per weight sequence by
``ReducedProblem.of``.  The Gao product margins read its corners;
``reduction`` and ``search`` build F, g, the elimination step, the curve
and the bounds from it.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .means import InputError, WeightSequence, _positive_array

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
    margin = float(w.W[-2]) ** 2 - float(w.w[-1]) * S_n2
    return ConditionReport(
        name="holland",
        holds=margin >= 0.0,
        margins=(margin,),
        details=("W_{n-1}^2 - w_n*S_{n-2}",),
    )


def _excess(w: WeightSequence) -> float:
    """e = w_n S_{n-2} / W_{n-1}^2 - 1, the amount by which Holland fails."""
    return float(w.w[-1]) * float(w.S[-3]) / float(w.W[-2]) ** 2 - 1.0


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
        self.log_p = (math.log(self.p[0]), math.log(self.p[1]))

    @classmethod
    def of(cls, w: WeightSequence) -> ReducedProblem:
        """The table of ``w``, built on first use and kept in its ``reduced``
        slot; a build that raises is not kept, so every use raises."""
        if not hasattr(w, "reduced"):
            w.reduced = cls(w)
        return w.reduced

    @property
    def representable(self) -> bool:
        """Whether every exponent is positive and every box bound exceeds 1,
        as the faces of the box need; float64 may round them to 0 or 1."""
        ok = (self.alpha > 0.0) & (self.beta > 0.0) & (self.upper > 1.0)
        return bool(ok.all())

    def second(self, y, i):
        """The second bases second_i(y) on axis or axes ``i``, clipped at 0."""
        return np.maximum((self.W_next[i] - self.W_prev[i] * y) / self.w_next[i], 0.0)

    def log_terms(self, y, i):
        """(alpha_i log y_i, beta_i log second_i(y)) on axis or axes ``i``;
        a zero base gives -inf even where its exponent underflowed to 0."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return tuple(
                np.where(base == 0.0, -np.inf, e * np.log(base))
                for e, base in ((self.alpha[i], y), (self.beta[i], self.second(y, i)))
            )

    def log_products(self, y):
        """log of both products of F over the leading coordinates, for points
        y of shape (..., d), summed over the last axis in axis order (a
        running sum, for any d; numpy's pairwise ``sum`` is not in order past
        seven axes); arrays (0-d for one point) for ``F`` and ``log_g``."""
        terms = self.log_terms(y, slice(0, np.shape(y)[-1]))
        return tuple(np.asarray(t.cumsum(axis=-1)[..., -1]) for t in terms)

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
        head = slice(0, self.upper.size - 1)
        log_c_top = np.sum(self.alpha[head] * np.log(self.upper[head]))
        log_cp_zero = np.sum(self.beta[head] * np.log(self.second_max[head]))
        L = self.log_g(
            np.array([log_c_top, -np.inf]), np.array([-np.inf, log_cp_zero])
        )
        return float(L[0]), float(L[1])

    def interior_bound(self, e: float) -> float:
        """Bound on g at interior critical points past d_0 = (w_1/w_n)/e:
        g at the origin times 1 + e W_{n-1}/w_1."""
        return math.exp(self.log_corners[1]) * (1.0 + e * self.W_n1 / self.w_1)


def gao_conditions(w: WeightSequence) -> ConditionReport:
    """Four margins: (a) strict positivity of the excess e, (b) e bounded by
    w_1/w_n, (c) the head product bound, (d) the tail product bound.  The
    products are the corner values of the reduced objective g, accumulated
    in the log domain; their margins are reported as 1 minus the value.
    """
    if w.n < 3:
        raise NotApplicableError("needs at least three weights")
    rp = ReducedProblem.of(w)
    e = _excess(w)
    margin_b = rp.w_1 / rp.w_n - e
    margin_c = -math.expm1(rp.log_corners[0])
    margin_d = 1.0 - rp.interior_bound(e)

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


def _head_sums(head) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A validated head w_1..w_{n-1} with its prefix sums W and S."""
    head = _positive_array(head, "head weights")
    if head.size < 2:
        raise InputError("head must have at least two weights")
    W = np.cumsum(head)
    return head, W, np.cumsum(W)


def critical_weight(head) -> float:
    """The tail weight W_{n-1}^2 / S_{n-2} that, appended to the head,
    makes the excess vanish (Holland exactly on its boundary)."""
    _, W, S = _head_sums(head)
    return float(W[-1]) ** 2 / float(S[-2])


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
    head, W, S = _head_sums(head)
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
    right side of the induction bound (see ``induction_gap``) peaks."""
    _, W, S = _head_sums(head)
    return float(W[-1]) * float(S[-1]) / float(S[-2])


def induction_gap(head, W_n: float) -> float:
    """Log-domain gap (left minus right) of the induction step behind the
    power margin of ``existence_check``:

        (S_{n-2}/S_{n-1})^{S_{n-2}} W_{n-1}^{W_{n-1}}
            >= (S_{n-1}/S_n)^{S_{n-1}} W_n^{W_{n-1}},

    where S_n = S_{n-1} + W_n.  The gap vanishes at the maximizing W_n.
    """
    head, W, S = _head_sums(head)
    if W_n <= 0.0:
        raise InputError("W_n must be positive")
    W_n1 = float(W[-1])
    S_n2 = float(S[-2])
    S_n1 = float(S[-1])
    S_n = S_n1 + W_n
    left = S_n2 * math.log(S_n2 / S_n1) + W_n1 * math.log(W_n1)
    right = S_n1 * math.log(S_n1 / S_n) + W_n1 * math.log(W_n)
    return left - right
