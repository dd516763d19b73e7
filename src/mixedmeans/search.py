"""Numeric oracles: dense grid maximization of the reduced objective on
small boxes, multistart violation search in data space, and tail-weight
region scans.

All randomness flows through a counter-based generator keyed by
(seed, trial), so results are reproducible and independent of evaluation
order.  Grid argmax ties break to the lexicographically smallest index.
Both grids and the multistart ascent evaluate the reduced objective from
the table ``conditions.ReducedProblem``; the two grids share one lattice.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import mpmath
import numpy as np

from .conditions import (
    NotApplicableError,
    ReducedProblem,
    gao_conditions,
    holland_condition,
)
from .functionals import rado_increment, violation_tolerance
from .means import InputError, WeightSequence, _positive_array
from .reduction import boundary_bound, interior_bound

__all__ = [
    "GRID_DIM_LIMIT",
    "SearchConfig",
    "SearchResult",
    "grid_max_F",
    "grid_max_envelope",
    "multistart_max_F",
    "violation_search",
    "weight_scan",
    "SCAN_FIELDS",
]

# Dense grids are limited to four box dimensions; larger instances fall
# back to multistart.
GRID_DIM_LIMIT = 4

# Sampling range for data entries: the functionals are scale invariant,
# so only the dynamic range matters.
_LOG10_RANGE = 3.0


@dataclass(frozen=True)
class SearchConfig:
    seed: int = 0
    trials: int = 200
    local_steps: int = 8
    box_padding: float = 1e-3
    grid_resolution: int = 201

    def __post_init__(self):
        if self.trials < 1:
            raise InputError("trials must be at least 1")
        if self.grid_resolution < 2:
            raise InputError("grid resolution must be at least 2")
        if not 0.0 < self.box_padding < 1.0:
            raise InputError("box padding must be in (0, 1)")
        if self.local_steps < 0:
            raise InputError("local steps must be nonnegative")


@dataclass(frozen=True)
class SearchResult:
    best_value: float
    best_point: tuple
    trials_run: int
    seed: Optional[int] = None
    violation: bool = False

    def to_dict(self) -> dict:
        return {
            "best_value": self.best_value,
            "best_point": list(self.best_point),
            "trials_run": self.trials_run,
            "seed": self.seed,
            "violation": self.violation,
        }


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Counter-based stream for one trial; parallel-safe by construction."""
    return np.random.Generator(np.random.Philox(key=[seed & (2**64 - 1), trial]))


def _axis(upper: float, resolution: int) -> np.ndarray:
    """Uniform lattice over [0, upper] adjusted so it contains 1.0 exactly
    (the constant-data image point)."""
    pts = np.linspace(0.0, upper, resolution)
    pts[int(np.argmin(np.abs(pts - 1.0)))] = 1.0
    return pts


def _lattice_max(
    rp: ReducedProblem, dims: int, resolution: int, combine
) -> SearchResult:
    """Evaluate ``combine(L1, L2)`` on the lattice over the first ``dims``
    box axes, where L1 and L2 are the summed per-axis log-terms, and take
    the argmax.  ``combine`` may overwrite L1 and L2: at most these two
    full-size arrays are alive at once."""
    axes = [_axis(float(rp.upper[i]), resolution) for i in range(dims)]
    terms = [rp.log_terms(axes[i], i) for i in range(dims)]
    L1, L2 = (
        sum(np.meshgrid(*(t[j] for t in terms), indexing="ij", sparse=True))
        for j in (0, 1)
    )
    vals = combine(L1, L2)
    idx = np.unravel_index(int(np.argmax(vals)), vals.shape)
    return SearchResult(
        best_value=float(vals[idx]),
        best_point=tuple(float(axes[i][idx[i]]) for i in range(dims)),
        trials_run=int(vals.size),
    )


def grid_max_F(w: WeightSequence, resolution: int) -> SearchResult:
    """Exhaustive lattice maximization of the reduced objective over the
    closed box, faces included.  Deterministic; ties go to the first
    lattice point in row-major order."""
    dims = w.n - 1
    if dims > GRID_DIM_LIMIT:
        raise InputError(f"grid limited to {GRID_DIM_LIMIT} box dimensions")
    if resolution < 2:
        raise InputError("grid resolution must be at least 2")
    rp = ReducedProblem(w)
    return _lattice_max(rp, dims, resolution, rp.F)


def grid_max_envelope(w: WeightSequence, resolution: int) -> SearchResult:
    """Lattice maximization over the head coordinates with the last
    coordinate maximized analytically, by the same formula as
    ``eliminate_last``; agrees with ``grid_max_F`` up to grid placement of
    the eliminated coordinate."""
    if w.n < 3:
        raise InputError("need at least three entries")
    dims = w.n - 2
    if dims > GRID_DIM_LIMIT:
        raise InputError(f"grid limited to {GRID_DIM_LIMIT} box dimensions")
    rp = ReducedProblem(w)
    return _lattice_max(rp, dims, resolution, rp.envelope)


def _coordinate_ascent(fun, z, steps, lo, hi, local_steps):
    """Greedy coordinate ascent with a geometrically shrinking step."""
    best = fun(z)
    for p in range(local_steps):
        step = steps * 0.5**p
        for i in range(z.size):
            for _ in range(50):
                moved = False
                for sgn in (1.0, -1.0):
                    cand = z.copy()
                    cand[i] = min(max(cand[i] + sgn * step, lo), hi)
                    val = fun(cand)
                    if val > best:
                        best = val
                        z = cand
                        moved = True
                        break
                if not moved:
                    break
    return best, z


def multistart_max_F(w: WeightSequence, config: SearchConfig) -> SearchResult:
    """Multistart coordinate ascent of the reduced objective over the open
    box; used when the box has too many dimensions for a dense grid."""
    dims = w.n - 1
    rp = ReducedProblem(w)
    upper = rp.upper

    def fun(u: np.ndarray) -> float:
        return float(rp.F(*rp.log_products(u * upper)))

    pad = config.box_padding
    best_val = fun(np.minimum(1.0 / upper, 1.0 - pad))  # constant point
    best_u = np.minimum(1.0 / upper, 1.0 - pad)
    for t in range(config.trials):
        rng = _trial_rng(config.seed, t)
        u = rng.uniform(pad, 1.0 - pad, dims)
        val, u = _coordinate_ascent(fun, u, 0.25, pad, 1.0 - pad, config.local_steps)
        if val > best_val:
            best_val, best_u = val, u
    return SearchResult(
        best_value=best_val,
        best_point=tuple(float(v) for v in best_u * upper),
        trials_run=config.trials,
        seed=config.seed,
    )


def _rado_increment_precise(w: WeightSequence, x, s: float, k: int) -> float:
    """Independent high-precision re-evaluation of the level-k increment."""
    with mpmath.workdps(50):
        wv = [mpmath.mpf(float(v)) for v in w.w]
        xv = [mpmath.mpf(float(v)) for v in np.asarray(x, dtype=float)]

        def value(m: int) -> mpmath.mpf:
            if m == 1:
                return mpmath.mpf(0)
            Wm = mpmath.fsum(wv[:m])
            arith, smean = [], []
            for i in range(1, m + 1):
                Wi = mpmath.fsum(wv[:i])
                arith.append(mpmath.fsum(a * b for a, b in zip(wv[:i], xv[:i])) / Wi)
                if s == 0.0:
                    smean.append(
                        mpmath.exp(
                            mpmath.fsum(a * mpmath.log(b) for a, b in zip(wv[:i], xv[:i]))
                            / Wi
                        )
                    )
                else:
                    smean.append(
                        (mpmath.fsum(a * b**s for a, b in zip(wv[:i], xv[:i])) / Wi)
                        ** (1 / mpmath.mpf(s))
                    )
            if s == 0.0:
                outer = mpmath.exp(
                    mpmath.fsum(a * mpmath.log(b) for a, b in zip(wv[:m], arith)) / Wm
                )
            else:
                outer = (
                    mpmath.fsum(a * b**s for a, b in zip(wv[:m], arith)) / Wm
                ) ** (1 / mpmath.mpf(s))
            inner = mpmath.fsum(a * b for a, b in zip(wv[:m], smean)) / Wm
            return Wm * (outer - inner)

        return float(value(k) - value(k - 1))


def violation_search(w: WeightSequence, s: float, config: SearchConfig) -> SearchResult:
    """Multistart attack on the level-n increment: data drawn log-uniform
    over [1e-3, 1e3] per coordinate, refined by coordinate ascent on the
    negated increment.  A positive best value beyond the rounding tolerance
    is re-verified in high precision before being flagged."""
    n = w.n
    best_val = -math.inf
    best_x: Optional[np.ndarray] = None
    for t in range(config.trials):
        rng = _trial_rng(config.seed, t)
        z0 = rng.uniform(-_LOG10_RANGE, _LOG10_RANGE, n) * math.log(10.0)

        def fun(z: np.ndarray) -> float:
            return -rado_increment(w, np.exp(z), s, n)

        val, z = _coordinate_ascent(
            fun, z0, math.log(2.0), math.log(1e-6), math.log(1e6), config.local_steps
        )
        if val > best_val:
            best_val = val
            best_x = np.exp(z)
    assert best_x is not None
    violation = False
    if best_val > violation_tolerance(w, best_x):
        violation = _rado_increment_precise(w, best_x, s, n) < -1e-6
    return SearchResult(
        best_value=best_val,
        best_point=tuple(float(v) for v in best_x),
        trials_run=config.trials,
        seed=config.seed,
        violation=violation,
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


def weight_scan(head, tail_range, steps: int, resolution: int) -> list[dict]:
    """Sweep the tail weight over a geometric grid and report, per value,
    the Holland margin, the four Gao margins, the two analytic bounds, and
    the dense-grid maximum of the reduced objective.  Fields that do not
    apply (threshold undefined, box too large for a grid) are None."""
    head = _positive_array(head, "head weights")
    lo, hi = float(tail_range[0]), float(tail_range[1])
    if not (lo > 0.0 and hi >= lo):
        raise InputError("tail range must satisfy 0 < lo <= hi")
    if steps < 2:
        raise InputError("need at least two steps")
    rows: list[dict] = []
    for j in range(steps):
        w_n = lo * (hi / lo) ** (j / (steps - 1))
        w = WeightSequence(np.append(head, w_n))
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
        if w.n - 1 <= GRID_DIM_LIMIT:
            row["grid_max"] = grid_max_F(w, resolution).best_value
        rows.append(row)
    return rows
