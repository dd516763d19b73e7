"""Numeric oracles: exact lattice maximization of the reduced objective on
boxes of up to four dimensions, multistart violation search in data space,
and tail-weight region scans.

All randomness flows through a counter-based generator keyed by
(seed, trial), so results are reproducible and independent of evaluation
order.  Both grids and the multistart ascent evaluate the reduced objective
from the table ``conditions.ReducedProblem``; the two grids share one
lattice body, a branch and bound over index blocks that returns the maximum
of the filled lattice (ties break to the lexicographically smallest index).
It halves the blocks it cannot rule out down to single cells, in memory
bounded by ``_CELL_CAP``.

Both multistart searches run a batched line ascent over blocks of trials:
per coordinate and step size, one array call evaluates the candidates of
every walk in the block and the greedy walk is replayed from the values.
It reaches exactly the points and values of the serial one-point walk.
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
from .functionals import _increment, violation_tolerance
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

# Lattice maxima are limited to four box dimensions; larger instances fall
# back to multistart.
GRID_DIM_LIMIT = 4

# A walk moves at most _MAX_MOVES steps along one coordinate at one step
# size.  Its rounds look 4, 8, 16, ... steps ahead on each side, and at
# least _ROUND steps summed over their rows: a small round costs mostly
# fixed overhead.  The candidates of one round and the rows of one
# evaluation stay under _CELL_CAP float64 elements, for any trial count;
# the lattice maxima bound and evaluate at most _CELL_CAP // (2 * dims)
# blocks at a time.
_MAX_MOVES = 50
_ROUND = 32
_CELL_CAP = 1 << 16

# Sampling range for data entries: the functionals are scale invariant,
# so only the dynamic range matters.
_LOG10_RANGE = 3.0


@dataclass(frozen=True)
class SearchConfig:
    seed: int = 0
    trials: int = 200
    local_steps: int = 8
    box_padding: float = 1e-3

    def __post_init__(self):
        if self.trials < 1:
            raise InputError("trials must be at least 1")
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
    """The first maximum in row-major order of ``combine(L1, L2)`` on the
    lattice over the first ``dims`` box axes, where L1 and L2 are the
    per-axis log-terms summed in axis order, as in ``np.argmax`` of the
    filled lattice.

    An exact branch and bound over index blocks.  The first log-terms rise
    along every axis and the second fall, and ``combine`` rises in both, so
    the prefix maxima of the first at a block's top corner and the suffix
    maxima of the second at its bottom corner bound every cell of the block.
    A block is dropped only when its bound is below the best cell found so
    far by more than 1e-12 relative, which covers rounding in ``combine``;
    the rest are halved along their longest axis down to single cells.  A
    cell sums its own log-terms in the same order as the filled lattice, so
    its value is bit-identical to it.  The table's log-terms are never NaN
    or +inf, so no cell is NaN; a bound may overflow to +inf.
    """
    axes = [_axis(float(rp.upper[i]), resolution) for i in range(dims)]
    terms = [rp.log_terms(axes[i], i) for i in range(dims)]
    top = [np.maximum.accumulate(t1) for t1, _ in terms]
    bottom = [np.maximum.accumulate(t2[::-1])[::-1] for _, t2 in terms]
    frontier = max(1, _CELL_CAP // (2 * dims))
    best = None  # (value, negated index): larger is better

    def visit(J: np.ndarray) -> None:
        """Evaluate the cells with index columns ``J`` and keep the best."""
        nonlocal best
        L1, L2 = (sum(t[j][J[i]] for i, t in enumerate(terms)) for j in (0, 1))
        vals = combine(L1, L2)
        tied = np.flatnonzero(vals == vals.max())
        k = tied[np.lexsort(J[::-1, tied])[0]]  # lexsort's last key leads
        key = (float(vals[k]), tuple((-J[:, k]).tolist()))
        if best is None or key > best:
            best = key

    # seed the best with the corners and the point 1.0 (where F = 1)
    seed = [np.unique([0, resolution - 1, *np.flatnonzero(a == 1.0)]) for a in axes]
    visit(np.stack(np.meshgrid(*seed, indexing="ij")).reshape(dims, -1))

    stack = [(np.zeros((dims, 1), np.intp), np.full((dims, 1), resolution - 1))]
    while stack:
        lo, hi = stack.pop()
        if lo.shape[1] > frontier:
            stack.append((lo[:, frontier:], hi[:, frontier:]))
            lo, hi = lo[:, :frontier], hi[:, :frontier]
        with np.errstate(all="ignore"):
            bound = combine(
                sum(t[hi[i]] for i, t in enumerate(top)),
                sum(t[lo[i]] for i, t in enumerate(bottom)),
            )
        alive = ~(bound < best[0] - 1e-12 * abs(best[0]))
        lo, hi = lo[:, alive], hi[:, alive]
        cell = (lo == hi).all(axis=0)
        if cell.any():
            visit(lo[:, cell])
        lo, hi = lo[:, ~cell], hi[:, ~cell]
        if lo.size:
            size = hi - lo + 1
            ax, r = np.argmax(size, axis=0), np.arange(lo.shape[1])
            upper_lo, lower_hi = lo.copy(), hi.copy()
            upper_lo[ax, r] += size[ax, r] // 2
            lower_hi[ax, r] = upper_lo[ax, r] - 1
            stack.append((np.hstack([lo, upper_lo]), np.hstack([lower_hi, hi])))

    idx = [-j for j in best[1]]
    return SearchResult(
        best_value=best[0],
        best_point=tuple(float(axes[i][j]) for i, j in enumerate(idx)),
        trials_run=resolution**dims,
    )


def grid_max_F(w: WeightSequence, resolution: int) -> SearchResult:
    """Exact lattice maximization of the reduced objective over the closed
    box, faces included: the maximum over all ``resolution**(n-1)`` cells,
    which ``trials_run`` counts.  Deterministic; ties go to the first
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


def _values(fun, Z: np.ndarray, owner: np.ndarray, i: int, pos: np.ndarray):
    """``fun`` at the rows ``Z[owner]`` with coordinate ``i`` set to ``pos``,
    evaluated in chunks of at most ``_CELL_CAP`` elements.  Values may be
    NaN or infinite without a warning; NaN never wins in the walk."""
    out = np.empty(pos.size)
    rows = max(1, _CELL_CAP // Z.shape[1])
    for a in range(0, pos.size, rows):
        cand = Z[owner[a : a + rows]]
        cand[:, i] = pos[a : a + rows]
        with np.errstate(all="ignore"):
            out[a : a + rows] = fun(cand)
    return out


def _climb(fun, Z, best, i, step, lo, hi) -> None:
    """The greedy walk on coordinate ``i`` of every row of ``Z`` at one step
    size, updating ``Z`` and its values ``best`` in place.

    From c with value b the walk tries c + step, then c - step (clamped to
    [lo, hi]), moves to the first that beats b, and repeats up to
    ``_MAX_MOVES`` times.  A round evaluates the next k positions on both
    sides, reached by repeated addition as the walk reaches them, and the
    way back from each unless it lands exactly on the previous position
    (which cannot win); then it replays the walk.  A walk that runs past
    the k positions or takes a way back goes on in the next round.
    """
    left = np.full(len(Z), _MAX_MOVES)
    act = np.arange(len(Z))
    steps = np.array([[step], [-step]])
    k = 2
    while act.size:
        A, r = act.size, np.arange(act.size)
        k = min(max(2 * k, _ROUND // A), int(left[act].max()))
        inc = np.empty((A, 2, k + 1))
        inc[:, :, 1:] = steps
        inc[:, :, 0] = Z[act, i][:, None]
        line = np.clip(np.add.accumulate(inc, axis=-1), lo, hi)
        back = np.clip(line[:, :, 1:] - steps, lo, hi)
        probe = back != line[:, :, :-1]
        owner = np.concatenate([np.repeat(act, 2 * k), act[np.nonzero(probe)[0]]])
        pos = np.concatenate([line[:, :, 1:].ravel(), back[probe]])
        vals = _values(fun, Z, owner, i, pos)
        v = vals[: 2 * A * k].reshape(A, 2, k)
        vb = np.full((A, 2, k), np.nan)
        vb[probe] = vals[2 * A * k :]

        # The walk takes the + line if its first step wins, else the - line
        # if that one does, and climbs while each step wins; along + the way
        # back is tried after the next step fails, along - before it.  ``run``
        # counts the steps up to the first that fails (k if none does), ``m``
        # the moves within the budget.
        b, rest = best[act], left[act]
        up = v[:, 0, 0] > b
        side = np.where(up, 0, 1)
        start = up | (v[:, 1, 0] > b)
        line, back, v, vb = line[r, side], back[r, side], v[r, side], vb[r, side]
        wins_back = vb > v
        on = (v[:, 1:] > v[:, :-1]) & (up[:, None] | ~wins_back[:, :-1])
        on = np.concatenate([on, np.zeros((A, 1), bool)], axis=1)
        run = 1 + np.argmin(on, axis=1)
        m = np.where(start, np.minimum(run, rest), 0)
        rest -= m
        at = np.maximum(m - 1, 0)
        # a walk that stopped inside the round, moves left, takes a winning way back
        leave = (m > 0) & (m == run) & (run < k) & (rest > 0) & wins_back[r, at]
        Z[act, i] = np.where(leave, back[r, at], line[r, m])
        best[act] = np.where(leave, vb[r, at], np.where(m > 0, v[r, at], b))
        left[act] = rest - leave
        act = act[(left[act] > 0) & (leave | (m == k))]


def _multistart(fun, config: SearchConfig, draw, steps: float, lo: float, hi: float):
    """Yield (value, point) per trial in trial order: ``draw(rng)`` from the
    trial's own stream, refined by the walk with step ``steps`` halved
    ``config.local_steps`` times.  A block of trials walks together."""
    block = max(1, _CELL_CAP // (4 * _MAX_MOVES))  # 4: two sides, way back
    for first in range(0, config.trials, block):
        trials = range(first, min(first + block, config.trials))
        Z = np.array([draw(_trial_rng(config.seed, t)) for t in trials])
        best = _values(fun, Z, np.arange(len(Z)), 0, Z[:, 0])
        for p in range(config.local_steps):
            for i in range(Z.shape[1]):
                _climb(fun, Z, best, i, steps * 0.5**p, lo, hi)
        yield from zip(best.tolist(), Z)


def multistart_max_F(w: WeightSequence, config: SearchConfig) -> SearchResult:
    """Multistart coordinate ascent of the reduced objective over the open
    box; used when the box has too many dimensions for a lattice."""
    dims = w.n - 1
    rp = ReducedProblem(w)
    upper = rp.upper

    def fun(U: np.ndarray) -> np.ndarray:
        return rp.F(*rp.log_products(U * upper))

    pad = config.box_padding
    best_u = np.minimum(1.0 / upper, 1.0 - pad)  # constant point
    best_val = float(fun(best_u))

    def draw(rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(pad, 1.0 - pad, dims)

    for val, u in _multistart(fun, config, draw, 0.25, pad, 1.0 - pad):
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

        def mean(vals, m: int, r: float) -> mpmath.mpf:
            """The r-mean of vals[:m] under the weights w_1..w_m."""
            pairs = list(zip(wv[:m], vals[:m]))
            Wm = mpmath.fsum(wv[:m])
            if r == 0.0:
                return mpmath.exp(mpmath.fsum(a * mpmath.log(b) for a, b in pairs) / Wm)
            if r == 1.0:
                return mpmath.fsum(a * b for a, b in pairs) / Wm
            return (mpmath.fsum(a * b**r for a, b in pairs) / Wm) ** (1 / mpmath.mpf(r))

        def value(m: int) -> mpmath.mpf:
            if m == 1:
                return mpmath.mpf(0)
            arith = [mean(xv, i, 1.0) for i in range(1, m + 1)]
            smean = [mean(xv, i, s) for i in range(1, m + 1)]
            return mpmath.fsum(wv[:m]) * (mean(arith, m, s) - mean(smean, m, 1.0))

        return float(value(k) - value(k - 1))


def violation_search(w: WeightSequence, s: float, config: SearchConfig) -> SearchResult:
    """Multistart attack on the level-n increment: data drawn log-uniform
    over [1e-3, 1e3] per coordinate, refined by coordinate ascent on the
    negated increment.  A positive best value beyond the rounding tolerance
    is re-verified in high precision before being flagged."""
    n = w.n

    def fun(Z: np.ndarray) -> np.ndarray:
        return -_increment(w, np.exp(Z), s, n)

    def draw(rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(-_LOG10_RANGE, _LOG10_RANGE, n) * math.log(10.0)

    best_val = -math.inf
    best_x: Optional[np.ndarray] = None
    for val, z in _multistart(
        fun, config, draw, math.log(2.0), math.log(1e-6), math.log(1e6)
    ):
        if val > best_val:
            best_val = val
            best_x = np.exp(z)
    if best_x is None:
        raise InputError("the increment is NaN at every trial point")
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
    the lattice maximum of the reduced objective.  Fields that do not
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
