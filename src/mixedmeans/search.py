"""Numeric oracles: exact lattice maximization of the reduced objective on
boxes of up to four dimensions, its multistart ascent beyond, and a
multistart violation search in data space.  The route policy that decides
when they run (``reduction.certify``, ``reduction.weight_scan``) lives in
the reduction module, which imports this one.

All randomness flows through a counter-based generator keyed by
(seed, trial), so results are reproducible and independent of evaluation
order.  Both grids and the multistart ascent evaluate the reduced objective
from the table ``conditions.ReducedProblem``, built once per weight
sequence; the two grids share one lattice body, a branch and bound over
index blocks that returns the maximum of the filled lattice (ties break to
the lexicographically smallest index).  It halves the blocks it cannot
rule out down to single cells, in memory bounded by ``_CELL_CAP``.

Both multistart searches run a batched line ascent over blocks of trials:
per coordinate and step size, a round evaluates the candidates of every
walk in one array call and replays the greedy walk in array operations.  A
candidate of the reduced objective recomputes only the log-terms of the
axis that moves.  The violation search walks in log-data on the level-n
increment in the direct form ``functionals._top_increment``; once at most
``_LIST_WALKS`` walks move, each goes on alone on a scalar line of it and
evaluates only the points it visits.  Either way the walks reach exactly
the points and values of the serial one-point walk.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import mpmath
import numpy as np

from .conditions import ReducedProblem
from .functionals import _top_increment, _top_lines, violation_tolerance
from .means import InputError, WeightSequence

__all__ = [
    "GRID_DIM_LIMIT",
    "SearchConfig",
    "SearchResult",
    "grid_max_F",
    "grid_max_envelope",
    "multistart_max_F",
    "violation_search",
]

# Lattice maxima are limited to four box dimensions; larger instances fall
# back to multistart.
GRID_DIM_LIMIT = 4

# A walk moves at most _MAX_MOVES steps along one coordinate at one step
# size.  Its rounds look 4, 8, 16, ... steps ahead on each side, and at
# least _ROUND steps summed over their rows: a small round costs mostly
# fixed overhead.  At most _LIST_WALKS walks with a scalar line walk alone
# (see _climb).  The candidates of one round and the rows of one evaluation
# stay under _CELL_CAP float64 elements, for any trial count; the lattice
# maxima bound and evaluate at most _CELL_CAP // (2 * dims) blocks at a time.
_MAX_MOVES = 50
_ROUND = 32
_LIST_WALKS = 4
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
    """Counter-based stream for one trial; parallel-safe by construction.
    The key's low word is the seed modulo 2**64 and its high word the trial."""
    key = (seed & (2**64 - 1)) | trial << 64
    return np.random.Generator(np.random.Philox(key=key))


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
    if dims > GRID_DIM_LIMIT:
        raise InputError(f"grid limited to {GRID_DIM_LIMIT} box dimensions")
    if resolution < 2:
        raise InputError("grid resolution must be at least 2")
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
    seed = [
        sorted({0, resolution - 1, *np.flatnonzero(a == 1.0).tolist()}) for a in axes
    ]
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
    rp = ReducedProblem.of(w)
    return _lattice_max(rp, w.n - 1, resolution, rp.F)


def grid_max_envelope(w: WeightSequence, resolution: int) -> SearchResult:
    """Lattice maximization over the head coordinates with the last
    coordinate maximized analytically, by the same formula as
    ``eliminate_last``; agrees with ``grid_max_F`` up to grid placement of
    the eliminated coordinate."""
    if w.n < 3:
        raise InputError("need at least three entries")
    rp = ReducedProblem.of(w)
    return _lattice_max(rp, w.n - 2, resolution, rp.envelope)


def _values(fun, Z: np.ndarray, owner: np.ndarray, i: int, pos: np.ndarray):
    """Line evaluator: ``fun`` at the rows ``Z[owner]`` with coordinate ``i``
    set to ``pos``, in chunks of at most ``_CELL_CAP`` elements.  Values may
    be NaN or infinite (``_multistart`` silences the warnings); NaN never wins."""
    out = np.empty(pos.size)
    rows = max(1, _CELL_CAP // Z.shape[1])
    for a in range(0, pos.size, rows):
        cand = Z[owner[a : a + rows]]
        cand[:, i] = pos[a : a + rows]
        out[a : a + rows] = fun(cand)
    return out


class _LinesF:
    """Line evaluator of F (see ``_values``) for the walk block ``Z`` of box
    points scaled to [0, 1].  A candidate on axis ``i`` adds that axis's two
    log-terms to its row's sum over the axes before ``i``, then the cached
    terms of the later axes one by one: the order of ``log_products``, so it
    is F of the row bit for bit.  A new ``i`` refreshes the moved axis' terms."""

    def __init__(self, rp: ReducedProblem, Z: np.ndarray):
        self.rp, self.axis, self.before = rp, 0, None
        terms = np.array(rp.log_terms(Z * rp.upper, slice(None)))
        self.terms = terms.transpose(2, 0, 1).copy()  # (dims, 2, rows)

    def __call__(self, Z, owner, i, pos):
        rp, T = self.rp, self.terms
        if i != self.axis:
            j, self.axis = self.axis, i
            T[j] = rp.log_terms(Z[:, j] * rp.upper[j], j)
            self.before = T[:i].cumsum(axis=0)[-1] if i else None
        out = np.empty(pos.size)
        rows = max(1, _CELL_CAP // T[..., 0].size)
        for a in range(0, pos.size, rows):
            o = owner[a : a + rows]
            L = np.array(rp.log_terms(pos[a : a + rows] * rp.upper[i], i))
            if i:
                L += self.before[:, o]
            for t in np.take(T[i + 1 :], o, axis=2):
                L += t
            out[a : a + rows] = rp.F(*L)
        return out


def _climb(evaluate, Z, best, i, step, lo, hi, scalar=None) -> None:
    """The greedy walk on coordinate ``i`` of every row of ``Z`` at one step
    size, updating ``Z`` and its values ``best`` in place, by the line
    evaluator ``evaluate`` (see ``_values``).

    From c with value b the walk tries c + step, then c - step (clamped to
    [lo, hi]), moves to the first that beats b, and repeats up to
    ``_MAX_MOVES`` times.  A round evaluates the next k positions on both
    sides, reached by repeated addition as the walk reaches them, and the
    way back from each unless it lands exactly on the previous position
    (which cannot win); then it replays the walk.  A walk that runs past
    the k positions or takes a way back goes on in the next round.

    Given ``scalar``, whose ``scalar(z, i)`` maps a position to the value of
    row ``z`` with coordinate ``i`` moved there, bit for bit as ``evaluate``,
    at most ``_LIST_WALKS`` walks skip the round, each taking the serial walk
    with its moves left: a round's numpy calls cost more than one walk.
    """
    act = np.arange(len(Z))
    left = np.zeros(len(Z), np.intp) + _MAX_MOVES
    steps = np.array([[step], [-step]])
    k = 2
    while act.size:
        if scalar is not None and act.size <= _LIST_WALKS:
            for a in act.tolist():  # the serial walk, on the points it visits
                at, c, b = scalar(Z[a], i), float(Z[a, i]), float(best[a])
                for _ in range(left[a]):
                    for x in (min(max(c + step, lo), hi), min(max(c - step, lo), hi)):
                        if (v := at(x)) > b:
                            c, b = x, v
                            break
                    else:
                        break
                Z[a, i], best[a] = c, b
            return
        A, r = act.size, np.arange(act.size)
        k = min(max(2 * k, _ROUND // A), int(left[act].max()))
        line = np.empty((A, 2, k + 1))
        line[:, :, 1:] = steps
        line[:, :, 0] = Z[act, i][:, None]
        np.add.accumulate(line, axis=-1, out=line)
        np.minimum(np.maximum(line, lo, out=line), hi, out=line)
        back = line[:, :, 1:] - steps
        np.minimum(np.maximum(back, lo, out=back), hi, out=back)
        probe = back != line[:, :, :-1]
        owner = np.concatenate([act.repeat(2 * k), act[probe.nonzero()[0]]])
        pos = np.concatenate([line[:, :, 1:].ravel(), back[probe]])
        vals = evaluate(Z, owner, i, pos)
        v = vals[: 2 * A * k].reshape(A, 2, k)
        vb = np.empty((A, 2, k))
        vb.fill(np.nan)
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


def _multistart(lines, config: SearchConfig, draw, steps, lo, hi, scalar=None):
    """Yield (value, point) per trial in trial order: ``draw(rng)`` from the
    trial's own stream, refined by the walk with step ``steps`` halved
    ``config.local_steps`` times.  A block of trials ``Z`` walks together,
    by the line evaluator ``lines(Z)``; one generator is re-keyed per trial."""
    rng = _trial_rng(config.seed, 0)
    fresh = rng.bit_generator.state  # zero counter, empty buffer
    block = max(1, _CELL_CAP // (4 * _MAX_MOVES))  # 4: two sides, way back
    for first in range(0, config.trials, block):
        rows = []
        for t in range(first, min(first + block, config.trials)):
            fresh["state"]["key"][1] = t
            rng.bit_generator.state = fresh
            rows.append(draw(rng))
        Z = np.array(rows)
        evaluate = lines(Z)
        with np.errstate(all="ignore"):
            best = evaluate(Z, np.arange(len(Z)), 0, Z[:, 0])
            for p in range(config.local_steps):
                for i in range(Z.shape[1]):
                    _climb(evaluate, Z, best, i, steps * 0.5**p, lo, hi, scalar)
        yield from zip(best.tolist(), Z)


def multistart_max_F(w: WeightSequence, config: SearchConfig) -> SearchResult:
    """Multistart coordinate ascent of the reduced objective over the open
    box; used when the box has too many dimensions for a lattice.  A
    candidate recomputes only the log-terms of the axis that moves."""
    dims = w.n - 1
    rp = ReducedProblem.of(w)
    upper = rp.upper
    pad = config.box_padding
    best_u = np.minimum(1.0 / upper, 1.0 - pad)  # constant point
    best_val = float(rp.F(*rp.log_products(best_u * upper)))

    def draw(rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(pad, 1.0 - pad, dims)

    lines = functools.partial(_LinesF, rp)
    for val, u in _multistart(lines, config, draw, 0.25, pad, 1.0 - pad):
        if val > best_val:
            best_val, best_u = val, u
    return SearchResult(
        best_value=best_val,
        best_point=tuple(float(v) for v in best_u * upper),
        trials_run=config.trials,
        seed=config.seed,
    )


def _rado_increment_precise(w: WeightSequence, x, s: float, k: int) -> float:
    """Independent high-precision re-evaluation of the level-k increment,
    from 50-digit prefix sums in one pass: P_m = W_m O_m - sum_{i<=m} w_i M_i,
    with O_m the s-mean of the running arithmetic means A_1..A_m and M_i
    the s-mean of x_1..x_i."""
    with mpmath.workdps(50):
        s = mpmath.mpf(s)
        term = mpmath.log if s == 0 else (lambda v: v**s)

        def mean(total, W):
            """The s-mean whose prefix sum of w·term(v) is total."""
            return mpmath.exp(total / W) if s == 0 else (total / W) ** (1 / s)

        W = Sx = Sv = SA = SM = P = P_prev = mpmath.mpf(0)
        for wi, xi in zip(w.w[:k].tolist(), np.asarray(x, dtype=float)[:k].tolist()):
            wi, xi = mpmath.mpf(wi), mpmath.mpf(xi)
            W, Sx, Sv = W + wi, Sx + wi * xi, Sv + wi * term(xi)
            SA += wi * term(Sx / W)
            SM += wi * mean(Sv, W)
            P_prev, P = P, W * mean(SA, W) - SM
        return float(P - P_prev)


def violation_search(w: WeightSequence, s: float, config: SearchConfig) -> SearchResult:
    """Multistart attack on the level-n increment, in its direct form on
    log-data: data drawn log-uniform over [1e-3, 1e3] per coordinate, refined
    by coordinate ascent on the negated increment.  A positive best value
    beyond the rounding tolerance is re-verified at 50 digits."""
    if not math.isfinite(s):
        raise InputError("exponent s must be finite")
    n = w.n

    def fun(Z: np.ndarray) -> np.ndarray:
        return -_top_increment(w, Z, s)

    def draw(rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(-_LOG10_RANGE, _LOG10_RANGE, n) * math.log(10.0)

    best_val = -math.inf
    best_x: Optional[np.ndarray] = None
    for val, z in _multistart(
        lambda Z: functools.partial(_values, fun),
        config, draw, math.log(2.0), math.log(1e-6), math.log(1e6), _top_lines(w, s),
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
