"""Numeric oracles: the maximum of the reduced objective F over the closed
box from its candidates, the end points and the roots of the curve of its
critical points (``curve_max_F``), the same maximum raised where a
multistart ascent of F ends strictly higher (``multistart_max_F``), and a
multistart violation search in data space.  The route policy that decides
when they run (``reduction.certify``, ``reduction.weight_scan``) lives in
the reduction module, which imports this one.  F, the curve and its roots
(``ReducedProblem.curve_roots``, on the grid ``curve_grid``) are read from
the table ``conditions.ReducedProblem``, built once per weight sequence.

All randomness flows through a counter-based generator keyed by
(seed, trial), so results are reproducible and independent of evaluation
order.  Both multistart searches run a greedy line ascent over blocks of
trials, one way along each coordinate (``_walk``): a round evaluates the
next steps of every walk in one array call, and each walk takes its run of
winning steps.  A candidate of the reduced objective recomputes only the
log-terms of the axis that moves.  The violation search walks in log-data
on the level-n increment in the direct form ``functionals._top_increment``.
At s = 0, the paper's inequality, a block of at most ``_LIST_WALKS`` trials
walks each alone from its first point, on scalar lines of it
(``functionals._top_lines``), step by step; a larger block, or any at
another s, takes array rounds to the end.  Either way the walks reach
exactly the points and values of the serial one-point walk.  A violation
passes ``functionals._violates`` in floats, then at 50 digits, by the rule
``verify`` applies too (``functionals._confirmed_violation``).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .conditions import OUT_OF_RANGE, ReducedProblem
from .functionals import _confirmed_violation, _orientation, _top_increment, _top_lines
from .means import InputError, WeightSequence

__all__ = [
    "SearchConfig",
    "SearchResult",
    "curve_max_F",
    "multistart_max_F",
    "violation_search",
]

# A walk moves at most _MAX_MOVES steps along one coordinate at one step
# size.  Its rounds look 4, 8, 16, ... steps ahead on each side, and at
# least _ROUND steps summed over their rows: a small round costs mostly
# fixed overhead.  A block of at most _LIST_WALKS trials with a scalar line
# (s = 0) walks each alone (see _multistart): at n = 3..25 that took a median
# 0.18x the time of array rounds at 1 trial, 0.5x at 4, 0.8x at 8, 0.9x at 9,
# 1.1x at 12 and 1.2x at 16 (2-core host).  A round's candidates and an
# evaluation's rows stay under _CELL_CAP float64 elements, for any trial
# count.
_MAX_MOVES = 50
_ROUND = 32
_LIST_WALKS = 8
_CELL_CAP = 1 << 16

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
    """``best_value`` is the largest objective value found: F, or for the
    violation search the oriented increment (see ``violation_search``)."""

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
    At Q(d), dF/dy_i = (W_i w_n / (W_n^2 Q_i)) (G_1 - G_2/d) and every Q_i
    falls in d, so sign phi'(t) = sign R(t) in t = log d, R = log G_2 -
    log G_1 - t: the local maxima of phi are roots of R, which is strictly
    monotone past ``ReducedProblem.monotone_ends`` (``ReducedProblem.curve_roots``).

    The result is the first of the point 1, the origin, the top corner and
    Q at every root with the largest table F (``objective_F`` at
    ``best_point`` bit for bit); ``trials_run`` counts the points of the
    curve evaluated.  Raises ``InputError`` unless ``ReducedProblem.representable``.
    """
    rp = ReducedProblem.of(w)
    if not rp.representable:
        raise InputError(OUT_OF_RANGE)
    roots, evaluations = rp.curve_roots
    ends = [[1.0] * rp.upper.size, [0.0] * rp.upper.size, rp.upper.tolist()]
    Y = np.array(ends + [rp.curve_log_q(t) for t in roots])  # log Q at the roots
    np.minimum(np.exp(Y[3:], out=Y[3:]), rp.upper, out=Y[3:])
    vals = rp.F(*rp.log_products(Y))
    k = int(np.argmax(vals))
    return SearchResult(float(vals[k]), tuple(Y[k].tolist()), evaluations + len(roots))


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
        terms = rp.log_terms(Z * rp.upper, slice(None))  # (2, rows, dims)
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
            L = rp.log_terms(pos[a : a + rows] * rp.upper[i], i)
            if i:
                L += self.before[:, o]
            for t in np.take(T[i + 1 :], o, axis=2):
                L += t
            out[a : a + rows] = rp.F(*L)
        return out


def _walk(at, c, b, step, lo, hi):
    """The serial walk on the line ``at`` from c with value b: it climbs by
    +step (clamped to [lo, hi]) while each step beats the last value, or, if
    the first does not, by -step the same way, and returns the last (c, b).
    It stops at the first step that does not win, at a clamp (a candidate
    equal to c, not evaluated) or after ``_MAX_MOVES`` moves."""
    moves = 0
    for s in (step, -step):
        while moves < _MAX_MOVES:
            x = c + s
            x = lo if x < lo else hi if x > hi else x  # min(max(x, lo), hi)
            if x == c or not (v := at(x)) > b:
                break
            c, b, moves = x, v, moves + 1
        if moves:
            break
    return c, b


def _climb(evaluate, Z, best, i, step, lo, hi) -> None:
    """The greedy walk (see ``_walk``) on coordinate ``i`` of every row of
    ``Z`` at one step size, updating ``Z`` and its values ``best`` in place,
    by the line evaluator ``evaluate`` (see ``_values``).

    A round evaluates the next k positions of each walk, by repeated
    addition, on its side (+ if its first step wins, else -; both in the
    first round); each takes its run of winning steps, and those that win
    all k, which have as many moves left (a cap on k), go on.
    """
    act, steps = np.arange(len(Z)), np.full((len(Z), 2), (step, -step))  # then its side
    k, left = 2, _MAX_MOVES
    while act.size and left:
        A, sides, r = act.size, steps.shape[1], np.arange(act.size)
        k = min(max(2 * k, _ROUND // A), left)
        line = np.empty((A, sides, k + 1))
        line[:, :, 1:] = steps[..., None]
        line[:, :, 0] = Z[act, i][:, None]
        np.add.accumulate(line, axis=-1, out=line)
        np.minimum(np.maximum(line, lo, out=line), hi, out=line)
        v = evaluate(Z, act.repeat(sides * k), i, line[:, :, 1:].ravel()).reshape(A, sides, k)
        b = best[act]
        side = np.where(v[:, 0, 0] > b, 0, 1) if sides == 2 else 0  # +: the first wins
        line, v, steps = line[r, side], v[r, side], steps[r, side, None]
        # ``m`` counts the steps that win up to the first that fails (k if
        # none does); a clamp repeats the last value, so it fails
        wins = v > np.concatenate([b[:, None], v[:, :-1]], axis=1)
        m = np.logical_and.accumulate(wins, axis=1).sum(axis=1)
        Z[act, i] = line[r, m]
        best[act] = np.where(m > 0, v[r, m - 1], b)
        left -= k
        act, steps = act[m == k], steps[m == k]


def _multistart(lines, config: SearchConfig, draw, steps, lo, hi, scalar=None):
    """Yield (value, point) per trial in trial order: ``draw(rng)`` from the
    trial's own stream, refined by the walk with step ``steps`` halved
    ``config.local_steps`` times.  A block of trials ``Z`` walks together,
    by the line evaluator ``lines(Z)``, in array rounds (``_climb``).  Given
    ``scalar``, whose ``scalar(z, i)`` maps a position to the value of the
    row ``z`` (a list) with coordinate ``i`` moved there, bit for bit as
    ``lines``, a block of at most ``_LIST_WALKS`` trials walks each alone
    (``_walk``) on a list from ``scalar(z, 0)(z[0])``, step by step,
    coordinate by coordinate, trial by trial.  One generator is re-keyed per
    trial."""
    rng = _trial_rng(config.seed, 0)
    fresh = rng.bit_generator.state  # zero counter, empty buffer
    block = max(1, _CELL_CAP // (2 * _MAX_MOVES))  # 2: two sides
    for first in range(0, config.trials, block):
        rows = []
        for t in range(first, min(first + block, config.trials)):
            fresh["state"]["key"][1] = t
            rng.bit_generator.state = fresh
            rows.append(draw(rng))
        if scalar is not None and len(rows) <= _LIST_WALKS:
            with np.errstate(all="ignore"):
                zs = [z.tolist() for z in rows]
                bs = [scalar(z, 0)(z[0]) for z in zs]
                for p in range(config.local_steps):
                    step = steps * 0.5**p
                    for i in range(len(zs[0])):
                        for a, z in enumerate(zs):
                            z[i], bs[a] = _walk(scalar(z, i), z[i], bs[a], step, lo, hi)
            yield from zip(bs, np.array(zs))
            continue
        Z = np.array(rows)
        evaluate = lines(Z)
        with np.errstate(all="ignore"):
            best = evaluate(Z, np.arange(len(Z)), 0, Z[:, 0])
            for p in range(config.local_steps):
                for i in range(Z.shape[1]):
                    _climb(evaluate, Z, best, i, steps * 0.5**p, lo, hi)
        yield from zip(best.tolist(), Z)


def multistart_max_F(w: WeightSequence, config: SearchConfig) -> SearchResult:
    """Maximum of the reduced objective F over the closed box: the result of
    ``curve_max_F``, unless a walk of the multistart coordinate ascent from
    uniform draws in the box ends strictly higher.  A candidate recomputes
    only the log-terms of the axis that moves.  Raises ``InputError`` unless
    ``ReducedProblem.representable``."""
    rp = ReducedProblem.of(w)
    curve = curve_max_F(w)
    best_val, best_y = curve.best_value, curve.best_point

    def draw(rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(0.0, 1.0, w.n - 1)

    lines = functools.partial(_LinesF, rp)
    for val, u in _multistart(lines, config, draw, 0.25, 0.0, 1.0):
        if val > best_val:
            best_val, best_y = val, tuple((u * rp.upper).tolist())
    return SearchResult(best_val, best_y, config.trials, config.seed)


def violation_search(w: WeightSequence, s: float, config: SearchConfig) -> SearchResult:
    """Multistart attack on the level-n increment, in its direct form on
    log-data: data drawn log-uniform over [1e-3, 1e3] per coordinate, refined
    by coordinate ascent on the increment oriented as ``verify`` reads it:
    negated for s <= 1 and as is for s > 1, where the inequality reverses.
    So ``best_value`` > 0 is a candidate violation for every s.  The point is
    a violation if the increment breaks the rule of ``verify``
    (``functionals._confirmed_violation``) in floats, from ``best_value``,
    and again at 50 digits."""
    if w.n < 2:
        raise InputError("need at least two weights")
    if not math.isfinite(s):
        raise InputError("exponent s must be finite")
    n, sign = w.n, _orientation(s)

    def fun(Z: np.ndarray) -> np.ndarray:
        return -sign * _top_increment(w, Z, s)

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
    return SearchResult(
        best_value=best_val,
        best_point=tuple(float(v) for v in best_x),
        trials_run=config.trials,
        seed=config.seed,
        violation=_confirmed_violation(w, best_x, s, -sign * best_val, n),
    )
