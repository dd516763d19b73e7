"""Weighted power means, partial-mean sequences, and the product identities
relating the running geometric mean of running arithmetic means to its
telescoped factorizations.

Everything here is a pure function of validated, read-only arrays.  Products
of powers are evaluated in the log domain throughout: exponents built from
prefix-weight ratios become extreme for skewed weight sequences and direct
products overflow or underflow long before the result does.
``_log_means``, the logs of the running r-means of exp(z), is the one float
formula for an r-mean, here and in ``functionals`` (whose ``_top_lines``
repeats its r = 0 branch on floats, for the search at s = 0).
"""
from __future__ import annotations

import math
import sys

import numpy as np

__all__ = [
    "InputError",
    "WeightSequence",
    "as_samples",
    "power_mean",
    "partial_mean_sequence",
    "mixed_mean",
    "identity_residuals",
]

# Absolute tolerance on |sum(q) - 1| for probability weights.
NORMALIZATION_TOL = 1e-12

# Entry types that numpy reads as numbers but a JSON vector of numbers never
# holds; a set of exact types, for a check at C speed.
_NOT_NUMBERS = frozenset((bool, np.bool_, str))

# Below _SMALL_R, |r z| < 0.75 for every z = log x (|log x| <= 744.5), so
# ``_log_means`` takes its log1p branch, whose rounding does not grow like 1/|r|,
# on r alone.  From it on, log-sum-exp / r keeps its bits: 2e-13 relative at 1e-3.
_SMALL_R = 1e-3

# Below _TINY_R, the least normal float64, r z keeps only a few bits, and the
# r-mean differs from the geometric mean by at most |r| 745**2 / 2 < 1e-302 in
# the log: ``_log_means`` reads such r as 0.  Every normal r keeps its bits.
_TINY_R = sys.float_info.min


class InputError(ValueError):
    """Input violates a positivity, length, or normalization contract."""


def _positive_array(values, label: str) -> np.ndarray:
    """``values`` as a read-only 1-D float array of finite positive entries.
    Booleans and strings, which numpy would read as numbers, are rejected."""
    if isinstance(values, (list, tuple)) and not _NOT_NUMBERS.isdisjoint(
        map(type, values)
    ):
        raise InputError(f"{label} must be numbers, not booleans or strings")
    try:
        arr = np.array(values, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{label} must be numbers: {exc}") from exc
    if arr.ndim != 1 or arr.size == 0:
        raise InputError(f"{label} must be a non-empty 1-D sequence")
    if not (arr.min() > 0.0 and arr.max() < math.inf):  # NaN fails both
        raise InputError(f"{label} entries must be finite and strictly positive")
    arr.setflags(write=False)
    return arr


class WeightSequence:
    """Positive weights w_1..w_n with cached prefix sums and logs.

    ``W[i]`` is w_1 + ... + w_{i+1} (0-based storage) and ``S[k]`` is
    W_1 + ... + W_{k+1}; ``log_w`` and ``log_W`` are the logs of ``w`` and
    ``W``.  Zero weights are rejected; callers that want the zero-weight
    limit should perturb the input themselves.  So are weights whose prefix
    sums overflow float64.  The slot ``reduced`` holds the weights'
    ``conditions.ReducedProblem`` once it is built.
    """

    __slots__ = ("w", "W", "S", "log_w", "log_W", "reduced")

    def __init__(self, w):
        self.w = _positive_array(w, "weights")
        with np.errstate(over="ignore"):
            self.W = np.cumsum(self.w)
            self.S = np.cumsum(self.W)
        if not (math.isfinite(self.W[-1]) and math.isfinite(self.S[-1])):
            raise InputError("prefix sums of the weights overflow float64")
        self.log_w = np.log(self.w)
        self.log_W = np.log(self.W)
        for arr in (self.W, self.S, self.log_w, self.log_W):
            arr.setflags(write=False)

    @property
    def n(self) -> int:
        return self.w.size

    @property
    def total(self) -> float:
        return float(self.W[-1])

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return f"WeightSequence({self.w.tolist()})"


def as_samples(x, n: int | None = None) -> np.ndarray:
    """Validate a data vector: positive entries, optionally a fixed length."""
    arr = _positive_array(x, "samples")
    if n is not None and arr.size != n:
        raise InputError(f"expected {n} samples, got {arr.size}")
    return arr


def power_mean(q, x, r: float) -> float:
    """Generalized weighted power mean (sum_i q_i x_i^r)^(1/r), by ``_log_means``.

    ``q`` must be a probability vector (positive, summing to 1 within
    1e-12).  ``r = 0`` is the exact geometric-mean branch, not a small-r
    approximation; so is every |r| below 2.2e-308 (``_TINY_R``).
    """
    q = _positive_array(q, "probability weights")
    x = as_samples(x, q.size)
    if abs(float(q.sum()) - 1.0) > NORMALIZATION_TOL:
        raise InputError("probability weights must sum to 1 within 1e-12")
    return math.exp(_log_means(WeightSequence(q), np.log(x), r)[-1])


def _log_means(w: WeightSequence, z: np.ndarray, r: float) -> np.ndarray:
    """The logs of the running r-means of exp(z) along the last axis of z,
    shape (..., n): entry i is the log of the r-mean of exp(z_1..z_{i+1})
    under the weights w_1..w_{i+1} normalized by W_{i+1}; log1p of a mean of
    expm1 where ``_TINY_R`` <= |r| < ``_SMALL_R``, and the geometric mean
    below.  Every sum runs in index order, so a row of a batch gives the same
    bits as a call on it."""
    if abs(r) < _TINY_R:
        return np.cumsum(w.w * z, axis=-1) / w.W
    if r == 1.0:  # r z and / r are exact at r = 1
        return np.logaddexp.accumulate(w.log_w + z, axis=-1) - w.log_W
    if abs(r) < _SMALL_R:
        return np.log1p(np.cumsum(w.w * np.expm1(r * z), axis=-1) / w.W) / r
    return (np.logaddexp.accumulate(w.log_w + r * z, axis=-1) - w.log_W) / r


def partial_mean_sequence(w: WeightSequence, x, r: float) -> np.ndarray:
    """The running r-means: entry i is the r-mean of x_1..x_{i+1} under the
    prefix weights w_1..w_{i+1} normalized by W_{i+1}.
    """
    x = as_samples(x, w.n)
    values = np.exp(_log_means(w, np.log(x), r))
    values[0] = x[0]  # single-point mean is exact
    return values


def mixed_mean(w: WeightSequence, x, outer: float, inner: float) -> float:
    """Outer power mean of the running inner means, in logs throughout."""
    z = np.log(as_samples(x, w.n))
    return math.exp(_log_means(w, _log_means(w, z, inner), outer)[-1])


def identity_residuals(w: WeightSequence, x) -> tuple[float, float]:
    """Relative residuals |lhs/rhs - 1| of the two factorizations of the
    running geometric mean of running arithmetic means:

    * the last-step split into the length-(n-1) value and A_n, and
    * the telescoped product of successive A_i / A_{i+1} ratios.

    Both are algebraic identities; the residuals measure only rounding.
    """
    if w.n < 2:
        raise InputError("need at least two entries")
    log_A = _log_means(w, np.log(as_samples(x, w.n)), 1.0)
    log_G_of_A = _log_means(w, log_A, 0.0)  # running geometric means of A

    lhs1 = log_G_of_A[-1]
    rhs1 = (w.W[-2] / w.W[-1]) * log_G_of_A[-2] + (w.w[-1] / w.W[-1]) * log_A[-1]

    lhs2 = log_G_of_A[-2]
    rhs2 = log_A[-1] + float(np.sum(w.W[:-1] * (log_A[:-1] - log_A[1:]))) / w.W[-2]

    return abs(math.expm1(lhs1 - rhs1)), abs(math.expm1(lhs2 - rhs2))
