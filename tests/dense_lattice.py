"""Dense lattice maxima of the reduced objective, a reference for the curve
maximum ``mixedmeans.search.curve_max_F``.

This fills the whole lattice at once and takes ``np.argmax`` of it.  Every
lattice point lies in the box, so the curve maximum must be at least these
values, up to rounding.
"""
import numpy as np

from mixedmeans import SearchResult, WeightSequence
from mixedmeans.conditions import ReducedProblem


def _axis(upper: float, resolution: int) -> np.ndarray:
    """Uniform lattice over [0, upper] adjusted so it contains 1.0 exactly
    (the constant-data image point)."""
    pts = np.linspace(0.0, upper, resolution)
    pts[int(np.argmin(np.abs(pts - 1.0)))] = 1.0
    return pts


def lattice_max(
    rp: ReducedProblem, dims: int, resolution: int, combine
) -> SearchResult:
    """Evaluate ``combine(L1, L2)`` on the lattice over the first ``dims``
    box axes, where L1 and L2 are the summed per-axis log-terms, and take
    the argmax."""
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
    rp = ReducedProblem(w)
    return lattice_max(rp, w.n - 1, resolution, rp.F)


def grid_max_envelope(w: WeightSequence, resolution: int) -> SearchResult:
    """The lattice over the head coordinates of g^(1/r), the maximum of F
    over the last coordinate."""
    rp = ReducedProblem(w)

    def envelope(L1, L2):
        return np.exp(rp.log_g(L1, L2) / rp.r)

    return lattice_max(rp, w.n - 2, resolution, envelope)
