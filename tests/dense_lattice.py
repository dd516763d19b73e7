"""Dense reference for the lattice maxima in ``mixedmeans.search``.

This fills the whole lattice at once and takes ``np.argmax`` of it.  The
branch and bound in ``search._lattice_max`` must return results equal to
these, field by field: the same value, the same argmax (ties and NaN go to
the first cell in row-major order) and the same cell count.
"""
import numpy as np

from mixedmeans import SearchResult, WeightSequence
from mixedmeans.conditions import ReducedProblem
from mixedmeans.search import _axis


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
    rp = ReducedProblem(w)
    return lattice_max(rp, w.n - 2, resolution, rp.envelope)
