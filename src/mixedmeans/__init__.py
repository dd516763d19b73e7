"""Weighted power means, mixed-mean increment inequalities, and numeric
certification of the mixed arithmetic-geometric mean inequality."""

from .means import (
    InputError,
    WeightSequence,
    as_samples,
    identity_residuals,
    mixed_mean,
    partial_mean_sequence,
    power_mean,
)
from .functionals import (
    popoviciu_increment,
    product_form_lhs,
    rado_increment,
    rado_value,
    violation_tolerance,
)
from .conditions import (
    ConditionReport,
    NotApplicableError,
    critical_weight,
    d_zero,
    existence_check,
    gao_conditions,
    holland_condition,
    induction_gap,
    nanjundiah_condition,
    tail_sum_maximizer,
)
from .reduction import (
    Certificate,
    Elimination,
    StationaryPoint,
    YPoint,
    boundary_bound,
    box_upper,
    certify,
    eliminate_last,
    find_stationary_d,
    interior_bound,
    objective_F,
    objective_g,
    stationary_analysis,
    weight_scan,
    x_to_y,
    y_to_x,
)
from .search import (
    SearchConfig,
    SearchResult,
    curve_max_F,
    multistart_max_F,
    violation_search,
)

__version__ = "0.1.0"
