"""Numerical laboratory for semi-linear stochastic differential equations with
time delay on a weighted segment space: mild-solution simulation, change-of-
measure reweighting, drift-regularizing transforms, coupling constructions and
Harnack-type estimate checks.
"""

from .measure import (
    DelayMeasure,
    GridMismatchError,
    Segment,
    check_shift_domination,
    constant_segment,
    make_measure,
    seg_inner,
    seg_norm,
    segments_equal,
)
from .model import (
    BihariData,
    DiniModulus,
    ModelSpec,
    OperatorA,
    dini_check,
    make_functional,
    make_model,
    semigroup_factors,
    validate_assumptions,
)
from .rng import normal_increments, path_generator
from .solver import PathBatch, SolverConfig, cutoff_psi, simulate
from .bihari import apriori_check, bihari_bound
from .girsanov import direct_estimate, weak_estimate
from .zvonkin import (
    TransformedModel,
    ZvonkinSolution,
    simulate_transformed,
    solve_u,
    theta,
    theta_inverse,
    transformed_model,
    verify_decay,
)
from .coupling import (
    CouplingConfig,
    CouplingResult,
    entropy_cost,
    fit_entropy_cost,
    gamma,
    run_coupling_batch,
)
from .harnack import check_gradient_estimate, check_log_harnack

__version__ = "0.1.0"
