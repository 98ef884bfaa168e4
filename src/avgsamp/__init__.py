"""Random average sampling and reconstruction in shift-invariant subspaces
of mixed Lebesgue spaces: exact B-spline algebra, mixed L^{p,q} norms,
random sample generation, probability bounds and least-squares recovery."""

from .piecewise import PiecewisePoly1D, bspline, coefficient_distance
from .quadrature import QuadratureSpec
from .mixed_space import (
    CoefficientGrid,
    Cuboid,
    GeneratorSet,
    LatticeSpline,
    TensorFunction,
    box_function,
    decay_constant,
    estimate_stability,
    integral,
    lp_norm_1d,
    lpq_norm,
    mixed_norm,
    random_unit_grid,
    sup_norm,
    synthesize,
    tensor_bspline,
)
from .sampling import (
    AverageSampleStatistic,
    AveragingKernel,
    Density,
    SampleSet,
    abs_integral,
    average_sample,
    average_samples,
    convolve,
    draw_samples,
)
from .bounds import (
    BoundReport,
    SpaceParams,
    approximation_radius,
    bernstein_tail,
    c_prime,
    c_star,
    concentration_class_report,
    covering_bound,
    deviation_threshold,
    lattice_decay_sum,
    mu_class_report,
    omega_class_report,
    reconstruction_report,
    uniform_tail_bound,
)
from .reconstruction import (
    BetaTildeEstimate,
    DualFamily,
    LstsqResult,
    MembershipResult,
    RankDeficientError,
    SampleMatrix,
    SuccessSummary,
    TrialSpec,
    beta_tilde,
    build_sample_matrix,
    dual_family,
    empirical_success,
    membership,
    solve,
    wilson_interval,
)
from .experiments import (
    ConfigError,
    Experiment,
    ResultTable,
    build_experiment,
    config_hash,
    constants_report,
    emit_surface,
    load_config,
    probability_sweep,
    run_table,
)

__version__ = "0.1.0"
