"""Adaptive Taylor-model regularization with dynamically controlled
inexact oracles: solvers for degrees one and two, first- and second-order
optimality certificates, exact/noisy/subsampled oracles, and executable
worst-case budget checks."""

from .bounds import ComplexityBudget, complexity_budget, shrink_budget, sigma_ceiling, success_count_bound
from .certify import CertifyFlag, certify_increment
from .driver import (
    AccuracyLadder,
    IterRecord,
    LadderUnderflowError,
    RunAborted,
    RunReport,
    Termination,
    TerminationKind,
    run,
    sigma_omega_update,
)
from .oracles import (
    EvalCounters,
    ExactOracle,
    InvalidPromiseError,
    NoisyOracle,
    NonFiniteEvaluationError,
    Oracle,
    SubsampledOracle,
    failure_probability,
    sample_size,
    sampling_failures,
    subsampled_eval,
)
from .params import AlgoParams, Schedule
from .problems import (
    Dataset,
    DatasetError,
    Problem,
    load_dataset,
    make_quadratic,
    make_quartic,
    make_rosenbrock,
    make_sigmoid_problem,
    make_synthetic_dataset,
    save_dataset,
    sigmoid_ls_derivs,
)
from .subsolvers import (
    MeasureResult,
    ModelSolution,
    StepResult,
    SubsolverError,
    cubic_min,
    model_descent_step,
    optimality_measure,
    trust_region_min,
)
from .taylor import (
    DerivativeBundle,
    Orders,
    chi,
    holder_factorial,
    model_accuracy,
    model_taylor_derivs,
    taylor_increment,
)

__version__ = "0.1.0"
