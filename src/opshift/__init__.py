"""Operator calculus on finite-dimensional self-adjoint operators.

Multiple operator integrals, signature-driven change-of-variables
expansions, and higher-order spectral shift densities, with every
identity realized as an exact finite-dimensional computation.
"""

from .errors import BudgetError, DomainError, NumericError, ValidationError
from .linalg import (
    HermitianOperator,
    ResolventComparabilityReport,
    SpectralDecomposition,
    func_calculus,
    operator_from_json,
    operator_to_json,
    resolvent_comparability,
    schatten_norm,
    spectral_decompose,
)
from .functions import (
    BumpFunction,
    ClassMembership,
    GaussianFunction,
    PolynomialFunction,
    RationalFunction,
    TestFunction,
    bump,
    class_membership,
    divided_difference,
    leibniz_weighted_sup_bound,
    peano_kernel,
    rational_from_poles,
    weight_multiply,
)
from .piecewise import PiecewisePolynomial, integral_against_derivative, weighted_abs_integral
from .moi import (
    MoiSymbol,
    OperatorTuple,
    frechet_derivative,
    moi_eval,
    perturbation_identity,
    taylor_remainder,
)
from .cov import (
    BoundReport,
    CovExpansion,
    EpsilonSignature,
    ExpansionTerm,
    WeightedTraceMeasure,
    alternating_signature,
    basic_change_of_variables,
    build_check_operators,
    checked_product,
    corollary_expand,
    cov_expand,
    cov_scalar_identity,
    expansion_terms_json,
    pJ_alpha,
    signature_for_J,
    trace_via_measure,
)
from .ssf import (
    SpectralShiftDensity,
    measure_weight_shift,
    reconstruct_density,
    rp_term_measures,
    ssf_compute,
    uniqueness_fit,
    verify_trace_formula,
    weighted_norm_and_scaling,
)
from .approx import (
    ApproximationSequence,
    convergence_report,
    finite_rank_sequence,
    remainder_sup_experiment,
    shift_density_convergence,
)
from . import ensembles

__version__ = "0.1.0"
