"""Every validation error that no other test reaches, as one table.

Each row calls the public entry point (or the one internal helper that
owns the check) with one bad argument and asserts the error's type and
a fragment of its message.
"""

import dataclasses
import re

import numpy as np
import pytest

from opshift import functions, moi
from opshift.approx import ApproximationSequence, remainder_sup_experiment
from opshift.cli import ExperimentConfig
from opshift.cov import (
    EpsilonSignature,
    WeightedTraceMeasure,
    alternating_signature,
    build_check_operators,
    checked_product,
    corollary_expand,
    cov_expansions,
    cov_scalar_identities,
    pJ_alpha,
    trace_via_measure,
)
from opshift.errors import ValidationError
from opshift.functions import (
    BumpFunction,
    GaussianFunction,
    RationalFunction,
    class_membership,
    divided_difference,
    leibniz_weighted_sup_bound,
    peano_kernel,
    rational_from_poles,
)
from opshift.linalg import HermitianOperator, resolvent_comparability, schatten_norm, spectral_decompose
from opshift.moi import MoiSymbol, OperatorTuple, frechet_derivative, moi_evals, perturbation_identities, taylor_remainder
from opshift.piecewise import PiecewisePolynomial, integral_against_derivative
from opshift.ssf import SpectralShiftDensity, measure_weight_shift, ssf_compute, uniqueness_fit, verify_trace_formula, weighted_norm_and_scaling

F = rational_from_poles([0.3 + 1j, 0.3 - 1j])
H2, V2 = HermitianOperator(np.diag([0.0, 1.0])), HermitianOperator([[0.0, 0.2], [0.2, 0.1]])
H3, I2 = HermitianOperator(np.diag([0.0, 0.5, 1.0])), np.eye(2)
ETA3 = SpectralShiftDensity(3, PiecewisePolynomial.zero(), "zero", 0.0, 1.0)


def _config(**changes):
    return dataclasses.replace(ExperimentConfig.load(), **changes).validate()


# (id, call, error type, message fragment)
CASES = [
    # approx
    ("approx.sequence_align", lambda: ApproximationSequence((H2,), (), ()), ValidationError, "terms, windows and ranks must align"),
    ("approx.family_compact", lambda: remainder_sup_experiment(H2, V2, None, 3, [GaussianFunction()]), ValidationError, "must be compactly supported"),
    # cli
    ("cli.parity", lambda: _config(parity="sideways"), ValidationError, "parity must be odd, even or both"),
    ("cli.tolerance", lambda: _config(tolerances={**ExperimentConfig.load().tolerances, "trace": 0.0}), ValidationError, "tolerance trace must be positive"),
    (
        "cli.ssf_h_shape",
        lambda: _config(ssf={**ExperimentConfig.load().ssf, "h": {"dim": 2, "re": [[0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}}),
        ValidationError,
        "ssf.h.re must be a 2x2 array of numbers",
    ),
    # cov
    ("cov.signature_letters", lambda: EpsilonSignature(("R", "X")), ValidationError, "signature letters must be"),
    ("cov.signature_empty", lambda: EpsilonSignature(()), ValidationError, "signature must be nonempty"),
    ("cov.alternating_order", lambda: alternating_signature(0), ValidationError, "need m >= 1"),
    ("cov.check_lengths", lambda: build_check_operators(EpsilonSignature(("R", "L")), [H2] * 3, [I2] * 2), ValidationError, "must have equal length"),
    ("cov.checked_product_order", lambda: checked_product([], 2, 1, 2), ValidationError, "need i <= j"),
    ("cov.scalar_node_count", lambda: cov_scalar_identities(F, [(EpsilonSignature(("R", "L")), [0.0, 0.5, 1.0])]), ValidationError, "signature length must match the node count"),
    ("cov.expansion_operators", lambda: cov_expansions(F, [(EpsilonSignature(("R", "L")), [H2] * 3, [V2])]), ValidationError, "need m+1 operators and a length-m+1 signature"),
    ("cov.expansion_signature", lambda: cov_expansions(F, [(EpsilonSignature(("R", "0", "L")), [H2] * 2, [V2])]), ValidationError, "need m+1 operators and a length-m+1 signature"),
    ("cov.corollary_odd", lambda: corollary_expand(F, "odd", [H2] * 3, [V2] * 2), ValidationError, "odd parity needs an odd argument count"),
    ("cov.corollary_parity", lambda: corollary_expand(F, "both", [H2] * 2, [V2]), ValidationError, "parity must be 'odd' or 'even'"),
    ("cov.pJ_counts", lambda: pJ_alpha([I2] * 3, [H2] * 2, (), (3.0,) * 3, 2), ValidationError, "need matching operator, argument and exponent counts"),
    ("cov.pJ_J_range", lambda: pJ_alpha([I2] * 2, [H2] * 2, {2}, (np.inf, 1.0), 2), ValidationError, "J must be a subset of 1..m"),
    ("cov.pJ_exponent_range", lambda: pJ_alpha([I2] * 2, [H2] * 2, (), (0.5, 2.0), 2), ValidationError, "exponents must lie in [1, inf]"),
    ("cov.pJ_J_exponent", lambda: pJ_alpha([I2] * 2, [H2] * 2, {1}, (1.0, 2.0), 2), ValidationError, "slots in J must carry the exponent infinity"),
    ("cov.trace_measure_operators", lambda: trace_via_measure(I2, F, [V2], [H2] * 3), ValidationError, "need m+1 operators"),
    (
        "cov.measure_norm_tail",
        lambda: WeightedTraceMeasure(PiecewisePolynomial([0.0, 1.0], (np.ones(1),), right_tail=np.array([1.0, 1.0])), 2).norm(),
        ValidationError,
        "a tail of degree 1 has no finite norm under the weight u^-2",
    ),
    # functions
    ("functions.sup_interval", lambda: GaussianFunction().sup_deriv(1), ValidationError, "sup estimate needs an interval"),
    ("functions.rational_real_pole", lambda: RationalFunction(((1.0 + 0j, 1),)), ValidationError, "off the real axis"),
    ("functions.rational_zero_exponent", lambda: RationalFunction(((1j, 0),)), ValidationError, "zero exponents are not allowed"),
    ("functions.gaussian_width", lambda: GaussianFunction(0.0, 0.0), ValidationError, "gaussian width must be positive"),
    ("functions.bump_order", lambda: BumpFunction(1.0, 0.0), ValidationError, "bump needs a < b"),
    ("functions.bump_smoothness", lambda: BumpFunction(0.0, 1.0, smoothness=0), ValidationError, "bump smoothness must be >= 1"),
    ("functions.no_nodes", lambda: divided_difference(F, []), ValidationError, "need at least one node"),
    ("functions.class_orders", lambda: class_membership(F, -1, 0), ValidationError, "orders must be nonnegative"),
    ("functions.class_kind", lambda: class_membership(functions.TestFunction(), 1, 1), ValidationError, "unknown function kind 'abstract'"),
    ("functions.kernel_nodes", lambda: peano_kernel([0.5]), ValidationError, "a kernel needs at least two nodes"),
    ("functions.leibniz_order", lambda: leibniz_weighted_sup_bound(1, 1, 1.0, 2), ValidationError, "derivative order exceeds available smoothness"),
    # linalg
    ("linalg.square", lambda: HermitianOperator(np.ones(3)), ValidationError, "operator entries must form a square matrix"),
    ("linalg.empty", lambda: HermitianOperator(np.zeros((0, 0))), ValidationError, "dimension must be at least 1"),
    ("linalg.cluster_tolerance", lambda: spectral_decompose(H2, -1.0), ValidationError, "cluster tolerance must be nonnegative"),
    ("linalg.schatten_matrix", lambda: schatten_norm(np.ones(3), 2), ValidationError, "Schatten norms are defined for matrices"),
    ("linalg.comparability_exponent", lambda: resolvent_comparability(H2, V2, 0.5), ValidationError, "Schatten exponent must satisfy n >= 1"),
    # moi
    ("moi.symbol_orders", lambda: MoiSymbol(F, -1, 0), ValidationError, "weight power and order must be nonnegative"),
    ("moi.tuple_empty", lambda: OperatorTuple((), ()), ValidationError, "need at least one operator"),
    ("moi.tuple_arguments", lambda: OperatorTuple((H2,), (V2,)), ValidationError, "argument count must be operator count minus one"),
    ("moi.tuple_types", lambda: OperatorTuple((H2, I2), (V2,)), ValidationError, "operators must be HermitianOperator instances"),
    ("moi.tuple_dims", lambda: OperatorTuple((H2, H3), (V2,)), ValidationError, "all operators must share one dimension"),
    ("moi.tuple_argument_shape", lambda: OperatorTuple((H2, H2), (np.eye(3),)), ValidationError, "arguments must match the operator dimension"),
    ("moi.weights_orders", lambda: moi._tuple_weights([(I2, [V2], [H2] * 2), (I2, [V2] * 2, [H2] * 3)]), ValidationError, "one order for every member"),
    ("moi.evals_order", lambda: moi_evals(MoiSymbol(F, 0, 2), [OperatorTuple((H2, H2), (V2,))]), ValidationError, "symbol order must match the argument count"),
    ("moi.frechet_order", lambda: frechet_derivative(F, H2, V2.entries, -1), ValidationError, "derivative order must be nonnegative"),
    ("moi.remainder_order", lambda: taylor_remainder(F, H2, V2, 0), ValidationError, "remainder order must be at least 1"),
    ("moi.remainder_method", lambda: taylor_remainder(F, H2, V2, 2, "series"), ValidationError, "method must be 'direct' or 'moi'"),
    ("moi.perturbation_slot", lambda: perturbation_identities(F, [(OperatorTuple((H2, H2), (V2,)), H2, V2, 3)]), ValidationError, "slot must lie in 1..n+1"),
    ("moi.perturbation_carry", lambda: perturbation_identities(F, [(OperatorTuple((H2, H2), (V2,)), V2, H2, 1)]), ValidationError, "tuple must carry A at the requested slot"),
    ("moi.perturbation_dims", lambda: perturbation_identities(F, [(OperatorTuple((H2, H2), (V2,)), H2, H3, 1)]), ValidationError, "dimension mismatch"),
    # piecewise
    ("piecewise.breakpoints_shape", lambda: PiecewisePolynomial(np.zeros((2, 2)), (np.ones(1),)), ValidationError, "breakpoints must be a nonempty 1-d list"),
    ("piecewise.breakpoints_order", lambda: PiecewisePolynomial([1.0, 0.0], (np.ones(1),)), ValidationError, "breakpoints must be strictly ascending"),
    ("piecewise.coefficient_rows", lambda: PiecewisePolynomial([0.0, 1.0], ()), ValidationError, "need one coefficient row per interval"),
    ("piecewise.indicator", lambda: PiecewisePolynomial.indicator(1.0, 0.0), ValidationError, "indicator needs a < b"),
    ("piecewise.step_values", lambda: PiecewisePolynomial.step([0.0, 1.0], [1.0, 2.0]), ValidationError, "need one value per interval"),
    ("piecewise.json_imaginary", lambda: PiecewisePolynomial([0.0, 1.0], (np.array([1j]),)).to_json_dict(), ValidationError, "large imaginary part"),
    ("piecewise.quadrature_kind", lambda: integral_against_derivative(functions.TestFunction(), 0, PiecewisePolynomial.zero()), ValidationError, "no quadrature rule for function kind 'abstract'"),
    # ssf
    ("ssf.density_order", lambda: SpectralShiftDensity(0, PiecewisePolynomial.zero(), "zero", 0.0, 1.0), ValidationError, "order must be at least 1"),
    ("ssf.pair_dims", lambda: ssf_compute(H2, HermitianOperator(np.eye(3)), 2), ValidationError, "dimension mismatch"),
    ("ssf.theory_order", lambda: weighted_norm_and_scaling(H2, V2, 1, "odd"), ValidationError, "the higher-order theory starts at n = 2"),
    ("ssf.parity", lambda: verify_trace_formula(H2, V2, 2, "both", [F]), ValidationError, "parity must be 'odd' or 'even'"),
    ("ssf.fit_orders", lambda: uniqueness_fit(ETA3, ETA3, 2), ValidationError, "both densities must have the requested order"),
    ("ssf.weight_shift_orders", lambda: measure_weight_shift(PiecewisePolynomial.atom(0.0, 1.0), -1, 0, 1, 0.5), ValidationError, "orders must be nonnegative"),
]


@pytest.mark.parametrize("call, error, fragment", [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_validation_error(call, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        call()
