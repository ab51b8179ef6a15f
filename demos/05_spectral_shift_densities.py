"""Higher-order spectral shift densities and their trace formulas.

eta_m is an exact piecewise polynomial on matrices: it integrates the
m-th derivative of the test function to the trace of the order-m Taylor
remainder, is real, carries no atoms, and is determined up to a
polynomial of degree < m.
"""

import numpy as np

from opshift import (
    GaussianFunction,
    HermitianOperator,
    PiecewisePolynomial,
    measure_weight_shift,
    reconstruct_density,
    ssf_compute,
    uniqueness_fit,
    verify_trace_formula,
    weighted_norm_and_scaling,
)
from opshift.ensembles import admissible_family, random_pair, rng_stream

# --- the scalar pair has a closed form ----------------------------------------

eta = ssf_compute(HermitianOperator([[0.0]]), HermitianOperator([[1.0]]), 3)
xs = np.linspace(0.05, 0.95, 4)
print("eta_3 for the pair (0, 1) vs (1-x)^2/2:", np.max(np.abs(eta(xs) - (1 - xs) ** 2 / 2)))

# --- trace formula over a mixed family ------------------------------------------

H, V = random_pair(rng_stream(3, 0), dim=3, h_norm=1.0, v_norm=0.5)
family = admissible_family(rng_stream(3, 1), 9, 3, 10)
rep = verify_trace_formula(H, V, n=2, parity="odd", family=family)
print("trace formula (order 3) max relative residual:", rep.max_relative_residual)

# --- the density is real with no atomic part ------------------------------------

eta3 = ssf_compute(H, V, 3)
print("imaginary residue:", eta3.imag_residue, " atomic mass:", eta3.density.atomic_mass())
print("support:", eta3.support())

# --- uniqueness up to a low-degree polynomial ------------------------------------

rec = reconstruct_density(H, V, 3)
coeffs, residual = uniqueness_fit(eta3, rec, 3)
print("\nkernel vs reconstruction: fitted polynomial", np.round(coeffs, 6))
print("post-fit L1 residual:", residual)

# --- weighted norms scale like ||V||^m --------------------------------------------

H, V = random_pair(rng_stream(5, 0), dim=3, h_norm=1.0, v_norm=0.3)
scaling = weighted_norm_and_scaling(H, V, n=2, parity="odd")
print("\nweighted L1 norm:", scaling.weighted_l1)
print("bound factor:", scaling.rhs_factor, " fitted slope:", scaling.slope)

# --- antiderivatives shift weights between measures --------------------------------

mu = PiecewisePolynomial.atom(np.array([2.0, -1.0]), np.array([3.0, -1.0]))
g = GaussianFunction(0.1, 1.0)
shift = measure_weight_shift(mu, n=0, m=1, k=2, epsilon=0.5, test_family=[g])
print("\nweight-shift residual:", shift.residuals[0])
print("shifted-measure norm", shift.mu_tilde_norm, "<= bound", shift.bound_value, ":", shift.bound_holds)
