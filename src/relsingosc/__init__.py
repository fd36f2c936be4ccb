"""Finite-difference relativistic model of the N-dimensional isotropic
singular oscillator.

The model lives in relativistic configurational space, where the free
Hamiltonian is a finite-difference operator whose step is the Compton
wavelength. This package provides the special-function kernels, the shift
operator calculus, the bound states and spectrum, the su(1,1) ladder
structure, the plane-wave groundwork, and a verification suite that
numerically certifies every identity the model asserts.
"""

from .specfun import (
    CdhParams,
    cdh_log_norm,
    cdh_norm,
    cdh_poly,
    cdh_polys,
    cdh_weight,
    generalized_degree,
    log_gamma,
    pochhammer,
    reciprocal_gamma,
)
from .operators import (
    AnalyticFunction,
    LinearOperator,
    SingularPointError,
    StripExhaustedError,
    compose,
    cosh_shift,
    images,
    multiply_by,
    op_sum,
    powers,
    scale,
    shift,
    sinh_shift,
    taylor_limit_check,
)
from .quadrature import (
    DecayHint,
    QuadratureConvergenceError,
    cdh_gauss_rule,
    cdh_gram,
    gram_matrix,
    integrate_halfline,
)
from .oscillator import (
    DerivedParams,
    InvalidParametersError,
    ModelParams,
    RadialBasis,
    RadialState,
    derive_params,
    eigen_residual,
    energy,
    hamiltonian_radial_N,
    hamiltonian_reduced,
    nonrel_energy,
    quasipotential_op,
    radial_basis,
    radial_wavefunction,
)
from .symmetry import (
    LadderCoefficients,
    build_A_minus,
    build_A_plus,
    build_a_minus,
    build_a_plus,
    build_momentum,
    casimir,
    commutator_residual,
    generate_basis_via_ladder,
    generate_state_via_ladder,
    su11_generators,
)
from .planewaves import (
    PlaneWaveParams,
    free_hamiltonian_residual,
    reduction_multiplier,
    weight_wN,
    xi_Nd,
)

__version__ = "0.1.0"
