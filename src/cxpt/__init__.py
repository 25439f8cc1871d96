"""Complex-distance potential theory.

Holomorphic continuation gamma(z) of the Euclidean distance, the
potentials it generates, the extended point-source functionals supported
on disks and spheres, the spherical-means wave propagator, and the
Clifford-analytic layer (Dirac operators, Cauchy kernel, Borel-Pompeiu
formulas, Maxwell extension).
"""

from .errors import (
    AmbiguousBranchError,
    AxisDegenerateError,
    ConfigParseError,
    ConvergenceError,
    CxptError,
    DimensionMismatchError,
    InsufficientSmoothnessError,
    InvalidIndexError,
    InvalidRadiusError,
    NonFiniteIntegrandError,
    NotRegularError,
    OnBoundaryError,
    SingularPointError,
    UnsupportedDimensionError,
    WindowTooSmallError,
    YZeroError,
)
from .numerics import (
    FDScheme,
    QuadratureRule,
    derivative,
    fd_gradient,
    fd_laplacian,
    gauss_kronrod,
    gauss_legendre,
    integrate_interval,
    mean_on_sphere,
    sphere_area,
    sphere_rule,
)
from .geometry import (
    ComplexDistance,
    ComplexPoint,
    CylCoords,
    OblateCoords,
    PointClass,
    classify_point,
    complex_distance,
    from_oblate,
    grad_pq,
    jacobian_volume,
    to_cylindrical,
    to_oblate,
)
from .fields import (
    FieldSpec,
    TestField,
    bump,
    constant,
    coordinate,
    cosine_wave,
    gaussian,
    parse_field_spec,
    plane_wave,
    polynomial,
)
from .potential import (
    holomorphic_potential,
    newtonian,
    regularized_jump,
    regularized_potential,
)
from .source import (
    SourceAction,
    centroid,
    descent_check,
    lambda_coeff,
    moments,
    regularized_action,
    singular_action,
    singular_action_even,
    singular_action_odd,
    singular_action_r3,
    singular_action_r4,
)
from .wave import (
    CauchyData,
    SpacetimeField,
    extend,
    extend_jet,
    from_cauchy_data,
    harmonic_mode,
    solve_cauchy,
    wave_residual,
)
from .clifford import (
    Ball,
    Box,
    Cl,
    CliffordAlgebra,
    Domain,
    Multivector,
    MultivectorField,
    SpacetimeMultivectorField,
    borel_pompeiu,
    cauchy_kernel,
    cauchy_kernel_field,
    dirac_apply,
    dirac_field,
    extended_borel_pompeiu,
    maxwell_extend,
    mv_mul,
    poly_field,
    regular_point,
    spacetime_algebra,
)
from .config import Config, load_config

__version__ = "0.1.0"
