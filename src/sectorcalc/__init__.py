"""Contour-integral functional calculus for commuting matrix tuples on
product sectors, with cross-validated transform and pairing routes.

Modules
-------
``geometry``    sectors, dual cones, admissible regions
``quadrature``  oriented contours and adaptive tensor quadrature
``semigroups``  matrix semigroups, resolvents, generator recovery
``functionals`` measure-backed functionals, transforms, pairings
``calculus``    the distinguished-boundary calculus and diagnostics
``cli``         batch scenario runner (``sectorcalc`` entry point)
"""

from .geometry import (AdmissibleRegion, AxisRegion, GeometryError,
                       ProductSector, Sector, dist_to_boundary,
                       intersect_admissible, make_region, preceq, sup_points)
from .quadrature import (ContourQuadrature, ConvergenceError, IntegrationResult,
                         PathSegment, QuadratureConfig, QuadratureError,
                         build_boundary_path, integrate, ray_integral, richardson)
from .semigroups import (CommutationError, CommutingTuple, DivergenceError,
                         GrowthProfile, SectorDomainError, SingularFactorError,
                         evaluate, expm, generator_from_difference_quotient,
                         generator_from_weighted_integrals, generator_holomorphic,
                         mult_semigroup_gap, mult_semigroup_gap_closed_form,
                         n_set_classify, opnorm, quasinilpotent_gap,
                         resolvent_product, resolvent_via_laplace)
from .functionals import (AxisDensity, FBDomainInfo, Functional,
                          NoAdmissibleAnchor, RouteError,
                          SectorFunction, TensorDensity, anchor_for,
                          bisector_density, cauchy_transform, convolve, dirac,
                          e_minus, exp_poly_function, fb_of_orbit, pair_function,
                          pair_semigroup, pair_translated_cauchy, wn_regularizer)
from .calculus import (AdmissibilityError, AdmissibilityReport, DenseRangeError,
                       HoloFunction, WitnessSequence, check_admissible_for,
                       default_region, exponential_function, functional_calculus,
                       functional_calculus_hinf, functional_calculus_smirnov,
                       h1_norm, interior_cauchy_value, inverse_square, monomial,
                       outer_diagnostic_disk, pointwise_bound_check,
                       projection_function, spectral_map_check,
                       strongly_outer_check)

__version__ = "0.1.0"
