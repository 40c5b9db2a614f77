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

from .geometry import (AdmissibleRegion, AxisRegion, GeometryError, ProductSector, Sector,
                       intersect_admissible, make_region)
from .quadrature import (ContourQuadrature, ConvergenceError, IntegrationResult,
                         QuadratureError, integrate, ray_integral, richardson)
from .semigroups import (CommutationError, CommutingTuple, DivergenceError,
                         SectorDomainError, SingularFactorError, expm,
                         generator_from_weighted_integrals, mult_semigroup_gap,
                         mult_semigroup_gap_closed_form, opnorm, orbit_integrals,
                         quasinilpotent_gap, resolvent_product, resolvent_via_laplace)
from .functionals import (AxisDensity, Functional, NoAdmissibleAnchor,
                          RouteError, SectorFunction, TensorDensity, anchor_for,
                          bisector_density, cauchy_transform, convolve, dirac,
                          exp_poly_function, fb_of_orbit, pair_function,
                          pair_semigroup, pair_translated_cauchy)
from .calculus import (AdmissibilityError, AdmissibilityReport, DenseRangeError,
                       HoloFunction, WitnessSequence, check_admissible_for,
                       default_region, exponential_function, functional_calculus,
                       functional_calculus_hinf, functional_calculus_smirnov,
                       h1_norm, interior_cauchy_value, inverse_square, monomial,
                       outer_diagnostic_disk, pointwise_bound_check,
                       projection_function, separable_function,
                       spectral_map_check, strongly_outer_check)

__version__ = "0.1.0"
