"""Potential-theoretic centers of planar bodies.

Computes radial power potentials (with finite-part regularization), the
Poisson integral, and the heat potential of planar bodies; locates their
maximum points (generalized centers, illuminating centers, hot spots);
verifies the balance law that characterizes parameter-independent centers;
and classifies the triangles and quadrangles admitting one.
"""

from .balance import (BalanceReport, ContactSet, PolygonClass, RadialArcBody,
                      StationaryCandidate, WeightedBodyFunction, balance_report,
                      classify_polygon, contact_points, equivalence_check,
                      generate_asymmetric_balanced, scalar_residual,
                      stationary_candidate, symmetry_search, vector_residual)
from .centers import (CenterResult, LocusTrace, find_center, limit_diagnostics,
                      trace_locus)
from .concavity import (PowerMeanSpec, power_mean, second_derivative_criterion,
                        segment_concavity)
from .errors import (BoundaryPoint, ConstructionFailed, InvalidBody, NoInteriorSeed,
                     NonConvergence, NonPositiveValue, NotInterior, NotStarShaped,
                     RadialCentersError, TheoremViolation, ToleranceNotMet)
from .geometry import (ArcSet, Disk, Polygon, UnfoldedRegion, area, body_from_dict,
                       body_to_dict, boundary_distance, centroid, circle_clip,
                       circumcenter, contains, diameter, incenter, is_convex,
                       maximal_folding, radial_function, transformed,
                       unfolded_region)
from .potentials import (Heat, Poisson, PotentialSpec, PotentialValue, Riesz,
                         heat_gradient, heat_value, poisson_gradient,
                         poisson_kernel, poisson_kernel_gauss_integral,
                         poisson_value, potential, potential_gradient,
                         potential_hessian, potential_jet, riesz_gradient, riesz_value,
                         weierstrass_kernel)
from .quadrature import QuadratureConfig, integrate_angular, integrate_polygon

__version__ = "0.1.0"

__all__ = [
    "ArcSet", "BalanceReport", "BoundaryPoint", "CenterResult", "ConstructionFailed",
    "ContactSet", "Disk", "Heat", "InvalidBody", "LocusTrace", "NoInteriorSeed",
    "NonConvergence", "NonPositiveValue", "NotInterior", "NotStarShaped", "Poisson",
    "PolygonClass", "Polygon", "PotentialSpec", "PotentialValue", "PowerMeanSpec",
    "QuadratureConfig", "RadialArcBody", "RadialCentersError", "Riesz",
    "StationaryCandidate", "TheoremViolation", "ToleranceNotMet", "UnfoldedRegion",
    "WeightedBodyFunction", "area", "balance_report", "body_from_dict", "body_to_dict",
    "boundary_distance", "centroid", "circle_clip", "circumcenter", "classify_polygon",
    "contact_points", "contains", "diameter", "equivalence_check", "find_center",
    "generate_asymmetric_balanced", "heat_gradient", "heat_value", "incenter",
    "integrate_angular", "integrate_polygon", "is_convex", "limit_diagnostics",
    "maximal_folding", "poisson_gradient", "poisson_kernel",
    "poisson_kernel_gauss_integral", "poisson_value", "potential",
    "potential_gradient", "potential_hessian", "potential_jet", "power_mean",
    "radial_function", "riesz_gradient",
    "riesz_value", "scalar_residual", "second_derivative_criterion",
    "segment_concavity", "stationary_candidate", "symmetry_search", "trace_locus",
    "transformed", "unfolded_region", "vector_residual", "weierstrass_kernel",
]
