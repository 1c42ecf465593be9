"""Mass and curvature checks for asymptotically flat graph metrics.

The induced metric of the graph of f over R^n is delta + df x df.  This
package evaluates its scalar curvature through two independent routes,
estimates the ADM mass as a boundary flux and as a bulk integral,
measures horizon boundary terms and quermassintegral bounds, and wires
the pieces into scenario-level positive-mass and Penrose-type checks.
"""

from __future__ import annotations

from .convexgeom import (Ellipsoid, HorizonSet, SmoothLevelSet, Sphere,
                         af_chain_gaps, af_gap, horizon_mean_curvature_term,
                         penrose_bound, principal_curvatures,
                         quermassintegrals, sigma_j, superadditivity_gap)
from .errors import (BodyError, ConfigError, DomainError, GraphMassError,
                     IntegrabilityError, NonConvexError, ParseError,
                     QuadratureError, UnboundParameterError)
from .expr import parse, to_text
from .graphgeom import (boundary_integrand, divergence_of_V,
                        flat_mean_curvature, mass_flux_integrand,
                        scalar_curvature)
from .jets import (ExprField, Jet3, RadialField, RadialProfile, ScalarField,
                   fd_jet, flatness_report, profile_from_gradsq, radial_jet,
                   schwarzschild_profile)
from .mass import (CheckOutcome, Scenario, ScenarioEvaluation, adm_flux_mass,
                   adm_mass, bulk_mass, flux_series, horizon_flux_convergence,
                   horizon_hypotheses, mass_normalization, shell_sampler,
                   spherical_mass)
from .quad import (ExteriorRegion, QuadConfig, extrapolate_limit,
                   exterior_volume_integrate, sphere_integrate, sphere_rule,
                   unit_sphere_area)
from .scenarios import REGISTRY, make_scenario, scenario_names

__version__ = "0.1.0"

__all__ = [
    "BodyError", "CheckOutcome", "ConfigError", "DomainError", "Ellipsoid",
    "ExprField", "ExteriorRegion", "GraphMassError", "HorizonSet",
    "IntegrabilityError", "Jet3", "NonConvexError", "ParseError",
    "QuadConfig", "QuadratureError", "REGISTRY", "RadialField",
    "RadialProfile", "ScalarField", "Scenario", "ScenarioEvaluation",
    "SmoothLevelSet", "Sphere", "UnboundParameterError", "adm_flux_mass",
    "adm_mass", "af_chain_gaps", "af_gap", "boundary_integrand",
    "bulk_mass", "divergence_of_V", "extrapolate_limit",
    "exterior_volume_integrate", "fd_jet", "flat_mean_curvature",
    "flatness_report", "flux_series", "horizon_flux_convergence",
    "horizon_hypotheses", "horizon_mean_curvature_term", "make_scenario",
    "mass_flux_integrand", "mass_normalization", "parse", "penrose_bound",
    "principal_curvatures", "profile_from_gradsq", "quermassintegrals",
    "radial_jet", "scalar_curvature", "scenario_names",
    "schwarzschild_profile", "shell_sampler", "sigma_j", "spherical_mass",
    "sphere_integrate", "sphere_rule", "superadditivity_gap", "to_text",
    "unit_sphere_area",
]
