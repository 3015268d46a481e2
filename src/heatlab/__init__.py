"""Numerical laboratory for heat-flow variation functionals on rotationally
symmetric weighted manifolds.

The package is organized in layers: geometry (weight profiles and BV data),
grid (face ladders and cell measures), operator (weighted divergence-form
generator), solver (time stepping and exhaustion), functionals (mass,
variation, flux, extrapolation), experiments (verdict-producing drivers) and
cli (table-checked runs with stable reports).
"""

__version__ = "0.1.0"

from .errors import InvalidArgumentError, NumericalFailure, RangeError
from .geometry import (LOG_MAX_GRID, LOG_MAX_SCALAR, RadialBVDatum,
                       RadialManifold, ball_indicator, ball_volume,
                       constant_one, euclidean, exact_total_variation,
                       log_area_integral, perimeter_ball, piecewise,
                       power_exp_weight, sphere_constant)
from .grid import Grid, build_grid, face_ladder, grid_from_faces, subgrid
from .operator import DIRICHLET, NEUMANN, WeightedOperator, assemble
from .solver import (EXHAUSTION_SLACK, SolveControls, advance_states, exhaustion_ladder,
                     exhaustion_levels, exhaustion_radii, overflow_safe_radius, project_datum)
from .functionals import (ExtrapolationResult, FluxProfile, extrapolate_limit,
                          face_variation_terms, flux_profile, total_variation,
                          weighted_sum)
from .experiments import (ExperimentReport, blowup_sweep, comparison_check,
                          completeness_probe, degiorgi_sweep, tail_probe)

__all__ = [
    "InvalidArgumentError", "NumericalFailure", "RangeError",
    "LOG_MAX_GRID", "LOG_MAX_SCALAR", "RadialBVDatum", "RadialManifold",
    "ball_indicator", "ball_volume", "constant_one",
    "euclidean", "exact_total_variation",
    "log_area_integral", "perimeter_ball", "piecewise", "power_exp_weight",
    "sphere_constant",
    "Grid", "build_grid", "face_ladder", "grid_from_faces", "subgrid",
    "DIRICHLET", "NEUMANN", "WeightedOperator", "assemble",
    "EXHAUSTION_SLACK", "SolveControls", "advance_states", "exhaustion_ladder",
    "exhaustion_levels", "exhaustion_radii", "overflow_safe_radius", "project_datum",
    "ExtrapolationResult", "FluxProfile", "extrapolate_limit",
    "face_variation_terms", "flux_profile", "total_variation", "weighted_sum",
    "ExperimentReport", "blowup_sweep",
    "comparison_check", "completeness_probe", "degiorgi_sweep", "tail_probe",
]
