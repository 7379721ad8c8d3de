"""Numerical toolkit for the Hawking mass on deSitter-Schwarzschild
warped products: warp-factor solutions, spherical-harmonic spectral
machinery, normal-graph surface geometry, second-variation forms with
finite-difference oracles, and seeded perturbation sweeps."""

from .errors import InvariantViolation, RangeError, SolveError
from .graph import (
    GraphSurface,
    build_graph,
    hawking_mass_deficit,
    induced_laplacian,
    surface_report,
)
from .sphere import (
    HarmonicField,
    SobolevNorms,
    SphereGrid,
    coeff_index,
    get_grid,
    gradient_norm_sq_integral,
    laplacian_unit,
    sobolev_norms,
)
from .warp import (
    SliceGeometry,
    WarpFactor,
    conserved_mass,
    slice_geometry,
    slice_mass_derivative,
    solve_warp_factor,
    static_chart_roots,
)

from .variation import (
    AreaBoundReport,
    FdSecondVariation,
    JacobiSpectrum,
    QuadraticFormReport,
    area_bound_check,
    fd_second_variation,
    jacobi_spectrum,
    mean_deviation_coercivity,
    minimal_slice_rigidity,
    quadratic_form_report,
    second_variation_by_degree,
    second_variation_minimal,
    slice_second_variation,
    strict_stability_inequality_check,
    weak_stability_margin,
)
from .sweeps import (
    CriticalPointReport,
    FoliationScan,
    SweepConfig,
    SweepRecord,
    SweepReport,
    critical_point_classifier,
    draw_perturbation,
    foliation_scan,
    perturbation_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "InvariantViolation",
    "RangeError",
    "SolveError",
    "GraphSurface",
    "build_graph",
    "hawking_mass_deficit",
    "induced_laplacian",
    "surface_report",
    "HarmonicField",
    "SobolevNorms",
    "SphereGrid",
    "coeff_index",
    "get_grid",
    "gradient_norm_sq_integral",
    "laplacian_unit",
    "sobolev_norms",
    "SliceGeometry",
    "WarpFactor",
    "conserved_mass",
    "slice_geometry",
    "slice_mass_derivative",
    "solve_warp_factor",
    "static_chart_roots",
    "AreaBoundReport",
    "FdSecondVariation",
    "JacobiSpectrum",
    "QuadraticFormReport",
    "area_bound_check",
    "fd_second_variation",
    "jacobi_spectrum",
    "mean_deviation_coercivity",
    "minimal_slice_rigidity",
    "quadratic_form_report",
    "second_variation_by_degree",
    "second_variation_minimal",
    "slice_second_variation",
    "strict_stability_inequality_check",
    "weak_stability_margin",
    "CriticalPointReport",
    "FoliationScan",
    "SweepConfig",
    "SweepRecord",
    "SweepReport",
    "critical_point_classifier",
    "draw_perturbation",
    "foliation_scan",
    "perturbation_sweep",
    "__version__",
]
