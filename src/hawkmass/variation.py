"""Second-variation forms of the Hawking mass around round slices.

Everything here is closed-form in the degree decomposition of the
perturbation: rotation invariance diagonalizes the quadratic forms over
spherical-harmonic degrees, so a perturbation with degree energies E_l
(unit-sphere normalization; slice L^2 squares are u^2 E_l) has

    second variation = sum_l q_l * u^2 E_l

with per-degree coefficients q_l reported below.  A finite-difference
oracle built on cancellation-free mass deficits provides the independent
route for every closed form.

Eigenvalue convention: the stability (Jacobi) operator
L = lap + Ric(nu, nu) + |A|^2 acts on a degree-l harmonic as -lambda_l,
lambda_l = l(l+1)/u^2 + 2u''/u - 2u'^2/u^2 (u'' via the profile
equation).  lambda_0, carried by the constants, is the first eigenvalue.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .graph import hawking_mass_deficit
from .sphere import HarmonicField
from .warp import WarpFactor, slice_geometry

__all__ = [
    "JacobiSpectrum",
    "AreaBoundReport",
    "QuadraticFormReport",
    "FdSecondVariation",
    "jacobi_spectrum",
    "area_bound_check",
    "minimal_slice_rigidity",
    "slice_second_variation",
    "second_variation_by_degree",
    "second_variation_minimal",
    "fd_second_variation",
    "strict_stability_inequality_check",
    "mean_deviation_coercivity",
    "weak_stability_margin",
    "quadratic_form_report",
]


@dataclass
class JacobiSpectrum:
    """Stability-operator eigenvalues on one slice, by harmonic degree."""

    a: float
    r: float
    u: float
    potential: float            # Ric(nu,nu) + |A|^2
    lambda_by_degree: np.ndarray

    @property
    def first_eigenvalue(self) -> float:
        """Smallest eigenvalue; its eigenfunctions are the constants."""
        return float(self.lambda_by_degree[0])


def jacobi_spectrum(w: WarpFactor, r: float, lmax: int) -> JacobiSpectrum:
    """Eigenvalues lambda_l of the stability operator on the slice at r.

    Convention L phi + lambda phi = 0; the potential Ric(nu,nu) + |A|^2
    is read from ``slice_geometry``, whose u'' comes from the profile
    equation, never from a finite difference.
    """
    if lmax < 0:
        raise ValueError("lmax must be >= 0")
    geo = slice_geometry(w, r)
    return JacobiSpectrum(
        a=w.a, r=geo.r, u=geo.u,
        potential=geo.ricci_normal + geo.shape_operator_sq,
        lambda_by_degree=_jacobi_eigenvalue(geo, np.arange(lmax + 1)),
    )


def _jacobi_eigenvalue(geo, l):
    """lambda_l = l(l+1)/u^2 - (Ric(nu,nu) + |A|^2) on the slices of geo."""
    return l * (l + 1.0) / (geo.u * geo.u) - (geo.ricci_normal
                                             + geo.shape_operator_sq)


@dataclass
class AreaBoundReport:
    """Area bound |S| <= 4 pi / (lambda_1 + 1) at the minimal slice,
    together with the rigidity data that saturates it."""

    a: float
    area: float
    first_eigenvalue: float
    bound: float
    margin: float
    shape_operator_sq: float
    ricci_normal: float
    gauss_curvature: float
    ambient_scalar: float
    eigengap: float             # lambda_1(degree 1) - lambda_0 > 0


def area_bound_check(area: float, first_eigenvalue: float) -> float:
    """Margin 4 pi / (lambda + 1) - area of the stable-sphere area bound.

    Nonnegative for stable minimal two-spheres in ambient scalar
    curvature >= 2; zero exactly at the minimal slices of the model
    family, and in the borderline cylinder case (area 4 pi, eigenvalue 0).
    """
    if first_eigenvalue < 0.0:
        raise ValueError("first eigenvalue must be >= 0 (stability)")
    if area <= 0.0:
        raise ValueError("area must be positive")
    return float(4.0 * np.pi / (first_eigenvalue + 1.0) - area)


def minimal_slice_rigidity(w: WarpFactor) -> AreaBoundReport:
    """Evaluate the rigidity-area bound at the minimal slice.

    The model slices saturate the bound: area equals
    4 pi / (lambda_0 + 1) with vanishing shape operator, ambient scalar
    curvature 2, Ric(nu, nu) = -lambda_0 and Gauss curvature 4 pi / area.
    """
    geo = slice_geometry(w, 0.0)
    lam0, lam1 = _jacobi_eigenvalue(geo, np.arange(2)).tolist()
    bound = 4.0 * np.pi / (lam0 + 1.0)
    # Gauss equation: R = 2K + 2 Ric(nu, nu) - H^2 + |A|^2
    ambient_scalar = (2.0 * geo.gauss_curvature + 2.0 * geo.ricci_normal
                      - geo.mean_curvature ** 2 + geo.shape_operator_sq)
    return AreaBoundReport(
        a=w.a,
        area=geo.area,
        first_eigenvalue=lam0,
        bound=bound,
        margin=area_bound_check(geo.area, lam0),
        shape_operator_sq=geo.shape_operator_sq,
        ricci_normal=geo.ricci_normal,
        gauss_curvature=geo.gauss_curvature,
        ambient_scalar=ambient_scalar,
        eigengap=lam1 - lam0,
    )


def second_variation_by_degree(w: WarpFactor, r: float, lmax: int) -> np.ndarray:
    """Per-degree coefficients q_l of the slice second variation.

    q_l is the second derivative of the Hawking mass along the normal
    graph family of a degree-l harmonic with unit slice L^2 norm; q_0 = 0
    because radial reparameterizations keep the mass constant.
    """
    u, up = w.evaluate(float(r))
    m = w.mass
    ll = np.arange(lmax + 1)
    k = ll * (ll + 1.0)
    u3 = u**3
    q = (
        -(k * k) / (16.0 * np.pi * u3)
        + k / (8.0 * np.pi * u3)
        - 3.0 * m * k / (8.0 * np.pi * u3 * u)
    )
    hsq = 4.0 * up * up / (u * u)
    q = q + np.where(ll >= 1, 3.0 * m * hsq / (16.0 * np.pi * u * u), 0.0)
    q[0] = 0.0
    return q


def slice_second_variation(w: WarpFactor, r: float, phi: HarmonicField) -> float:
    """Second derivative of the Hawking mass along the graph family of phi.

    The paper's closed form over the slice at radius r: with the slice
    area |S|, conserved mass m and slice mean curvature H,

        -|S|^{1/2}/(32 pi^{3/2}) * int (lap phi)^2
        + 1/(4 pi^{1/2} |S|^{1/2}) * int |grad phi|^2
        - 3m/(2|S|) * int |grad phi|^2
        + 3m/(4|S|) * H^2 * int (phi - mean)^2 .

    Each integral is diagonal over harmonic degrees, so the form is
    evaluated as u^2 * sum_l q_l E_l with q_l from
    ``second_variation_by_degree`` and E_l the degree energies of phi.
    A block of fields gives an array, one value per row.
    """
    u, _ = w.evaluate(float(r))
    q = second_variation_by_degree(w, r, phi.lmax)
    value = u * u * np.sum(q * phi.degree_energies(), axis=-1)
    return float(value) if np.ndim(value) == 0 else value


def second_variation_minimal(w: WarpFactor, phi: HarmonicField) -> float:
    """Second variation at the minimal slice via the stability operator.

    Valid only at r = 0 where the slice is minimal:

        -(16 pi - 4|S|/3) / (128 pi^{3/2} |S|^{1/2}) * int phi L phi
        + |S|^{1/2}/(64 pi^{3/2}) * (-2 int (L phi)^2 + 4/3 int phi L phi)

    which on a unit-norm degree-l eigenfunction collapses to
    lambda_l (1 - a^2 - a^2 lambda_l) / (16 pi a).
    """
    spec = jacobi_spectrum(w, 0.0, phi.lmax)
    lam = spec.lambda_by_degree
    a = w.a
    norms_sq = a * a * phi.degree_energies()      # slice L^2 squares by degree
    int_philphi = float(np.sum(-lam * norms_sq))
    int_lphi_sq = float(np.sum(lam * lam * norms_sq))
    area = 4.0 * np.pi * a * a
    sqrt_area = np.sqrt(area)
    return float(
        -int_philphi * (16.0 * np.pi - 4.0 * area / 3.0)
        / (128.0 * np.pi**1.5 * sqrt_area)
        + sqrt_area / (64.0 * np.pi**1.5)
        * (-2.0 * int_lphi_sq + 4.0 / 3.0 * int_philphi)
    )


@dataclass
class FdSecondVariation:
    """Finite-difference estimate of the second variation.

    ``value`` is the central second difference of the mass deficit at
    steps +-h; the +-2h deficits give a Richardson error estimate for the
    O(h^2) truncation and a refined combination.
    """

    value: float
    step: float
    error_estimate: float
    refined: float
    deficits: tuple


def fd_second_variation(w: WarpFactor, r: float, phi: HarmonicField,
                        step: float = 1.0e-3) -> FdSecondVariation:
    """Second derivative of t -> m_H(graph(t * phi)) at t = 0 by central
    differences of cancellation-free deficits at t in {+-h, +-2h}.

    Truncation error is O(h^2); the wide pair supplies the Richardson
    estimate.  Raises RangeError if the +-2h graphs leave the range, and
    ValueError for a step whose square is not a normal float (below about
    1.5e-154), which would divide by zero or by a subnormal h^2.
    """
    if not (step > 0.0 and np.isfinite(step)):
        raise ValueError("step must be positive and finite")
    h = float(step)
    if h * h < sys.float_info.min:
        raise ValueError(f"step {h:g} is too small: its square is below "
                         f"the smallest normal float {sys.float_info.min:g}")
    d = {}
    for mult in (1.0, -1.0, 2.0, -2.0):
        d[mult] = hawking_mass_deficit(w, r, phi, mult * h)
    v_h = (d[1.0] + d[-1.0]) / (h * h)
    v_2h = (d[2.0] + d[-2.0]) / (4.0 * h * h)
    err = (v_2h - v_h) / 3.0
    return FdSecondVariation(
        value=float(v_h),
        step=h,
        error_estimate=float(err),
        refined=float(v_h - err),
        deficits=(d[1.0], d[-1.0], d[2.0], d[-2.0]),
    )


@dataclass
class StrictStabilityCheck:
    """Data of the strict stability inequality on one eigenfunction:
    2|S| int (L phi)^2 >= (8 pi - 2|S|) (-int phi L phi), with equality
    exactly on the constants."""

    degree: int
    eigenvalue: float
    lhs: float
    rhs: float
    slack: float


def strict_stability_inequality_check(w: WarpFactor,
                                      phi: HarmonicField) -> StrictStabilityCheck:
    """Evaluate both sides of the strict stability inequality at the
    minimal slice for a single-degree field phi."""
    e = phi.degree_energies()
    nz = np.nonzero(e > 0.0)[0]
    if nz.size != 1:
        raise ValueError("phi must be supported on a single degree")
    l = int(nz[0])
    lam = float(jacobi_spectrum(w, 0.0, l).lambda_by_degree[l])
    a = w.a
    norm_sq = a * a * float(e[l])
    area = 4.0 * np.pi * a * a
    lhs = 2.0 * area * lam * lam * norm_sq
    rhs = (8.0 * np.pi - 2.0 * area) * lam * norm_sq
    return StrictStabilityCheck(
        degree=l, eigenvalue=lam, lhs=float(lhs), rhs=float(rhs),
        slack=float(lhs - rhs),
    )


def mean_deviation_coercivity(w: WarpFactor, r: float) -> float:
    """Constant C > 0 with slice_second_variation(phi) <= -C int (phi -
    mean)^2 dsigma for every mean-free phi on the slice at r.

    C = 3 m (1 - u'^2) / (4 pi u^4); per degree the gap is
    -q_l - C = (k - 2)(k u + 6 m)/(16 pi u^4) with k = l(l+1), so the
    bound is saturated exactly on degree 1.
    """
    u, up = w.evaluate(float(r))
    return float(3.0 * w.mass * (1.0 - up * up) / (4.0 * np.pi * u**4))


def weak_stability_margin(w: WarpFactor, r):
    """Stability margin of the slice at r, a scalar or an array of radii,
    against the minimal slice's first eigenvalue: min over nonconstant
    degrees of lambda_l(r), minus lambda_0(0).  The minimum sits at
    degree 1."""
    lam0_min = jacobi_spectrum(w, 0.0, 0).first_eigenvalue
    val = _jacobi_eigenvalue(slice_geometry(w, r), 1) - lam0_min
    return float(val) if np.ndim(val) == 0 else val


@dataclass
class QuadraticFormReport:
    """Per-degree second-variation coefficients and the coercivity
    constant extracted from them."""

    a: float
    r: float
    lmax: int
    q_by_degree: np.ndarray
    c_est: float
    definite: bool


def quadratic_form_report(w: WarpFactor, r: float, lmax: int) -> QuadraticFormReport:
    """Coefficients q_l for degrees 0..lmax plus the coercivity estimate.

    C_est = min over l >= 1 of (-q_l) / w_l with w_l the W^{2,2} square of
    a unit-slice-norm degree-l harmonic; positive iff the form is negative
    definite on the nonconstant modes (it is, on every slice).
    """
    if lmax < 1:
        raise ValueError("lmax must be >= 1 to estimate coercivity")
    q = second_variation_by_degree(w, r, lmax)
    u, _ = w.evaluate(float(r))
    ll = np.arange(lmax + 1)
    k = ll * (ll + 1.0)
    w22_weight = 1.0 + k / (u * u) + (k / (u * u)) ** 2
    ratios = -q[1:] / w22_weight[1:]
    c_est = float(np.min(ratios))
    return QuadraticFormReport(
        a=w.a, r=float(r), lmax=int(lmax), q_by_degree=q,
        c_est=c_est, definite=bool(np.all(q[1:] < 0.0)),
    )
