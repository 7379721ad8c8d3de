"""Periodic warp factors of deSitter-Schwarzschild type.

Solves u'' = (1 - u'^2) / (2 u) - u / 2 with u(0) = a in (0, 1),
u'(0) = 0, the profile equation of the warped metric
dr^2 + u(r)^2 g_{S^2} with scalar curvature normalized to 2.
Solutions oscillate between u = a and a maximal radius, and carry the
first integral

    m = (u / 2) (1 - u'^2 - u^2 / 3)

whose initial value is m_a = (a / 2)(1 - a^2 / 3).

The profile comes from a fixed-order Taylor stepper (Jorba & Zou, Exp.
Math. 14, 2005): each step expands the solution to order 28 around its
base point, with coefficients from the differential equation's own
recurrence, and walks a quarter of that expansion's convergence radius.
``_taylor_column`` runs that recurrence in plain floats, once per step
or base-slice patch.  The stepper's patches are the profile:
``WarpFactor`` keeps each step's node and expansion and evaluates the
expansion of the step that contains a radius (the dense output of the
Taylor method itself), so no derivative of the numerical solution is
ever estimated by finite differences.

The period comes from the paper's static chart
drho^2 / V(rho) + rho^2 g_{S^2}, V = 1 - rho^2 / 3 - 2 m / rho, where
rho = u and u'^2 = V(u).  With u = a + (b - a) sin^2(theta) between V's
roots a < b it is

    T = 4 sqrt(3) int_0^{pi/2} sqrt(u / (u + a + b)) dtheta,

a smooth periodic quadrature, which the midpoint rule sums to roundoff
(Trefethen & Weideman, SIAM Review 56, 2014).  So the stepper stops at
T/2, and ``evaluate`` folds every radius into [0, T/2].

The same chart gives the radius at which the profile reaches a given u:
r(theta) is that integral taken on [0, theta], which ``_static_radius``
sums by Gauss-Legendre quadrature.  ``sweeps`` reads the weak-stability
margin's flip radius from it, so the package needs no root finder and
numpy alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cache, reduce
from operator import add, mul

import numpy as np

from .errors import RangeError, SolveError
from .sphere import _gauss_legendre

__all__ = [
    "WarpFactor",
    "SliceGeometry",
    "solve_warp_factor",
    "conserved_mass",
    "slice_geometry",
    "slice_mass_derivative",
    "static_chart_roots",
    "A_MIN",
    "A_MAX",
]

A_MIN = 1.0e-3
A_MAX = 1.0 - 1.0e-6

# the longest solved range, and the conserved-mass drift a solve may show
_MAX_RANGE = 1.0e3
_DRIFT_BOUND = 1.0e-9
_BASE_ORDER = 28
_POWERS = np.arange(1, _BASE_ORDER + 1, dtype=float)
# a Taylor step's length, as a fraction of its expansion's convergence radius
_STEP_FRACTION = 0.25
# truncation error a base-slice patch must stay below to be used
_PATCH_TOL = 1.0e-13
# a patch sum bounded by smax drops the orders whose term at smax is below
# this fraction of its largest term, 2^-43 of the sum's last bit
_ORDER_CUT = 2.0 ** -96


def _taylor_column(u0: float, up0: float) -> list:
    """Taylor coefficients [U_0, ..., U_28] (order ``_BASE_ORDER``) of
    the solution through (u0, up0), in plain floats, with
    u(r0 + s) = sum_k U[k] s^k.

    Uses 2 u u'' + u'^2 + u^2 = 1 order by order: each order sums each
    factor pair's Cauchy product left to right from 0.0, then adds the
    three pair sums in a fixed order.  The built-in ``sum`` is not used:
    from Python 3.12 it compensates float sums, so its bits would depend
    on the interpreter.
    """
    # the factor pairs (2u, u''), (u', u') and (u, u); each product pairs
    # the k + 1 leading terms of its left factor, read backwards, with the
    # right factor's, where map stops
    U = [u0, up0]
    D = [up0]               # u'
    twoU = [2.0 * u0, 2.0 * up0]
    A = [0.0]               # u'', one order behind: its top term is zero
    for k in range(_BASE_ORDER - 1):
        acc = 0.0
        for left, right in ((twoU, A), (D, D), (U, U)):
            acc += reduce(add, map(mul, left[k::-1], right), 0.0)
        top = ((1.0 if k == 0 else 0.0) - acc) / (2.0 * u0 * (k + 1) * (k + 2))
        U.append(top)
        twoU.append(2.0 * top)
        D.append((k + 2) * top)
        A[k] = (k + 1) * (k + 2) * top
        A.append(0.0)
    return U


def _convergence_radius(U):
    """Crude convergence radius of sum_k U[k] s^k from its tail."""
    ks = np.arange((U.size - 1) // 2, U.size)
    with np.errstate(divide="ignore"):
        return 1.0 / np.max(np.abs(U[ks]) ** (1.0 / ks))


def _horner(coeffs, s):
    """Evaluate sum_k coeffs[k] s^k: one coefficient per order, and a
    float or an array s."""
    res = coeffs[-1]
    for c in coeffs[-2::-1]:
        res = res * s + c
    return res


class TaylorPatch:
    """Taylor expansion of the warp factor around one base point."""

    def __init__(self, r0: float, u0: float, up0: float):
        self.r0 = float(r0)
        U = np.array(_taylor_column(float(u0), float(up0)))
        self.coeff_u = U
        self.coeff_up = U[1:] * np.arange(1, _BASE_ORDER + 1)
        # WarpFactor.taylor_patch hands one patch to many callers
        self.coeff_u.setflags(write=False)
        self.coeff_up.setflags(write=False)
        self.radius = float(_convergence_radius(U))
        self.trust = 0.5 * self.radius

    def tail_bound(self, smax: float) -> float:
        """Truncation error estimate of u and u' for |s| <= smax: the
        largest of the last two terms of either series, summed as a
        geometric series at the convergence radius.  One term alone
        misleads where it happens to be small, and the u' series, which
        graph builds read too, converges a factor order / x slower."""
        x = abs(smax)
        if x >= self.radius:
            return np.inf
        top = max(abs(c[-j]) * x**(c.size - j)
                  for c in (self.coeff_u, self.coeff_up) for j in (1, 2))
        return top / (1.0 - x / self.radius)

    def covers(self, smax: float) -> bool:
        """Whether |s| <= smax lies inside the trust radius with a tail
        bound below _PATCH_TOL."""
        return smax <= self.trust and self.tail_bound(smax) < _PATCH_TOL

    def eval_delta(self, s, smax: float | None = None):
        """(u, u', u - u(r0), u' - u'(r0)) at offsets s, a float or an
        array, with both differences summed without their constant terms,
        so they keep full relative accuracy for small s.

        Given a bound smax on |s|, each series runs Horner only up to its
        last order whose term at smax is above 2^-96 of the series' largest
        term there.  The orders past it add about 2^-43 of the sum's last
        bit or less on |s| <= smax, so dropping them leaves the sum's bits
        as they are.  At smax = 1e-2 and a in [0.2, 0.9] it keeps 11 to
        19 of the 28 orders."""
        cu, cup = self.coeff_u[1:], self.coeff_up[1:]
        if smax is not None:
            cu, cup = _orders(cu, smax), _orders(cup, smax)
        delta = _horner(cu, s) * s
        dup = _horner(cup, s) * s
        return self.coeff_u[0] + delta, self.coeff_up[0] + dup, delta, dup


def _orders(coeffs, smax: float):
    """The leading coefficients of the series sum_k coeffs[k] s^(k+1) that
    count on |s| <= smax; all of them when every term underflows."""
    terms = np.abs(coeffs) * float(smax) ** _POWERS[:coeffs.size]
    kept = np.flatnonzero(terms > _ORDER_CUT * np.max(terms))
    return coeffs[:kept[-1] + 1] if kept.size else coeffs


@dataclass
class SliceGeometry:
    """Closed-form geometry of round slices of the warped metric: floats
    for one slice, arrays for an array of radii."""

    r: float
    u: float
    uprime: float
    area: float
    mean_curvature: float
    shape_operator_sq: float
    gauss_curvature: float
    ricci_normal: float
    hawking_mass: float


class WarpFactor:
    """Solved warp factor: the Taylor stepper's nodes and their expansions.

    The profile is a function of a in [1e-3, 1 - 1e-6] alone; r_max in
    (0, 1e3] only bounds the radii it serves.  The constructor runs the
    stepper from (r, u, u') = (0, a, 0) and keeps the patch it builds at
    each node, the last node included.  Each node starts one step, and the
    order-28 expansion around it is the profile on that step.

    The nodes stop at T/2, with T the static-chart period, or at r_max if
    that comes first, so none lies past the served range: u is even about
    r = 0 and about T/2, so ``evaluate`` folds a radius past the last node
    into [0, T/2] with u(r + T) = u(r), u(T - s) = u(s) and
    u'(T - s) = -u'(s).  Radii below T/2 keep their bits, since the nodes
    there are the stepper's own; the fold of a larger radius is exact in
    floating point, and what it costs is the rounding of T itself, about
    eps |r| in phase.

    Attributes
    ----------
    a : float
        Minimal radius, the value of u at r = 0.
    mass : float
        Conserved first integral (a / 2)(1 - a^2 / 3).
    r_max : float
        End of the validated range [0, r_max]: ``evaluate`` serves |r| up
        to it and refuses larger radii; negative arguments are served by
        evenness of u.
    nodes : ndarray, shape (n, 3)
        Columns (r, u, u'), from r = 0 to min(r_max, T/2), each step a
        quarter of its expansion's convergence radius long, or shorter
        where it ends the range.
    period : float
        The static-chart period T of the profile, for every r_max.
    """

    def __init__(self, a, r_max):
        if not A_MIN <= a <= A_MAX:
            raise ValueError(f"a={a} outside admissible range [{A_MIN}, {A_MAX}]")
        if not 0.0 < r_max <= _MAX_RANGE:
            raise ValueError("r_max must be in (0, 1e3]")
        self.a = float(a)
        self.mass = 0.5 * self.a * (1.0 - self.a * self.a / 3.0)
        self.r_max = float(r_max)
        self.period = _static_period(self.a)
        end = min(self.r_max, 0.5 * self.period)
        # fixed-order Taylor stepping: each step is one base-point expansion,
        # taken a quarter of its convergence radius long
        patch = TaylorPatch(0.0, self.a, 0.0)
        patches = [patch]
        while patch.r0 < end:
            r1 = min(patch.r0 + _STEP_FRACTION * patch.radius, end)
            u1, up1 = patch.eval_delta(r1 - patch.r0)[:2]
            patch = TaylorPatch(r1, u1, up1)
            patches.append(patch)
        self.nodes = np.array([(p.r0, p.coeff_u[0], p.coeff_up[0])
                               for p in patches])
        self._r = np.ascontiguousarray(self.nodes[:, 0])
        # per node, the coefficients of s^1 .. s^28 in u and in u'
        self._tails = np.zeros((len(patches), 2, _BASE_ORDER))
        self._tails[:, 0] = [p.coeff_u[1:] for p in patches]
        self._tails[:, 1, :-1] = [p.coeff_up[1:] for p in patches]
        # the last patch built, as (r0, patch): sweeps build
        # graphs over one base slice again and again
        self._patch_memo = None

    # -- evaluation -----------------------------------------------------

    def evaluate(self, r):
        """(u, u') at radii r, vectorized; even continuation for r < 0.

        Each radius is served by the expansion of the step containing it;
        the terms past the constant are summed first, then the constant is
        added, which keeps the sum free of cancellation.  A radius past
        the last node is first folded into [0, T/2]: fmod by T and T - s
        are exact, so the fold adds only T's own rounding, about eps |r|
        in phase."""
        r = np.asarray(r, dtype=float)
        rr = r.reshape(-1)
        rf = np.abs(rr)
        odd = rr < 0.0
        top = rf.max(initial=0.0)
        # written so that a nan radius fails it too
        if not top <= self.r_max:
            raise RangeError(f"|r| outside solved range [0, {self.r_max:.6g}]")
        if top > self._r[-1]:
            rf = np.fmod(rf, self.period)
            back = rf > 0.5 * self.period
            rf = np.where(back, self.period - rf, rf)
            odd = odd != back
        idx = np.searchsorted(self._r, rf, side="right") - 1
        s = rf - self._r[idx]
        tail = np.einsum("ik,ijk->ij", s[:, None] ** _POWERS, self._tails[idx])
        val = self.nodes[idx, 1:] + tail
        u = val[:, 0]
        up = np.where(odd, -val[:, 1], val[:, 1])
        if r.ndim == 0:
            return float(u[0]), float(up[0])
        return u.reshape(r.shape), up.reshape(r.shape)

    def taylor_patch(self, r0: float) -> TaylorPatch:
        """Taylor expansion around r0, for graph builds near one slice.

        The last patch is kept and handed out again for the same r0;
        callers must not write to it."""
        r0 = float(r0)
        memo = self._patch_memo
        if memo is not None and memo[0] == r0:
            return memo[1]
        u0, up0 = self.evaluate(r0)
        patch = TaylorPatch(r0, u0, up0)
        self._patch_memo = (r0, patch)
        return patch

    def curvature_accel(self, u, up):
        """u'' from the profile equation (never finite-differenced)."""
        u = np.asarray(u, dtype=float)
        up = np.asarray(up, dtype=float)
        return (1.0 - up * up) / (2.0 * u) - 0.5 * u

    # -- serialization ----------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {
                "a": self.a,
                "mass": self.mass,
                "period": self.period,
                "r_max": self.r_max,
                "nodes": self.nodes.tolist(),
            }
        )

    @staticmethod
    def from_json(text: str) -> "WarpFactor":
        """Read ``to_json`` output, or an older document: a node table with
        no ``r_max``, or a uniform ``samples`` table of (r, u, u').

        Every format is re-solved from its a and its r_max, the stored one
        or else the table's last radius, once the stored mass is checked
        against a; the stored nodes and period are not read.  A malformed
        document raises ``ValueError`` that names what is wrong."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("warp document must be a JSON object")
        for key in ("a", "mass"):
            if key not in data:
                raise ValueError(f"warp document has no {key!r}")
        table = data.get("nodes", data.get("samples"))
        if not table:
            raise ValueError("warp document has no nodes and no samples")
        try:
            a, mass = float(data["a"]), float(data["mass"])
            r_max = float(data.get("r_max", table[-1][0]))
        except (TypeError, ValueError, IndexError, KeyError) as exc:
            raise ValueError(
                f"warp document: a, mass and r_max must be numbers ({exc})"
            ) from None
        # written so that a nan mass fails it too
        if not abs(mass - 0.5 * a * (1.0 - a * a / 3.0)) <= 1.0e-10:
            raise ValueError("stored mass inconsistent with stored a")
        return solve_warp_factor(a, r_max)

    def __repr__(self):  # pragma: no cover
        return (
            f"WarpFactor(a={self.a}, r_max={self.r_max}, "
            f"period={self.period}, n={self.nodes.shape[0]})"
        )


def solve_warp_factor(a: float, r_max: float) -> WarpFactor:
    """Integrate the warp profile equation by Taylor steps on
    [0, min(r_max, T/2)], T the static-chart period, and check its first
    integral; the profile it returns serves all of [-r_max, r_max] by
    evenness and folding.

    Every r_max >= T/2 gives the same nodes, and every r_max the same
    period; r_max only bounds the radii the profile serves.  The first
    integral is verified to drift at most 1e-9 on the step nodes and
    midpoints; the stepper keeps it near 5e-15.

    Parameters
    ----------
    a : float
        Minimal radius in [1e-3, 1 - 1e-6].
    r_max : float
        Length of the solved range, in (0, 1e3].
    """
    w = WarpFactor(a, r_max)
    rs = w.nodes[:, 0]
    mids = 0.5 * (rs[1:] + rs[:-1])
    drift = np.max(np.abs(conserved_mass(w, np.concatenate([rs, mids])) - w.mass))
    if not drift <= _DRIFT_BOUND:
        raise SolveError(
            f"conserved-mass drift {drift:.3e} exceeds {_DRIFT_BOUND:.0e}")
    return w


def _static_gap(a: float) -> float:
    """b - a for the roots a < b of u^3 - 3u + 6m, m = (a / 2)(1 - a^2 / 3).

    Since u^3 - 3u + 6m = (u - a)(u^2 + a u + a^2 - 3), b solves the
    quadratic; its difference from a is written without cancellation,
    so it keeps full relative accuracy as a -> 1, where the roots merge.
    """
    return (6.0 * (1.0 - a) * (1.0 + a)
            / (math.sqrt(12.0 - 3.0 * a * a) + 3.0 * a))


def _static_period(a: float) -> float:
    """Period of the warp profile with minimal radius a, from the static
    chart: T = 4 sqrt(3) int_0^{pi/2} sqrt(u / (u + a + b)) dtheta with
    u = a + (b - a) sin^2(theta).

    The integrand is smooth, even and pi-periodic in theta, so the
    midpoint rule converges geometrically.  Its nearest singularity, where
    u = 0, lies about sqrt(a / (b - a)) off the real axis, 0.024 at
    a = 1e-3.  With 512 points the sum is converged: it differs from the
    4096-point sum by roundoff alone, at most 3 ulp on [1e-3, 1 - 1e-6],
    and lies within 2 ulp of T against a 35-digit quadrature.
    """
    n = 512
    gap = _static_gap(a)
    theta = (np.arange(n) + 0.5) * (0.5 * math.pi / n)
    u = a + gap * np.sin(theta) ** 2
    f = np.sqrt(u / (u + (2.0 * a + gap)))
    return 2.0 * math.sqrt(3.0) * math.pi / n * float(np.sum(f))


@cache
def _radius_nodes():
    """The 32 Gauss-Legendre nodes and weights of ``_static_radius``,
    built on first use."""
    return _gauss_legendre(32)


def _static_radius(a: float, theta: float) -> float:
    """Radius r(theta) = 2 sqrt(3) int_0^theta sqrt(u / (u + a + b))
    dtheta' of the profile with minimal radius a, where it reaches
    u = a + (b - a) sin^2(theta), for theta in [0, pi/2].

    The integrand of ``_static_period``, taken on [0, theta]: no longer
    periodic, so summed by Gauss-Legendre quadrature, which converges as
    fast on its analytic integrand.  At the margin flip angles of 30 values
    of a in [1e-3, 0.7234], the 32-node sum lies within 4 ulp of a
    40-digit quadrature, and 16 and 64 nodes give it to 7 ulp: the sum is
    converged, and what is left is the rounding of the weights.
    """
    x, weights = _radius_nodes()
    gap = _static_gap(a)
    t = 0.5 * theta * (x + 1.0)
    u = a + gap * np.sin(t) ** 2
    f = np.sqrt(u / (u + (2.0 * a + gap)))
    return math.sqrt(3.0) * theta * float(weights @ f)


def conserved_mass(w: WarpFactor, r) -> float:
    """First integral (u/2)(1 - u'^2 - u^2/3) evaluated at radius r."""
    u, up = w.evaluate(r)
    val = 0.5 * u * (1.0 - up * up - u * u / 3.0)
    return float(val) if np.ndim(val) == 0 else val


def _mass_from_integrals(area, willmore):
    """Hawking mass with Lambda = 2 from the area and the integral of H^2."""
    val = (np.sqrt(area / (16.0 * np.pi))
           * (1.0 - willmore / (16.0 * np.pi) - area / (12.0 * np.pi)))
    return float(val) if np.ndim(val) == 0 else val


def slice_geometry(w: WarpFactor, r) -> SliceGeometry:
    """Geometry of the round slices at radius r, a scalar or an array.

    A scalar r gives float fields, an array of radii gives arrays of its
    shape; both come from one ``evaluate``.  The outward unit normal
    points toward increasing r; with that orientation the slice mean
    curvature is -2 u' / u.
    """
    r = np.asarray(r, dtype=float)
    u, up = w.evaluate(r)
    upp = w.curvature_accel(u, up)
    area = 4.0 * np.pi * u * u
    mean_curv = -2.0 * up / u
    geo = dict(r=r, u=u, uprime=up, area=area, mean_curvature=mean_curv,
               shape_operator_sq=2.0 * up * up / (u * u),
               gauss_curvature=1.0 / (u * u), ricci_normal=-2.0 * upp / u,
               hawking_mass=_mass_from_integrals(
                   area, mean_curv * mean_curv * area))
    if r.ndim == 0:
        geo = {k: float(v) for k, v in geo.items()}
    return SliceGeometry(**geo)


def slice_mass_derivative(w: WarpFactor, r):
    """Radial derivative of the slice Hawking mass at r, a scalar or an
    array of radii.

    Equals (1/2) u' (1 - u'^2 - u^2 - 2 u u'') and vanishes identically
    along solutions of the profile equation.
    """
    u, up = w.evaluate(r)
    upp = w.curvature_accel(u, up)
    val = 0.5 * up * (1.0 - up * up - u * u - 2.0 * u * upp)
    return float(val) if np.ndim(val) == 0 else val


def static_chart_roots(mass: float) -> tuple[float, float]:
    """Positive roots of 1 - r^2/3 - 2 m / r = 0, ascending.

    These are the horizon radii of the static chart and coincide with the
    minimal and maximal warp radii.  Both exist iff 0 < m < 1/3.

    The roots are ill-conditioned in m as m -> 1/3, where they merge at 1:
    a relative change eps in m moves them by about sqrt(eps).  Their gap
    b - a is off by 6.2e-9 relative at a = 0.99999 and by 3.4e-5 at
    a = 1 - 1e-6.  So the period takes the gap from a (``_static_gap``),
    never from these roots.
    """
    m = float(mass)
    if not 0.0 < m < 1.0 / 3.0:
        raise ValueError(f"mass {m} outside (0, 1/3); no two positive roots")
    roots = np.roots([1.0, 0.0, -3.0, 6.0 * m])
    real = roots[np.abs(roots.imag) < 1e-9].real
    pos = np.sort(real[real > 0.0])
    if pos.size != 2:
        raise SolveError("expected exactly two positive roots")
    out = []
    for r0 in pos:
        for _ in range(3):  # Newton polish
            f = r0**3 - 3.0 * r0 + 6.0 * m
            df = 3.0 * r0 * r0 - 3.0
            if df != 0.0:
                r0 = r0 - f / df
        out.append(float(r0))
    return out[0], out[1]
