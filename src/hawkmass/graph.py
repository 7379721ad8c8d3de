"""Normal graphs over round slices and their extrinsic geometry.

A surface is the radial graph r = base_r + phi(x) over the sphere factor,
sitting inside the warped product dr^2 + u(r)^2 g_{S^2}.  The second
fundamental form is assembled symbolically in u, u', the graph function
and its sphere derivatives; u'' never appears because the profile
equation eliminates it.  The intrinsic curvature comes from the ambient
Gauss equation with scalar curvature 2, and the Hawking mass uses the
cosmological normalization Lambda = 2.

Orientation: the unit normal has positive radial component, so round
slices have mean curvature -2 u' / u and the area element shrinks at
rate phi * (2 u' / u) under an outward normal push of speed phi.

Quadrature lives on a geometry grid with twice the band limit of phi
(minimum 16) to keep the rational nonlinearities from aliasing back into
the low modes.

One builder, ``_graph_surface``, forms a graph's node geometry from the
jet of phi as the base slice plus differences: u - u0 and u' - u0', from
the base-slice patch where its gate ``covers`` accepts the offsets and
from the global profile by subtraction past it, give the differences of
the area element, metric, second fundamental form and mean curvature
without cancellation, and each full quantity is the round slice's plus
its difference.  ``GraphSurface.mass_deficit`` only integrates the kept
differences, for every graph.  Both run on a block of graphs over one
base slice as well, node arrays ``(B, n_lat, n_lon)`` with one quadrature
sum per row; a sweep builds its samples that way, and each row equals the
graph built on its own.

The builder writes every node array in place, by ufuncs with ``out=``,
into buffers it is handed: one kind for its temporaries, one for the
arrays the surface holds.  A sweep hands it buffers it keeps for all its
blocks, so no block allocates the build's node arrays, and its block
surfaces never leave the sweep's ``_sample_block``.  ``build_graph`` and
the other single-graph routes run the same code on ``sphere._FRESH``,
which makes new arrays for every request, so a surface a caller holds
shares no buffer with any other.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import RangeError, SolveError
from .sphere import (_FRESH, HarmonicField, SphereGrid, _geometry_lmax,
                     get_grid)
from .warp import WarpFactor, _mass_from_integrals

__all__ = [
    "GraphSurface",
    "build_graph",
    "hawking_mass_deficit",
    "induced_laplacian",
    "surface_report",
]

# conjugate gradients on the induced Gram matrix: stop at this relative
# residual, give up after this many iterations
_CG_RTOL = 1.0e-14
_CG_MAX_ITER = 200


@dataclass
class GraphSurface:
    """Geometry of one radial graph, sampled on its geometry grid.

    Node arrays all have shape (n_lat, n_lon).  ``area_element`` is the
    induced area density against the round unit-sphere element.  A block
    of graphs (``phi`` a block of fields) has node arrays (B, n_lat, n_lon)
    and arrays of B areas, Willmore integrals and mass deficits, and its
    ``scale`` may be an array of per-row scales, shape (B, 1, 1); the
    residual and Q-integral take a single graph.  The curvatures past the
    mean curvature, the two integrals and the Euler-Lagrange residual
    ``el_residual`` are formed when first read and kept, since the mass
    deficit needs none of them; the residual's one induced Gram solve is
    the costliest read.
    """

    warp: WarpFactor
    base_r: float
    phi: HarmonicField
    scale: float
    grid: SphereGrid
    u: np.ndarray
    uprime: np.ndarray
    tilt: np.ndarray            # W = sqrt(1 + |grad rho|^2 / u^2)
    area_element: np.ndarray    # u^2 W
    mean_curvature: np.ndarray
    _hinv: tuple = field(repr=False)
    # the second fundamental form (tt, tl, ll)
    _sff: tuple = field(repr=False)
    # |grad rho|^2 on the unit sphere
    _grad_sq: np.ndarray = field(repr=False)
    # (u0, u0', u^2 W - u0^2, H - H0) against the base slice
    _delta: tuple = field(repr=False)

    @cached_property
    def shape_sq(self) -> np.ndarray:
        """|A|^2 at the nodes."""
        h_tt, h_tl, h_ll = self._hinv
        a_tt, a_tl, a_ll = self._sff
        m_tt = h_tt * a_tt + h_tl * a_tl
        m_tl = h_tt * a_tl + h_tl * a_ll
        m_lt = h_tl * a_tt + h_ll * a_tl
        m_ll = h_tl * a_tl + h_ll * a_ll
        return m_tt * m_tt + m_ll * m_ll + 2.0 * m_tl * m_lt

    @cached_property
    def ricci_normal(self) -> np.ndarray:
        """Ric(nu, nu) of the ambient metric at the nodes."""
        u, up, grad_sq = self.u, self.uprime, self._grad_sq
        one_minus_upsq = 1.0 - up * up
        return (
            1.0
            - one_minus_upsq / (u * u)
            + grad_sq * (one_minus_upsq + u * u) / (2.0 * u**4)
        ) / (1.0 + grad_sq / (u * u))

    @cached_property
    def gauss_curvature(self) -> np.ndarray:
        """Intrinsic curvature, from the Gauss equation with R = 2."""
        h = self.mean_curvature
        return 1.0 - self.ricci_normal + 0.5 * (h * h - self.shape_sq)

    @cached_property
    def area(self):
        """Area; an array of B areas for a block."""
        return _node_sum(self.grid.quad_weights * self.area_element)

    @cached_property
    def willmore(self):
        """Integral of H^2; an array for a block."""
        return _node_sum(self.grid.quad_weights * self.area_element
                         * self.mean_curvature ** 2)

    def hawking_mass(self) -> float:
        """Hawking mass with Lambda = 2:
        sqrt(|S|/16pi) (1 - int H^2 / 16pi - |S| / 12pi)."""
        return _mass_from_integrals(self.area, self.willmore)

    def mass_deficit(self) -> float:
        """m_H(graph) - m_H(base slice), evaluated without cancellation.

        Integrates the area-element and mean-curvature differences the
        builder keeps, and expands the mass difference algebraically.  On
        the minimal slice (u0' = 0) every difference is quadratic in
        scale, so deficits keep full relative accuracy down to ~1e-16.
        Off it, O(scale) pointwise terms that integrate to 0 only
        analytically leave roundoff of about eps * scale on an O(scale^2)
        deficit, so the relative floor scales as eps / (scale * |phi|),
        eps the machine epsilon.  At a = 0.5 a random mean-free degree-8
        phi with max coefficient 0.3 spread by 2.7e-13 (scale 1e-4) to
        2.3e-11 (scale 1e-6) at base_r 0.4, relative, across geometry
        band limits 16 to 48.  The damped fields a sweep draws
        (coefficients 0.3 N(0, 1) / l^2) are smaller for the same scale:
        at scale 1e-6 their spread reaches 1.9e-10 to 3.1e-10 at base_r
        0.4 and 6.7e-10 to 1.1e-9 at base_r 1.5 (median to max).  Past the
        patch gate, u - u0 and u' - u0' come from the global profile by
        subtraction, about eps * u absolute, small against the O(1e-1)
        deficit of a graph that large.
        """
        u0, up0, d_area_el, d_mean = self._delta
        h0 = -2.0 * up0 / u0
        d_willmore_el = (d_mean * (self.mean_curvature + h0) * self.area_element
                         + h0 * h0 * d_area_el)

        qw = self.grid.quad_weights
        area0 = 4.0 * np.pi * u0 * u0
        will0 = 16.0 * np.pi * up0 * up0
        d_area = _node_sum(qw * d_area_el)
        d_will = _node_sum(qw * d_willmore_el)
        area = area0 + d_area
        will = will0 + d_will
        s0 = np.sqrt(area0 / (16.0 * np.pi))
        s1 = np.sqrt(area / (16.0 * np.pi))
        d_s = d_area / (16.0 * np.pi * (s0 + s1))
        deficit = (
            d_s * (1.0 - will / (16.0 * np.pi) - area / (12.0 * np.pi))
            + s0 * (-d_will / (16.0 * np.pi) - d_area / (12.0 * np.pi))
        )
        return float(deficit) if np.ndim(deficit) == 0 else deficit

    @cached_property
    def el_residual(self) -> np.ndarray:
        """Pointwise residual of the criticality equation on the nodes,
        lap H + (criticality potential) * H; one induced Gram solve."""
        lap_h = induced_laplacian(self, self.mean_curvature)
        return lap_h + _el_potential(self) * self.mean_curvature

    def el_residual_max(self) -> float:
        return float(np.max(np.abs(self.el_residual)))

    def q_integral(self) -> float:
        """Integral of the criticality potential; nonnegative, zero only
        for umbilic surfaces."""
        q = _el_potential(self)
        return float(np.sum(self.grid.quad_weights * self.area_element * q))


def _node_sum(values: np.ndarray):
    """Sum of node values ``(..., n_lat, n_lon)`` over the nodes: one
    contiguous sum per field, a float for a single field."""
    total = np.sum(values.reshape(values.shape[:-2] + (-1,)), axis=-1)
    return float(total) if np.ndim(total) == 0 else total


def _graph_surface(w: WarpFactor, base_r: float, phi: HarmonicField,
                   scale, grid: SphereGrid, jet: dict, scratch=_FRESH,
                   out=_FRESH) -> GraphSurface:
    """The graph r = base_r + scale * phi over the jet of phi on ``grid``:
    its pointwise geometry, each curvature the base slice's plus a
    difference formed without cancellation.  A block of fields with its
    block jet gives a block of graphs, with a float scale or one scale per
    row, shape (B, 1, 1); the range check then holds for every row, a row
    reads the patch exactly where the gate accepts its own offsets, and
    each row has the bits of its own graph.

    Every node array is written by ufuncs with ``out=``: the build's
    temporaries into buffers of ``scratch``, the arrays the surface holds
    into buffers of ``out``.  Each comment gives the expression a buffer
    holds, with the operand order and association the calls keep.  By
    default both make new arrays, so nothing else ever writes the arrays
    of a surface built that way."""
    base_r = float(base_r)
    t = scale if np.ndim(scale) else float(scale)
    shape = jet["f"].shape
    st = grid.sin_theta[:, None]
    ct = grid.x[:, None]
    st_sq = st * st
    # the build's temporaries; the surface holds none of them
    (t1, t2, rt, rl, u_sq, tilt_m1, w_sq, d_uup, inv_gap, slope, rl_up,
     dh_tt, dh_ll) = scratch.take(*[shape] * 13)
    # the arrays the surface holds
    (grad_sq, tilt, area_el, d_area_el, da_tt, da_tl, da_ll, h_tt, h_tl, h_ll,
     d_mean, mean) = out.take(*[shape] * 12)

    s_shift = np.multiply(t, jet["f"], out=t2)
    smax = float(np.max(np.abs(s_shift, out=t1)))
    if abs(base_r) + smax > w.r_max:
        raise RangeError(
            f"graph leaves tabulated range: |{base_r}| + {smax:.3g} > {w.r_max}"
        )

    patch = w.taylor_patch(base_r)
    u0, up0 = patch.coeff_u[0], patch.coeff_up[0]
    # covers grows with smax, so the largest row decides for the block
    if patch.covers(smax):
        u, up, du, dup = patch.eval_delta(s_shift, smax)
    else:
        u, up = w.evaluate(base_r + s_shift)
        du, dup = u - u0, up - up0
        if s_shift.ndim == 3:
            # the rows the gate accepts keep the patch values they get
            # built on their own
            row_max = np.max(t1, axis=(1, 2))
            rows = np.flatnonzero([patch.covers(m) for m in row_max])
            if rows.size:
                u[rows], up[rows], du[rows], dup[rows] = patch.eval_delta(
                    s_shift[rows], float(np.max(row_max[rows])))

    # first derivatives of rho on the unit sphere
    np.multiply(t, jet["ft"], out=rt)
    np.multiply(t, jet["fl"], out=rl)
    np.multiply(u, u, out=u_sq)
    # |grad rho|^2 on the unit sphere: rt * rt + (rl / st) ** 2
    np.multiply(rt, rt, out=grad_sq)
    np.add(grad_sq, np.square(np.divide(rl, st, out=t1), out=t1), out=grad_sq)
    # tilt W = sqrt(w_sq), w_sq = 1 + grad_sq / (u * u); tilt_m1 holds
    # grad_sq / (u * u) until W - 1 replaces it
    np.divide(grad_sq, u_sq, out=tilt_m1)
    np.add(1.0, tilt_m1, out=w_sq)
    np.sqrt(w_sq, out=tilt)
    np.multiply(u_sq, tilt, out=area_el)

    # differences against the base slice, every term O(scale)
    # W - 1 = (grad_sq / (u * u)) / (tilt + 1)
    np.divide(tilt_m1, np.add(tilt, 1.0, out=t1), out=tilt_m1)
    u_sum = np.add(u, u0, out=t2)
    # u^2 W - u0^2 = du * (u + u0) + u * u * tilt_m1
    np.multiply(du, u_sum, out=d_area_el)
    np.add(d_area_el, np.multiply(u_sq, tilt_m1, out=t1), out=d_area_el)
    # u u' - u0 u0' = du * up + u0 * dup
    np.multiply(du, up, out=d_uup)
    np.add(d_uup, np.multiply(u0, dup, out=t1), out=d_uup)
    # 1/W - 1 = -tilt_m1 / tilt
    np.divide(np.negative(tilt_m1, out=inv_gap), tilt, out=inv_gap)
    # 2 u' / u
    np.divide(np.multiply(2.0, up, out=slope), u, out=slope)
    # second fundamental form minus A0 = -u0 u0' g_round; the covariant
    # Hessian of rho enters inline
    # da_tt = (t * ftt - d_uup - slope * rt * rt) / tilt - u0 * up0 * inv_gap
    np.multiply(t, jet["ftt"], out=da_tt)
    np.subtract(da_tt, d_uup, out=da_tt)
    np.multiply(np.multiply(slope, rt, out=t1), rt, out=t1)
    np.divide(np.subtract(da_tt, t1, out=da_tt), tilt, out=da_tt)
    np.subtract(da_tt, np.multiply(u0 * up0, inv_gap, out=t1), out=da_tt)
    # da_tl = (t * (ftl - (ct / st) * fl) - slope * rt * rl) / tilt
    np.multiply(ct / st, jet["fl"], out=t1)
    np.multiply(t, np.subtract(jet["ftl"], t1, out=t1), out=da_tl)
    np.multiply(np.multiply(slope, rt, out=t1), rl, out=t1)
    np.divide(np.subtract(da_tl, t1, out=da_tl), tilt, out=da_tl)
    # da_ll = (t * (fll + st * ct * ft) - d_uup * st * st - slope * rl * rl)
    #         / tilt - u0 * up0 * st * st * inv_gap
    np.add(jet["fll"], np.multiply(st * ct, jet["ft"], out=t1), out=t1)
    np.multiply(t, t1, out=da_ll)
    np.multiply(np.multiply(d_uup, st, out=t1), st, out=t1)
    np.subtract(da_ll, t1, out=da_ll)
    np.multiply(np.multiply(slope, rl, out=t1), rl, out=t1)
    np.divide(np.subtract(da_ll, t1, out=da_ll), tilt, out=da_ll)
    np.multiply(u0 * up0 * st * st, inv_gap, out=t1)
    np.subtract(da_ll, t1, out=da_ll)
    # inverse induced metric, Sherman-Morrison form, minus the round
    # slice's diag(1, 1 / sin^2) / u0^2; rho_lambda raised.  The
    # denominator is denom * u * u, denom = u * u * w_sq
    denom = np.multiply(u_sq, w_sq, out=w_sq)
    np.multiply(np.multiply(denom, u, out=denom), u, out=denom)
    np.divide(rl, st_sq, out=rl_up)
    # u^-2 - u0^-2 = -du * (u + u0) / (u * u * u0 * u0)
    d_usq_inv = np.multiply(np.negative(du, out=t1), u_sum, out=t1)
    np.multiply(np.multiply(u_sq, u0, out=t2), u0, out=t2)
    np.divide(d_usq_inv, t2, out=d_usq_inv)
    # dh_tt = d_usq_inv - rt * rt / (denom * u * u)
    np.divide(np.multiply(rt, rt, out=t2), denom, out=t2)
    np.subtract(d_usq_inv, t2, out=dh_tt)
    # dh_ll = d_usq_inv / (st * st) - rl_up * rl_up / (denom * u * u)
    np.divide(d_usq_inv, st_sq, out=dh_ll)
    np.divide(np.multiply(rl_up, rl_up, out=t2), denom, out=t2)
    np.subtract(dh_ll, t2, out=dh_ll)
    np.add(1.0 / (u0 * u0), dh_tt, out=h_tt)
    # -rt * rl_up / (denom * u * u); the round slice's is 0
    np.multiply(np.negative(rt, out=t2), rl_up, out=h_tl)
    np.divide(h_tl, denom, out=h_tl)
    np.add(1.0 / (u0 * u0 * st * st), dh_ll, out=h_ll)
    # H - H0 = dh : A0 + h : dA, with H0 = -2 u0' / u0:
    # -u0 * up0 * (dh_tt + st * st * dh_ll) + h_tt * da_tt
    # + 2.0 * h_tl * da_tl + h_ll * da_ll
    np.add(dh_tt, np.multiply(st_sq, dh_ll, out=t1), out=t1)
    np.multiply(-u0 * up0, t1, out=d_mean)
    np.add(d_mean, np.multiply(h_tt, da_tt, out=t1), out=d_mean)
    np.multiply(np.multiply(2.0, h_tl, out=t1), da_tl, out=t1)
    np.add(d_mean, t1, out=d_mean)
    np.add(d_mean, np.multiply(h_ll, da_ll, out=t1), out=d_mean)
    return GraphSurface(
        warp=w,
        base_r=base_r,
        phi=phi,
        scale=t,
        grid=grid,
        u=u,
        uprime=up,
        tilt=tilt,
        area_element=area_el,
        mean_curvature=np.add(-2.0 * up0 / u0, d_mean, out=mean),
        _hinv=(h_tt, h_tl, h_ll),
        _sff=(np.add(-u0 * up0, da_tt, out=da_tt), da_tl,
              np.add(-u0 * up0 * st * st, da_ll, out=da_ll)),
        _grad_sq=grad_sq,
        _delta=(u0, up0, d_area_el, d_mean),
    )


def build_graph(w: WarpFactor, base_r: float, phi: HarmonicField,
                scale: float = 1.0, grid_lmax: int | None = None) -> GraphSurface:
    """Construct the graph r = base_r + scale * phi over the sphere.

    Parameters
    ----------
    w : WarpFactor
    base_r : float
        Base slice radius; must lie in the tabulated range.
    phi : HarmonicField
        Band-limited graph function (length units).
    scale : float
        Multiplier applied to phi.
    grid_lmax : int, optional
        Geometry band limit; defaults to max(2 * phi.lmax, 16).

    Returns
    -------
    GraphSurface
    """
    if not np.isfinite(scale):
        raise ValueError("scale must be finite")
    if grid_lmax is None:
        grid_lmax = _geometry_lmax(phi.lmax)
    elif grid_lmax < 2 * phi.lmax:
        raise ValueError(
            f"geometry band limit {grid_lmax} is below twice the field band "
            f"limit {phi.lmax}; products would alias"
        )
    grid = get_grid(int(grid_lmax))
    jet = grid.synthesize_jet(phi.padded(grid.lmax))
    return _graph_surface(w, base_r, phi, scale, grid, jet)


def hawking_mass_deficit(w: WarpFactor, base_r: float, phi: HarmonicField,
                         scale: float = 1.0,
                         grid_lmax: int | None = None) -> float:
    """m_H(graph) - m_H(base slice) without cancellation: the
    ``mass_deficit`` of ``build_graph`` on the same arguments."""
    return build_graph(w, base_r, phi, scale, grid_lmax).mass_deficit()


def _el_potential(surface: GraphSurface) -> np.ndarray:
    """Zeroth-order coefficient of the criticality equation:
    4pi/|S| - K + (R-2)/2 + (2|A|^2 - avg int H^2) / 4, with R = 2."""
    avg_will = surface.willmore / surface.area
    return (
        4.0 * np.pi / surface.area
        - surface.gauss_curvature
        + 0.25 * (2.0 * surface.shape_sq - avg_will)
    )


def induced_laplacian(surface: GraphSurface, values: np.ndarray) -> np.ndarray:
    """Laplace-Beltrami of the induced metric applied to grid values.

    Weak assembly: the input is expanded in spherical harmonics, tested
    against all harmonics up to the geometry band limit with the induced
    metric and area element, and the result resampled on the nodes.  The
    weak form is applied through the harmonic transforms and its Gram
    matrix is inverted by conjugate gradients, so no dense matrix is
    formed; ``SphereGrid.basis_matrix`` is the dense reference in the
    tests.  Raises ``SolveError`` if the solve does not converge.
    """
    grid = surface.grid
    vt, vl = grid.synthesize_gradient(grid.analyze(values))
    h_tt, h_tl, h_ll = surface._hinv
    dens = grid.quad_weights * surface.area_element
    rhs = -grid.gradient_transpose(dens * (h_tt * vt + h_tl * vl),
                                   dens * (h_tl * vt + h_ll * vl))
    sol = _solve_gram(surface, rhs)
    return grid.synthesize(sol).reshape(values.shape)


def _solve_gram(surface: GraphSurface, rhs: np.ndarray) -> np.ndarray:
    """Solve G c = rhs for the Gram matrix G of the harmonics against the
    induced area element, by preconditioned conjugate gradients.

    G c is analyze(area_element * synthesize(c)); the quadrature weights
    live in ``analyze``.  On a round slice of radius u the Gauss-Legendre
    grid makes G exactly u^2 times the identity, so the preconditioner is
    the scalar 4 pi / area.
    """
    grid = surface.grid
    precond = 4.0 * np.pi / surface.area
    sol = np.zeros_like(rhs)
    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:
        return sol
    res = rhs.copy()
    z = precond * res
    direction = z.copy()
    rz = float(res @ z)
    rel = 1.0
    for _ in range(_CG_MAX_ITER):
        g_dir = grid.analyze(surface.area_element * grid.synthesize(direction))
        step = rz / float(direction @ g_dir)
        sol += step * direction
        res -= step * g_dir
        rel = float(np.linalg.norm(res)) / rhs_norm
        if rel <= _CG_RTOL:
            return sol
        z = precond * res
        rz_next = float(res @ z)
        direction = z + (rz_next / rz) * direction
        rz = rz_next
    raise SolveError(
        f"induced Gram solve did not converge: relative residual {rel:.2e} "
        f"after {_CG_MAX_ITER} iterations (target {_CG_RTOL:.0e})"
    )


def surface_report(surface: GraphSurface) -> dict:
    """JSON-ready summary of one surface."""
    return {
        "base_r": surface.base_r,
        "a": surface.warp.a,
        "area": surface.area,
        "hawking_mass": surface.hawking_mass(),
        "el_residual_max": surface.el_residual_max(),
        "q_integral": surface.q_integral(),
        "phi": json.loads(surface.phi.scaled(surface.scale).to_json()),
    }
