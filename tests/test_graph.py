"""Normal-graph geometry: induced metric, curvatures, mass, residuals."""

import functools
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from hawkmass import (
    HarmonicField,
    RangeError,
    SolveError,
    SphereGrid,
    build_graph,
    coeff_index,
    get_grid,
    hawking_mass_deficit,
    induced_laplacian,
    slice_geometry,
    sobolev_norms,
)
from hawkmass import graph, sphere
from hawkmass.cli import main
from hawkmass.graph import _el_potential
from hawkmass.sweeps import solve_for_config
from hawkmass.warp import TaylorPatch


def bumpy_field(lmax, seed, amp=1.0):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((lmax + 1) ** 2) * amp
    c[0] = 0.0
    return HarmonicField(c)


def test_zero_graph_reduces_to_slice(w05):
    geo = slice_geometry(w05, 0.8)
    s = build_graph(w05, 0.8, HarmonicField.zeros(2))
    assert_allclose(s.mean_curvature, geo.mean_curvature, rtol=0, atol=1e-15)
    assert_allclose(s.gauss_curvature, geo.gauss_curvature, rtol=0, atol=1e-14)
    assert_allclose(s.shape_sq, geo.shape_operator_sq, rtol=0, atol=1e-15)
    assert_allclose(s.ricci_normal, geo.ricci_normal, rtol=0, atol=1e-14)
    assert s.area == pytest.approx(geo.area, rel=1e-14)
    assert s.hawking_mass() == pytest.approx(geo.hawking_mass, abs=1e-13)
    assert_allclose(s.tilt, 1.0, rtol=0, atol=0)


@pytest.mark.parametrize("base_r", [0.0, 0.4, 1.5])
def test_zero_graph_is_the_slice_exactly(w05, base_r):
    """Every difference against the base slice vanishes for phi = 0, so a
    zero graph, alone or as a block, carries the slice's numbers bit for
    bit and a deficit of exactly 0."""
    geo = slice_geometry(w05, base_r)
    grid = get_grid(16)
    block = HarmonicField(np.zeros((3, 9)))
    surfaces = [build_graph(w05, base_r, HarmonicField.zeros(2)),
                graph._graph_surface(w05, base_r, block, 1.0, grid,
                                     grid.synthesize_jet(block.padded(16)))]
    for s in surfaces:
        assert np.all(s.mean_curvature == geo.mean_curvature)
        assert np.all(s.area_element == geo.u * geo.u)
        assert np.all(s.tilt == 1.0)
        assert np.all(s.mass_deficit() == 0.0)


@pytest.mark.parametrize("base_r", [0.4, 1.5])
def test_global_profile_route_matches_patch_route(w05, monkeypatch, base_r):
    """With the patch gate closed, the graph is built from the global
    profile through the same pipeline; its geometry agrees with the patch
    route to roundoff.  Its deficit, about 4e-3 and 2e-3 for this field of
    max|phi| ~ 0.03, differs by the roundoff of the subtractions u - u0
    and u' - u0', about eps * u0 ~ 1.1e-16 absolute: measured 1.1e-17 at
    base_r 0.4 and 2.6e-18 at 1.5."""
    phi = bumpy_field(4, seed=23, amp=0.01)
    ref = build_graph(w05, base_r, phi)
    monkeypatch.setattr(TaylorPatch, "covers", lambda self, smax: False)
    s = build_graph(w05, base_r, phi)
    for name in ("u", "uprime", "tilt", "area_element", "mean_curvature",
                 "shape_sq", "gauss_curvature"):
        got, want = getattr(s, name), getattr(ref, name)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    u0 = slice_geometry(w05, base_r).u
    assert abs(s.mass_deficit() - ref.mass_deficit()) <= np.spacing(u0)


def _damped(seed, deg=8):
    """A mean-free field of degrees 1..deg with N(0, 1) / l^2
    coefficients, the damping the sweep draws with."""
    ll = np.arange(1, deg + 1)
    c = np.zeros((deg + 1) ** 2)
    c[1:] = (np.random.default_rng(seed).standard_normal(c.size - 1)
             / np.repeat(ll * ll, 2 * ll + 1))
    return HarmonicField(c)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), base_r=st.sampled_from([0.0, 0.4, 1.5]),
       size=st.floats(0.1, 0.28))
@example(seed=0, base_r=0.0, size=0.28)
@example(seed=1, base_r=1.5, size=0.1)
def test_global_route_deficit_matches_patch_route(w05, seed, base_r, size):
    """Where the patch covers a graph of max|phi| between 0.1 and 0.28, the
    deficit built from the global profile agrees with the patch route's
    to 1e-14 relative: past the gate, u - u0 by subtraction costs about
    eps * u absolute, small against a deficit of 1e-3 or more.  Measured
    over 60 seeds per radius: 2.9e-16 at base_r 0, 7.1e-16 at 0.4 and
    7.2e-16 at 1.5."""
    phi = _damped(seed)
    grid = get_grid(16)
    scale = size / float(np.max(np.abs(grid.synthesize(phi.coeffs))))
    assert w05.taylor_patch(base_r).covers(size * (1.0 + 1e-12))
    ref = build_graph(w05, base_r, phi, scale).mass_deficit()
    with mock.patch.object(TaylorPatch, "covers", lambda self, smax: False):
        got = build_graph(w05, base_r, phi, scale).mass_deficit()
    assert got == pytest.approx(ref, rel=1e-14, abs=0.0)


def test_gauss_bonnet(w05):
    """Total Gauss curvature of any graph sphere is 4 pi.

    The integrand is analytic but not band-limited, so the quadrature
    error decays spectrally with the grid band limit.
    """
    phi = bumpy_field(4, seed=9, amp=0.05)
    errors = []
    for lm in (16, 32, 48):
        s = build_graph(w05, 1.1, phi, grid_lmax=lm)
        total = float(np.sum(s.grid.quad_weights * s.area_element *
                             s.gauss_curvature))
        errors.append(abs(total - 4.0 * np.pi))
    assert errors[0] < 1e-3
    assert errors[1] < errors[0] / 1e3
    assert errors[2] < 1e-11


def test_gauss_equation_consistency(w05):
    """K from the closed form equals the Gauss-equation assembly
    1 - Ric(nu,nu) + (H^2 - |A|^2)/2 node by node."""
    phi = bumpy_field(5, seed=10, amp=0.04)
    s = build_graph(w05, 0.6, phi)
    k_gauss = 1.0 - s.ricci_normal + (s.mean_curvature ** 2 - s.shape_sq) / 2.0
    assert_allclose(s.gauss_curvature, k_gauss, rtol=0, atol=1e-11)


def test_umbilic_defect_nonnegative(w05):
    """|A|^2 >= H^2/2 pointwise, equality only at umbilic points."""
    phi = bumpy_field(4, seed=11, amp=0.05)
    s = build_graph(w05, 0.9, phi)
    defect = s.shape_sq - s.mean_curvature ** 2 / 2.0
    assert np.min(defect) > -1e-12
    assert np.max(defect) > 1e-4


def test_deficit_matches_naive_difference(w05):
    phi = bumpy_field(3, seed=12, amp=1.0)
    for t in (1e-2, 1e-3):
        surface = build_graph(w05, 0.4, phi, scale=t)
        naive = surface.hawking_mass() - slice_geometry(w05, 0.4).hawking_mass
        deficit = hawking_mass_deficit(w05, 0.4, phi, t)
        assert deficit == pytest.approx(naive, abs=1e-14)
        assert surface.mass_deficit() == deficit


def test_deficit_quadratic_scaling(w05):
    """deficit(t)/t^2 is constant in the quadratic regime."""
    phi = bumpy_field(3, seed=13, amp=1.0)
    d1 = hawking_mass_deficit(w05, 0.0, phi, 1e-4)
    assert build_graph(w05, 0.0, phi, scale=1e-4).mass_deficit() == d1
    r1 = d1 / 1e-8
    r2 = hawking_mass_deficit(w05, 0.0, phi, 1e-5) / 1e-10
    assert r1 == pytest.approx(r2, rel=1e-5)
    assert r1 < 0.0


def test_deficit_azimuthal_rotation_invariance(w05):
    """Rotating the perturbation around the axis cannot change the mass."""
    lmax = 3
    phi = bumpy_field(lmax, seed=14, amp=1.0)
    alpha = 0.7318
    rot = np.zeros_like(phi.coeffs)
    for l in range(lmax + 1):
        rot[coeff_index(l, 0)] = phi.coeffs[coeff_index(l, 0)]
        for m in range(1, l + 1):
            cp = phi.coeffs[coeff_index(l, m)]
            cm = phi.coeffs[coeff_index(l, -m)]
            rot[coeff_index(l, m)] = (np.cos(m * alpha) * cp
                                      + np.sin(m * alpha) * cm)
            rot[coeff_index(l, -m)] = (-np.sin(m * alpha) * cp
                                       + np.cos(m * alpha) * cm)
    d1 = hawking_mass_deficit(w05, 0.5, phi, 1e-3)
    d2 = hawking_mass_deficit(w05, 0.5, HarmonicField(rot), 1e-3)
    assert d2 == pytest.approx(d1, rel=1e-10)


def test_el_residual_slices(w05, w08):
    for w, r in ((w05, 0.0), (w05, 0.3), (w05, 1.5), (w08, 0.7)):
        s = build_graph(w, r, HarmonicField.zeros(2))
        assert s.el_residual_max() < 1e-7


def test_el_residual_control(w05):
    s = build_graph(w05, 0.3, HarmonicField.single(2, 0, 1.0), scale=0.05)
    assert s.el_residual_max() > 1e-3


def test_q_integral_zero_on_slices(w05):
    s = build_graph(w05, 0.9, HarmonicField.zeros(2))
    assert abs(s.q_integral()) < 1e-12


def test_q_integral_umbilic_identity(w05):
    """int Q dsigma = (1/2) int (|A|^2 - H^2/2) dsigma on any graph."""
    phi = bumpy_field(4, seed=15, amp=0.04)
    s = build_graph(w05, 0.8, phi, grid_lmax=48)
    defect = s.shape_sq - s.mean_curvature ** 2 / 2.0
    expected = 0.5 * float(np.sum(s.grid.quad_weights * s.area_element
                                  * defect))
    assert s.q_integral() == pytest.approx(expected, abs=5e-9)


def test_induced_laplacian_slice_eigenfunctions(w05):
    """On a round slice the induced Laplacian is -l(l+1)/u^2."""
    s = build_graph(w05, 0.6, HarmonicField.zeros(4), grid_lmax=16)
    u, _ = w05.evaluate(0.6)
    for l, m in [(1, 0), (2, -1), (3, 3)]:
        f = s.grid.synthesize(HarmonicField.single(l, m, 1.0).coeffs)
        lap = induced_laplacian(s, f)
        assert_allclose(lap, -l * (l + 1) / (u * u) * f, rtol=0, atol=1e-9)


def test_induced_laplacian_slice_eigenfunctions_large_band_limit(w05):
    """The same identity past the dense basis guard, with the tolerance of
    grid 16.  The Laplacian multiplies degree l by l(l+1)/u^2 (up to 1.7e4
    here), so it magnifies any quadrature error in the analysis of the
    input; on the Newton-polished nodes the worst case is 1.7e-10 (it was
    3e-9 on leggauss nodes)."""
    s = build_graph(w05, 0.6, HarmonicField.zeros(4), grid_lmax=80)
    u, _ = w05.evaluate(0.6)
    for l, m in [(1, 0), (2, -1), (3, 3), (40, -13)]:
        f = s.grid.synthesize(HarmonicField.single(l, m, 1.0).coeffs)
        lap = induced_laplacian(s, f)
        assert_allclose(lap, -l * (l + 1) / (u * u) * f, rtol=0, atol=1e-9)


def _dense_laplacian(surface, values, dense_grid):
    """The weak Laplacian assembled from dense basis matrices and solved
    directly; ``dense_grid`` is a private grid of the same band limit."""
    jet = surface.grid.synthesize_jet(surface.grid.analyze(values))
    h_tt, h_tl, h_ll = surface._hinv
    dens = (surface.grid.quad_weights * surface.area_element).ravel()
    vt, vl = jet["ft"].ravel(), jet["fl"].ravel()
    ymat = dense_grid.basis_matrix("value")
    rhs = -(dense_grid.basis_matrix("dtheta").T
            @ (dens * (h_tt.ravel() * vt + h_tl.ravel() * vl))
            + dense_grid.basis_matrix("dlon").T
            @ (dens * (h_tl.ravel() * vt + h_ll.ravel() * vl)))
    gram = ymat.T @ (dens[:, None] * ymat)
    return (ymat @ np.linalg.solve(gram, rhs)).reshape(values.shape)


@pytest.fixture(scope="module")
def dense_grids():
    """Private grids by band limit: the dense bases cached on them are
    freed with this module instead of staying on the shared grids."""
    return functools.cache(SphereGrid)


@pytest.mark.parametrize("grid_lmax", [16, 24, 32, 40])
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), amp=st.floats(1e-3, 0.2),
       base_r=st.floats(0.0, 1.5))
def test_induced_laplacian_matches_dense_reference(w05, dense_grids,
                                                   grid_lmax, seed, amp,
                                                   base_r):
    """Conjugate gradients on the transforms reproduce the dense Gram
    solve on mean-free graphs of band limit grid_lmax / 2."""
    lmax = grid_lmax // 2
    phi = bumpy_field(lmax, seed)
    peak = float(np.max(np.abs(get_grid(lmax).synthesize(phi.coeffs))))
    s = build_graph(w05, base_r, phi.scaled(amp / peak), grid_lmax=grid_lmax)
    dense = _dense_laplacian(s, s.mean_curvature, dense_grids(grid_lmax))
    diff = induced_laplacian(s, s.mean_curvature) - dense
    assert np.max(np.abs(diff)) <= 1e-12 * np.max(np.abs(dense))


def test_el_residual_matches_dense_reference(w05, w08, dense_grids):
    """Criterion 08's slices and its control give the same residual
    through the dense solve."""
    slices = [(w05, r, 0.0) for r in (0.0, 0.3, 0.7, 1.5, 3.0)] + [(w08, 0.5, 0.0)]
    for w, r, scale in slices + [(w05, 0.3, 0.05)]:
        s = build_graph(w, r, HarmonicField.single(2, 0, 1.0), scale=scale)
        h = s.mean_curvature
        dense = np.max(np.abs(_dense_laplacian(s, h, dense_grids(s.grid.lmax))
                              + _el_potential(s) * h))
        if scale == 0.0:
            assert s.el_residual_max() < 1e-10 and dense < 1e-10
        else:
            assert s.el_residual_max() == pytest.approx(dense, rel=1e-12)


def test_induced_laplacian_raises_when_not_converged(w05, monkeypatch):
    """An unconverged solve is an error, never a partial answer."""
    s = build_graph(w05, 0.6, bumpy_field(3, seed=16, amp=0.03))
    monkeypatch.setattr(graph, "_CG_MAX_ITER", 1)
    with pytest.raises(SolveError, match="after 1 iterations"):
        induced_laplacian(s, s.mean_curvature)


def test_induced_laplacian_constants(w05):
    s = build_graph(w05, 0.6, bumpy_field(3, seed=16, amp=0.03))
    lap = induced_laplacian(s, np.ones_like(s.u))
    assert np.max(np.abs(lap)) < 1e-9


def test_induced_laplacian_integrates_to_zero(w05):
    """Divergence form: the weak Laplacian has zero total integral."""
    s = build_graph(w05, 0.6, bumpy_field(3, seed=17, amp=0.03))
    f = s.grid.synthesize(HarmonicField.single(2, 1, 1.0).coeffs)
    lap = induced_laplacian(s, f)
    total = float(np.sum(s.grid.quad_weights * s.area_element * lap))
    assert abs(total) < 1e-10


def test_aliasing_guard(w05):
    with pytest.raises(ValueError):
        build_graph(w05, 0.3, bumpy_field(6, seed=18), grid_lmax=8)


@pytest.mark.parametrize("scale", [np.nan, np.inf, -np.inf])
def test_non_finite_scale_guard(w05, scale):
    with pytest.raises(ValueError, match="scale must be finite"):
        build_graph(w05, 0.3, HarmonicField.single(1, 0, 1.0), scale=scale)


def test_range_guard(w05):
    phi = HarmonicField.single(1, 0, 1.0)
    with pytest.raises(RangeError):
        build_graph(w05, w05.r_max - 0.1, phi, scale=1.0)


def test_graph_beyond_patch_reach(w05, tmp_path, capsys):
    """max|phi| ~ 0.37 exceeds the reach 0.317 of the base-slice patch at
    r = 0: the graph is built from the global profile, and its deficit,
    -0.209, is the plain mass difference to roundoff."""
    phi = HarmonicField.single(2, 0, 1.0)
    s = build_graph(w05, 0.0, phi, scale=0.6)
    u, up = w05.evaluate(0.0 + 0.6 * s.grid.synthesize(phi.coeffs))
    assert np.array_equal(s.u, u)
    assert np.array_equal(s.uprime, up)
    plain = s.hawking_mass() - slice_geometry(w05, 0.0).hawking_mass
    assert s.mass_deficit() < 0.0
    assert s.mass_deficit() == pytest.approx(plain, rel=1e-14, abs=0.0)
    assert hawking_mass_deficit(w05, 0.0, phi, 0.6) == s.mass_deficit()
    path = tmp_path / "phi.json"
    path.write_text(phi.to_json())
    code = main(["mass", "graph", "--a", "0.5", "--r", "0", "--phi",
                 str(path), "--scale", "0.6"])
    out, err = capsys.readouterr()
    assert code == 0, err
    assert json.loads(out)["deficit"] < 0.0


def test_mass_graph_far_past_patch_reach(tmp_path, capsys):
    """At scale 5, max|phi| ~ 3.2, ten times the patch reach, ``mass
    graph`` reports the deficit from the global profile, -3.72, which is
    the plain mass difference to roundoff."""
    path = tmp_path / "phi.json"
    path.write_text('{"lmax": 2, "coeffs": [[2, 0, 1.0]]}')
    code = main(["mass", "graph", "--a", "0.5", "--phi", str(path),
                 "--scale", "5"])
    out, err = capsys.readouterr()
    assert code == 0, err
    doc = json.loads(out)
    plain = doc["hawking_mass"] - slice_geometry(
        solve_for_config(0.5, 0.0), 0.0).hawking_mass
    assert doc["deficit"] < 0.0
    assert doc["deficit"] == pytest.approx(plain, rel=1e-14, abs=0.0)


@settings(max_examples=20, deadline=None)
@given(base_r=st.sampled_from([0.0, 0.4]), block=st.integers(1, 17),
       field_lmax=st.sampled_from([1, 4, 8]), seed=st.integers(0, 2**32 - 1))
def test_block_norms_and_deficits_match_single_graphs(w05, base_r, block,
                                                     field_lmax, seed):
    """The block route of a sweep: each row of the block norms, surface
    integrals and mass deficits is bitwise the public single-field call on
    that row."""
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal((block, (field_lmax + 1) ** 2))
    coeffs[:, 0] = 0.0
    coeffs *= rng.uniform(1e-6, 1e-2, (block, 1))
    phi = HarmonicField(coeffs)
    grid = get_grid(max(2 * field_lmax, 16))
    jet = grid.synthesize_jet(phi.padded(grid.lmax))
    u_base = float(w05.taylor_patch(base_r).coeff_u[0])
    norms = sphere._sobolev_norms(phi, u_base, grid, jet)
    surface = graph._graph_surface(w05, base_r, phi, 1.0, grid, jet)
    deficits = surface.mass_deficit()
    assert deficits.shape == (block,)
    for row, c in enumerate(coeffs):
        one = HarmonicField(c)
        single = sobolev_norms(one, u_base)
        for name, value in single.__dict__.items():
            assert type(value) is float
            assert getattr(norms, name)[row] == value
        assert norms.c2_bound[row] == single.c2_bound
        s = build_graph(w05, base_r, one)
        assert surface.area[row] == s.area
        assert surface.willmore[row] == s.willmore
        assert deficits[row] == hawking_mass_deficit(w05, base_r, one)
        assert type(s.mass_deficit()) is float


def _damped_field(rng, lmax=8):
    """Mean-free field with degree-l coefficients N(0, 1) / l^2, the shape
    of a sweep's unscaled draw."""
    ll = np.arange(1, lmax + 1)
    coeffs = np.zeros((lmax + 1) ** 2)
    coeffs[1:] = rng.standard_normal(coeffs.size - 1) / np.repeat(ll * ll,
                                                                 2 * ll + 1)
    return HarmonicField(coeffs)


_REFLECTION_SCALES = (1e-2, 1e-4, 1e-6)


@settings(max_examples=24, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), base_r=st.sampled_from([0.4, 1.5]),
       scale=st.sampled_from(_REFLECTION_SCALES))
def test_deficit_is_reflection_invariant_bitwise(w05, seed, base_r, scale):
    """r -> -r is an isometry of the warped product, since u is even, and
    it maps the graph base_r + scale * phi to -base_r - scale * phi; the
    two deficits agree bit for bit."""
    phi = _damped_field(np.random.default_rng(seed))
    assert (hawking_mass_deficit(w05, -base_r, phi, -scale)
            == hawking_mass_deficit(w05, base_r, phi, scale))


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), base_r=st.sampled_from([0.4, 1.5]),
       block=st.integers(1, 9))
def test_block_deficits_at_row_scales_are_reflection_invariant(
        w05, seed, base_r, block):
    """A sweep block: unscaled rows, each at its own scale.  Every row is
    bitwise its own graph at its scale, and the reflected block gives the
    same deficits bit for bit."""
    rng = np.random.default_rng(seed)
    raw = HarmonicField(np.stack([_damped_field(rng).coeffs
                                  for _ in range(block)]))
    scale = rng.choice(_REFLECTION_SCALES, block)
    grid = get_grid(16)
    jet = grid.synthesize_jet(raw.padded(16))
    there = graph._graph_surface(w05, base_r, raw, scale[:, None, None],
                                 grid, jet).mass_deficit()
    back = graph._graph_surface(w05, -base_r, raw, -scale[:, None, None],
                                grid, jet).mass_deficit()
    assert back.tobytes() == there.tobytes()
    for row, s in enumerate(scale):
        one = HarmonicField(raw.coeffs[row])
        assert there[row] == hawking_mass_deficit(w05, base_r, one, float(s))


def _rotation_matrix(q):
    """The rotation of the unit quaternion q = (w, x, y, z)."""
    w, x, y, z = q
    return np.array([
        [1.0 - 2.0 * (y * y + z * z), 2.0 * (x * y - w * z),
         2.0 * (x * z + w * y)],
        [2.0 * (x * y + w * z), 1.0 - 2.0 * (x * x + z * z),
         2.0 * (y * z - w * x)],
        [2.0 * (x * z - w * y), 2.0 * (y * z + w * x),
         1.0 - 2.0 * (x * x + y * y)],
    ])


_unit_quaternions = st.lists(st.floats(-1.0, 1.0), min_size=4,
                             max_size=4).map(np.array).filter(
    lambda q: np.linalg.norm(q) > 0.1).map(lambda q: q / np.linalg.norm(q))


def _grid_points(grid):
    """Unit vectors of the grid nodes, shape (n_lat, n_lon, 3)."""
    sin_t = grid.sin_theta[:, None]
    cos_t = np.broadcast_to(grid.x[:, None], (grid.n_lat, grid.n_lon))
    return np.stack([sin_t * np.cos(grid.lon), sin_t * np.sin(grid.lon),
                     cos_t], axis=-1)


def _field_at(phi, points):
    """phi at arbitrary unit vectors, from the normalized Legendre values
    and the real-harmonic azimuth convention of the transforms."""
    x = np.clip(points[..., 2], -1.0, 1.0).ravel()
    lon = np.arctan2(points[..., 1], points[..., 0]).ravel()
    # a rotated node can land on a pole, where only the derivative rows,
    # unread here, divide by sin(theta) = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        p = sphere._legendre_tables(phi.lmax, x)[:, :, 0]
    # the tables take sin(theta) = sqrt(1 - x^2), which loses half the
    # digits near a pole; order m carries it as a factor sin^m, so swap
    # in sin(theta) from the point itself
    sin_x = np.sqrt(1.0 - x * x)
    sin_p = np.hypot(points[..., 0], points[..., 1]).ravel()
    ratio = np.divide(sin_p, sin_x, out=np.zeros_like(x), where=sin_x > 0.0)
    p = p * ratio ** np.arange(phi.lmax + 1)[:, None, None]
    c = phi.coeffs
    out = np.zeros(x.size)
    for l in range(phi.lmax + 1):
        out += c[coeff_index(l, 0)] * p[0, l] / np.sqrt(2.0 * np.pi)
        for m in range(1, l + 1):
            out += (c[coeff_index(l, m)] * np.cos(m * lon)
                    + c[coeff_index(l, -m)] * np.sin(m * lon)
                    ) * p[m, l] / np.sqrt(np.pi)
    return out.reshape(points.shape[:-1])


def _rotated(phi, rot):
    """The field x -> phi(rot^T x): phi at the rotated nodes of its own
    band-limit grid, analyzed back, which is exact for a band-limited
    field."""
    grid = get_grid(phi.lmax)
    values = _field_at(phi, _grid_points(grid) @ rot)
    return HarmonicField(grid.analyze(values))


def test_rotation_evaluator_matches_synthesize():
    """The test-side evaluator reproduces the transforms at the nodes, so
    the rotated fields below are phi's rotations to roundoff."""
    phi = _damped_field(np.random.default_rng(3)).scaled(0.3)
    grid = get_grid(16)
    assert_allclose(_field_at(phi, _grid_points(grid)), grid.synthesize(phi.coeffs),
                    rtol=0, atol=1e-15)
    assert_allclose(_rotated(phi, np.eye(3)).coeffs, phi.coeffs,
                    rtol=0, atol=1e-15)


@settings(max_examples=24, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), q=_unit_quaternions)
# a half turn that takes the node (1, 0, 0) onto the pole
@example(seed=0, q=np.array([0.0, 1.0, 0.0, 1.0]) / np.sqrt(2.0))
def test_sobolev_norms_are_rotation_invariant(seed, q):
    """The Sobolev parts of the norms depend only on the degree energies,
    which a rotation keeps; the C^k parts are grid maxima and are not
    invariant."""
    phi = _damped_field(np.random.default_rng(seed)).scaled(0.3)
    psi = _rotated(phi, _rotation_matrix(q))
    assert_allclose(psi.degree_energies(), phi.degree_energies(),
                    rtol=0, atol=1e-14)
    n_phi, n_psi = sobolev_norms(phi, 0.5), sobolev_norms(psi, 0.5)
    for name in ("l2", "w12", "w22"):
        assert getattr(n_psi, name) == pytest.approx(getattr(n_phi, name),
                                                     rel=1e-13)


@settings(max_examples=32, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), q=_unit_quaternions,
       base_r=st.sampled_from([0.0, 0.4, 1.5]),
       scale=st.sampled_from([1e-4, 1e-6]))
def test_deficit_and_area_are_rotation_invariant(w05, seed, q, base_r,
                                                 scale):
    """A rotation of the sphere factor is an isometry of the warped
    product, so a rotated graph has the same area, Willmore integral and
    mass deficit.  The Willmore integral is O(scale^2) on the minimal
    slice, which leaves it a wider relative bound there.  On the minimal
    slice the deficit keeps full relative accuracy; off it the
    bound is the roundoff floor of the deficit, about eps / (scale *
    |phi|), with at least 5x headroom over the spread measured on these
    fields.  Scale 1e-2 is left out: there the geometry grid aliases the
    non-polynomial geometry, and a rotation moves that by ~1e-10."""
    phi = _damped_field(np.random.default_rng(seed)).scaled(0.3)
    psi = _rotated(phi, _rotation_matrix(q))
    there = build_graph(w05, base_r, phi, scale)
    back = build_graph(w05, base_r, psi, scale)
    assert back.area == pytest.approx(there.area, rel=1e-14)
    assert back.willmore == pytest.approx(
        there.willmore, rel=1e-13 if base_r == 0.0 else 1e-14)
    bound = 1e-13 if base_r == 0.0 else 1e-14 / scale
    assert back.mass_deficit() == pytest.approx(there.mass_deficit(),
                                                rel=bound)


def test_mixed_block_rows_equal_their_own_graphs(w05):
    """A block whose largest row is past the patch reach takes the global
    profile for that row only: every row, inside the reach or past it, has
    the node values and the deficit of its own graph, bit for bit."""
    y20 = HarmonicField.single(2, 0).padded(3)
    y31 = HarmonicField.single(3, 1).coeffs
    rows = [0.01 * y20, 0.6 * y20, 0.2 * y31, 1e-6 * y31]
    phi = HarmonicField(np.stack(rows))
    grid = get_grid(16)
    assert not w05.taylor_patch(0.0).covers(0.37)
    surface = graph._graph_surface(w05, 0.0, phi, 1.0, grid,
                                   grid.synthesize_jet(phi.padded(16)))
    deficits = surface.mass_deficit()
    for i, c in enumerate(rows):
        alone = build_graph(w05, 0.0, HarmonicField(c), grid_lmax=16)
        assert surface.u[i].tobytes() == alone.u.tobytes()
        assert surface.mean_curvature[i].tobytes() == \
            alone.mean_curvature.tobytes()
        assert deficits[i] == alone.mass_deficit()
    with pytest.raises(RangeError, match="leaves tabulated range"):
        graph._graph_surface(w05, w05.r_max - 0.1, phi, 1.0, grid,
                             grid.synthesize_jet(phi.padded(16)))


@pytest.mark.parametrize("rows", [3, 33])
def test_residual_and_q_integral_refuse_a_block(w05, rows):
    """The criticality potential, and so the residual, the Q integral,
    the report and the classifier, take one graph; a block of graphs is
    refused by name.  At 3 rows the (B,) areas failed to broadcast
    against the node arrays; at 33, the azimuth count of the band-16
    grid, they broadcast along longitude into a wrong Q integral."""
    from hawkmass import critical_point_classifier, surface_report

    phi = HarmonicField(np.stack([_damped(seed).coeffs
                                  for seed in range(rows)]))
    s = build_graph(w05, 0.4, phi, scale=1e-3)
    assert s.grid.n_lon == 33 and np.shape(s.area) == (rows,)
    for read in (s.q_integral, s.el_residual_max, lambda: s.el_residual,
                 lambda: surface_report(s),
                 lambda: critical_point_classifier(s)):
        with pytest.raises(ValueError, match=(
                f"^the Euler-Lagrange potential takes one graph, not a "
                f"block of {rows}; ")):
            read()


def test_mass_graph_report_makes_one_gram_solve(w05, monkeypatch):
    """``mass graph`` reads the residual twice, through the report and the
    classifier; the surface keeps it, so only one Gram solve runs."""
    from hawkmass import critical_point_classifier, surface_report

    solves = []
    solve = graph._solve_gram

    def counted(surface, rhs):
        solves.append(surface)
        return solve(surface, rhs)

    monkeypatch.setattr(graph, "_solve_gram", counted)
    s = build_graph(w05, 0.3, HarmonicField.single(2, 1, 1.0), scale=0.01)
    report = surface_report(s)
    cls = critical_point_classifier(s)
    assert len(solves) == 1
    assert cls.residual_max == report["el_residual_max"]


def test_surface_report_keys(w05):
    s = build_graph(w05, 0.4, HarmonicField.single(1, 1, 1.0), scale=0.01)
    report = __import__("hawkmass").surface_report(s)
    for key in ("a", "base_r", "area", "hawking_mass", "el_residual_max",
                "q_integral", "phi"):
        assert key in report


def test_mass_deficit_negative_for_small_graphs(w05):
    phi = bumpy_field(4, seed=19, amp=1.0)
    for r in (0.0, 0.4, 1.2):
        assert hawking_mass_deficit(w05, r, phi, 1e-3) < 0.0
