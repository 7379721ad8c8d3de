"""Spectral machinery on the unit sphere: transforms, jets, norms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from hawkmass import (
    HarmonicField,
    SweepConfig,
    analyze,
    coeff_index,
    get_grid,
    gradient_norm_sq_integral,
    laplacian_unit,
    perturbation_sweep,
    sobolev_norms,
    synthesize,
)
from hawkmass.sphere import MAX_GRID_LMAX, SphereGrid, _Buffers

AMP_10 = np.sqrt(3.0 / (4.0 * np.pi))   # degree-1 zonal amplitude


def random_field(lmax, seed):
    rng = np.random.default_rng(seed)
    return HarmonicField(rng.standard_normal((lmax + 1) ** 2))


def test_quadrature_weights_cover_sphere():
    grid = get_grid(12)
    assert_allclose(np.sum(grid.quad_weights), 4.0 * np.pi, rtol=1e-14)


@pytest.mark.parametrize("lmax", [0, MAX_GRID_LMAX + 1])
def test_grid_band_limit_is_bounded(lmax):
    """One bound for every path to a grid, checked before the tables are
    allocated (3 (L + 1)^3 floats, 407 MB at the bound)."""
    with pytest.raises(ValueError, match=r"grid lmax must be in \[1, 256\]"):
        SphereGrid(lmax)


def test_coeff_index_layout():
    assert coeff_index(0, 0) == 0
    assert coeff_index(1, -1) == 1
    assert coeff_index(1, 0) == 2
    assert coeff_index(1, 1) == 3
    assert coeff_index(3, -3) == 9
    with pytest.raises(ValueError):
        coeff_index(2, 3)


def test_basis_orthonormality():
    """Gram matrix of all basis fields up to degree 8 under quadrature."""
    lmax = 8
    grid = get_grid(lmax)
    n = (lmax + 1) ** 2
    values = np.empty((n, grid.n_lat, grid.n_lon))
    for i in range(n):
        c = np.zeros(n)
        c[i] = 1.0
        values[i] = grid.synthesize(c)
    flat = values.reshape(n, -1)
    gram = flat @ (grid.quad_weights.reshape(-1)[:, None] * flat.T)
    assert np.max(np.abs(gram - np.eye(n))) < 1e-13


def test_analyze_synthesize_round_trip():
    field = random_field(12, seed=3)
    grid = get_grid(12)
    back = analyze(grid, synthesize(field, grid))
    assert_allclose(back.coeffs, field.coeffs, rtol=0, atol=1e-13)


@pytest.mark.parametrize("lmax", [40, 80])
def test_round_trip_degree_one_large_band_limit(lmax):
    """The Newton-polished Gauss-Legendre rule integrates products of
    harmonics to roundoff, so Y_10 comes back to a few ulps at every
    degree (leggauss nodes left 3.8e-14 at lmax 40 and 1.9e-14 at 80)."""
    field = HarmonicField.single(1, 0, 1.0)
    grid = get_grid(lmax)
    back = analyze(grid, synthesize(field, grid))
    assert np.max(np.abs(back.coeffs - field.padded(lmax))) <= 5e-15


def per_order_jet(grid, coeffs):
    """Reference jet summed order by order from the grid's Legendre table
    (value, d/dtheta, d2/dtheta2 blocks with the azimuth factor folded in)."""
    nl = grid.n_lat
    jet = dict.fromkeys(("f", "ft", "fl", "ftt", "ftl", "fll"), 0.0)
    for m in range(grid.lmax + 1):
        ls = np.arange(m, grid.lmax + 1)
        tables = [grid._table[m, m:, k * nl:(k + 1) * nl] for k in range(3)]
        c0, c1, c2 = (coeffs[ls * ls + ls + m] @ t for t in tables)
        if m > 0:
            s0, s1, s2 = (coeffs[ls * ls + ls - m] @ t for t in tables)
        else:
            s0 = s1 = s2 = np.zeros(nl)
        cos = np.cos(m * grid.lon)[None, :]
        sin = np.sin(m * grid.lon)[None, :]

        def az(a, b):
            return a[:, None] * cos + b[:, None] * sin

        jet["f"] += az(c0, s0)
        jet["ft"] += az(c1, s1)
        jet["ftt"] += az(c2, s2)
        jet["fl"] += m * az(s0, -c0)
        jet["ftl"] += m * az(s1, -c1)
        jet["fll"] -= m * m * az(c0, s0)
    return jet


def assert_rel_close(actual, reference, rtol):
    scale = np.max(np.abs(reference))
    assert np.max(np.abs(actual - reference)) <= rtol * scale


@settings(max_examples=12, deadline=None)
@given(lmax=st.sampled_from([1, 2, 5, 16, 33]), seed=st.integers(0, 2**32 - 1))
def test_jet_matches_dense_and_per_order_references(lmax, seed):
    """The batched jet against the dense basis matrices (f, ft, fl) and the
    order-by-order sums (all six fields); the gradient-only synthesis
    against the jet's ft and fl."""
    grid = SphereGrid(lmax)   # private: its dense basis cache dies with it
    coeffs = np.random.default_rng(seed).standard_normal(grid.n_modes)
    jet = grid.synthesize_jet(coeffs)
    shape = (grid.n_lat, grid.n_lon)
    for key, kind in (("f", "value"), ("ft", "dtheta"), ("fl", "dlon")):
        dense = (grid.basis_matrix(kind) @ coeffs).reshape(shape)
        assert_rel_close(jet[key], dense, 1e-13)
    ref = per_order_jet(grid, coeffs)
    for key in ref:
        assert_rel_close(jet[key], ref[key], 1e-13)
    ft, fl = grid.synthesize_gradient(coeffs)
    assert_rel_close(ft, jet["ft"], 1e-14)
    assert_rel_close(fl, jet["fl"], 1e-14)


@settings(max_examples=30, deadline=None)
@given(lmax=st.sampled_from([16, 24, 32, 40]), block=st.integers(1, 17),
       seed=st.integers(0, 2**32 - 1))
def test_block_synthesis_rows_match_single_calls(lmax, block, seed):
    """A block of coefficient rows goes through the transforms on the
    matmul stack axis, so each row's jet, values and gradient are the
    bits of its own call."""
    grid = get_grid(lmax)
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal((block, grid.n_modes)) * rng.uniform(
        0.0, 2.0, (block, 1))
    jet = grid.synthesize_jet(coeffs)
    values = grid.synthesize(coeffs)
    ft, fl = grid.synthesize_gradient(coeffs)
    for row, c in enumerate(coeffs):
        one = grid.synthesize_jet(c)
        assert one["f"].shape == (grid.n_lat, grid.n_lon)
        for key, field in one.items():
            assert jet[key].shape == (block, grid.n_lat, grid.n_lon)
            assert np.array_equal(jet[key][row], field)
        assert np.array_equal(values[row], grid.synthesize(c))
        one_t, one_l = grid.synthesize_gradient(c)
        assert np.array_equal(ft[row], one_t)
        assert np.array_equal(fl[row], one_l)


_shapes = st.lists(st.integers(0, 4), max_size=3).map(tuple)
_blocks = st.lists(st.lists(st.lists(_shapes, min_size=1, max_size=4),
                            min_size=1, max_size=4), min_size=1, max_size=4)


@settings(max_examples=200, deadline=None)
@given(_blocks)
def test_buffers_lay_one_take_end_to_end(blocks):
    """Each take's arrays come C-contiguous in the shapes asked for, and
    no two arrays taken since the last reset share memory.  A reset grows
    the slab to hold at least the block before it, so the same takes
    again leave the slab the same object."""
    pool = _Buffers()

    def run(block):
        arrays = [a for shapes in block for a in pool.take(*shapes)]
        assert [a.shape for a in arrays] == [s for sh in block for s in sh]
        assert all(a.flags.c_contiguous for a in arrays)
        assert not any(np.shares_memory(x, y)
                       for i, x in enumerate(arrays) for y in arrays[i + 1:])

    for block in blocks:
        pool.reset()
        run(block)
        pool.reset()
        slab = pool._slab
        assert slab.size >= sum(math.prod(s) for sh in block for s in sh)
        run(block)
        assert pool._slab is slab


def test_synthesis_rejects_bad_coefficient_shapes():
    grid = get_grid(4)
    for shape in ((grid.n_modes + 1,), (2, grid.n_modes - 1),
                  (1, 2, grid.n_modes)):
        with pytest.raises(ValueError, match="coefficients have shape"):
            grid.synthesize_jet(np.zeros(shape))


@pytest.mark.parametrize("lmax", [1, 2, 5, 16, 33])
def test_gradient_transpose_is_adjoint_of_gradient(lmax):
    """g @ c == sum(flux_t * ft + flux_l * fl) for the gradient of c."""
    grid = get_grid(lmax)
    rng = np.random.default_rng(lmax)
    coeffs = rng.standard_normal(grid.n_modes)
    flux_t, flux_l = rng.standard_normal((2, grid.n_lat, grid.n_lon))
    ft, fl = grid.synthesize_gradient(coeffs)
    terms = flux_t * ft + flux_l * fl
    lhs = grid.gradient_transpose(flux_t, flux_l) @ coeffs
    assert abs(lhs - np.sum(terms)) <= 1e-14 * np.sum(np.abs(terms))


def test_synthesis_matches_scipy_harmonics():
    """Real basis against scipy's complex harmonics on a coarse grid."""
    from scipy.special import sph_harm_y

    grid = get_grid(6)
    theta = grid.theta[:, None] * np.ones((1, grid.n_lon))
    lam = np.ones((grid.n_lat, 1)) * (2.0 * np.pi *
                                      np.arange(grid.n_lon) / grid.n_lon)[None, :]
    for l, m in [(0, 0), (1, 0), (2, 1), (3, -2), (4, 4), (5, -5)]:
        ours = synthesize(HarmonicField.single(l, m, 1.0), grid)
        y = sph_harm_y(l, abs(m), theta, lam)
        if m == 0:
            ref = np.real(y)
        elif m > 0:
            ref = np.sqrt(2.0) * (-1.0) ** m * np.real(y)
        else:
            ref = np.sqrt(2.0) * (-1.0) ** m * np.imag(y)
        assert_allclose(ours, ref, rtol=0, atol=1e-13)


def test_parseval():
    field = random_field(9, seed=11)
    grid = get_grid(9)
    f = synthesize(field, grid)
    quad = float(np.sum(grid.quad_weights * f * f))
    assert_allclose(quad, float(np.sum(field.coeffs ** 2)), rtol=1e-13)


def test_gradient_integral_closed_form():
    field = random_field(9, seed=12)
    expected = 0.0
    for l in range(10):
        for m in range(-l, l + 1):
            expected += l * (l + 1) * field.coeffs[coeff_index(l, m)] ** 2
    assert_allclose(gradient_norm_sq_integral(field), expected, rtol=1e-14)


def test_gradient_integral_matches_quadrature():
    field = random_field(7, seed=13)
    grid = get_grid(7)
    jet = grid.synthesize_jet(field.coeffs)
    grad_sq = jet["ft"] ** 2 + (jet["fl"] / grid.sin_theta[:, None]) ** 2
    quad = float(np.sum(grid.quad_weights * grad_sq))
    # the integrand has twice the field's band limit; evaluate oversampled
    big = get_grid(2 * field.lmax)
    jet2 = big.synthesize_jet(field.padded(big.lmax))
    grad_sq2 = jet2["ft"] ** 2 + (jet2["fl"] / big.sin_theta[:, None]) ** 2
    quad2 = float(np.sum(big.quad_weights * grad_sq2))
    assert_allclose(quad2, gradient_norm_sq_integral(field), rtol=1e-13)
    assert_allclose(quad, quad2, rtol=1e-12)


def test_laplacian_unit_coefficients():
    field = random_field(6, seed=4)
    lap = laplacian_unit(field)
    for l in range(7):
        for m in range(-l, l + 1):
            i = coeff_index(l, m)
            assert lap.coeffs[i] == pytest.approx(
                -l * (l + 1) * field.coeffs[i], rel=1e-15)


def test_jet_degree_one_zonal():
    """All six jet components against hand values for sqrt(3/4pi) cos(theta)."""
    field = HarmonicField.single(1, 0, 1.0)
    grid = get_grid(8)
    jet = grid.synthesize_jet(field.padded(8))
    ct = np.cos(grid.theta)[:, None]
    st = grid.sin_theta[:, None]
    assert_allclose(jet["f"], AMP_10 * ct * np.ones_like(jet["f"]), atol=1e-15)
    assert_allclose(jet["ft"], -AMP_10 * st * np.ones_like(jet["f"]), atol=1e-15)
    assert_allclose(jet["ftt"], -AMP_10 * ct * np.ones_like(jet["f"]), atol=1e-15)
    assert np.max(np.abs(jet["fl"])) < 1e-15
    assert np.max(np.abs(jet["ftl"])) < 1e-15
    assert np.max(np.abs(jet["fll"])) < 1e-15


def test_jet_degree_one_sectoral():
    """Azimuthal derivatives for sqrt(3/4pi) sin(theta) cos(lambda)."""
    field = HarmonicField.single(1, 1, 1.0)
    grid = get_grid(8)
    jet = grid.synthesize_jet(field.padded(8))
    ct = np.cos(grid.theta)[:, None]
    st = grid.sin_theta[:, None]
    lam = 2.0 * np.pi * np.arange(grid.n_lon) / grid.n_lon
    cl = np.cos(lam)[None, :]
    sl = np.sin(lam)[None, :]
    assert_allclose(jet["f"], AMP_10 * st * cl, atol=1e-15)
    assert_allclose(jet["ft"], AMP_10 * ct * cl, atol=1e-15)
    assert_allclose(jet["fl"], -AMP_10 * st * sl, atol=1e-15)
    assert_allclose(jet["ftl"], -AMP_10 * ct * sl, atol=1e-15)
    assert_allclose(jet["fll"], -AMP_10 * st * cl, atol=1e-15)
    assert_allclose(jet["ftt"], -AMP_10 * st * cl, atol=1e-14)


def test_sweep_records_pinned_at_minimal_slice():
    """Three criterion-10 records at base_r 0 against the values the
    per-order transforms on leggauss nodes gave: the batched transforms and
    the polished nodes move them by roundoff only."""
    cfg = SweepConfig(a=0.5, base_r=0.0, epsilon=1e-2, n_samples=3,
                      master_seed=42)
    pinned = [
        (-1.638225794432714e-08, 0.0018597961533396534, 0.0017734898602583507),
        (-1.1865825159345533e-07, 0.006412614806131495, 0.004803013153009192),
        (-3.458630260821639e-08, 0.0038576399887848153, 0.002579009592261972),
    ]
    records = perturbation_sweep(cfg).records
    got = [(r.deficit, r.c2_norm, r.w22_norm) for r in records]
    assert_allclose(got, pinned, rtol=1e-14, atol=0)


def test_degree_energies():
    field = HarmonicField(np.array([1.0, 1.0, 2.0, -2.0]))
    assert_allclose(field.degree_energies(), [1.0, 9.0], rtol=0, atol=0)
    field = random_field(7, seed=8)
    per_degree = [np.sum(field.coeffs[l * l:(l + 1) ** 2] ** 2) for l in range(8)]
    assert_allclose(field.degree_energies(), per_degree, rtol=1e-15, atol=0)


def test_padded_rejects_truncation():
    field = random_field(3, seed=5)
    padded = field.padded(6)
    assert padded.shape == (49,)
    assert_allclose(padded[:16], field.coeffs, rtol=0, atol=0)
    with pytest.raises(ValueError):
        field.padded(2)


def test_json_round_trip_drops_zeros():
    field = HarmonicField.single(2, -1, 0.75)
    doc = field.to_json()
    assert '"coeffs": [[2, -1, 0.75]]' in doc
    back = HarmonicField.from_json(doc)
    assert back.lmax == 2
    assert_allclose(back.coeffs, field.coeffs, rtol=0, atol=0)


def test_sobolev_norms_degree_one():
    """Slice radius 1: squares 1, 3, 7 accumulate l(l+1) powers."""
    n = sobolev_norms(HarmonicField.single(1, 0, 1.0), 1.0)
    assert n.l2 == pytest.approx(1.0, rel=1e-14)
    assert n.w12 == pytest.approx(np.sqrt(3.0), rel=1e-14)
    assert n.w22 == pytest.approx(np.sqrt(7.0), rel=1e-14)
    # sup estimates: within a few percent of the analytic suprema
    assert n.c0 == pytest.approx(AMP_10, rel=0.03)
    assert n.c1 == pytest.approx(AMP_10, rel=0.03)
    assert n.c2 == pytest.approx(AMP_10 * np.sqrt(2.0), rel=0.03)
    assert n.c2_bound == max(n.c0, n.c1, n.c2)


def test_sobolev_norms_slice_scaling():
    """Doubling the slice radius scales L2 up and curvature terms down."""
    field = random_field(5, seed=21)
    n1 = sobolev_norms(field, 1.0)
    n2 = sobolev_norms(field, 2.0)
    assert n2.l2 == pytest.approx(2.0 * n1.l2, rel=1e-13)
    assert n2.c0 == pytest.approx(n1.c0, rel=1e-13)
    assert n2.c1 == pytest.approx(n1.c1 / 2.0, rel=1e-13)
    assert n2.c2 == pytest.approx(n1.c2 / 4.0, rel=1e-13)


def test_field_requires_full_degree_blocks():
    with pytest.raises(ValueError):
        HarmonicField(np.zeros(5))   # not a perfect square


def test_grid_band_limit_guard():
    """An lmax-6 field does not synthesize on an lmax-4 grid, even when
    its coefficients are all zero."""
    grid = get_grid(4)
    with pytest.raises(ValueError):
        synthesize(HarmonicField(np.zeros(49)), grid)
