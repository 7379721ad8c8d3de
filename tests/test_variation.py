"""Second-variation forms, spectra, stability inequalities, oracles."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from hawkmass import (
    HarmonicField,
    area_bound_check,
    fd_second_variation,
    jacobi_spectrum,
    mean_deviation_coercivity,
    minimal_slice_rigidity,
    quadratic_form_report,
    second_variation_by_degree,
    second_variation_minimal,
    slice_geometry,
    slice_second_variation,
    strict_stability_inequality_check,
    solve_warp_factor,
    weak_stability_margin,
)
from hawkmass.warp import A_MAX, A_MIN

# degree-1 value at (a=0.5, r=0) for unit slice L2 norm, by substituting
# the eigenvalue 11 into the minimal-slice form: (11/8pi)(0.75 - 2.75)
SPOT_DEGREE_1 = -2.75 / np.pi
# degree-2 value, eigenvalue 27: -6(6 + 1 - 0.25)/(16 pi 0.125)
SPOT_DEGREE_2 = -40.5 / (2.0 * np.pi)


def unit_slice_harmonic(l, m, u):
    """Degree-(l, m) field with unit L^2 norm on a radius-u slice."""
    return HarmonicField.single(l, m, 1.0 / u)


def random_band_limited(lmax, seed):
    rng = np.random.default_rng(seed)
    return HarmonicField(rng.standard_normal((lmax + 1) ** 2))


def without_mean(field):
    """The field with its degree-0 coefficient zeroed."""
    c = field.coeffs.copy()
    c[..., 0] = 0.0
    return HarmonicField(c)


def test_spectrum_minimal_slice(w05):
    spec = jacobi_spectrum(w05, 0.0, 3)
    assert_allclose(spec.lambda_by_degree, [3.0, 11.0, 27.0, 51.0],
                    rtol=0, atol=1e-12)
    assert spec.first_eigenvalue == 3.0


def test_spectrum_formula_any_slice(w05):
    r = 1.2
    spec = jacobi_spectrum(w05, r, 4)
    u, up = w05.evaluate(r)
    upp = w05.curvature_accel(u, up)
    ll = np.arange(5)
    expected = (ll * (ll + 1)) / u**2 + 2 * upp / u - 2 * up**2 / u**2
    assert_allclose(spec.lambda_by_degree, expected, rtol=1e-14)


def test_spectrum_a06_value():
    from hawkmass import solve_warp_factor
    w = solve_warp_factor(0.6, 8.0)
    spec = jacobi_spectrum(w, 0.0, 0)
    assert spec.first_eigenvalue == pytest.approx((1 - 0.36) / 0.36, abs=1e-12)


def test_area_bound_equality_cases():
    assert area_bound_check(np.pi, 3.0) == pytest.approx(0.0, abs=1e-14)
    assert area_bound_check(4 * np.pi * 0.36, (1 - 0.36) / 0.36) == \
        pytest.approx(0.0, abs=1e-13)
    # borderline: unit round cylinder cross-section
    assert area_bound_check(4 * np.pi, 0.0) == pytest.approx(0.0, abs=1e-14)


def test_area_bound_rejects_unstable():
    with pytest.raises(ValueError):
        area_bound_check(np.pi, -0.5)
    with pytest.raises(ValueError):
        area_bound_check(-1.0, 1.0)


def test_minimal_slice_rigidity_family(warp_family):
    """Equality case: bound saturated with the full rigidity data."""
    for a, w in warp_family.items():
        rep = minimal_slice_rigidity(w)
        assert abs(rep.margin) < 1e-10
        assert rep.shape_operator_sq == 0.0
        assert rep.ricci_normal == pytest.approx(-rep.first_eigenvalue,
                                                 abs=1e-12)
        assert rep.gauss_curvature == pytest.approx(
            4.0 * np.pi / rep.area, rel=1e-13)
        assert rep.ambient_scalar == pytest.approx(2.0, abs=1e-12)
        assert rep.eigengap == pytest.approx(2.0 / (a * a), rel=1e-12)


def test_cross_formula_identity(w05, w08):
    """Two independently derived forms of the same second variation."""
    for w, seeds in ((w05, range(10)), (w08, range(10, 20))):
        for seed in seeds:
            phi = random_band_limited(6, seed)
            sv_slice = slice_second_variation(w, 0.0, phi)
            sv_min = second_variation_minimal(w, phi)
            assert sv_min == pytest.approx(sv_slice, abs=1e-10)


def test_spot_values(w05):
    phi1 = unit_slice_harmonic(1, 0, 0.5)
    assert slice_second_variation(w05, 0.0, phi1) == pytest.approx(
        SPOT_DEGREE_1, abs=1e-10)
    assert second_variation_minimal(w05, phi1) == pytest.approx(
        SPOT_DEGREE_1, abs=1e-10)
    phi2 = unit_slice_harmonic(2, 1, 0.5)
    assert slice_second_variation(w05, 0.0, phi2) == pytest.approx(
        SPOT_DEGREE_2, abs=1e-10)
    assert abs(SPOT_DEGREE_2) > abs(SPOT_DEGREE_1)


def test_degree_zero_neutrality(w05):
    q = second_variation_by_degree(w05, 0.7, 3)
    assert q[0] == 0.0
    const = HarmonicField.single(0, 0, 2.3)
    assert slice_second_variation(w05, 0.7, const) == 0.0


def _integral_form(w, r, phi):
    """The four-term integral form of the slice second variation, with each
    slice integral of phi assembled from its degree energies: the check on
    q_l that does not go through q_l."""
    u, up = w.evaluate(r)
    m = w.mass
    area = 4.0 * np.pi * u * u
    e = phi.degree_energies()
    ll = np.arange(phi.lmax + 1)
    k = ll * (ll + 1.0)
    int_lap_sq = np.sum(k * k * e, axis=-1) / (u * u)
    int_grad_sq = np.sum(k * e, axis=-1)
    int_dev_sq = u * u * np.sum(e[..., 1:], axis=-1)
    hsq = 4.0 * up * up / (u * u)
    return (-np.sqrt(area) / (32.0 * np.pi**1.5) * int_lap_sq
            + int_grad_sq / (4.0 * np.sqrt(np.pi * area))
            - 1.5 * m / area * int_grad_sq
            + 0.75 * m / area * hsq * int_dev_sq)


@pytest.mark.parametrize("r", [0.4, 0.9, 1.5])
def test_by_degree_matches_integral_form(w05, r):
    """u^2 sum_l q_l E_l is the paper's integral form off the minimal
    slice, for one field and for a block of fields."""
    phi = random_band_limited(5, seed=31)
    assert slice_second_variation(w05, r, phi) == pytest.approx(
        float(_integral_form(w05, r, phi)), rel=1e-13)
    block = HarmonicField(np.stack([random_band_limited(5, seed).coeffs
                                    for seed in (31, 32, 33, 34)]))
    assert_allclose(slice_second_variation(w05, r, block),
                    _integral_form(w05, r, block), rtol=1e-13, atol=0)


def test_fd_oracle_degree_one(w05):
    phi = unit_slice_harmonic(1, 0, 0.5)
    fd = fd_second_variation(w05, 0.0, phi, step=1e-3)
    assert fd.value == pytest.approx(SPOT_DEGREE_1, abs=1e-4)
    # Richardson refinement removes the leading h^2 truncation term
    assert abs(fd.refined - SPOT_DEGREE_1) < abs(fd.value - SPOT_DEGREE_1) / 50


def test_fd_oracle_generic_slice(w05):
    phi = HarmonicField(np.array([0.0, 0.3, 0.7, -0.2, 0.0, 0.4,
                                  0.0, -0.6, 0.1]))
    sv = slice_second_variation(w05, 0.9, phi)
    fd = fd_second_variation(w05, 0.9, phi, step=1e-3)
    assert fd.value == pytest.approx(sv, abs=1e-4)
    assert abs(fd.error_estimate) < 1e-4


def test_fd_constant_is_zero(w05):
    fd = fd_second_variation(w05, 0.8, HarmonicField.single(0, 0, 1.0),
                             step=1e-3)
    assert abs(fd.value) < 1e-8


def test_fd_slope_is_two(w05):
    phi = unit_slice_harmonic(1, 0, 0.5)
    steps = [1e-2, 1e-3, 1e-4]
    errors = [abs(fd_second_variation(w05, 0.0, phi, step=h).value
                  - SPOT_DEGREE_1) for h in steps]
    slope = np.polyfit(np.log(steps), np.log(errors), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.2)


def test_fd_step_guard(w05):
    with pytest.raises(ValueError):
        fd_second_variation(w05, 0.0, HarmonicField.single(1, 0, 1.0),
                            step=0.0)


@pytest.mark.parametrize("step", [np.nan, np.inf])
def test_fd_step_guard_non_finite(w05, step):
    with pytest.raises(ValueError, match="step must be positive and finite"):
        fd_second_variation(w05, 0.0, HarmonicField.single(1, 0, 1.0),
                            step=step)


def test_fd_step_guard_subnormal_square(w05):
    """A step whose square underflows to zero or to a subnormal is
    refused by name, not divided by; the smallest admitted steps run."""
    phi = HarmonicField.single(1, 0, 1.0)
    for step in (1e-300, 1e-160, 1.49e-154):
        with pytest.raises(ValueError, match=f"step {step:g} is too small"):
            fd_second_variation(w05, 0.0, phi, step=step)
    for ok in (1.5e-154, 1e-150):
        fd = fd_second_variation(w05, 0.0, phi, step=ok)
        assert fd.step == ok and np.isfinite(fd.value)


def test_strict_stability_equality_constants(warp_family):
    for w in warp_family.values():
        chk = strict_stability_inequality_check(
            w, HarmonicField.single(0, 0, 1.0))
        assert chk.slack == pytest.approx(0.0, abs=1e-10)


def test_strict_stability_slack_positive_nonconstant(w05):
    for l in range(1, 6):
        chk = strict_stability_inequality_check(
            w05, unit_slice_harmonic(l, 0, 0.5))
        assert chk.slack > 0.0
    # frozen degree-1 spot: 2 pi 121 - 6 pi 11 with unit slice norm
    chk1 = strict_stability_inequality_check(w05, unit_slice_harmonic(1, 0, 0.5))
    assert chk1.slack == pytest.approx(176.0 * np.pi, rel=1e-12)


def test_strict_stability_rejects_mixed_degrees(w05):
    mixed = HarmonicField(np.array([1.0, 0.0, 1.0, 0.0]))
    with pytest.raises(ValueError):
        strict_stability_inequality_check(w05, mixed)


def test_weak_stability_margin_at_zero(warp_family):
    for a, w in warp_family.items():
        assert weak_stability_margin(w, 0.0) == pytest.approx(
            2.0 / (a * a), rel=1e-12)


def test_weak_stability_margin_continuity(w05):
    values = [weak_stability_margin(w05, r) for r in np.linspace(0, 0.5, 21)]
    assert all(v > 0.0 for v in values)
    # no jumps: successive differences stay at the O(step) scale
    jumps = np.abs(np.diff(values))
    assert np.max(jumps) < 0.5


def test_mean_deviation_coercivity(w05):
    """q_l <= -C for all l >= 1, with equality exactly at degree 1."""
    for r in (0.0, 0.6, 1.4):
        c = mean_deviation_coercivity(w05, r)
        assert c > 0.0
        q = second_variation_by_degree(w05, r, 8)
        assert q[1] == pytest.approx(-c, rel=1e-12)
        assert np.all(q[2:] < -c)


def test_coercivity_bounds_mean_free_fields(w05):
    phi = without_mean(random_band_limited(5, seed=41))
    r = 0.8
    u, _ = w05.evaluate(r)
    c = mean_deviation_coercivity(w05, r)
    dev_sq = u * u * float(np.sum(phi.degree_energies()[1:]))
    assert slice_second_variation(w05, r, phi) <= -c * dev_sq + 1e-12


def test_quadratic_form_report_definite(w05):
    rep = quadratic_form_report(w05, 0.5, 8)
    assert rep.definite is True
    assert rep.q_by_degree.shape == (9,)
    assert rep.q_by_degree[0] == 0.0
    assert np.all(rep.q_by_degree[1:] < 0.0)


def test_c_est_is_band_limited_coercivity(w05):
    """C_est equals the worst ratio -q_l / w22(l) over the band."""
    rep = quadratic_form_report(w05, 0.0, 12)
    u, _ = w05.evaluate(0.0)
    ll = np.arange(13)
    k = ll * (ll + 1.0)
    weights = 1.0 + k / u**2 + (k / u**2) ** 2
    ratios = -rep.q_by_degree[1:] / weights[1:]
    assert rep.c_est == pytest.approx(float(np.min(ratios)), rel=1e-15)
    assert rep.c_est > 0.0


def test_sweep_deficit_obeys_reported_coercivity(w05):
    """End to end: a measured deficit respects -(C_est/4) w22^2."""
    from hawkmass import hawking_mass_deficit, sobolev_norms

    rep = quadratic_form_report(w05, 0.0, 16)
    phi = without_mean(random_band_limited(6, seed=55)).scaled(1e-3)
    u, _ = w05.evaluate(0.0)
    norms = sobolev_norms(phi, u)
    deficit = hawking_mass_deficit(w05, 0.0, phi, 1.0)
    assert deficit < -(rep.c_est / 4.0) * norms.w22 ** 2 * 0.9


@settings(max_examples=40, deadline=None)
@given(a=st.floats(A_MIN, A_MAX),
       fractions=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1,
                          max_size=8))
@example(a=A_MIN, fractions=[0.0, 0.25, 0.5, 0.75])
@example(a=A_MAX, fractions=[0.0, 0.25, 0.5, 0.75])
def test_degree_one_eigenvalue_and_negative_form_over_the_family(a,
                                                                 fractions):
    """On every slice lambda_1 = 6 m / u^3, and q_l < 0 for 1 <= l <= 16.

    lambda_1 reads m through 1 - u'^2 - u^2 / 3, which is O(m / u), so
    its relative error grows as 1/a; the bound is 1e-13 / a, about 10x the
    worst measured."""
    w = solve_warp_factor(a, 13.0)
    assert w.period < 13.0
    for r in (w.period * np.array(fractions)).tolist():
        lam1 = jacobi_spectrum(w, r, 1).lambda_by_degree[1]
        u = w.evaluate(r)[0]
        ref = 6.0 * w.mass / u**3
        assert abs(lam1 - ref) <= 1e-13 / a * ref
        assert np.all(second_variation_by_degree(w, r, 16)[1:] < 0.0)


# the closed forms of ``variation`` over the whole family: a in
# [A_MIN, A_MAX] and slices r in [0, T), with the bounds about 10x the
# worst error measured on 132 values of a at 41 radii each

family = dict(
    a=st.floats(A_MIN, A_MAX),
    fractions=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1,
                       max_size=8))


def family_slices(a, fractions):
    """The profile of neck radius a and the radii ``fractions`` of its
    period."""
    w = solve_warp_factor(a, 13.0)
    assert w.period < 13.0
    return w, (w.period * np.array(fractions)).tolist()


@settings(max_examples=40, deadline=None)
@given(**family)
@example(a=A_MIN, fractions=[0.0, 0.25, 0.5, 0.75])
@example(a=A_MAX, fractions=[0.0, 0.25, 0.5, 0.75])
def test_degree_one_saturates_the_coercivity_over_the_family(a, fractions):
    """q_1 = -C on every slice.  C reads m through 1 - u'^2, and the
    degree-1 terms of q_1 cancel to O(m / u^4), so the relative error
    grows as 1/a: 2.7e-14 at A_MIN and 4.3e-16 at a = 0.5, measured.  The
    bound is 2e-15 / a."""
    w, radii = family_slices(a, fractions)
    for r in radii:
        c = mean_deviation_coercivity(w, r)
        q1 = second_variation_by_degree(w, r, 1)[1]
        assert abs(-q1 - c) <= 2e-15 / a * c


@settings(max_examples=40, deadline=None)
@given(**family)
@example(a=A_MIN, fractions=[0.0, 0.25, 0.5, 0.75])
@example(a=A_MAX, fractions=[0.0, 0.25, 0.5, 0.75])
def test_coercivity_gap_by_degree_over_the_family(a, fractions):
    """-q_l - C = (k - 2)(k u + 6 m) / (16 pi u^4), k = l(l + 1), for
    2 <= l <= 16 on every slice; measured to 6.6e-16 relative, bounded
    by 7e-15."""
    w, radii = family_slices(a, fractions)
    ll = np.arange(2, 17)
    k = ll * (ll + 1.0)
    for r in radii:
        u = w.evaluate(r)[0]
        gap = -second_variation_by_degree(w, r, 16)[2:] \
            - mean_deviation_coercivity(w, r)
        ref = (k - 2.0) * (k * u + 6.0 * w.mass) / (16.0 * np.pi * u**4)
        assert np.all(np.abs(gap - ref) <= 7e-15 * ref)


@settings(max_examples=40, deadline=None)
@given(**family)
@example(a=A_MIN, fractions=[0.0, 0.25, 0.5, 0.75])
@example(a=A_MAX, fractions=[0.0, 0.25, 0.5, 0.75])
def test_slice_hawking_mass_is_the_conserved_mass_over_the_family(a,
                                                                   fractions):
    """Every slice has Hawking mass m.  Its bracket 1 - u'^2 - u^2 / 3 is
    O(m / u), so the error is absolute, not relative to m: at most 5.1e-15
    measured, bounded by 5e-14."""
    w, radii = family_slices(a, fractions)
    masses = slice_geometry(w, np.array(radii)).hawking_mass
    assert np.all(np.abs(masses - w.mass) <= 5e-14)


@settings(max_examples=40, deadline=None)
@given(a=st.floats(A_MIN, A_MAX))
@example(a=A_MIN)
@example(a=A_MAX)
def test_minimal_slice_rigidity_over_the_family(a):
    """The minimal slice saturates the area bound with the full rigidity
    data for every a: margin 0, lambda_0 = (1 - a^2) / a^2, |A|^2 = 0,
    K = 4 pi / |S| and Ric(nu, nu) = -lambda_0.  lambda_0 and Ric(nu, nu)
    are differences of O(1 / a^2) terms, so their error is absolute at
    that size, not relative to lambda_0, which is 2e-6 at A_MAX.  Worst
    measured on 406 values of a: margin 3.8e-16 of the area, lambda_0
    and Ric(nu, nu) 3.4e-16 / a^2, K 3.3e-16 relative, |A|^2 exactly 0.
    The bounds are about 10x those."""
    rep = minimal_slice_rigidity(solve_warp_factor(a, 13.0))
    lam = (1.0 - a * a) / (a * a)
    assert abs(rep.margin) <= 4e-15 * rep.area
    assert abs(rep.first_eigenvalue - lam) <= 4e-15 / (a * a)
    assert rep.shape_operator_sq == 0.0
    assert rep.gauss_curvature == pytest.approx(4.0 * np.pi / rep.area,
                                                rel=4e-15, abs=0.0)
    assert abs(rep.ricci_normal + lam) <= 4e-15 / (a * a)
