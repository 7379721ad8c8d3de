"""Warp-profile solver: first integral, symmetry, period, slice data."""

import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from hawkmass import (
    RangeError,
    SolveError,
    WarpFactor,
    conserved_mass,
    foliation_scan,
    slice_geometry,
    slice_mass_derivative,
    solve_warp_factor,
    static_chart_roots,
    weak_stability_margin,
)
from hawkmass import warp
from hawkmass.warp import (
    _PATCH_TOL,
    A_MAX,
    A_MIN,
    TaylorPatch,
    _static_gap,
    _static_period,
    _taylor_column,
)


def expected_mass(a):
    # first integral evaluated at the minimum: u = a, u' = 0
    return 0.5 * a * (1.0 - a * a / 3.0)


def test_initial_conditions(w05):
    u, up = w05.evaluate(0.0)
    assert u == 0.5
    assert up == 0.0


def test_conserved_mass_value(w05):
    assert_allclose(w05.mass, 11.0 / 48.0, rtol=0, atol=1e-12)


def test_mass_across_family(warp_family):
    for a, w in warp_family.items():
        assert_allclose(w.mass, expected_mass(a), rtol=0, atol=1e-12)


def test_first_integral_constant_along_profile(w05):
    r = np.linspace(0.0, w05.r_max, 4001)
    u, up = w05.evaluate(r)
    m = 0.5 * u * (1.0 - up * up - u * u / 3.0)
    assert np.max(np.abs(m - w05.mass)) < 1e-9


def test_even_symmetry(w05):
    r = np.linspace(0.1, 5.0, 37)
    u_pos, up_pos = w05.evaluate(r)
    u_neg, up_neg = w05.evaluate(-r)
    assert_allclose(u_neg, u_pos, rtol=0, atol=0)
    assert_allclose(up_neg, -up_pos, rtol=0, atol=0)


def test_period_spot_value(w05):
    """Frozen from a converged run; guards against solver regressions."""
    assert w05.period == pytest.approx(6.154021055616072, abs=1e-9)
    u_per, up_per = w05.evaluate(w05.period)
    assert u_per == pytest.approx(0.5, abs=1e-10)
    assert up_per == pytest.approx(0.0, abs=1e-9)


def test_maximum_radius_is_static_chart_root(w05):
    """u at the half period must solve u^3 - 3u + 6m = 0."""
    roots = static_chart_roots(w05.mass)
    u_max, _ = w05.evaluate(w05.period / 2.0)
    assert_allclose(u_max, max(roots), rtol=0, atol=1e-11)
    assert_allclose(min(roots), 0.5, rtol=0, atol=1e-11)


def test_static_chart_roots_values():
    roots = static_chart_roots(11.0 / 48.0)
    assert len(roots) == 2
    assert_allclose(sorted(roots), [0.5, 1.4270509831248423], rtol=0, atol=1e-12)


def test_static_chart_roots_domain():
    with pytest.raises(ValueError):
        static_chart_roots(1.0 / 3.0)
    with pytest.raises(ValueError):
        static_chart_roots(0.0)
    with pytest.raises(ValueError):
        static_chart_roots(-0.1)


@pytest.mark.parametrize("a", np.linspace(A_MIN, 0.9, 41))
def test_static_gap_matches_the_chart_roots(a):
    """Away from a = 1 the roots are well conditioned, and their gap is
    the closed form's to 1e-14."""
    lo, hi = static_chart_roots(expected_mass(a))
    assert abs((hi - lo) - _static_gap(a)) <= 1e-14 * _static_gap(a)


def _period_reference(a, n=4096):
    """T = 4 sqrt(3) int_0^{pi/2} sqrt(u / (u + a + b)) dtheta by the
    n-point midpoint rule, u = a + (b - a) sin^2(theta)."""
    b = 0.5 * (np.sqrt(12.0 - 3.0 * a * a) - a)
    theta = (np.arange(n) + 0.5) * (0.5 * np.pi / n)
    u = a + (b - a) * np.sin(theta) ** 2
    return 4.0 * np.sqrt(3.0) * 0.5 * np.pi * np.mean(np.sqrt(u / (u + a + b)))


@pytest.mark.parametrize("a", [A_MIN, 0.2, 0.5, 0.9, 0.99999, A_MAX])
def test_period_is_the_static_chart_quadrature(a):
    """Near a = 1 a zero of u' was ill-conditioned, and the period read
    from it was off by 2e-11 at A_MAX; the quadrature is not."""
    w = solve_warp_factor(a, 13.0)
    assert w.period == _static_period(a)
    assert abs(w.period - _period_reference(a)) <= 1e-14 * w.period


def test_period_is_reported_for_every_range(w05):
    """The period is a function of a: a range shorter than T reports it
    too, and the fold serves every radius up to r_max."""
    short = solve_warp_factor(0.5, 6.0)
    assert short.period == w05.period
    assert np.array_equal(short.nodes, w05.nodes)
    r = np.linspace(-6.0, 6.0, 97)
    for got, ref in zip(short.evaluate(r), w05.evaluate(r)):
        assert np.array_equal(got, ref)
    assert solve_warp_factor(0.5, 0.5).period == w05.period


_K3 = 2.0 * np.sqrt(3.0)


def _static_chart_g(a, theta):
    """g = sqrt(u / (u + a + b)) at u = a + (b - a) sin^2(theta), with b
    from the quadratic, not from ``_static_gap``."""
    b = 0.5 * (np.sqrt(12.0 - 3.0 * a * a) - a)
    u = a + (b - a) * np.sin(theta) ** 2
    return np.sqrt(u / (u + a + b))


def _static_chart_radius(a, theta, n=4096):
    """r(theta) = 2 sqrt(3) int_0^theta g for an array theta, integrated
    term by term from the Fourier series of g: independent of the stepper,
    of any fold and of ``warp._static_radius``'s quadrature."""
    coef = np.fft.rfft(_static_chart_g(a, np.pi * np.arange(n) / n)).real / n
    k = np.flatnonzero(np.abs(coef) > 1e-17 * coef[0])[1:]
    return _K3 * (coef[0] * theta
                  + np.sin(2.0 * np.outer(theta, k)) @ (coef[k] / k))


def _static_chart_profile(a, r):
    """(u, u') at radii r >= 0 from the static chart: u = a + (b - a)
    sin^2(theta), with ``_static_chart_radius`` inverted by Newton's
    method, and u' = (du/dtheta) / (2 sqrt(3) g)."""
    gap = 0.5 * (np.sqrt(12.0 - 3.0 * a * a) - a) - a
    period = _static_chart_radius(a, np.array([np.pi]))[0]
    table = np.linspace(0.0, np.pi * (r.max() / period + 0.01), 2049)
    theta = np.interp(r, _static_chart_radius(a, table), table)
    for _ in range(8):
        g = _static_chart_g(a, theta)
        theta = theta - (_static_chart_radius(a, theta) - r) / (_K3 * g)
    g = _static_chart_g(a, theta)
    return a + gap * np.sin(theta) ** 2, gap * np.sin(2.0 * theta) / (_K3 * g)


@pytest.mark.parametrize("a", [A_MIN, 0.01, 0.2, 0.5, 0.9, A_MAX])
def test_profile_matches_the_static_chart(a):
    """u to 1e-13 relative and u' to 1e-13 absolute over [0, 13], plus
    the phase error eps |r| that the rounding of T costs each fold (8 eps
    here).  The phase term matters only at the necks past T/2 for small
    a: there u'/u reaches 0.375 / a, so at a = 1e-3 half an ulp of T
    alone moves u by 3e-13 relative at r = 2T.  A stepped profile drifts
    in phase by far more, 2e-11 at a = 1e-3."""
    eps = np.finfo(float).eps
    w = solve_warp_factor(a, 13.0)
    necks = np.outer(w.period * np.arange(1, 3), np.ones(41))
    r = np.concatenate([np.linspace(0.0, 13.0, 1301),
                        (necks + np.linspace(-0.01, 0.01, 41)).ravel()])
    u_ref, up_ref = _static_chart_profile(a, r)
    u, up = w.evaluate(r)
    phase = 8.0 * eps * r
    assert np.all(np.abs(u - u_ref) <= 1e-13 * u_ref + phase * np.abs(up_ref))
    upp = w.curvature_accel(u_ref, up_ref)
    assert np.all(np.abs(up - up_ref) <= 1e-13 + phase * np.abs(upp))


@pytest.mark.parametrize("a", [0.0, 1.0, 1.5, -0.2])
def test_minimum_radius_guard(a):
    with pytest.raises(ValueError):
        solve_warp_factor(a, 10.0)


def test_range_guard(w05):
    with pytest.raises(RangeError):
        w05.evaluate(w05.r_max + 1.0)
    with pytest.raises(RangeError):
        w05.evaluate(-(w05.r_max + 1.0))


def test_range_guard_rejects_nan(w05):
    with pytest.raises(RangeError):
        w05.evaluate(np.nan)
    with pytest.raises(RangeError):
        w05.evaluate(np.array([0.1, np.nan]))


def test_range_ends_exactly_at_the_last_node():
    """Below half a period the nodes end at r_max, and so does the range."""
    w = solve_warp_factor(0.5, 2.0)
    assert w.nodes[-1, 0] == w.r_max == 2.0
    u, up = w.evaluate(w.r_max)
    assert (u, up) == tuple(w.nodes[-1, 1:])
    with pytest.raises(RangeError):
        w.evaluate(np.nextafter(w.r_max, np.inf))


def test_range_ends_exactly_at_r_max_past_the_last_node(w05):
    """Past half a period the nodes stop at T/2, the fold serves the rest
    of [0, r_max], and the range still ends exactly at r_max."""
    assert w05.nodes[-1, 0] == 0.5 * w05.period < w05.r_max
    assert w05.evaluate(w05.nodes[-1, 0]) == tuple(w05.nodes[-1, 1:])
    w05.evaluate(w05.r_max)
    with pytest.raises(RangeError):
        w05.evaluate(np.nextafter(w05.r_max, np.inf))


def test_evaluate_scalar_and_vector_agree(w05):
    r = np.array([0.3, 1.1, 2.9])
    u_vec, up_vec = w05.evaluate(r)
    for i, ri in enumerate(r):
        u_i, up_i = w05.evaluate(float(ri))
        assert u_i == u_vec[i]
        assert up_i == up_vec[i]


def test_curvature_accel_matches_profile_equation(w05):
    r = np.linspace(0.0, 6.0, 101)
    u, up = w05.evaluate(r)
    upp = w05.curvature_accel(u, up)
    assert_allclose(upp, (1.0 - up * up) / (2.0 * u) - u / 2.0,
                    rtol=0, atol=1e-15)


def test_taylor_patch_tracks_solution(w05):
    patch = w05.taylor_patch(1.3)
    s = np.linspace(-0.01, 0.01, 11)
    u_ref, up_ref = w05.evaluate(1.3 + s)
    u_p, up_p = patch.eval_delta(s)[:2]
    assert_allclose(u_p, u_ref, rtol=0, atol=1e-12)
    assert_allclose(up_p, up_ref, rtol=0, atol=1e-11)


def _reach(patch):
    """The largest offset the patch gate accepts, to 1e-12: the trust
    radius where the gate accepts all of it, else scipy's brentq on the
    zero of the tail bound less _PATCH_TOL."""
    from scipy.optimize import brentq

    if patch.covers(patch.trust):
        return patch.trust
    return brentq(lambda x: patch.tail_bound(x) - _PATCH_TOL, 0.0,
                  patch.trust, xtol=1e-12)


@settings(max_examples=60, deadline=None)
@given(base_r=st.floats(-2.0, 2.0), frac=st.floats(0.0, 1.0),
       offsets=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=32))
@example(base_r=0.0, frac=1.0, offsets=[-0.0])
@example(base_r=0.0, frac=3e-6, offsets=[1.0, -1.0, 0.25])
@example(base_r=0.4, frac=3e-2, offsets=[1.0, -1.0])
def test_eval_delta_order_cut_keeps_the_full_sums(w05, base_r, frac,
                                                  offsets):
    """Horner over the orders that count at smax gives the bits of the
    full 28-order sums at every |s| <= smax, also at base_r = 0, where
    every odd coefficient of u and every even one of u' is 0."""
    patch = w05.taylor_patch(base_r)
    smax = frac * _reach(patch)
    s = np.concatenate([np.array(offsets) * smax,
                        np.linspace(-smax, smax, 65)])
    full_du = warp._horner(patch.coeff_u[1:], s) * s
    full_dup = warp._horner(patch.coeff_up[1:], s) * s
    u, up, du, dup = patch.eval_delta(s, smax)
    assert du.tobytes() == full_du.tobytes()
    assert dup.tobytes() == full_dup.tobytes()
    assert u.tobytes() == (patch.coeff_u[0] + full_du).tobytes()
    assert up.tobytes() == (patch.coeff_up[0] + full_dup).tobytes()


def test_eval_delta_order_cut_shortens_small_offsets(w05):
    """At smax = 1e-2 fewer than 20 of the 28 orders run, and at 1e-6
    fewer than 8."""
    patch = w05.taylor_patch(0.4)
    for smax, most in ((1e-2, 20), (1e-6, 8)):
        assert warp._orders(patch.coeff_u[1:], smax).size < most
        assert warp._orders(patch.coeff_up[1:], smax).size < most
    assert warp._orders(patch.coeff_u[1:], 0.0).size == 28


def _patch_error(w, patch, smax):
    """max |u_patch - u| and max |u'_patch - u'| over |s| <= smax, against
    the profile's own evaluator."""
    s = np.linspace(-smax, smax, 401)
    got = patch.eval_delta(s)[:2]
    ref = w.evaluate(patch.r0 + s)
    return tuple(float(np.max(np.abs(g - r))) for g, r in zip(got, ref))


def test_tail_bound_reads_past_a_small_last_coefficient():
    """Here the last coefficient alone bounds the error by 3.6e-14, while
    the patch is off by 2.5e-13; the gate must refuse the patch."""
    w = solve_warp_factor(0.5148828075211509, 13.0)
    patch = w.taylor_patch(11.9375)
    err = _patch_error(w, patch, 0.45)[0]
    assert err > 1e-13
    assert patch.tail_bound(0.45) >= err
    assert not patch.covers(0.45)
    assert _reach(patch) < 0.45


@settings(max_examples=25, deadline=None)
@given(a=st.floats(0.2, 0.9), r0_16=st.integers(0, 192),
       smax=st.floats(0.05, 0.7))
@example(a=0.5148828075211509, r0_16=191, smax=0.45)
@example(a=0.2, r0_16=179, smax=0.3)
def test_patch_gate_bounds_error(a, r0_16, smax):
    """Whatever the patch gate accepts is accurate to 1e-13, in u and in
    u'.  In the second example the u series alone is accurate, while the
    u' series, which converges more slowly, is off by 7e-12."""
    w = solve_warp_factor(a, 13.0)
    patch = w.taylor_patch(r0_16 / 16.0)
    if patch.covers(smax):
        err_u, err_up = _patch_error(w, patch, smax)
        assert err_u < 1e-13
        assert err_up < 1e-13
        assert smax <= _reach(patch) + 1e-12


def test_json_round_trip(w05):
    assert json.loads(w05.to_json())["r_max"] == 13.0
    w2 = WarpFactor.from_json(w05.to_json())
    assert w2.r_max == w05.r_max
    assert w2.a == w05.a
    assert w2.mass == w05.mass
    assert w2.period == w05.period
    assert np.array_equal(w2.nodes, w05.nodes)
    r = np.linspace(-w05.r_max, w05.r_max, 1000)
    for got, ref in zip(w2.evaluate(r), w05.evaluate(r)):
        assert np.array_equal(got, ref)


def test_json_reads_node_documents_without_r_max(w05):
    """A node document from before the fold stepped all of [0, r_max] and
    stored no r_max; it is re-solved up to its last node, so it reads as
    today's solve, whose nodes below T/2 are its own."""
    r0, u0, up0 = 0.0, 0.5, 0.0
    nodes = [(r0, u0, up0)]
    while r0 < 13.0:
        patch = TaylorPatch(r0, u0, up0)
        r1 = min(r0 + 0.25 * patch.radius, 13.0)
        u0, up0 = (float(v) for v in patch.eval_delta(r1 - r0)[:2])
        r0 = r1
        nodes.append((r0, u0, up0))
    doc = {"a": 0.5, "mass": w05.mass, "period": 6.154021055616072,
           "nodes": nodes}
    w2 = WarpFactor.from_json(json.dumps(doc))
    assert w2.r_max == 13.0
    assert w2.period == w05.period
    assert np.array_equal(np.array(nodes)[:w05.nodes.shape[0] - 1],
                          w05.nodes[:-1])
    assert w2.to_json() == w05.to_json()


def test_json_reads_uniform_sample_documents(w05):
    """The older format stored a uniform (r, u, u') table; it is re-solved
    from its a and its last radius."""
    r = np.linspace(0.0, 13.0, 651)
    u, up = w05.evaluate(r)
    doc = {"a": 0.5, "mass": w05.mass, "period": w05.period,
           "samples": np.column_stack([r, u, up]).tolist()}
    w2 = WarpFactor.from_json(json.dumps(doc))
    assert w2.r_max == 13.0
    assert w2.period == w05.period
    assert np.array_equal(w2.nodes, w05.nodes)
    rr = np.linspace(0.0, 13.0, 1000)
    for got, ref in zip(w2.evaluate(rr), w05.evaluate(rr)):
        assert np.array_equal(got, ref)


def _malformed(kind, doc):
    if kind == "not_json":
        return "nope"
    if kind == "list":
        return json.dumps([doc])
    if kind in ("no_a", "no_mass"):
        doc.pop(kind[3:])
    elif kind == "no_table":
        doc.pop("nodes")
    elif kind == "empty_nodes":
        doc["nodes"] = []
        doc.pop("r_max")
    elif kind == "text_r_max":
        doc["r_max"] = "far"
    elif kind == "huge_r_max":
        doc["r_max"] = 1.0e9
    else:
        doc["mass"] = float("nan")
    return json.dumps(doc)


@pytest.mark.parametrize("kind, problem", [
    ("not_json", "Expecting value"),
    ("list", "must be a JSON object"),
    ("no_a", "no 'a'"),
    ("no_mass", "no 'mass'"),
    ("no_table", "no nodes and no samples"),
    ("empty_nodes", "no nodes and no samples"),
    ("text_r_max", "must be numbers"),
    ("huge_r_max", r"r_max must be in \(0, 1e3\]"),
    ("nan_mass", "mass inconsistent"),
])
def test_json_rejects_malformed_documents(w05, kind, problem):
    """Each malformed document raises ValueError naming its problem, not a
    KeyError, IndexError or TypeError from inside the reader; an r_max past
    the solver's cap is refused, not served."""
    doc = json.loads(w05.to_json())
    with pytest.raises(ValueError, match=problem):
        WarpFactor.from_json(_malformed(kind, doc))


def test_json_reads_perturbed_nodes_as_the_solved_profile(w05):
    """Stored nodes are not read: a document whose nodes were tampered
    with reads as the profile solved from its a and r_max."""
    doc = json.loads(w05.to_json())
    nodes = np.array(doc["nodes"])
    nodes[1:, 1:] *= 1.0 + 1.0e-6
    nodes[1:-1, 0] += 1.0e-3
    doc["nodes"] = nodes.tolist()
    w2 = WarpFactor.from_json(json.dumps(doc))
    assert w2.to_json() == w05.to_json()
    assert w2._tails.tobytes() == w05._tails.tobytes()
    r = np.linspace(-w05.r_max, w05.r_max, 777)
    for got, ref in zip(w2.evaluate(r), w05.evaluate(r)):
        assert got.tobytes() == ref.tobytes()


def test_nodes_are_the_stepper_steps():
    """At a = 1e-3 the neck forces short steps, yet the whole range needs
    few of them; each node is the previous step's patch at a quarter of
    its convergence radius."""
    w = solve_warp_factor(1.0e-3, 13.0)
    assert w.nodes.shape[0] <= 200
    for (r0, u0, up0), nxt in zip(w.nodes[:-2], w.nodes[1:-1]):
        patch = TaylorPatch(r0, u0, up0)
        h = nxt[0] - r0
        assert nxt[0] == r0 + 0.25 * patch.radius
        assert tuple(nxt[1:]) == tuple(float(v) for v in patch.eval_delta(h)[:2])


def test_json_rejects_tampered_mass(w05):
    doc = json.loads(w05.to_json())
    doc["mass"] = doc["mass"] + 1e-3
    with pytest.raises(ValueError):
        WarpFactor.from_json(json.dumps(doc))


def test_conserved_mass_helper(w05):
    assert conserved_mass(w05, 0.9) == pytest.approx(w05.mass, abs=1e-10)


def test_slice_geometry_closed_forms(w05):
    geo = slice_geometry(w05, 0.7)
    u, up = w05.evaluate(0.7)
    assert_allclose(geo.area, 4.0 * np.pi * u * u, rtol=1e-15)
    assert_allclose(geo.mean_curvature, -2.0 * up / u, rtol=1e-15)
    assert_allclose(geo.shape_operator_sq, geo.mean_curvature ** 2 / 2.0,
                    rtol=1e-14)
    assert_allclose(geo.gauss_curvature, 1.0 / (u * u), rtol=1e-15)
    upp = w05.curvature_accel(u, up)
    assert_allclose(geo.ricci_normal, -2.0 * upp / u, rtol=1e-14)


def test_slice_hawking_mass_is_conserved_mass(warp_family):
    for w in warp_family.values():
        for r in (0.0, 0.4, 1.7, 4.2):
            geo = slice_geometry(w, r)
            assert abs(geo.hawking_mass - w.mass) < 1e-10


def test_slice_mass_derivative_vanishes(w05):
    for r in np.linspace(0.0, 6.1, 41):
        assert abs(slice_mass_derivative(w05, float(r))) < 1e-12


def test_minimal_slice_is_minimal(w05):
    geo = slice_geometry(w05, 0.0)
    assert geo.mean_curvature == 0.0
    assert geo.shape_operator_sq == 0.0


def test_solve_rejects_bad_range():
    with pytest.raises(ValueError):
        solve_warp_factor(0.5, 0.0)
    with pytest.raises(ValueError):
        solve_warp_factor(0.5, 2000.0)


def test_coarse_tolerance_still_honors_postcondition(monkeypatch):
    """The solve checks the first integral on its nodes and midpoints
    against a fixed bound of 1e-9: a drift just inside it passes, one just
    past it raises ``SolveError`` naming the bound."""
    assert warp._DRIFT_BOUND == 1e-9
    exact = warp.conserved_mass

    def drifted(offset):
        return lambda w, r: exact(w, r) + offset

    monkeypatch.setattr(warp, "conserved_mass", drifted(0.99e-9))
    solve_warp_factor(0.5, 10.0)
    monkeypatch.setattr(warp, "conserved_mass", drifted(1.01e-9))
    with pytest.raises(SolveError, match=r"drift 1\.010e-09 exceeds 1e-09"):
        solve_warp_factor(0.5, 10.0)


def test_small_minimum_radius_solves():
    w = solve_warp_factor(0.02, 4.0)
    assert_allclose(w.mass, expected_mass(0.02), rtol=0, atol=1e-12)
    u, up = w.evaluate(2.0)
    m = 0.5 * u * (1.0 - up * up - u * u / 3.0)
    assert abs(m - w.mass) < 1e-9


@settings(max_examples=40, deadline=None)
@given(a=st.floats(A_MIN, A_MAX), r_max=st.floats(0.1, 13.0))
@example(a=0.5148828075211509, r_max=13.0)
@example(a=A_MIN, r_max=13.0)
@example(a=A_MAX, r_max=13.0)
def test_taylor_stepper_conserves_mass(a, r_max):
    """The stepped profile keeps the first integral at roundoff, on the
    step nodes and at the step midpoints, over all of [A_MIN, A_MAX]: at
    most 1e-13, four orders inside the 1e-9 the solve checks, so no
    tolerance could change a solve.  The first example is a neck radius
    whose order-28 tail coefficient is accidentally tiny at r ~ 3.75."""
    w = solve_warp_factor(a, r_max)
    mid = 0.5 * (w.nodes[1:, 0] + w.nodes[:-1, 0])
    for r in (w.nodes[:, 0], mid):
        u, up = w.evaluate(r)
        drift = np.max(np.abs(0.5 * u * (1.0 - up * up - u * u / 3.0) - w.mass))
        assert drift <= 1e-13


@pytest.mark.parametrize("a", [A_MIN, 0.2, 0.5, 0.9, 0.99999, A_MAX])
def test_profile_is_the_same_for_every_range_past_half_a_period(a):
    """The nodes stop at T/2 for every r_max >= T/2, so the nodes, the
    expansions and ``evaluate`` keep their bits whatever the range is:
    r_max only bounds the radii a profile serves."""
    half = 0.5 * _static_period(a)
    ref = WarpFactor(a, 1.0e3)
    grid = np.linspace(-half, half, 501)
    far = np.linspace(-40.0, 40.0, 801)
    for r_max in (half, half + 1e-9, 6.0, 7.3, 12.0, 40.0, 1.0e3):
        w = WarpFactor(a, r_max)
        assert w.nodes.tobytes() == ref.nodes.tobytes()
        assert w._tails.tobytes() == ref._tails.tobytes()
        for r in (grid, far) if r_max >= 40.0 else (grid,):
            for got, want in zip(w.evaluate(r), ref.evaluate(r)):
                assert got.tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None)
@given(a=st.floats(A_MIN, A_MAX),
       r_max=st.floats(0.0, 1.0e3, exclude_min=True))
@example(a=0.5, r_max=1.0)
@example(a=A_MIN, r_max=3.0)
@example(a=A_MAX, r_max=1.0e3)
def test_every_range_serves_the_largest_solve(a, r_max):
    """Whatever r_max is, the period is the static-chart T and
    ``evaluate`` has the bits of the 1e3 solve on |r| < r_max.  The
    endpoint r = r_max is left out: below T/2 the last step is cut short
    there, and its node's value is the previous expansion summed by
    ``eval_delta``, which can differ from ``evaluate``'s sum of the same
    expansion in the last bit."""
    ref = solve_warp_factor(a, 1.0e3)
    w = solve_warp_factor(a, r_max)
    assert w.period == _static_period(a) == ref.period
    inner = np.nextafter(r_max, 0.0)
    r = np.concatenate([np.linspace(-r_max, r_max, 301)[1:-1],
                        [inner, -inner]])
    for got, want in zip(w.evaluate(r), ref.evaluate(r)):
        assert got.tobytes() == want.tobytes()


def _coeff_loop_reference(U):
    """Each order of the recurrence summed term by term from the lower
    orders of ``U``: order k + 2 from U[0], ..., U[k + 1].

    Returns the coefficients and, per order, the sum of the moduli of the
    summands behind it (divided like the coefficient): the scale of its
    rounding error even where the sum cancels.  Orders 0 and 1 are the
    initial data, copied.
    """
    ref = np.array(U, dtype=float)
    scale = np.abs(ref)
    for k in range(ref.size - 2):
        summands = [2.0 * U[k - j] * (j + 1) * (j + 2) * U[j + 2] for j in range(k)]
        for j in range(k + 1):
            summands += [(j + 1) * U[j + 1] * (k - j + 1) * U[k - j + 1],
                         U[j] * U[k - j]]
        acc = 0.0
        for t in summands:
            acc += t
        const = 1.0 if k == 0 else 0.0
        denom = 2.0 * U[0] * (k + 1) * (k + 2)
        ref[k + 2] = (const - acc) / denom
        scale[k + 2] = (const + sum(abs(t) for t in summands)) / abs(denom)
    return ref, scale


@settings(max_examples=25, deadline=None)
@given(u0=st.floats(A_MIN, 2.0), up0=st.floats(-1.5, 1.5))
@example(u0=0.5644064358830799, up0=1.0)
@example(u0=1.5, up0=0.5)
def test_taylor_column_matches_loop_reference(u0, up0):
    """The column's Cauchy products only reorder the sums: every order
    the column builds is the loop sum of the same lower orders, to far
    inside 1e-10 of that order's summand scale.  At up0 = +-1 the order-3
    coefficient cancels to zero, where a relative tolerance on the
    coefficient itself would compare roundoff (the first example).

    Each order is checked against the column's own lower orders, not
    against a second column built from scratch: the first integral
    u u'^2 = u - u^3/3 + C makes C = 0 (the second example) the entire
    solution u = sqrt(3) sin(s / sqrt(3) + phi), whose neighbours with
    C != 0 reach u = 0 at finite s.  There the roundoff of the low orders,
    whichever order the sums run in, grows relative to the fast-decaying
    coefficients until two columns built from scratch differ by the
    size of their top coefficients, both as far from the exact ones."""
    column = _taylor_column(u0, up0)
    ref, scale = _coeff_loop_reference(column)
    assert column[:2] == [u0, up0]
    assert np.all(np.abs(np.array(column) - ref) <= 1e-10 * scale)


@pytest.mark.parametrize("a", [1.0e-3, 0.2, 0.5149, 0.9, A_MAX])
def test_warp_expansions_are_the_stepper_patches(a):
    """``WarpFactor`` gives each node the bits of the patch the stepper
    builds there, in u and in u'; the s^28 term of u' is zero."""
    w = solve_warp_factor(a, 13.0)
    for i, node in enumerate(w.nodes):
        patch = TaylorPatch(*node)
        assert w._tails[i, 0].tobytes() == patch.coeff_u[1:].tobytes()
        assert w._tails[i, 1, :-1].tobytes() == patch.coeff_up[1:].tobytes()
        assert w._tails[i, 1, -1] == 0.0


def test_solve_builds_one_column_per_node(monkeypatch):
    """The stepper builds each node's expansion once, as one column, the
    last node's included, and nothing rebuilds them."""
    calls = []
    column = warp._taylor_column

    def counted(*args, **kwargs):
        calls.append(args)
        return column(*args, **kwargs)

    monkeypatch.setattr(warp, "_taylor_column", counted)
    w = solve_warp_factor(0.5, 13.0)
    assert calls == [tuple(node[1:]) for node in w.nodes]


@pytest.mark.parametrize("a", [0.99997, 0.99999, A_MAX])
@pytest.mark.parametrize("r_max", [6.4, 12.0, 50.0])
def test_period_near_the_round_cylinder(a, r_max):
    """Near a = 1 a step would outgrow half the period, so one or two
    steps, the last clipped at T/2, are the whole profile; the period
    tends to 2 pi, the period of the linearization, and the fold returns
    u(T) = a with u'(T) = 0 exactly."""
    w = solve_warp_factor(a, r_max)
    assert w.nodes.shape[0] <= 3
    assert w.nodes[-1, 0] == 0.5 * w.period
    assert w.period == pytest.approx(2.0 * np.pi, abs=1e-9)
    assert w.evaluate(w.period) == (a, 0.0)


def test_import_loads_no_scipy():
    code = ("import sys, hawkmass; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120).stdout
    assert out.strip() == "[]"


def test_taylor_patch_memo_keeps_the_last_patch(w05):
    patch = w05.taylor_patch(0.4)
    assert w05.taylor_patch(0.4) is patch
    fresh = TaylorPatch(0.4, *w05.evaluate(0.4))
    assert np.array_equal(patch.coeff_u, fresh.coeff_u)
    assert patch.coeff_u[0] == w05.evaluate(0.4)[0]
    with pytest.raises(ValueError):
        patch.coeff_u[0] = 0.0
    other = w05.taylor_patch(0.5)
    assert other.r0 == 0.5
    assert w05.taylor_patch(0.4) is not patch     # one entry only


@pytest.mark.parametrize("a", np.linspace(0.2, 0.9, 8))
def test_reach_and_flip_agree_with_scipy(a):
    """The patch gate's reach and the margin flip radius agree with
    scipy's brentq on the zero of the tail bound and on the margin's first
    sign change on a grid, to 1e-12: the gate accepts every offset 2e-12
    short of the reach and refuses every offset 2e-12 past it, unless the
    reach is the whole trust radius.  Where the grid shows no sign change,
    the scan reports no flip."""
    from scipy.optimize import brentq

    w = solve_warp_factor(float(a), 13.0)
    for r0 in (0.0, 11.9375):
        patch = w.taylor_patch(r0)
        reach = _reach(patch)
        assert 0.0 < reach <= patch.trust
        assert patch.covers(reach - 2e-12)
        assert reach == patch.trust or not patch.covers(reach + 2e-12)
    grid = np.linspace(0.0, w.period, 256, endpoint=False)
    margins = weak_stability_margin(w, grid)
    flip = foliation_scan(w, grid).margin_flip_radius
    down = np.flatnonzero((margins[:-1] > 0.0) & (margins[1:] <= 0.0))
    assert (flip is None) == (down.size == 0)
    if flip is not None:
        i = down[0]
        ref = brentq(lambda x: weak_stability_margin(w, x), grid[i],
                     grid[i + 1], xtol=1e-12)
        assert abs(flip - ref) <= 1e-12


def _u_star(a):
    """The radius u* where the degree-1 eigenvalue 6 m / u^3 meets the
    minimal slice's lambda_0 = 1 / a^2 - 1."""
    return a * ((3.0 - a * a) / (1.0 - a * a)) ** (1.0 / 3.0)


@settings(max_examples=40, deadline=None)
@given(a=st.floats(A_MIN, 0.72, exclude_max=True))
@example(a=A_MIN)
@example(a=0.7)
@example(a=np.nextafter(0.72, 0.0))
def test_margin_flip_from_the_static_chart(a):
    """u(r*) = u* to 1e-13 relative; the margins are positive on a grid
    below r* and negative just past it; and r* agrees to 1e-13 relative
    with the Fourier series of the static chart at theta*."""
    w = solve_warp_factor(a, 13.0)
    flip = foliation_scan(w, [0.0, 1.0]).margin_flip_radius
    u_star = _u_star(a)
    assert abs(w.evaluate(flip)[0] - u_star) <= 1e-13 * u_star
    below = np.linspace(0.0, flip * (1.0 - 1e-8), 64)
    assert np.all(weak_stability_margin(w, below) > 0.0)
    assert weak_stability_margin(w, flip * (1.0 + 1e-8)) < 0.0
    theta = np.arcsin(np.sqrt((u_star - a) / _static_gap(a)))
    ref = _static_chart_radius(a, np.array([theta]))[0]
    assert abs(flip - ref) <= 1e-13 * ref


@settings(max_examples=20, deadline=None)
@given(a=st.floats(0.73, A_MAX))
@example(a=0.73)
@example(a=A_MAX)
def test_no_margin_flip_past_the_threshold(a):
    """For a above 0.72345 the margin stays positive over the period, and
    the scan reports no flip."""
    w = solve_warp_factor(a, 13.0)
    scan = foliation_scan(w, np.linspace(0.0, w.period, 64, endpoint=False))
    assert scan.margin_flip_radius is None
    assert np.all(scan.margins > 0.0)


@pytest.mark.parametrize("a", [0.2, 0.5, 0.7])
def test_margin_flip_does_not_depend_on_the_grid(a):
    """The flip has the same bits at 2, 3 and 64 slices and on a grid
    over [-13, 13]."""
    w = solve_warp_factor(a, 13.0)
    flips = {foliation_scan(w, grid).margin_flip_radius
             for grid in [np.linspace(0.0, w.period, n, endpoint=False)
                          for n in (2, 3, 64)] + [np.linspace(-13.0, 13.0, 97)]}
    assert len(flips) == 1 and None not in flips
