"""Sweep orchestration: determinism, negativity, scans, classification."""

import csv
import io
import json
import os
import subprocess
import sys
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hawkmass import (
    FoliationScan,
    HarmonicField,
    InvariantViolation,
    RangeError,
    SphereGrid,
    SweepConfig,
    WarpFactor,
    build_graph,
    critical_point_classifier,
    draw_perturbation,
    fd_second_variation,
    foliation_scan,
    get_grid,
    hawking_mass_deficit,
    jacobi_spectrum,
    perturbation_sweep,
    slice_geometry,
    slice_mass_derivative,
    slice_second_variation,
    sobolev_norms,
    solve_warp_factor,
    weak_stability_margin,
)
from hawkmass import sweeps
from hawkmass.sweeps import assert_sweep_passes


def small_config(**overrides):
    base = dict(a=0.5, base_r=0.0, epsilon=1e-2, n_samples=12,
                master_seed=42)
    base.update(overrides)
    return SweepConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(epsilon=0.0).validate()
    with pytest.raises(ValueError):
        small_config(n_samples=0).validate()
    with pytest.raises(ValueError):
        small_config(lmax=1).validate()


@pytest.mark.parametrize("overrides, named", [
    ({"master_seed": -1}, "master_seed must be >= 0"),
    ({"tolerances": {"ratio_slack": 0.1}}, "tolerances must hold slice_norm"),
    ({"tolerances": {"slice_norm": 1e-8}}, "tolerances must hold ratio_slack"),
    ({"tolerances": {"ratio_slack": np.nan, "slice_norm": 1e-8}},
     "tolerances ratio_slack must be finite and >= 0"),
    ({"tolerances": {"ratio_slack": -0.1, "slice_norm": 1e-8}},
     "tolerances ratio_slack must be finite and >= 0"),
    ({"tolerances": {"ratio_slack": 0.1, "slice_norm": np.inf}},
     "tolerances slice_norm must be finite and >= 0"),
])
def test_config_rejects_bad_seed_or_tolerances(overrides, named, monkeypatch):
    """A negative seed, a missing tolerance or a non-finite or negative one
    is rejected by name, before any warp solve."""
    solves = []
    monkeypatch.setattr(sweeps, "solve_for_config", solves.append)
    with pytest.raises(ValueError, match=f"^{named}$"):
        perturbation_sweep(small_config(**overrides))
    assert solves == []


@pytest.mark.parametrize("epsilon", [1e-9, 1e-8])
def test_config_rejects_epsilon_within_slice_norm(epsilon, monkeypatch):
    """Every draw's C^2 norm is at most epsilon, so at or below slice_norm
    every sample would be a slice and the sweep would pass with no graph;
    such an epsilon is rejected by name, before any warp solve."""
    solves = []
    monkeypatch.setattr(sweeps, "solve_for_config", solves.append)
    with pytest.raises(ValueError, match=(
            f"^epsilon {epsilon:g} must exceed tolerances slice_norm 1e-08,")):
        perturbation_sweep(small_config(epsilon=epsilon))
    assert solves == []
    small_config(epsilon=2e-8).validate()


@pytest.mark.parametrize("name", ["a", "base_r"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_config_rejects_non_finite_field(name, value):
    """A non-finite neck radius or base radius is rejected by name, before
    any warp solve."""
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        perturbation_sweep(small_config(**{name: value}))


def test_config_round_trip():
    cfg = small_config()
    back = SweepConfig.from_dict(cfg.to_dict())
    assert back == cfg


def test_config_from_dict_accepts_legacy_fd_step():
    """Payloads written while the config still had fd_step load as-is."""
    cfg = small_config()
    legacy = dict(cfg.to_dict(), fd_step=1e-3)
    assert SweepConfig.from_dict(legacy) == cfg


def test_draw_is_deterministic():
    r1 = np.random.default_rng(np.random.SeedSequence([7, 3]))
    r2 = np.random.default_rng(np.random.SeedSequence([7, 3]))
    phi1, t1, s1 = draw_perturbation(r1, 16, 1e-2, 0.5)
    phi2, t2, s2 = draw_perturbation(r2, 16, 1e-2, 0.5)
    assert t1 == t2
    assert np.array_equal(phi1.coeffs, phi2.coeffs)
    r3 = np.random.default_rng(np.random.SeedSequence([7, 4]))
    phi3, _, _ = draw_perturbation(r3, 16, 1e-2, 0.5)
    assert not np.array_equal(phi1.coeffs, phi3.coeffs)


def test_draw_hits_c2_target():
    """The draw is unscaled; at its scale its C^2 estimate is the target."""
    rng = np.random.default_rng(np.random.SeedSequence([11, 0]))
    raw, target, scale = draw_perturbation(rng, 16, 1e-2, 0.5)
    assert 0.0 < target <= 1e-2
    assert scale == target / sobolev_norms(raw, 0.5).c2_bound
    norms = sobolev_norms(raw.scaled(scale), 0.5)
    assert norms.c2_bound == pytest.approx(target, rel=1e-12)
    assert raw.coeffs[0] == 0.0
    assert raw.lmax == 8


def _draw_loop_reference(rng, lmax):
    """Unscaled coefficients and the uniform of one draw, filled degree by
    degree."""
    deg_max = max(1, lmax // 2)
    n_modes = (deg_max + 1) ** 2
    coeffs = np.zeros(n_modes)
    raw = rng.standard_normal(n_modes - 1)
    pos = 1
    for l in range(1, deg_max + 1):
        width = 2 * l + 1
        coeffs[l * l: l * l + width] = raw[pos - 1: pos - 1 + width] / (l * l)
        pos += width
    return coeffs, rng.uniform()


@pytest.mark.parametrize("lmax", [2, 3, 8, 16, 33])
@pytest.mark.parametrize("seed", [0, 42, 1206])
def test_draw_matches_degree_loop_bitwise(lmax, seed):
    """Dividing by one per-coefficient l^2 vector draws the bits of the
    per-degree fill and leaves the generator in the same state."""
    ref_rng = np.random.default_rng(np.random.SeedSequence([seed, 5]))
    coeffs, uniform = _draw_loop_reference(ref_rng, lmax)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 5]))
    raw, target, scale = draw_perturbation(rng, lmax, 1e-2, 0.5)
    assert target == 1e-2 * (1.0 - uniform)
    assert np.array_equal(raw.coeffs, coeffs)
    assert scale == target / sobolev_norms(raw, 0.5).c2_bound
    assert rng.standard_normal() == ref_rng.standard_normal()


def test_sweep_block_synthesizes_one_jet(monkeypatch):
    """Per block of samples, one stacked jet of the unscaled draws, which
    serves their C^2 rescale, their norms and their deficits, each row at
    its own scale.  The sweep hands the jet its buffers by keyword."""
    grids = []
    jet = SphereGrid.synthesize_jet

    def counted(self, coeffs, **buffers):
        grids.append(self.lmax)
        return jet(self, coeffs, **buffers)

    monkeypatch.setattr(SphereGrid, "synthesize_jet", counted)
    block = sweeps._SWEEP_BLOCK
    for n in (1, 4, block, block + 3, 2 * block + 1):
        grids.clear()
        perturbation_sweep(small_config(base_r=0.4, n_samples=n))
        assert len(grids) == -(-n // block)
        assert set(grids) == {16}


@pytest.mark.parametrize("base_r", [0.0, 0.4])
def test_sample_norms_and_deficit_match_public_route(base_r):
    """A record's c2_norm, w22_norm, deficit and prediction are bitwise
    those of the public sobolev_norms, hawking_mass_deficit and
    slice_second_variation on its unscaled draw at its scale, in a full
    block and in a partial one."""
    cfg = small_config(base_r=base_r, n_samples=sweeps._SWEEP_BLOCK + 3)
    records = perturbation_sweep(cfg).records
    w = sweeps.solve_for_config(cfg.a, cfg.base_r)
    u_base = float(w.taylor_patch(base_r).coeff_u[0])
    for rec in records:
        rng = np.random.default_rng(
            np.random.SeedSequence([cfg.master_seed, rec.index]))
        raw, _, scale = draw_perturbation(rng, cfg.lmax, cfg.epsilon, u_base)
        norms = sobolev_norms(raw, u_base)
        assert rec.c2_norm == norms.c2_bound * scale
        assert rec.w22_norm == norms.w22 * scale
        assert rec.deficit == hawking_mass_deficit(w, base_r, raw, scale=scale)
        assert rec.prediction == 0.5 * slice_second_variation(
            w, base_r, raw.scaled(scale))


def test_sweep_negativity_and_ratio(w05):
    report = perturbation_sweep(small_config(n_samples=25))
    assert len(report.records) == 25
    assert report.all_negative
    assert report.ok
    agg = report.aggregate()
    assert agg["n_graph"] == 25
    assert agg["min_ratio"] >= 1.0
    for rec in report.records:
        assert rec.deficit < 0.0
        assert rec.deficit == pytest.approx(rec.prediction, rel=1e-4)


def test_sweep_worker_invariance():
    cfg = small_config(n_samples=16)
    payloads = {n: perturbation_sweep(cfg, workers=n).records_payload()
                for n in (1, 2, 8)}
    assert payloads[1] == payloads[2] == payloads[8]


def surface_bytes(surface):
    """The bytes of every node array a graph surface holds."""
    arrays = [surface.u, surface.uprime, surface.tilt, surface.area_element,
              surface.mean_curvature, surface._grad_sq, *surface._hinv,
              *surface._sff, *surface._delta[2:]]
    return [a.tobytes() for a in arrays]


def test_sweeps_and_surfaces_share_no_buffers():
    """The sweeps of one thread compute in the buffers it keeps, and
    each overwrites all that it reads: sweep A, then a sweep B with
    another n, base radius and seed, whose last block is partial, then A
    again give A's payload byte for byte.  A surface from build_graph
    holds none of those buffers: it keeps its node arrays bit for bit
    across a later sweep, and two surfaces share no memory.  Nor does
    the jet of a plain synthesize_jet call: two of them share no memory
    and keep their bytes across a sweep."""
    block = sweeps._SWEEP_BLOCK
    cfg_a = small_config(base_r=0.4, n_samples=2 * block)
    cfg_b = small_config(base_r=1.5, n_samples=block + 3, master_seed=9)
    w = sweeps.solve_for_config(0.5, 0.4)
    phi = HarmonicField(np.random.default_rng(3).standard_normal(25) / 40.0)
    surface = build_graph(w, 0.4, phi, scale=1e-2)
    other = build_graph(w, 0.4, phi, scale=2e-2)
    kept = surface_bytes(surface)
    grid = get_grid(16)
    jets = [grid.synthesize_jet(phi.scaled(s).padded(16)) for s in (1, 2)]
    kept_jets = [[f.tobytes() for f in jet.values()] for jet in jets]

    first = perturbation_sweep(cfg_a).records_payload()
    perturbation_sweep(cfg_b)
    assert perturbation_sweep(cfg_a).records_payload() == first
    assert surface_bytes(surface) == kept
    assert [[f.tobytes() for f in jet.values()] for jet in jets] == kept_jets
    assert not any(np.shares_memory(x, y)
                   for x in jets[0].values() for y in jets[1].values())
    for mine, theirs in zip(surface_bytes(surface), surface_bytes(other)):
        assert mine != theirs
    assert not any(np.shares_memory(x, y)
                   for x in (surface.u, surface.mean_curvature, *surface._hinv)
                   for y in (other.u, other.mean_curvature, *other._hinv))


def test_concurrent_sweeps_keep_their_payloads():
    """Each thread keeps its own workspace, so two sweeps run at once in
    two threads give the payloads they give one after the other in one
    thread."""
    from concurrent.futures import ThreadPoolExecutor

    configs = [small_config(base_r=0.4, n_samples=2 * sweeps._SWEEP_BLOCK),
               small_config(base_r=0.0, n_samples=sweeps._SWEEP_BLOCK + 5,
                            master_seed=11)]
    alone = [perturbation_sweep(cfg).records_payload() for cfg in configs]
    with ThreadPoolExecutor(max_workers=2) as pool:
        together = list(pool.map(
            lambda cfg: perturbation_sweep(cfg).records_payload(),
            configs * 2, timeout=120))
    assert together == alone * 2


def run_fresh(script: str, *args: str) -> str:
    """Standard output of ``script`` run in a fresh interpreter that
    imports this checkout's package."""
    src = os.path.dirname(os.path.dirname(sweeps.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True, timeout=300,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_kept_workspace_serves_any_band_limit():
    """One new thread runs sweeps at lmax 8, 32 and 8 again, so its
    workspace grows past the first sweep's takes and then serves the
    smaller ones from the larger slabs.  Each payload equals the one a
    fresh interpreter gives for that config alone."""
    from concurrent.futures import ThreadPoolExecutor

    configs = [small_config(lmax=8, n_samples=3),
               small_config(lmax=32, n_samples=40, master_seed=5),
               small_config(lmax=8, n_samples=3)]
    with ThreadPoolExecutor(max_workers=1) as pool:
        kept = pool.submit(lambda: [perturbation_sweep(cfg).records_payload()
                                    for cfg in configs]).result(timeout=300)
    script = (
        "import json, sys\n"
        "from hawkmass import SweepConfig, perturbation_sweep\n"
        "cfg = SweepConfig(**json.loads(sys.argv[1]))\n"
        "sys.stdout.write(perturbation_sweep(cfg).records_payload())\n")
    fresh = [run_fresh(script, json.dumps(asdict(cfg))) for cfg in configs[:2]]
    assert kept == [fresh[0], fresh[1], fresh[0]]


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts the minor page faults of a Linux process")
def test_warm_sweep_takes_few_page_faults():
    """A workspace kept per thread: a warm 100-sample sweep, run after
    one that built the thread's workspace, takes fewer than 100 minor
    page faults (0 or 1 when measured).  A workspace built afresh in
    each sweep took about 370, all of it faulted back in, and node arrays
    made afresh in each block took about 3600, as the heap's top was
    trimmed after every block and faulted back in by the next.  Counted
    in a fresh interpreter, so no other test's memory enters."""
    script = (
        "import resource\n"
        "from hawkmass import SweepConfig, perturbation_sweep\n"
        "cfg = SweepConfig(a=0.5, base_r=0.4, epsilon=1e-2, n_samples=100,\n"
        "                  master_seed=7)\n"
        "perturbation_sweep(cfg)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "perturbation_sweep(cfg)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")
    assert int(run_fresh(script)) < 100


def test_sweep_rejects_bad_worker_count():
    with pytest.raises(ValueError, match="workers"):
        perturbation_sweep(small_config(n_samples=1), workers=0)


def test_sweep_rejects_eps_beyond_range(monkeypatch):
    """An epsilon that could take a graph past the solved range, |base_r|
    + epsilon > 1e3, fails validation by name before the solve and before
    any sample runs; a draw's max|phi| is at most its C^2 estimate, which
    is at most epsilon, so any smaller epsilon keeps every graph in
    range.  A radius past 988 is named as the radius."""
    ran = []
    real = sweeps._sample_block

    def counting(*args):
        ran.extend(args[-1])
        return real(*args)

    monkeypatch.setattr(sweeps, "_sample_block", counting)
    for base_r, eps in ((0.0, 1e5), (-0.4, 999.7)):
        with pytest.raises(ValueError,
                           match=r"^epsilon .* takes the graphs past the "
                                 r"solved range: \|base_r\| \+ epsilon "
                                 r"must be <= 1000$"):
            perturbation_sweep(small_config(base_r=base_r, epsilon=eps,
                                            n_samples=3))
    with pytest.raises(ValueError, match=r"^r must be finite and \|r\| <= "
                                         r"988, got 995$"):
        perturbation_sweep(small_config(base_r=995.0, epsilon=10.0))
    assert ran == []
    assert len(perturbation_sweep(small_config(epsilon=0.5,
                                               n_samples=2)).records) == 2
    assert ran == [0, 1]


def test_sweep_rows_past_patch_reach_keep_their_own_deficits():
    """At epsilon 20 the blocks mix rows the base-slice patch covers with
    rows past its reach.  Every record's deficit is the bits of
    ``hawking_mass_deficit`` on its own draw, and a partial last block
    gives the rows a full block gives."""
    cfg = small_config(epsilon=20.0, n_samples=16, master_seed=7)
    report = perturbation_sweep(cfg)
    w = sweeps.solve_for_config(0.5, 0.0)
    patch = w.taylor_patch(0.0)
    covered = []
    for r in report.records:
        rng = np.random.default_rng(np.random.SeedSequence([7, r.index]))
        raw, _, scale = draw_perturbation(rng, cfg.lmax, cfg.epsilon, 0.5)
        covered.append(patch.covers(scale * sobolev_norms(raw, 0.5).c0))
        assert r.deficit == hawking_mass_deficit(w, 0.0, raw, scale)
    for block in (covered[:8], covered[8:]):
        assert any(block) and not all(block)
    head = perturbation_sweep(small_config(epsilon=20.0, n_samples=13,
                                           master_seed=7))
    assert head.records == report.records[:13]


def test_sweep_record_seed_is_master_seed():
    """Every record carries the master seed; sample i replays from
    SeedSequence([seed, i])."""
    cfg = small_config(n_samples=3)
    report = perturbation_sweep(cfg)
    for rec in report.records:
        assert rec.seed == cfg.master_seed
        rng = np.random.default_rng(
            np.random.SeedSequence([rec.seed, rec.index]))
        raw, _, scale = draw_perturbation(rng, cfg.lmax, cfg.epsilon, 0.5)
        assert sobolev_norms(raw, 0.5).c2_bound * scale == rec.c2_norm


def test_sweep_csv_shape():
    report = perturbation_sweep(small_config(n_samples=5))
    text = report.to_csv()
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["index", "seed", "c2_norm", "w22_norm", "deficit",
                       "prediction", "ratio", "pass"]
    assert len(rows) == 6
    assert rows[1][0] == "0"
    assert rows[1][7] == "true"
    # numeric fields parse back to the record values exactly
    assert float(rows[1][4]) == report.records[0].deficit


def test_sweep_json_payload_replayable():
    report = perturbation_sweep(small_config(n_samples=4))
    doc = json.loads(report.to_json())
    cfg = SweepConfig.from_dict(doc["config"])
    replay = perturbation_sweep(cfg)
    assert replay.records_payload() == report.records_payload()


def test_assert_sweep_passes_carries_record():
    report = perturbation_sweep(small_config(n_samples=3))
    report.records[1].ok = False
    with pytest.raises(InvariantViolation) as exc:
        assert_sweep_passes(report)
    assert '"index": 1' in str(exc.value)


def test_classifier_on_slices(w05):
    s = build_graph(w05, 0.7, HarmonicField.zeros(2))
    rep = critical_point_classifier(s)
    assert rep.critical
    assert rep.kind == "slice"
    assert rep.slice_like


def test_classifier_on_minimal_slice(w05):
    s = build_graph(w05, 0.0, HarmonicField.zeros(2))
    rep = critical_point_classifier(s)
    assert rep.critical
    assert rep.kind == "minimal"
    assert rep.slice_like


def test_classifier_on_generic_graph(w05):
    s = build_graph(w05, 0.3, HarmonicField.single(2, 0, 1.0), scale=0.05)
    rep = critical_point_classifier(s)
    assert not rep.critical
    assert rep.kind == "none"
    assert rep.deviation_norm > 1e-7   # well above the slice threshold


def test_classifier_soundness_on_random_graphs(w05):
    rng = np.random.default_rng(77)
    for _ in range(5):
        c = np.zeros(16)
        c[1:] = rng.standard_normal(15) * 0.02
        s = build_graph(w05, 0.5, HarmonicField(c))
        rep = critical_point_classifier(s)
        assert not rep.critical
        assert rep.kind == "none"


def test_foliation_scan_identities(w05):
    grid = np.linspace(0.0, w05.period, 64, endpoint=False)
    scan = foliation_scan(w05, grid)
    assert scan.mass_deviation_max < 1e-8
    assert scan.mass_derivative_max < 1e-8
    assert scan.h_sign_ok
    assert scan.dh_dr_at_zero == pytest.approx(
        -scan.first_eigenvalue_minimal, abs=1e-6)
    assert scan.margins[0] == pytest.approx(8.0, rel=1e-12)
    assert scan.margin_flip_radius is not None
    assert 0.0 < scan.margin_flip_radius < w05.period / 2.0


@pytest.mark.parametrize("a", [0.2, 0.3, 0.5, 0.9])
def test_foliation_slope_matches_first_eigenvalue(a):
    """dH/dr at the minimal slice equals -lambda_0 to 1e-13 relative
    across the neck radii, narrow necks included."""
    w = solve_warp_factor(a, 13.0)
    scan = foliation_scan(w, np.linspace(0.0, w.period, 8, endpoint=False))
    lam0 = scan.first_eigenvalue_minimal
    assert abs(scan.dh_dr_at_zero + lam0) <= 1e-13 * lam0


def test_foliation_scan_mean_curvature_odd(w05):
    """evaluate flips only the sign of u' at -r, so H(-r) = -H(r) exactly."""
    for r in (0.4, 1.1, 2.6):
        h_p, h_m = slice_geometry(w05, np.array([r, -r])).mean_curvature
        assert h_p * h_m < 0.0
        assert h_m == -h_p


def _reference_foliation_scan(w, r_grid):
    """The scan as a loop of scalar calls per slice, kept as the
    reference the array scan must reproduce byte for byte, but for the
    margin flip radius: here scipy's brentq on the margin's first sign
    change at r >= 0 on the grid, None where the grid shows none."""
    from scipy.optimize import brentq

    r = np.asarray(r_grid, dtype=float)
    period = w.period
    masses = np.empty(r.size)
    hs = np.empty(r.size)
    margins = np.empty(r.size)
    dmass = np.empty(r.size)
    for i, ri in enumerate(r):
        geo = slice_geometry(w, float(ri))
        masses[i] = geo.hawking_mass
        hs[i] = geo.mean_curvature
        margins[i] = weak_stability_margin(w, float(ri))
        dmass[i] = abs(slice_mass_derivative(w, float(ri)))
    edge = 1.0e-6
    sign_ok = True
    for ri, hi in zip(r, hs):
        s = float(ri) % period
        if edge < s < period / 2.0 - edge and not hi < 0.0:
            sign_ok = False
        if period / 2.0 + edge < s < period - edge and not hi > 0.0:
            sign_ok = False
    h_step = 2.0e-4 * w.a
    h2, h1, hm1, hm2 = (slice_geometry(w, k * h_step).mean_curvature
                        for k in (2, 1, -1, -2))
    dh = (-h2 + 8.0 * h1 - 8.0 * hm1 + hm2) / (12.0 * h_step)
    lam0 = float(jacobi_spectrum(w, 0.0, 0).lambda_by_degree[0])
    flip = None
    for i in range(r.size - 1):
        if r[i] >= 0.0 and margins[i] > 0.0 >= margins[i + 1]:
            flip = brentq(lambda x: weak_stability_margin(w, x),
                          r[i], r[i + 1], xtol=1.0e-12)
            break
    return FoliationScan(
        a=w.a, conserved_mass=w.mass, r_values=r, masses=masses,
        mass_deviation_max=float(np.max(np.abs(masses - w.mass))),
        mass_derivative_max=float(np.max(dmass)),
        mean_curvatures=hs, h_sign_ok=bool(sign_ok),
        dh_dr_at_zero=float(dh), first_eigenvalue_minimal=lam0,
        margins=margins, margin_flip_radius=flip,
    )


@pytest.mark.parametrize("a", np.linspace(0.2, 0.9, 8))
def test_foliation_scan_matches_scalar_reference(a):
    w = solve_warp_factor(a, 13.0)
    for grid in (np.linspace(0.0, w.period, 64, endpoint=False),
                 np.linspace(-w.r_max, w.r_max, 97)):
        got = json.loads(foliation_scan(w, grid).to_json())
        ref = json.loads(_reference_foliation_scan(w, grid).to_json())
        flip, ref_flip = (d.pop("margin_flip_radius") for d in (got, ref))
        assert json.dumps(got) == json.dumps(ref)
        assert (flip is None) == (ref_flip is None)
        if flip is not None:
            assert abs(flip - ref_flip) <= 1e-12 * ref_flip


_WARPS = {}


def _warp(a):
    if a not in _WARPS:
        _WARPS[a] = solve_warp_factor(a, 13.0)
    return _WARPS[a]


@settings(max_examples=40, deadline=None)
@given(a=st.sampled_from([0.2, 0.5, 0.9]),
       fractions=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=12))
def test_slice_routes_on_arrays_match_scalars(a, fractions):
    """slice_geometry, slice_mass_derivative and weak_stability_margin on
    an array of radii equal their scalar calls bitwise; a scalar radius
    gives Python floats."""
    w = _warp(a)
    r = w.r_max * np.array(fractions)
    geo = slice_geometry(w, r)
    dmass = slice_mass_derivative(w, r)
    margins = weak_stability_margin(w, r)
    for i, ri in enumerate(r.tolist()):
        one = slice_geometry(w, ri)
        for name, value in one.__dict__.items():
            assert type(value) is float
            assert value == getattr(geo, name)[i]
        d, m = slice_mass_derivative(w, ri), weak_stability_margin(w, ri)
        assert type(d) is float and type(m) is float
        assert d == dmass[i] and m == margins[i]


def test_foliation_scan_evaluate_calls_do_not_grow_with_slices(w05,
                                                               monkeypatch):
    """The scan evaluates its grid in a few array calls, and the margin
    flip, which comes from the static chart, evaluates none."""
    calls = []
    evaluate = WarpFactor.evaluate

    def counted(self, r):
        calls.append(np.size(r))
        return evaluate(self, r)

    monkeypatch.setattr(WarpFactor, "evaluate", counted)
    for n in (16, 64, 256):
        calls.clear()
        foliation_scan(w05, np.linspace(0.0, w05.period, n, endpoint=False))
        assert len(calls) <= 6
        assert n in calls


def test_foliation_scan_rejects_nan_radius(w05):
    with pytest.raises(RangeError):
        foliation_scan(w05, [0.0, 0.5, np.nan])


def test_foliation_scan_margin_positive_before_flip(w05):
    grid = np.linspace(0.0, w05.period, 64, endpoint=False)
    scan = foliation_scan(w05, grid)
    flip = scan.margin_flip_radius
    inside = scan.r_values[(scan.r_values < flip)]
    assert inside.size > 5
    assert np.all(scan.margins[: inside.size] > 0.0)


def test_foliation_scan_json(w05):
    grid = np.linspace(0.0, w05.period, 8, endpoint=False)
    doc = json.loads(foliation_scan(w05, grid).to_json())
    assert doc["a"] == 0.5
    assert len(doc["masses"]) == 8
    assert doc["h_sign_ok"] is True


def test_foliation_scan_grid_guard(w05):
    with pytest.raises(ValueError):
        foliation_scan(w05, [0.0])


def _sweep_draw_at(w, base_r):
    """The first sample a seed-42 sweep at base_r draws, at its scale."""
    rng = np.random.default_rng(np.random.SeedSequence([42, 0]))
    u, _ = w.evaluate(base_r)
    raw, _, scale = draw_perturbation(rng, 16, 1e-2, u)
    return raw.scaled(scale)


def test_fd_oracle_second_order(w05):
    """The fd oracle's error against the closed form falls as step^2 on a
    unit-slice-norm field, so truncation dominates roundoff at every
    step."""
    phi = _sweep_draw_at(w05, 0.3)
    u, _ = w05.evaluate(0.3)
    phi_unit = phi.scaled(1.0 / (u * np.sqrt(np.sum(phi.degree_energies()))))
    spectral = slice_second_variation(w05, 0.3, phi_unit)
    steps = np.array([1e-2, 1e-3, 1e-4])
    errors = np.array([
        abs(fd_second_variation(w05, 0.3, phi_unit, step=h).value - spectral)
        for h in steps])
    assert errors[0] > errors[1] > errors[2]
    slope = np.polyfit(np.log(steps), np.log(errors), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.2)


def test_graph_mass_saturates_in_grid_band_limit(w05):
    """A band-limited graph's Hawking mass is the same on every geometry
    grid past the aliasing floor."""
    phi = _sweep_draw_at(w05, 0.3)
    masses = [build_graph(w05, 0.3, phi, grid_lmax=lm).hawking_mass()
              for lm in (16, 32, 64)]
    assert max(masses) - min(masses) < 1e-9


@pytest.mark.parametrize("r, got", [
    (np.nan, "nan"), (np.inf, "inf"), (-np.inf, "-inf"), (988.5, "988.5"),
    (-995.0, "-995"),
])
def test_solve_range_rejects_a_radius_by_name(r, got, monkeypatch):
    """The one solve-range function names a radius it cannot serve before
    it solves anything."""
    solves = []
    monkeypatch.setattr(sweeps, "solve_warp_factor",
                        lambda *args: solves.append(args))
    with pytest.raises(ValueError) as exc:
        sweeps.solve_for_config(0.5, r)
    assert str(exc.value) == f"r must be finite and |r| <= 988, got {got}"
    assert solves == []


@pytest.mark.parametrize("r", [0.0, -3.0, 988.0])
def test_solve_range_holds_a_period_around_the_radius(r):
    """The range is the largest, 1e3, which holds a full period on each
    side of every radius the check lets through, and a second call for
    the same a and r reuses the profile."""
    w = sweeps.solve_for_config(0.5, r)
    assert w.r_max == 1.0e3
    assert abs(r) + w.period < w.r_max
    w.evaluate(np.array([r - w.period, r + w.period]))
    assert sweeps.solve_for_config(0.5, r) is w


def test_one_profile_per_neck_radius(monkeypatch):
    """The profile depends on a alone, so every radius shares one solve
    over the largest range and the cache holds one entry per a."""
    monkeypatch.setattr(sweeps, "_WARP_CACHE", {})
    profiles = [sweeps.solve_for_config(0.5, r)
                for r in (0.0, 0.4, -3.0, 988.0)]
    assert all(w is profiles[0] for w in profiles)
    assert profiles[0].r_max == 1.0e3
    assert len(sweeps._WARP_CACHE) == 1
