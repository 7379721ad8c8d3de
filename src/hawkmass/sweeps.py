"""Seeded perturbation sweeps and foliation scans.

The sweep demonstrates strict local maximality of the Hawking mass at the
slices: every small non-constant normal graph loses mass, at the rate
predicted by the second-variation forms.  The per-degree coefficients q_l
of one ``quadratic_form_report`` give both the coercivity constant C_est
and each sample's prediction, half of u^2 sum_l q_l E_l over its degree
energies, which is ``slice_second_variation``'s closed form.  Samples run
in blocks of ``_SWEEP_BLOCK``: each sample draws an unscaled field from
its own generator, then the block goes through one stacked jet of the
unscaled fields and one array pass of norms, graph geometry and deficits,
with the block on the leading axis.  Synthesis and the norms are linear or
positively homogeneous in the field, so each row scales the unscaled jet
and norms by its own factor.  Each row computes the bits of a sample run
on its own through the public calls.  Each thread keeps one
``sphere._Buffers`` of node arrays for all the blocks of all its sweeps
and resets it at the start of every block: the jet and the graph build
of every block, a partial last block too, take their arrays from it, and
a block's jet and graphs never leave ``_sample_block``.  Allocating those
arrays afresh in each block let the C heap trim and fault back about
1 MiB per block, and afresh in each sweep faulted them all back in every
time.
Records are fully deterministic functions of the config (per-sample
generators seeded by (master_seed, index)), so reruns on the same Python,
numpy and BLAS build and core cannot change a byte of the payload;
wall-clock metadata lives in a separate sidecar dict.  The seeds of all
the samples come from one pass over the array of indices,
``_sample_states``, whose row i is the state ``SeedSequence([master_seed,
i])`` gives: sample i draws from ``default_rng(SeedSequence([master_seed,
i]))`` bit for bit, without building that SeedSequence.
"""

from __future__ import annotations

import functools
import io
import json
import math
import platform
import sys
import threading
from dataclasses import asdict, dataclass

import numpy as np

from .errors import InvariantViolation
from .graph import GraphSurface, _graph_surface
from .sphere import (
    MAX_GRID_LMAX,
    HarmonicField,
    _Buffers,
    _geometry_lmax,
    _sobolev_norms,
    get_grid,
)
from .warp import (_MAX_RANGE, WarpFactor, _static_gap, _static_radius,
                   slice_geometry, slice_mass_derivative, solve_warp_factor)
from .variation import (
    QuadraticFormReport,
    jacobi_spectrum,
    quadratic_form_report,
    weak_stability_margin,
)

__all__ = [
    "SweepConfig",
    "SweepRecord",
    "SweepReport",
    "FoliationScan",
    "CriticalPointReport",
    "perturbation_sweep",
    "foliation_scan",
    "critical_point_classifier",
    "build_meta",
]

# the classifier's bound on residual, mean curvature and deviation
_CRITICAL_TOL = 1.0e-8
# the sweep verdict's tolerances: a graph passes when its coercivity ratio
# is at least 1 - _RATIO_SLACK; a draw whose C^2 norm is below _SLICE_NORM
# counts as a slice, which passes when its |deficit| is below
# _SLICE_DEFICIT.  Every payload's config records the first two
_RATIO_SLACK = 0.1
_SLICE_NORM = 1.0e-8
_SLICE_DEFICIT = 1.0e-12
_TOLERANCES = {"ratio_slack": _RATIO_SLACK, "slice_norm": _SLICE_NORM}

# samples per block, one stacked jet each: the kept buffers grow with it.
# With the buffers kept per thread, 16 ran the benchmark's sweeps 1.26x
# as fast as 8 for 1.2 MB (2.8%) more peak RSS.  20 ran faster still, but
# for 3.8% more peak RSS, and it divides the benchmark's n = 100 exactly,
# so the benchmark would never run a partial last block
_SWEEP_BLOCK = 16


class _Workspace(threading.local):
    """The node buffers a thread keeps for every block of its sweeps.

    ``_WORKSPACE`` is the one instance; each thread that reads it gets
    its own ``buffers``, made on its first sweep and kept for the next,
    so a warm sweep allocates and faults in no node memory.  Their slab
    grows to the largest block, at the largest band limit, that the
    thread has run, and no larger; ``sphere._GRID_CACHE`` keeps every
    grid in the same way.  Threads share nothing here, and one thread
    runs one sweep at a time.  ``_sample_block`` resets the buffers at
    the start of every block, and nothing else does.
    """

    def __init__(self):
        self.buffers = _Buffers()


_WORKSPACE = _Workspace()


@dataclass
class SweepConfig:
    """Replayable description of one perturbation sweep.

    ``epsilon`` is the C^2 radius of the sampled perturbations; every
    sample's C^2 estimate is a uniform draw in (0, epsilon].  Per-sample
    generators are seeded with (master_seed, index), which fixes the
    records independent of execution order.  The verdict's tolerances are
    the module's fixed ``_RATIO_SLACK`` and ``_SLICE_NORM``, not fields:
    ``to_dict`` writes them under ``"tolerances"`` and ``from_dict``
    refuses a stored value other than them.
    """

    a: float
    base_r: float
    epsilon: float
    n_samples: int
    master_seed: int
    lmax: int = 16

    def validate(self) -> None:
        for name in ("a", "base_r"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        for name in ("n_samples", "master_seed", "lmax"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(
                    value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not self.epsilon > 0.0:
            raise ValueError("epsilon must be > 0")
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if self.lmax < 2:
            raise ValueError("lmax must be >= 2")
        grid_lmax = _geometry_lmax(self.lmax // 2)
        if grid_lmax > MAX_GRID_LMAX:
            raise ValueError(
                f"lmax {self.lmax} needs a geometry grid of band limit "
                f"{grid_lmax}, above {MAX_GRID_LMAX}")
        if self.master_seed < 0:
            raise ValueError("master_seed must be >= 0")
        # every draw's C^2 norm is at most epsilon, so none would be a graph
        if not self.epsilon > _SLICE_NORM:
            raise ValueError(
                f"epsilon {self.epsilon:g} must exceed tolerances slice_norm "
                f"{_SLICE_NORM:g}, below which a draw counts as a slice")
        # a draw's max|phi| is at most its C^2 estimate on the same grid,
        # so at most epsilon: this keeps every graph in the solved range.
        # solve_for_config names a radius past _MAX_RADIUS itself
        r = abs(self.base_r)
        if r <= _MAX_RADIUS and r + self.epsilon > _MAX_RANGE:
            raise ValueError(
                f"epsilon {self.epsilon:g} takes the graphs past the solved "
                f"range: |base_r| + epsilon must be <= {_MAX_RANGE:g}")

    def to_dict(self) -> dict:
        return {**asdict(self), "tolerances": dict(_TOLERANCES)}

    @classmethod
    def from_dict(cls, d: dict) -> "SweepConfig":
        stored = d.get("tolerances", _TOLERANCES)
        for key in sorted(set(stored) | set(_TOLERANCES)):
            if stored.get(key) != _TOLERANCES.get(key):
                raise ValueError(
                    f"stored tolerances {key} {stored.get(key)!r} is not the "
                    f"fixed {_TOLERANCES.get(key)!r}")
        # payloads written before fd_step was dropped still carry the key
        return cls(
            a=float(d["a"]), base_r=float(d["base_r"]),
            epsilon=float(d["epsilon"]), n_samples=int(d["n_samples"]),
            master_seed=int(d["master_seed"]), lmax=int(d["lmax"]),
        )


@dataclass
class SweepRecord:
    """One sample: norms of the drawn perturbation, the measured mass
    deficit, the half-second-variation prediction, and the coercivity
    ratio deficit / (-(C_est/4) * w22_norm^2).

    ``seed`` is the sweep's master seed, the same in every record;
    sample ``index`` draws from ``SeedSequence([seed, index])``.
    """

    index: int
    seed: int
    c2_norm: float
    w22_norm: float
    deficit: float
    prediction: float
    ratio: float
    ok: bool
    kind: str       # "graph", or "slice": a C^2 norm below slice_norm

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["pass"] = doc.pop("ok")
        return doc


_CSV_COLUMNS = ["index", "seed", "c2_norm", "w22_norm", "deficit",
                "prediction", "ratio", "pass"]


@dataclass
class SweepReport:
    """Full sweep outcome: config, per-sample records in index order, and
    the aggregate verdict."""

    config: SweepConfig
    records: list
    c_est: float

    @property
    def all_negative(self) -> bool:
        return all(r.deficit < 0.0 for r in self.records if r.kind == "graph")

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.records)

    def aggregate(self) -> dict:
        ratios = [r.ratio for r in self.records if r.kind == "graph"]
        return {
            "n_samples": len(self.records),
            "n_graph": sum(1 for r in self.records if r.kind == "graph"),
            "all_negative": self.all_negative,
            "c_est": self.c_est,
            "min_ratio": min(ratios) if ratios else 0.0,
            "max_ratio": max(ratios) if ratios else 0.0,
            "pass": self.ok,
        }

    def _records_doc(self) -> dict:
        return {"config": self.config.to_dict(),
                "records": [r.to_dict() for r in self.records]}

    def records_payload(self) -> str:
        """Canonical JSON of config + records, the byte-identity surface."""
        return json.dumps(self._records_doc(), sort_keys=True)

    def to_json(self) -> str:
        doc = {**self._records_doc(), "aggregate": self.aggregate()}
        return json.dumps(doc, sort_keys=True)

    def to_csv(self) -> str:
        # imported here, as build_meta imports its modules: only the CLI
        # writes CSV, and every import of the package would pay for it
        import csv

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        writer.writerow(_CSV_COLUMNS)
        for r in self.records:
            d = r.to_dict()
            writer.writerow([repr(d[c]) if isinstance(d[c], float)
                             else ("true" if d[c] is True
                                   else "false" if d[c] is False else d[c])
                             for c in _CSV_COLUMNS])
        return buf.getvalue()


def build_meta() -> dict:
    """Environment sidecar: never part of the comparable payload."""
    import datetime
    import importlib.metadata

    meta = {
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
    }
    try:
        meta["scipy"] = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        pass
    return meta


# SeedSequence's hash constants (numpy/random/bit_generator.pyx, after
# M. E. O'Neill's seed_seq_fe): the entropy pool hash, the output hash and
# the pool mix
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF


def _sample_states(master_seed: int, n: int) -> np.ndarray:
    """The seed words of samples 0..n-1, shape (n, 4) uint64: row i is
    ``SeedSequence([master_seed, i]).generate_state(4, np.uint64)``.

    SeedSequence runs in uint32 arithmetic, and its hash constants step
    on every call whatever the data, so one pass over the array of
    indices hashes all the samples at once.  The entropy is the 32-bit
    words of ``master_seed``, least significant first (``[0]`` for 0),
    then the index's one word (n <= 2**32); past the pool of 4 (a seed
    of 2**96 or more) the extra words mix into every pool word."""
    if not 0 <= n <= 2 ** 32:
        raise ValueError(f"a sweep holds at most 2**32 samples, got {n}")
    seed_words = []
    while True:
        seed_words.append(master_seed & _MASK32)
        master_seed >>= 32
        if not master_seed:
            break
    entropy = [np.full(n, word, dtype=np.uint32) for word in seed_words]
    entropy.append(np.arange(n, dtype=np.uint32))
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value *= np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> np.uint32(16))

    zero = np.zeros(n, dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero)
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    # generate_state(4, uint64): 8 words cycled from the pool, paired
    # little-endian
    hash_const = _INIT_B
    words = np.empty((n, 8), dtype="<u4")
    for k in range(8):
        value = pool[k % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value *= np.uint32(hash_const)
        words[:, k] = value ^ (value >> np.uint32(16))
    return words.view("<u8").astype(np.uint64)


@functools.cache
def _row_seed_type() -> type:
    """The seed sequence that hands ``PCG64`` one precomputed row of
    words, made on first use so that importing the package does not
    import ``numpy.random``."""
    from numpy.random.bit_generator import ISeedSequence

    class _RowSeed(ISeedSequence):
        def __init__(self, row: np.ndarray):
            self.row = row

        def generate_state(self, n_words, dtype=np.uint32):
            return self.row

    return _RowSeed


def _generators(states: np.ndarray) -> list:
    """One generator per row of ``_sample_states``: the generator of row
    i is ``default_rng(SeedSequence([master_seed, i]))``, bit for bit."""
    from numpy.random import PCG64, Generator

    row_seed = _row_seed_type()
    return [Generator(PCG64(row_seed(row))) for row in states]


def draw_perturbation(rng: np.random.Generator, lmax: int, epsilon: float,
                      u_base: float) -> tuple:
    """Draw one random perturbation: the unscaled field, its C^2 target
    and its scale.

    Coefficients for degrees 1..lmax//2 are standard normal damped by
    l^{-2}.  The target is a uniform draw in (0, epsilon], and the scale is
    the target over the unscaled field's C^2 estimate on the slice of
    radius u_base, so the sample's graph is r = base_r + scale * raw.  The
    degree-0 coefficient is never drawn, so the field is mean-free.  The
    call order (normals for all coefficients, then one uniform) is part of
    the determinism contract.
    """
    raw, target, scale = _draw_block([rng], lmax, epsilon, u_base)[:3]
    return HarmonicField(raw.coeffs[0]), float(target[0]), float(scale[0])


def _draw_block(rngs: list, lmax: int, epsilon: float, u_base: float,
                buffers: _Buffers | None = None) -> tuple:
    """``draw_perturbation`` for a block: one row per generator, each
    drawn in the contract's order.  Returns the unscaled block field, the
    arrays of targets and scales, and the geometry grid with the block's
    jet and norms on it, all unscaled; the jet takes its arrays from
    ``buffers``, or by default from a new ``_Buffers``."""
    deg_max = max(1, lmax // 2)
    ll = np.arange(1, deg_max + 1)
    damping = np.repeat(ll * ll, 2 * ll + 1)
    coeffs = np.zeros((len(rngs), (deg_max + 1) ** 2))
    target = np.empty(len(rngs))
    for row, rng in enumerate(rngs):
        coeffs[row, 1:] = rng.standard_normal(damping.size) / damping
        target[row] = epsilon * (1.0 - rng.uniform())
    raw = HarmonicField(coeffs)
    # the geometry grid is also the grid sobolev_norms picks
    grid = get_grid(_geometry_lmax(deg_max))
    jet = grid.synthesize_jet(raw.coeffs, _buffers=buffers)
    norms = _sobolev_norms(raw, u_base, grid, jet)
    return raw, target, target / norms.c2_bound, grid, jet, norms


def _sample_block(cfg: SweepConfig, w: WarpFactor, form: QuadraticFormReport,
                  u_base: float, buffers: _Buffers, states: np.ndarray,
                  indices: range) -> list:
    """The records of samples ``indices``, run as one block, each drawn
    from the generator its row of ``states`` seeds.  Row i's
    norms are the unscaled norms times its scale, and its graph is the
    unscaled jet at its scale, as ``hawking_mass_deficit(w, base_r, raw_i,
    scale=s_i)`` builds it.  Its prediction is half of u^2 sum_l q_l E_l
    over its scaled field, with the q_l of ``form``, the report that also
    gives C_est, as ``slice_second_variation`` evaluates it.

    The block's jet and graphs take their arrays from ``buffers``, reset
    here first, and the next block's reset hands the same memory out
    again, so neither leaves this function: only floats do."""
    buffers.reset()
    raw, _, scale, grid, jet, norms = _draw_block(
        _generators(states), cfg.lmax, cfg.epsilon, u_base, buffers)
    deficits = _graph_surface(w, cfg.base_r, raw, scale[:, None, None], grid,
                              jet, buffers).mass_deficit()
    phi = HarmonicField(raw.coeffs * scale[:, None])
    q = form.q_by_degree[:phi.lmax + 1]
    predictions = 0.5 * u_base * u_base * np.sum(
        q * phi.degree_energies(), axis=-1)
    records = []
    for index, c2_norm, w22_norm, deficit, prediction in zip(
            indices, (norms.c2_bound * scale).tolist(),
            (norms.w22 * scale).tolist(), deficits.tolist(),
            predictions.tolist()):
        if c2_norm < _SLICE_NORM:
            records.append(SweepRecord(
                index=index, seed=cfg.master_seed, c2_norm=c2_norm,
                w22_norm=w22_norm, deficit=deficit, prediction=0.0,
                ratio=0.0, ok=abs(deficit) < _SLICE_DEFICIT, kind="slice"))
            continue
        bound = -(form.c_est / 4.0) * w22_norm ** 2
        ratio = deficit / bound
        ok = (deficit < 0.0) and (ratio >= 1.0 - _RATIO_SLACK)
        records.append(SweepRecord(
            index=index, seed=cfg.master_seed, c2_norm=c2_norm,
            w22_norm=w22_norm, deficit=deficit, prediction=prediction,
            ratio=ratio, ok=ok, kind="graph"))
    return records


def perturbation_sweep(cfg: SweepConfig, workers: int = 1) -> SweepReport:
    """Run the sweep in blocks of ``_SWEEP_BLOCK`` samples and return
    records in index order.

    Every block computes in the node buffers the calling thread keeps
    for its next sweep (``_Workspace``), reset once at its start.  The
    records are a pure function of cfg: a sample's record has the same
    bits in any block and in any buffers.  ``workers`` must be >= 1 and
    changes nothing.
    A graph past the base-slice patch reach has its deficit from the
    global profile, as ``hawking_mass_deficit`` gives it.
    """
    cfg.validate()
    if workers < 1:
        raise ValueError("workers must be >= 1")
    w = solve_for_config(cfg.a, cfg.base_r)
    form = quadratic_form_report(w, cfg.base_r, cfg.lmax)
    # the slice radius that scales the norms and the predictions
    u_base = float(w.taylor_patch(cfg.base_r).coeff_u[0])
    states = _sample_states(cfg.master_seed, cfg.n_samples)
    records = []
    for start in range(0, cfg.n_samples, _SWEEP_BLOCK):
        stop = min(start + _SWEEP_BLOCK, cfg.n_samples)
        records += _sample_block(cfg, w, form, u_base, _WORKSPACE.buffers,
                                 states[start:stop], range(start, stop))
    return SweepReport(config=cfg, records=records, c_est=form.c_est)


_WARP_CACHE: dict = {}
# the largest radius with a full period (T < 2 pi) of range on each side
_MAX_RADIUS = _MAX_RANGE - 12.0


def solve_for_config(a: float, r: float) -> WarpFactor:
    """The profile of neck radius a, solved once per a over the largest
    range, 1e3, and shared by every radius.  A non-finite r, or |r| past
    988, which leaves less than a period of range past it, raises
    ``ValueError`` naming the radius before any solve."""
    # written so that a nan radius fails it too
    if not abs(r) <= _MAX_RADIUS:
        raise ValueError(f"r must be finite and |r| <= {_MAX_RADIUS:g}, "
                         f"got {r:g}")
    if a not in _WARP_CACHE:
        _WARP_CACHE[a] = solve_warp_factor(a, _MAX_RANGE)
    return _WARP_CACHE[a]


@dataclass
class FoliationScan:
    """Identity checks across the slice foliation of one solved profile.

    ``margin_flip_radius`` is a property of the profile, independent of
    the grid: the smallest r > 0 where the weak-stability margin vanishes,
    or None where it never does."""

    a: float
    conserved_mass: float
    r_values: np.ndarray
    masses: np.ndarray
    mass_deviation_max: float
    mass_derivative_max: float
    mean_curvatures: np.ndarray
    h_sign_ok: bool
    dh_dr_at_zero: float
    first_eigenvalue_minimal: float
    margins: np.ndarray
    margin_flip_radius: float | None

    def to_json(self) -> str:
        doc = {k: v.tolist() if isinstance(v, np.ndarray) else v
               for k, v in asdict(self).items()}
        return json.dumps(doc, sort_keys=True)


def foliation_scan(w: WarpFactor, r_grid) -> FoliationScan:
    """Scan the slice foliation: mass constancy, mean-curvature sign
    structure over one period, the curvature slope at the minimal slice,
    and the weak-stability margin profile with its sign-flip radius.

    The margin flip radius is reported, not asserted.  The margin
    lambda_1(r) - lambda_0(0) = 6 m / u^3 - (1 / a^2 - 1) vanishes where u
    reaches u* = a ((3 - a^2) / (1 - a^2))^(1/3), which it does iff
    u* < b, for a below about 0.72345; the static chart gives that radius
    as r(theta*), sin^2(theta*) = (u* - a) / (b - a).
    """
    r = np.asarray(r_grid, dtype=float)
    if r.ndim != 1 or r.size < 2:
        raise ValueError("r_grid must be a 1-d grid with at least 2 points")
    geo = slice_geometry(w, r)
    hs = geo.mean_curvature
    margins = weak_stability_margin(w, r)
    # strict sign on the open half-periods, skipping the extremal slices
    edge = 1.0e-6
    s = r % w.period
    first = (edge < s) & (s < w.period / 2.0 - edge)
    second = (w.period / 2.0 + edge < s) & (s < w.period - edge)
    sign_ok = not (np.any(first & ~(hs < 0.0))
                   or np.any(second & ~(hs > 0.0)))
    # the profile varies on the length scale a near the neck, so the
    # stencil step follows a; H is O(r) there, so a small step amplifies
    # no roundoff: at 2e-4 a the slope is off by 1.5e-15 relative or less
    # for a <= 0.9
    h_step = 2.0e-4 * w.a
    h2, h1, hm1, hm2 = slice_geometry(
        w, h_step * np.array([2.0, 1.0, -1.0, -2.0])).mean_curvature
    dh = (-h2 + 8.0 * h1 - 8.0 * hm1 + hm2) / (12.0 * h_step)
    a, gap = w.a, _static_gap(w.a)
    u_rise = a * ((3.0 - a * a) / (1.0 - a * a)) ** (1.0 / 3.0) - a
    flip = None
    if u_rise < gap:
        flip = _static_radius(a, math.asin(math.sqrt(u_rise / gap)))
    return FoliationScan(
        a=w.a,
        conserved_mass=w.mass,
        r_values=r,
        masses=geo.hawking_mass,
        mass_deviation_max=float(np.max(np.abs(geo.hawking_mass - w.mass))),
        mass_derivative_max=float(np.max(np.abs(slice_mass_derivative(w, r)))),
        mean_curvatures=hs,
        h_sign_ok=sign_ok,
        dh_dr_at_zero=float(dh),
        first_eigenvalue_minimal=jacobi_spectrum(w, 0.0, 0).first_eigenvalue,
        margins=margins,
        margin_flip_radius=flip,
    )


@dataclass
class CriticalPointReport:
    """Classifier outcome for one built graph surface."""

    critical: bool
    kind: str               # "minimal", "slice", or "none"
    slice_like: bool
    residual_max: float
    mean_curvature_max: float
    deviation_norm: float


def critical_point_classifier(surface: GraphSurface) -> CriticalPointReport:
    """Classify a graph surface as a Hawking-mass critical point.

    Critical iff the Euler-Lagrange residual stays below 1e-8.  The label
    is "minimal" when the mean curvature vanishes, "slice" when the
    perturbation is constant (deviation below 1e-8 in length units), else
    "none".  Minimal slices get "minimal" plus the slice flag.
    """
    res_max = surface.el_residual_max()
    critical = bool(res_max < _CRITICAL_TOL)
    h_max = float(np.max(np.abs(surface.mean_curvature)))
    e = surface.phi.degree_energies()
    dev = abs(surface.scale) * float(np.sqrt(np.sum(e[1:])))
    slice_like = bool(dev < _CRITICAL_TOL)
    if slice_like and h_max < _CRITICAL_TOL:
        kind = "minimal"
    elif slice_like:
        kind = "slice"
    else:
        kind = "none"
    return CriticalPointReport(
        critical=critical, kind=kind, slice_like=slice_like,
        residual_max=float(res_max), mean_curvature_max=h_max,
        deviation_norm=float(dev),
    )


def assert_sweep_passes(report: SweepReport) -> None:
    """Raise InvariantViolation carrying the first offending record."""
    if report.ok:
        return
    bad = next(r for r in report.records if not r.ok)
    raise InvariantViolation(
        "sweep invariant failed: " + json.dumps(bad.to_dict(), sort_keys=True))
