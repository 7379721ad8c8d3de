"""The three benchmark workloads: input generation, warm-up, one timed
operation, and the output check for each.

Every workload runs as a single client in a closed loop: the next
operation starts only after the previous one returned.  Inputs for
operation ``i`` come from ``SeedSequence([seed, i])``, so a run's inputs
depend only on the workload seed and never on timing, on tracing or on
how the loop is split into rounds.

Run as a script (``python3 perfbench/workloads.py <workload>``) it imports
hawkmass, warms the named workload up and exits; ``run.py`` times that
fresh interpreter to get ``setup_s``.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_hawkmass():
    """Import hawkmass from this checkout's ``src`` and nowhere else."""
    init = SRC / "hawkmass" / "__init__.py"
    if not init.is_file():
        raise FileNotFoundError(f"no hawkmass sources at {init}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import hawkmass

    if Path(hawkmass.__file__).resolve() != init.resolve():
        raise ImportError(f"hawkmass imported from {hawkmass.__file__}, not {init}")
    return hawkmass


hm = import_hawkmass()
import numpy as np  # noqa: E402  (after the checkout's src is on sys.path)

R_MAX = 13.0    # tabulated range of every solved profile: two periods


def op_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, index]))


class Workload:
    """One workload.  A round is the smallest batch of operations whose
    mix of input shapes is the same in every round; the harness always
    runs whole rounds."""

    name = ""
    ops_per_round = 1
    # True when the operation time follows the speed of small interpreted
    # operations; see ``Loop`` in run.py for what the harness does with it
    interpreter_bound = False

    def __init__(self, seed: int):
        self.seed = int(seed)

    def warm_up(self) -> None:
        """Fill the caches a user of this workload pays for once."""

    def make_input(self, index: int):
        """Inputs of operation ``index``; built outside the timed region."""
        raise NotImplementedError

    def run(self, x):
        """The timed operation; returns its output."""
        raise NotImplementedError

    def items(self, x) -> int:
        """Number of items operation ``x`` completes."""
        raise NotImplementedError

    def check(self, x, out) -> str | None:
        """None when the output is correct, else what is wrong."""
        raise NotImplementedError

    def notes(self) -> dict:
        """Values the checks saw that a reader should see too."""
        return {}


# -- sweep -----------------------------------------------------------------

SWEEP_N = 100
SWEEP_BASE_R = (0.0, 0.4)
# criterion 10 inside the bench: one fixed config whose payload digest must
# not depend on repeats, worker count or tracing
DIGEST_CONFIG = dict(a=0.5, base_r=0.0, epsilon=1.0e-2, n_samples=40,
                     master_seed=7, lmax=16)


def sweep_config(base_r: float, n: int, master_seed: int):
    return hm.SweepConfig(a=0.5, base_r=base_r, epsilon=1.0e-2, n_samples=n,
                          master_seed=master_seed, lmax=16)


def payload_digest(workers: int) -> str:
    report = hm.perturbation_sweep(hm.SweepConfig(**DIGEST_CONFIG),
                                   workers=workers)
    return hashlib.sha256(report.records_payload().encode()).hexdigest()


class Sweep(Workload):
    """``perturbation_sweep`` of 100 samples per call at workers=1, with
    base_r alternating over {0.0, 0.4}; one item is one sample."""

    name = "sweep"
    ops_per_round = len(SWEEP_BASE_R)
    interpreter_bound = True

    def warm_up(self):
        for base_r in SWEEP_BASE_R:
            hm.perturbation_sweep(sweep_config(base_r, 1, 0))

    def make_input(self, index):
        master = int(np.random.SeedSequence([self.seed, index]).generate_state(1)[0])
        return sweep_config(SWEEP_BASE_R[index % len(SWEEP_BASE_R)], SWEEP_N, master)

    def run(self, cfg):
        return hm.perturbation_sweep(cfg, workers=1)

    def items(self, cfg):
        return cfg.n_samples

    def check(self, cfg, report):
        if len(report.records) != cfg.n_samples:
            return f"{len(report.records)} records for {cfg.n_samples} samples"
        if not report.ok:
            return "sweep report not ok"
        if not report.all_negative:
            return "a graph sample gained mass"
        return None


# -- surface ---------------------------------------------------------------

SURFACE_LMAX = (4, 8, 12, 16, 20)
SURFACE_AMPLITUDE = 1.0e-2
SURFACE_A = 0.5
# the deficit is formed without cancellation; the naive difference of two
# masses of size ~0.2 loses about 1e-16 absolute, which is below 1e-12 of
# the smallest deficit this amplitude gives
SURFACE_DEFICIT_RTOL = 1.0e-9


def draw_field(rng: np.random.Generator, lmax: int, amplitude: float):
    """Mean-free field with degree-l coefficients N(0, 1) / l^2, scaled so
    its maximum modulus on the geometry grid is ``amplitude``."""
    coeffs = np.zeros((lmax + 1) ** 2)
    for l in range(1, lmax + 1):
        coeffs[l * l:(l + 1) ** 2] = rng.standard_normal(2 * l + 1) / (l * l)
    phi = hm.HarmonicField(coeffs)
    grid = hm.get_grid(max(2 * lmax, 16))
    peak = float(np.max(np.abs(grid.synthesize(phi.padded(grid.lmax)))))
    return phi.scaled(amplitude / peak)


class Surface(Workload):
    """One normal graph per operation: build it, then its Euler-Lagrange
    residual, its Q integral and its Hawking mass deficit.  Band limits
    cycle over 4..20 (geometry grids 16..40); every operation draws a
    fresh base radius in [0, 1]; one item is one surface."""

    name = "surface"
    ops_per_round = len(SURFACE_LMAX)
    # dense BLAS dominates: its speed does not follow the interpreter
    # swings, and scaling by the reference kernel would add noise

    def __init__(self, seed):
        super().__init__(seed)
        self.w = None

    def warm_up(self):
        self.w = hm.solve_warp_factor(SURFACE_A, R_MAX)
        warm = np.random.default_rng(0)
        for lmax in SURFACE_LMAX:
            self.run((0.5, draw_field(warm, lmax, SURFACE_AMPLITUDE)))

    def make_input(self, index):
        rng = op_rng(self.seed, index)
        lmax = SURFACE_LMAX[index % len(SURFACE_LMAX)]
        phi = draw_field(rng, lmax, SURFACE_AMPLITUDE)
        return float(rng.uniform(0.0, 1.0)), phi

    def run(self, x):
        base_r, phi = x
        surface = hm.build_graph(self.w, base_r, phi)
        return (surface, surface.el_residual_max(), surface.q_integral(),
                hm.hawking_mass_deficit(self.w, base_r, phi))

    def items(self, x):
        return 1

    def check(self, x, out):
        base_r, _ = x
        surface, residual, q, deficit = out
        if not deficit < 0.0:
            return f"deficit {deficit!r} is not negative"
        naive = surface.hawking_mass() - hm.slice_geometry(self.w, base_r).hawking_mass
        if abs(deficit - naive) > SURFACE_DEFICIT_RTOL * abs(deficit):
            return f"deficit {deficit!r} disagrees with mass difference {naive!r}"
        if not (np.isfinite(residual) and q >= 0.0):
            return f"residual {residual!r} or Q integral {q!r} out of range"
        return None


# -- foliation -------------------------------------------------------------

FOLIATION_A = (0.2, 0.9)
FOLIATION_SLICES = 256
FOLIATION_ROUND = 8
FOLIATION_MASS_TOL = 1.0e-8
# dh_dr_at_zero is a five-point difference with a fixed step of 1e-2, so its
# error grows as the neck narrows: relative to lambda_0 it is 4e-6 at
# a = 0.2 and 7e-8 at a = 0.5 (absolute 1e-4 and 2e-7)
FOLIATION_SLOPE_RTOL = 1.0e-5


class Foliation(Workload):
    """Per operation a fresh neck radius in [0.2, 0.9], a warp solve over
    two periods and a foliation scan of 256 slices over one period; one
    item is one scanned slice."""

    name = "foliation"
    ops_per_round = FOLIATION_ROUND
    interpreter_bound = True

    def __init__(self, seed):
        super().__init__(seed)
        self.slope_errors = []

    def warm_up(self):
        w = hm.solve_warp_factor(0.5, R_MAX)
        hm.foliation_scan(w, np.linspace(0.0, w.period, FOLIATION_SLICES,
                                         endpoint=False))

    def make_input(self, index):
        # stratified: each round draws one radius from each eighth of the
        # range, so every round has the same cost mix
        lo, hi = FOLIATION_A
        width = (hi - lo) / FOLIATION_ROUND
        return lo + width * (index % FOLIATION_ROUND
                             + float(op_rng(self.seed, index).uniform()))

    def run(self, a):
        w = hm.solve_warp_factor(a, R_MAX)
        if w.period is None:
            raise hm.SolveError(f"no period inside r_max={R_MAX} at a={a}")
        return hm.foliation_scan(w, np.linspace(0.0, w.period, FOLIATION_SLICES,
                                                endpoint=False))

    def items(self, a):
        return FOLIATION_SLICES

    def check(self, a, scan):
        if not scan.mass_deviation_max < FOLIATION_MASS_TOL:
            return f"mass deviation {scan.mass_deviation_max!r}"
        if not scan.h_sign_ok:
            return "mean curvature sign structure broken"
        lam0 = scan.first_eigenvalue_minimal
        self.slope_errors.append(abs(scan.dh_dr_at_zero + lam0))
        if not self.slope_errors[-1] < FOLIATION_SLOPE_RTOL * abs(lam0):
            return f"dH/dr(0) = {scan.dh_dr_at_zero!r} but -lambda_0 = {-lam0!r}"
        return None

    def notes(self):
        # the absolute 1e-6 that criterion 9 pins at a = 0.5 fails for
        # a below about 0.42; keep that visible in every result
        errs = self.slope_errors
        return {"slope_abs_err_max": max(errs, default=0.0),
                "slope_abs_err_over_1e-6": sum(e >= 1.0e-6 for e in errs)}


WORKLOADS = {cls.name: cls for cls in (Sweep, Surface, Foliation)}


if __name__ == "__main__":
    WORKLOADS[sys.argv[1]](0).warm_up()
