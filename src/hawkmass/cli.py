"""Command-line driver exposing every computation as a subcommand.

Layout: ``hawkmass <group> <op> [flags]`` with groups metric, slice,
mass, spectrum, variation, sweep, scan.  Artifacts are written
atomically (temp file then rename); wall-clock and environment metadata
go to a ``<out>.meta.json`` sidecar so the primary artifact is a pure
function of the command line.  An ``--out`` that cannot be written exits
2 naming the path, and leaves no temp file behind.

The profile depends on --a alone: each command takes the one solve per
--a over the range 1e3, from ``sweeps.solve_for_config``; none takes --rmax.

Exit codes: 0 success, 1 computational failure or exhausted memory,
2 usage error, 3 invariant violation (offending record on stderr).  Each
size flag (--grid-lmax, --slices, spectrum --lmax, sweep --n, the geometry
grid a sweep's --lmax or a field's lmax implies) is bounded and checked by
name before anything is allocated.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from .errors import InvariantViolation, SolveError
from .graph import build_graph, surface_report
from .sphere import MAX_GRID_LMAX, HarmonicField
from .sweeps import (
    SweepConfig,
    assert_sweep_passes,
    build_meta,
    critical_point_classifier,
    foliation_scan,
    perturbation_sweep,
    solve_for_config,
)
from .variation import (
    fd_second_variation,
    jacobi_spectrum,
    second_variation_minimal,
    slice_second_variation,
)
from .warp import A_MAX, A_MIN, WarpFactor, slice_geometry

_DEF_FD_STEP = 1.0e-3
# the most slices a scan, degrees a spectrum and samples a sweep take: a
# scan holds about 800 bytes per slice with its JSON, 80 MB here
_MAX_POINTS = 100_000


def _write_artifact(path: str, text: str) -> None:
    """Write the artifact and its ``.meta.json`` sidecar, each atomically
    (temp file then rename); a path that cannot be written raises
    ``ValueError`` naming it, and leaves no temp file."""
    meta = json.dumps(build_meta(), sort_keys=True)
    for target, body in ((path, text), (path + ".meta.json", meta)):
        tmp = f"{target}.tmp-{os.getpid()}"
        try:
            with open(tmp, "w", encoding="utf-8", newline="") as fh:
                fh.write(body)
            os.replace(tmp, target)
        except OSError as exc:
            with contextlib.suppress(OSError):
                os.remove(tmp)
            raise ValueError(
                f"cannot write {target}: {exc.strerror or exc}") from None


def _emit(args, artifact: str, summary: dict) -> None:
    """Write artifact + sidecar when --out is given, else print it;
    always end with nothing but machine-parseable stdout."""
    if args.out:
        _write_artifact(args.out, artifact)
        print(json.dumps(summary, sort_keys=True))
    else:
        print(artifact)


def _check_size(flag: str, value: int, lo: int, hi: int) -> None:
    """Reject a size flag outside [lo, hi] by name, before anything is
    allocated."""
    if value < lo:
        raise ValueError(f"{flag} must be >= {lo}, got {value}")
    if value > hi:
        raise ValueError(f"{flag} must be <= {hi}, got {value}")


def _solve(args) -> WarpFactor:
    return solve_for_config(args.a, getattr(args, "r", 0.0))


def _load_phi(path: str) -> HarmonicField:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read perturbation file {path}: {exc}") from exc
    try:
        return HarmonicField.from_json(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"perturbation file {path} is not JSON: {exc}") from exc


def _cmd_metric_solve(args) -> int:
    w = _solve(args)
    summary = {
        "a": w.a,
        "mass": w.mass,
        "r_max": w.r_max,
        "period": w.period,
        "n_nodes": int(w.nodes.shape[0]),
    }
    if args.out:
        _write_artifact(args.out, w.to_json())
    print(json.dumps(summary, sort_keys=True))
    return 0


def _cmd_slice_info(args) -> int:
    w = _solve(args)
    geo = slice_geometry(w, args.r)
    doc = {**asdict(geo), "a": w.a, "conserved_mass": w.mass}
    _emit(args, json.dumps(doc, sort_keys=True), doc)
    return 0


def _cmd_mass_graph(args) -> int:
    if args.grid_lmax is not None:
        _check_size("--grid-lmax", args.grid_lmax, 1, MAX_GRID_LMAX)
    phi = _load_phi(args.phi)
    w = _solve(args)
    surface = build_graph(w, args.r, phi, scale=args.scale,
                          grid_lmax=args.grid_lmax)
    report = surface_report(surface)
    report["deficit"] = surface.mass_deficit()
    cls = critical_point_classifier(surface)
    report["critical"] = cls.critical
    report["kind"] = cls.kind
    doc = json.dumps(report, sort_keys=True)
    _emit(args, doc, {"hawking_mass": report["hawking_mass"],
                      "deficit": report["deficit"], "kind": cls.kind})
    return 0


def _cmd_spectrum_jacobi(args) -> int:
    _check_size("--lmax", args.lmax, 0, _MAX_POINTS)
    w = _solve(args)
    spec = jacobi_spectrum(w, args.r, args.lmax)
    doc = {**asdict(spec), "first_eigenvalue": spec.first_eigenvalue,
           "lambda_by_degree": spec.lambda_by_degree.tolist()}
    _emit(args, json.dumps(doc, sort_keys=True), doc)
    return 0


def _cmd_variation_second(args) -> int:
    phi = _load_phi(args.phi)
    w = _solve(args)
    doc: dict = {"a": w.a, "r": args.r, "mode": args.mode}
    if args.mode in ("spectral", "both"):
        doc["spectral"] = slice_second_variation(w, args.r, phi)
        if args.r == 0.0:
            doc["minimal_form"] = second_variation_minimal(w, phi)
    if args.mode in ("fd", "both"):
        fd = fd_second_variation(w, args.r, phi, step=args.fd_step)
        doc["fd"] = fd.value
        doc["fd_step"] = fd.step
        doc["fd_error_estimate"] = fd.error_estimate
    if args.mode == "both":
        doc["difference"] = doc["fd"] - doc["spectral"]
    _emit(args, json.dumps(doc, sort_keys=True), doc)
    return 0


def _cmd_sweep_perturb(args) -> int:
    _check_size("--n", args.n, 1, _MAX_POINTS)
    cfg = SweepConfig(a=args.a, base_r=args.r, epsilon=args.eps,
                      n_samples=args.n, master_seed=args.seed,
                      lmax=args.lmax)
    report = perturbation_sweep(cfg)
    artifact = report.to_csv() if args.format == "csv" else report.to_json()
    _emit(args, artifact, report.aggregate())
    assert_sweep_passes(report)
    return 0


def _cmd_scan_foliation(args) -> int:
    _check_size("--slices", args.slices, 2, _MAX_POINTS)
    w = _solve(args)
    grid = np.linspace(0.0, w.period, args.slices, endpoint=False)
    scan = foliation_scan(w, grid)
    summary = {
        "a": scan.a,
        "mass_deviation_max": scan.mass_deviation_max,
        "mass_derivative_max": scan.mass_derivative_max,
        "h_sign_ok": scan.h_sign_ok,
        "dh_dr_at_zero": scan.dh_dr_at_zero,
        "margin_flip_radius": scan.margin_flip_radius,
    }
    _emit(args, scan.to_json(), summary)
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="hawkmass",
        description="Hawking-mass variational toolkit on rotationally "
                    "symmetric warped products.")
    groups = top.add_subparsers(dest="group", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--a", type=float, required=True,
                        help=f"minimum warp radius, in [{A_MIN}, {A_MAX}]")
    common.add_argument("--out", type=str, default=None,
                        help="artifact path (atomic write + meta sidecar)")

    metric = groups.add_parser("metric", help="warp profile solving")
    metric_ops = metric.add_subparsers(dest="op", required=True)
    p = metric_ops.add_parser("solve", parents=[common],
                              help="solve the warp profile, emit the step nodes")
    p.set_defaults(func=_cmd_metric_solve)

    slc = groups.add_parser("slice", help="slice geometry")
    slc_ops = slc.add_subparsers(dest="op", required=True)
    p = slc_ops.add_parser("info", parents=[common],
                           help="closed-form geometry of one slice")
    p.add_argument("--r", type=float, default=0.0)
    p.set_defaults(func=_cmd_slice_info)

    mass = groups.add_parser("mass", help="Hawking mass of graphs")
    mass_ops = mass.add_subparsers(dest="op", required=True)
    p = mass_ops.add_parser("graph", parents=[common],
                            help="mass and residuals of a normal graph")
    p.add_argument("--r", type=float, default=0.0)
    p.add_argument("--phi", type=str, required=True,
                   help="perturbation field JSON")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--grid-lmax", type=int, default=None, dest="grid_lmax")
    p.set_defaults(func=_cmd_mass_graph)

    spec = groups.add_parser("spectrum", help="stability operator spectrum")
    spec_ops = spec.add_subparsers(dest="op", required=True)
    p = spec_ops.add_parser("jacobi", parents=[common],
                            help="eigenvalues by harmonic degree")
    p.add_argument("--r", type=float, default=0.0)
    p.add_argument("--lmax", type=int, default=8)
    p.set_defaults(func=_cmd_spectrum_jacobi)

    var = groups.add_parser("variation", help="second-variation forms")
    var_ops = var.add_subparsers(dest="op", required=True)
    p = var_ops.add_parser("second", parents=[common],
                           help="second variation of the Hawking mass")
    p.add_argument("--r", type=float, default=0.0)
    p.add_argument("--phi", type=str, required=True)
    p.add_argument("--mode", choices=("spectral", "fd", "both"),
                   default="spectral")
    p.add_argument("--fd-step", type=float, default=_DEF_FD_STEP,
                   dest="fd_step")
    p.set_defaults(func=_cmd_variation_second)

    sweep = groups.add_parser("sweep", help="seeded perturbation sweeps")
    sweep_ops = sweep.add_subparsers(dest="op", required=True)
    p = sweep_ops.add_parser("perturb", parents=[common],
                             help="random C2-small graphs, mass deficits")
    p.add_argument("--r", type=float, default=0.0)
    p.add_argument("--eps", type=float, default=1.0e-2,
                   help="C2 radius of the ensemble")
    p.add_argument("--n", type=int, default=100,
                   help=f"number of samples, 1 to {_MAX_POINTS}")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--lmax", type=int, default=16)
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.set_defaults(func=_cmd_sweep_perturb)

    scan = groups.add_parser("scan", help="foliation identity scans")
    scan_ops = scan.add_subparsers(dest="op", required=True)
    p = scan_ops.add_parser("foliation", parents=[common],
                            help="mass constancy and sign structure")
    p.add_argument("--slices", type=int, default=64)
    p.set_defaults(func=_cmd_scan_foliation)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvariantViolation as exc:
        print(f"hawkmass: invariant: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"hawkmass: error: {exc}", file=sys.stderr)
        return 2
    except SolveError as exc:
        print(f"hawkmass: solver: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"hawkmass: failure: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"hawkmass: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
