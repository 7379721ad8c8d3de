"""Command-line surface: outputs, exit codes, artifact byte stability."""

import json
import subprocess
import sys

import numpy as np
import pytest

from hawkmass import HarmonicField, WarpFactor, solve_warp_factor
from hawkmass.cli import main
from hawkmass.warp import A_MAX, A_MIN


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "hawkmass.cli", *args],
        capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture(scope="module")
def y1_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("phi") / "y1.json"
    path.write_text(HarmonicField.single(1, 0, 2.0).to_json())
    return str(path)


def test_metric_solve_summary():
    """The summary records the one range every command solves, 1e3."""
    code, out, err = run_cli("metric", "solve", "--a", "0.5")
    assert code == 0
    doc = json.loads(out)
    assert doc["mass"] == pytest.approx(0.2291667, abs=1e-6)
    assert doc["period"] == pytest.approx(6.154021, abs=1e-5)
    assert doc["r_max"] == 1000.0
    assert doc["n_nodes"] == len(solve_warp_factor(0.5, 1000.0).nodes)


def test_metric_solve_rejects_bad_radius():
    code, out, err = run_cli("metric", "solve", "--a", "1.5")
    assert code == 2
    assert err.strip().count("\n") == 0   # single diagnostic line
    assert "error" in err


def test_a_help_names_the_admitted_range(capsys):
    """The --a help names the closed range WarpFactor admits, and a value
    below it exits 2."""
    with pytest.raises(SystemExit) as exit_:
        main(["metric", "solve", "--help"])
    assert exit_.value.code == 0
    assert f"in [{A_MIN}, {A_MAX}]" in capsys.readouterr().out
    assert main(["metric", "solve", "--a", str(A_MIN / 2)]) == 2


def test_every_option_has_help():
    """Every option of every subcommand says what it does."""
    import argparse

    from hawkmass.cli import build_parser

    def commands(parser):
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for sub in action.choices.values():
                    yield sub
                    yield from commands(sub)

    leaves, missing = [], []
    for command in commands(build_parser()):
        options = [action for action in command._actions
                   if action.option_strings]
        if not any(isinstance(action, argparse._SubParsersAction)
                   for action in command._actions):
            leaves.append(command.prog)
        missing += [(command.prog, action.option_strings[0])
                    for action in options if not action.help]
    assert len(leaves) == 7
    assert missing == []


def test_metric_artifact_round_trip(tmp_path):
    out_path = tmp_path / "warp.json"
    code, _, _ = run_cli("metric", "solve", "--a", "0.5",
                         "--out", str(out_path))
    assert code == 0
    w = WarpFactor.from_json(out_path.read_text())
    assert w.a == 0.5
    assert w.r_max == 1000.0
    assert w.mass == pytest.approx(11.0 / 48.0, abs=1e-12)
    meta = json.loads((tmp_path / "warp.json.meta.json").read_text())
    assert "timestamp" in meta


def test_slice_info_values():
    code, out, _ = run_cli("slice", "info", "--a", "0.5", "--r", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["u"] == 0.5
    assert doc["mean_curvature"] == 0.0
    assert doc["hawking_mass"] == pytest.approx(11.0 / 48.0, abs=1e-10)


def test_spectrum_jacobi_values():
    code, out, _ = run_cli("spectrum", "jacobi", "--a", "0.5", "--r", "0",
                           "--lmax", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["lambda_by_degree"] == [3.0, 11.0, 27.0]


def test_variation_second_both(y1_file):
    code, out, _ = run_cli("variation", "second", "--a", "0.5", "--r", "0",
                           "--phi", y1_file, "--mode", "both")
    assert code == 0
    doc = json.loads(out)
    assert doc["spectral"] == pytest.approx(-0.87535, abs=1e-4)
    assert doc["fd"] == pytest.approx(-0.87535, abs=1e-4)
    assert abs(doc["difference"]) < 1e-4
    assert doc["minimal_form"] == pytest.approx(doc["spectral"], abs=1e-10)


def test_mass_graph_report(y1_file):
    code, out, _ = run_cli("mass", "graph", "--a", "0.5", "--r", "0.3",
                           "--phi", y1_file, "--scale", "0.01")
    assert code == 0
    doc = json.loads(out)
    assert doc["deficit"] < 0.0
    assert doc["kind"] == "none"
    assert doc["critical"] is False


def test_mass_graph_synthesizes_one_jet(monkeypatch, capsys, tmp_path):
    """The report and the deficit read one surface, built from one jet."""
    from hawkmass import SphereGrid
    grids = []
    jet = SphereGrid.synthesize_jet

    def counted(self, coeffs):
        grids.append(self.lmax)
        return jet(self, coeffs)

    monkeypatch.setattr(SphereGrid, "synthesize_jet", counted)
    path = tmp_path / "phi.json"
    path.write_text('{"lmax": 2, "coeffs": [[2, 1, 0.05]]}')
    assert main(["mass", "graph", "--a", "0.5", "--r", "0.3",
                 "--phi", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["deficit"] < 0.0
    assert grids == [16]


@pytest.mark.parametrize("command", [
    ["slice", "info"],
    ["variation", "second", "--phi", "PHI"],
    ["mass", "graph", "--phi", "PHI"],
])
def test_nan_radius_is_a_usage_error(command, y1_file):
    """A nan radius is named before any solve: exit 2 with one
    diagnostic, not NaN values in the JSON or a failed Gram solve."""
    args = [y1_file if arg == "PHI" else arg for arg in command]
    code, out, err = run_cli(*args, "--a", "0.5", "--r", "nan")
    assert code == 2
    assert out == ""
    assert err == ("hawkmass: error: r must be finite and |r| <= 988, "
                   "got nan\n")


@pytest.mark.parametrize("command", [
    ["sweep", "perturb", "--n", "2"],
    ["slice", "info"],
])
def test_radius_past_the_largest_range_is_named(command, monkeypatch, capsys):
    """A radius past 988, with less than a period of range past it, exits 2
    naming the radius, not an r_max the command does not take, and before
    any solve."""
    from hawkmass import sweeps

    solves = []
    monkeypatch.setattr(sweeps, "solve_warp_factor",
                        lambda *args: solves.append(args))
    assert main([*command, "--a", "0.5", "--r", "995"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("hawkmass: error: r must be finite and "
                            "|r| <= 988, got 995\n")
    assert solves == []


@pytest.mark.parametrize("flag, value, field", [
    ("--r", "nan", "base_r"),
    ("--r", "inf", "base_r"),
    ("--a", "nan", "a"),
])
def test_sweep_non_finite_radius_is_a_usage_error(flag, value, field):
    """The sweep rejects a non-finite radius by its config field, not by a
    flag it does not take."""
    args = ["--a", "0.5", "--r", "0.0"]
    args[args.index(flag) + 1] = value
    code, out, err = run_cli("sweep", "perturb", "--n", "2", *args)
    assert code == 2
    assert out == ""
    assert f"{field} must be finite" in err
    assert "r_max" not in err


@pytest.mark.parametrize("command, named", [
    (["mass", "graph", "--scale", "nan"], "scale must be finite"),
    (["mass", "graph", "--scale", "inf"], "scale must be finite"),
    (["mass", "graph", "--scale=-inf"], "scale must be finite"),
    (["variation", "second", "--mode", "fd", "--fd-step", "nan"],
     "step must be positive and finite"),
    (["variation", "second", "--mode", "fd", "--fd-step", "inf"],
     "step must be positive and finite"),
    (["variation", "second", "--mode", "both", "--fd-step", "nan"],
     "step must be positive and finite"),
    (["variation", "second", "--mode", "fd", "--fd-step", "1e-300"],
     "step 1e-300 is too small"),
    (["variation", "second", "--mode", "fd", "--fd-step", "1e-160"],
     "step 1e-160 is too small"),
])
def test_non_finite_scale_or_step_is_named(command, named, y1_file):
    """A non-finite --scale or --fd-step, or an --fd-step whose square is
    not a normal float, exits 2 with one line naming itself, not the
    radius range, and no numpy warning reaches stderr."""
    code, out, err = run_cli(*command, "--a", "0.5", "--r", "0.3",
                             "--phi", y1_file)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert named in err
    assert "solved range" not in err
    assert "RuntimeWarning" not in err


@pytest.mark.parametrize("seed", [["--seed", "-1"], ["--seed=-1"],
                                  ["--seed", "-42", "--r", "0.4"]])
def test_sweep_negative_seed_is_named(seed, monkeypatch, capsys):
    """A negative --seed exits 2 naming the config field, before the warp
    solve and with nothing on stdout."""
    from hawkmass import sweeps

    solves = []
    monkeypatch.setattr(sweeps, "solve_for_config", solves.append)
    assert main(["sweep", "perturb", "--a", "0.5", "--n", "4", *seed]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "master_seed must be >= 0" in captured.err
    assert solves == []


def test_artifact_keys_are_dataclass_fields(capsys):
    """Each artifact holds its dataclass's fields plus the documented
    extras, and nothing else."""
    from dataclasses import fields

    from hawkmass import (FoliationScan, JacobiSpectrum, SliceGeometry,
                          SweepConfig, SweepRecord)

    def keys(*argv):
        assert main(list(argv)) == 0
        return json.loads(capsys.readouterr().out)

    def names(cls):
        return {f.name for f in fields(cls)}

    assert set(keys("slice", "info", "--a", "0.5", "--r", "0.4")) == (
        names(SliceGeometry) | {"a", "conserved_mass"})
    assert set(keys("spectrum", "jacobi", "--a", "0.5", "--r", "0.4")) == (
        names(JacobiSpectrum) | {"first_eigenvalue"})
    assert set(keys("scan", "foliation", "--a", "0.5", "--slices", "8")) == (
        names(FoliationScan))
    doc = keys("sweep", "perturb", "--a", "0.5", "--n", "2", "--format",
               "json")
    # the verdict's fixed tolerances, recorded with every config
    assert set(doc["config"]) == names(SweepConfig) | {"tolerances"}
    for record in doc["records"]:
        assert set(record) == names(SweepRecord) - {"ok"} | {"pass"}


def test_mass_graph_missing_phi_file():
    code, _, err = run_cli("mass", "graph", "--a", "0.5", "--r", "0.3",
                           "--phi", "/nonexistent/phi.json")
    assert code == 2
    assert "cannot read" in err


@pytest.mark.parametrize("doc, named", [
    ('{"lmax": 2, "coeffs": [[3, 1, 0.5]]}', "entry 0 [3, 1, 0.5]"),
    ('{"coeffs": [[1, 0, 0.5]]}', '"lmax"'),
    ('[[1, 0, 0.5]]', '"lmax"'),
    ('{"lmax": -1, "coeffs": []}', "lmax must be an integer >= 0"),
    ('{"lmax": 2, "coeffs": [[1, 0, 0.5], [1, 0, NaN]]}', "entry 1 [1, 0, nan]"),
    ('{"lmax": 2, "coeffs": [[1, 0]]}', "entry 0 [1, 0]"),
    ("nope", "phi.json is not JSON: Expecting value: line 1 column 1"),
])
def test_malformed_phi_file_is_a_usage_error(doc, named, tmp_path):
    """A malformed --phi document exits 2 with one diagnostic naming the
    bad entry, or the file when it is not JSON at all, not a traceback, an
    empty field or a range error."""
    path = tmp_path / "phi.json"
    path.write_text(doc)
    code, out, err = run_cli("mass", "graph", "--a", "0.5", "--r", "0.3",
                             "--phi", str(path))
    assert code == 2
    assert out == ""
    assert named in err
    assert "Traceback" not in err


def test_sweep_csv_artifact(tmp_path):
    out_path = tmp_path / "sweep.csv"
    code, out, _ = run_cli("sweep", "perturb", "--a", "0.5", "--r", "0",
                           "--eps", "1e-2", "--n", "20", "--seed", "42",
                           "--out", str(out_path))
    assert code == 0
    summary = json.loads(out)
    assert summary["all_negative"] is True
    assert summary["pass"] is True
    lines = out_path.read_text().splitlines()
    assert len(lines) == 21
    assert lines[0] == "index,seed,c2_norm,w22_norm,deficit,prediction,ratio,pass"


def test_sweep_rerun_byte_identical(tmp_path):
    p1 = tmp_path / "s1.csv"
    p2 = tmp_path / "s2.csv"
    args = ("sweep", "perturb", "--a", "0.5", "--r", "0", "--eps", "1e-2",
            "--n", "10", "--seed", "7")
    assert run_cli(*args, "--out", str(p1))[0] == 0
    assert run_cli(*args, "--out", str(p2))[0] == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_sweep_json_format():
    code, out, _ = run_cli("sweep", "perturb", "--a", "0.5", "--r", "0",
                           "--eps", "1e-2", "--n", "3", "--seed", "1",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["records"]) == 3
    assert doc["aggregate"]["pass"] is True


def test_scan_foliation_summary(tmp_path):
    out_path = tmp_path / "scan.json"
    code, out, _ = run_cli("scan", "foliation", "--a", "0.5",
                           "--slices", "64", "--out", str(out_path))
    assert code == 0
    summary = json.loads(out)
    assert summary["mass_deviation_max"] < 1e-8
    assert summary["h_sign_ok"] is True
    doc = json.loads(out_path.read_text())
    assert len(doc["masses"]) == 64


# runs the CLI with an import hook that refuses every scipy module
_REFUSE_SCIPY = """
import sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"scipy refused: {name}")
        return None

sys.meta_path.insert(0, RefuseScipy())
from hawkmass.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("command", ["sweep", "scan", "mass"])
def test_cli_runs_without_scipy(command, y1_file, tmp_path):
    args = {
        "sweep": ["sweep", "perturb", "--a", "0.5", "--n", "4",
                  "--out", str(tmp_path / "sweep.csv")],
        "scan": ["scan", "foliation", "--a", "0.5"],
        "mass": ["mass", "graph", "--a", "0.5", "--phi", y1_file,
                 "--scale", "0.01"],
    }[command]
    proc = subprocess.run([sys.executable, "-c", _REFUSE_SCIPY, *args],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


_GRID_CACHE_AFTER = """
import sys
from hawkmass import sphere
from hawkmass.cli import main
code = main(sys.argv[1:])
print(sorted(sphere._GRID_CACHE), file=sys.stderr)
sys.exit(code)
"""


def test_sweep_builds_only_its_geometry_grid(tmp_path):
    """A field carries no grid, so a --lmax 16 sweep in a fresh
    interpreter builds the band-limit-16 geometry grid and no other."""
    args = ["sweep", "perturb", "--a", "0.5", "--n", "4", "--lmax", "16",
            "--out", str(tmp_path / "sweep.csv")]
    proc = subprocess.run([sys.executable, "-c", _GRID_CACHE_AFTER, *args],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.strip().splitlines()[-1] == "[16]"


def test_usage_error_missing_subcommand():
    code, _, err = run_cli("metric")
    assert code == 2


def test_usage_error_unknown_flag():
    code, _, _ = run_cli("slice", "info", "--a", "0.5", "--bogus", "1")
    assert code == 2


@pytest.mark.parametrize("flag", [["--rmax", "0.5"], ["--tol", "1e-2"],
                                  ["--workers", "2"]])
def test_sweep_rejects_solver_flags(flag, capsys):
    """The sweep solves its own range and runs in one process, so solver
    and worker flags are usage errors."""
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "perturb", "--a", "0.5", "--n", "1", *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_sweep_rejects_eps_beyond_range():
    """An --eps that could take a graph past the solved range exits 2
    naming epsilon, where the sweep would otherwise stop partway through;
    an --eps past the base-slice patch reach runs."""
    code, out, err = run_cli("sweep", "perturb", "--a", "0.5", "--r", "0",
                             "--eps", "1e5", "--n", "16")
    assert code == 2
    assert out == ""
    assert err == ("hawkmass: error: epsilon 100000 takes the graphs past "
                   "the solved range: |base_r| + epsilon must be <= 1000\n")
    code, out, err = run_cli("sweep", "perturb", "--a", "0.5", "--eps", "0.5",
                             "--n", "13", "--format", "json")
    assert code == 0, err
    assert json.loads(out)["aggregate"]["n_graph"] == 13


def test_sweep_rejects_eps_within_slice_norm(capsys):
    """An --eps at or below slice_norm, where no draw is a graph, is a
    usage error, not a vacuous pass."""
    assert main(["sweep", "perturb", "--a", "0.5", "--n", "4",
                 "--eps", "1e-9"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "epsilon 1e-09 must exceed tolerances slice_norm 1e-08" in (
        captured.err)


def test_scan_foliation_reports_the_flip_on_three_slices(capsys):
    """Three slices show the margin no sign change at a = 0.7; the flip
    comes from the profile, not from the grid."""
    assert main(["scan", "foliation", "--a", "0.7", "--slices", "3"]) == 0
    flip = json.loads(capsys.readouterr().out)["margin_flip_radius"]
    assert flip == pytest.approx(2.2838411172779, rel=1e-12)


def test_exit_code_mapping_invariant(monkeypatch, capsys):
    """An invariant failure surfaces as exit 3 with the record attached."""
    from hawkmass.errors import InvariantViolation
    import hawkmass.cli as cli_mod

    def boom(args):
        raise InvariantViolation('{"index": 4}')
    monkeypatch.setitem(cli_mod.__dict__, "_cmd_slice_info", boom)
    assert main(["slice", "info", "--a", "0.5"]) == 3
    err = capsys.readouterr().err
    assert "invariant" in err
    assert '"index": 4' in err


@pytest.mark.parametrize("slices", ["-3", "0", "1"])
def test_scan_slices_below_two_is_named(slices, monkeypatch, capsys):
    """--slices below 2 exits 2 naming the flag, before the warp solve and
    with nothing on stdout."""
    import hawkmass.cli as cli_mod

    solves = []
    monkeypatch.setattr(cli_mod, "_solve", solves.append)
    assert main(["scan", "foliation", "--a", "0.5", "--slices", slices]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--slices must be >= 2" in captured.err
    assert solves == []


@pytest.mark.parametrize("argv, message", [
    (["mass", "graph", "--phi", "{phi}", "--grid-lmax", "257"],
     "--grid-lmax must be <= 256"),
    (["scan", "foliation", "--slices", "100001"], "--slices must be <= 100000"),
    (["spectrum", "jacobi", "--lmax", "100001"], "--lmax must be <= 100000"),
    (["sweep", "perturb", "--lmax", "258"],
     "lmax 258 needs a geometry grid of band limit 258, above 256"),
    (["mass", "graph", "--phi", "{field129}"],
     "field lmax 129 needs a geometry grid of band limit 258, above 256"),
])
def test_size_flags_just_above_their_bounds_are_named(argv, message, tmp_path,
                                                      monkeypatch, capsys):
    """Each size one past its bound exits 2 naming what is too large,
    before a profile is solved or a grid is built."""
    import hawkmass.cli as cli_mod
    import hawkmass.sweeps as sweeps_mod

    files = {}
    for name, lmax in (("phi", 2), ("field129", 129)):
        files[name] = str(tmp_path / f"{name}.json")
        with open(files[name], "w", encoding="utf-8") as fh:
            json.dump({"lmax": lmax, "coeffs": [[1, 0, 0.1]]}, fh)
    calls = []
    monkeypatch.setattr(cli_mod, "_solve", calls.append)
    monkeypatch.setattr(sweeps_mod, "solve_for_config", calls.append)
    monkeypatch.setattr(sweeps_mod, "get_grid", calls.append)
    argv = [arg.format(**files) for arg in argv]
    assert main(argv + ["--a", "0.5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert calls == []


@pytest.mark.parametrize("n, message", [("100001", "--n must be <= 100000"),
                                        ("0", "--n must be >= 1")])
def test_sweep_sample_count_is_bounded(n, message, monkeypatch, capsys):
    """A sweep's --n outside [1, 100000] exits 2 naming the flag, before
    any solve; no sweep runs."""
    import hawkmass.cli as cli_mod
    import hawkmass.sweeps as sweeps_mod

    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran")

    calls = []
    monkeypatch.setattr(cli_mod, "perturbation_sweep", no_sweep)
    monkeypatch.setattr(sweeps_mod, "solve_for_config", calls.append)
    assert main(["sweep", "perturb", "--a", "0.5", "--n", n]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert calls == []


def test_exhausted_memory_is_one_line_and_exit_1(monkeypatch, capsys):
    import hawkmass.cli as cli_mod

    def exhaust(args):
        raise MemoryError("Unable to allocate 74.5 GiB for an array")

    monkeypatch.setattr(cli_mod, "_solve", exhaust)
    assert main(["slice", "info", "--a", "0.5"]) == 1
    err = capsys.readouterr().err
    assert err == "hawkmass: out of memory: Unable to allocate 74.5 GiB for an array\n"


def test_scan_near_the_round_cylinder(capsys):
    """At a = 0.99999 a first Taylor step would be longer than half the
    period, so it is clipped at T/2, and the scan passes its checks:
    exit 0."""
    assert main(["scan", "foliation", "--a", "0.99999", "--slices", "16"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["h_sign_ok"] is True
    assert doc["mass_deviation_max"] < 1e-12


def test_exit_code_mapping_solver_failure(monkeypatch, capsys):
    """A solve that fails its drift check exits 1, naming the drift and
    the bound."""
    from hawkmass import sweeps, warp

    monkeypatch.setattr(sweeps, "_WARP_CACHE", {})
    monkeypatch.setattr(warp, "_DRIFT_BOUND", -1.0)
    code = main(["scan", "foliation", "--a", "0.5", "--slices", "8"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("hawkmass: solver: conserved-mass drift ")
    assert err.endswith(" exceeds -1e+00\n")


def _subcommands(phi):
    """Each subcommand with its required flags."""
    return [
        ["metric", "solve", "--a", "0.5"],
        ["slice", "info", "--a", "0.5"],
        ["mass", "graph", "--a", "0.5", "--phi", phi],
        ["spectrum", "jacobi", "--a", "0.5"],
        ["variation", "second", "--a", "0.5", "--phi", phi],
        ["sweep", "perturb", "--a", "0.5", "--n", "1"],
        ["scan", "foliation", "--a", "0.5"],
    ]


@pytest.mark.parametrize("index", range(7))
def test_every_subcommand_rejects_tol(index, y1_file, capsys):
    """The solve runs at roundoff whatever a tolerance says, so no
    subcommand takes one."""
    with pytest.raises(SystemExit) as exc:
        main([*_subcommands(y1_file)[index], "--tol", "1e-10"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol 1e-10" in capsys.readouterr().err


@pytest.mark.parametrize("index", range(7))
def test_no_subcommand_takes_rmax(index, y1_file, capsys):
    """The profile is a function of a, solved once over the largest
    range, so no subcommand takes --rmax."""
    with pytest.raises(SystemExit) as exc:
        main([*_subcommands(y1_file)[index], "--rmax", "40"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --rmax 40" in capsys.readouterr().err


@pytest.mark.parametrize("index", [0, 1])
@pytest.mark.parametrize("target", ["missing/x.json", "dir"])
def test_unwritable_out_is_named(index, target, y1_file, tmp_path, capsys):
    """An --out in a missing directory, or one that is a directory, exits
    2 with one line naming the path, prints nothing and leaves no temp
    file behind."""
    (tmp_path / "dir").mkdir()
    out = str(tmp_path / target)
    assert main([*_subcommands(y1_file)[index], "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"hawkmass: error: cannot write {out}: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir"]
    assert list((tmp_path / "dir").iterdir()) == []


def test_slice_info_past_the_default_range(capsys):
    """A slice past r = 12 needs no flag: its output is the library's
    slice geometry on any solve that serves its radius."""
    from dataclasses import asdict

    from hawkmass import slice_geometry

    assert main(["slice", "info", "--a", "0.5", "--r", "13"]) == 0
    w = solve_warp_factor(0.5, 13.0)
    doc = {**asdict(slice_geometry(w, 13.0)), "a": w.a,
           "conserved_mass": w.mass}
    assert capsys.readouterr().out == json.dumps(doc, sort_keys=True) + "\n"


def test_in_process_spectrum(capsys):
    assert main(["spectrum", "jacobi", "--a", "0.6", "--r", "0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["first_eigenvalue"] == pytest.approx((1 - 0.36) / 0.36,
                                                    abs=1e-12)
