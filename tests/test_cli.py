import dataclasses
import errno
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import titeica as tz
from titeica import _objtext, cli, pde
from titeica.errors import ConfigError, TiteicaError
from titeica.projective import monge_ampere_gate


def torus_config(**overrides):
    cfg = {
        "schema_version": 1,
        "case": "hyperbolic_affine_sphere",
        "domain": {"kind": "torus", "tau": [0.0, 1.0], "shape": [32, 32]},
        "metric": {"kind": "flat", "sigma": 1.0},
        "cubic": {"kind": "constant", "c": [1.0, 0.0]},
        "solver": {"method": "newton", "tol": 1e-10},
        "outputs": {"mesh": "mesh.obj", "report": "report.json"},
    }
    cfg.update(overrides)
    return cfg


def rectangle_config(**overrides):
    return torus_config(**dict({"domain": {"kind": "rectangle",
                                           "shape": [32, 32]}}, **overrides))


def test_run_full_pipeline(tmp_path):
    code, report = cli.run(torus_config(), stage="all", out_dir=tmp_path)
    assert code == 0
    assert report["passed"]
    # the constant solution shows up in the report
    assert report["solver"]["u_mean"] == pytest.approx(np.log(8.0) / 3.0,
                                                       abs=1e-6)
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "mesh.obj").exists()
    on_disk = json.loads((tmp_path / "report.json").read_text())
    assert on_disk["failed_checks"] == []
    assert {r["name"] for r in on_disk["residuals"]} >= {
        "det_identity", "curvature", "holonomy_commutator"}
    for r in on_disk["residuals"]:
        assert {"name", "value", "tolerance", "grid", "case", "pass"} <= set(r)


def test_run_solve_only(tmp_path):
    code, report = cli.run(torus_config(), stage="solve", out_dir=tmp_path)
    assert code == 0
    [entry] = report["residuals"]
    assert entry["name"] == "solve" and entry["pass"]
    assert entry["value"] == report["solver"]["residual_inf"]
    assert entry["tolerance"] == 1e-10
    assert report["solver"]["converged"]


def test_malformed_case_exits_2(tmp_path):
    cfg = torus_config(case="not_a_geometry")
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    rc = cli.main(["solve", "--config", str(path), "--out-dir", str(tmp_path)])
    assert rc == 2


def test_key_of_another_kind_exits_2():
    # sigma belongs to the flat metric; the disk config is valid without it
    cli.Pipeline(_ch2_config(16))
    cfg = dict(_ch2_config(16), metric={"kind": "poincare_disk", "sigma": 1.0})
    with pytest.raises(ConfigError, match="sigma"):
        cli.Pipeline(cfg)


def test_config_error_leaves_no_out_dir(tmp_path):
    out = tmp_path / "x" / "a" / "b"
    with pytest.raises(ConfigError, match="solvr"):
        cli.run({"solvr": {}}, "solve", out)
    assert not (tmp_path / "x").exists()


def test_unreadable_config_exits_2(tmp_path):
    rc = cli.main(["solve", "--config", str(tmp_path / "missing.json")])
    assert rc == 2


@pytest.mark.parametrize("key, value", [
    ("domain", {"kind": "torus", "tau": [0.0, 1.0], "shape": ["x", 8]}),
    ("boundary", "zero"),
    ("solver", {"method": "newton", "tol": "tight"}),
    ("solver", {"method": "newton", "max_iter": "many"}),
    ("domain", [16, 16]),
    ("solver", {"method": "newton", "t_grid": [0.5, 0.2]}),
    ("outputs", []),
    ("outputs", {"report": 5}),
    ("outputs", {"report": ""}),
    ("outputs", {"mesh": ["mesh.obj"], "report": "report.json"}),
    ("cubic", {"kind": "polynomial", "coeffs": 0.5}),
    ("weierstrass", "pair"),
    ("weierstrass", {"f_coeffs": 0.1}),
    ("weierstrass", {"g_coeffs": 1.0}),
    ("solver", {"method": "newton", "tol": -1.0}),
    ("solver", {"method": "newton", "tol": 0.0}),
    ("solver", {"method": "newton", "tol": float("nan")}),
    ("solver", {"method": "newton", "tol": float("inf")}),
    ("solver", {"method": "newton", "max_iter": -3}),
    ("solver", {"method": "bogus"}),
    ("solver", {"method": "monotone", "t_grid": [0.0, 0.5]}),
    ("solver", {"method": "bogus", "t_grid": [0.0, 0.5]}),
    ("solver", {"method": "newton", "u0": 0.5, "t_grid": [0.0, 0.5]}),
    ("solver", {"method": "monotone", "u0": 0.5}),
    ("solver", {"method": "newton", "max_iter": 2.5}),
    ("domain", {"kind": "torus", "tau": [0.0, 1.0], "shape": [16.9, 16]}),
    ("solver", {"method": "newton", "max_iter": float("inf")}),
    # strings and booleans are not numbers, though int() and float() take them
    ("solver", {"method": "newton", "max_iter": "7"}),
    ("solver", {"method": "newton", "max_iter": True}),
    ("solver", {"method": "newton", "tol": "1e-9"}),
    ("solver", {"method": "newton", "tol": True}),
    ("domain", {"kind": "torus", "tau": [0.0, 1.0], "shape": ["16", "16"]}),
    ("cubic", {"kind": "constant", "c": ["1", "0"]}),
    ("boundary", "0.5"),
    ("schema_version", True),
    # json reads NaN and Infinity; no config value may be either
    ("boundary", float("nan")),
    ("cubic", {"kind": "constant", "c": [float("nan"), 0.0]}),
    ("metric", {"kind": "flat", "sigma": float("inf")}),
    ("domain", {"kind": "rectangle", "width": float("inf"),
                "shape": [16, 16]}),
    ("domain", {"kind": "rectangle", "height": float("nan"),
                "shape": [16, 16]}),
    ("solver", {"method": "newton", "t_grid": ["0", "0.1"]}),
    ("solver", {"method": "newton", "t_grid": [False, True]}),
    ("solver", {"method": "newton", "t_grid": [0.0, float("nan")]}),
    ("solver", {"method": "newton", "t_grid": 0.5}),
    # a key that no parser reads, or that the chosen kind does not read
    ("solver", {"method": "newton", "maxiter": 50}),
    ("solvr", {"method": "newton"}),
    ("domain", {"kind": "torus", "tau": [0.0, 1.0], "shape": [16, 16],
                "radius": 0.5}),
    ("cubic", {"kind": "constant", "c": [1.0, 0.0], "coeffs": []}),
    # output names are bare file names inside --out-dir
    ("outputs", {"report": "../escape.json"}),
    ("outputs", {"report": "/nonexistent-dir/abs.json"}),
    ("outputs", {"report": "sub/r.json"}),
    ("outputs", {"report": ".."}),
    ("outputs", {"mesh": "sub/mesh.json", "report": "report.json"}),
    # grids below 8x8, caught before a constructor divides by n - 1 or n
    ("domain", {"kind": "rectangle", "shape": [1, 16]}),
    ("domain", {"kind": "torus", "tau": [0.0, 1.0], "shape": [0, 16]}),
    ("domain", {"kind": "disk_patch", "radius": 0.7, "shape": [16, 1]}),
], ids=["shape", "boundary", "tol", "max_iter", "domain", "t_grid",
        "outputs", "report", "empty_report", "mesh", "coeffs", "weierstrass",
        "f_coeffs", "g_coeffs", "tol_negative", "tol_zero", "tol_nan",
        "tol_inf", "max_iter_negative", "method", "t_grid_monotone",
        "t_grid_bogus", "u0_t_grid", "u0_monotone", "max_iter_fraction",
        "shape_fraction", "max_iter_inf", "max_iter_string", "max_iter_bool",
        "tol_string", "tol_bool", "shape_strings", "c_strings",
        "boundary_string", "schema_version_bool", "boundary_nan", "c_nan",
        "sigma_inf", "width_inf", "height_nan", "t_grid_strings",
        "t_grid_bool", "t_grid_nan", "t_grid_scalar", "solver_key",
        "top_level_key", "radius_on_torus", "coeffs_on_constant",
        "report_parent", "report_absolute", "report_subdir", "report_dotdot",
        "mesh_subdir", "rectangle_1xm", "torus_0xm", "disk_patch_nx1"])
def test_malformed_config_value_exits_2(tmp_path, key, value):
    # boundary values are read on planar grids only (a torus rejects the
    # key, test_boundary_on_torus_exits_2), so a bad one is tried on a
    # rectangle and must fail for its own reason
    cfg = (rectangle_config if key == "boundary" else torus_config)(
        **{key: value})
    # caught while the pipeline is built, before any stage runs
    with pytest.raises(ConfigError) as exc:
        cli.Pipeline(cfg)
    if key == "boundary":
        assert str(exc.value).startswith("boundary must be a")
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    rc = cli.main(["solve", "--config", str(path), "--out-dir", str(tmp_path)])
    assert rc == 2


@pytest.mark.parametrize("value", [5.0, 0.0])
def test_boundary_on_torus_exits_2(value):
    # no parser reads boundary values on a torus, whatever they are
    cli.Pipeline(rectangle_config(boundary=value))
    with pytest.raises(ConfigError, match="torus has no boundary"):
        cli.Pipeline(torus_config(boundary=value))


def _monotone_config(**overrides):
    return torus_config(**dict({
        "domain": {"kind": "disk_patch", "radius": 0.7, "shape": [16, 16]},
        "metric": {"kind": "poincare_disk"}, "solver": {"method": "monotone"},
        "outputs": {"report": "report.json"}}, **overrides))


# configs the monotone iteration cannot solve, and the reason given
MONOTONE_BAD_INPUT = {
    "minlag_ch2_disk": (_monotone_config(case="minlag_ch2"),
                        "requires \\(eps, lam\\) = \\(1, -1\\)"),
    "boundary_0.1": (_monotone_config(boundary=0.1), "needs boundary 0"),
    "flat_rectangle": (_monotone_config(
        domain={"kind": "rectangle", "shape": [16, 16]},
        metric={"kind": "flat"}), "assumes kappa = -1"),
}


@pytest.mark.parametrize("name", sorted(MONOTONE_BAD_INPUT))
def test_monotone_bad_input_exits_2(tmp_path, name):
    # bad input, caught while the pipeline is built: exit 2 and no out
    # directory, not a stage that starts and fails with no check run
    cfg, reason = MONOTONE_BAD_INPUT[name]
    with pytest.raises(ConfigError, match="monotone: .*" + reason):
        cli.Pipeline(cfg)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    rc = cli.main(["all", "--config", str(path), "--out-dir", str(out)])
    assert rc == 2
    assert not out.exists()
    # the same config solved by Newton is no configuration error
    cli.Pipeline(dict(cfg, solver={"method": "newton"}))


def test_monotone_flat_torus_without_solution_exits_3(tmp_path):
    # c = 0 on the hyperbolic torus has no solution: a failed solve with
    # its reason, as under Newton
    cfg = torus_config(cubic={"kind": "constant", "c": [0.0, 0.0]},
                       domain={"kind": "torus", "tau": [0.0, 1.0],
                               "shape": [16, 16]},
                       solver={"method": "monotone"},
                       outputs={"report": "report.json"})
    code, report = cli.run(cfg, stage="all", out_dir=tmp_path)
    assert code == 3
    s = report["solver"]
    assert s["method"] == "monotone" and not s["converged"]
    assert s["iterations"] == 0
    assert "no solution on a flat torus" in s["reason"]
    assert any(s["reason"] in w for w in report["warnings"])


def test_gauss_bonnet_obstruction_exits_3(tmp_path):
    cfg = torus_config(case="minlag_ch2")
    cfg["solver"] = {"method": "newton", "tol": 1e-10, "max_iter": 25}
    path = tmp_path / "ch2.json"
    path.write_text(json.dumps(cfg))
    rc = cli.main(["solve", "--config", str(path), "--out-dir", str(tmp_path)])
    assert rc == 3
    report = json.loads((tmp_path / "report.json").read_text())
    assert not report["solver"]["converged"]


@pytest.mark.parametrize("case, c, code", [
    ("parabolic_affine_sphere", 1.0, 3),
    ("minlag_c2", 1.0, 3),
    ("minlag_cp2", 0.0, 3),
    ("hyperbolic_affine_sphere", 0.0, 3),
    ("hyperbolic_affine_sphere", 1.0, 0),
    ("minlag_cp2", 1.0, 0),
])
def test_flat_torus_without_solution_exits_3(tmp_path, case, c, code):
    # constant Q on a flat torus: a solution exists only for eps lam = -1
    # and Q != 0, or lam = 0 and Q = 0; Newton must not report a u driven
    # towards +/-inf as converged
    cfg = torus_config(case=case, cubic={"kind": "constant", "c": [c, 0.0]},
                       domain={"kind": "torus", "tau": [0.0, 1.0],
                               "shape": [16, 16]},
                       outputs={"report": "report.json"})
    got, report = cli.run(cfg, stage="all", out_dir=tmp_path)
    assert got == code
    if code == 3:
        assert report["solver"]["iterations"] == 0
        reason = report["solver"]["reason"]
        assert "no solution on a flat torus" in reason
        assert any(reason in w for w in report["warnings"])
    else:
        assert "reason" not in report["solver"]
        assert report["passed"]


def diverging_c2_config():
    # Newton does not converge on this problem, so the run ends before verify
    return {
        "schema_version": 1, "case": "minlag_c2",
        "domain": {"kind": "rectangle", "width": 1.0, "height": 1.0,
                   "shape": [32, 32]},
        "metric": {"kind": "flat"},
        "cubic": {"kind": "polynomial", "coeffs": [[0.5, 0.0], [0.3, 0.0]]},
        "boundary": 0.0,
        "solver": {"method": "newton"},
        "outputs": {"report": "report.json"},
    }


@pytest.mark.parametrize("stage", ["verify", "develop", "all"])
def test_verifying_stage_without_checks_fails(tmp_path, stage):
    code, report = cli.run(diverging_c2_config(), stage=stage, out_dir=tmp_path)
    assert not report["solver"]["converged"]
    assert report["residuals"] == []
    assert code == 3
    assert report["passed"] is False
    assert "no check ran" in report["warnings"]
    on_disk = json.loads((tmp_path / "report.json").read_text())
    assert on_disk["passed"] is False


@pytest.mark.parametrize("stage", ["solve", "immerse"])
def test_unconverged_solve_stage_exits_3(tmp_path, stage):
    code, report = cli.run(diverging_c2_config(), stage=stage, out_dir=tmp_path)
    assert not report["solver"]["converged"]
    assert code == 3


def _unconverged_configs():
    # Newton cut off before it converges: the CP^2 rectangle is still at a
    # residual of 1.25 after 8 steps, and the torus needs 5 steps, not 2
    cp2 = dict(diverging_c2_config(), case="minlag_cp2",
               solver={"method": "newton", "max_iter": 8})
    torus = torus_config(domain={"kind": "torus", "tau": [0.0, 1.0],
                                 "shape": [16, 16]},
                         solver={"method": "newton", "tol": 1e-10,
                                 "max_iter": 2})
    return {"cp2_rectangle": cp2, "torus_max_iter_2": torus}


@pytest.mark.parametrize("stage", ["solve", "immerse", "verify", "all"])
@pytest.mark.parametrize("name", sorted(_unconverged_configs()))
def test_unconverged_solve_exits_3(tmp_path, name, stage):
    code, report = cli.run(_unconverged_configs()[name], stage=stage,
                           out_dir=tmp_path)
    assert code == 3
    assert report["passed"] is False
    assert not report["solver"]["converged"]
    assert report["residuals"] == []
    # the stage that raised is still timed, and nothing ran after it
    assert set(report["timings"]) == {"solve"}
    reason = report["solver"]["reason"]
    assert reason.startswith("max_iter: ")
    assert report["warnings"][0] == (
        f"SolveError: solver did not converge: {reason}")
    on_disk = json.loads((tmp_path / "report.json").read_text())
    assert on_disk["passed"] is False


def test_stage_without_checks_exits_1(tmp_path, monkeypatch):
    monkeypatch.setattr(cli.Pipeline, "add_residual",
                        lambda self, name, value: None)
    code, report = cli.run(torus_config(), stage="solve", out_dir=tmp_path)
    assert report["solver"]["converged"]
    assert code == 1
    assert report["passed"] is False
    assert report["warnings"] == ["no check ran"]


def test_diverging_solve_warns_nothing(tmp_path):
    # Newton's rejected trial steps overflow e^{-2u}; with lam = 0 the e^u
    # term used to turn that into 0 * inf = NaN
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _, report = cli.run(diverging_c2_config(), stage="solve",
                            out_dir=tmp_path)
    assert not report["solver"]["converged"]
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


def test_weierstrass_stage(tmp_path):
    cfg = {
        "schema_version": 1,
        "case": "parabolic_affine_sphere",
        "domain": {"kind": "rectangle", "width": 1.0, "height": 1.0,
                   "shape": [32, 32]},
        "weierstrass": {"f_coeffs": [[0.0, 0.0], [0.1, 0.0]],
                        "g_coeffs": [[0.0, 0.0], [1.0, 0.0]]},
        "outputs": {"mesh": "mesh.obj", "report": "report.json"},
    }
    code, report = cli.run(cfg, stage="weierstrass", out_dir=tmp_path)
    assert code == 0
    # the Legendre round trip is gated by develop, not here
    assert [(r["name"], r["pass"]) for r in report["residuals"]] == [
        ("monge_ampere", True)]


# runs cli.main on the argv given as JSON in sys.argv[1] in a fresh
# interpreter, every Krylov solve made to fail if sys.argv[2] is given,
# then prints the exit code and every scipy module loaded
_FRESH_RUN = """
import json, sys
from titeica import cli, pde
if len(sys.argv) > 2:
    pde.cg = pde.minres = lambda A, b, **kwargs: (0.0 * b, 1)
try:
    code = cli.main(json.loads(sys.argv[1]))
except SystemExit as exc:  # argparse exits after --help
    code = exc.code
print(json.dumps([code, sorted(m for m in sys.modules
                               if m.partition(".")[0] == "scipy")]))
"""


def _fresh_env():
    """Environment of a fresh interpreter that imports this titeica."""
    src = str(Path(tz.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def _fresh_run(tmp_path, cfg, stage, failing_krylov=False):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    argv = ["--help"] if stage is None else [
        stage, "--config", str(path), "--out-dir", str(tmp_path)]
    flag = ["failing_krylov"] if failing_krylov else []
    out = subprocess.run([sys.executable, "-c", _FRESH_RUN, json.dumps(argv),
                          *flag],
                         capture_output=True, text=True, env=_fresh_env(),
                         check=True, timeout=300)
    code, scipy_modules = json.loads(out.stdout.splitlines()[-1])
    return code, set(scipy_modules)


def weierstrass_config(n):
    return {
        "schema_version": 1, "case": "parabolic_affine_sphere",
        "domain": {"kind": "rectangle", "width": 1.0, "height": 1.0,
                   "shape": [n, n]},
        "weierstrass": {"f_coeffs": [[0.0, 0.0], [0.1, 0.0]],
                        "g_coeffs": [[0.0, 0.0], [1.0, 0.0]]},
        "outputs": {"mesh": "mesh.obj", "report": "report.json"},
    }


@pytest.mark.parametrize("cfg, stage, expect", [
    ({}, None, 0),
    (torus_config(case="not_a_geometry"), "solve", 2),
    (weierstrass_config(33), "weierstrass", 0),
], ids=["help", "config_error", "weierstrass"])
def test_fresh_run_without_solve_loads_no_scipy(tmp_path, cfg, stage, expect):
    code, scipy_modules = _fresh_run(tmp_path, cfg, stage)
    assert code == expect
    assert scipy_modules == set()


def test_fresh_solve_loads_no_optimize_or_interpolate(tmp_path):
    # the Krylov solves and their transforms are numpy's
    cfg = torus_config(domain={"kind": "torus", "tau": [0.0, 1.0],
                               "shape": [16, 16]})
    code, scipy_modules = _fresh_run(tmp_path, cfg, "all")
    assert code == 0
    assert scipy_modules == set()


def _fresh_krylov_runs():
    # stage and config of a fresh solve on each Krylov path
    disk = {"kind": "disk_patch", "radius": 0.7, "shape": [16, 16]}
    return {
        # CG preconditioned through the sine matrices; the solve stage
        # alone, as ROADMAP item 8's disk-patch gates fail exact data
        "disk_patch": ("solve", torus_config(
            domain=disk, metric={"kind": "poincare_disk"},
            cubic={"kind": "polynomial", "coeffs": [[0.5, 0.0], [0.3, 0.0]]},
            outputs={"report": "report.json"})),
        # MINRES on the indefinite CP^2 Jacobian
        "cp2_rectangle": ("all", torus_config(
            case="minlag_cp2",
            domain={"kind": "rectangle", "width": 1.0, "height": 1.0,
                    "shape": [16, 16]},
            metric={"kind": "flat"},
            cubic={"kind": "polynomial", "coeffs": [[0.25, 0.0], [0.15, 0.0]]},
            outputs={"report": "report.json"})),
        # warm-started Newton solves along t
        "ch2_continuation": ("all", dict(
            _ch2_config(16), outputs={"report": "report.json"},
            solver={"method": "newton", "t_grid": [0.0, 0.2, 0.4]})),
    }


@pytest.mark.parametrize("name", ["ch2_continuation", "cp2_rectangle",
                                  "disk_patch"])
def test_fresh_krylov_solve_loads_no_scipy(tmp_path, name):
    stage, cfg = _fresh_krylov_runs()[name]
    code, scipy_modules = _fresh_run(tmp_path, cfg, stage)
    assert code == 0
    assert scipy_modules == set()
    solver = json.loads((tmp_path / "report.json").read_text())["solver"]
    assert solver["linear_iters"] > 0


@pytest.mark.parametrize("name", ["ch2_continuation", "cp2_rectangle",
                                  "disk_patch"])
def test_fresh_linear_stall_loads_no_scipy(tmp_path, name):
    # a Krylov solve that fails ends the solve, with no other solve to
    # fall back on
    stage, cfg = _fresh_krylov_runs()[name]
    code, scipy_modules = _fresh_run(tmp_path, cfg, stage,
                                     failing_krylov=True)
    assert code == 3
    assert scipy_modules == set()
    solver = json.loads((tmp_path / "report.json").read_text())["solver"]
    assert solver["reason"].startswith("linear_stall: ")


# builds the ch2_continuation benchmark's Pipeline in a fresh interpreter,
# then prints whether the mesh text writer was imported
_FRESH_SETUP = """
import json, sys
sys.path.insert(0, sys.argv[1])
from workloads import make_config
from titeica import cli
cli.Pipeline(make_config("ch2_continuation", 0)[1])
print(json.dumps("titeica._objtext" in sys.modules))
"""


def test_fresh_setup_loads_no_text_writer():
    # the benchmark's setup_s times this; the writer and its tables load
    # on the first export
    pipebench = Path(__file__).resolve().parent.parent / "pipebench"
    out = subprocess.run([sys.executable, "-c", _FRESH_SETUP, str(pipebench)],
                         capture_output=True, text=True, env=_fresh_env(),
                         check=True, timeout=300)
    assert json.loads(out.stdout.splitlines()[-1]) is False


def test_weierstrass_rejects_bad_pair(tmp_path):
    cfg = {
        "schema_version": 1,
        "case": "parabolic_affine_sphere",
        "domain": {"kind": "rectangle", "shape": [16, 16]},
        "weierstrass": {"f_coeffs": [[0.0, 0.0], [1.0, 0.0]],
                        "g_coeffs": [[0.0, 0.0], [1.0, 0.0]]},
    }
    with pytest.raises(ConfigError):
        cli.run(cfg, stage="weierstrass", out_dir=tmp_path)


@pytest.mark.parametrize("f_coeffs, g_coeffs, message", [
    # F' and G' overflow to inf: the margin is nan
    ([[0.0, 0.0], [0.0, 0.0], [1e308, 0.0]],
     [[0.0, 0.0], [0.0, 0.0], [1.5e308, 0.0]], "margin nan"),
    # a finite margin, but |G|^2 overflows in the height
    ([[0.0, 0.0], [1e300, 0.0]], [[0.0, 0.0], [1.5e300, 0.0]],
     "overflows float64"),
], ids=["nan_margin", "vertex_overflow"])
def test_weierstrass_rejects_overflowing_pair(tmp_path, f_coeffs, g_coeffs,
                                              message, capsys):
    cfg = dict(weierstrass_config(16),
               weierstrass={"f_coeffs": f_coeffs, "g_coeffs": g_coeffs})
    path = tmp_path / "w.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    rc = cli.main(["weierstrass", "--config", str(path), "--out-dir", str(out)])
    assert rc == 2 and message in capsys.readouterr().err
    assert not (out / "mesh.obj").exists()
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("case", ["minlag_ch2", "elliptic_affine_sphere"])
def test_weierstrass_rejects_other_case(tmp_path, case):
    # the stage builds parabolic affine spheres only; it must not report
    # one under another case
    path = tmp_path / "w.json"
    path.write_text(json.dumps(dict(weierstrass_config(16), case=case)))
    out = tmp_path / "out"
    rc = cli.main(["weierstrass", "--config", str(path), "--out-dir", str(out)])
    assert rc == 2
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("existing", [False, True], ids=["made", "existing"])
def test_rejected_pair_leaves_out_dir_as_found(tmp_path, existing):
    # F = G = z: the stage rejects the pair after the run made --out-dir,
    # and removes what it made; a directory that was there stays
    cfg = dict(weierstrass_config(16),
               weierstrass={"f_coeffs": [[0.0, 0.0], [1.0, 0.0]],
                            "g_coeffs": [[0.0, 0.0], [1.0, 0.0]]})
    path = tmp_path / "w.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out" / "run"
    if existing:
        out.mkdir(parents=True)
    rc = cli.main(["weierstrass", "--config", str(path), "--out-dir", str(out)])
    assert rc == 2
    if existing:
        assert list(out.iterdir()) == []
    else:
        assert not (tmp_path / "out").exists()


# -- mesh serialization ---------------------------------------------------------

def tiny_mesh():
    dom = tz.Domain.rectangle(1.0, 1.0, 8, 8)
    verts = np.arange(12, dtype=float).reshape(2, 2, 3) / 7.0
    return tz.ImmersionMesh(dom, verts, "affine_sphere", lam=-1)


def test_export_obj_tiny(tmp_path):
    mesh = tiny_mesh()
    path = tmp_path / "tiny.obj"
    cli.export_mesh(mesh, path)
    lines = path.read_text().splitlines()
    assert sum(1 for ln in lines if ln.startswith("v ")) == 4
    assert sum(1 for ln in lines if ln.startswith("f ")) == 1
    assert lines[-1].split() == ["f", "1", "3", "4", "2"]


def test_export_obj_rejects_complex(tmp_path):
    dom = tz.Domain.rectangle(1.0, 1.0, 8, 8)
    mesh = tz.ImmersionMesh(dom, np.zeros((2, 2, 2), complex), "minlag_c2")
    with pytest.raises(TiteicaError, match="not embeddable"):
        cli.export_mesh(mesh, tmp_path / "c2.obj")


def reference_json(mesh):
    """The tolist + json.dumps writer the streamed JSON writer replaced."""
    v = np.asarray(mesh.vertices)
    if np.iscomplexobj(v):
        verts = np.stack([v.real, v.imag], axis=-1).tolist()
        encoding = "complex"
    else:
        verts = v.tolist()
        encoding = "real"
    payload = {"schema_version": cli.SCHEMA_VERSION, "target": mesh.target_tag,
               "lam": mesh.lam, "shape": list(v.shape[:2]),
               "encoding": encoding, "vertices": verts}
    return json.dumps(payload)


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def assert_json_roundtrip(tmp_path, mesh):
    path = tmp_path / "mesh.json"
    cli.export_mesh(mesh, path)
    back = cli.load_mesh_vertices(path)
    assert back.shape == mesh.vertices.shape
    # the uint64 views: the sign of zero counts
    assert np.array_equal(bits(back), bits(mesh.vertices))
    got = json.loads(path.read_text())
    assert got == json.loads(reference_json(mesh))
    assert got["shape"] == [len(got["vertices"]), len(got["vertices"][0])]


def complex_mesh(re, im):
    verts = np.empty(re.shape, complex)
    verts.real, verts.imag = re, im
    dom = tz.Domain.rectangle(1.0, 1.0, 8, 8)
    return tz.ImmersionMesh(dom, verts, "minlag_ch2")


def test_json_roundtrip_bit_exact(tmp_path, torus_mesh):
    for mesh in [torus_mesh, special_float_mesh(), random_mesh(1, 1),
                 random_mesh(1, 6), random_mesh(6, 1)]:
        assert_json_roundtrip(tmp_path, mesh)


def test_json_roundtrip_complex(tmp_path):
    dom = tz.Domain.rectangle(0.5, 0.5, 16, 16)
    sol = tz.MetricSolution(np.full(dom.shape, np.log(2.0)), dom,
                            tz.BackgroundMetric("flat"))
    special = special_float_mesh().vertices
    rng = np.random.default_rng(5)
    meshes = [tz.minlag_c2_immersion(sol, tz.CubicDifferential.constant(0.0)),
              complex_mesh(special, special[::-1, ::-1])]
    for shape in [(1, 1, 3), (1, 6, 3), (6, 1, 3)]:
        meshes.append(complex_mesh(*rng.standard_normal((2,) + shape)))
    for mesh in meshes:
        assert_json_roundtrip(tmp_path, mesh)


def test_obj_precision_roundtrip(tmp_path, torus_mesh):
    path = tmp_path / "mesh.obj"
    cli.export_mesh(torus_mesh, path)
    vs = []
    for ln in path.read_text().splitlines():
        if ln.startswith("v "):
            vs.append([float(t) for t in ln.split()[1:]])
    back = np.asarray(vs).reshape(torus_mesh.vertices.shape)
    # 17 significant digits round-trip binary64 exactly
    assert np.array_equal(back, torus_mesh.vertices)


def reference_obj(mesh):
    """The per-line formatter the streamed OBJ writer replaced."""
    v = mesh.vertices.reshape(-1, 3)
    lines = [f"v {x:.17g} {y:.17g} {z:.17g}" for x, y, z in v]
    lines += ["f " + " ".join(str(i + 1) for i in quad)
              for quad in mesh.faces]
    return ("\n".join(lines) + "\n").encode()


def special_float_mesh():
    # 7 x 5 vertices, so a transposed face ordering cannot pass
    rng = np.random.default_rng(3)
    verts = rng.standard_normal((7, 5, 3)) * 10.0 ** rng.integers(-8, 8, (7, 5, 3))
    verts[0, 0] = [-0.0, 1e-300, -1.5e+200]
    verts[3, 4] = [2.0, -7.0, 0.0]
    verts[6, 2] = [np.pi, 5e-324, 1.7976931348623157e308]
    return vertex_mesh(verts)


def vertex_mesh(verts):
    """Mesh without a frame: the OBJ writer reads only the vertices."""
    dom = tz.Domain.rectangle(1.0, 1.0, 8, 8)
    return tz.ImmersionMesh(dom, verts, "affine_sphere", lam=0)


def random_mesh(n, m, seed=0):
    return vertex_mesh(np.random.default_rng(seed).standard_normal((n, m, 3)))


def test_export_obj_matches_line_writer(tmp_path):
    mesh = special_float_mesh()
    path = tmp_path / "mesh.obj"
    cli.export_mesh(mesh, path)
    assert path.read_bytes() == reference_obj(mesh)


# The "forked" and "worker" test names below are kept from the two-process
# OBJ writer that the serial block writer replaced; what they check, the
# bytes of the export and its failure contract, is unchanged.
@pytest.mark.parametrize("mesh", [
    special_float_mesh(), random_mesh(130, 7), random_mesh(3, 130),
], ids=["7x5_special", "130x7", "3x130"])
def test_forked_obj_matches_line_writer(tmp_path, monkeypatch, mesh):
    # blocks of 1, 7 and 64 values end inside vertex and face rows, and
    # the quads are formatted one grid row at a time or several
    path = tmp_path / "mesh.obj"
    for block in (1, 7, 64):
        monkeypatch.setattr(_objtext, "BLOCK", block)
        cli.export_mesh(mesh, path)
        assert path.read_bytes() == reference_obj(mesh), f"block {block}"


def failing_faces(monkeypatch, exc):
    """Make the OBJ writer raise exc after its first block of faces, of
    one or two grid rows."""
    face_rows = _objtext.face_rows

    def failing(n, m):
        yield next(face_rows(n, m))
        raise exc

    monkeypatch.setattr(_objtext, "BLOCK", 64)
    monkeypatch.setattr(_objtext, "face_rows", failing)


def test_worker_failure_removes_target(tmp_path, monkeypatch):
    failing_faces(monkeypatch, OSError(errno.ENOSPC, "No space left on device"))
    path = tmp_path / "mesh.obj"
    with pytest.raises(TiteicaError, match=r"^cannot write mesh\.obj: .*No space"):
        cli.export_mesh(random_mesh(130, 7), path)
    assert list(tmp_path.iterdir()) == []


def test_worker_failure_reraises_other_errors(tmp_path, monkeypatch):
    failing_faces(monkeypatch, RuntimeError("formatter bug"))
    with pytest.raises(RuntimeError, match="formatter bug"):
        cli.export_mesh(random_mesh(130, 7), tmp_path / "mesh.obj")
    assert list(tmp_path.iterdir()) == []


def test_worker_failure_keeps_report(tmp_path, monkeypatch):
    failing_faces(monkeypatch, OSError(errno.ENOSPC, "No space left on device"))
    code, report = cli.run(weierstrass_config(33), stage="weierstrass",
                           out_dir=tmp_path)
    assert code == 1
    assert not (tmp_path / "mesh.obj").exists()
    on_disk = json.loads((tmp_path / "report.json").read_text())
    assert on_disk["passed"] is False
    assert on_disk["warnings"] == [
        "TiteicaError: cannot write mesh.obj: [Errno 28] No space left on device"]
    assert "export" not in on_disk["timings"]


# exports a random 512^2 mesh in a fresh interpreter and prints VmHWM and
# VmRSS (KiB) before the export and VmHWM after it
_EXPORT_MEMORY = """
import json, sys
import numpy as np
import titeica as tz
from titeica import cli

def status():
    with open("/proc/self/status") as fh:
        fields = dict(line.split(":", 1) for line in fh)
    return {k: int(fields[k].split()[0]) for k in ("VmHWM", "VmRSS")}

verts = np.random.default_rng(6).standard_normal((512, 512, 3))
mesh = tz.ImmersionMesh(tz.Domain.rectangle(1.0, 1.0, 8, 8), verts,
                        "affine_sphere", lam=0)
before = status()
cli.export_mesh(mesh, sys.argv[1])
print(json.dumps([before, status()]))
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="needs /proc/self/status")
def test_export_memory_is_bounded(tmp_path):
    path = tmp_path / "mesh.obj"
    out = subprocess.run([sys.executable, "-c", _EXPORT_MEMORY, str(path)],
                         capture_output=True, text=True, env=_fresh_env(),
                         check=True, timeout=300)
    before, after = json.loads(out.stdout)
    mib = 1024
    # the peak so far is the present size, so any peak of the export shows
    assert before["VmHWM"] - before["VmRSS"] < 2 * mib
    # the whole text at once would not fit under the bound
    assert path.stat().st_size > 16 * mib * 1024
    assert after["VmHWM"] - before["VmHWM"] < 6 * mib


def test_report_times_every_stage(tmp_path):
    code, report = cli.run(torus_config(domain={"kind": "torus",
                                                "tau": [0.0, 1.0],
                                                "shape": [16, 16]}),
                           stage="all", out_dir=tmp_path)
    assert code == 0
    on_disk = json.loads((tmp_path / "report.json").read_text())
    for timings in (report["timings"], on_disk["timings"]):
        assert set(timings) == {"solve", "immerse", "verify", "develop",
                                "export"}
        assert all(t >= 0.0 for t in timings.values())


def test_failing_export_keeps_report(tmp_path):
    cfg = {
        "schema_version": 1, "case": "minlag_c2",
        "domain": {"kind": "rectangle", "shape": [16, 16]},
        "metric": {"kind": "flat"},
        "cubic": {"kind": "constant", "c": [0.0, 0.0]},
        "solver": {"method": "newton"},
        "outputs": {"mesh": "mesh.obj", "report": "report.json"},
    }
    code, report = cli.run(cfg, stage="immerse", out_dir=tmp_path)
    assert code == 1
    assert not (tmp_path / "mesh.obj").exists()
    on_disk = json.loads((tmp_path / "report.json").read_text())
    assert on_disk["passed"] is False
    assert on_disk["warnings"] == ["TiteicaError: target not embeddable in R^3"]
    assert "export" not in on_disk["timings"]


def _c2_config(n):
    return {
        "schema_version": 1, "case": "minlag_c2",
        "domain": {"kind": "rectangle", "shape": [n, n]},
        "metric": {"kind": "flat"},
        "cubic": {"kind": "constant", "c": [0.0, 0.0]},
        "solver": {"method": "newton"},
    }


def test_failing_json_export_keeps_report(tmp_path, monkeypatch):
    json_text = cli._json_text

    def failing(mesh):
        yield next(json_text(mesh))
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(cli, "_json_text", failing)
    cfg = dict(_c2_config(16),
               outputs={"mesh": "mesh.json", "report": "report.json"})
    code, report = cli.run(cfg, stage="immerse", out_dir=tmp_path)
    assert code == 1
    assert list(tmp_path.iterdir()) == [tmp_path / "report.json"]
    on_disk = json.loads((tmp_path / "report.json").read_text())
    assert on_disk["passed"] is False
    [warning] = on_disk["warnings"]
    assert warning.startswith("TiteicaError: cannot write mesh.json: ")
    assert "export" not in on_disk["timings"]


def _ch2_config(n):
    return {
        "schema_version": 1, "case": "minlag_ch2",
        "domain": {"kind": "disk_patch", "radius": 0.7, "shape": [n, n]},
        "metric": {"kind": "poincare_disk"},
        "cubic": {"kind": "constant", "c": [0.3, 0.0]},
        "solver": {"method": "newton"},
    }


AFFINE_TORUS_GATES = ["solve", "det_identity", "f_zzbar", "f_zz",
                      "cubic_recovery", "det_drift", "curvature",
                      "holonomy_commutator"]
C2_GATES = ["solve", "angle_oscillation", "f_zzbar", "conformal",
            "lagrangian", "symplectic", "cubic_recovery", "metric"]
CH2_GATES = ["solve", "unitarity", "horizontality", "metric", "curvature"]
PARABOLIC_GATES = ["solve", "det_identity", "f_zzbar", "f_zz",
                   "cubic_recovery", "monge_ampere", "legendre_roundtrip"]


def _torus_config(n):
    return torus_config(domain={"kind": "torus", "tau": [0.0, 1.0],
                                "shape": [n, n]})


def _parabolic_config(n):
    return rectangle_config(
        case="parabolic_affine_sphere",
        domain={"kind": "rectangle", "shape": [n, n]},
        cubic={"kind": "polynomial", "coeffs": [[0.3, 0.0], [0.2, 0.0]]})


GATE_ROWS = [
    (_torus_config(16), "all", AFFINE_TORUS_GATES),
    (_c2_config(16), "all", C2_GATES),
    (_ch2_config(16), "all", CH2_GATES),
    (_parabolic_config(16), "all", PARABOLIC_GATES),
    (weierstrass_config(16), "weierstrass", ["monge_ampere"]),
    (_ch2_config(16), "solve", ["solve"]),
]


@pytest.mark.parametrize("cfg, stage, names", GATE_ROWS,
                         ids=["affine_torus", "c2_rectangle", "ch2_disk_patch",
                              "parabolic_rectangle", "weierstrass",
                              "ch2_solve"])
def test_every_residual_has_a_tolerance(tmp_path, cfg, stage, names):
    # each surface reports the same gates, in the same order, each with
    # its tolerance, and no tolerance outlives its gate
    _, report = cli.run(cfg, stage=stage, out_dir=tmp_path)
    assert [r["name"] for r in report["residuals"]] == names
    assert set().union(*(row[2] for row in GATE_ROWS)) == set(cli.TOL_COEFF)


def _mutated_failures(cfg, mutation):
    """Names of the gates that `Pipeline.verify` fails on the solved and
    reconstructed surface of cfg after one mutation of its data."""
    pipe = cli.Pipeline(cfg)
    pipe.solve()
    pipe.immerse()
    if mutation == "vertices":
        bump = 0.1 * pipe.domain.hmax * np.sin(2.0 * np.pi * pipe.domain.z.real)
        pipe.mesh.vertices = pipe.mesh.vertices + bump[..., None]
    elif mutation == "psi":
        # psi = (u + log(sigma / 2)) / 2
        sol = pipe.solution
        pipe.solution = tz.MetricSolution(sol.u + 0.02, sol.domain, sol.mu)
    elif mutation == "Q":
        pipe.problem = dataclasses.replace(pipe.problem,
                                           Q=pipe.problem.Q.scaled(1j))
    else:  # swap the first and last frame columns
        pipe.mesh.frame = pipe.mesh.frame[..., [2, 1, 0]]
    checked = len(pipe.residuals)
    pipe.verify()
    return [r["name"] for r in pipe.residuals[checked:] if not r["pass"]]


def _c2_mutation_config(n):
    return dict(_c2_config(n), cubic={"kind": "constant", "c": [0.3, 0.0]})


# the gates each mutation fails at 32^2.  An empty list is a mutation that
# no gate sees: on C^2 the metric gate (200 h^2) passes a 2% metric error,
# and on CH^2 no gate reads Q or a second derivative of the vertices
@pytest.mark.parametrize("make_cfg, mutation, failed", [
    (_torus_config, "vertices", ["det_identity", "f_zzbar", "f_zz",
                                 "cubic_recovery", "det_drift"]),
    (_torus_config, "psi", ["f_zzbar", "f_zz", "cubic_recovery", "curvature",
                            "holonomy_commutator"]),
    (_torus_config, "Q", ["f_zz", "cubic_recovery"]),
    (_c2_mutation_config, "vertices", ["f_zzbar", "cubic_recovery"]),
    (_c2_mutation_config, "psi", []),
    (_c2_mutation_config, "Q", ["cubic_recovery"]),
    (_ch2_config, "vertices", []),
    (_ch2_config, "psi", ["curvature"]),
    (_ch2_config, "Q", []),
    (_ch2_config, "swap", ["unitarity"]),
], ids=["affine_torus-vertices", "affine_torus-psi", "affine_torus-Q",
        "c2_rectangle-vertices", "c2_rectangle-psi", "c2_rectangle-Q",
        "ch2_disk_patch-vertices", "ch2_disk_patch-psi", "ch2_disk_patch-Q",
        "ch2_disk_patch-swap"])
def test_verify_mutations_fail_the_same_gates(make_cfg, mutation, failed):
    assert _mutated_failures(make_cfg(32), mutation) == failed


def test_report_is_self_describing(tmp_path):
    code, report = cli.run(torus_config(), stage="verify", out_dir=tmp_path)
    assert code == 0
    for r in report["residuals"]:
        assert r["tolerance"] > 0
        assert r["grid"] == [32, 32]
        assert r["case"] == "hyperbolic_affine_sphere"


def test_determinism(tmp_path):
    _, rep1 = cli.run(torus_config(), stage="verify", out_dir=tmp_path / "a")
    _, rep2 = cli.run(torus_config(), stage="verify", out_dir=tmp_path / "b")
    v1 = {r["name"]: r["value"] for r in rep1["residuals"]}
    v2 = {r["name"]: r["value"] for r in rep2["residuals"]}
    assert v1 == v2


@pytest.mark.parametrize("cfg", [
    torus_config(),
    dict(_ch2_config(16), solver={"method": "newton",
                                  "t_grid": [0.0, 0.5, 1.0]})],
    ids=["torus", "ch2_continuation"])
def test_run_computes_psi_once(tmp_path, monkeypatch, cfg):
    # immerse and verify read the solution's psi three times; the first
    # read computes it, from sigma(z) and local_weight, and the others
    # reuse it
    calls = []
    weight = tz.geometry.local_weight

    def counted(*args):
        calls.append(args)
        return weight(*args)

    monkeypatch.setattr(tz.geometry, "local_weight", counted)
    code, _ = cli.run(cfg, stage="all", out_dir=tmp_path)
    assert code == 0
    assert len(calls) == 1


def test_cli_continuation_stage(tmp_path):
    cfg = {
        "schema_version": 1, "case": "minlag_ch2",
        "domain": {"kind": "disk_patch", "radius": 0.7, "shape": [25, 25]},
        "metric": {"kind": "poincare_disk"},
        "cubic": {"kind": "constant", "c": [1.0, 0.0]},
        "solver": {"method": "newton", "t_grid": [0.0, 0.15, 0.3, 0.45]},
        "outputs": {"report": "report.json"},
    }
    code, report = cli.run(cfg, stage="all", out_dir=tmp_path)
    assert code == 0
    assert report["continuation"]["failure_index"] is None
    assert report["continuation"]["converged"] == [True] * 4
    # 25 nodes cannot be halved to 16 or more: the path runs on the grid
    assert report["continuation"]["grid"] == [25, 25]
    assert report["cubic_norm_induced_max"] <= 0.25
    assert report["failed_checks"] == []


def test_cli_nested_continuation(tmp_path):
    cfg = {
        "schema_version": 1, "case": "minlag_ch2",
        "domain": {"kind": "disk_patch", "radius": 0.7, "shape": [40, 40]},
        "metric": {"kind": "poincare_disk"},
        "cubic": {"kind": "constant", "c": [1.0, 0.0]},
        "solver": {"method": "newton", "t_grid": [0.0, 0.15, 0.3, 0.45]},
        "outputs": {"report": "report.json"},
    }
    code, report = cli.run(cfg, stage="all", out_dir=tmp_path)
    assert code == 0 and report["failed_checks"] == []
    cont = report["continuation"]
    assert cont["grid"] == [20, 20] and cont["converged"] == [True] * 4
    pipe = cli.Pipeline(cfg)
    fam = tz.continuation_family(pipe.problem, pipe.Q, cfg["solver"]["t_grid"])
    # the coarse path's solves, its last one included, and the fine one
    assert report["solver"]["linear_iters"] == fam.linear_iters
    assert fam.linear_iters > sum(r.info["linear_iters"] for r in fam.reports)
    assert report["solver"]["history"] == fam.reports[-1].info["history"]
    assert report["solver"]["iterations"] <= 2


def test_solve_keeps_the_continuation_problem(monkeypatch):
    # the stages after the solve read the last t's problem, the one the
    # fine solve built, not a rebuilt one; the sigma and ||Q||^2 that the
    # solve cached are freed
    families = []
    family = cli.continuation_family

    def recorded(*args, **kwargs):
        families.append(family(*args, **kwargs))
        return families[-1]

    monkeypatch.setattr(cli, "continuation_family", recorded)
    cfg = _ch2_config(40)
    cfg["solver"] = {"method": "newton", "t_grid": [0.0, 0.2, 0.4]}
    pipe = cli.Pipeline(cfg)
    pipe.solve()
    [fam] = families
    assert pipe.problem is fam.problem
    assert pipe.problem.Q == pipe.Q.scaled(0.4)
    assert "_fields" not in vars(pipe.problem)


@pytest.mark.parametrize("method", ["newton", "monotone"])
def test_solve_frees_the_problem_fields(method):
    cfg = dict(_ch2_config(24), case="hyperbolic_affine_sphere",
               solver={"method": method})
    pipe = cli.Pipeline(cfg)
    sigma = pipe.problem.sigma.copy()
    pipe.solve()
    assert "_fields" not in vars(pipe.problem)
    assert np.array_equal(pipe.problem.sigma, sigma)  # read again on demand


def test_cli_linear_iters_summed_over_continuation(tmp_path):
    cfg = {
        "schema_version": 1, "case": "minlag_ch2",
        "domain": {"kind": "disk_patch", "radius": 0.7, "shape": [25, 25]},
        "metric": {"kind": "poincare_disk"},
        "cubic": {"kind": "constant", "c": [1.0, 0.0]},
        "solver": {"method": "newton", "t_grid": [0.0, 0.15, 0.3]},
        "outputs": {"report": "report.json"},
    }
    _, report = cli.run(cfg, stage="solve", out_dir=tmp_path)
    pipe = cli.Pipeline(cfg)
    fam = tz.continuation_family(pipe.problem, pipe.Q, [0.0, 0.15, 0.3])
    steps = [r.info["linear_iters"] for r in fam.reports]
    assert all(k > 0 for k in steps[1:])
    assert report["solver"]["linear_iters"] == sum(steps)
    # the per-step record is the last solve's
    hist = report["solver"]["history"]
    assert hist == fam.reports[-1].info["history"]
    assert sum(hist["linear_iters"]) == steps[-1]
    assert len(hist["eta"]) == report["solver"]["iterations"]


def test_cli_reports_linear_stall(tmp_path, monkeypatch):
    def failing_cg(A, b, **kwargs):
        return np.zeros_like(b), 1

    monkeypatch.setattr(pde, "cg", failing_cg)
    code, report = cli.run(torus_config(), stage="all", out_dir=tmp_path)
    assert code == 3 and report["passed"] is False
    s = report["solver"]
    assert not s["converged"] and s["iterations"] == 1
    assert s["linear_iters"] == 0
    assert s["reason"].startswith("linear_stall: ")
    assert report["warnings"][0] == (
        f"SolveError: solver did not converge: {s['reason']}")


def test_cli_monotone_meets_tol(tmp_path):
    # the monotone iteration runs to the configured tolerance, not to a
    # looser floor of its own, on a disk patch and on a torus
    disk = {
        "schema_version": 1, "case": "hyperbolic_affine_sphere",
        "domain": {"kind": "disk_patch", "radius": 0.7, "shape": [48, 48]},
        "metric": {"kind": "poincare_disk"},
        "cubic": {"kind": "polynomial", "coeffs": [[0.5, 0.0], [0.3, 0.0]]},
        "solver": {"method": "monotone", "tol": 1e-10},
        "outputs": {"report": "report.json"},
    }
    torus = torus_config(solver={"method": "monotone", "tol": 1e-10},
                         outputs={"report": "report.json"})
    for cfg in (disk, torus):
        code, report = cli.run(cfg, stage="solve", out_dir=tmp_path)
        s = report["solver"]
        assert code == 0 and s["method"] == "monotone" and s["converged"]
        assert s["residual_inf"] <= 1e-10


def test_cli_oblique_torus(tmp_path):
    # the mesh checks take their stencils on a non-periodic copy of the
    # torus domain, which keeps the lattice cross term
    cfg = torus_config(domain={"kind": "torus", "tau": [0.3, 1.1],
                               "shape": [16, 16]})
    code, report = cli.run(cfg, stage="all", out_dir=tmp_path)
    assert code == 0 and report["passed"]
    assert (tmp_path / "report.json").exists()
    assert AFFINE_TORUS_GATES == [r["name"] for r in report["residuals"]]


def test_cli_parabolic_develop(tmp_path):
    cfg = {
        "schema_version": 1, "case": "parabolic_affine_sphere",
        "domain": {"kind": "rectangle", "width": 0.8, "height": 0.8,
                   "shape": [24, 24]},
        "metric": {"kind": "flat"},
        "cubic": {"kind": "constant", "c": [0.0, 0.0]},
        "solver": {"method": "newton"},
        "outputs": {"report": "report.json"},
    }
    code, report = cli.run(cfg, stage="all", out_dir=tmp_path)
    assert code == 0
    assert "semiflat" in report
    assert report["semiflat"]["legendre_roundtrip"] <= 1e-8
    gated = {r["name"]: r for r in report["residuals"]}
    assert gated["monge_ampere"]["pass"]
    assert gated["legendre_roundtrip"]["pass"]
    assert (gated["legendre_roundtrip"]["value"]
            == report["semiflat"]["legendre_roundtrip"])


def parabolic_develop_config(n):
    return {
        "schema_version": 1, "case": "parabolic_affine_sphere",
        "domain": {"kind": "rectangle", "width": 1.0, "height": 1.0,
                   "shape": [n, n]},
        "metric": {"kind": "flat"},
        "cubic": {"kind": "polynomial", "coeffs": [[0.3, 0.0], [0.2, 0.0]]},
        "boundary": 0.5,
        "solver": {"method": "newton"},
        "outputs": {"report": "report.json"},
    }


@pytest.mark.parametrize("n", [24, 48])
def test_legendre_roundtrip_is_second_order(tmp_path, n):
    code, report = cli.run(parabolic_develop_config(n), stage="all",
                           out_dir=tmp_path)
    assert code == 0
    entry, = (r for r in report["residuals"]
              if r["name"] == "legendre_roundtrip")
    h = 1.0 / (n - 1)
    # measured 0.12 h^2 at 24^2 and 0.15 h^2 at 48^2
    assert entry["pass"] and entry["value"] <= 0.2 * h * h


def test_develop_gates_monge_ampere_as_the_weierstrass_stage():
    # develop reads the gate off its whole-grid development; the
    # weierstrass stage streams it over blocks of rows
    pipe = cli.Pipeline(parabolic_develop_config(24))
    for step in cli.STAGES["all"]:
        getattr(pipe, step)()
    entry, = (r for r in pipe.residuals if r["name"] == "monge_ampere")
    assert entry["value"] == monge_ampere_gate(pipe.mesh.vertices)


def test_legendre_sign_error_fails_develop(tmp_path, monkeypatch):
    def wrong_sign(mesh):
        sf = tz.semiflat_develop(mesh)
        sf.phi_star = -sf.phi_star   # phi - x.y instead of x.y - phi
        return sf

    monkeypatch.setattr(cli, "semiflat_develop", wrong_sign)
    code, report = cli.run(parabolic_develop_config(24), stage="all",
                           out_dir=tmp_path)
    assert code == 1 and not report["passed"]
    failed = [r["name"] for r in report["residuals"] if not r["pass"]]
    assert failed == ["legendre_roundtrip"]


def test_develop_reports_the_quadric_fit(tmp_path):
    code, report = cli.run(torus_config(), stage="develop", out_dir=tmp_path)
    assert code == 0
    dev = json.loads((tmp_path / "report.json").read_text())["develop"]
    assert set(dev) == {"quadric_residual", "quadric_signature"}
    assert dev["quadric_signature"] == [2, 1]
    assert 1e-4 < dev["quadric_residual"] < 1e-2


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_vertex_fails_develop(tmp_path, monkeypatch, bad):
    # a vertex set after verify, so that only the quadric fit reads it
    develop = cli.Pipeline.develop

    def spoiled(self):
        self.mesh.vertices[3, 4, 1] = bad
        develop(self)

    monkeypatch.setattr(cli.Pipeline, "develop", spoiled)
    code, report = cli.run(torus_config(), stage="all", out_dir=tmp_path)
    assert code == 1 and not report["passed"]
    assert "DegenerateVertexError: non-finite point" in report["warnings"]
    assert "develop" not in report
    on_disk = json.loads((tmp_path / "report.json").read_text())
    assert on_disk["warnings"] == report["warnings"]
    assert on_disk["failed_checks"] == []
