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
        "det_identity", "curvature", "reality", "holonomy_commutator"}
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
        "mesh_subdir"])
def test_malformed_config_value_exits_2(tmp_path, key, value):
    cfg = torus_config(**{key: value})
    # caught while the pipeline is built, before any stage runs
    with pytest.raises(ConfigError):
        cli.Pipeline(cfg)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    rc = cli.main(["solve", "--config", str(path), "--out-dir", str(tmp_path)])
    assert rc == 2


def test_gauss_bonnet_obstruction_exits_3(tmp_path):
    cfg = torus_config(case="minlag_ch2")
    cfg["solver"] = {"method": "newton", "tol": 1e-10, "max_iter": 25}
    path = tmp_path / "ch2.json"
    path.write_text(json.dumps(cfg))
    rc = cli.main(["solve", "--config", str(path), "--out-dir", str(tmp_path)])
    assert rc == 3
    report = json.loads((tmp_path / "report.json").read_text())
    assert not report["solver"]["converged"]


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
    assert report["warnings"][0].startswith(
        "SolveError: solver did not converge")
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
    assert any(r["name"] == "monge_ampere" and r["pass"]
               for r in report["residuals"])


# runs cli.main on the argv given as JSON in sys.argv[1] in a fresh
# interpreter, then prints the exit code and every scipy module loaded
_FRESH_RUN = """
import json, sys
from titeica import cli
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


def _fresh_run(tmp_path, cfg, stage):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    argv = ["--help"] if stage is None else [
        stage, "--config", str(path), "--out-dir", str(tmp_path)]
    out = subprocess.run([sys.executable, "-c", _FRESH_RUN, json.dumps(argv)],
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
    # the Krylov solves and their transforms are numpy's; scipy is left
    # to the direct fallback, which a converging solve never reaches
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
    assert solver["linear_iters"] > 0 and solver["spsolve_fallbacks"] == 0


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


# -- mesh serialization ---------------------------------------------------------

def tiny_mesh():
    dom = tz.Domain.rectangle(1.0, 1.0, 8, 8)
    verts = np.arange(12, dtype=float).reshape(2, 2, 3) / 7.0
    return tz.ImmersionMesh(dom, verts, np.zeros((2, 2, 3, 3), complex),
                            "affine_sphere", lam=-1)


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
    mesh = tz.ImmersionMesh(dom, np.zeros((2, 2, 2), complex),
                            np.zeros((2, 2, 2, 2), complex), "minlag_c2")
    with pytest.raises(TiteicaError, match="not embeddable"):
        cli.export_mesh(mesh, tmp_path / "c2.obj")


def test_json_roundtrip_bit_exact(tmp_path, torus_mesh):
    path = tmp_path / "mesh.json"
    cli.export_mesh(torus_mesh, path)
    back = cli.load_mesh_vertices(path)
    assert back.shape == torus_mesh.vertices.shape
    assert np.array_equal(back, torus_mesh.vertices)


def test_json_roundtrip_complex(tmp_path):
    dom = tz.Domain.rectangle(0.5, 0.5, 16, 16)
    sol = tz.MetricSolution(np.full(dom.shape, np.log(2.0)), dom,
                            tz.BackgroundMetric("flat"))
    mesh = tz.minlag_c2_immersion(sol, tz.CubicDifferential.constant(0.0))
    path = tmp_path / "c2.json"
    cli.export_mesh(mesh, path)
    back = cli.load_mesh_vertices(path)
    assert np.array_equal(back, mesh.vertices)


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
    return tz.ImmersionMesh(dom, verts, None, "affine_sphere", lam=0)


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
    """Make the OBJ writer raise exc after its first block of faces."""
    int_rows = _objtext.int_rows

    def failing(values):
        yield next(int_rows(values))
        raise exc

    monkeypatch.setattr(_objtext, "int_rows", failing)


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
mesh = tz.ImmersionMesh(tz.Domain.rectangle(1.0, 1.0, 8, 8), verts, None,
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
    assert after["VmHWM"] - before["VmHWM"] < 16 * mib


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


@pytest.mark.parametrize("cfg, stage", [
    (torus_config(domain={"kind": "torus", "tau": [0.0, 1.0],
                          "shape": [16, 16]}), "all"),
    (_c2_config(16), "all"),
    (_ch2_config(16), "all"),
    (weierstrass_config(16), "weierstrass"),
    (_ch2_config(16), "solve"),
], ids=["affine_torus", "c2_rectangle", "ch2_disk_patch", "weierstrass",
        "ch2_solve"])
def test_every_residual_has_a_tolerance(tmp_path, cfg, stage):
    _, report = cli.run(cfg, stage=stage, out_dir=tmp_path)
    names = {r["name"] for r in report["residuals"]}
    assert names and names <= set(cli.TOL_COEFF)


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
    assert report["cubic_norm_induced_max"] <= 0.25
    assert report["failed_checks"] == []


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
    assert report["solver"]["spsolve_fallbacks"] == 0
    # the per-step record is the last solve's
    hist = report["solver"]["history"]
    assert hist == fam.reports[-1].info["history"]
    assert sum(hist["linear_iters"]) == steps[-1]
    assert len(hist["eta"]) == report["solver"]["iterations"]


def test_cli_reports_spsolve_fallbacks(tmp_path, monkeypatch):
    def failing_cg(A, b, **kwargs):
        return np.zeros_like(b), 1

    monkeypatch.setattr(pde, "cg", failing_cg)
    _, report = cli.run(torus_config(), stage="solve", out_dir=tmp_path)
    s = report["solver"]
    assert s["converged"] and s["iterations"] > 0
    assert s["spsolve_fallbacks"] == s["iterations"]
    assert s["linear_iters"] == 0


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
    assert "center_normalization" in {r["name"] for r in report["residuals"]}


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
    assert any(r["name"] == "monge_ampere" and r["pass"]
               for r in report["residuals"])
