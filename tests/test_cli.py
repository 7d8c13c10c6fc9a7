import json
import warnings

import numpy as np
import pytest

import titeica as tz
from titeica import cli, pde
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
    assert report["residuals"] == []
    assert report["solver"]["converged"]


def test_malformed_case_exits_2(tmp_path):
    cfg = torus_config(case="not_a_geometry")
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    rc = cli.main(["solve", "--config", str(path), "--out-dir", str(tmp_path)])
    assert rc == 2


def test_unreadable_config_exits_2(tmp_path):
    rc = cli.main(["solve", "--config", str(tmp_path / "missing.json")])
    assert rc == 2


def test_gauss_bonnet_obstruction_exits_3(tmp_path):
    cfg = torus_config(case="minlag_ch2")
    cfg["solver"] = {"method": "newton", "tol": 1e-10, "max_iter": 25,
                     "require_convergence": True}
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
    assert code == 1
    assert report["passed"] is False
    assert "no check ran" in report["warnings"]
    on_disk = json.loads((tmp_path / "report.json").read_text())
    assert on_disk["passed"] is False


@pytest.mark.parametrize("stage", ["solve", "immerse"])
def test_unconverged_solve_stage_keeps_exit_0(tmp_path, stage):
    code, report = cli.run(diverging_c2_config(), stage=stage, out_dir=tmp_path)
    assert not report["solver"]["converged"]
    assert code == 0


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


def test_cli_reports_spsolve_fallbacks(tmp_path, monkeypatch):
    def failing_cg(A, b, **kwargs):
        return np.zeros_like(b), 1

    monkeypatch.setattr(pde, "cg", failing_cg)
    _, report = cli.run(torus_config(), stage="solve", out_dir=tmp_path)
    s = report["solver"]
    assert s["converged"] and s["iterations"] > 0
    assert s["spsolve_fallbacks"] == s["iterations"]
    assert s["linear_iters"] == 0


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
