"""Tests of the benchmark itself: the correctness check, the tracer, the
host probe and the seeded workloads.  Run with ``python -m pytest pipebench``."""

import signal
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import check  # noqa: E402
import probe  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from titeica import _kernels, cli, frames, immersion, pde  # noqa: E402

# Newton diverges on this config, yet cli.run returns exit code 0 with
# passed: true and no residual check.
KNOWN_BAD = {
    "schema_version": 1, "case": "minlag_c2",
    "domain": {"kind": "rectangle", "width": 1.0, "height": 1.0,
               "shape": [64, 64]},
    "metric": {"kind": "flat"},
    "cubic": {"kind": "polynomial", "coeffs": [[0.5, 0.0], [0.3, 0.0]]},
    "boundary": 0.0,
    "solver": {"method": "newton"},
    "outputs": {"report": "report.json"},
}


def small(name, seed=0, shape=(16, 16)):
    stage, cfg = workloads.make_config(name, seed)
    cfg["domain"]["shape"] = list(shape)
    return stage, cfg


def test_known_bad_config_counts_as_failure(tmp_path):
    code, _ = cli.run(KNOWN_BAD, "all", tmp_path)
    bad = check.problems(KNOWN_BAD, "all", code, tmp_path)
    assert "solver did not converge" in bad
    assert "no residual check ran" in bad


def test_small_torus_run_passes(tmp_path):
    stage, cfg = small("torus_affine", seed=3)
    code, _ = cli.run(cfg, stage, tmp_path)
    assert check.problems(cfg, stage, code, tmp_path) == []


def test_wrong_constant_solution_is_caught(tmp_path):
    stage, cfg = small("torus_affine")
    code, _ = cli.run(cfg, stage, tmp_path)
    cfg["cubic"]["c"] = [1.01, 0.0]  # reference no longer matches the run
    assert any("log(8|c|^2)" in p
               for p in check.problems(cfg, stage, code, tmp_path))


def test_truncated_mesh_is_caught(tmp_path):
    stage, cfg = small("weierstrass_mesh")
    code, _ = cli.run(cfg, stage, tmp_path)
    obj = tmp_path / "mesh.obj"
    obj.write_text("".join(obj.read_text().splitlines(True)[1:]))
    assert any("vertices" in p for p in check.problems(cfg, stage, code, tmp_path))


def test_seed_zero_is_the_fixed_config():
    for name, spec in workloads.WORKLOADS.items():
        stage, cfg = workloads.make_config(name, 0)
        assert (stage, cfg) == (spec["stage"], spec["config"])
    _, ch2 = workloads.make_config("ch2_continuation", 0)
    assert ch2["solver"]["t_grid"] == [0.0, 0.1, 0.2, 0.3, 0.4, 0.45]
    assert workloads.make_config("disk_solve", 0)[1]["domain"]["shape"] == [256, 256]


def _coeffs(cfg):
    cubic = cfg.get("cubic", {})
    out = [cubic["c"]] if "c" in cubic else list(cubic.get("coeffs", []))
    pair = cfg.get("weierstrass", {})
    return out + pair.get("f_coeffs", []) + pair.get("g_coeffs", [])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_jitters_coefficients_only(name):
    base_stage, base = workloads.make_config(name, 0)
    for seed in range(1, 40):
        stage, cfg = workloads.make_config(name, seed)
        assert (stage, cfg) == workloads.make_config(name, seed)
        assert stage == base_stage
        for key in base:
            if key not in ("cubic", "weierstrass"):
                assert cfg[key] == base[key]
        for (a_re, a_im), (b_re, b_im) in zip(_coeffs(base), _coeffs(cfg)):
            a, b = complex(a_re, a_im), complex(b_re, b_im)
            if a == 0:
                assert b == 0
            else:
                assert 0.95 <= (b / a).real <= 1.0 and abs((b / a).imag) < 1e-12
    assert workloads.make_config(name, 1) != workloads.make_config(name, 0)


def _residuals(report):
    return {r["name"]: r["value"] for r in report["residuals"]}


def test_tracer_passes_through_and_restores(tmp_path):
    stage, cfg = small("torus_affine")
    originals = (_kernels.transport_polyline, immersion.transport_polyline,
                 pde.cg, cli.solve_newton, cli.Pipeline.solve)
    _, plain = cli.run(cfg, stage, tmp_path / "plain")
    with tracer.Tracer() as tr:
        assert immersion.transport_polyline is not originals[1]
        _, traced = cli.run(cfg, stage, tmp_path / "traced")
    assert (_kernels.transport_polyline, immersion.transport_polyline,
            pde.cg, cli.solve_newton, cli.Pipeline.solve) == originals
    assert _residuals(plain) == _residuals(traced)
    assert plain["solver"] == traced["solver"]
    m = tr.metrics()
    assert set(m) == set(tracer.UNITS)
    assert not any(isinstance(v, tracer.Absent) for v in m.values())
    # 16x16 comb: spine 2 lines + 2 teeth per column; 2 holonomy loops
    assert m["transport.calls"] == 2 + 2 * 16 + 2
    assert m["pde.newton_calls"] == 1
    assert m["pde.linear_iters"] >= m["pde.newton_iters"] > 0
    assert m["frames.connection_builds"] == 8
    assert 0 < m["cli.self_s"] < m["cli.immerse_s"] + m["cli.self_s"]


def test_missing_target_is_absent_not_a_crash(tmp_path, monkeypatch):
    monkeypatch.setitem(tracer.TARGETS, "holonomy", ["frames.no_such_function"])
    monkeypatch.setitem(tracer.TARGETS, "develop", ["no_such_module.develop"])
    stage, cfg = small("torus_affine")
    with tracer.Tracer() as tr:
        code, _ = cli.run(cfg, stage, tmp_path)
    assert code == 0
    m = tr.metrics()
    assert isinstance(m["transport.holonomy_s"], tracer.Absent)
    assert isinstance(m["projective.develop_s"], tracer.Absent)
    assert m["transport.calls"] > 0
    assert len(tr.missing) == 2


def test_resignatured_target_is_absent_not_a_crash(tmp_path, monkeypatch):
    orig = _kernels.transport_polyline

    def shim(*args, **kwargs):
        return orig(*args, **kwargs)

    for mod in (_kernels, immersion, frames):
        monkeypatch.setattr(mod, "transport_polyline", shim)
    stage, cfg = small("torus_affine")
    with tracer.Tracer() as tr:
        code, _ = cli.run(cfg, stage, tmp_path)
    assert code == 0
    m = tr.metrics()
    assert m["transport.calls"] == 36
    assert isinstance(m["transport.substeps"], tracer.Absent)
    assert isinstance(m["transport.vertices"], tracer.Absent)


def test_host_probe_samples_and_restores(tmp_path):
    handler = signal.getsignal(signal.SIGALRM)
    stage, cfg = small("torus_affine")
    host = probe.HostProbe()
    with host:
        code, _ = cli.run(cfg, stage, tmp_path)
    assert code == 0
    assert check.problems(cfg, stage, code, tmp_path) == []
    assert len(host.samples) >= 2 and host.scale() > 0
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    with probe.HostProbe(numpy=False) as quick:
        pass  # shorter than one interval: one sample taken on exit
    assert len(quick.samples) == 1 and quick.scale() > 0
