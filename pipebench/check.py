"""Correctness check of one pipeline run that does not trust
``report["passed"]``.

`problems` re-reads what the run left on disk and returns a list of
reasons the run is wrong (empty when it is right).  It imports nothing
from ``titeica``: the reference values are computed here from the config.
"""

import json
import math
from pathlib import Path

import numpy as np

VERIFYING_STAGES = ("verify", "develop", "all", "weierstrass")
SOLVING_STAGES = ("solve", "immerse", "verify", "develop", "all")
CONSTANT_TOL = 1e-10


def _complex(v):
    return complex(v[0], v[1]) if isinstance(v, (list, tuple)) else complex(v)


def _grid(domain):
    """Node coordinates z of a rectangle or disk_patch domain config."""
    n, m = domain["shape"]
    if domain["kind"] == "disk_patch":
        w = h = domain["radius"] * math.sqrt(2.0)
    else:
        w, h = domain.get("width", 1.0), domain.get("height", 1.0)
    x = np.linspace(-0.5 * w, 0.5 * w, n)[:, None]
    y = np.linspace(-0.5 * h, 0.5 * h, m)[None, :]
    return x + 1j * y


def _cubic(cubic, z):
    if cubic.get("kind", "constant") == "constant":
        return np.full(z.shape, _complex(cubic.get("c", [1.0, 0.0])))
    out = np.zeros(z.shape, dtype=complex)
    for a in reversed(cubic["coeffs"]):
        out = out * z + _complex(a)
    return out


def _supersolution_log(cfg):
    """log m with m^3 - m^2 = max 8 ||Q||^2 on the Poincare disk, the upper
    end of the monotone bracket [0, log m]."""
    z = _grid(cfg["domain"])
    sigma = 4.0 / (1.0 - np.abs(z) ** 2) ** 2
    big_m = float(np.max(8.0 * np.abs(_cubic(cfg["cubic"], z)) ** 2 / sigma ** 3))
    roots = np.roots([1.0, -1.0, 0.0, -big_m])
    m = max(r.real for r in roots if abs(r.imag) < 1e-9)
    return math.log(m)


def _read_mesh(path):
    """(vertex count, all finite) of an OBJ or JSON mesh file."""
    if path.suffix.lower() == ".obj":
        with path.open() as fh:
            rows = [line[2:] for line in fh if line.startswith("v ")]
        v = np.array(" ".join(rows).split(), dtype=float)
        return v.size // 3, bool(np.isfinite(v).all())
    payload = json.loads(path.read_text())
    v = np.asarray(payload["vertices"], dtype=float)
    n, m = payload["shape"]
    if v.shape[:2] != (n, m):
        return -1, False
    return n * m, bool(np.isfinite(v).all())


def problems(cfg, stage, code, out_dir):
    """Reasons the run of `cfg` through `stage` that returned exit code
    `code` and wrote into `out_dir` is not correct."""
    out = Path(out_dir)
    bad = []
    if code != 0:
        bad.append(f"exit code {code}")
    outputs = cfg.get("outputs", {})
    report_path = out / outputs.get("report", "report.json")
    try:
        rep = json.loads(report_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return bad + [f"no readable report: {exc}"]
    scfg = cfg.get("solver", {})
    if stage in SOLVING_STAGES:
        sol = rep.get("solver")
        if not sol:
            bad.append("no solver section")
        else:
            if not sol.get("converged"):
                bad.append("solver did not converge")
            tol = float(scfg.get("tol", 1e-10))
            if not sol.get("residual_inf", math.inf) <= tol:
                bad.append(f"residual_inf {sol.get('residual_inf')} > tol {tol}")
        if scfg.get("t_grid") is not None:
            cont = rep.get("continuation") or {}
            conv = cont.get("converged", [])
            if (cont.get("failure_index") is not None
                    or len(conv) != len(scfg["t_grid"]) or not all(conv)):
                bad.append(f"continuation failed: {cont}")
    residuals = rep.get("residuals", [])
    if stage in VERIFYING_STAGES and not residuals:
        bad.append("no residual check ran")
    for r in residuals:
        value, tol = r.get("value"), r.get("tolerance")
        if not (isinstance(value, (int, float)) and math.isfinite(value)
                and value <= tol and r.get("pass")):
            bad.append(f"residual {r.get('name')} = {value} fails tol {tol}")
    bad += _reference(cfg, stage, rep)
    mesh_name = outputs.get("mesh")
    if mesh_name and stage != "solve":
        n, m = cfg["domain"]["shape"]
        path = out / mesh_name
        if not path.is_file():
            bad.append(f"mesh {mesh_name} not written")
        else:
            count, finite = _read_mesh(path)
            if count != n * m or not finite:
                bad.append(f"mesh {mesh_name}: {count} vertices "
                           f"(want {n * m}), finite={finite}")
    return bad


def _reference(cfg, stage, rep):
    """Independent references for the geometries the benchmark runs."""
    bad = []
    case, dom = cfg.get("case"), cfg.get("domain", {})
    sol = rep.get("solver") or {}
    if case == "hyperbolic_affine_sphere" and sol and dom.get("kind") == "torus":
        c = _complex(cfg["cubic"].get("c", [1.0, 0.0]))
        ref = math.log(8.0 * abs(c) ** 2) / 3.0
        err = max(abs(sol["u_min"] - ref), abs(sol["u_max"] - ref))
        if not err <= CONSTANT_TOL:
            bad.append(f"u differs from (1/3) log(8|c|^2) by {err:.3e}")
    if (case == "hyperbolic_affine_sphere" and sol
            and cfg.get("metric", {}).get("kind") == "poincare_disk"
            and float(cfg.get("boundary", 0.0)) == 0.0):
        hi = _supersolution_log(cfg)
        if not (sol["u_min"] >= 0.0 and sol["u_max"] <= hi):
            bad.append(f"u in [{sol['u_min']}, {sol['u_max']}] leaves the "
                       f"monotone bracket [0, {hi}]")
    if case == "minlag_ch2" and stage in VERIFYING_STAGES:
        q = rep.get("cubic_norm_induced_max")
        if q is None or not q <= 0.25:
            bad.append(f"cubic_norm_induced_max {q} > 1/4")
    if stage == "weierstrass":
        if not any(r.get("name") == "monge_ampere" and r.get("pass")
                   for r in rep.get("residuals", [])):
            bad.append("no passing Monge-Ampere check")
    return bad
