"""Command-line pipeline: configuration ingestion, solve -> immerse ->
verify -> develop orchestration, and mesh/report serialization.

Subcommands: solve, immerse, verify, develop, weierstrass, all.  Each
runs its stages in order and times each one; a converged solve records
its own check, `solve`.  Exit codes: 0 every check passed; 1 a check
failed, no check ran, a stage raised, or the mesh could not be exported
(report still written); 2 configuration error; 3 the solver did not
converge (`solver.reason` says why).  Flags: --config <path>, --out-dir
<path>.  Every warning in the report comes with a nonzero exit code,
except `develop`'s note that only affine meshes are developed.
"""

import argparse
import contextlib
import json
import math
import numbers
import sys
import time
from pathlib import Path

import numpy as np

from .errors import ConfigError, InvalidSignCase, SolveError, TiteicaError
from .frames import build_connection, curvature_residual, torus_generator
from .geometry import (BackgroundMetric, CubicDifferential, Domain,
                       SignCase, cubic_norm_induced)
from .immersion import (affine_sphere_immersion, minlag_c2_immersion,
                        minlag_cpn_immersion, verify_affine, verify_cpn,
                        verify_minlag_c2)
from .pde import (PdeProblem, check_monotone, continuation_family,
                  continuation_grid, solve_monotone, solve_newton)
from .projective import (holonomy_report, monge_ampere_gate, quadric_fit,
                         semiflat_develop, semiflat_dual_roundtrip)
from .weierstrass import HoloPair, parabolic_from_holomorphic

SCHEMA_VERSION = 1

# residual tolerances scale as coeff * h^2 with h the larger grid spacing;
# coefficients calibrated on the analytic regression surfaces and frozen.
# Every gate is a discretization residual: an identity that the code makes
# exact (the loop's reality, xi = -lam f, phi's pseudo-norm) is a tier-1
# test of that code, not a gate
TOL_COEFF = {
    "solve": 1.0,            # times solver.tol: the solver's own stop rule
    "curvature": 60.0,
    "det_identity": 20.0,
    "f_zzbar": 20.0,
    "f_zz": 20.0,
    "cubic_recovery": 20.0,
    "conformal": 20.0,
    "lagrangian": 20.0,
    "symplectic": 20.0,
    "metric": 200.0,
    "horizontality": 100.0,
    "holonomy_commutator": 50.0,
    "unitarity": 20.0,
    "det_drift": 20.0,
    "monge_ampere": 40.0,
    # grad_y phi* - x after the semi-flat development: 0.12-0.17 h^2 for
    # Q = 0.3 + 0.2z on a unit square at 24^2 to 96^2
    "legendre_roundtrip": 20.0,
    "angle_oscillation": 20.0,
}


def _is_number(v):
    """A JSON number: strings and booleans (true reads as 1) are not."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _number(convert, v, what):
    """convert(v) for a scalar config value; ConfigError unless v is a
    finite number and, where a count is meant (convert is int), an
    integral one."""
    if not _is_number(v):
        raise ConfigError(f"{what} must be a number, got {v!r}")
    try:
        x = convert(v)
        finite = math.isfinite(x)
    except (ValueError, OverflowError):
        finite = False
    if not finite:
        raise ConfigError(f"{what} must be a finite number, got {v!r}")
    if convert is int and x != v:
        raise ConfigError(f"{what} must be an integer, got {v!r}")
    return x


def _complex(v, what):
    if _is_number(v):
        return complex(_number(float, v, what))
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(_number(float, v[0], what), _number(float, v[1], what))
    raise ConfigError(f"{what} must be a number or [re, im] pair")


def _known_keys(d, where, *keys):
    """ConfigError on a key of the section d that no parser reads."""
    unknown = set(d) - set(keys)
    if unknown:
        raise ConfigError(
            f"unknown keys in {where}: {sorted(unknown, key=str)}")


def _section(cfg, key, default):
    d = cfg.get(key, default)
    if not isinstance(d, dict):
        raise ConfigError(f"{key} must be a JSON object")
    return d


def _coeffs(d, key, default):
    """The complex coefficients listed under d[key]."""
    v = d.get(key, default)
    if not isinstance(v, list):
        raise ConfigError(f"{key} must be a list of coefficients")
    return [_complex(a, key) for a in v]


def parse_domain(d):
    kind = d.get("kind")
    shape = d.get("shape", [64, 64])
    if not (isinstance(shape, (list, tuple)) and len(shape) == 2):
        raise ConfigError("domain.shape must be [n, m]")
    n, m = (_number(int, v, "domain.shape") for v in shape)
    try:
        if kind == "torus":
            _known_keys(d, "domain", "kind", "shape", "tau")
            return Domain.torus(_complex(d.get("tau", [0.0, 1.0]), "tau"), n, m)
        if kind == "rectangle":
            _known_keys(d, "domain", "kind", "shape", "width", "height")
            return Domain.rectangle(_number(float, d.get("width", 1.0), "width"),
                                    _number(float, d.get("height", 1.0), "height"),
                                    n, m)
        if kind == "disk_patch":
            _known_keys(d, "domain", "kind", "shape", "radius")
            return Domain.disk_patch(
                _number(float, d.get("radius", 0.7), "radius"), n, m)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown domain kind {kind!r}")


def parse_metric(d):
    kind = d.get("kind", "flat")
    try:
        if kind == "flat":
            _known_keys(d, "metric", "kind", "sigma")
            return BackgroundMetric(
                "flat", _number(float, d.get("sigma", 1.0), "sigma"))
        if kind == "poincare_disk":
            _known_keys(d, "metric", "kind")
            return BackgroundMetric("poincare_disk")
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown metric kind {kind!r}")


def parse_cubic(d):
    kind = d.get("kind", "constant")
    if kind == "constant":
        _known_keys(d, "cubic", "kind", "c")
        return CubicDifferential.constant(_complex(d.get("c", [1.0, 0.0]), "c"))
    if kind == "polynomial":
        _known_keys(d, "cubic", "kind", "coeffs")
        return CubicDifferential.polynomial(_coeffs(d, "coeffs", []))
    raise ConfigError(f"unknown cubic differential kind {kind!r}")


def parse_pair(d):
    _known_keys(d, "weierstrass", "f_coeffs", "g_coeffs")
    return HoloPair.from_coeffs(_coeffs(d, "f_coeffs", [0.0]),
                                _coeffs(d, "g_coeffs", [0.0, 1.0]))


def load_config(path):
    try:
        cfg = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def _tol(name, h):
    return TOL_COEFF[name] * h * h


class Pipeline:
    def __init__(self, cfg):
        _known_keys(cfg, "config", "schema_version", "case", "domain", "metric",
                    "cubic", "boundary", "solver", "weierstrass", "outputs")
        version = cfg.get("schema_version", SCHEMA_VERSION)
        if not _is_number(version) or version != SCHEMA_VERSION:
            raise ConfigError(f"unsupported schema_version {version!r}")
        case_name = cfg.get("case")
        try:
            self.case = SignCase.from_tag(case_name)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad case {case_name!r}: {exc}") from exc
        self.domain = parse_domain(_section(cfg, "domain", {}))
        self.mu = parse_metric(_section(cfg, "metric", {"kind": "flat"}))
        self.Q = parse_cubic(_section(cfg, "cubic", {}))
        if self.domain.periodic and "boundary" in cfg:
            raise ConfigError("boundary: a torus has no boundary to hold it")
        self.boundary = _number(float, cfg.get("boundary", 0.0), "boundary")
        try:
            self.problem = PdeProblem(self.domain, self.mu, self.Q, self.case,
                                      self.boundary)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        self._parse_solver(_section(cfg, "solver", {}))
        wcfg = _section(cfg, "weierstrass", {})
        self.pair = parse_pair(wcfg) if wcfg else None
        outputs = _section(cfg, "outputs", {})
        _known_keys(outputs, "outputs", "mesh", "report")
        self.mesh_name = outputs.get("mesh")
        self.report_name = outputs.get("report", "report.json")
        # bare file names, inside the out directory; no mesh is written
        # without a name
        for key, name in (("mesh", self.mesh_name),
                          ("report", self.report_name)):
            bare = (isinstance(name, str) and name not in ("", "..")
                    and Path(name).name == name)
            if not (bare or key == "mesh" and name is None):
                raise ConfigError(f"outputs.{key} must be a bare file name, "
                                  f"got {name!r}")
        self.residuals = []
        self.warnings = []
        self.timings = {}
        self.report = {"schema_version": SCHEMA_VERSION,
                       "case": self.case.geometry_tag,
                       "grid": list(self.domain.shape)}
        self.solution = None
        self.mesh = None

    def _parse_solver(self, d):
        """The solver keys, each checked against the others: every value
        the chosen solve would ignore or could not use is a ConfigError."""
        _known_keys(d, "solver", "tol", "max_iter", "method", "t_grid", "u0")
        self.tol = _number(float, d.get("tol", 1e-10), "solver.tol")
        if not (np.isfinite(self.tol) and self.tol > 0):
            raise ConfigError(f"solver.tol must be positive, got {self.tol!r}")
        self.max_iter = _number(int, d.get("max_iter", 100), "solver.max_iter")
        if self.max_iter < 0:
            raise ConfigError(
                f"solver.max_iter must be >= 0, got {self.max_iter!r}")
        self.method = d.get("method", "newton")
        if self.method not in ("newton", "monotone"):
            raise ConfigError(f"unknown solver method {self.method!r}")
        t_grid = d.get("t_grid")
        if not (t_grid is None or isinstance(t_grid, list)):
            raise ConfigError("solver.t_grid must be a list of numbers")
        try:
            self.t_grid = None if t_grid is None else continuation_grid(
                [_number(float, t, "solver.t_grid") for t in t_grid])
        except ValueError as exc:
            raise ConfigError(f"solver.t_grid: {exc}") from exc
        if self.t_grid is not None and self.method != "newton":
            raise ConfigError("solver.t_grid runs Newton continuation; "
                              f"method {self.method!r} cannot run it")
        u0 = d.get("u0")
        self.u0 = None if u0 is None else _number(float, u0, "solver.u0")
        if self.u0 is not None and (self.method != "newton"
                                    or self.t_grid is not None):
            raise ConfigError("solver.u0 seeds only a Newton solve "
                              "without t_grid")
        if self.method == "monotone":
            try:
                check_monotone(self.problem)
            except InvalidSignCase as exc:
                raise ConfigError(f"solver.method monotone: {exc}") from exc

    # -- helpers ------------------------------------------------------
    def add_residual(self, name, value):
        # a non-finite value is stored as null, which strict JSON reads,
        # and fails
        tol = (TOL_COEFF[name] * self.tol if name == "solve"
               else _tol(name, self.domain.hmax))
        value = float(value)
        finite = math.isfinite(value)
        self.residuals.append({
            "name": name, "value": value if finite else None,
            "tolerance": float(tol), "grid": list(self.domain.shape),
            "case": self.case.geometry_tag,
            "pass": bool(finite and value <= tol)})

    # -- stages ---------------------------------------------------------
    def solve(self):
        method = self.method
        tol, max_iter, t_grid = self.tol, self.max_iter, self.t_grid
        if t_grid is not None:
            fam = continuation_family(self.problem, self.Q, t_grid, tol=tol,
                                      max_iter=max_iter)
            rep, method = fam.reports[-1], "continuation"
            self.report["continuation"] = {
                "t_grid": fam.t_grid,
                "grid": list(fam.grid),
                "converged": [r.converged for r in fam.reports],
                "failure_index": fam.failure_index,
            }
        elif method == "newton":
            rep = solve_newton(self.problem, self.u0, tol=tol,
                               max_iter=max_iter)
        else:
            rep = solve_monotone(self.problem, tol=tol, max_iter=max_iter)
        u = rep.solution.u
        self.report["solver"] = {
            "method": method,
            "converged": rep.converged,
            "iterations": rep.iterations,
            "residual_inf": rep.residual_inf,
            "u_min": float(u.min()), "u_max": float(u.max()),
            "u_mean": float(u.mean()),
            # summed over every solve: on continuation the coarse path's
            # and the fine one (`ContinuationResult.linear_iters`)
            "linear_iters": (rep.info["linear_iters"] if t_grid is None
                             else fam.linear_iters),
            # per step of the last solve (of the last t on continuation)
            "history": rep.info["history"],
        }
        if not rep.converged:
            reason = self.report["solver"]["reason"] = rep.info["reason"]
            raise SolveError(f"solver did not converge: {reason}")
        if t_grid is not None:
            self.problem = fam.problem
        # the stages after the solve read the problem's Q alone: the sigma
        # and ||Q||^2 that the solve cached are freed, 2 grid fields
        self.problem.release()
        self.solution = rep.solution
        self.add_residual("solve", rep.residual_inf)

    def immerse(self):
        eps, lam = self.case.epsilon, self.case.lam
        Q = self.problem.Q
        if eps == 1:
            self.mesh = affine_sphere_immersion(self.solution, Q, lam)
        elif lam == 0:
            self.mesh = minlag_c2_immersion(self.solution, Q)
        else:
            self.mesh = minlag_cpn_immersion(self.solution, Q, self.case)
        self.report["transport"] = {"tree_edges": self.mesh.meta["tree_edges"]}

    @property
    def _margin(self):
        # measurement core: margin 2 suffices on tori (no boundary); planar
        # Dirichlet solutions have corner-limited regularity, so residuals
        # are quoted over a fixed-fraction interior core
        if self.domain.periodic:
            return 2
        return max(2, min(self.domain.shape) // 8)

    def verify(self):
        Q = self.problem.Q
        case, sol, mesh = self.case, self.solution, self.mesh
        mgn = self._margin
        # structure-equation residuals on the mesh
        if mesh.target_tag == "affine_sphere":
            rep = verify_affine(mesh, sol, Q, margin=mgn)
        elif mesh.target_tag == "minlag_c2":
            rep = verify_minlag_c2(mesh, sol, Q, margin=mgn)
        else:
            rep = verify_cpn(mesh, sol, margin=mgn)
            nq = cubic_norm_induced(Q, self.mu, sol.u, self.domain.z)
            self.report["cubic_norm_induced_max"] = float(nq.max())
        for name, value in rep.items():
            self.add_residual(name, value)
        # zero curvature, for the Toda cases
        if case.is_toda:
            alpha = build_connection(sol.psi, Q, case, self.domain, zeta=1.0)
            curv = curvature_residual(alpha)
            self.add_residual("curvature",
                              float(curv[mgn:-mgn, mgn:-mgn].max()))
            if self.domain.periodic:
                rep_h = holonomy_report(alpha,
                                        [torus_generator(self.domain, 0),
                                         torus_generator(self.domain, 1)])
                self.add_residual("holonomy_commutator",
                                  float(rep_h["commutators"].max()))
                self.report["holonomy"] = _holonomy_json(rep_h)

    def develop(self):
        if self.mesh is None or self.mesh.target_tag != "affine_sphere":
            self.warnings.append("develop: only affine meshes are developed")
            return
        if self.case.lam == 0:
            sf = semiflat_develop(self.mesh)
            # monge_ampere_gate's nodes and values, read off the development
            self.add_residual("monge_ampere",
                              float(np.abs(sf.ma_residual[2:-2, 2:-2]).max()))
            roundtrip = semiflat_dual_roundtrip(sf)
            self.add_residual("legendre_roundtrip", roundtrip)
            self.report["semiflat"] = {
                "legendre_roundtrip": roundtrip,
                "phi_range": [float(sf.phi.min()), float(sf.phi.max())],
            }
            return
        fit = quadric_fit(self.mesh.vertices.reshape(-1, 3))
        self.report["develop"] = {
            "quadric_residual": fit.residual,
            "quadric_signature": list(fit.signature),
        }

    def weierstrass_stage(self):
        if self.pair is None:
            raise ConfigError("weierstrass stage needs a 'weierstrass' section")
        if self.case.geometry_tag != "parabolic_affine_sphere":
            raise ConfigError("weierstrass stage builds parabolic affine "
                              "spheres only, not "
                              f"{self.case.geometry_tag!r}")
        try:
            mesh = parabolic_from_holomorphic(self.pair, self.domain)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        self.mesh = mesh
        self.add_residual("monge_ampere", monge_ampere_gate(mesh.vertices))
        self.report["weierstrass"] = {"bound_margin": mesh.meta["margin"]}


def _holonomy_json(rep):
    loops = []
    for entry in rep["loops"]:
        loops.append({
            "eigenvalues": [[float(v.real), float(v.imag)]
                            for v in entry["eigenvalues"]],
            "det_drift": entry["det_drift"],
        })
    return {"loops": loops,
            "max_commutator": float(rep["commutators"].max())}


def _obj_text(mesh):
    """OBJ text of a mesh in R^3, a block of rows at a time: the vertex
    rows, then the quads, one-based."""
    from . import _objtext  # on the first OBJ export: setup pays nothing

    yield from _objtext.float_rows(mesh.vertices.reshape(-1, 3))
    yield from _objtext.face_rows(*mesh.vertices.shape[:2])


def _json_text(mesh):
    """JSON dump of the vertices, complex entries as [re, im]: the header
    by json.dumps, then the vertex lists a block of values at a time."""
    from . import _objtext  # on the first JSON export: setup pays nothing

    v = np.asarray(mesh.vertices)
    encoding = "complex" if np.iscomplexobj(v) else "real"
    if encoding == "complex":  # [re, im] pairs, in the array's own memory
        v = np.ascontiguousarray(v).view(np.float64).reshape(*v.shape, 2)
    head = {"schema_version": SCHEMA_VERSION, "target": mesh.target_tag,
            "lam": mesh.lam, "shape": list(v.shape[:2]), "encoding": encoding}
    yield json.dumps(head)[:-1].encode("ascii") + b', "vertices": '
    yield from _objtext.json_array(v)
    yield b"}"


def export_mesh(mesh, path):
    """OBJ for meshes embedded in R^3 (17 significant digits, LF endings,
    quad faces); JSON dump with complex entries as [re, im] otherwise.

    One process writes either format a block of 2^13 values at a time
    (`_objtext.BLOCK`), so memory stays bounded by one block whatever the
    size of the mesh; numpy formats the text, and each vertex index of
    the quads once (see `_objtext`).  The OBJ bytes are those of the rows
    "v %.17g %.17g %.17g\\n" and "f %d %d %d %d\\n" formatted by Python,
    one row each.  The JSON is that of json.dumps with each float as
    %.17g, but zeros and non-finite values as json.dumps writes them, so
    `load_mesh_vertices` reads it back bit-exactly.  A write that fails,
    in either format, removes the partial file; an OSError is raised as a
    TiteicaError."""
    path = Path(path)
    if path.suffix.lower() == ".obj":
        if not mesh.embeddable_r3:
            raise TiteicaError("target not embeddable in R^3")
        chunks = _obj_text(mesh)
    else:
        chunks = _json_text(mesh)
    try:
        with path.open("wb") as fh:
            for text in chunks:
                fh.write(text)
    except OSError as exc:
        path.unlink(missing_ok=True)
        raise TiteicaError(f"cannot write {path.name}: {exc}") from exc
    except BaseException:
        path.unlink(missing_ok=True)
        raise


def load_mesh_vertices(path):
    """Re-ingest a JSON mesh dump; returns the vertex array bit-exactly."""
    payload = json.loads(Path(path).read_text())
    v = np.asarray(payload["vertices"], dtype=float)
    if payload.get("encoding") == "complex":
        # not v[..., 0] + 1j * v[..., 1]: the product turns an infinite
        # imaginary part into a nan real part, and the sum loses -0.0
        return v.view(complex)[..., 0]
    return v


# subcommand -> the Pipeline methods it runs, in order; each is timed
# under its name without the "_stage" suffix
STAGES = {
    "solve": ("solve",),
    "immerse": ("solve", "immerse"),
    "verify": ("solve", "immerse", "verify"),
    "develop": ("solve", "immerse", "verify", "develop"),
    "weierstrass": ("weierstrass_stage",),
    "all": ("solve", "immerse", "verify", "develop"),
}


def run(cfg, stage="all", out_dir="."):
    """Run the pipeline; returns (exit_code, report_dict).  A stage that
    raises ConfigError writes nothing and removes the directories that
    the run made for out_dir."""
    pipe = Pipeline(cfg)
    out = Path(out_dir)
    created = [path for path in (out, *out.parents) if not path.exists()]
    out.mkdir(parents=True, exist_ok=True)
    pipe.report["stage"] = stage
    code = 0
    try:
        for step in STAGES[stage]:
            t0 = time.perf_counter()
            try:
                # looked up per run: a tracer may wrap the method on the class
                getattr(pipe, step)()
            finally:
                pipe.timings[step.removesuffix("_stage")] = (
                    time.perf_counter() - t0)
    except ConfigError:
        for path in created:  # innermost first; one that is not empty stays
            with contextlib.suppress(OSError):
                path.rmdir()
        raise
    except TiteicaError as exc:
        pipe.warnings.append(f"{type(exc).__name__}: {exc}")
        code = 3 if isinstance(exc, SolveError) else 1
    if not pipe.residuals:
        pipe.warnings.append("no check ran")
        code = code or 1
    if pipe.mesh_name and pipe.mesh is not None:
        # before the report, so that the export is timed in it
        t0 = time.perf_counter()
        try:
            export_mesh(pipe.mesh, out / pipe.mesh_name)
            pipe.timings["export"] = time.perf_counter() - t0
        except TiteicaError as exc:
            pipe.warnings.append(f"{type(exc).__name__}: {exc}")
            code = code or 1
    pipe.report["residuals"] = pipe.residuals
    pipe.report["warnings"] = pipe.warnings
    pipe.report["timings"] = pipe.timings
    failed = [r["name"] for r in pipe.residuals if not r["pass"]]
    pipe.report["failed_checks"] = failed
    if failed:
        code = code or 1
    pipe.report["passed"] = code == 0
    (out / pipe.report_name).write_text(json.dumps(pipe.report, indent=2),
                                        newline="\n")
    return code, pipe.report


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="titeica",
        description="Tzitzeica/Toda surface pipeline: solve the metric "
                    "equation, integrate frames, reconstruct and verify "
                    "surfaces, and compute developing maps and holonomy.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in STAGES:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="JSON configuration")
        sp.add_argument("--out-dir", default=".", help="output directory")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        code, report = run(cfg, stage=args.command, out_dir=args.out_dir)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    for r in report["residuals"]:
        status = "PASS" if r["pass"] else "FAIL"
        value = "non-finite" if r["value"] is None else f"{r['value']:.3e}"
        print(f"[{status}] {r['name']}: {value} (tol {r['tolerance']:.3e})")
    if report.get("solver"):
        s = report["solver"]
        print(f"solver: converged={s['converged']} iterations={s['iterations']} "
              f"residual={s['residual_inf']:.3e} "
              f"linear_iters={s['linear_iters']}")
    print(f"exit code {code}")
    return code


if __name__ == "__main__":
    sys.exit(main())
