"""Per-layer tracing of one pipeline run, from outside the package.

The tracer wraps functions of ``titeica`` by module attribute for the
length of a ``with Tracer():`` block and restores them afterwards.  It
never edits the package: each target is looked up by its dotted path, and
every ``titeica`` module attribute bound to that same function object is
swapped for a wrapper, so ``from .pde import solve_newton`` in another
module is traced as well.  Wrappers pass arguments and results through
unchanged; the only exception is a counting ``callback`` chained into the
scipy Krylov solvers.

A target that is missing, is not a plain function, or whose arguments no
longer bind makes the metrics derived from it absent (an `Absent` with
the reason), never an exception in the run.
"""

import functools
import inspect
import sys
import time

import numpy as np

# span group -> dotted paths under the titeica package
TARGETS = {
    "transport": ["_kernels.transport_polyline"],
    "tree": ["immersion.integrate_tree"],
    "holonomy": ["frames.holonomy"],
    "newton": ["pde.solve_newton"],
    "monotone": ["pde.solve_monotone"],
    "continuation": ["pde.continuation_family"],
    "residual": ["pde.residual_global"],
    "cg": ["pde.cg"],
    "minres": ["pde.minres"],
    "spsolve": ["pde.spsolve"],
    "reconstruct": ["immersion.affine_sphere_immersion",
                    "immersion.minlag_c2_immersion",
                    "immersion.minlag_cpn_immersion"],
    "verify": ["immersion.verify_affine", "immersion.verify_minlag_c2",
               "immersion.verify_cpn"],
    "connection": ["frames.build_connection", "frames.minlag_frame_connection"],
    "curvature": ["frames.curvature_residual"],
    "reality": ["frames.reality_check"],
    "group_residuals": ["frames.group_residuals"],
    "develop": ["projective.develop_rp2", "projective.quadric_fit"],
    "semiflat": ["projective.semiflat_develop",
                 "projective.semiflat_dual_roundtrip"],
    "holonomy_report": ["projective.holonomy_report"],
    "represent": ["weierstrass.parabolic_from_holomorphic"],
    "stencil": ["geometry.Domain.dz", "geometry.Domain.dzbar",
                "geometry.Domain.dzz", "geometry.Domain.dzzbar"],
    "run": ["cli.run"],
    "stage_solve": ["cli.Pipeline.solve"],
    "stage_immerse": ["cli.Pipeline.immerse"],
    "stage_verify": ["cli.Pipeline.verify"],
    "stage_develop": ["cli.Pipeline.develop"],
    "stage_weierstrass": ["cli.Pipeline.weierstrass_stage"],
    "export": ["cli.export_mesh"],
}

SOLVE_GROUPS = ("newton", "monotone", "continuation")
LINEAR_GROUPS = ("cg", "minres", "spsolve")

# name -> unit of every metric `Tracer.metrics` reports; the harness adds
# cli.export_bytes, cli.report_bytes, proc.cpu_s and trace.overhead_s
UNITS = {
    "transport.calls": "count", "transport.vertices": "count",
    "transport.substeps": "count", "transport.s": "s", "transport.tree_s": "s",
    "transport.holonomy_s": "s", "transport.substeps_per_s": "1/s",
    "pde.newton_calls": "count", "pde.newton_iters": "count",
    "pde.residual_evals": "count", "pde.linesearch_accept_ratio": "ratio",
    "pde.cg_calls": "count", "pde.minres_calls": "count",
    "pde.linear_iters": "count", "pde.linear_s": "s",
    "pde.spsolve_fallbacks": "count", "pde.self_s": "s",
    "immersion.reconstruct_s": "s", "immersion.reconstruct_self_s": "s",
    "immersion.verify_s": "s",
    "frames.connection_builds": "count", "frames.connection_s": "s",
    "frames.curvature_s": "s", "frames.reality_s": "s",
    "frames.group_residuals_s": "s",
    "projective.develop_s": "s", "projective.semiflat_s": "s",
    "projective.holonomy_s": "s",
    "weierstrass.represent_s": "s",
    "geometry.stencil_calls": "count", "geometry.stencil_s": "s",
    "cli.solve_s": "s", "cli.immerse_s": "s", "cli.verify_s": "s",
    "cli.develop_s": "s", "cli.weierstrass_s": "s", "cli.export_s": "s",
    "cli.self_s": "s",
}


class Absent(Exception):
    """A metric cannot be computed; the message says why."""


def _resolve(path):
    """Return (owner, attribute name, function) for a dotted path under
    titeica; raises Absent when it does not lead to a plain function."""
    parts = path.split(".")
    owner = sys.modules.get("titeica." + parts[0])
    if owner is None:
        raise Absent(f"module titeica.{parts[0]} is not imported")
    for name in parts[1:-1]:
        owner = getattr(owner, name, None)
        if owner is None:
            raise Absent(f"titeica.{path}: no {name!r}")
    name = parts[-1]
    if inspect.isclass(owner):
        fn = owner.__dict__.get(name)
        if not inspect.isfunction(fn):
            raise Absent(f"titeica.{path} is not a plain method")
    else:
        fn = getattr(owner, name, None)
        if not callable(fn):
            raise Absent(f"titeica.{path} is missing")
    return owner, name, fn


def _package_modules():
    return [m for k, m in list(sys.modules.items())
            if m is not None and (k == "titeica" or k.startswith("titeica."))]


def _arg(bound, name):
    """Argument `name` of a bound call, or its default; Absent if the
    function has no such parameter."""
    if name in bound.arguments:
        return bound.arguments[name]
    param = bound.signature.parameters.get(name)
    if param is None or param.default is inspect.Parameter.empty:
        raise Absent(f"no argument {name!r}")
    return param.default


def _substeps(pts, d1, d2, max_step):
    """RK4 substeps of one polyline, as the transport kernel counts them:
    int(|dx d1 + dy d2| / max_step) + 1 per segment."""
    d = np.diff(np.asarray(pts, dtype=np.float64), axis=0)
    zdot = d[:, 0] * complex(d1) + d[:, 1] * complex(d2)
    return int(np.sum((np.abs(zdot) / float(max_step)).astype(np.int64) + 1))


class Tracer:
    """Context manager recording spans and counts of one or more runs."""

    def __init__(self):
        self.spans = []      # [group, start, end, parent index or None]
        self._stack = []
        self.counts = {}
        self.absent = {}     # group or metric -> reason
        self.missing = []    # dotted paths that did not resolve
        self._patches = []

    # -- installation ---------------------------------------------------
    def __enter__(self):
        modules = _package_modules()
        for group, paths in TARGETS.items():
            reasons = []
            for path in paths:
                try:
                    owner, name, fn = _resolve(path)
                except Absent as exc:
                    reasons.append(str(exc))
                    continue
                wrapper = self._wrap(group, fn)
                if inspect.isclass(owner):
                    self._patch(owner, name, wrapper)
                    continue
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._patch(mod, attr, wrapper)
            self.missing += reasons
            if len(reasons) == len(paths):
                self.absent[group] = "; ".join(reasons)
        return self

    def __exit__(self, *exc):
        for owner, name, value in reversed(self._patches):
            setattr(owner, name, value)
        self._patches.clear()
        return False

    def _patch(self, owner, name, wrapper):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _wrap(self, group, fn):
        hook = getattr(self, "_hook_" + group, None)
        try:
            sig = inspect.signature(fn)
        except (TypeError, ValueError):
            sig = None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ctx = {}
            if hook is not None:
                try:
                    if sig is None:
                        raise Absent(f"{fn.__name__} has no signature")
                    ctx = hook(sig.bind(*args, **kwargs)) or {}
                except Exception as exc:  # never let the tracer break a run
                    self.absent.setdefault(group + ".args",
                                           f"{type(exc).__name__}: {exc}")
                    ctx = {}
            if "call" in ctx:
                args, kwargs = ctx["call"]
            idx = len(self.spans)
            self.spans.append([group, time.perf_counter(), None,
                               self._stack[-1] if self._stack else None])
            self._stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][2] = time.perf_counter()
            if "after" in ctx:
                try:
                    ctx["after"](out)
                except Exception as exc:
                    self.absent.setdefault(group + ".result",
                                           f"{type(exc).__name__}: {exc}")
            return out

        return wrapper

    def _add(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + n

    # -- hooks: read arguments before a call, results after it -----------
    def _hook_transport(self, bound):
        pts = _arg(bound, "pts")
        self._add("transport.vertices", len(pts))
        self._add("transport.substeps",
                  _substeps(pts, _arg(bound, "d1"), _arg(bound, "d2"),
                            _arg(bound, "max_step")))

    def _count_linear(self, bound):
        user_cb = _arg(bound, "callback")

        def counting(xk):
            self._add("pde.linear_iters", 1)
            if user_cb is not None:
                user_cb(xk)

        bound.arguments["callback"] = counting
        return {"call": (bound.args, bound.kwargs)}

    _hook_cg = _count_linear
    _hook_minres = _count_linear

    def _hook_newton(self, bound):
        max_iter = _arg(bound, "max_iter")

        def after(rep):
            it = int(rep.iterations)
            self._add("pde.newton_iters", it)
            # an iteration whose line search found no decrease ends the
            # solve early without converging; every other one was accepted
            stalled = not rep.converged and it < max_iter
            self._add("pde.accepted_steps", it - (1 if stalled and it else 0))

        return {"after": after}

    # -- metrics ----------------------------------------------------------
    def _count(self, groups):
        return sum(1 for s in self.spans if s[0] in groups)

    def _has_ancestor(self, i, groups):
        p = self.spans[i][3]
        while p is not None:
            if self.spans[p][0] in groups:
                return True
            p = self.spans[p][3]
        return False

    def _time(self, groups, within=None):
        """Wall time covered by spans of `groups` (outermost ones only),
        optionally counting only spans nested inside spans of `within`."""
        total = 0.0
        for i, (g, t0, t1, _) in enumerate(self.spans):
            if g not in groups or t1 is None or self._has_ancestor(i, groups):
                continue
            if within is not None and not self._has_ancestor(i, within):
                continue
            total += t1 - t0
        return total

    def _self_time(self, groups):
        children = {}
        for g, t0, t1, parent in self.spans:
            if parent is not None and t1 is not None:
                children[parent] = children.get(parent, 0.0) + (t1 - t0)
        return sum(t1 - t0 - children.get(i, 0.0)
                   for i, (g, t0, t1, _) in enumerate(self.spans)
                   if g in groups and t1 is not None)

    def _nested_count(self, group, within):
        return sum(1 for i, sp in enumerate(self.spans)
                   if sp[0] == group and self._has_ancestor(i, within))

    def metrics(self):
        """{name: value, or Absent with the reason}: every metric of UNITS."""
        c, n, t = self.counts.get, self._count, self._time
        tr, nw = ("transport",), ("newton",)

        def trials():
            # each Newton solve evaluates its starting residual once; every
            # further residual is a line-search trial
            return self._nested_count("residual", nw) - n(nw)

        # name -> (requirements: each a tuple of span groups of which at
        #          least one must be traced; groups whose call arguments or
        #          results the value reads; the value)
        table = {
            "transport.calls": ((tr,), (), lambda: n(tr)),
            "transport.vertices": ((tr,), tr, lambda: c("transport.vertices", 0)),
            "transport.substeps": ((tr,), tr, lambda: c("transport.substeps", 0)),
            "transport.s": ((tr,), (), lambda: t(tr)),
            "transport.tree_s": ((("tree",),), (), lambda: t(("tree",))),
            "transport.holonomy_s": ((("holonomy",),), (),
                                     lambda: t(("holonomy",))),
            "transport.substeps_per_s": (
                (tr,), tr, lambda: _ratio(c("transport.substeps", 0), t(tr))),
            "pde.newton_calls": ((nw,), (), lambda: n(nw)),
            "pde.newton_iters": ((nw,), nw, lambda: c("pde.newton_iters", 0)),
            "pde.residual_evals": ((("residual",),), (),
                                   lambda: n(("residual",))),
            "pde.linesearch_accept_ratio": (
                (nw, ("residual",)), nw,
                lambda: _ratio(c("pde.accepted_steps", 0), trials())),
            "pde.cg_calls": ((("cg",),), (), lambda: n(("cg",))),
            "pde.minres_calls": ((("minres",),), (), lambda: n(("minres",))),
            "pde.linear_iters": ((("cg", "minres"),), ("cg", "minres"),
                                 lambda: c("pde.linear_iters", 0)),
            "pde.linear_s": ((LINEAR_GROUPS,), (), lambda: t(LINEAR_GROUPS)),
            "pde.spsolve_fallbacks": ((("spsolve",),), (),
                                      lambda: n(("spsolve",))),
            "pde.self_s": ((SOLVE_GROUPS,), (), lambda: (
                t(SOLVE_GROUPS) - t(LINEAR_GROUPS, within=SOLVE_GROUPS))),
            "immersion.reconstruct_s": ((("reconstruct",),), (),
                                        lambda: t(("reconstruct",))),
            "immersion.reconstruct_self_s": (
                (("reconstruct",), tr), (), lambda: (
                    t(("reconstruct",)) - t(tr, within=("reconstruct",)))),
            "immersion.verify_s": ((("verify",),), (), lambda: t(("verify",))),
            "frames.connection_builds": ((("connection",),), (),
                                         lambda: n(("connection",))),
            "frames.connection_s": ((("connection",),), (),
                                    lambda: t(("connection",))),
            "frames.curvature_s": ((("curvature",),), (),
                                   lambda: t(("curvature",))),
            "frames.reality_s": ((("reality",),), (), lambda: t(("reality",))),
            "frames.group_residuals_s": ((("group_residuals",),), (),
                                         lambda: t(("group_residuals",))),
            "projective.develop_s": ((("develop",),), (),
                                     lambda: t(("develop",))),
            "projective.semiflat_s": ((("semiflat",),), (),
                                      lambda: t(("semiflat",))),
            "projective.holonomy_s": ((("holonomy_report",),), (),
                                      lambda: t(("holonomy_report",))),
            "weierstrass.represent_s": ((("represent",),), (),
                                        lambda: t(("represent",))),
            "geometry.stencil_calls": ((("stencil",),), (),
                                       lambda: n(("stencil",))),
            "geometry.stencil_s": ((("stencil",),), (), lambda: t(("stencil",))),
            "cli.export_s": ((("export",),), (), lambda: t(("export",))),
            "cli.self_s": ((("run",),), (), lambda: self._self_time(("run",))),
        }
        for stage in ("solve", "immerse", "verify", "develop", "weierstrass"):
            g = ("stage_" + stage,)
            table[f"cli.{stage}_s"] = ((g,), (), lambda g=g: t(g))

        out = {}
        for name in UNITS:
            needs, reads, value = table[name]
            out[name] = self._absent_reason(needs, reads) or value()
        return out

    def _absent_reason(self, needs, reads):
        for groups in needs:
            if all(g in self.absent for g in groups):
                return Absent(self.absent[groups[0]])
        for g in reads:
            for key in (g + ".args", g + ".result"):
                if key in self.absent:
                    return Absent(self.absent[key])
        return None


def _ratio(num, den):
    # no work done (no transport, no line search): report 0
    return num / den if den > 0 else 0.0
