"""The benchmark's four workloads: seed-0 configs and the seeded jitter.

Seed 0 gives the configs below exactly.  Any other seed multiplies each
cubic-differential coefficient (for ``weierstrass_mesh``, each coefficient
of the holomorphic pair) by its own real factor drawn uniformly from
[0.95, 1.0].  Grids, solvers and stages never change, so the cost of a
run does not depend on the seed.  The factors never exceed 1 because
``disk_solve`` at seed 0 ends its second Newton step at a residual of
0.87 of the tolerance: a cubic differential a few percent larger needs a
third step, which costs half as much again.
"""

import copy
import random

JITTER = 0.05

_DISK = {"kind": "disk_patch", "radius": 0.7}

WORKLOADS = {
    # ~97% of a run is RK4 transport: tree of 4x4 row frames plus two
    # holonomy loops of 3x3 column frames; the solve is under 1%.
    "torus_affine": {
        "stage": "all",
        "config": {
            "schema_version": 1,
            "case": "hyperbolic_affine_sphere",
            "domain": {"kind": "torus", "tau": [0.0, 1.0], "shape": [64, 64]},
            "metric": {"kind": "flat", "sigma": 1.0},
            "cubic": {"kind": "constant", "c": [1.0, 0.0]},
            "solver": {"method": "newton", "tol": 1e-10},
            "outputs": {"mesh": "mesh.obj", "report": "report.json"},
        },
    },
    # ~95% of a run is diagonal-preconditioned CG; no transport at all.
    "disk_solve": {
        "stage": "solve",
        "config": {
            "schema_version": 1,
            "case": "hyperbolic_affine_sphere",
            "domain": dict(_DISK, shape=[256, 256]),
            "metric": {"kind": "poincare_disk"},
            "cubic": {"kind": "polynomial", "coeffs": [[0.5, 0.0], [0.3, 0.0]]},
            "solver": {"method": "newton", "tol": 1e-10},
            "outputs": {"report": "report.json"},
        },
    },
    # Six warm-started Newton solves, 3x3 column-frame transport, the
    # spectral verification path and a complex JSON mesh dump.
    "ch2_continuation": {
        "stage": "all",
        "config": {
            "schema_version": 1,
            "case": "minlag_ch2",
            "domain": dict(_DISK, shape=[64, 64]),
            "metric": {"kind": "poincare_disk"},
            "cubic": {"kind": "constant", "c": [1.0, 0.0]},
            "solver": {"method": "newton", "tol": 1e-10,
                       "t_grid": [0.0, 0.1, 0.2, 0.3, 0.4, 0.45]},
            "outputs": {"mesh": "mesh.json", "report": "report.json"},
        },
    },
    # No solve and no transport: holomorphic representation, semi-flat
    # development and the OBJ export of a 512^2 mesh.
    "weierstrass_mesh": {
        "stage": "weierstrass",
        "config": {
            "schema_version": 1,
            "case": "parabolic_affine_sphere",
            "domain": {"kind": "rectangle", "width": 1.0, "height": 1.0,
                       "shape": [512, 512]},
            "metric": {"kind": "flat"},
            "weierstrass": {"f_coeffs": [[0.0, 0.0], [0.1, 0.0], [0.05, 0.02]],
                            "g_coeffs": [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0],
                                         [0.1, 0.0]]},
            "outputs": {"mesh": "mesh.obj", "report": "report.json"},
        },
    },
}


def _scale(coeff, factor):
    return [coeff[0] * factor, coeff[1] * factor]


def make_config(name, seed):
    """Return (stage, config) for workload `name` under `seed`."""
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    spec = WORKLOADS[name]
    cfg = copy.deepcopy(spec["config"])
    if seed:
        rng = random.Random(seed)

        def draw():
            return 1.0 - rng.uniform(0.0, JITTER)

        cubic = cfg.get("cubic")
        if cubic and cubic["kind"] == "constant":
            cubic["c"] = _scale(cubic["c"], draw())
        elif cubic:
            cubic["coeffs"] = [_scale(a, draw()) for a in cubic["coeffs"]]
        pair = cfg.get("weierstrass")
        if pair:
            for key in ("f_coeffs", "g_coeffs"):
                pair[key] = [_scale(a, draw()) for a in pair[key]]
    return spec["stage"], cfg
