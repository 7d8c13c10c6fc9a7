"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Tolerances are frozen here as C * h^2 (or C * h where stated) with the
constants calibrated once on the analytic regression data; h is the
larger grid spacing.  Run with `pytest -s tests/test_acceptance.py` to
see one line per criterion.
"""

import time

import numpy as np
import pytest

import titeica as tz
from titeica import cli

FLAT = tz.BackgroundMetric("flat")
POIN = tz.BackgroundMetric("poincare_disk")
HYP = tz.SignCase(1, -1)
Q1 = tz.CubicDifferential.constant(1.0)
Q0 = tz.CubicDifferential.constant(0.0)

ALL_TODA = [tz.SignCase(1, -1), tz.SignCase(1, 1),
            tz.SignCase(-1, -1), tz.SignCase(-1, 1)]
ZETA_SAMPLES = [1.0, np.exp(1j * np.pi / 3), 0.5, 2.0]


def _report(num, ok, detail):
    line = f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}]: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def torus128():
    dom = tz.Domain.torus(1j, 128, 128)
    p = tz.PdeProblem(dom, FLAT, Q1, HYP)
    t0 = time.perf_counter()
    rep = tz.solve_newton(p)
    return p, rep, time.perf_counter() - t0


def test_criterion_01_torus_constant_solution(torus128):
    p, rep, elapsed = torus128
    target = np.log(8.0) / 3.0
    dev = np.abs(rep.solution.u - target).max()
    ok = rep.converged and dev <= 1e-10 and elapsed < 5.0
    # same constant for the CP^2 signs (eps, lam) = (-1, +1)
    p2 = tz.PdeProblem(p.domain, FLAT, Q1, tz.SignCase(-1, 1))
    rep2 = tz.solve_newton(p2)
    dev2 = np.abs(rep2.solution.u - target).max()
    ok = ok and rep2.converged and dev2 <= 1e-10
    _report(1, ok, f"128^2 Newton dev {dev:.2e} / {dev2:.2e} (<=1e-10), "
                   f"{elapsed:.2f}s (<5s)")


def test_criterion_02_global_local_identity():
    rng = np.random.default_rng(7)
    worst = {}
    for n in (32, 64):
        dom = tz.Domain.disk_patch(0.7, n, n)
        Q = tz.CubicDifferential.polynomial([0.3, 0.2])
        p = tz.PdeProblem(dom, POIN, Q, HYP)
        vals = []
        for _ in range(20):
            cx = rng.normal(size=6)
            x, y = dom.z.real, dom.z.imag
            u = (cx[0] * np.sin(3 * x) * np.cos(2 * y) + cx[1] * x * y
                 + cx[2] * np.exp(x) + cx[3] * np.cos(5 * y)
                 + cx[4] * x ** 2 + cx[5])
            rg = tz.residual_global(u, p)
            rl = tz.residual_local(tz.local_weight(u, p.sigma), Q, HYP, dom)
            vals.append(np.abs(rg - 4.0 / p.sigma * rl)[1:-1, 1:-1].max())
        worst[n] = max(vals)
    h32 = tz.Domain.disk_patch(0.7, 32, 32).hmax
    ratio = worst[32] / worst[64]
    ok = worst[32] <= 20.0 * h32 ** 2 and 3.5 <= ratio <= 4.5
    _report(2, ok, f"identity dev {worst[32]:.2e} (<= {20 * h32 ** 2:.2e}), "
                   f"N->2N ratio {ratio:.2f} in [3.5, 4.5]")


def test_criterion_03_zero_curvature(torus32):
    p, sol = torus32
    tol = 20.0 * p.domain.hmax ** 2
    # constant-solution leg with Q != 0 (only the eps*lam = -1 cases admit a
    # torus constant solution; this leg exercises the eps-dependent entry)
    worst = 0.0
    for case in (tz.SignCase(1, -1), tz.SignCase(-1, 1)):
        for zeta in ZETA_SAMPLES:
            al = tz.build_connection(sol.psi, p.Q, case, p.domain, zeta=zeta)
            worst = max(worst, float(tz.curvature_residual(al).max()))
    # order-2 ratio on analytic non-constant weights (Q = 0): the Poincare
    # weight solves the lam = -1 cases, the spherical weight the lam = +1
    # cases; together all four loop families are checked
    ratios = []
    for case in ALL_TODA:
        vals = {}
        for n in (32, 64):
            dom = tz.Domain.disk_patch(0.7, n, n)
            if case.lam == -1:
                psi = np.log(np.sqrt(2.0) / (1.0 - np.abs(dom.z) ** 2))
            else:
                psi = 0.5 * np.log(2.0) - np.log(1.0 + np.abs(dom.z) ** 2)
            mgn = n // 8
            for zeta in ZETA_SAMPLES:
                al = tz.build_connection(psi, Q0, case, dom, zeta=zeta)
                c = float(tz.curvature_residual(al)[mgn:-mgn, mgn:-mgn].max())
                vals[n] = max(vals.get(n, 0.0), c)
        assert vals[32] <= 100.0 * tz.Domain.disk_patch(0.7, 32, 32).hmax ** 2
        ratios.append(vals[32] / vals[64])
    ok = worst <= tol and all(3.0 <= r <= 5.0 for r in ratios)
    _report(3, ok, f"constant-solution curvature {worst:.2e} (<= {tol:.2e}); "
                   f"refinement ratios {[f'{r:.2f}' for r in ratios]} ~ order 2")


def test_criterion_04_reality_conditions(torus32):
    p, sol = torus32
    zs = [np.exp(1j * np.pi / 5), 0.37 + 0.9j, 0.5, 2.0]
    worst_matched = 0.0
    worst_mismatch = np.inf
    for case in ALL_TODA:
        al = tz.build_connection(sol.psi, p.Q, case, p.domain, zeta=1.0)
        worst_matched = max(worst_matched, tz.reality_check(al, zs))
        for other in ALL_TODA:
            if (other.epsilon, other.lam) == (case.epsilon, case.lam):
                continue
            worst_mismatch = min(worst_mismatch,
                                 tz.reality_check(al, zs, involution_case=other))
    ok = worst_matched <= 1e-12 and worst_mismatch > 1e-3
    _report(4, ok, f"matched involutions {worst_matched:.2e} (<=1e-12), "
                   f"weakest mismatch {worst_mismatch:.2e} (>1e-3)")


def test_criterion_05_holonomy_commutativity(torus128):
    p, rep, _ = torus128
    comm = {}
    for n, problem in ((128, (p, rep.solution)), (256, None)):
        if problem is None:
            dom = tz.Domain.torus(1j, n, n)
            pn = tz.PdeProblem(dom, FLAT, Q1, HYP)
            sol = tz.solve_newton(pn).solution
        else:
            pn, sol = problem
        al = tz.build_connection(sol.psi, Q1, HYP, pn.domain, zeta=1.0)
        h1 = tz.holonomy(al, tz.torus_generator(pn.domain, 0))
        h2 = tz.holonomy(al, tz.torus_generator(pn.domain, 1))
        comm[n] = float(np.linalg.norm(h1 @ h2 - h2 @ h1))
    # for the constant solution the two transports are functions of commuting
    # constant matrices, so the commutator sits at the solver/rounding floor
    # at every resolution; the refinement leg is an order-2 upper envelope
    ok = comm[128] <= 1e-6 and comm[256] <= max(comm[128] / 3.5, 1e-9)
    _report(5, ok, f"commutator {comm[128]:.2e} at 128 (<=1e-6), "
                   f"{comm[256]:.2e} at 256 (order-2 envelope)")


def test_criterion_06_q0_quadric(disk_q0, torus_mesh):
    p, sol = disk_q0
    mesh = tz.affine_sphere_immersion(sol, p.Q, lam=-1)
    fit = tz.quadric_fit(mesh.vertices.reshape(-1, 3))
    tol = 20.0 * p.domain.hmax ** 2
    fit_t = tz.quadric_fit(torus_mesh.vertices.reshape(-1, 3))
    ok = (fit.residual <= tol and fit.signature == (2, 1)
          and fit_t.residual >= 100.0 * fit.residual)
    _report(6, ok, f"Q=0 quadric residual {fit.residual:.2e} (<= {tol:.2e}), "
                   f"signature {fit.signature}; nonzero-Q mesh "
                   f"{fit_t.residual / fit.residual:.0f}x larger (>=100x)")


def test_criterion_07_structure_equations(torus32, torus_mesh):
    p, sol = torus32
    rep = tz.verify_affine(torus_mesh, sol, p.Q)
    tol = 20.0 * p.domain.hmax ** 2
    ok = all(e.max <= tol for e in rep.values())
    detail = ", ".join(f"{k}={e.max:.1e}" for k, e in rep.items())
    _report(7, ok, f"all identities <= {tol:.2e}: {detail}")


def test_criterion_08_conormal_duality(torus32, torus_mesh):
    p, sol = torus32
    tol = 20.0 * p.domain.hmax ** 2
    dual = tz.conormal_dual(torus_mesh)
    q_dual = tz.recover_cubic(dual)[2:-2, 2:-2]
    cubic_dev = np.abs(q_dual + p.Q(p.domain.z)[2:-2, 2:-2]).max()
    w = tz.recover_metric_weight(dual)[2:-2, 2:-2]
    metric_dev = np.abs(w - np.exp(2 * sol.psi)[2:-2, 2:-2]).max()
    dd = tz.conormal_dual(dual)
    dd_dev = np.abs(dd.vertices - torus_mesh.vertices)[2:-2, 2:-2].max()
    ok = cubic_dev <= tol and metric_dev <= tol and dd_dev <= tol
    _report(8, ok, f"dual cubic +Q dev {cubic_dev:.2e}, metric {metric_dev:.2e}, "
                   f"double dual {dd_dev:.2e} (all <= {tol:.2e})")


def test_criterion_09_weierstrass_monge_ampere():
    pairs = [tz.HoloPair.from_coeffs([0.0], [0.0, 1.0]),
             tz.HoloPair.from_coeffs([0.0, 0.1], [0.0, 1.0]),
             tz.HoloPair.from_coeffs([0.0, 0.0, 0.2], [0.0, 1.0, 0.05])]
    dom = tz.Domain.rectangle(1.0, 1.0, 41, 41)
    tol = 40.0 * dom.hmax ** 2
    worst = 0.0
    for pair in pairs:
        mesh = tz.parabolic_from_holomorphic(pair, dom)
        sf = tz.semiflat_develop(mesh)
        worst = max(worst, float(np.abs(sf.ma_residual[2:-2, 2:-2]).max()))
    # Legendre leg on the regular-grid pair
    mesh = tz.parabolic_from_holomorphic(pairs[1], dom)
    sf = tz.semiflat_develop(mesh)
    g = tz.GraphFunction(sf.x[:, 0, 0], sf.x[0, :, 1], sf.phi)
    gs = tz.legendre_transform(g)
    r_dual = float(np.nanmax(np.abs(tz.graph_ma_residual(gs))))
    gss = tz.legendre_transform(gs)
    # s** compared against s (known in closed form) on the round-trip grid
    XX1, XX2 = np.meshgrid(gss.x1, gss.x2, indexing="ij")
    exact = 0.99 / 8 * ((XX1 / 0.55) ** 2 + (XX2 / 0.45) ** 2)
    roundtrip = float(np.nanmax(np.abs(
        np.where(gss.mask, gss.values, np.nan) - exact)))
    ok = worst <= tol and r_dual <= tol and roundtrip <= tol
    _report(9, ok, f"det Hess residual {worst:.2e}, dual residual {r_dual:.2e}, "
                   f"s** dev {roundtrip:.2e} (all <= {tol:.2e})")


def test_criterion_10_monotone_bracket():
    dom = tz.Domain.disk_patch(0.7, 25, 25)
    Q = tz.CubicDifferential.constant(4.0)
    p = tz.PdeProblem(dom, POIN, Q, HYP)
    max8 = float(np.max(8 * p.qnorm2))
    m = tz.cubic_supersolution_root(max8)
    rep_m = tz.solve_monotone(p)
    rep_n = tz.solve_newton(p)
    agree = np.abs(rep_m.solution.u - rep_n.solution.u).max()
    hist = rep_m.info["history"]
    in_bracket = (min(hist["min_step"]) >= -1e-9
                  and max(hist["max_u"]) <= np.log(m) + 1e-9
                  and rep_m.solution.u.min() >= -1e-9)
    ok = (abs(max8 - 2.0) < 1e-12 and rep_m.converged and rep_n.converged
          and agree <= 1e-8 and in_bracket)
    _report(10, ok, f"max 8||Q||^2 = {max8:.3f}, m = {m:.6f}; monotone/Newton "
                    f"agree to {agree:.2e} (<=1e-8); iterates in [0, log m]")


def test_criterion_11_ch2_continuation():
    dom = tz.Domain.disk_patch(0.7, 33, 33)
    case = tz.SignCase(-1, -1)
    bound = tz.ch2_continuation_bound(Q1, POIN, dom)
    t_star = 0.5 * bound
    p0 = tz.PdeProblem(dom, POIN, Q1.scaled(0.0), case)
    fam = tz.continuation_family(p0, Q1, np.linspace(0.0, t_star, 5))
    sol = fam.reports[-1].solution
    Qt = Q1.scaled(t_star)
    nq = float(tz.cubic_norm_induced(Qt, POIN, sol.u, dom.z).max())
    al = tz.minlag_frame_connection(sol.psi, Qt, case, dom)
    path = tz.polyline_path(dom, [0.0, 0.35 + 0.2j, -0.3 + 0.35j, 0.0],
                            closed=True)
    F = tz.integrate_frame(al, path, np.eye(3, dtype=complex))
    su21 = tz.group_residuals(F, "su21")["unitarity"]
    tol = 20.0 * dom.hmax ** 2
    ok = (fam.failure_index is None and nq <= 0.25 and su21 <= tol)
    _report(11, ok, f"t* = {t_star:.3f} converged; max ||Q||_induced "
                    f"{nq:.3f} (<=0.25); SU(2,1) residual {su21:.2e} "
                    f"(<= {tol:.2e})")


def test_criterion_12_c2_minimal_lagrangian():
    dom = tz.Domain.rectangle(1.0, 1.0, 33, 33)
    psi = 0.5 * np.log(np.cosh(2.0 * dom.z.real))
    u_exact = tz.global_weight(psi, 1.0)
    p = tz.PdeProblem(dom, FLAT, Q1, tz.SignCase(-1, 0), boundary=u_exact)
    rep = tz.solve_newton(p, u0=u_exact)
    mesh = tz.minlag_c2_immersion(rep.solution, Q1)
    rv = tz.verify_minlag_c2(mesh, rep.solution, Q1)
    tol2 = 20.0 * dom.hmax ** 2
    theta = tz.lagrangian_angle(mesh)
    osc = tz.angle_oscillation(theta[2:-2, 2:-2])
    meas, tgt = tz.shape_operator_norm(mesh, Q1, rep.solution)
    shape_dev = float(np.abs(meas - tgt)[2:-2, 2:-2].max())
    tol1 = 1.0 * dom.hmax
    checks = {k: rv[k].max for k in ("f_zzbar", "lagrangian", "conformal",
                                     "symplectic")}
    ok = (rep.converged and all(v <= tol2 for v in checks.values())
          and osc <= tol2 and shape_dev <= tol1)
    _report(12, ok, f"harmonicity/Lagrangian/conformal <= {tol2:.2e} "
                    f"({max(checks.values()):.2e}); angle oscillation "
                    f"{osc:.2e}; shape operator dev {shape_dev:.2e} "
                    f"(<= {tol1:.2e})")


def test_criterion_13_gauss_bonnet_obstruction(tmp_path):
    cfg = {
        "schema_version": 1,
        "case": "minlag_ch2",
        "domain": {"kind": "torus", "tau": [0.0, 1.0], "shape": [32, 32]},
        "metric": {"kind": "flat"},
        "cubic": {"kind": "constant", "c": [1.0, 0.0]},
        "solver": {"method": "newton", "max_iter": 30,
                   "require_convergence": True},
    }
    code, report = cli.run(cfg, stage="solve", out_dir=tmp_path)
    direct = tz.solve_newton(
        tz.PdeProblem(tz.Domain.torus(1j, 32, 32), FLAT, Q1,
                      tz.SignCase(-1, -1)), max_iter=30)
    ok = code == 3 and not report["solver"]["converged"] and not direct.converged
    _report(13, ok, f"torus (eps, lam) = (-1, -1) exits {code} (=3), "
                    f"converged={report['solver']['converged']} (never True)")
