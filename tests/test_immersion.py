import copy
import tracemalloc
from functools import partial

import numpy as np
import pytest
from scipy.linalg import expm

import titeica as tz
from titeica import cli, immersion
from titeica.errors import InitDataError, InvalidSignCase
from titeica._kernels import _magnus, _scaling
from titeica.frames import affine_connection
from titeica.immersion import E3, integrate_tree
from tests.conftest import (AFFINE_GAUGE, affine_complex_system,
                            affine_fields, affine_step, complex_affine_tree,
                            dense_step, hyperboloid_mesh)

FLAT = tz.BackgroundMetric("flat")
POIN = tz.BackgroundMetric("poincare_disk")
HYP = tz.SignCase(1, -1)
Q1 = tz.CubicDifferential.constant(1.0)


# -- affine sphere reconstruction ------------------------------------------------

def test_affine_mesh_matrix_exponential_oracle(torus_mesh, torus32,
                                              monkeypatch):
    """With constant psi and Q the frame system has constant commuting
    coefficients, so F(z) = expm(A z + B zbar) F0 is an independent oracle."""
    p, sol = torus32
    dom = p.domain
    psi0 = sol.psi[0, 0]
    q = np.exp(-2 * psi0)
    e2 = np.exp(2 * psi0)
    lam = -1
    A = np.array([[0, q, 0, 0], [0, 0, e2, 0], [-lam, 0, 0, 0], [1, 0, 0, 0]],
                 dtype=complex)
    B = np.array([[0, 0, e2, 0], [np.conj(q), 0, 0, 0], [0, -lam, 0, 0],
                  [0, 1, 0, 0]], dtype=complex)
    f0, xi0, a = torus_mesh.meta["init"]
    F0 = np.stack([a, np.conj(a), xi0, f0])
    root = torus_mesh.meta["root"]
    z0 = dom.z[root]
    worst = 0.0
    for (j, k) in [(0, 0), (5, 7), (31, 31), (12, 3), (20, 26)]:
        z = dom.z[j, k] - z0
        oracle = (expm(A * z + B * np.conj(z)) @ F0)[3].real
        worst = max(worst, np.abs(oracle - torus_mesh.vertices[j, k]).max())
    assert worst < 1e-7
    # the tree runs in the real gauge: its frames are real, nothing leaks
    trees = []

    def tree(*args, **kwargs):
        trees.append(integrate_tree(*args, **kwargs))
        return trees[-1]

    monkeypatch.setattr(immersion, "integrate_tree", tree)
    mesh = tz.affine_sphere_immersion(sol, p.Q, lam=-1)
    [(frames, _)] = trees
    assert frames.dtype == np.float64
    assert np.array_equal(mesh.vertices, torus_mesh.vertices)


def test_affine_mesh_titeica_product(torus_mesh):
    """After the analytic eigenbasis change the reconstruction satisfies
    x1 x2 x3 = 1: the classical hyperbolic affine sphere over the first
    octant, up to a linear map."""
    w = np.exp(2j * np.pi / 3)
    V = np.array([[w ** (i * k) for k in range(3)] for i in range(3)])
    f0, xi0, a = torus_mesh.meta["init"]
    F0 = np.stack([a, np.conj(a), xi0])
    R = np.diag(V[2]) @ np.linalg.inv(V) @ F0
    assert np.abs(R.imag).max() < 1e-12
    coords = np.einsum("ij,nmj->nmi", np.linalg.inv(R.real.T),
                       torus_mesh.vertices)
    assert (coords > 0).all()
    assert np.abs(np.prod(coords, axis=-1) - 1.0).max() < 1e-6


def test_affine_init_must_satisfy_determinant(torus32):
    p, sol = torus32
    bad = (np.zeros(3), np.array([0.0, 0.0, 1.0]), np.array([1.0, -1.0j, 0.0]))
    with pytest.raises(InitDataError):
        tz.affine_sphere_immersion(sol, p.Q, lam=-1, init=bad)


def test_verify_affine_torus(torus_mesh, torus32):
    p, sol = torus32
    rep = tz.verify_affine(torus_mesh, sol, p.Q)
    tol = 20.0 * p.domain.hmax ** 2
    for name in ("det_identity", "f_zzbar", "f_zz", "cubic_recovery",
                 "det_drift"):
        assert rep[name] <= tol, name


def _weight(dom):
    """A smooth weight u, periodic on a torus: the rows' identity below is
    algebraic, so u need not solve the metric equation."""
    if dom.periodic:
        j, k = np.indices(dom.shape)
        return 0.3 * np.sin(2 * np.pi * (j / dom.shape[0] + 2 * k / dom.shape[1]))
    return 0.3 * np.sin(3.0 * dom.z.real + dom.z.imag)


@pytest.mark.parametrize("where", ["torus", "disk"])
@pytest.mark.parametrize("lam", [-1, 0, 1], ids=lambda lam: f"lam{lam}")
def test_transported_xi_is_the_affine_normal(where, lam, monkeypatch):
    # the rows (f_z, f_zbar, xi, f) carry dxi = -lam f_z dz - lam f_zbar
    # dzbar = -lam df, so xi + lam f keeps its root value 0 along every
    # edge: verify_affine takes xi = -lam f (e3 at lam = 0) and gates
    # neither xi_z nor the center normalization.  A position row of 1.01
    # in place of 1 fails it
    if where == "torus":
        dom, mu = tz.Domain.torus(0.3 + 1.1j, 32, 32), FLAT
    else:
        dom, mu = tz.Domain.disk_patch(0.7, 32, 32), POIN
    sol = tz.MetricSolution(_weight(dom), dom, mu)
    Q = tz.CubicDifferential.polynomial([0.5 + 0.2j, 0.3])
    trees = []

    def tree(*args, **kwargs):
        trees.append(integrate_tree(*args, **kwargs))
        return trees[-1]

    monkeypatch.setattr(immersion, "integrate_tree", tree)
    tz.affine_sphere_immersion(sol, Q, lam=lam)
    [(frames, _)] = trees
    xi, f = frames[..., 2, :], frames[..., 3, :]
    if lam == 0:
        assert np.all(xi == E3)
    else:
        assert np.abs(xi + lam * f).max() <= 1e-13


def _real_tree(sol, Q, lam, monkeypatch, **kwargs):
    """The mesh of affine_sphere_immersion and the frames of its tree."""
    trees = []

    def tree(*args, **kw):
        trees.append(integrate_tree(*args, **kw))
        return trees[-1]

    monkeypatch.setattr(immersion, "integrate_tree", tree)
    mesh = tz.affine_sphere_immersion(sol, Q, lam=lam, **kwargs)
    [(frames, _)] = trees
    return mesh, frames


def _rel_err(got, ref):
    return np.abs(got - ref).max() / np.abs(ref).max()


ORACLE_DOMAINS = {
    "oblique_torus": lambda: (tz.Domain.torus(0.3 + 1.1j, 24, 17), FLAT),
    "disk_patch": lambda: (tz.Domain.disk_patch(0.7, 16, 16), POIN),
    "rectangle": lambda: (tz.Domain.rectangle(1.0, 2.0, 20, 17), FLAT),
}


@pytest.mark.parametrize("axis_first", [0, 1])
@pytest.mark.parametrize("where", ["centre", "corner"])
@pytest.mark.parametrize("lam", [-1, 0, 1], ids=lambda lam: f"lam{lam}")
@pytest.mark.parametrize("name", sorted(ORACLE_DOMAINS))
def test_real_tree_matches_the_complex_tree(name, lam, where, axis_first,
                                            monkeypatch):
    # the tree on the real rows (f_x, f_y, xi, f) against the complex
    # system on (f_z, f_zbar, xi, f), realified to 8 x 8: the same surface
    # to rounding, every row of the frame mapped by the gauge
    dom, mu = ORACLE_DOMAINS[name]()
    sol = tz.MetricSolution(_weight(dom), dom, mu)
    Q = tz.CubicDifferential.polynomial([0.5 + 0.2j, 0.3])
    root = None if where == "centre" else (0, dom.shape[1] - 1)
    mesh, frames = _real_tree(sol, Q, lam, monkeypatch, root=root,
                              axis_first=axis_first)
    assert frames.dtype == np.float64
    ref = complex_affine_tree(sol, Q, lam, mesh.meta["init"],
                              mesh.meta["root"], axis_first)
    assert _rel_err(mesh.vertices, ref[..., 3, :].real) <= 1e-13
    assert _rel_err(frames, AFFINE_GAUGE @ ref) <= 1e-13


@pytest.mark.parametrize("lam", [-1, 0, 1], ids=lambda lam: f"lam{lam}")
def test_real_tree_matches_the_complex_tree_when_refined(lam, monkeypatch):
    # Q = 4 + 0.3 z on an 8 x 8 grid: the teeth's Omega is too large for
    # one Magnus step, and the kernel refines each edge to 2^k sub-edges
    dom = tz.Domain.rectangle(1.0, 2.0, 8, 8)
    sol = tz.MetricSolution(_weight(dom), dom, FLAT)
    Q = tz.CubicDifferential.polynomial([4.0, 0.3])
    teeth = affine_step(lam, complex(dom.step2),
                        *affine_fields(sol.psi, Q, dom))
    assert _scaling(_magnus(teeth))[1] > 0
    mesh, frames = _real_tree(sol, Q, lam, monkeypatch)
    ref = complex_affine_tree(sol, Q, lam, mesh.meta["init"],
                              mesh.meta["root"])
    assert _rel_err(mesh.vertices, ref[..., 3, :].real) <= 1e-13
    assert _rel_err(frames, AFFINE_GAUGE @ ref) <= 1e-13


@pytest.mark.parametrize("lam", [-1, 0, 1], ids=lambda lam: f"lam{lam}")
def test_affine_step_is_the_gauged_row_system(lam):
    # affine_connection is T (A dz + B dzbar) T^-1 of the complex row
    # system plus the position row, to rounding, and real: B = conj(A).
    # Its pattern step is the coefficient that the dense assembly of the
    # three scalar fields gives, to the bit, for any step
    dom = tz.Domain.torus(0.3 + 1.1j, 24, 17)
    psi = _weight(dom)
    Q = tz.CubicDifferential.polynomial([0.5 + 0.2j, 0.3])
    alpha = affine_connection(psi, Q, lam, dom)
    A, B = affine_complex_system(psi, Q, lam, dom)
    T, T_inv = AFFINE_GAUGE, np.linalg.inv(AFFINE_GAUGE)
    got_A, got_B = alpha.dense()
    for got, X in ((got_A, A), (got_B, B)):
        ref = T @ X @ T_inv
        assert np.abs(got - ref).max() <= 1e-15 * np.abs(ref).max()
    assert np.array_equal(got_B, np.conj(got_A))
    step, fields = alpha.row_system(True)
    oracle = affine_fields(psi, Q, dom)
    for zdot in (dom.step1, dom.step2, -dom.step2, 0.3 - 0.7j):
        got = step(zdot, *(X[3:9] for X in fields))
        assert got.dtype == np.float64
        assert np.array_equal(got, affine_step(lam, zdot,
                                               *(X[3:9] for X in oracle)))


# every tree of the package against the same tree run on the dense
# coefficient (conftest's dense_step and affine_step): the kernel's pattern
# product must give the coefficient to the bit, so the frames are equal
SYSTEMS = {
    "c2": tz.SignCase(-1, 0), "cp2": tz.SignCase(-1, 1),
    "ch2": tz.SignCase(-1, -1), "affine_lam-1": tz.SignCase(1, -1),
    "affine_lam0": tz.SignCase(1, 0), "affine_lam1": tz.SignCase(1, 1),
}


def _form(name, psi, Q, dom):
    case = SYSTEMS[name]
    if case.is_affine:
        return affine_connection(psi, Q, case.lam, dom)
    if case.lam == 0:
        return tz.build_connection(psi, Q, case, dom, convention="row_frame")
    return tz.minlag_frame_connection(psi, Q, case, dom)


def _pattern_and_dense_trees(name, sol, Q, axis_first=0):
    """What the immersion of system `name` holds, its vertices and (on
    CP^2/CH^2) its frames, and the same from the tree of its form run on
    the dense coefficient."""
    dom, psi, case = sol.domain, sol.psi, SYSTEMS[name]
    if case.is_affine:
        mesh = tz.affine_sphere_immersion(sol, Q, case.lam,
                                          axis_first=axis_first)
        f0, xi0, a = mesh.meta["init"]
        F0 = np.stack([2.0 * a.real, -2.0 * a.imag, xi0.real, f0.real])
        step, fields = (partial(affine_step, case.lam),
                        affine_fields(psi, Q, dom))
    elif case.lam == 0:
        mesh = tz.minlag_c2_immersion(sol, Q, axis_first=axis_first)
        F0 = np.stack(mesh.meta["init"])
        step, fields = dense_step, _form(name, psi, Q, dom).dense()
    else:
        mesh = tz.minlag_cpn_immersion(sol, Q, case, axis_first=axis_first)
        F0 = np.eye(3, dtype=complex)
        step = dense_step
        fields = [np.swapaxes(X, -1, -2)
                  for X in _form(name, psi, Q, dom).dense()]
    frames, _ = integrate_tree(dom, step, fields, F0, root=mesh.meta["root"],
                               axis_first=axis_first)
    if mesh.frame is None:
        return [mesh.vertices], [frames[..., -1, :]]
    return ([mesh.vertices, mesh.frame],
            [frames[..., 2, :], np.swapaxes(frames, -1, -2)])


@pytest.mark.parametrize("axis_first", [0, 1])
@pytest.mark.parametrize("system", sorted(SYSTEMS))
@pytest.mark.parametrize("name", sorted(ORACLE_DOMAINS))
def test_trees_match_the_dense_trees(name, system, axis_first):
    dom, mu = ORACLE_DOMAINS[name]()
    sol = tz.MetricSolution(_weight(dom), dom, mu)
    Q = tz.CubicDifferential.polynomial([0.5 + 0.2j, 0.3])
    got, ref = _pattern_and_dense_trees(system, sol, Q, axis_first)
    for X, Y in zip(got, ref, strict=True):
        assert np.array_equal(X, Y)


@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_trees_match_the_dense_trees_when_refined(system):
    # Q = 4 + 0.3 z on an 8 x 8 grid: the teeth's Omega is too large for
    # one Magnus step, and the kernel refines each edge to 2^k sub-edges
    dom = tz.Domain.rectangle(1.0, 2.0, 8, 8)
    sol = tz.MetricSolution(_weight(dom), dom, FLAT)
    Q = tz.CubicDifferential.polynomial([4.0, 0.3])
    step, fields = _form(system, sol.psi, Q, dom).row_system(
        SYSTEMS[system].is_affine)
    assert _scaling(_magnus(step(complex(dom.step2), *fields)))[1] > 0
    for X, Y in zip(*_pattern_and_dense_trees(system, sol, Q), strict=True):
        assert np.array_equal(X, Y)


@pytest.mark.parametrize("row", [0, 1], ids=["f0", "xi0"])
def test_affine_init_must_be_real(torus32, row):
    # xi0 + i e1 leaves det(a, conj a, xi0) as it is, a and conj a having
    # no third component; an affine sphere in R^3 has real xi0 and f0
    p, sol = torus32
    f0, xi0, a = tz.affine_sphere_immersion(sol, p.Q, lam=-1).meta["init"]
    init = [f0, xi0, a]
    init[row] = init[row] + np.array([1j, 0.0, 0.0])
    with pytest.raises(InitDataError, match="real"):
        tz.affine_sphere_immersion(sol, p.Q, lam=-1, init=init)


def test_oblique_torus_mesh_checks():
    # verify_affine and conormal_dual difference the vertices on a
    # non-periodic copy of the torus domain, cross term included
    dom = tz.Domain.torus(0.3 + 1.1j, 32, 32)
    sol = tz.solve_newton(tz.PdeProblem(dom, FLAT, Q1, HYP)).solution
    mesh = tz.affine_sphere_immersion(sol, Q1, lam=-1)
    tol = 20.0 * dom.hmax ** 2
    for name, value in tz.verify_affine(mesh, sol, Q1).items():
        assert value <= tol, name
    dd = tz.conormal_dual(tz.conormal_dual(mesh))
    assert np.abs(dd.vertices - mesh.vertices)[2:-2, 2:-2].max() <= tol


def test_verify_affine_detects_noise(torus_mesh, torus32):
    p, sol = torus32
    base = tz.verify_affine(torus_mesh, sol, p.Q)["det_identity"]
    noisy = copy.deepcopy(torus_mesh)
    noisy.vertices[16, 16] += 1e-3
    bumped = tz.verify_affine(noisy, sol, p.Q)["det_identity"]
    assert bumped >= 10.0 * base


def test_spanning_tree_independence(torus32):
    p, sol = torus32
    m0 = tz.affine_sphere_immersion(sol, p.Q, lam=-1, axis_first=0)
    m1 = tz.affine_sphere_immersion(sol, p.Q, lam=-1, axis_first=1)
    dev = np.abs(m0.vertices - m1.vertices).max()
    assert dev <= 20.0 * p.domain.hmax ** 2


def test_parabolic_patch_is_paraboloid():
    """psi = 0, Q = 0, lam = 0: the analytic reconstruction from the default
    init is f = (sqrt2 x, sqrt2 y, |z|^2), the graph of a paraboloid with
    det Hess = 1; the coefficient is constant, so each edge's exponential
    is exact."""
    dom = tz.Domain.rectangle(0.5, 0.5, 16, 16)
    sol = tz.MetricSolution(np.full(dom.shape, np.log(2.0)), dom, FLAT)
    mesh = tz.affine_sphere_immersion(sol, tz.CubicDifferential.constant(0.0),
                                      lam=0)
    z = dom.z - dom.z[8, 8]
    expect = np.stack([np.sqrt(2) * z.real, np.sqrt(2) * z.imag,
                       np.abs(z) ** 2], axis=-1)
    assert np.abs(mesh.vertices - expect).max() < 1e-12
    sf = tz.semiflat_develop(mesh)
    assert np.abs(sf.ma_residual[1:-1, 1:-1]).max() < 1e-10


def test_q0_pipeline_lies_on_quadric(disk_q0):
    p, sol = disk_q0
    mesh = tz.affine_sphere_immersion(sol, p.Q, lam=-1)
    fit = tz.quadric_fit(mesh.vertices.reshape(-1, 3))
    assert fit.residual <= 20.0 * p.domain.hmax ** 2
    assert fit.signature == (2, 1)


# -- conormal duality --------------------------------------------------------------

def test_conormal_hyperboloid_closed_form():
    mesh, _ = hyperboloid_mesh(24)
    dual = tz.conormal_dual(mesh)
    oracle = mesh.vertices * np.array([-1.0, -1.0, 1.0])
    dev = np.abs(dual.vertices - oracle)[1:-1, 1:-1].max()
    assert dev <= 20.0 * mesh.domain.hmax ** 2


def test_conormal_dual_cubic_flips(torus_mesh, torus32):
    p, sol = torus32
    tol = 20.0 * p.domain.hmax ** 2
    dual = tz.conormal_dual(torus_mesh)
    # the dual has the same metric and cubic form -Q
    rep = tz.verify_affine(dual, sol, p.Q.scaled(-1))
    assert rep["cubic_recovery"] <= tol
    assert rep["det_identity"] <= tol


def test_conormal_double_dual(torus_mesh, torus32):
    p, _ = torus32
    dd = tz.conormal_dual(tz.conormal_dual(torus_mesh))
    dev = np.abs(dd.vertices - torus_mesh.vertices)[2:-2, 2:-2].max()
    assert dev <= 20.0 * p.domain.hmax ** 2


def test_conormal_rejects_parabolic():
    dom = tz.Domain.rectangle(0.5, 0.5, 16, 16)
    sol = tz.MetricSolution(np.full(dom.shape, np.log(2.0)), dom, FLAT)
    mesh = tz.affine_sphere_immersion(sol, tz.CubicDifferential.constant(0.0),
                                      lam=0)
    with pytest.raises(InvalidSignCase):
        tz.conormal_dual(mesh)


# -- minimal Lagrangian in C^2 --------------------------------------------------------

def c2_problem(n, Q, boundary=0.0, u0=None):
    dom = tz.Domain.rectangle(1.0, 1.0, n, n)
    p = tz.PdeProblem(dom, FLAT, Q, tz.SignCase(-1, 0), boundary=boundary)
    rep = tz.solve_newton(p, u0=u0)
    assert rep.converged
    return p, rep.solution


def manufactured_c2(n):
    """Exact solution psi = (1/2) log cosh(2x) of the Q = 1 equation."""
    dom = tz.Domain.rectangle(1.0, 1.0, n, n)
    psi = 0.5 * np.log(np.cosh(2.0 * dom.z.real))
    u = tz.global_weight(psi, 1.0)
    p = tz.PdeProblem(dom, FLAT, Q1, tz.SignCase(-1, 0), boundary=u)
    rep = tz.solve_newton(p, u0=u)
    assert rep.converged
    return p, rep.solution


def test_c2_flat_plane_from_unit_init():
    # psi = 0, Q = 0 with the default init p = (1,0), q = (0,1) integrates to
    # f = (z, zbar), a flat Lagrangian plane (R^2 up to a unitary)
    dom = tz.Domain.rectangle(0.5, 0.5, 16, 16)
    sol = tz.MetricSolution(np.full(dom.shape, np.log(2.0)), dom, FLAT)
    Q0 = tz.CubicDifferential.constant(0.0)
    mesh = tz.minlag_c2_immersion(sol, Q0)
    z = dom.z - dom.z[8, 8]
    assert np.abs(mesh.vertices - np.stack([z, np.conj(z)], axis=-1)).max() < 1e-12
    rep = tz.verify_minlag_c2(mesh, sol, Q0, margin=0)
    assert rep["angle_oscillation"] < 1e-12


def test_c2_flat_plane_literal():
    # the plane f = (x, y) carries e^{2 psi} = 1/2, i.e. u = 0, with
    # init p = (1, -i)/2, q = (1, i)/2
    dom = tz.Domain.rectangle(0.5, 0.5, 16, 16)
    sol = tz.MetricSolution(np.zeros(dom.shape), dom, FLAT)
    init = (np.array([0.5, -0.5j]), np.array([0.5, 0.5j]),
            np.zeros(2, dtype=complex))
    Q0 = tz.CubicDifferential.constant(0.0)
    mesh = tz.minlag_c2_immersion(sol, Q0, init=init)
    z = dom.z - dom.z[8, 8]
    expect = np.stack([z.real + 0j, z.imag + 0j], axis=-1)
    assert np.abs(mesh.vertices - expect).max() < 1e-12
    # every identity holds to rounding on the whole grid, edges included
    for name, value in tz.verify_minlag_c2(mesh, sol, Q0, margin=0).items():
        assert value < 1e-12, name


def test_c2_init_validation():
    dom = tz.Domain.rectangle(0.5, 0.5, 16, 16)
    sol = tz.MetricSolution(np.zeros(dom.shape), dom, FLAT)
    bad = (np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.zeros(2))
    with pytest.raises(InitDataError):
        tz.minlag_c2_immersion(sol, Q1, init=bad)


def test_c2_manufactured_residuals():
    prev = None
    for n in (24, 48):
        p, sol = manufactured_c2(n)
        mesh = tz.minlag_c2_immersion(sol, Q1)
        rep = tz.verify_minlag_c2(mesh, sol, Q1)
        tol = 20.0 * p.domain.hmax ** 2
        for name in ("f_zzbar", "conformal", "lagrangian", "symplectic",
                     "cubic_recovery", "metric"):
            assert rep[name] <= tol, (n, name)
        if prev is not None:
            assert rep["f_zzbar"] <= prev / 3.0
        prev = rep["f_zzbar"]


def test_c2_polynomial_q_core_interior():
    # generic boundary data has corner-limited regularity; the core
    # interior still converges at second order
    p, sol = c2_problem(32, tz.CubicDifferential.polynomial([0.0, 1.0]))
    mesh = tz.minlag_c2_immersion(sol, p.Q)
    rep = tz.verify_minlag_c2(mesh, sol, p.Q, margin=8)
    assert rep["f_zzbar"] <= 60.0 * p.domain.hmax ** 2
    assert rep["conformal"] <= 60.0 * p.domain.hmax ** 2


def test_lagrangian_angle_rotated_plane():
    dom = tz.Domain.rectangle(0.5, 0.5, 16, 16)
    theta0 = 0.7
    z = dom.z
    verts = np.stack([np.exp(1j * theta0) * z.real, z.imag + 0j], axis=-1)
    mesh = tz.ImmersionMesh(dom, verts, "minlag_c2")
    # the plane is conformal with e^{2 psi} = 1/2 (u = 0) and Q = 0
    sol = tz.MetricSolution(np.zeros(dom.shape), dom, FLAT)
    Q0 = tz.CubicDifferential.constant(0.0)
    for name, value in tz.verify_minlag_c2(mesh, sol, Q0, margin=0).items():
        assert value < 1e-12, name


def test_c2_angle_constancy_minimal():
    p, sol = manufactured_c2(32)
    mesh = tz.minlag_c2_immersion(sol, Q1)
    rep = tz.verify_minlag_c2(mesh, sol, Q1, margin=2)
    assert rep["angle_oscillation"] <= 20.0 * p.domain.hmax ** 2


def test_shape_operator_flat_plane():
    dom = tz.Domain.rectangle(0.5, 0.5, 16, 16)
    sol = tz.MetricSolution(np.full(dom.shape, np.log(2.0)), dom, FLAT)
    mesh = tz.minlag_c2_immersion(sol, tz.CubicDifferential.constant(0.0))
    meas, tgt = tz.shape_operator_norm(mesh, tz.CubicDifferential.constant(0.0),
                                       sol)
    assert np.abs(tgt).max() == 0.0
    assert np.abs(meas)[2:-2, 2:-2].max() < 1e-9


def test_shape_operator_matches_cubic_norm():
    p, sol = manufactured_c2(32)
    mesh = tz.minlag_c2_immersion(sol, Q1)
    meas, tgt = tz.shape_operator_norm(mesh, Q1, sol)
    assert np.abs(meas - tgt)[2:-2, 2:-2].max() <= 20.0 * p.domain.hmax


def test_shape_operator_doubles_with_cubic():
    # scaling symmetry: psi + (1/2) log 2 solves the equation with 2Q, and
    # the predicted norm field 2 ||Q_3|| is linear in Q at fixed weight
    p, sol = manufactured_c2(32)
    Q2 = Q1.scaled(2.0)
    t1 = 2 * np.abs(Q1(p.domain.z)) / (2 * np.exp(2 * sol.psi)) ** 1.5
    t2 = 2 * np.abs(Q2(p.domain.z)) / (2 * np.exp(2 * sol.psi)) ** 1.5
    assert np.abs(t2 - 2 * t1).max() < 1e-14
    sol2 = tz.MetricSolution(sol.u + np.log(2.0), p.domain, FLAT)
    mesh2 = tz.minlag_c2_immersion(sol2, Q2)
    meas2, tgt2 = tz.shape_operator_norm(mesh2, Q2, sol2)
    assert np.abs(meas2 - tgt2)[2:-2, 2:-2].max() <= 20.0 * p.domain.hmax


# -- CP^2 / CH^2 frames ---------------------------------------------------------------

def test_cpn_point_identity():
    # the identity frame is in SU(3) and SU(2,1), and its point phi = F e3
    # = e3 is constant
    dom = tz.Domain.torus(1j, 8, 8)
    sol = tz.MetricSolution(np.zeros(dom.shape), dom, FLAT)
    frame = np.broadcast_to(np.eye(3, dtype=complex), dom.shape + (3, 3))
    for tag, lam in (("minlag_cp2", 1), ("minlag_ch2", -1)):
        mesh = tz.ImmersionMesh(dom, frame[..., :, 2], tag, lam=lam,
                                frame=frame)
        assert np.all(mesh.vertices == np.array([0, 0, 1.0]))
        rep = tz.verify_cpn(mesh, sol)
        assert rep["unitarity"] == rep["horizontality"] == 0.0


@pytest.mark.parametrize("group", ["su3", "su21"])
def test_point_norm_is_bounded_by_unitarity(group):
    # phi = F e3, so <phi, phi>_eta - eta_33 is the (3, 3) entry of
    # F^dagger eta F - eta, and the Frobenius norm that `unitarity` gates
    # bounds it: verify_cpn needs no unit_norm gate.  The bound is tight on
    # a group element with its third column scaled, loose on the others
    rng = np.random.default_rng(11)
    n = 256
    if group == "su3":
        eta = np.ones(3)
        G = np.linalg.qr(rng.standard_normal((n, 3, 3))
                         + 1j * rng.standard_normal((n, 3, 3)))[0]
    else:  # a boost in the (e1, e3) plane and a phase on e2
        eta = np.array([1.0, 1.0, -1.0])
        t = rng.uniform(-1.0, 1.0, n)
        G = np.zeros((n, 3, 3), complex)
        G[:, 0, 0] = G[:, 2, 2] = np.cosh(t)
        G[:, 0, 2] = G[:, 2, 0] = np.sinh(t)
        G[:, 1, 1] = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n))
    noise = rng.standard_normal((n, 3, 3)) + 1j * rng.standard_normal((n, 3, 3))
    scaled = [G.copy(), G.copy()]
    for F, scale in zip(scaled, (1e-9, 1e-4)):
        F[..., 2] *= (1.0 + scale * rng.standard_normal(n))[:, None]
    for F in (*scaled, G + 1e-4 * noise, noise):
        phi = F[..., :, 2]
        unit_norm = np.abs(np.sum(eta * np.abs(phi) ** 2, axis=-1) - eta[2])
        assert unit_norm.max() > 0.0
        unitarity = tz.group_residuals(F, group)["unitarity"]
        assert unit_norm.max() <= unitarity + 1e-15


def test_cp2_torus_checks():
    dom = tz.Domain.torus(1j, 32, 32)
    case = tz.SignCase(-1, 1)
    p = tz.PdeProblem(dom, FLAT, Q1, case)
    sol = tz.solve_newton(p).solution
    mesh = tz.minlag_cpn_immersion(sol, Q1, case)
    rep = tz.verify_cpn(mesh, sol)
    tol = 20.0 * dom.hmax ** 2
    assert rep["horizontality"] <= tol
    assert rep["metric"] <= tol
    res = tz.group_residuals(mesh.frame[2:-2, 2:-2], "su3")
    assert res["unitarity"] <= 1e-7


def test_ch2_immersion_holds_no_dense_form():
    # the 256^2 CH^2 disk patch: the tree's transposed frames (9 MiB) and
    # the form's three scalar fields psi_z, e^psi and Q e^{-2 psi}, with no
    # dense (n, m, 3, 3) A and B beside them.  tracemalloc peak 13.8 MiB;
    # 29.5 MiB with the dense form
    dom = tz.Domain.disk_patch(0.7, 256, 256)
    sol = tz.MetricSolution(_weight(dom), dom, POIN)
    Q = tz.CubicDifferential.polynomial([0.5 + 0.2j, 0.3])
    tracemalloc.start()
    try:
        tz.minlag_cpn_immersion(sol, Q, tz.SignCase(-1, -1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2 ** 20


def test_ch2_patch_checks():
    dom = tz.Domain.disk_patch(0.7, 32, 32)
    case = tz.SignCase(-1, -1)
    Q0 = Q1
    bound = tz.ch2_continuation_bound(Q0, POIN, dom)
    p0 = tz.PdeProblem(dom, POIN, Q0.scaled(0.0), case)
    fam = tz.continuation_family(p0, Q0, np.linspace(0.0, 0.5 * bound, 4))
    assert fam.failure_index is None
    sol = fam.reports[-1].solution
    Qt = Q0.scaled(0.5 * bound)
    mesh = tz.minlag_cpn_immersion(sol, Qt, case)
    rep = tz.verify_cpn(mesh, sol, margin=4)
    assert rep["horizontality"] <= 60.0 * dom.hmax ** 2
    assert rep["metric"] <= 200.0 * dom.hmax ** 2
    res = tz.group_residuals(mesh.frame, "su21")
    assert res["unitarity"] <= 1e-7
    # almost-R-Fuchsian gate below the continuation bound
    nq = tz.cubic_norm_induced(Qt, POIN, sol.u, dom.z)
    assert nq.max() <= 0.25


def test_elliptic_sphere_is_ellipsoid():
    # psi = log(sqrt2) - log(1+|z|^2) solves the lam = +1 local equation with
    # Q = 0: the reconstruction must land on an ellipsoid (signature (3,0))
    dom = tz.Domain.rectangle(1.0, 1.0, 33, 33)
    psi = 0.5 * np.log(2.0) - np.log(1.0 + np.abs(dom.z) ** 2)
    sol = tz.MetricSolution(tz.global_weight(psi, 1.0), dom, FLAT)
    Q0 = tz.CubicDifferential.constant(0.0)
    assert np.abs(tz.residual_local(psi, Q0, tz.SignCase(1, 1), dom)
                  )[2:-2, 2:-2].max() <= 20.0 * dom.hmax ** 2
    mesh = tz.affine_sphere_immersion(sol, Q0, lam=1)
    rep = tz.verify_affine(mesh, sol, Q0)
    tol = 20.0 * dom.hmax ** 2
    for name in ("det_identity", "f_zzbar", "f_zz", "cubic_recovery"):
        assert rep[name] <= tol, name
    fit = tz.quadric_fit(mesh.vertices.reshape(-1, 3))
    assert fit.signature == (3, 0)
    assert fit.residual <= tol


# -- what a mesh holds -----------------------------------------------------------------

def test_affine_immerse_holds_only_the_vertices():
    # a 128^2 hyperbolic torus: the stage keeps its 0.375 MiB of vertices
    # and no frame, whose (n, m, 3, 3) complex rows would add 2.25 MiB
    cfg = {"schema_version": 1, "case": "hyperbolic_affine_sphere",
           "domain": {"kind": "torus", "tau": [0.0, 1.0],
                      "shape": [128, 128]},
           "cubic": {"kind": "constant", "c": [1.0, 0.0]}}
    pipe = cli.Pipeline(cfg)
    pipe.solve()
    tracemalloc.start()
    try:
        pipe.immerse()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert pipe.mesh.frame is None
    assert held < 2 ** 20


def test_only_cpn_meshes_keep_a_frame():
    dom = tz.Domain.rectangle(0.5, 0.5, 16, 16)
    sol = tz.MetricSolution(np.zeros(dom.shape), dom, FLAT)
    Q = tz.CubicDifferential.constant(0.3)
    affine = tz.affine_sphere_immersion(sol, Q, lam=-1)
    pair = tz.HoloPair.from_coeffs([0.0], [0.0, 1.0])
    for mesh in (affine, tz.conormal_dual(affine),
                 tz.minlag_c2_immersion(sol, Q),
                 tz.parabolic_from_holomorphic(pair, dom)):
        assert mesh.frame is None
    for case in (tz.SignCase(-1, 1), tz.SignCase(-1, -1)):
        mesh = tz.minlag_cpn_immersion(sol, Q, case)
        assert mesh.frame.shape == dom.shape + (3, 3)
        assert np.array_equal(mesh.vertices, mesh.frame[..., :, 2])
        # the point is the frame's third column, held once
        assert np.shares_memory(mesh.vertices, mesh.frame)
