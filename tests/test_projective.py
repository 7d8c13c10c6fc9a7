import tracemalloc
import warnings

import numpy as np
import pytest

import titeica as tz
from titeica import geometry, projective
from titeica.errors import DegenerateVertexError
from titeica.geometry import lattice_diff, second_diffs
from tests.conftest import (dense_form, dense_quadric_fit,
                            hessian_dual_roundtrip, hyperboloid_mesh,
                            whole_grid_chain_rule_hessian)

HYP = tz.SignCase(1, -1)


# -- develop_rp2 --------------------------------------------------------------

def test_develop_point_examples():
    assert np.allclose(tz.normalize_rp2(np.array([0.0, 0.0, 1.0])), [0, 0, 1])
    # sign convention: first nonzero coordinate positive
    assert np.allclose(tz.normalize_rp2(np.array([0.0, -2.0, 1.0])),
                       [0, 2 / np.sqrt(5), -1 / np.sqrt(5)])
    with pytest.raises(DegenerateVertexError):
        tz.normalize_rp2(np.zeros(3))


def test_develop_hyperboloid_inside_disk():
    mesh, _ = hyperboloid_mesh(24, radius=0.5)
    pts = tz.develop_rp2(mesh)
    chart = pts[..., :2] / pts[..., 2:3]
    r = np.linalg.norm(chart, axis=-1)
    # the Klein-model image of the |z| <= 0.5 patch reaches 2r/(1+r^2) = 0.8
    assert r.max() <= 0.8 + 1e-9
    assert r.max() > 0.5


def test_develop_titeica_inside_triangle(torus_mesh):
    dev = tz.develop_rp2(torus_mesh)
    w = np.exp(2j * np.pi / 3)
    V = np.array([[w ** (i * k) for k in range(3)] for i in range(3)])
    f0, xi0, a = torus_mesh.meta["init"]
    R = (np.diag(V[2]) @ np.linalg.inv(V) @ np.stack([a, np.conj(a), xi0])).real
    coords = np.einsum("ij,nmj->nmi", np.linalg.inv(R.T), dev)
    sgn = np.sign(coords[..., :1])
    assert ((coords * sgn) > 0).all()   # inside the cone cross-section


def test_develop_equivariance(torus32, torus_mesh):
    # dev(hol . f) = hol . dev(f) as projective points
    p, sol = torus32
    al = tz.build_connection(sol.psi, p.Q, HYP, p.domain, zeta=1.0)
    H = tz.holonomy(al, tz.torus_generator(p.domain, 0)).real
    moved = np.einsum("ij,nmj->nmi", H, torus_mesh.vertices)
    lhs = tz.normalize_rp2(moved)
    rhs = tz.normalize_rp2(np.einsum("ij,nmj->nmi", H,
                                     tz.develop_rp2(torus_mesh)))
    assert np.abs(lhs - rhs).max() < 1e-10


# -- quadric fitting -----------------------------------------------------------

def hyperboloid_points(n, seed=2):
    """n points of the hyperboloid x1^2 + x2^2 - x3^2 = -1."""
    t = np.random.default_rng(seed).uniform(-1, 1, size=(n, 2))
    return np.stack([np.sinh(t[:, 0]) * np.cos(3 * t[:, 1]),
                     np.sinh(t[:, 0]) * np.sin(3 * t[:, 1]),
                     np.cosh(t[:, 0])], axis=-1)


def test_quadric_fit_exact_hyperboloid():
    fit = tz.quadric_fit(hyperboloid_points(60))
    assert fit.residual <= 1e-12
    assert fit.signature == (2, 1)


def test_quadric_fit_separates_cubic_surface(disk_q0, torus_mesh):
    p, sol = disk_q0
    mesh0 = tz.affine_sphere_immersion(sol, p.Q, lam=-1)
    r0 = tz.quadric_fit(mesh0.vertices.reshape(-1, 3)).residual
    r1 = tz.quadric_fit(torus_mesh.vertices.reshape(-1, 3)).residual
    assert r1 >= 100.0 * r0


def test_quadric_fit_needs_nine_points():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        tz.quadric_fit(rng.normal(size=(8, 3)))
    with pytest.raises(DegenerateVertexError):
        # coplanar points do not pin down a quadric
        pts = np.zeros((20, 3))
        pts[:, 0] = rng.normal(size=20)
        pts[:, 1] = rng.normal(size=20)
        tz.quadric_fit(pts)


def test_quadric_fit_unimodular_invariance():
    rng = np.random.default_rng(2)
    t = rng.uniform(-1, 1, size=(80, 2))
    pts = np.stack([np.sinh(t[:, 0]) * np.cos(3 * t[:, 1]),
                    np.sinh(t[:, 0]) * np.sin(3 * t[:, 1]),
                    np.cosh(t[:, 0])], axis=-1)
    pts += 1e-4 * rng.normal(size=pts.shape)   # off-quadric noise
    L = np.array([[1.0, 0.2, 0.0], [0.0, 1.0, -0.1], [0.1, 0.0, 1.0]])
    L /= np.linalg.det(L) ** (1 / 3)
    r0 = tz.quadric_fit(pts).residual
    r1 = tz.quadric_fit(pts @ L.T).residual
    assert r1 / r0 < 10.0 and r0 / r1 < 10.0


def test_quadric_fit_through_nine_points():
    # nine points in general position lie on one quadric: the fit is the
    # null vector of the 9 design rows, with residual 0
    fit = tz.quadric_fit(hyperboloid_points(9))
    assert fit.residual == 0.0
    assert fit.signature == (2, 1)
    fit20 = tz.quadric_fit(hyperboloid_points(20))
    assert np.abs(np.abs(fit.S) - np.abs(fit20.S)).max() < 1e-9


@pytest.fixture(scope="module")
def disk_mesh():
    """Hyperbolic affine sphere over a 32^2 Poincare patch, Q = 0.5 + 0.3z."""
    dom = tz.Domain.disk_patch(0.7, 32, 32)
    p = tz.PdeProblem(dom, tz.BackgroundMetric("poincare_disk"),
                      tz.CubicDifferential.polynomial([0.5, 0.3]), HYP)
    rep = tz.solve_newton(p)
    assert rep.converged
    return tz.affine_sphere_immersion(rep.solution, p.Q, lam=-1)


def fit_clouds(torus_mesh, disk_mesh):
    """Named (k, 3) point sets: two meshes, two exact quadrics and a
    random cloud."""
    rng = np.random.default_rng(5)
    u = rng.normal(size=(300, 3))
    ellipsoid = u / np.linalg.norm(u, axis=1, keepdims=True) * [1.0, 2.0, 0.5]
    return {"torus": torus_mesh.vertices.reshape(-1, 3),
            "disk": disk_mesh.vertices.reshape(-1, 3),
            "hyperboloid": hyperboloid_points(300),
            "ellipsoid": ellipsoid + [0.3, -0.2, 1.0],
            "cloud": rng.normal(size=(500, 3))}


# blocks of fewer rows than R's 10 (7, 9), of 10 and of 11, with a partial
# last block, and one block for every cloud (4096)
@pytest.mark.parametrize("rows", [7, 9, 10, 11, 4096])
def test_quadric_fit_matches_dense_oracle(monkeypatch, torus_mesh, disk_mesh,
                                          rows):
    monkeypatch.setattr(projective, "FIT_ROWS", rows)
    for name, pts in fit_clouds(torus_mesh, disk_mesh).items():
        got, want = tz.quadric_fit(pts), dense_quadric_fit(pts)
        # relative, or absolute where the oracle's residual is rounding
        assert abs(got.residual - want.residual) <= max(
            1e-11 * want.residual, 1e-14), name
        assert got.signature == want.signature, name
        err = min(np.abs(got.S - want.S).max(), np.abs(got.S + want.S).max())
        assert err <= 1e-9, name
    rng = np.random.default_rng(0)
    flat = np.zeros((40, 3))
    flat[:, :2] = rng.normal(size=(40, 2))
    for fit in (tz.quadric_fit, dense_quadric_fit):
        with pytest.raises(DegenerateVertexError):
            fit(flat)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("rows", [7, 4096])
def test_quadric_fit_rejects_non_finite_points(monkeypatch, bad, rows):
    monkeypatch.setattr(projective, "FIT_ROWS", rows)
    pts = hyperboloid_points(60)
    pts[41, 1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateVertexError, match="non-finite"):
            tz.quadric_fit(pts)


@pytest.mark.parametrize("big", [1e100, 1e200, 1e300])
def test_design_rows_of_far_points(big):
    # a point is scaled by its largest coordinate before its products: a
    # finite point far out keeps a unit row, which is its direction's,
    # and the fit runs without a warning or an error
    pts = hyperboloid_points(40)
    pts[5] = [big, -0.5 * big, 2.0]
    pts[17, 2] = -big
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        D = projective._design_rows(pts)
        tz.quadric_fit(pts)
    assert np.abs(np.linalg.norm(D, axis=1) - 1.0).max() <= 1e-15
    direction = projective._design_rows(np.array([[1.0, -0.5, 0.0]]))[0]
    direction[[3, 6, 8, 9]] = 0.0   # the homogeneous coordinate's products
    assert np.abs(D[5] - direction / np.linalg.norm(direction)).max() <= 1e-15


def test_quadric_fit_memory_peak():
    # the design rows are made a block at a time: a whole-cloud design
    # matrix of 2^20 points would take 80 MiB, and with the SVD's copies
    # the fit peaked at about 300 MiB
    pts = hyperboloid_points(2 ** 20)
    tracemalloc.start()
    try:
        fit = tz.quadric_fit(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fit.signature == (2, 1)
    assert peak < 4 * 2 ** 20


# -- holonomy report ----------------------------------------------------------

def test_holonomy_report_trivial_loop(torus32):
    p, sol = torus32
    al = tz.build_connection(sol.psi, p.Q, HYP, p.domain, zeta=1.0)
    rep = tz.holonomy_report(al, [tz.cell_loop(p.domain, 2, 2)])
    ev = rep["loops"][0]["eigenvalues"]
    assert np.abs(ev - 1.0).max() <= 1e-3
    assert rep["loops"][0]["det_drift"] <= 1e-9


def test_holonomy_report_generators(torus32):
    p, sol = torus32
    al = tz.build_connection(sol.psi, p.Q, HYP, p.domain, zeta=1.0)
    rep = tz.holonomy_report(al, [tz.torus_generator(p.domain, 0),
                                  tz.torus_generator(p.domain, 1)])
    assert rep["commutators"].max() <= 1e-8
    for entry in rep["loops"]:
        assert entry["det_drift"] <= 1e-8
        assert entry["eigenvalue_product_drift"] <= 1e-8
        ev = entry["eigenvalues"]
        assert np.abs(ev[0]) >= np.abs(ev[1]) - 1e-9
        assert np.abs(ev[1]) >= np.abs(ev[2]) - 1e-9


def test_holonomy_report_unipotent_model():
    # a constant nilpotent dz-part realizes the unipotent x -> [[1,1],[0,1]] x
    # model around a torus generator: reported with all eigenvalues 1
    dom = tz.Domain.torus(1j, 16, 16)
    N = np.zeros((3, 3), dtype=complex)
    N[0, 1] = 1.0
    A = np.broadcast_to(N, dom.shape + (3, 3)).copy()
    B = np.zeros_like(A)
    al = dense_form(A, B, "row_frame", dom)
    rep = tz.holonomy_report(al, [tz.torus_generator(dom, 0)])
    H = rep["loops"][0]["matrix"]
    assert np.abs(H - (np.eye(3) + N)).max() < 1e-12
    assert np.abs(rep["loops"][0]["eigenvalues"] - 1.0).max() < 1e-6


# -- semi-flat development -------------------------------------------------------

def parabolic_mesh(n=24):
    dom = tz.Domain.rectangle(0.8, 0.8, n, n)
    mu = tz.BackgroundMetric("flat")
    sol = tz.MetricSolution(np.full(dom.shape, np.log(2.0)), dom, mu)
    return tz.affine_sphere_immersion(sol, tz.CubicDifferential.constant(0.0),
                                      lam=0)


def test_semiflat_paraboloid_self_dual():
    mesh = parabolic_mesh()
    sf = tz.semiflat_develop(mesh)
    # f = (x, |x|^2/2) up to scaling: phi* = |y|^2/2, self-dual
    assert np.abs(sf.ma_residual[1:-1, 1:-1]).max() < 1e-10
    x2 = 0.5 * np.sum(sf.x ** 2, axis=-1)
    y2 = 0.5 * np.sum(sf.y ** 2, axis=-1)
    inner = (slice(1, -1), slice(1, -1))
    assert np.abs(sf.phi - x2)[inner].max() < 1e-10
    assert np.abs(sf.phi_star - y2)[inner].max() < 1e-9
    # Legendre pairing invariants
    dot = np.sum(sf.x * sf.y, axis=-1)
    assert np.abs(sf.phi + sf.phi_star - dot)[inner].max() < 1e-9
    assert tz.semiflat_dual_roundtrip(sf) < 1e-9


def test_semiflat_from_weierstrass():
    pair = tz.HoloPair.from_coeffs([0.0, 0.0, 0.15], [0.0, 1.0, 0.0, 0.04])
    vals = {}
    for n in (24, 48):
        dom = tz.Domain.rectangle(1.0, 1.0, n, n)
        mesh = tz.parabolic_from_holomorphic(pair, dom)
        sf = tz.semiflat_develop(mesh)
        vals[n] = np.abs(sf.ma_residual[2:-2, 2:-2]).max()
        assert vals[n] <= 40.0 * dom.hmax ** 2
        assert tz.semiflat_dual_roundtrip(sf) <= 200.0 * dom.hmax ** 2
    assert vals[24] / vals[48] > 2.5


@pytest.mark.parametrize("rows", [None, 1, 5])
def test_dual_roundtrip_is_the_hessian_paths(monkeypatch, rows):
    # the gradient-only pass against the whole-grid chain rule with det
    # Hess, to the bit, on an odd grid whose blocks of `rows` rows (one
    # block, one row, and a shorter last block) end on either side of the
    # gated rows 2..n-3
    pair = tz.HoloPair.from_coeffs([0.0, 0.1, 0.05 + 0.02j],
                                   [0.0, 1.0, 0.0, 0.1])
    dom = tz.Domain.rectangle(1.0, 0.9, 33, 41)
    if rows:
        monkeypatch.setattr(geometry, "ROWS_BLOCK_BYTES", 16 * 41 * rows)
    sf = tz.semiflat_develop(tz.parabolic_from_holomorphic(pair, dom))
    got = tz.semiflat_dual_roundtrip(sf)
    assert 0.0 < got == hessian_dual_roundtrip(sf)
    # a spike on the outer ring of phi* moves the gradient on the ring
    # next to it, which neither counts, and no gated node
    spiked = sf.phi_star.copy()
    spiked[[0, -1]] += 1e3
    spiked[:, [0, -1]] += 1e3
    sf.phi_star = spiked
    assert tz.semiflat_dual_roundtrip(sf) == hessian_dual_roundtrip(sf) == got


@pytest.mark.parametrize("node", [(5, 7), (0, 7), (23, 7), (5, 0), (5, 23)])
def test_dual_roundtrip_raises_on_a_singular_jacobian(node):
    # det J = 0 of the dual coordinates at a gated node or on the ring
    # raises, as the whole-grid chain rule did; neither warns
    sf = tz.semiflat_develop(parabolic_mesh())
    j, k = node
    y = sf.y.copy()
    if 0 < k < 23:
        y[j, k + 1] = y[j, k - 1]
    else:
        y[j + 1, k] = y[j - 1, k]
    sf.y = y
    with pytest.raises(DegenerateVertexError):
        hessian_dual_roundtrip(sf)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DegenerateVertexError):
            tz.semiflat_dual_roundtrip(sf)
    assert caught == []


def reference_chain_rule(x1, x2, phi):
    """The inv + einsum form of projective._chain_rule_hessian."""
    def grad_lat(f):
        return np.stack([lattice_diff(f, 0), lattice_diff(f, 1)], axis=-1)

    def hess_lat(f):
        f_jj, f_kk, f_jk = second_diffs(f)
        return np.stack([np.stack([f_jj, f_jk], axis=-1),
                         np.stack([f_jk, f_kk], axis=-1)], axis=-2)

    J = np.stack([grad_lat(x1), grad_lat(x2)], axis=-2)
    Jinv = np.linalg.inv(J)
    grad = np.einsum("...ij,...i->...j", Jinv, grad_lat(phi))
    Hlat = (hess_lat(phi)
            - grad[..., 0, None, None] * hess_lat(x1)
            - grad[..., 1, None, None] * hess_lat(x2))
    return grad, np.einsum("...ia,...ij,...jb->...ab", Jinv, Hlat, Jinv)


def test_chain_rule_matches_inverse_reference():
    pair = tz.HoloPair.from_coeffs([0.0, 0.1, 0.05 + 0.02j],
                                   [0.0, 1.0, 0.0, 0.1])
    mesh = tz.parabolic_from_holomorphic(pair, tz.Domain.rectangle(1.0, 1.0,
                                                                   33, 41))
    v = mesh.vertices
    grad, det_hess = projective._chain_rule_hessian(v[..., 0], v[..., 1],
                                                    v[..., 2])
    ref_grad, ref_H = reference_chain_rule(v[..., 0], v[..., 1], v[..., 2])
    ref_det = np.linalg.det(ref_H)
    for got, ref in ((grad, ref_grad), (det_hess, ref_det)):
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def test_semiflat_singular_jacobian_raises_without_warning():
    mesh = parabolic_mesh()
    v = mesh.vertices.copy()
    # equal neighbours along the second lattice axis: that column of the
    # lattice Jacobian vanishes at (5, 7), and at no other node
    v[5, 8, :2] = v[5, 6, :2]
    mesh.vertices = v
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DegenerateVertexError):
            tz.semiflat_develop(mesh)
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


def singular_at(j, k, axis):
    """Vertices of `parabolic_mesh` whose lattice Jacobian vanishes at node
    (j, k): equal neighbours across it along the lattice axis zero that
    row of J there."""
    v = parabolic_mesh().vertices.copy()
    if axis:
        v[j, k + 1, :2] = v[j, k - 1, :2]
    else:
        v[j + 1, k, :2] = v[j - 1, k, :2]
    return v


# a gated node, the first and last checked rows (1 and n - 2, not gated)
# by their centered stencils down the column, and the one-sided columns
# 0 and m - 1 of a 24^2 grid
@pytest.mark.parametrize("node", [(5, 7, 1), (1, 7, 0), (22, 7, 0), (5, 0, 0),
                                  (5, 23, 0)])
@pytest.mark.parametrize("rows", [None, 1])
def test_monge_ampere_gate_raises_on_a_singular_jacobian(monkeypatch, node, rows):
    # det J = 0 there by the whole grid's stencils; the gate reads blocks
    # of 32 rows (one block) or of one row
    if rows:
        monkeypatch.setattr(geometry, "ROWS_BLOCK_BYTES", 16 * 24 * rows)
    v = singular_at(*node)
    with pytest.raises(DegenerateVertexError):
        whole_grid_chain_rule_hessian(v[..., 0], v[..., 1], v[..., 2])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DegenerateVertexError):
            projective.monge_ampere_gate(v)
    assert caught == []


def test_monge_ampere_gate_checks_no_outer_row():
    # rows 0 and n - 1 are outside the nodes the gate checks
    for node in [(0, 7, 1), (23, 7, 1)]:
        v = singular_at(*node)
        assert np.isfinite(projective.monge_ampere_gate(v))
        mesh = parabolic_mesh()
        mesh.vertices = v
        with pytest.raises(DegenerateVertexError):
            tz.semiflat_develop(mesh)


def test_semiflat_rejects_proper(torus_mesh):
    with pytest.raises(Exception):
        tz.semiflat_develop(torus_mesh)
