import numpy as np
import pytest
from scipy.linalg import expm

import titeica as tz
from titeica.errors import InvalidSignCase, PathError
from titeica.frames import ETA_21, _dagger, _star

HYP = tz.SignCase(1, -1)
Q0 = tz.CubicDifferential.constant(0.0)
Q1 = tz.CubicDifferential.constant(1.0)


def small_torus():
    return tz.Domain.torus(1j, 16, 16)


def poincare_weight(dom):
    return np.log(np.sqrt(2.0) / (1.0 - np.abs(dom.z) ** 2))


# -- connection entries -------------------------------------------------------

def test_spectral_form_entries_flat():
    dom = small_torus()
    psi = np.zeros(dom.shape)
    al = tz.build_connection(psi, Q0, HYP, dom, zeta=1.0)
    A, B = al.A[3, 5], al.B[3, 5]
    # -zeta lam e^psi = +1 in the (1,3) and (3,2) slots of the dz part
    expected_A = np.array([[0, 0, 1], [0, 0, 0], [0, 1, 0]], dtype=complex)
    expected_B = np.array([[0, 0, 0], [0, 0, 1], [1, 0, 0]], dtype=complex)
    assert np.abs(A - expected_A).max() < 1e-14
    assert np.abs(B - expected_B).max() < 1e-14


def test_row_frame_entries_flat():
    dom = small_torus()
    psi = np.zeros(dom.shape)
    al = tz.build_connection(psi, Q0, HYP, dom, convention="row_frame")
    expected_A = np.array([[0, 0, 0], [0, 0, 1], [1, 0, 0]], dtype=complex)
    expected_B = np.array([[0, 0, 1], [0, 0, 0], [0, 1, 0]], dtype=complex)
    assert np.abs(al.A[2, 2] - expected_A).max() < 1e-14
    assert np.abs(al.B[2, 2] - expected_B).max() < 1e-14


@pytest.mark.parametrize("lam", [1, -1])
def test_unitary_form_entries(lam):
    # column frame of a minimal Lagrangian surface in CP^2 / CH^2, with
    # eps = -1: the gauges diag(1, lam, 1) or zeta = lam give other entries
    dom = tz.Domain.disk_patch(0.6, 24, 24)
    x, y = dom.z.real, dom.z.imag
    psi = 0.2 + 0.3 * x - 0.4 * y ** 2 + 0.1 * x * y
    Q = tz.CubicDifferential.polynomial([0.3 + 0.1j, -0.2 + 0.25j])
    al = tz.minlag_frame_connection(psi, Q, tz.SignCase(-1, lam), dom)
    node = (7, 15)
    pz, pzb = dom.dz(psi)[node], dom.dzbar(psi)[node]
    e, q = np.exp(psi[node]), Q(dom.z[node]) * np.exp(-2 * psi[node])
    expected_A = np.array([[pz, 0, e],
                           [q, -pz, 0],
                           [0, -lam * e, 0]])
    expected_B = np.array([[-pzb, -np.conj(q), 0],
                           [0, pzb, e],
                           [-lam * e, 0, 0]])
    assert np.abs(al.A[node] - expected_A).max() <= 1e-14
    assert np.abs(al.B[node] - expected_B).max() <= 1e-14
    assert al.convention == "column_frame" and al.variant == "unitary"


def test_constant_data_constant_matrices(torus32):
    p, sol = torus32
    al = tz.build_connection(sol.psi, p.Q, HYP, p.domain, zeta=1.0)
    assert np.abs(al.A - al.A[0, 0]).max() < 1e-10
    assert np.abs(al.B - al.B[0, 0]).max() < 1e-10


def test_row_frame_trace_matches_structure_system(torus32):
    p, sol = torus32
    dom = p.domain
    psi = sol.psi + 0.05 * np.sin(2 * np.pi * np.arange(32) / 32)[:, None]
    al = tz.build_connection(psi, p.Q, HYP, dom, convention="row_frame")
    trA = np.trace(al.A, axis1=-2, axis2=-1)
    trB = np.trace(al.B, axis1=-2, axis2=-1)
    assert np.abs(trA - 2.0 * dom.dz(psi)).max() < 1e-12
    assert np.abs(trB - 2.0 * dom.dzbar(psi)).max() < 1e-12
    # the spectral loop is trace-free
    al2 = tz.build_connection(psi, p.Q, HYP, dom, zeta=0.7)
    assert np.abs(np.trace(al2.A, axis1=-2, axis2=-1)).max() < 1e-12


def test_spectral_family_zeta_errors():
    dom = small_torus()
    psi = np.zeros(dom.shape)
    with pytest.raises(InvalidSignCase):
        tz.build_connection(psi, Q0, tz.SignCase(1, 0), dom, zeta=2.0)
    with pytest.raises(InvalidSignCase):
        tz.build_connection(psi, Q0, tz.SignCase(-1, 0), dom,
                            convention="column_frame")


def test_outer_involution_equivariance(torus32):
    # X(-zeta) = -T X(zeta)^t T for the twisted loop algebra
    p, sol = torus32
    T = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)
    zeta = 0.7 + 0.4j
    a1 = tz.build_connection(sol.psi, p.Q, HYP, p.domain, zeta=zeta)
    a2 = tz.build_connection(sol.psi, p.Q, HYP, p.domain, zeta=-zeta)
    for M1, M2 in ((a1.A, a2.A), (a1.B, a2.B)):
        nu = -T @ np.swapaxes(M1, -1, -2) @ T
        assert np.abs(M2 - nu).max() < 1e-12


# -- curvature ------------------------------------------------------------------

@pytest.mark.parametrize("signs", [(1, -1), (1, 1), (-1, -1), (-1, 1)])
@pytest.mark.parametrize("zeta", [1.0, np.exp(1j * np.pi / 3), 0.5, 2.0])
def test_curvature_constant_solution(signs, zeta, torus32):
    # the constant metric solution for |c| = 1 works in all four Toda cases:
    # flatness only sees eps |Q|^2, and eps lam = -1 holds after flipping both
    p, sol = torus32
    case = tz.SignCase(*signs)
    psi = sol.psi if signs[0] * signs[1] == -1 else None
    if psi is None:
        pytest.skip("no constant solution for eps lam = +1")
    al = tz.build_connection(psi, p.Q, case, p.domain, zeta=zeta)
    assert tz.curvature_residual(al).max() <= 20.0 * p.domain.hmax ** 2


def test_curvature_poincare_weight_order():
    vals = {}
    for n in (32, 64):
        dom = tz.Domain.disk_patch(0.7, n, n)
        al = tz.build_connection(poincare_weight(dom), Q0, HYP, dom, zeta=0.5)
        mgn = n // 8
        vals[n] = float(tz.curvature_residual(al)[mgn:-mgn, mgn:-mgn].max())
        assert vals[n] <= 80.0 * dom.hmax ** 2
    assert 3.0 <= vals[32] / vals[64] <= 5.0


def test_curvature_detects_perturbation(torus32):
    p, sol = torus32
    base = tz.curvature_residual(
        tz.build_connection(sol.psi, p.Q, HYP, p.domain, zeta=1.0)).max()
    psi = sol.psi.copy()
    psi[8, 8] += 0.1
    bumped = tz.curvature_residual(
        tz.build_connection(psi, p.Q, HYP, p.domain, zeta=1.0))
    assert bumped[7:10, 7:10].max() > 10.0 * max(base, 20.0 * p.domain.hmax ** 2)


# -- reality conditions -----------------------------------------------------------

ALL_TODA = [tz.SignCase(1, -1), tz.SignCase(1, 1),
            tz.SignCase(-1, -1), tz.SignCase(-1, 1)]
ZETAS = [np.exp(1j * np.pi / 5), 0.37 + 0.9j, 0.5, 2.0]


@pytest.mark.parametrize("case", ALL_TODA, ids=lambda c: c.geometry_tag)
def test_reality_matched(case, torus32):
    p, sol = torus32
    al = tz.build_connection(sol.psi, p.Q, case, p.domain, zeta=1.0)
    assert tz.reality_check(al, ZETAS) <= 1e-12


@pytest.mark.parametrize("case", ALL_TODA, ids=lambda c: c.geometry_tag)
@pytest.mark.parametrize("other", ALL_TODA, ids=lambda c: c.geometry_tag)
def test_reality_mismatched(case, other, torus32):
    if (case.epsilon, case.lam) == (other.epsilon, other.lam):
        pytest.skip("matched pairing")
    p, sol = torus32
    al = tz.build_connection(sol.psi, p.Q, case, p.domain, zeta=1.0)
    assert tz.reality_check(al, ZETAS, involution_case=other) > 1e-3


def test_cp2_unit_circle_su3(torus32):
    # on |zeta| = 1 the CP^2 loop takes values in su(3)
    p, sol = torus32
    psi = sol.psi
    case = tz.SignCase(-1, 1)
    al = tz.build_connection(psi, p.Q, case, p.domain,
                             zeta=np.exp(0.3j))
    for X in (al.A + al.B, 1j * (al.A - al.B)):
        assert np.abs(X + _dagger(X)).max() < 1e-12


def test_reality_rejects_lambda_zero(torus32):
    p, sol = torus32
    al = tz.build_connection(sol.psi, p.Q, tz.SignCase(1, 0), p.domain,
                             convention="row_frame")
    with pytest.raises(InvalidSignCase):
        tz.reality_check(al, [1.0])


# -- frame integration -------------------------------------------------------------

def test_integrate_zero_connection():
    dom = small_torus()
    A = np.zeros(dom.shape + (3, 3), dtype=complex)
    al = tz.ConnectionForm(A, A.copy(), "row_frame", dom)
    path = tz.line_path(dom, 0.0, 0.5 + 0.5j)
    F0 = np.diag([1.0, 2.0, 3.0]).astype(complex)
    out = tz.integrate_frame(al, path, F0)
    assert np.abs(out[-1] - F0).max() == 0.0


def test_integrate_constant_matrix_exponential_oracle():
    dom = small_torus()
    rng = np.random.default_rng(5)
    M = 0.3 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    A = np.broadcast_to(M, dom.shape + (3, 3)).copy()
    B = np.zeros_like(A)
    al = tz.ConnectionForm(A, B, "row_frame", dom)
    L = 0.75
    path = tz.line_path(dom, 0.1j, 0.1j + L)   # real direction: dz = L
    out = tz.integrate_frame(al, path, np.eye(3, dtype=complex))
    oracle = expm(M * L)
    assert np.abs(out[-1] - oracle).max() < 1e-8
    # column convention integrates on the right; same exponential here
    al_c = tz.ConnectionForm(A, B, "column_frame", dom)
    out_c = tz.integrate_frame(al_c, path, np.eye(3, dtype=complex))
    assert np.abs(out_c[-1] - oracle).max() < 1e-8


def test_integrate_retraced_path(torus32):
    p, sol = torus32
    al = tz.build_connection(sol.psi, p.Q, HYP, p.domain, zeta=1.0)
    fwd = tz.polyline_path(p.domain, [0.0, 0.4 + 0.3j, 0.4 + 0.3j + 0.2, 0.0],
                           closed=True)
    F0 = np.eye(3, dtype=complex)
    out = tz.integrate_frame(al, fwd, F0)
    # go and return along a degenerate loop: (A dz + B dzbar) cancels exactly
    there_back = tz.polyline_path(p.domain, [0.0, 0.4 + 0.4j, 0.0], closed=True)
    out2 = tz.integrate_frame(al, there_back, F0)
    assert np.abs(out2[-1] - F0).max() <= 1e-8
    assert np.isfinite(out[-1]).all()


def test_convention_coherence():
    rng = np.random.default_rng(9)
    dom = small_torus()
    x, y = dom.z.real, dom.z.imag
    base = np.sin(2 * np.pi * x) + np.cos(2 * np.pi * y)
    A = rng.normal(size=(3, 3)) * base[..., None, None] + 0.0j
    B = rng.normal(size=(3, 3)) * np.cos(2 * np.pi * x)[..., None, None] + 0.0j
    path = tz.polyline_path(dom, [0.0, 0.3 + 0.2j, 0.6 + 0.1j])
    F0 = np.eye(3, dtype=complex)
    row = tz.integrate_frame(tz.ConnectionForm(A, B, "row_frame", dom),
                             path, F0)[-1]
    col = tz.integrate_frame(
        tz.ConnectionForm(np.swapaxes(A, -1, -2).copy(),
                          np.swapaxes(B, -1, -2).copy(),
                          "column_frame", dom), path, F0)[-1]
    assert np.abs(row - col.T).max() < 1e-12


def test_path_validation():
    dom = tz.Domain.rectangle(1.0, 1.0, 16, 16)
    A = np.zeros(dom.shape + (3, 3), dtype=complex)
    al = tz.ConnectionForm(A, A.copy(), "row_frame", dom)
    with pytest.raises(PathError):
        tz.integrate_frame(al, tz.PathSpec(np.array([0.0, 2.0 + 0.0j])),
                           np.eye(3, dtype=complex))
    with pytest.raises(PathError):  # too coarse: jumps several cells
        tz.integrate_frame(al, tz.PathSpec(np.array([-0.4 - 0.4j, 0.4 + 0.4j])),
                           np.eye(3, dtype=complex))
    with pytest.raises(PathError):  # holonomy needs a closed loop
        tz.holonomy(al, tz.line_path(dom, -0.3, 0.3, closed=True))


# -- holonomy -----------------------------------------------------------------------

def test_holonomy_zero_connection_identity():
    dom = small_torus()
    A = np.zeros(dom.shape + (3, 3), dtype=complex)
    al = tz.ConnectionForm(A, A.copy(), "row_frame", dom)
    H = tz.holonomy(al, tz.torus_generator(dom, 0))
    assert np.abs(H - np.eye(3)).max() == 0.0


def test_holonomy_contractible_loop(torus32):
    p, sol = torus32
    al = tz.build_connection(sol.psi, p.Q, HYP, p.domain, zeta=1.0)
    H = tz.holonomy(al, tz.cell_loop(p.domain, 3, 4))
    assert np.abs(H - np.eye(3)).max() <= 20.0 * p.domain.hmax ** 2


def test_holonomy_generators_commute(torus32):
    p, sol = torus32
    al = tz.build_connection(sol.psi, p.Q, HYP, p.domain, zeta=1.0)
    h1 = tz.holonomy(al, tz.torus_generator(p.domain, 0))
    h2 = tz.holonomy(al, tz.torus_generator(p.domain, 1))
    assert np.linalg.norm(h1 @ h2 - h2 @ h1) <= 1e-8
    # holonomy equals the exponential of the constant connection
    M = al.A[0, 0] + al.B[0, 0]
    assert np.abs(h1 - expm(M)).max() < 1e-7


def test_path_independence_homotopic(torus32):
    p, sol = torus32
    al = tz.build_connection(sol.psi, p.Q, HYP, p.domain, zeta=1.0)
    F0 = np.eye(3, dtype=complex)
    za, zb = 0.1 + 0.1j, 0.6 + 0.7j
    p1 = tz.polyline_path(p.domain, [za, complex(zb.real, za.imag), zb])
    p2 = tz.polyline_path(p.domain, [za, complex(za.real, zb.imag), zb])
    F1 = tz.integrate_frame(al, p1, F0)[-1]
    F2 = tz.integrate_frame(al, p2, F0)[-1]
    assert np.abs(F1 - F2).max() <= 20.0 * p.domain.hmax ** 2


def test_det_preservation_tracefree(torus32):
    p, sol = torus32
    al = tz.build_connection(sol.psi, p.Q, HYP, p.domain, zeta=0.5)
    path = tz.polyline_path(p.domain, [0.0, 0.4 + 0.1j, 0.2 + 0.6j])
    out = tz.integrate_frame(al, path, np.eye(3, dtype=complex))
    assert abs(np.linalg.det(out[-1]) - 1.0) <= 1e-6


# -- group residuals -----------------------------------------------------------------

def test_group_residuals_identity():
    out = tz.group_residuals(np.eye(3, dtype=complex), "su3")
    assert out["det_drift"] == 0.0 and out["unitarity"] == 0.0


def test_group_residuals_su3_torus_period():
    dom = tz.Domain.torus(1j, 32, 32)
    mu = tz.BackgroundMetric("flat")
    case = tz.SignCase(-1, 1)
    p = tz.PdeProblem(dom, mu, Q1, case)
    sol = tz.solve_newton(p).solution
    al = tz.minlag_frame_connection(sol.psi, Q1, case, dom)
    out = tz.integrate_frame(al, tz.torus_generator(dom, 0),
                             np.eye(3, dtype=complex))
    res = tz.group_residuals(out[-1], "su3")
    assert res["unitarity"] <= 1e-8
    assert res["det_drift"] <= 1e-8


def test_group_residuals_su21_preserved():
    dom = tz.Domain.disk_patch(0.7, 24, 24)
    mu = tz.BackgroundMetric("poincare_disk")
    case = tz.SignCase(-1, -1)
    p = tz.PdeProblem(dom, mu, Q1.scaled(0.3), case)
    sol = tz.solve_newton(p).solution
    al = tz.minlag_frame_connection(sol.psi, Q1.scaled(0.3), case, dom)
    path = tz.polyline_path(dom, [0.0, 0.3 + 0.2j, -0.2 + 0.3j, 0.0],
                            closed=True)
    F = tz.integrate_frame(al, path, np.eye(3, dtype=complex))
    res = tz.group_residuals(F, "su21")
    assert res["unitarity"] <= 1e-8
    # the unitary connection is eta-skew pointwise
    for X in (al.A + al.B, 1j * (al.A - al.B)):
        assert np.abs(ETA_21 @ _dagger(X) @ ETA_21 + X).max() < 1e-12


def test_sign_masks_equal_eta_products():
    # eta = diag(1, 1, -1) enters as a sign mask; the result is the matrix
    # product form to the bit
    rng = np.random.default_rng(8)
    X = rng.normal(size=(64, 64, 3, 3)) + 1j * rng.normal(size=(64, 64, 3, 3))
    assert np.array_equal(_star(X), ETA_21 @ _dagger(X) @ ETA_21)
    dev = _dagger(X) @ ETA_21 @ X - ETA_21
    ref = float(np.max(np.linalg.norm(dev, axis=(-2, -1))))
    assert tz.group_residuals(X, "su21")["unitarity"] == ref


def test_group_residuals_sl3r_frame(torus_mesh, torus32):
    p, sol = torus32
    F = tz.sphere_frame(torus_mesh, sol)
    res = tz.group_residuals(F[2:-2, 2:-2], "sl3r_conjugate", det_ref=0.5j)
    assert res["reality"] <= 1e-10
    assert res["det_drift"] <= 20.0 * p.domain.hmax ** 2
