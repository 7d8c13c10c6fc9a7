import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

import titeica as tz
from titeica import frames
from titeica.errors import InvalidSignCase, PathError
from titeica.frames import ETA_21, _dagger, _star, affine_connection
from titeica.immersion import planar_ops
from tests.conftest import dense_curvature_residual, dense_form

HYP = tz.SignCase(1, -1)
C2 = tz.SignCase(-1, 0)
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
    A, B = (X[3, 5] for X in tz.build_connection(psi, Q0, HYP, dom,
                                                 zeta=1.0).dense())
    # -zeta lam e^psi = +1 in the (1,3) and (3,2) slots of the dz part
    expected_A = np.array([[0, 0, 1], [0, 0, 0], [0, 1, 0]], dtype=complex)
    expected_B = np.array([[0, 0, 0], [0, 0, 1], [1, 0, 0]], dtype=complex)
    assert np.abs(A - expected_A).max() < 1e-14
    assert np.abs(B - expected_B).max() < 1e-14


def test_row_frame_entries_flat():
    # the C^2 rows (f_z, f_zbar, f) with psi = 0 and Q = 0: the position
    # row df = f_z dz + f_zbar dzbar alone; the affine sphere's rows are
    # affine_connection's, not a row form of build_connection
    dom = small_torus()
    psi = np.zeros(dom.shape)
    al = tz.build_connection(psi, Q0, C2, dom, convention="row_frame")
    A, B = al.dense()
    expected_A = np.array([[0, 0, 0], [0, 0, 0], [1, 0, 0]], dtype=complex)
    expected_B = np.array([[0, 0, 0], [0, 0, 0], [0, 1, 0]], dtype=complex)
    assert np.abs(A[2, 2] - expected_A).max() < 1e-14
    assert np.abs(B[2, 2] - expected_B).max() < 1e-14
    for case in (HYP, tz.SignCase(1, 0), tz.SignCase(-1, 1)):
        with pytest.raises(InvalidSignCase):
            tz.build_connection(psi, Q0, case, dom, convention="row_frame")


@pytest.mark.parametrize("lam", [1, -1])
def test_unitary_form_entries(lam):
    # column frame of a minimal Lagrangian surface in CP^2 / CH^2, with
    # eps = -1: the gauges diag(1, lam, 1) or zeta = lam give other entries
    dom = tz.Domain.disk_patch(0.6, 24, 24)
    x, y = dom.z.real, dom.z.imag
    psi = 0.2 + 0.3 * x - 0.4 * y ** 2 + 0.1 * x * y
    Q = tz.CubicDifferential.polynomial([0.3 + 0.1j, -0.2 + 0.25j])
    al = tz.minlag_frame_connection(psi, Q, tz.SignCase(-1, lam), dom)
    A, B = al.dense()
    node = (7, 15)
    pz, pzb = dom.dz(psi)[node], dom.dzbar(psi)[node]
    e, q = np.exp(psi[node]), Q(dom.z[node]) * np.exp(-2 * psi[node])
    expected_A = np.array([[pz, 0, e],
                           [q, -pz, 0],
                           [0, -lam * e, 0]])
    expected_B = np.array([[-pzb, -np.conj(q), 0],
                           [0, pzb, e],
                           [-lam * e, 0, 0]])
    assert np.abs(A[node] - expected_A).max() <= 1e-14
    assert np.abs(B[node] - expected_B).max() <= 1e-14
    assert al.convention == "column_frame"
    # a gauge of the loop, not the loop itself: no zeta, no reality check
    assert al.zeta is None
    with pytest.raises(InvalidSignCase):
        tz.reality_check(al)


def test_constant_data_constant_matrices(torus32):
    p, sol = torus32
    A, B = tz.build_connection(sol.psi, p.Q, HYP, p.domain, zeta=1.0).dense()
    assert np.abs(A - A[0, 0]).max() < 1e-10
    assert np.abs(B - B[0, 0]).max() < 1e-10


def test_row_frame_trace_matches_structure_system(torus32):
    p, sol = torus32
    dom = p.domain
    psi = sol.psi + 0.05 * np.sin(2 * np.pi * np.arange(32) / 32)[:, None]
    A, B = tz.build_connection(psi, p.Q, C2, dom,
                               convention="row_frame").dense()
    trA = np.trace(A, axis1=-2, axis2=-1)
    trB = np.trace(B, axis1=-2, axis2=-1)
    assert np.abs(trA - 2.0 * dom.dz(psi)).max() < 1e-12
    assert np.abs(trB - 2.0 * dom.dzbar(psi)).max() < 1e-12
    # so is the affine sphere's, in its real gauge
    A, B = affine_connection(psi, p.Q, -1, dom).dense()
    trA = np.trace(A, axis1=-2, axis2=-1)
    assert np.abs(trA - 2.0 * dom.dz(psi)).max() < 1e-12
    # the spectral loop is trace-free
    A, _ = tz.build_connection(psi, p.Q, HYP, dom, zeta=0.7).dense()
    assert np.abs(np.trace(A, axis1=-2, axis2=-1)).max() < 1e-12


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
    for M1, M2 in zip(a1.dense(), a2.dense()):
        nu = -T @ np.swapaxes(M1, -1, -2) @ T
        assert np.abs(M2 - nu).max() < 1e-12


# -- curvature ------------------------------------------------------------------

TODA_SIGNS = [(1, -1), (1, 1), (-1, -1), (-1, 1)]


# the cases with eps lam = -1; the ids index TODA_SIGNS
@pytest.mark.parametrize("signs", [
    pytest.param(s, id=f"signs{i}") for i, s in enumerate(TODA_SIGNS)
    if s[0] * s[1] == -1])
@pytest.mark.parametrize("zeta", [1.0, np.exp(1j * np.pi / 3), 0.5, 2.0])
def test_curvature_constant_solution(signs, zeta, torus32):
    # the constant metric solution for |c| = 1 works in both Toda cases with
    # eps lam = -1 (flatness only sees eps |Q|^2); eps lam = +1 has none
    p, sol = torus32
    case = tz.SignCase(*signs)
    al = tz.build_connection(sol.psi, p.Q, case, p.domain, zeta=zeta)
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


def _every_form(psi, Q, dom):
    """Every connection form the package builds: the four Toda loops at
    zeta in 1, e^{i pi/3}, 0.5 and 2, the C^2 rows, the affine sphere's
    real rows at lam = -1, 0, 1 and the CP^2/CH^2 unitary frames."""
    forms = [tz.build_connection(psi, Q, case, dom, zeta=zeta)
             for case in ALL_TODA
             for zeta in (1.0, np.exp(1j * np.pi / 3), 0.5, 2.0)]
    forms.append(tz.build_connection(psi, Q, C2, dom, convention="row_frame"))
    forms += [affine_connection(psi, Q, lam, dom) for lam in (-1, 0, 1)]
    forms += [tz.minlag_frame_connection(psi, Q, tz.SignCase(-1, lam), dom)
              for lam in (-1, 1)]
    return forms


@pytest.mark.parametrize("dom", [tz.Domain.torus(0.3 + 1.1j, 20, 24),
                                 tz.Domain.disk_patch(0.7, 24, 20)],
                         ids=["oblique_torus", "disk_patch"])
def test_curvature_matches_dense_oracle(dom):
    # psi and Q solve no metric equation, so every residual is of order
    # one; the oracle differentiates the dense (n, m, r, r) A and B
    x, y = dom.z.real, dom.z.imag
    psi = 0.3 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y) + 0.2 * x
    Q = tz.CubicDifferential.polynomial([0.5 + 0.2j, 0.3, -0.4j])
    for al in _every_form(psi, Q, dom):
        want = dense_curvature_residual(al)
        got = tz.curvature_residual(al)
        assert got.shape == dom.shape and got.dtype == np.float64
        assert want.max() > 0.1
        assert np.abs(got - want).max() <= 1e-13 * want.max()


def test_curvature_sees_a_changed_term(torus32):
    # forms flat to the solve's tolerance: the torus solution's loops
    # (eps lam = -1, where the constant solution serves), its CP^2 frame
    # and affine rows, and the C^2 rows of a harmonic psi with Q = 0.
    # 1e-3 added to one node of one term's field, or to one entry of its
    # M, raises the residual from rounding to the size of the change.  A
    # zero field's M is not changed, nor the C^2 rows' M: with Q = 0 and
    # psi_z constant, rescaling one entry keeps them flat
    p, sol = torus32
    rect = tz.Domain.rectangle(1.0, 1.0, 24, 24)
    forms = [(tz.build_connection(sol.psi, p.Q, case, p.domain, zeta=zeta),
              True)
             for case in (HYP, tz.SignCase(-1, 1))
             for zeta in (1.0, np.exp(1j * np.pi / 3), 0.5, 2.0)]
    forms += [(tz.minlag_frame_connection(sol.psi, p.Q, tz.SignCase(-1, 1),
                                          p.domain), True),
              (affine_connection(sol.psi, p.Q, -1, p.domain), True),
              (tz.build_connection(0.3 * rect.z.real + 0.2 * rect.z.imag, Q0,
                                   C2, rect, convention="row_frame"), False)]
    for al, change_m in forms:
        assert tz.curvature_residual(al).max() <= 1e-11
        for t, term in enumerate(al.terms):
            field = np.array(term.field)
            field[5, 7] += 1e-3
            M = term.M.copy()
            M[tuple(np.argwhere(M)[0])] += 1e-3
            changes = [term._replace(field=field)]
            if change_m and term.field.any():
                changes.append(term._replace(M=M))
            for changed in changes:
                terms = al.terms[:t] + [changed] + al.terms[t + 1:]
                mutant = dataclasses.replace(al, terms=terms)
                assert tz.curvature_residual(mutant).max() >= 5e-4


def test_curvature_memory_peak():
    # the CLI's CH^2 loop on a 256^2 disk patch: the derivatives of its
    # three fields (1 MiB each) and one block of rows of the columns and
    # their product with the pattern, no (n, m, 3, 3) field.  tracemalloc
    # peak 9.9 MiB; 63 MiB with the dense A, B and their derivatives
    dom = tz.Domain.disk_patch(0.7, 256, 256)
    Q = tz.CubicDifferential.polynomial([0.5 + 0.2j, 0.3])
    al = tz.build_connection(poincare_weight(dom), Q, tz.SignCase(-1, -1),
                             dom, zeta=1.0)
    tracemalloc.start()
    try:
        tz.curvature_residual(al)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2 ** 20


# -- reality conditions -----------------------------------------------------------

ALL_TODA = [tz.SignCase(1, -1), tz.SignCase(1, 1),
            tz.SignCase(-1, -1), tz.SignCase(-1, 1)]
ZETAS = [np.exp(1j * np.pi / 5), 0.37 + 0.9j, 0.5, 2.0]
# (iota, rho) per case: the loop takes values in {X(iota(z)) = -rho(X(z))}
SAMPLED_REALITY = {
    (1, -1): (lambda z: -1.0 / np.conj(z), _dagger),
    (1, 1): (lambda z: -1.0 / np.conj(z), _star),
    (-1, -1): (lambda z: 1.0 / np.conj(z), _star),
    (-1, 1): (lambda z: 1.0 / np.conj(z), _dagger),
}
# rounding of the oracle, which rebuilds the loop at each sample, per
# unit of the largest entry of its loops (and at least this much)
ORACLE_ROUNDING = 1e-14


def sampled_reality(psi, Q, case, dom, zetas, involution_case=None):
    """Oracle: sup over samples and real directions X in {A + B, i(A - B)}
    of ||X(iota(zeta)) + rho(X(zeta))||_F, the loop rebuilt at each zeta,
    and the slack of its own rounding: ORACLE_ROUNDING times the largest
    entry of the loops it built, or times 1 if that is less."""
    inv = involution_case or case
    iota, rho = SAMPLED_REALITY[(inv.epsilon, inv.lam)]
    worst, size = 0.0, 1.0
    for z in zetas:
        A1, B1 = tz.build_connection(psi, Q, case, dom, zeta=z).dense()
        A2, B2 = tz.build_connection(psi, Q, case, dom,
                                     zeta=iota(complex(z))).dense()
        for X1, X2 in ((A1 + B1, A2 + B2), (1j * (A1 - B1), 1j * (A2 - B2))):
            dev = np.linalg.norm(X2 + rho(X1), axis=(-2, -1))
            worst = max(worst, float(dev.max()))
        size = max(size, *(float(np.abs(X).max()) for X in (A1, B1, A2, B2)))
    return worst, ORACLE_ROUNDING * size


@pytest.fixture(scope="module")
def loops(torus32):
    """(psi, Q, domain, zeta) of four loops with psi_z and Q not real: a
    perturbed 32^2 torus solution with Q rotated to c = 0.6 + 0.8i, built at
    zeta = 1 (the CLI's loop), a 24 x 20 disk patch with polynomial Q, built
    at zeta = 0.8 - 0.3i and at zeta = 1, and a 20 x 24 oblique torus with
    random psi, built at zeta = -1 (the CP^2 frame's gauge).  The reality
    conditions are algebraic, so (psi, Q) need not solve the metric
    equation."""
    p, sol = torus32
    x, y = p.domain.z.real, p.domain.z.imag
    torus = (sol.psi + 0.05 * np.sin(2 * np.pi * (x + 2 * y)),
             tz.CubicDifferential.constant(0.6 + 0.8j), p.domain, 1.0)
    dom = tz.Domain.disk_patch(0.7, 24, 20)
    disk_psi = poincare_weight(dom) + 0.1 * np.sin(3.0 * dom.z.real
                                                   + dom.z.imag)
    disk_q = tz.CubicDifferential.polynomial([0.5 + 0.2j, 0.3, -0.1j])
    oblique = tz.Domain.torus(0.3 + 1.1j, 20, 24)
    rng = np.random.default_rng(5)
    return [torus, (disk_psi, disk_q, dom, 0.8 - 0.3j),
            (disk_psi, disk_q, dom, 1.0),
            (0.1 * rng.standard_normal(oblique.shape),
             tz.CubicDifferential.polynomial([0.2 - 0.7j, 0.4j]), oblique,
             -1.0)]


@pytest.mark.parametrize("case", ALL_TODA, ids=lambda c: c.geometry_tag)
def test_reality_matched(case, loops):
    for psi, Q, dom, zeta in loops:
        al = tz.build_connection(psi, Q, case, dom, zeta=zeta)
        assert al.zeta == zeta
        value = tz.reality_check(al)
        assert value <= 1e-12
        if zeta in (1.0, -1.0):
            # each entry and its image under the involution come from one
            # field, scaled by +/-1, and psi_zbar is conj(psi_z) to the
            # bit: the loops that the pipeline builds are real exactly
            assert value == 0.0
        oracle, slack = sampled_reality(psi, Q, case, dom, ZETAS)
        assert value >= oracle - slack


@pytest.mark.parametrize("other, case", [
    (o, c) for o in ALL_TODA for c in ALL_TODA if o != c],
    ids=lambda c: c.geometry_tag)
def test_reality_mismatched(case, other, loops):
    for psi, Q, dom, zeta in loops:
        al = tz.build_connection(psi, Q, case, dom, zeta=zeta)
        value = tz.reality_check(dataclasses.replace(al, case=other))
        assert value > 1e-3
        oracle, slack = sampled_reality(psi, Q, case, dom, ZETAS,
                                        involution_case=other)
        assert value >= oracle - slack


def _mutated(al, dzbar, i, j, change):
    """al with change(term) in place of its term of the dz (or dzbar)
    part that has entry (i, j)."""
    al.terms = [change(t) if t.dzbar == dzbar and t.M[i, j] != 0 else t
                for t in al.terms]


def _flip_eps(al, psi, Q):
    _mutated(al, True, 0, 1, lambda t: t._replace(M=-t.M))


def _q_for_conj_q(al, psi, Q):
    _mutated(al, True, 0, 1, lambda t: t._replace(field=np.conj(t.field)))


def _negate_lam(al, psi, Q):
    def change(t):
        M = t.M.copy()
        M[2, 1] *= -1.0
        return t._replace(M=M)

    _mutated(al, False, 2, 1, change)


def _swap_psi_z(al, psi, Q):
    _mutated(al, True, 0, 0, lambda t: t._replace(field=np.conj(t.field)))


@pytest.mark.parametrize("mutate", [_flip_eps, _q_for_conj_q, _negate_lam,
                                    _swap_psi_z],
                         ids=["eps_flipped", "q_for_conj_q", "lam_negated",
                              "psi_z_for_psi_zbar"])
@pytest.mark.parametrize("case", ALL_TODA, ids=lambda c: c.geometry_tag)
def test_reality_mutations_fail(case, mutate, loops):
    for psi, Q, dom, zeta in loops:
        al = tz.build_connection(psi, Q, case, dom, zeta=zeta)
        mutate(al, psi, Q)
        assert tz.reality_check(al) > 1e-10


def test_cp2_unit_circle_su3(torus32):
    # on |zeta| = 1 the CP^2 loop takes values in su(3)
    p, sol = torus32
    psi = sol.psi
    case = tz.SignCase(-1, 1)
    A, B = tz.build_connection(psi, p.Q, case, p.domain,
                               zeta=np.exp(0.3j)).dense()
    for X in (A + B, 1j * (A - B)):
        assert np.abs(X + _dagger(X)).max() < 1e-12


def test_reality_check_builds_no_connection(torus32, monkeypatch):
    p, sol = torus32
    al = tz.build_connection(sol.psi, p.Q, HYP, p.domain, zeta=1.0)
    expected = tz.reality_check(al)

    def refuse(*args, **kwargs):
        raise AssertionError("reality_check rebuilt the connection")

    monkeypatch.setattr(frames, "build_connection", refuse)
    assert tz.reality_check(al) == expected


def test_reality_rejects_lambda_zero(torus32):
    p, sol = torus32
    al = tz.build_connection(sol.psi, p.Q, HYP, p.domain, zeta=1.0)
    for case in (tz.SignCase(1, 0), C2):
        with pytest.raises(InvalidSignCase):
            tz.reality_check(dataclasses.replace(al, case=case))
    # the C^2 rows are no loop
    with pytest.raises(InvalidSignCase):
        tz.reality_check(tz.build_connection(sol.psi, p.Q, C2, p.domain,
                                             convention="row_frame"))


# -- frame integration -------------------------------------------------------------

def test_integrate_zero_connection():
    dom = small_torus()
    A = np.zeros(dom.shape + (3, 3), dtype=complex)
    al = dense_form(A, A, "row_frame", dom)
    path = tz.polyline_path(dom, [0.0, 0.5 + 0.5j])
    F0 = np.diag([1.0, 2.0, 3.0]).astype(complex)
    out = tz.integrate_frame(al, path, F0)
    assert np.abs(out[-1] - F0).max() == 0.0


def test_integrate_constant_matrix_exponential_oracle():
    dom = small_torus()
    rng = np.random.default_rng(5)
    M = 0.3 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    A = np.broadcast_to(M, dom.shape + (3, 3)).copy()
    B = np.zeros_like(A)
    al = dense_form(A, B, "row_frame", dom)
    L = 0.75
    path = tz.polyline_path(dom, [0.1j, 0.1j + L])   # real direction: dz = L
    out = tz.integrate_frame(al, path, np.eye(3, dtype=complex))
    oracle = expm(M * L)
    assert np.abs(out[-1] - oracle).max() < 1e-8
    # column convention integrates on the right; same exponential here
    al_c = dense_form(A, B, "column_frame", dom)
    out_c = tz.integrate_frame(al_c, path, np.eye(3, dtype=complex))
    assert np.abs(out_c[-1] - oracle).max() < 1e-8


def test_integrate_retraced_path(torus32):
    p, sol = torus32
    al = tz.build_connection(sol.psi, p.Q, HYP, p.domain, zeta=1.0)
    fwd = tz.polyline_path(p.domain, [0.0, 0.4 + 0.3j, 0.4 + 0.3j + 0.2, 0.0])
    F0 = np.eye(3, dtype=complex)
    out = tz.integrate_frame(al, fwd, F0)
    # go and return along a degenerate loop: (A dz + B dzbar) cancels exactly
    there_back = tz.polyline_path(p.domain, [0.0, 0.4 + 0.4j, 0.0])
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
    row = tz.integrate_frame(dense_form(A, B, "row_frame", dom),
                             path, F0)[-1]
    col = tz.integrate_frame(
        dense_form(np.swapaxes(A, -1, -2), np.swapaxes(B, -1, -2),
                   "column_frame", dom), path, F0)[-1]
    assert np.abs(row - col.T).max() < 1e-12


def test_path_validation():
    dom = tz.Domain.rectangle(1.0, 1.0, 16, 16)
    A = np.zeros(dom.shape + (3, 3), dtype=complex)
    al = dense_form(A, A, "row_frame", dom)
    bad = {
        # the points 0 and 2 (lattice coordinates (7.5, 7.5), (37.5, 7.5))
        # and -0.4 - 0.4i, 0.4 + 0.4i (1.5 and 13.5 on both axes): off node
        "points_0_2": [[7.5, 7.5], [37.5, 7.5]],
        "points_pm_0.4": [[1.5, 1.5], [13.5, 13.5]],
        "exits": [[15, 7], [16, 7]],
        "too_coarse": [[1, 1], [13, 13]],     # jumps several cells
        "not_an_array_of_nodes": [1, 1],
        "empty": np.zeros((0, 2)),
    }
    for pts in bad.values():
        with pytest.raises(PathError):
            tz.integrate_frame(al, pts, np.eye(3, dtype=complex))
    # holonomy needs a closed loop: -0.3 and 0.3 are nodes (3, 8), (12, 8)
    with pytest.raises(PathError):
        tz.holonomy(al, tz.polyline_path(dom, [-0.3, 0.3]))
    assert np.array_equal(tz.holonomy(al, tz.cell_loop(dom, 3, 8)), np.eye(3))


def test_paths_run_on_nodes_and_lattice_edges():
    dom = small_torus()
    A = np.zeros(dom.shape + (3, 3), dtype=complex)
    al = dense_form(A, A, "row_frame", dom)
    h1, h2 = dom.step1, dom.step2
    bad = {"off_node": [[0, 0], [0.5, 0]],
           "diagonal": [[0, 0], [1, 1]],
           "two_edges": [[0, 0], [1, 0], [1, 2]]}
    for pts in bad.values():
        with pytest.raises(PathError):
            tz.integrate_frame(al, pts, np.eye(3, dtype=complex))
        with pytest.raises(PathError):
            tz.holonomy(al, pts + pts[:1])
    # the helpers snap to the nearest nodes and join them by lattice edges
    zs = [0.01, 0.3 + 0.2j, 0.1 + 0.4j]
    path = tz.polyline_path(dom, zs)
    assert path.dtype.kind == "i" and path.shape[1] == 2
    j, k = dom.to_lattice(np.array(zs)[[0, -1]])
    assert np.array_equal(path[[0, -1]], np.rint([j, k]).T)
    assert (np.abs(np.diff(path, axis=0)).sum(axis=1) == 1).all()
    assert tz.integrate_frame(al, path, np.eye(3)).shape == (len(path), 3, 3)


def test_torus_generator_index():
    dom = small_torus()
    for which in (0, 1):
        loop = tz.torus_generator(dom, which)
        assert loop.shape == (dom.shape[which] + 1, 2)
        # from the origin node to its translate by the period
        assert np.array_equal(loop[-1] - loop[0], np.eye(2)[which] *
                              dom.shape[which])
        assert np.array_equal(dom.to_lattice(dom.origin), loop[0])
    with pytest.raises(PathError):
        tz.torus_generator(dom, 7)


# -- holonomy -----------------------------------------------------------------------

def test_holonomy_zero_connection_identity():
    dom = small_torus()
    A = np.zeros(dom.shape + (3, 3), dtype=complex)
    al = dense_form(A, A, "row_frame", dom)
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
    M = sum(X[0, 0] for X in al.dense())
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
    assert out == {"unitarity": 0.0}


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
    assert abs(np.linalg.det(out[-1]) - 1.0) <= 1e-8


def test_group_residuals_su21_preserved():
    dom = tz.Domain.disk_patch(0.7, 24, 24)
    mu = tz.BackgroundMetric("poincare_disk")
    case = tz.SignCase(-1, -1)
    p = tz.PdeProblem(dom, mu, Q1.scaled(0.3), case)
    sol = tz.solve_newton(p).solution
    al = tz.minlag_frame_connection(sol.psi, Q1.scaled(0.3), case, dom)
    path = tz.polyline_path(dom, [0.0, 0.3 + 0.2j, -0.2 + 0.3j, 0.0])
    F = tz.integrate_frame(al, path, np.eye(3, dtype=complex))
    res = tz.group_residuals(F, "su21")
    assert res["unitarity"] <= 1e-8
    # the unitary connection is eta-skew pointwise
    A, B = al.dense()
    for X in (A + B, 1j * (A - B)):
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
    # oracle: the normalized affine frame, columns (f_z, f_zbar) / (sqrt(2)
    # e^psi) and xi, is F = R C with R real and C the constant gauge below,
    # and has determinant i/2
    p, sol = torus32
    pd = planar_ops(p.domain)
    f = torus_mesh.vertices
    s = np.sqrt(2.0) * np.exp(sol.psi)[..., None]
    F = np.stack([pd.dz(f) / s, pd.dzbar(f) / s, -torus_mesh.lam * (f + 0j)],
                 axis=-1)[2:-2, 2:-2]
    C = np.array([[0.5, 0.5, 0.0], [-0.5j, 0.5j, 0.0], [0.0, 0.0, 1.0]])
    reality = np.linalg.norm(np.imag(F @ np.linalg.inv(C)), axis=(-2, -1))
    assert reality.max() <= 1e-10
    det_drift = np.abs(np.linalg.det(F) - 0.5j).max()
    assert det_drift <= 20.0 * p.domain.hmax ** 2
    # verify_affine reads the same drift off its cross-product determinant
    rep = tz.verify_affine(torus_mesh, sol, p.Q)
    assert rep["det_drift"] == pytest.approx(det_drift, rel=1e-12)
