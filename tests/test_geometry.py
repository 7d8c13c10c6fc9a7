import numpy as np
import pytest

import titeica as tz
from titeica.errors import OutOfDomainError
from titeica.geometry import lattice_hessian

TAGS = {
    (1, -1): "hyperbolic_affine_sphere",
    (1, 0): "parabolic_affine_sphere",
    (1, 1): "elliptic_affine_sphere",
    (-1, -1): "minlag_ch2",
    (-1, 0): "minlag_c2",
    (-1, 1): "minlag_cp2",
}


@pytest.mark.parametrize("signs,tag", sorted(TAGS.items()))
def test_geometry_tag_roundtrip(signs, tag):
    case = tz.SignCase(*signs)
    assert case.geometry_tag == tag
    back = tz.SignCase.from_tag(tag)
    assert (back.epsilon, back.lam) == signs


def test_geometry_tag_rejects_bad_signs():
    with pytest.raises(ValueError):
        tz.SignCase(2, -1)
    with pytest.raises(ValueError):
        tz.SignCase.from_tag("nonsense")


def test_cubic_norm_examples():
    flat = tz.BackgroundMetric("flat")
    c = 2.0 - 1.0j
    Q = tz.CubicDifferential.constant(c)
    # flat sigma = 1: ||Q||^2 = |c|^2
    assert tz.cubic_norm_sq(Q, flat, 0.3 + 0.2j) == pytest.approx(abs(c) ** 2)
    # zero differential
    Q0 = tz.CubicDifferential.constant(0.0)
    assert tz.cubic_norm_sq(Q0, flat, 1.0j) == 0.0
    # Poincare disk at the origin: sigma = 4, so |1|^2 / 4^3 = 1/64
    poin = tz.BackgroundMetric("poincare_disk")
    Q1 = tz.CubicDifferential.constant(1.0)
    assert tz.cubic_norm_sq(Q1, poin, 0.0) == pytest.approx(1.0 / 64.0)


def test_cubic_norm_out_of_domain():
    poin = tz.BackgroundMetric("poincare_disk")
    Q = tz.CubicDifferential.constant(1.0)
    with pytest.raises(OutOfDomainError):
        tz.cubic_norm_sq(Q, poin, 1.5)


def test_gauss_curvature_values():
    flat = tz.BackgroundMetric("flat", sigma0=3.0)
    assert tz.gauss_curvature(flat, 0.7 + 0.1j) == 0.0
    poin = tz.BackgroundMetric("poincare_disk")
    assert tz.gauss_curvature(poin, 0.3 + 0.1j) == pytest.approx(-1.0)
    assert tz.gauss_curvature(poin, 0.0) == pytest.approx(-1.0)


def test_gauss_curvature_finite_difference_oracle():
    # independent oracle: kappa = -(2/sigma) d2/dz dzbar log sigma by stencils
    for n, bound in ((24, None), (48, None)):
        dom = tz.Domain.disk_patch(0.6, n, n)
        poin = tz.BackgroundMetric("poincare_disk")
        sig = poin.sigma(dom.z)
        kappa_fd = -2.0 / sig * dom.dzzbar(np.log(sig))
        dev = np.abs(kappa_fd[1:-1, 1:-1] + 1.0).max()
        # frozen regression constant: C h^2 with C = 10
        assert dev <= 10.0 * dom.hmax ** 2


def test_local_weight_examples():
    assert tz.local_weight(0.0, 2.0) == pytest.approx(0.0)
    assert tz.local_weight(np.log(2.0), 1.0) == pytest.approx(0.0)
    assert tz.local_weight(np.log(8.0) / 3.0, 1.0) == pytest.approx(
        np.log(8.0) / 6.0 - np.log(2.0) / 2.0)
    assert tz.local_weight(np.log(8.0) / 3.0, 1.0) == pytest.approx(0.0)


def test_weight_roundtrip_random():
    rng = np.random.default_rng(11)
    for _ in range(5):
        u = rng.normal(size=(16, 16))
        sigma = np.exp(rng.normal(size=(16, 16)))
        psi = tz.local_weight(u, sigma)
        assert np.abs(tz.global_weight(psi, sigma) - u).max() < 1e-13
        # both conventions describe the same metric: 2 e^{2 psi} = e^u sigma
        assert np.abs(2 * np.exp(2 * psi) - np.exp(u) * sigma).max() < 1e-12


def test_domain_validation():
    with pytest.raises(ValueError):
        tz.Domain.torus(1j, 4, 16)
    with pytest.raises(ValueError):
        tz.Domain.torus(-1j, 16, 16)
    with pytest.raises(ValueError):
        tz.Domain.disk_patch(1.2, 16, 16)
    dom = tz.Domain.disk_patch(0.8, 16, 16)
    assert np.abs(dom.z).max() <= 0.8 + 1e-12
    assert dom.boundary_mask.sum() == 4 * 16 - 4
    assert not tz.Domain.torus(1j, 16, 16).boundary_mask.any()


def test_domain_is_hashable():
    for make in (lambda: tz.Domain.torus(1j, 8, 8),
                 lambda: tz.Domain.rectangle(1.0, 0.5, 8, 9),
                 lambda: tz.Domain.disk_patch(0.7, 8, 8)):
        a, b = make(), make()
        assert a == b and hash(a) == hash(b)


def test_torus_lattice_coordinates():
    tau = 0.3 + 1.1j
    dom = tz.Domain.torus(tau, 16, 24)
    assert dom.z[0, 0] == 0
    assert dom.z[1, 0] == pytest.approx(1 / 16)
    assert dom.z[0, 1] == pytest.approx(tau / 24)
    j, k = dom.to_lattice(dom.z)
    jj, kk = np.meshgrid(np.arange(16), np.arange(24), indexing="ij")
    assert np.abs(j - jj).max() < 1e-10
    assert np.abs(k - kk).max() < 1e-10


def test_oblique_torus_dzzbar_oracle():
    # doubly periodic f = cos(2 pi (x + q y)) with q = (1 - Re tau)/Im tau has
    # d2/dz dzbar f = -(pi^2/... ) analytic value (1/4) Laplacian
    tau = 0.3 + 1.2j
    q = (1.0 - tau.real) / tau.imag
    for n in (24, 48):
        dom = tz.Domain.torus(tau, n, n)
        x, y = dom.z.real, dom.z.imag
        f = np.cos(2 * np.pi * (x + q * y))
        exact = -np.pi ** 2 * (1 + q ** 2) * f
        dev = np.abs(dom.dzzbar(f) - exact).max()
        assert dev <= 60.0 * dom.hmax ** 2 * np.pi ** 2


def test_lattice_hessian_exact_on_quadratics():
    # the edge stencils are exact for quadratics (and the second differences
    # for cubics along their axis), so every node counts, edges included
    h = (0.3, 0.7)
    x = h[0] * np.arange(9)[:, None, None]
    y = h[1] * np.arange(11)[None, :, None]
    a = np.array([0.5, -1.2, 2.0])
    b = np.array([0.7, 0.1, -0.4])
    c = np.array([-0.3, 0.9, 1.5])
    f = (a * x ** 2 + b * x * y + c * y ** 2 + 0.2 * x - y + 1.0
         + 0.3 * x ** 3 - 0.2 * y ** 3)
    H = lattice_hessian(f, h=h)
    assert H.shape == (9, 11, 3, 2, 2)
    assert np.abs(H[..., 0, 0] - (2 * a + 1.8 * x)).max() <= 1e-12
    assert np.abs(H[..., 1, 1] - (2 * c - 1.2 * y)).max() <= 1e-12
    assert np.abs(H[..., 0, 1] - b).max() <= 1e-12
    assert np.abs(H[..., 1, 0] - b).max() <= 1e-12


def test_lattice_hessian_exact_on_quadratics_3d():
    h = (0.2, 0.3, 0.25)
    M = np.array([[2.0, 0.3, -0.5], [0.3, 1.0, 0.4], [-0.5, 0.4, 3.0]])
    axes = [hi * np.arange(s) for hi, s in zip(h, (8, 9, 10))]
    X = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    f = 0.5 * np.einsum("...i,ij,...j->...", X, M, X) + X @ [1.0, -2.0, 0.5]
    H = lattice_hessian(f, h=h)
    assert H.shape == (8, 9, 10, 3, 3)
    assert np.abs(H - M).max() <= 1e-12


def test_lattice_hessian_periodic_symbol():
    # exp(i (t1 j + t2 k)) is an eigenfunction: the second difference has
    # symbol -4 sin^2(t/2) and each centered first difference i sin(t)
    n, m, h = 12, 16, (0.5, 0.25)
    t1, t2 = 2 * np.pi * 3 / n, 2 * np.pi * 5 / m
    j, k = np.meshgrid(np.arange(n), np.arange(m), indexing="ij")
    f = np.exp(1j * (t1 * j + t2 * k))
    H = lattice_hessian(f, periodic=True, h=h)
    sym = np.array([[-4 * np.sin(t1 / 2) ** 2 / h[0] ** 2,
                     -np.sin(t1) * np.sin(t2) / (h[0] * h[1])],
                    [-np.sin(t1) * np.sin(t2) / (h[0] * h[1]),
                     -4 * np.sin(t2 / 2) ** 2 / h[1] ** 2]])
    assert np.abs(H - sym * f[..., None, None]).max() <= 1e-12


def test_metric_solution_psi():
    dom = tz.Domain.torus(1j, 16, 16)
    mu = tz.BackgroundMetric("flat")
    sol = tz.MetricSolution(np.full(dom.shape, np.log(2.0)), dom, mu)
    assert np.abs(sol.psi).max() < 1e-14
