import numpy as np
import pytest

import titeica as tz


@pytest.fixture(scope="session")
def torus32():
    """Flat 32x32 torus, |c| = 1, hyperbolic affine case, solved by Newton."""
    dom = tz.Domain.torus(1j, 32, 32)
    mu = tz.BackgroundMetric("flat")
    Q = tz.CubicDifferential.constant(1.0)
    case = tz.SignCase(1, -1)
    p = tz.PdeProblem(dom, mu, Q, case)
    rep = tz.solve_newton(p)
    assert rep.converged
    return p, rep.solution


@pytest.fixture(scope="session")
def torus_mesh(torus32):
    p, sol = torus32
    return tz.affine_sphere_immersion(sol, p.Q, lam=-1)


@pytest.fixture(scope="session")
def disk_q0():
    """Poincare disk patch, Q = 0: the solution is u = 0 (hyperboloid data)."""
    dom = tz.Domain.disk_patch(0.7, 32, 32)
    mu = tz.BackgroundMetric("poincare_disk")
    Q = tz.CubicDifferential.constant(0.0)
    p = tz.PdeProblem(dom, mu, Q, tz.SignCase(1, -1))
    rep = tz.solve_newton(p)
    assert rep.converged
    return p, rep.solution


def hyperboloid_mesh(n=24, radius=0.5):
    """Analytic hyperbolic affine sphere x1^2 + x2^2 - x3^2 = -1 over a
    Poincare patch (disk-model parametrization); Blaschke weight psi is the
    Poincare weight (u = 0)."""
    dom = tz.Domain.disk_patch(radius, n, n)
    z = dom.z
    d = 1.0 - np.abs(z) ** 2
    f = np.stack([2 * z.real / d, 2 * z.imag / d, (1 + np.abs(z) ** 2) / d],
                 axis=-1)
    frame = np.stack([dom.dz(f), dom.dzbar(f), f.astype(complex)], axis=-2)
    mesh = tz.ImmersionMesh(dom, f, frame, "affine_sphere", lam=-1)
    mu = tz.BackgroundMetric("poincare_disk")
    sol = tz.MetricSolution(np.zeros(dom.shape), dom, mu)
    mesh.psi = sol.psi
    return mesh, sol


def graph_development(dom, x1, x2, phi):
    """Semi-flat development of the parabolic graph (x1, x2, phi) given
    node by node on the lattice of dom."""
    mesh = tz.ImmersionMesh(dom, np.stack([x1, x2, phi], axis=-1), None,
                            "affine_sphere", lam=0)
    return tz.semiflat_develop(mesh)


def mirror(sf, dom):
    """Development of the Legendre dual (y, phi*) of a semi-flat
    development, itself a parabolic graph: its ma_residual is the dual
    Monge-Ampere residual, and its y and phi_star give back x and phi**."""
    return graph_development(dom, sf.y[..., 0], sf.y[..., 1], sf.phi_star)


# the sparse matrix of the d^2/dz dzbar stencil, the oracle that the
# matrix-free stencils and solves of the package are checked against
def _second_diff_matrix(n, periodic):
    import scipy.sparse as sp

    if periodic:
        return sp.diags([1.0, 1.0, -2.0, 1.0, 1.0], [1 - n, -1, 0, 1, n - 1],
                        shape=(n, n), format="csr")
    return sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(n, n), format="csr")


def _centered_diff_matrix(n):
    import scipy.sparse as sp

    return sp.diags([0.5, -0.5, 0.5, -0.5], [1 - n, -1, 1, n - 1],
                    shape=(n, n), format="csr")


def dzzbar_matrix(domain):
    """Sparse matrix of the d^2/dz dzbar stencil on the unknowns, flattened:
    every node of a torus, and on a planar grid the Dirichlet restriction
    to the (n-2) x (m-2) interior nodes, built from interior-sized factors
    (the interior of a lattice is a product of index ranges)."""
    import scipy.sparse as sp

    n, m = domain.shape
    if not domain.periodic:
        n, m = n - 2, m - 2
    a, b, c, den = domain.dzzbar_coeffs
    D1 = _second_diff_matrix(n, domain.periodic)
    D2 = _second_diff_matrix(m, domain.periodic)
    In, Im = sp.identity(n), sp.identity(m)
    L = a * sp.kron(D1, Im) + b * sp.kron(In, D2)
    if c != 0:
        if not domain.periodic:
            # Dirichlet problems are posed on the orthogonal grids of
            # Domain.rectangle and Domain.disk_patch
            raise ValueError("the planar stencil matrix has no cross term")
        L = L + c * sp.kron(_centered_diff_matrix(n), _centered_diff_matrix(m))
    return (L / den).tocsr()


def exact_precond(system, c):
    """r -> P^{-1} r for P = -L_int + c I on the unknowns of a planar
    `pde._System`, in float64, with the symbol of the Dirichlet second
    differences between the dense sine transforms X -> S_n X S_m.  It is
    the exact inverse that the package's single-precision transforms
    approximate."""
    from titeica.pde import sine_matrix

    n, m = system.grid
    a, b, _, den = system.p.domain.dzzbar_coeffs
    sj = 4.0 * np.sin(np.pi * np.arange(1, n + 1) / (2 * (n + 1))) ** 2
    sk = 4.0 * np.sin(np.pi * np.arange(1, m + 1) / (2 * (m + 1))) ** 2
    denom = (a * sj[:, None] + b * sk[None, :]) / den + c
    Sn, Sm = sine_matrix(n), sine_matrix(m)

    def apply(r):
        return (Sn @ ((Sn @ r.reshape(n, m) @ Sm) / denom) @ Sm).ravel()

    return apply


# the whole-grid Weierstrass representation and H-based chain rule that
# the row-block streaming of weierstrass.parabolic_from_holomorphic and
# projective.monge_ampere_gate replaced: their oracles
def whole_grid_parabolic(pair, domain):
    """(vertices, psi, margin) of the pair on a planar domain, every field
    over the whole grid at once."""
    from titeica.weierstrass import _cumulative_simpson

    z = domain.z
    dGv = pair.dG(z)
    abs_dF, abs_dG = np.abs(pair.dF(z)), np.abs(dGv)
    margin = float(np.min(abs_dG - abs_dF))
    Fv, Gv = pair.F(z), pair.G(z)
    integrand = Fv * dGv
    spine = _cumulative_simpson(integrand[:, 0] * domain.step1, axis=0)
    teeth = _cumulative_simpson(integrand * domain.step2, axis=1)
    I = spine[:, None] + teeth
    W = 0.5 * (Gv + np.conj(Fv))
    s = ((np.abs(Gv) ** 2 - np.abs(Fv) ** 2) / 8.0
         + np.real(Fv * Gv) / 4.0 - 0.5 * np.real(I))
    vertices = np.stack([W.real, W.imag, s], axis=-1)
    psi = 0.5 * np.log((abs_dG ** 2 - abs_dF ** 2) / 8.0)
    return vertices, psi, margin


def chain_rule_hessian_H(x1, x2, phi):
    """Gradient and the full 2x2 Hessian H of phi with respect to
    (x1, x2), H = a^T l a with a the inverse lattice Jacobian."""
    from titeica.geometry import lattice_diff, second_diffs

    x1j, x1k = lattice_diff(x1, 0), lattice_diff(x1, 1)
    x2j, x2k = lattice_diff(x2, 0), lattice_diff(x2, 1)
    det = x1j * x2k - x1k * x2j
    a00, a01 = x2k / det, -x1k / det
    a10, a11 = -x2j / det, x1j / det
    pj, pk = lattice_diff(phi, 0), lattice_diff(phi, 1)
    grad = np.empty(phi.shape + (2,))
    grad[..., 0] = a00 * pj + a10 * pk
    grad[..., 1] = a01 * pj + a11 * pk
    l00, l11, l01 = second_diffs(phi)
    for g, x in ((grad[..., 0], x1), (grad[..., 1], x2)):
        xjj, xkk, xjk = second_diffs(x)
        l00 -= g * xjj
        l01 -= g * xjk
        l11 -= g * xkk
    H = np.empty(phi.shape + (2, 2))
    for i, (ai0, ai1) in enumerate(((a00, a10), (a01, a11))):
        s0, s1 = ai0 * l00 + ai1 * l01, ai0 * l01 + ai1 * l11
        H[..., i, 0] = s0 * a00 + s1 * a10
        H[..., i, 1] = s0 * a01 + s1 * a11
    return grad, H
