import math

import numpy as np
import pytest

import titeica as tz
from titeica.errors import DegenerateVertexError


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


# the residual of the global equation with every term in a new array,
# the periodic second differences by np.roll: the form that the in-place
# terms of pde.residual_global replaced, its oracle
def _lattice_diff2_reference(f, axis, periodic):
    f = np.moveaxis(f, axis, 0)
    if periodic:
        g = np.roll(f, -1, axis=0) - 2.0 * f + np.roll(f, 1, axis=0)
    else:
        g = np.empty_like(f)
        g[1:-1] = f[2:] - 2.0 * f[1:-1] + f[:-2]
        g[0] = 2.0 * f[0] - 5.0 * f[1] + 4.0 * f[2] - f[3]
        g[-1] = 2.0 * f[-1] - 5.0 * f[-2] + 4.0 * f[-3] - f[-4]
    return np.moveaxis(g, 0, axis)


def residual_global_reference(u, p):
    """4/sigma d^2/dz dzbar u + 16 eps ||Q||^2 e^{-2u} + 2 lam e^u
    - 2 kappa, as 4.0 / p.sigma * p.domain.dzzbar(u) + _nonlinear(p, u)
    once read, each exponential term 0 wherever its coefficient is."""
    from titeica.geometry import cubic_norm_sq, lattice_diff

    dom, mu, per = p.domain, p.mu, p.domain.periodic
    z = dom.z
    a, b, c, den = dom.dzzbar_coeffs
    djj = _lattice_diff2_reference(u, 0, per)
    dkk = _lattice_diff2_reference(u, 1, per)
    if c == 0:
        lap = (a * djj + b * dkk) / den
    else:
        djk = lattice_diff(lattice_diff(u, 0, per), 1, per)
        lap = (a * djj + c * djk + b * dkk) / den

    def times(coeff, e):
        coeff = np.broadcast_to(coeff, e.shape)
        return np.multiply(coeff, e, out=np.zeros_like(e), where=coeff != 0)

    qnorm2 = cubic_norm_sq(p.Q, mu, z)
    with np.errstate(over="ignore"):
        nonlinear = (times(16.0 * p.case.epsilon * qnorm2, np.exp(-2.0 * u))
                     + times(2.0 * p.case.lam, np.exp(u))
                     - 2.0 * mu.curvature(z))
    return 4.0 / mu.sigma(z) * lap + nonlinear


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


def whole_grid_chain_rule_hessian(x1, x2, phi):
    """Gradient of phi and det Hess_x phi over the whole grid, every
    lattice derivative by `lattice_diff` and `second_diffs` (centered,
    and one-sided at the edges): the form that the centered core and the
    one-sided edge fill of projective._chain_rule replaced."""
    from titeica.geometry import lattice_diff, second_diffs

    x1j, x1k = lattice_diff(x1, 0), lattice_diff(x1, 1)
    x2j, x2k = lattice_diff(x2, 0), lattice_diff(x2, 1)
    det = x1j * x2k - x1k * x2j
    if np.any(det == 0):
        raise DegenerateVertexError("degenerate affine development")
    pj, pk = lattice_diff(phi, 0), lattice_diff(phi, 1)
    grad = np.empty(phi.shape + (2,))
    grad[..., 0] = x2k / det * pj + -x2j / det * pk
    grad[..., 1] = -x1k / det * pj + x1j / det * pk
    l00, l11, l01 = second_diffs(phi)
    for g, x in ((grad[..., 0], x1), (grad[..., 1], x2)):
        xjj, xkk, xjk = second_diffs(x)
        l00 -= g * xjj
        l01 -= g * xjk
        l11 -= g * xkk
    return grad, (l00 * l11 - l01 * l01) / (det * det)


def hessian_dual_roundtrip(sf):
    """semiflat_dual_roundtrip by the gradient of the whole-grid
    projective._chain_rule_hessian, det Hess computed and discarded: the
    form that its gradient-only pass replaced."""
    from titeica.projective import _chain_rule_hessian

    grad, _ = _chain_rule_hessian(sf.y[..., 0], sf.y[..., 1], sf.phi_star)
    dev = np.linalg.norm(grad - sf.x, axis=-1)
    return float(dev[2:-2, 2:-2].max())


def face_rows_reference(n, m):
    """The "f" rows of the one-based quads of an n x m grid, by Python's
    %d, one row each: the form that _objtext.face_rows replaced."""
    mesh = tz.ImmersionMesh(tz.Domain.rectangle(1.0, 1.0, 8, 8),
                            np.zeros((n, m, 3)), None, "affine_sphere", lam=0)
    return b"".join(b"f %d %d %d %d\n" % tuple(q) for q in (mesh.faces + 1).tolist())


# the 128-bit integer product in 32-bit limbs that _objtext._decimal's
# two-product replaced, over its range 10^-11 < x < 10^17: its oracle
def _limb_scaled(m, e, k):
    """floor(m 2^e 10^(16 - k)) and whether it rounds up, ties to even."""
    u64 = np.uint64
    p = 16 - k
    f = u64(5) ** p.astype(u64)
    ml, mh = m & u64(0xFFFFFFFF), m >> u64(32)
    fl, fh = f & u64(0xFFFFFFFF), f >> u64(32)
    ll = ml * fl
    mid = ml * fh + mh * fl          # < 2^63 + 2^53: mh < 2^21, fh < 2^31
    lo = ll + (mid << u64(32))
    hi = mh * fh + (mid >> u64(32)) + (lo < ll)
    t = e + p
    s = np.maximum(-t, 0).astype(u64)
    # a 128-bit shift right by s <= 63: hi << 64 is 0 when s is 0
    floor = ((hi << (u64(63) - s)) << u64(1)) | (lo >> s)
    floor <<= np.maximum(t, 0).astype(u64)
    one = u64(1) << s
    rem = lo & (one - u64(1))
    return floor, (rem << u64(1)) + (floor & u64(1)) > one


def limb_decimal(x):
    """N and k of doubles 10^-11 < x < 10^17 such that %.17g prints the
    17 digits of N with decimal exponent k, by the limb product."""
    bits = np.asarray(x, dtype=float).view(np.uint64)
    e = (bits >> np.uint64(52)).astype(np.int64) - 1075
    m = (bits & np.uint64((1 << 52) - 1)) | np.uint64(1 << 52)
    k = np.clip(np.floor(np.log10(x)).astype(np.int64), -11, 16)
    lo, hi = np.uint64(10 ** 16), np.uint64(10 ** 17)
    floor, up = _limb_scaled(m, e, k)
    bad = np.flatnonzero((floor < lo) | (floor >= hi))
    while bad.size:
        k[bad] += np.where(floor[bad] < lo, -1, 1)
        floor[bad], up[bad] = _limb_scaled(m[bad], e[bad], k[bad])
        bad = bad[(floor[bad] < lo) | (floor[bad] >= hi)]
    return floor + up, k


def sine_matrix_reference(n):
    """The orthonormal type-I sine matrix by n^2 sines: the form that
    pde.sine_matrix's table of 2(n + 1) sines replaced."""
    j = np.arange(1, n + 1)
    arg = np.outer(j, j) % (2 * (n + 1))
    return math.sqrt(2.0 / (n + 1)) * np.sin(np.pi / (n + 1) * arg)
