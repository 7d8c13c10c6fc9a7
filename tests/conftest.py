import math

import numpy as np
import pytest

import titeica as tz
from titeica.errors import DegenerateVertexError
from titeica.frames import Term


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
    mesh = tz.ImmersionMesh(dom, f, "affine_sphere", lam=-1)
    mu = tz.BackgroundMetric("poincare_disk")
    sol = tz.MetricSolution(np.zeros(dom.shape), dom, mu)
    mesh.psi = sol.psi
    return mesh, sol


# the constant gauge from the affine sphere's complex rows (f_z, f_zbar,
# xi, f) to its real rows (f_x, f_y, xi, f): f_x = f_z + f_zbar and
# f_y = i (f_z - f_zbar)
AFFINE_GAUGE = np.array([[1, 1, 0, 0], [1j, -1j, 0, 0], [0, 0, 1, 0],
                         [0, 0, 0, 1]])


def affine_complex_system(psi, Q, lam, domain):
    """(A, B), the complex (n, m, 4, 4) row system of the affine sphere on
    (f_z, f_zbar, xi, f): f_zz = 2 psi_z f_z + Q e^{-2 psi} f_zbar,
    f_{z zbar} = e^{2 psi} xi, xi_z = -lam f_z, and the position row
    df = f_z dz + f_zbar dzbar."""
    psi = np.asarray(psi, dtype=float)
    p, r = 2.0 * domain.dz(psi), Q(domain.z) * np.exp(-2.0 * psi)
    e2p = np.exp(2.0 * psi)
    A = np.zeros(domain.shape + (4, 4), dtype=complex)
    B = np.zeros_like(A)
    A[..., 0, 0], A[..., 0, 1], A[..., 1, 2] = p, r, e2p
    B[..., 0, 2], B[..., 1, 0], B[..., 1, 1] = e2p, np.conj(r), np.conj(p)
    A[..., 2, 0] = B[..., 2, 1] = -lam
    A[..., 3, 0] = B[..., 3, 1] = 1.0
    return A, B


# the dense steps that the kernel's pattern step replaced, the oracles of
# its trees: the realified complex coefficient A zdot + B conj(zdot), and
# the affine sphere's real coefficient assembled entry by entry
def dense_step(zdot, A, B):
    """Real blocks [[X, -Y], [Y, X]] of the complex step coefficient
    X + iY = A zdot + B conj(zdot) at the nodes of A and B (..., r, r)."""
    C = A * zdot + B * np.conj(zdot)
    r = C.shape[-1]
    R = np.empty(C.shape[:-2] + (2 * r, 2 * r))
    R[..., :r, :r] = R[..., r:, r:] = C.real
    R[..., r:, :r] = C.imag
    np.negative(C.imag, out=R[..., :r, r:])
    return R


def affine_fields(psi, Q, domain):
    """2 psi_z, Q e^{-2 psi} and e^{2 psi}: the fields of `affine_step`."""
    psi = np.asarray(psi, dtype=float)
    return (2.0 * domain.dz(psi), Q(domain.z) * np.exp(-2.0 * psi),
            np.exp(2.0 * psi))


def affine_step(lam, zdot, p, r, e2p):
    """The real coefficient T (A zdot + B conj(zdot)) T^-1 of the affine
    sphere at the nodes of the fields p = 2 psi_z, r = Q e^{-2 psi},
    e2p = e^{2 psi}, T = AFFINE_GAUGE."""
    p, r = p * zdot, r * zdot
    x, y = zdot.real, zdot.imag
    C = np.zeros(p.shape + (4, 4))
    C[..., 0, 0], C[..., 1, 1] = p.real + r.real, p.real - r.real
    C[..., 0, 1], C[..., 1, 0] = p.imag - r.imag, -p.imag - r.imag
    C[..., 0, 2], C[..., 1, 2] = 2.0 * x * e2p, 2.0 * y * e2p
    C[..., 2:, :2] = [[-lam * x, -lam * y], [x, y]]
    return C


def dense_form(A, B, convention, domain):
    """The ConnectionForm A dz + B dzbar of dense (n, m, r, r) fields: one
    term per entry of each part."""
    r = A.shape[-1]
    terms = []
    for i in range(r):
        for j in range(r):
            E = np.zeros((r, r), dtype=complex)
            E[i, j] = 1.0
            terms += [Term(A[..., i, j], E, False),
                      Term(np.conj(B[..., i, j]), E, True)]
    return tz.ConnectionForm(terms, convention, domain)


def complex_affine_tree(sol, Q, lam, init, root, axis_first=0):
    """Frames (f_z, f_zbar, xi, f) of the affine sphere from init
    (f0, xi0, a), by the complex 4 x 4 system realified to 8 x 8 on the
    stacked frames [Re F; Im F]: the tree as it ran before the real
    gauge, the oracle of `affine_sphere_immersion`."""
    from titeica.immersion import integrate_tree

    f0, xi0, a = (np.asarray(v, dtype=complex) for v in init)
    A, B = affine_complex_system(sol.psi, Q, lam, sol.domain)
    F0 = np.stack([a, np.conj(a), xi0, f0])
    frames, _ = integrate_tree(sol.domain, dense_step, (A, B), F0,
                               root=root, axis_first=axis_first)
    return frames


def graph_development(dom, x1, x2, phi):
    """Semi-flat development of the parabolic graph (x1, x2, phi) given
    node by node on the lattice of dom."""
    mesh = tz.ImmersionMesh(dom, np.stack([x1, x2, phi], axis=-1),
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


# geometry's stencils as they were written along an axis moved to the
# front, the periodic differences by np.roll: the form that the flat
# passes of lattice_diff and lattice_diff2 replaced, their oracles
def lattice_diff_reference(f, axis, periodic=False):
    f = np.moveaxis(np.asarray(f), axis, 0)
    if periodic:
        g = (np.roll(f, -1, axis=0) - np.roll(f, 1, axis=0)) / 2.0
    else:
        g = np.empty_like(f)
        g[1:-1] = (f[2:] - f[:-2]) / 2.0
        g[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / 2.0
        g[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / 2.0
    return np.moveaxis(g, 0, axis)


def lattice_diff2_reference(f, axis, periodic=False):
    f = np.moveaxis(np.asarray(f), axis, 0)
    if periodic:
        g = np.roll(f, -1, axis=0) - 2.0 * f + np.roll(f, 1, axis=0)
    else:
        g = np.empty_like(f)
        g[1:-1] = f[2:] - 2.0 * f[1:-1] + f[:-2]
        g[0] = 2.0 * f[0] - 5.0 * f[1] + 4.0 * f[2] - f[3]
        g[-1] = 2.0 * f[-1] - 5.0 * f[-2] + 4.0 * f[-3] - f[-4]
    return np.moveaxis(g, 0, axis)


# the residual of the global equation with every term in a new array, by
# the reference stencils: the form that the in-place terms of
# pde.residual_global replaced, its oracle
def residual_global_reference(u, p):
    """4/sigma d^2/dz dzbar u + 16 eps ||Q||^2 e^{-2u} + 2 lam e^u
    - 2 kappa, as 4.0 / p.sigma * p.domain.dzzbar(u) + _nonlinear(p, u)
    once read, each exponential term 0 wherever its coefficient is."""
    from titeica.geometry import cubic_norm_sq

    dom, mu, per = p.domain, p.mu, p.domain.periodic
    z = dom.z
    a, b, c, den = dom.dzzbar_coeffs
    djj = lattice_diff2_reference(u, 0, per)
    dkk = lattice_diff2_reference(u, 1, per)
    if c == 0:
        lap = (a * djj + b * dkk) / den
    else:
        djk = lattice_diff_reference(lattice_diff_reference(u, 0, per), 1, per)
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
    lattice derivative of each field by the reference stencils over the
    whole grid (centered, and one-sided at the edges): the form that the
    blocks of rows of projective._chain_rule replaced."""
    def first(f):
        return lattice_diff_reference(f, 0), lattice_diff_reference(f, 1)

    def second(f):
        return (lattice_diff2_reference(f, 0), lattice_diff2_reference(f, 1),
                lattice_diff_reference(lattice_diff_reference(f, 0), 1))

    x1j, x1k = first(x1)
    x2j, x2k = first(x2)
    det = x1j * x2k - x1k * x2j
    if np.any(det == 0):
        raise DegenerateVertexError("degenerate affine development")
    pj, pk = first(phi)
    grad = np.empty(phi.shape + (2,))
    grad[..., 0] = x2k / det * pj + -x2j / det * pk
    grad[..., 1] = -x1k / det * pj + x1j / det * pk
    l00, l11, l01 = second(phi)
    for g, x in ((grad[..., 0], x1), (grad[..., 1], x2)):
        xjj, xkk, xjk = second(x)
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
                            np.zeros((n, m, 3)), "affine_sphere", lam=0)
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


# the curvature of the dense A and B, differentiated as (n, m, r, r)
# fields: the form that frames.curvature_residual's scalar columns and
# constant pattern replaced, its oracle
def dense_curvature_residual(alpha):
    """Nodewise Frobenius norm of dzbar(A) - dz(B) +/- [A, B]."""
    A, B = alpha.dense()
    sign = 1.0 if alpha.convention == "row_frame" else -1.0
    curv = (alpha.domain.dzbar(A) - alpha.domain.dz(B)
            + sign * (A @ B - B @ A))
    return np.linalg.norm(curv, axis=(-2, -1))


# the continuation that solves every t on the problem's own grid: the
# form that pde.continuation_family's coarse t-path replaced, its oracle
def fine_continuation(p0, Q0, t_grid, tol=1e-10, max_iter=100):
    """(t_grid, reports, failure_index) of Newton along Q = t Q0 on p0's
    grid, each solve seeded with the last solution, up to the first that
    does not converge."""
    from titeica import pde

    reports, seed = [], None
    for t in t_grid:
        pt = tz.PdeProblem(p0.domain, p0.mu, Q0.scaled(t), p0.case,
                           p0.boundary)
        rep = pde.solve_newton(pt, seed, tol=tol, max_iter=max_iter)
        reports.append(rep)
        if not rep.converged:
            break
        seed = rep.solution.u
    failure = None if reports[-1].converged else len(reports) - 1
    return [float(t) for t in t_grid[:len(reports)]], reports, failure


# the fit that takes the SVD of the whole (npts, 10) design matrix: the
# form that projective.quadric_fit's blockwise QR replaced, its oracle
def dense_quadric_fit(points):
    """QuadricFit of the least-squares quadric p^T S p = 0 through the
    homogenized points p = (x, 1), from the SVD of every normalized
    design row at once."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    pts = np.hstack([pts, np.ones((pts.shape[0], 1))])
    d = pts.shape[1]
    pairs = [(i, j) for i in range(d) for j in range(i, d)]
    if pts.shape[0] < len(pairs) - 1:
        raise ValueError(f"need at least {len(pairs) - 1} points")
    cols = []
    for i, j in pairs:
        col = pts[:, i] * pts[:, j]
        cols.append(col if i == j else 2.0 * col)
    D = np.stack(cols, axis=-1)
    rn = np.linalg.norm(D, axis=1)
    if np.any(rn == 0):
        raise DegenerateVertexError("degenerate design row")
    D = D / rn[:, None]
    _, svals, vt = np.linalg.svd(D, full_matrices=False)
    if svals[-2] < 1e-10 * svals[0]:
        raise DegenerateVertexError("points are not in general position")
    coef = vt[-1]
    S = np.zeros((d, d))
    for c, (i, j) in zip(coef, pairs):
        S[i, j] = S[j, i] = c
    nrm = np.linalg.norm(S)
    S = S / nrm
    residual = float(svals[-1] / np.sqrt(pts.shape[0]))
    block = S[:3, :3]
    eig = np.linalg.eigvalsh(block)
    thresh = 1e-8 * max(np.abs(eig).max(), 1e-300)
    pos = int(np.sum(eig > thresh))
    neg = int(np.sum(eig < -thresh))
    if neg > pos or (neg == pos and eig.sum() < 0):
        S = -S
        pos, neg = neg, pos
    return tz.QuadricFit(S, residual, (pos, neg))
