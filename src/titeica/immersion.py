"""Surface reconstruction from solved metric data and pointwise
verification of the structure equations on the reconstruction.

Affine spheres integrate the first-order system on the rows
(f_z, f_zbar, xi, f) over a spanning tree of the grid (a comb rooted at
the central node); minimal Lagrangian surfaces in C^2 integrate
(f_z, f_zbar, f) with C^2-valued rows; CP^2/CH^2 surfaces integrate the
unitary column frame and read the point off as phi = F e3.

Mesh derivatives are always taken with non-periodic stencils: even over
a torus domain the reconstructed immersion is not doubly periodic, only
equivariant under the holonomy.
"""

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from ._kernels import transport_polyline
from .errors import DegenerateVertexError, InitDataError, InvalidSignCase
from .frames import build_connection, minlag_frame_connection
from .geometry import Domain, SignCase, lattice_hessian

E3 = np.array([0.0, 0.0, 1.0])


def planar_ops(domain):
    """Clone of the domain with periodicity switched off, for stencils on
    reconstructed (non-periodic) vertex data."""
    if not domain.periodic:
        return domain
    return dataclasses.replace(domain, periodic=False)


@dataclass
class ImmersionMesh:
    domain: Domain
    vertices: np.ndarray          # (n, m, d) real or complex
    # (n, m, rows, d) complex rows of the frame, or a zero-argument
    # builder of them, called on the first read of `frame`
    _frame: object
    target_tag: str               # affine_sphere | minlag_c2 | minlag_cp2 | minlag_ch2
    lam: int = 0
    psi: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    @property
    def frame(self):
        if callable(self._frame):
            self._frame = self._frame()
        return self._frame

    def quads(self, start=0, stop=None):
        """Vertex indices (from 0, row-major) of the grid quads whose first
        corner lies in grid rows [start, stop), in the order of `faces`."""
        n, m = self.vertices.shape[:2]
        stop = n - 1 if stop is None else min(stop, n - 1)
        v00 = np.arange(start, stop)[:, None] * m + np.arange(m - 1)
        return np.stack([v00, v00 + m, v00 + m + 1, v00 + 1], axis=-1).reshape(-1, 4)

    @property
    def faces(self):
        return self.quads()

    @property
    def embeddable_r3(self):
        return self.target_tag == "affine_sphere"


@dataclass
class ResidualEntry:
    """Max and rms of one residual field; the verify_* functions return a
    dict from each residual name to its entry."""

    max: float
    rms: float


def _entry(field_vals, margin=2):
    """Residual statistics over the core interior.  The margin excludes the
    rings next to the mesh edge, where one-sided stencils and (on planar
    Dirichlet problems) corner-limited regularity of the continuum
    solution spoil pointwise second-order convergence."""
    v = np.asarray(field_vals)
    if margin and v.ndim >= 2:
        v = v[margin:-margin, margin:-margin]
    v = np.abs(v)
    return ResidualEntry(float(v.max()), float(np.sqrt(np.mean(v ** 2))))


def _tree_lines(domain, root, axis_first=0):
    """Spanning comb rooted at `root`: the two halves of a spine along
    axis_first, then for each spine node the two halves of a tooth along
    the other axis.  Returns the lattice polylines in that order; each
    starts at a node reached by an earlier line (or at the root)."""
    lines = []

    def halves(axis, fixed):
        for stop in (domain.shape[axis] - 1, 0):
            step = 1 if stop >= root[axis] else -1
            pts = np.empty((abs(stop - root[axis]) + 1, 2), dtype=int)
            pts[:, axis] = np.arange(root[axis], stop + step, step)
            pts[:, 1 - axis] = fixed
            lines.append(pts)

    halves(axis_first, root[1 - axis_first])
    for i in range(domain.shape[axis_first]):
        halves(1 - axis_first, i)
    return lines


def integrate_tree(domain, A, B, F0, root=None, row=True, axis_first=0):
    """Integrate the frame system over a spanning tree of the grid; returns
    the (n, m, rows, d) array of frames at every node."""
    n, m = domain.shape
    if root is None:
        root = (n // 2, m // 2)
    frames = np.empty((n, m) + F0.shape, dtype=complex)
    frames[root] = F0
    for pts in _tree_lines(domain, root, axis_first):
        frames[pts[:, 0], pts[:, 1]] = transport_polyline(
            A, B, domain.step1, domain.step2, pts.astype(float),
            frames[pts[0, 0], pts[0, 1]], row=row, periodic=False,
            max_step=domain.hmin / 2.0)
    return frames


def _default_affine_init(psi0, lam):
    xi0 = E3.astype(complex)
    f0 = (-lam * xi0) if lam != 0 else np.zeros(3, dtype=complex)
    a = np.exp(psi0) / np.sqrt(2.0) * np.array([1.0, -1.0j, 0.0])
    return f0, xi0, a


def affine_sphere_immersion(sol, Q, lam, init=None, root=None, axis_first=0):
    """Reconstruct an affine sphere from a solved metric.  init, when given,
    is (f0, xi0, a) with det(a, conj(a), xi0) = i e^{2 psi(z0)}; the default
    init satisfies this identically."""
    domain = sol.domain
    psi = sol.psi
    n, m = domain.shape
    if root is None:
        root = (n // 2, m // 2)
    psi0 = psi[root]
    if init is None:
        f0, xi0, a = _default_affine_init(psi0, lam)
    else:
        f0, xi0, a = (np.asarray(v, dtype=complex) for v in init)
    det0 = np.linalg.det(np.stack([a, np.conj(a), xi0], axis=-1))
    target = 1j * np.exp(2.0 * psi0)
    if abs(det0 - target) > 1e-12 * abs(target):
        raise InitDataError(
            f"det(a, conj a, xi0) = {det0}, expected {target}")
    alpha = build_connection(psi, Q, SignCase(1, lam), domain,
                             convention="row_frame")
    # rows (f_z, f_zbar, xi, f): the structure system plus the position
    # row df = f_z dz + f_zbar dzbar
    pad = ((0, 0), (0, 0), (0, 1), (0, 1))
    A, B = np.pad(alpha.A, pad), np.pad(alpha.B, pad)
    A[..., 3, 0] = B[..., 3, 1] = 1.0
    F0 = np.stack([a, np.conj(a), xi0, f0])
    frames = integrate_tree(domain, A, B, F0, root=root, axis_first=axis_first)
    fvert = frames[..., 3, :]
    imag_leak = float(np.max(np.abs(fvert.imag)))
    return ImmersionMesh(domain, fvert.real.copy(), frames[..., :3, :].copy(),
                         "affine_sphere", lam=lam, psi=psi,
                         meta={"imag_leak": imag_leak, "root": root,
                               "init": (f0, xi0, a)})


def _frame_basis_coeffs(f_z, f_zb, xi, v):
    """Solve v = a f_z + b f_zbar + c xi per vertex; returns (a, b, c)."""
    Mmat = np.stack([f_z, f_zb, xi], axis=-1)
    try:
        coeff = np.linalg.solve(Mmat, v[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise DegenerateVertexError("tangent frame is singular") from exc
    return coeff[..., 0], coeff[..., 1], coeff[..., 2]


def _affine_tangents(mesh):
    """(planar stencils, f, f_z, f_zbar, xi) of an affine sphere mesh, with
    the geometric affine normal xi = -lam f (proper) or e3 (parabolic)."""
    pd = planar_ops(mesh.domain)
    f = mesh.vertices.astype(float)
    if mesh.lam != 0:
        xi = -mesh.lam * mesh.vertices.astype(complex)
    else:
        xi = np.broadcast_to(E3.astype(complex), f.shape[:2] + (3,))
    return pd, f, pd.dz(f), pd.dzbar(f), xi


def verify_affine(mesh, sol, Q, margin=2):
    """Residuals of the four structure identities on the reconstruction:
    det(f_z, f_zbar, xi) = i e^{2 psi},  f_{z zbar} = e^{2 psi} xi,
    f_{zz} = 2 psi_z f_z + Q e^{-2 psi} f_zbar,  xi_z = -lam f_z,
    plus the cubic differential recovered from the f_{zz} identity."""
    lam = mesh.lam
    pd, f, f_z, f_zb, xi = _affine_tangents(mesh)
    psi = sol.psi
    f_zz = pd.dzz(f)
    f_zzb = pd.dzzbar(f.astype(complex))
    psi_z = pd.dz(psi)
    e2p = np.exp(2.0 * psi)
    em2p = np.exp(-2.0 * psi)
    qv = Q(mesh.domain.z)

    det = np.linalg.det(np.stack([f_z, f_zb, xi], axis=-1))
    r_det = det - 1j * e2p
    r_zzb = np.linalg.norm(f_zzb - e2p[..., None] * xi, axis=-1)
    rhs = 2.0 * psi_z[..., None] * f_z + (qv * em2p)[..., None] * f_zb
    r_zz = np.linalg.norm(f_zz - rhs, axis=-1)
    xi_stored = mesh.frame[..., 2, :]
    r_xi = np.linalg.norm(pd.dz(xi_stored) + lam * f_z, axis=-1)
    _, b, _ = _frame_basis_coeffs(f_z, f_zb, xi, f_zz - 2.0 * psi_z[..., None] * f_z)
    q_hat = b * e2p
    r_q = q_hat - qv

    return {
        "det_identity": _entry(r_det, margin),
        "f_zzbar": _entry(r_zzb, margin),
        "f_zz": _entry(r_zz, margin),
        "xi_z": _entry(r_xi, margin),
        "cubic_recovery": _entry(r_q, margin),
        "center_normalization": _entry(
            np.linalg.norm(xi.real + lam * f, axis=-1) if lam != 0
            else np.zeros(f.shape[:2])),
    }


def recover_metric_weight(mesh):
    """e^{2 psi} recovered from the determinant identity on the mesh."""
    _, _, f_z, f_zb, xi = _affine_tangents(mesh)
    det = np.linalg.det(np.stack([f_z, f_zb, xi], axis=-1))
    return det.imag


def recover_cubic(mesh, psi=None):
    """Cubic differential recovered from the f_{zz} structure identity."""
    pd, f, f_z, f_zb, xi = _affine_tangents(mesh)
    if psi is None:
        e2p = recover_metric_weight(mesh)
        psi = 0.5 * np.log(np.maximum(e2p, 1e-300))
    else:
        e2p = np.exp(2.0 * np.asarray(psi))
    psi_z = pd.dz(psi)
    f_zz = pd.dzz(f)
    _, b, _ = _frame_basis_coeffs(f_z, f_zb, xi, f_zz - 2.0 * psi_z[..., None] * f_z)
    return b * e2p


def conormal_dual(mesh):
    """Conormal dual of a proper affine sphere mesh: N solves <N, f> = 1,
    <N, f_z> = <N, f_zbar> = 0 at each vertex."""
    if mesh.lam == 0:
        raise InvalidSignCase("the conormal dual needs a proper affine sphere")
    pd, f, f_z, f_zb, _ = _affine_tangents(mesh)
    rows = np.stack([f_z, f_zb, f.astype(complex)], axis=-2)
    rhs = np.zeros(f.shape[:2] + (3,), dtype=complex)
    rhs[..., 2] = 1.0
    try:
        Nv = np.linalg.solve(rows, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise DegenerateVertexError("position not transverse to tangent plane") from exc
    imag_leak = float(np.max(np.abs(Nv.imag)))
    dual_vertices = Nv.real.copy()
    dual_frame = np.stack([pd.dz(dual_vertices), pd.dzbar(dual_vertices),
                           (-mesh.lam * dual_vertices).astype(complex)], axis=-2)
    return ImmersionMesh(mesh.domain, dual_vertices, dual_frame,
                         "affine_sphere", lam=mesh.lam, psi=mesh.psi,
                         meta={"imag_leak": imag_leak})


def _herm(u, v):
    return np.sum(u * np.conj(v), axis=-1)


def minlag_c2_immersion(sol, Q, init=None, root=None, axis_first=0):
    """Minimal Lagrangian immersion into C^2 from a solved weight:
    f_{zz} = 2 psi_z f_z - Q e^{-2 psi} f_zbar,
    f_{zbar zbar} = conj(Q) e^{-2 psi} f_z + 2 psi_zbar f_zbar,
    f_{z zbar} = 0."""
    domain = sol.domain
    psi = sol.psi
    n, m = domain.shape
    if root is None:
        root = (n // 2, m // 2)
    psi0 = psi[root]
    if init is None:
        p = np.exp(psi0) * np.array([1.0, 0.0], dtype=complex)
        q = np.exp(psi0) * np.array([0.0, 1.0], dtype=complex)
        f0 = np.zeros(2, dtype=complex)
    else:
        p, q, f0 = (np.asarray(v, dtype=complex) for v in init)
    scale = np.exp(2.0 * psi0)
    if (abs(_herm(p, q)) > 1e-12 * scale
            or abs(_herm(p, p) - scale) > 1e-12 * scale
            or abs(_herm(q, q) - scale) > 1e-12 * scale):
        raise InitDataError("init must satisfy <p,q> = 0, <p,p> = <q,q> = e^{2 psi(z0)}")
    alpha = build_connection(psi, Q, SignCase(-1, 0), domain,
                             convention="row_frame")
    F0 = np.stack([p, q, f0])
    frames = integrate_tree(domain, alpha.A, alpha.B, F0, root=root,
                            axis_first=axis_first)
    return ImmersionMesh(domain, frames[..., 2, :].copy(), frames[..., :2, :].copy(),
                         "minlag_c2", lam=0, psi=psi,
                         meta={"root": root, "init": (p, q, f0)})


def verify_minlag_c2(mesh, sol, Q, margin=2):
    """Harmonicity, conformality, the Lagrangian condition and cubic
    recovery Q = -<f_zz, f_zbar> on a C^2 mesh."""
    pd = planar_ops(mesh.domain)
    f = mesh.vertices
    f_z = pd.dz(f)
    f_zb = pd.dzbar(f)
    f_zz = pd.dzz(f)
    f_zzb = pd.dzzbar(f)
    fx = f_z + f_zb
    fy = 1j * (f_z - f_zb)
    qv = Q(mesh.domain.z)
    return {
        "f_zzbar": _entry(np.linalg.norm(f_zzb, axis=-1), margin),
        "conformal": _entry(_herm(f_z, f_zb), margin),
        "lagrangian": _entry(_herm(f_z, f_z) - _herm(f_zb, f_zb), margin),
        "symplectic": _entry(np.imag(_herm(fx, fy)), margin),
        "cubic_recovery": _entry(-_herm(f_zz, f_zb) - qv, margin),
        "metric": _entry(_herm(f_z, f_z).real - np.exp(2.0 * sol.psi),
                         margin),
    }


def lagrangian_angle(mesh):
    """Angle of the holomorphic 2-form dz^1 ^ dz^2 on the tangent frame;
    constant for minimal Lagrangian surfaces in C^2."""
    pd = planar_ops(mesh.domain)
    f = mesh.vertices
    f_z = pd.dz(f)
    f_zb = pd.dzbar(f)
    fx = f_z + f_zb
    fy = 1j * (f_z - f_zb)
    omega2 = fx[..., 0] * fy[..., 1] - fx[..., 1] * fy[..., 0]
    if np.any(np.abs(omega2) < 1e-300):
        raise DegenerateVertexError("degenerate tangent frame")
    return np.angle(omega2)


def angle_oscillation(theta):
    """max - min of an angle field measured around its circular mean."""
    t = np.asarray(theta)
    mean = np.angle(np.mean(np.exp(1j * t)))
    d = np.angle(np.exp(1j * (t - mean)))
    return float(d.max() - d.min())


def shape_operator_norm(mesh, Q, sol):
    """Norm of the shape operator of a C^2 minimal Lagrangian mesh,
    contracted against the unit normal J f_x / |f_x|, compared with its
    predicted value 2 |Q| / sigma_ind^{3/2}, sigma_ind = 2 e^{2 psi}."""
    pd = planar_ops(mesh.domain)
    f = mesh.vertices
    fx = pd.d_axis(f, 0) / pd.h1
    H = lattice_hessian(f, h=(pd.h1, pd.h2))
    fxx, fxy = H[..., 0, 0], H[..., 0, 1]

    def g(u, v):
        return np.real(_herm(u, v))

    sig = g(fx, fx)
    if np.any(sig <= 0):
        raise DegenerateVertexError("degenerate normal frame")
    xi = 1j * fx / np.sqrt(sig)[..., None]
    a = g(xi, fxx)
    b = g(xi, fxy)
    measured = np.sqrt(a ** 2 + b ** 2) / sig
    sigma_ind = 2.0 * np.exp(2.0 * sol.psi)
    target = 2.0 * np.abs(Q(mesh.domain.z)) / sigma_ind ** 1.5
    return measured, target


def minlag_cpn_immersion(sol, Q, case, root=None, axis_first=0):
    """Unitary column frame and tautological point phi = F e3 for minimal
    Lagrangian surfaces in CP^2 (lam = +1) or CH^2 (lam = -1)."""
    domain = sol.domain
    alpha = minlag_frame_connection(sol.psi, Q, case, domain)
    n, m = domain.shape
    if root is None:
        root = (n // 2, m // 2)
    F0 = np.eye(3, dtype=complex)
    frames = integrate_tree(domain, alpha.A, alpha.B, F0, root=root, row=False,
                            axis_first=axis_first)
    tag = "minlag_cp2" if case.lam == 1 else "minlag_ch2"
    phi = frames[..., :, 2]
    return ImmersionMesh(domain, phi.copy(), frames, tag, lam=case.lam,
                         psi=sol.psi, meta={"root": root})


def _herm_pm(u, v, sign):
    s = u * np.conj(v)
    return s[..., 0] + s[..., 1] + sign * s[..., 2]


def cpn_point(F, sign):
    """phi = F e3 and its pseudo-norm residual | <phi,phi>_pm - sign |."""
    F = np.asarray(F, dtype=complex)
    phi = F[..., :, 2]
    nrm = _herm_pm(phi, phi, sign)
    return phi, {"unit_norm": float(np.max(np.abs(nrm - sign)))}


def verify_cpn(mesh, sol, margin=2):
    """Pseudo-norm, horizontality and induced-metric residuals of the
    tautological point field of a CP^2/CH^2 mesh."""
    sign = 1.0 if mesh.target_tag == "minlag_cp2" else -1.0
    pd = planar_ops(mesh.domain)
    phi = mesh.vertices
    phi_z = pd.dz(phi)
    e2p = np.exp(2.0 * sol.psi)
    return {
        "unit_norm": _entry(_herm_pm(phi, phi, sign) - sign, margin),
        "horizontality": _entry(_herm_pm(phi, phi_z, sign), margin),
        "metric": _entry(_herm_pm(phi_z, phi_z, sign).real - e2p, margin),
    }


def sphere_frame(mesh, sol):
    """Normalized affine frame with columns
    (f_z / (sqrt(2) e^psi), f_zbar / (sqrt(2) e^psi), xi); it is a constant
    gauge C away from a real frame and has determinant i/2."""
    _, _, f_z, f_zb, xi = _affine_tangents(mesh)
    s = np.sqrt(2.0) * np.exp(sol.psi)[..., None]
    return np.stack([f_z / s, f_zb / s, xi], axis=-1)
