"""Surface reconstruction from solved metric data and pointwise
verification of the structure equations on the reconstruction.

Each surface integrates its connection form (`frames`) over a spanning
tree of the grid (a comb rooted at the central node): affine spheres on
the real rows (f_x, f_y, xi, f), f_x = f_z + f_zbar and f_y = i (f_z -
f_zbar), minimal Lagrangian surfaces in C^2 on (f_z, f_zbar, f), and
CP^2/CH^2 surfaces the transposed unitary column frame, whose third row
is the point phi = F e3; only these meshes keep their frame, which
`verify_cpn` gates.  The comb, its spine and its teeth, is lattice lines
and goes through the one tree kernel, `transport_lines`, which makes
each block of lines' coefficient from the form's scalar fields; each
mesh records in `meta` the edges that the kernel reports it ran.

Mesh derivatives are always taken with non-periodic stencils: even over
a torus domain the reconstructed immersion is not doubly periodic, only
equivariant under the holonomy.
"""

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from ._kernels import transport_lines
from .errors import DegenerateVertexError, InitDataError, InvalidSignCase
from .frames import (affine_connection, build_connection, group_residuals,
                     minlag_frame_connection)
from .geometry import Domain, SignCase, lattice_diff, lattice_diff2

E3 = np.array([0.0, 0.0, 1.0])


def planar_ops(domain):
    """Clone of the domain with periodicity switched off, for stencils on
    reconstructed (non-periodic) vertex data."""
    if not domain.periodic:
        return domain
    return dataclasses.replace(domain, periodic=False)


@dataclass
class ImmersionMesh:
    """A reconstructed surface: its vertices, with psi and `meta` for the
    checks.  Only a CP^2/CH^2 mesh has a `frame`, the (n, m, 3, 3) unitary
    column frames whose third column is the vertex; the other meshes'
    frames follow from their vertices, and no check reads them."""

    domain: Domain
    vertices: np.ndarray          # (n, m, d) real or complex
    target_tag: str               # affine_sphere | minlag_c2 | minlag_cp2 | minlag_ch2
    lam: int = 0
    psi: np.ndarray | None = None
    frame: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

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


def _core(v, margin):
    """The core interior of a grid field: the margin excludes the rings
    next to the mesh edge, where one-sided stencils and (on planar
    Dirichlet problems) corner-limited regularity of the continuum
    solution spoil pointwise second-order convergence."""
    v = np.asarray(v)
    if margin and v.ndim >= 2:
        v = v[margin:-margin, margin:-margin]
    return v


def _entry(field_vals, margin=2):
    """Max of |field_vals| over the core interior: one gated residual."""
    return float(np.abs(_core(field_vals, margin)).max())


def _tree_root(domain, root=None):
    """`root`, or by default the central node (n // 2, m // 2) of the grid:
    the root of the spanning comb of integrate_tree."""
    if root is None:
        root = (domain.shape[0] // 2, domain.shape[1] // 2)
    return root


def integrate_tree(domain, step, fields, F0, root=None, axis_first=0):
    """Integrate dF = C F over the spanning comb rooted at `root`
    (`_tree_root`): the spine, the lattice line along axis_first through
    the root, then the teeth, every lattice line along the other axis, each
    run by `transport_lines` outward from its node on the spine, C =
    step(zdot, *block) of the (n, m, ...) `fields`.  Returns the frames at
    every node, (n, m) + F0.shape of F0's dtype, and {"tree_edges"}, the
    comb's lattice edges as the kernel counts them."""
    root = _tree_root(domain, root)
    frames = np.empty(domain.shape + F0.shape, dtype=F0.dtype)
    frames[root] = F0
    steps = (domain.step1, domain.step2)
    edges = 0
    b = 1 - axis_first
    for axis, lines in ((axis_first, slice(root[b], root[b] + 1)),
                        (b, slice(None))):
        # the lines along `axis` are the rows of the grid once `axis` is
        # made its second axis; the kernel fills frames through the view
        F_, *fs = (np.swapaxes(X, 0, 1 - axis)[lines]
                   for X in (frames, *fields))
        edges += transport_lines(step, fs, complex(steps[axis]), F_,
                                 root[axis])
    return frames, {"tree_edges": edges}


def affine_sphere_immersion(sol, Q, lam, init=None, root=None, axis_first=0):
    """Reconstruct an affine sphere from a solved metric.  init, when given,
    is (f0, xi0, a) with det(a, conj(a), xi0) = i e^{2 psi(z0)} and xi0, f0
    real; the default init satisfies this identically.  The tree runs on
    the real rows (f_x, f_y, xi, f), from (2 Re a, -2 Im a, xi0, f0) at
    the root, and the vertices are its row f."""
    domain, psi = sol.domain, sol.psi
    root = _tree_root(domain, root)
    psi0 = psi[root]
    if init is None:
        xi0 = E3.astype(complex)
        f0 = (-lam * xi0) if lam != 0 else np.zeros(3, dtype=complex)
        a = np.exp(psi0) / np.sqrt(2.0) * np.array([1.0, -1.0j, 0.0])
    else:
        f0, xi0, a = (np.asarray(v, dtype=complex) for v in init)
    det0 = np.linalg.det(np.stack([a, np.conj(a), xi0], axis=-1))
    target = 1j * np.exp(2.0 * psi0)
    if abs(det0 - target) > 1e-12 * abs(target):
        raise InitDataError(
            f"det(a, conj a, xi0) = {det0}, expected {target}")
    if np.any(xi0.imag) or np.any(f0.imag):
        raise InitDataError("xi0 and f0 must be real: the sphere lies in R^3")
    F0 = np.stack([2.0 * a.real, -2.0 * a.imag, xi0.real, f0.real])
    step, fields = affine_connection(psi, Q, lam, domain).row_system(True)
    frames, counts = integrate_tree(domain, step, fields, F0, root=root,
                                    axis_first=axis_first)
    return ImmersionMesh(domain, frames[..., 3, :].copy(), "affine_sphere",
                         lam=lam, psi=psi,
                         meta={"root": root, "init": (f0, xi0, a),
                               **counts})


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


def _dot(u, v):
    return np.sum(u * v, axis=-1)


def verify_affine(mesh, sol, Q, margin=2):
    """Residuals of the structure identities on the reconstruction:
    det(f_z, f_zbar, xi) = i e^{2 psi},  f_{z zbar} = e^{2 psi} xi,
    f_{zz} = 2 psi_z f_z + Q e^{-2 psi} f_zbar,
    plus the cubic differential recovered from the f_{zz} identity and,
    for lam != 0, the drift |det / (2 e^{2 psi}) - i/2| of the Blaschke
    volume, all with the affine normal xi = -lam f (e3 when lam = 0).
    xi_z = -lam f_z and xi = -lam f need no gate: dxi = -lam df row by
    row, so the transported xi + lam f keeps its value at the root, 0 for
    the default init (tests/test_immersion.py holds the tree to it).

    One cross product w = xi x f_z gives the determinant det = f_zbar . w
    and, by Cramer's rule, the f_zbar coefficient (f_zz - 2 psi_z f_z) . w
    / det = Q e^{-2 psi} of f_zz - 2 psi_z f_z in the frame
    (f_z, f_zbar, xi)."""
    lam = mesh.lam
    pd, f, f_z, f_zb, xi = _affine_tangents(mesh)
    psi = sol.psi
    f_zz = pd.dzz(f)
    f_zzb = pd.dzzbar(f)
    psi_z = pd.dz(psi)
    e2p = np.exp(2.0 * psi)
    em2p = np.exp(-2.0 * psi)
    qv = Q(mesh.domain.z)

    w = np.cross(xi, f_z)
    det = _dot(f_zb, w)
    if np.any(det == 0):
        raise DegenerateVertexError("tangent frame is singular")
    r_zzb = np.linalg.norm(f_zzb - e2p[..., None] * xi, axis=-1)
    rhs = 2.0 * psi_z[..., None] * f_z + (qv * em2p)[..., None] * f_zb
    r_zz = np.linalg.norm(f_zz - rhs, axis=-1)
    b = _dot(f_zz - 2.0 * psi_z[..., None] * f_z, w) / det

    out = {
        "det_identity": _entry(det - 1j * e2p, margin),
        "f_zzbar": _entry(r_zzb, margin),
        "f_zz": _entry(r_zz, margin),
        "cubic_recovery": _entry(b * e2p - qv, margin),
    }
    if lam != 0:
        out["det_drift"] = _entry(det / (2.0 * e2p) - 0.5j, margin)
    return out


def conormal_dual(mesh):
    """Conormal dual of a proper affine sphere mesh: N solves <N, f> = 1,
    <N, f_z> = <N, f_zbar> = 0 at each vertex."""
    if mesh.lam == 0:
        raise InvalidSignCase("the conormal dual needs a proper affine sphere")
    _, f, f_z, f_zb, _ = _affine_tangents(mesh)
    rows = np.stack([f_z, f_zb, f.astype(complex)], axis=-2)
    rhs = np.zeros(f.shape[:2] + (3,), dtype=complex)
    rhs[..., 2] = 1.0
    try:
        Nv = np.linalg.solve(rows, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise DegenerateVertexError("position not transverse to tangent plane") from exc
    imag_leak = float(np.max(np.abs(Nv.imag)))
    return ImmersionMesh(mesh.domain, Nv.real.copy(), "affine_sphere",
                         lam=mesh.lam, psi=mesh.psi,
                         meta={"imag_leak": imag_leak})


def _herm(u, v):
    return np.sum(u * np.conj(v), axis=-1)


def minlag_c2_immersion(sol, Q, init=None, root=None, axis_first=0):
    """Minimal Lagrangian immersion into C^2 from a solved weight:
    f_{zz} = 2 psi_z f_z - Q e^{-2 psi} f_zbar,
    f_{zbar zbar} = conj(Q) e^{-2 psi} f_z + 2 psi_zbar f_zbar,
    f_{z zbar} = 0."""
    domain, psi = sol.domain, sol.psi
    root = _tree_root(domain, root)
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
    step, fields = build_connection(psi, Q, SignCase(-1, 0), domain,
                                    convention="row_frame").row_system(False)
    frames, counts = integrate_tree(domain, step, fields,
                                    np.stack([p, q, f0]), root=root,
                                    axis_first=axis_first)
    return ImmersionMesh(domain, frames[..., 2, :].copy(), "minlag_c2",
                         lam=0, psi=psi,
                         meta={"root": root, "init": (p, q, f0),
                               **counts})


def verify_minlag_c2(mesh, sol, Q, margin=2):
    """Oscillation of the Lagrangian angle (the angle of the holomorphic
    2-form dz^1 ^ dz^2 on the tangent frame, constant on a minimal
    Lagrangian surface), harmonicity, conformality, the Lagrangian
    condition, cubic recovery Q = -<f_zz, f_zbar> and the induced metric
    on a C^2 mesh."""
    pd = planar_ops(mesh.domain)
    f = mesh.vertices
    f_z = pd.dz(f)
    f_zb = pd.dzbar(f)
    f_zz = pd.dzz(f)
    f_zzb = pd.dzzbar(f)
    fx = f_z + f_zb
    fy = 1j * (f_z - f_zb)
    omega2 = fx[..., 0] * fy[..., 1] - fx[..., 1] * fy[..., 0]
    if np.any(np.abs(omega2) < 1e-300):
        raise DegenerateVertexError("degenerate tangent frame")
    qv = Q(mesh.domain.z)
    return {
        "angle_oscillation": angle_oscillation(
            _core(np.angle(omega2), margin)),
        "f_zzbar": _entry(np.linalg.norm(f_zzb, axis=-1), margin),
        "conformal": _entry(_herm(f_z, f_zb), margin),
        "lagrangian": _entry(_herm(f_z, f_z) - _herm(f_zb, f_zb), margin),
        "symplectic": _entry(np.imag(_herm(fx, fy)), margin),
        "cubic_recovery": _entry(-_herm(f_zz, f_zb) - qv, margin),
        "metric": _entry(_herm(f_z, f_z).real - np.exp(2.0 * sol.psi),
                         margin),
    }


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
    h1, h2 = mesh.domain.h1, mesh.domain.h2
    f = mesh.vertices
    fj = lattice_diff(f, 0)
    fx = fj / h1
    fxx = lattice_diff2(f, 0) / h1 ** 2
    fxy = lattice_diff(fj, 1) / (h1 * h2)

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
    domain, psi = sol.domain, sol.psi
    root = _tree_root(domain, root)
    # dF = F C runs as the row system of C^T on F^T: the tree holds the
    # transposed frames, and the point is their third row
    step, fields = minlag_frame_connection(psi, Q, case,
                                           domain).row_system(False)
    FT, counts = integrate_tree(domain, step, fields,
                                np.eye(3, dtype=complex), root=root,
                                axis_first=axis_first)
    tag = "minlag_cp2" if case.lam == 1 else "minlag_ch2"
    return ImmersionMesh(domain, FT[..., 2, :], tag, lam=case.lam, psi=psi,
                         frame=np.swapaxes(FT, -1, -2),
                         meta={"root": root, **counts})


def _herm_pm(u, v, sign):
    s = u * np.conj(v)
    return s[..., 0] + s[..., 1] + sign * s[..., 2]


def verify_cpn(mesh, sol, margin=2):
    """Unitarity of the column frame (SU(3) on CP^2, SU(2,1) on CH^2) and
    the horizontality and induced-metric residuals of the tautological
    point field of a CP^2/CH^2 mesh.  The point phi is the frame's third
    column, so its pseudo-norm <phi, phi> - eta_33 is an entry of
    F^dagger eta F - eta, whose norm `unitarity` gates."""
    sign = 1.0 if mesh.target_tag == "minlag_cp2" else -1.0
    pd = planar_ops(mesh.domain)
    phi = mesh.vertices
    phi_z = pd.dz(phi)
    e2p = np.exp(2.0 * sol.psi)
    group = group_residuals(_core(mesh.frame, margin),
                            "su3" if sign > 0 else "su21")
    return {
        "unitarity": group["unitarity"],
        "horizontality": _entry(_herm_pm(phi, phi_z, sign), margin),
        "metric": _entry(_herm_pm(phi_z, phi_z, sign).real - e2p, margin),
    }
