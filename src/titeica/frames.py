"""Flat connection 1-forms alpha = A dz + B dzbar, their zero-curvature and
reality-condition checks, and frame transport along grid paths.

Two frame conventions are kept explicit:

  row_frame     dF = alpha F, the frame vectors are the rows of F
                (coordinate structure systems on (f_z, f_zbar, xi)).
  column_frame  F^{-1} dF = alpha, the frame vectors are the columns
                (unitary frames of minimal Lagrangian surfaces and the
                spectral loop of connections indexed by zeta).

Zero curvature reads  dzbar(A) - dz(B) + [A, B] = 0  in the row
convention and  dzbar(A) - dz(B) - [A, B] = 0  in the column convention.
"""

from dataclasses import dataclass

import numpy as np

from ._kernels import transport_polyline
from .errors import InvalidSignCase, PathError
from .geometry import Domain, SignCase

# constant gauge relating the unitary-style affine frame to a real frame:
# columns (f_z, f_zbar, xi)/normalization = (real frame) @ C_SPHERE
C_SPHERE = np.array([[0.5, 0.5, 0.0],
                     [-0.5j, 0.5j, 0.0],
                     [0.0, 0.0, 1.0]], dtype=complex)
_ETA = np.array([1.0, 1.0, -1.0])
ETA_21 = np.diag(_ETA)


@dataclass
class ConnectionForm:
    """alpha = A dz + B dzbar with 3x3 (or 4x4) matrix fields A, B."""

    A: np.ndarray
    B: np.ndarray
    convention: str  # "row_frame" | "column_frame"
    domain: Domain
    case: SignCase | None = None
    psi: np.ndarray | None = None
    Q: object = None  # CubicDifferential used to build the form, if any
    variant: str = "custom"

    def at_zeta(self, zeta):
        """Rebuild the same connection at another spectral parameter."""
        if self.variant != "spectral" or self.psi is None:
            raise InvalidSignCase("only spectral-loop forms carry a zeta family")
        return build_connection(self.psi, self.Q, self.case, self.domain,
                                zeta=zeta, convention="column_frame")


def _zero_fields(domain):
    n, m = domain.shape
    A = np.zeros((n, m, 3, 3), dtype=complex)
    B = np.zeros((n, m, 3, 3), dtype=complex)
    return A, B


def build_connection(psi, Q, case, domain, zeta=1.0, convention="column_frame"):
    """Connection form for the given sign case.

    column_frame: the loop of flat sl(3, C) connections indexed by zeta
    (the four Toda cases lam = +/-1; zeta enters linearly in the dz part
    and as 1/zeta in the dzbar part, with eps multiplying the conj(Q)
    entry).  row_frame: the coordinate structure system on the rows
    (f_z, f_zbar, xi) for affine spheres, or (f_z, f_zbar, f) for
    minimal Lagrangian surfaces in C^2; zeta must be 1 there.
    """
    zeta = complex(zeta)
    if case.lam == 0 and zeta != 1.0:
        raise InvalidSignCase("the spectral family exists only for lam = +/-1")
    psi = np.asarray(psi, dtype=float)
    qv = Q(domain.z)
    pz = domain.dz(psi)
    pzb = domain.dzbar(psi)
    ep = np.exp(psi)
    em2p = np.exp(-2.0 * psi)
    lam, eps = case.lam, case.epsilon

    if convention == "column_frame":
        if case.lam == 0:
            raise InvalidSignCase("no column-frame form for lam = 0")
        A, B = _zero_fields(domain)
        A[..., 0, 0] = pz
        A[..., 1, 1] = -pz
        A[..., 0, 2] = -zeta * lam * ep
        A[..., 1, 0] = zeta * qv * em2p
        A[..., 2, 1] = -zeta * lam * ep
        B[..., 0, 0] = -pzb
        B[..., 1, 1] = pzb
        B[..., 0, 1] = (eps / zeta) * np.conj(qv) * em2p
        B[..., 1, 2] = ep / zeta
        B[..., 2, 0] = ep / zeta
        return ConnectionForm(A, B, "column_frame", domain, case, psi, Q,
                              variant="spectral")

    if convention != "row_frame":
        raise ValueError(f"unknown convention {convention!r}")
    A, B = _zero_fields(domain)
    if case.is_affine:
        e2p = np.exp(2.0 * psi)
        A[..., 0, 0] = 2.0 * pz
        A[..., 0, 1] = qv * em2p
        A[..., 1, 2] = e2p
        A[..., 2, 0] = -lam
        B[..., 0, 2] = e2p
        B[..., 1, 0] = np.conj(qv) * em2p
        B[..., 1, 1] = 2.0 * pzb
        B[..., 2, 1] = -lam
    elif case.lam == 0:  # minimal Lagrangian in C^2, rows (f_z, f_zbar, f)
        A[..., 0, 0] = 2.0 * pz
        A[..., 0, 1] = -qv * em2p
        A[..., 2, 0] = 1.0
        B[..., 1, 0] = np.conj(qv) * em2p
        B[..., 1, 1] = 2.0 * pzb
        B[..., 2, 1] = 1.0
    else:
        raise InvalidSignCase(
            "row-frame structure systems exist for affine spheres and C^2 only")
    return ConnectionForm(A, B, "row_frame", domain, case, psi, Q,
                          variant="structure")


def minlag_frame_connection(psi, Q, case, domain):
    """Maurer-Cartan form of the unitary column frame of a minimal
    Lagrangian surface in CP^2 (lam = +1) or CH^2 (lam = -1): the spectral
    loop at zeta = -lam in the constant gauge diag(1, -lam, 1)."""
    if case.epsilon != -1 or case.lam == 0:
        raise InvalidSignCase("unitary frames exist for the CP^2/CH^2 cases")
    loop = build_connection(psi, Q, case, domain, zeta=-case.lam)
    d = np.array([1.0, -case.lam, 1.0])
    gauge = np.outer(d, d)  # D^{-1} X D with D = diag(d), d = +/-1
    return ConnectionForm(loop.A * gauge, loop.B * gauge, "column_frame",
                          domain, case, loop.psi, Q, variant="unitary")


def curvature_residual(alpha):
    """Nodewise Frobenius norm of the curvature of alpha."""
    dA = alpha.domain.dzbar(alpha.A)
    dB = alpha.domain.dz(alpha.B)
    comm = alpha.A @ alpha.B - alpha.B @ alpha.A
    sign = 1.0 if alpha.convention == "row_frame" else -1.0
    curv = dA - dB + sign * comm
    return np.linalg.norm(curv, axis=(-2, -1))


def _dagger(X):
    return np.conj(np.swapaxes(X, -1, -2))


def _star(X):
    # eta X^dagger eta with eta = diag(1, 1, -1): a sign mask, no products
    return _dagger(X) * np.outer(_ETA, _ETA)


# (iota, rho) pairs: alpha takes values in {X : X(iota(zeta)) = rho(X(zeta))}
_REALITY = {
    (1, -1): (lambda z: -1.0 / np.conj(z), _dagger),   # hyperbolic affine
    (1, 1): (lambda z: -1.0 / np.conj(z), _star),      # elliptic affine
    (-1, -1): (lambda z: 1.0 / np.conj(z), _star),     # minimal Lagrangian CH^2
    (-1, 1): (lambda z: 1.0 / np.conj(z), _dagger),    # minimal Lagrangian CP^2
}


def reality_check(alpha, zeta_samples, involution_case=None):
    """Max deviation of the loop connection from its case's real form:
    sup over samples and real tangent directions of
    || X(iota(zeta)) + rho(X(zeta)) ||_F  with rho(X) = X^dagger or X^star.

    Pass involution_case to test alpha against another case's involution
    (a mismatch oracle)."""
    case = alpha.case
    if case is None or case.lam == 0:
        raise InvalidSignCase("reality conditions apply to the four Toda cases")
    if alpha.variant != "spectral":
        raise InvalidSignCase("reality check expects a spectral-loop form")
    inv_case = involution_case or case
    if inv_case.lam == 0:
        raise InvalidSignCase("no involution for lam = 0")
    iota, rho = _REALITY[(inv_case.epsilon, inv_case.lam)]
    worst = 0.0
    for z in np.atleast_1d(zeta_samples):
        a1 = alpha.at_zeta(z)
        a2 = alpha.at_zeta(iota(complex(z)))
        for (X1, X2) in (((a1.A + a1.B), (a2.A + a2.B)),
                         (1j * (a1.A - a1.B), 1j * (a2.A - a2.B))):
            dev = np.linalg.norm(X2 + rho(X1), axis=(-2, -1))
            worst = max(worst, float(dev.max()))
    return worst


@dataclass
class PathSpec:
    """Polyline through the domain; consecutive points must lie within one
    grid cell of each other."""

    points: np.ndarray
    closed: bool = False

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=complex)
        if self.points.ndim != 1 or self.points.size < 2:
            raise PathError("a path needs at least two points")


def line_path(domain, z0, z1, closed=False):
    """Straight path from z0 to z1 sampled at grid-cell resolution."""
    z0, z1 = complex(z0), complex(z1)
    n = max(2, int(np.ceil(abs(z1 - z0) / domain.hmin)) + 1)
    return PathSpec(np.linspace(z0, z1, n), closed=closed)


def polyline_path(domain, zs, closed=False):
    pts = [complex(zs[0])]
    for z0, z1 in zip(zs, zs[1:]):
        pts.extend(line_path(domain, z0, z1).points[1:])
    return PathSpec(np.asarray(pts), closed=closed)


def torus_generator(domain, which, base=0.0):
    """Loop around lattice direction `which` (0 -> period 1, 1 -> period tau)."""
    if not domain.periodic:
        raise PathError("generator loops require a torus domain")
    n, m = domain.shape
    if which == 0:
        period, count = domain.step1 * n, n
    else:
        period, count = domain.step2 * m, m
    t = np.linspace(0.0, 1.0, count + 1)
    return PathSpec(complex(base) + t * period, closed=True)


def cell_loop(domain, j=0, k=0):
    """Contractible loop around a single grid cell."""
    z = domain.origin + j * domain.step1 + k * domain.step2
    pts = [z, z + domain.step1, z + domain.step1 + domain.step2,
           z + domain.step2, z]
    return PathSpec(np.asarray(pts), closed=True)


def _lattice_points(domain, path):
    j, k = domain.to_lattice(path.points)
    n, m = domain.shape
    if not domain.periodic:
        tol = 1e-9
        if (j.min() < -tol or j.max() > n - 1 + tol
                or k.min() < -tol or k.max() > m - 1 + tol):
            raise PathError("path exits the domain")
    dj = np.abs(np.diff(j))
    dk = np.abs(np.diff(k))
    if dj.size and (dj.max() > 1 + 1e-9 or dk.max() > 1 + 1e-9):
        raise PathError("consecutive path points must lie within one grid cell")
    return np.stack([j, k], axis=-1)


def integrate_frame(alpha, path, F0):
    """RK4 transport of F0 along the path in alpha's convention; returns
    the (npts, r, c) frames at the path points.  The step is at most
    min(h1, h2)/2; A and B are interpolated bilinearly."""
    F = np.asarray(F0, dtype=complex)
    if not np.all(np.isfinite(F)):
        raise ValueError("initial frame must be finite")
    pts = _lattice_points(alpha.domain, path)
    return transport_polyline(alpha.A, alpha.B, alpha.domain.step1,
                              alpha.domain.step2, pts, F,
                              row=(alpha.convention == "row_frame"),
                              periodic=alpha.domain.periodic,
                              max_step=alpha.domain.hmin / 2.0)


def _is_closed(domain, path):
    if not path.closed:
        return False
    j, k = domain.to_lattice(np.asarray([path.points[0], path.points[-1]]))
    dj, dk = j[1] - j[0], k[1] - k[0]
    if domain.periodic:
        n, m = domain.shape
        return (abs(dj - round(dj / n) * n) < 1e-6
                and abs(dk - round(dk / m) * m) < 1e-6)
    return abs(dj) < 1e-6 and abs(dk) < 1e-6


def holonomy(alpha, loop):
    """Inverse-of-parallel-transport matrix around a closed loop: the
    solution of dJ = <alpha, beta'> J, J(0) = I, at the end of the loop."""
    if not _is_closed(alpha.domain, loop):
        raise PathError("holonomy requires a closed loop")
    return integrate_frame(alpha, loop, np.eye(alpha.A.shape[-1]))[-1]


def group_residuals(F, group_tag, det_ref=1.0):
    """Residuals of membership in the frame's symmetry group.

    su3: ||F^dagger F - I||;  su21: ||F^dagger eta F - eta|| with
    eta = diag(1, 1, -1);  sl3r_conjugate: ||Im(F C^{-1})|| for the
    constant gauge C relating the frame to a real one.  Always reports
    the determinant drift |det F - det_ref| (det_ref defaults to 1)."""
    F = np.asarray(F, dtype=complex)
    out = {}
    det = np.linalg.det(F)
    out["det_drift"] = float(np.max(np.abs(det - det_ref)))
    if group_tag == "su3":
        dev = _dagger(F) @ F - np.eye(3)
        out["unitarity"] = float(np.max(np.linalg.norm(dev, axis=(-2, -1))))
    elif group_tag == "su21":
        dev = (_dagger(F) * _ETA) @ F - ETA_21
        out["unitarity"] = float(np.max(np.linalg.norm(dev, axis=(-2, -1))))
    elif group_tag == "sl3r_conjugate":
        dev = np.imag(F @ np.linalg.inv(C_SPHERE))
        out["reality"] = float(np.max(np.linalg.norm(dev, axis=(-2, -1))))
    else:
        raise ValueError(f"unknown group tag {group_tag!r}")
    return out
