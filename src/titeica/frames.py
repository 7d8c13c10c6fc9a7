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

The spectral loop A = A0 + zeta A1, B = B0 + B1 / zeta is real for every
zeta iff two identities between its coefficients hold; `reality_check`
tests them on the loop as built and samples no zeta.
"""

from dataclasses import dataclass

import numpy as np

from ._kernels import transport_polyline
from .errors import InvalidSignCase, PathError
from .geometry import Domain, SignCase

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
    # the zeta a spectral-loop form was built at; None on every other form
    zeta: complex | None = None


def affine_fields(psi, Q, domain):
    """The scalar fields of the affine sphere's row system: 2 psi_z,
    Q e^{-2 psi} and e^{2 psi}; their conjugates and the constant -lam
    fill the rest of it."""
    psi = np.asarray(psi, dtype=float)
    return (2.0 * domain.dz(psi), Q(domain.z) * np.exp(-2.0 * psi),
            np.exp(2.0 * psi))


def _zero_fields(domain):
    n, m = domain.shape
    A = np.zeros((n, m, 3, 3), dtype=complex)
    B = np.zeros((n, m, 3, 3), dtype=complex)
    return A, B


# entries (1,3), (2,1), (3,2) of A and (1,2), (2,3), (3,1) of B carry the
# loop's zeta: A = A0 + zeta A1 and B = B0 + B1 / zeta, A1 and B1 there
_ZETA_A = (..., [0, 1, 2], [2, 0, 1])
_ZETA_B = (..., [0, 1, 2], [1, 2, 0])


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
    lam = case.lam
    if convention == "row_frame" and case.is_affine:
        # dzbar of a real field is the conjugate of its dz, to the bit
        p, r, e2p = affine_fields(psi, Q, domain)
        A, B = _zero_fields(domain)
        A[..., 0, 0], A[..., 0, 1], A[..., 1, 2] = p, r, e2p
        B[..., 0, 2], B[..., 1, 0], B[..., 1, 1] = e2p, np.conj(r), np.conj(p)
        A[..., 2, 0] = B[..., 2, 1] = -lam
        return ConnectionForm(A, B, "row_frame", domain, case)
    psi = np.asarray(psi, dtype=float)
    qv = Q(domain.z)
    pz = domain.dz(psi)
    pzb = domain.dzbar(psi)
    ep = np.exp(psi)
    em2p = np.exp(-2.0 * psi)

    if convention == "column_frame":
        if case.lam == 0:
            raise InvalidSignCase("no column-frame form for lam = 0")
        A, B = _zero_fields(domain)
        A[..., 0, 0] = pz
        A[..., 1, 1] = -pz
        B[..., 0, 0] = -pzb
        B[..., 1, 1] = pzb
        A[_ZETA_A] = np.stack([-zeta * lam * ep, zeta * qv * em2p,
                               -zeta * lam * ep], axis=-1)
        B[_ZETA_B] = np.stack([(case.epsilon / zeta) * np.conj(qv) * em2p,
                               ep / zeta, ep / zeta], axis=-1)
        return ConnectionForm(A, B, "column_frame", domain, case, zeta=zeta)

    if convention != "row_frame":
        raise ValueError(f"unknown convention {convention!r}")
    if case.lam != 0:
        raise InvalidSignCase(
            "row-frame structure systems exist for affine spheres and C^2 only")
    # minimal Lagrangian in C^2, rows (f_z, f_zbar, f)
    A, B = _zero_fields(domain)
    A[..., 0, 0] = 2.0 * pz
    A[..., 0, 1] = -qv * em2p
    A[..., 2, 0] = 1.0
    B[..., 1, 0] = np.conj(qv) * em2p
    B[..., 1, 1] = 2.0 * pzb
    B[..., 2, 1] = 1.0
    return ConnectionForm(A, B, "row_frame", domain, case)


def minlag_frame_connection(psi, Q, case, domain):
    """Maurer-Cartan form of the unitary column frame of a minimal
    Lagrangian surface in CP^2 (lam = +1) or CH^2 (lam = -1): the spectral
    loop at zeta = -lam in the constant gauge diag(1, -lam, 1)."""
    if case.epsilon != -1 or case.lam == 0:
        raise InvalidSignCase("unitary frames exist for the CP^2/CH^2 cases")
    loop = build_connection(psi, Q, case, domain, zeta=-case.lam)
    d = np.array([1.0, -case.lam, 1.0])
    # D^{-1} X D with D = diag(d), d = +/-1: negate X_ij where d_i d_j = -1
    i, j = np.nonzero(np.outer(d, d) < 0)
    for X in (loop.A, loop.B):
        X[..., i, j] *= -1.0
    return ConnectionForm(loop.A, loop.B, "column_frame", domain, case)


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


# (s, rho) per case: alpha takes values in {X : X(iota(zeta)) = -rho(X(zeta))}
# with iota(zeta) = s / conj(zeta)
_REALITY = {
    (1, -1): (-1.0, _dagger),   # hyperbolic affine
    (1, 1): (-1.0, _star),      # elliptic affine
    (-1, -1): (1.0, _star),     # minimal Lagrangian CH^2
    (-1, 1): (1.0, _dagger),    # minimal Lagrangian CP^2
}


def reality_check(alpha):
    """Deviation of the loop from its case's real form, for every zeta at once.

    With A = A0 + zeta A1, B = B0 + B1 / zeta and iota(zeta) = s/conj(zeta),
    X(iota(zeta)) + rho(X(zeta)) = 0 holds for X = A + B, i(A - B) and every
    zeta iff R0 = B0 + rho(A0) and R1 = B1 + s rho(A1) vanish; at one zeta
    its Frobenius norm is at most 2||R0|| + (|zeta| + 1/|zeta|) ||R1||.
    Returns the sup over nodes of 2||R0|| + 4||R1||, a bound of it for every
    1/2 <= |zeta| <= 2."""
    if alpha.zeta is None:
        raise InvalidSignCase("reality conditions apply to the spectral loop "
                              "of the four Toda cases")
    if alpha.case.lam == 0:
        raise InvalidSignCase("no involution for lam = 0")
    s, rho = _REALITY[(alpha.case.epsilon, alpha.case.lam)]
    A, B = alpha.A.copy(), alpha.B.copy()
    A[_ZETA_A] *= s / alpha.zeta    # A0 + s A1
    B[_ZETA_B] *= alpha.zeta        # B0 + B1
    # rho moves the entries of A1 onto those of B1: R1 there, R0 elsewhere
    R = B + rho(A)
    r1 = np.linalg.norm(R[_ZETA_B], axis=-1)
    R[_ZETA_B] = 0.0
    r0 = np.linalg.norm(R, axis=(-2, -1))
    return float(np.max(2.0 * r0 + 4.0 * r1))


def polyline_path(domain, zs):
    """The lattice path through the grid nodes nearest the points zs, an
    (npts, 2) array of node indices: each leg runs along the first lattice
    axis, then along the second."""
    j, k = (np.rint(c).astype(np.intp)
            for c in domain.to_lattice(np.asarray(zs, dtype=complex)))
    # corners (j0, k0), (j1, k0), (j1, k1), (j2, k1), ... joined by unit steps
    corners = np.stack([np.repeat(j, 2)[1:], np.repeat(k, 2)[:-1]], axis=-1)
    d = np.diff(corners, axis=0)
    steps = np.repeat(np.sign(d), np.abs(d).sum(axis=1), axis=0)
    return corners[0] + np.cumsum(np.r_[[[0, 0]], steps], axis=0)


def torus_generator(domain, which):
    """Loop along lattice direction `which` (0 -> period 1, 1 -> period
    tau) from the origin node to its translate by the period, node n of
    the axis unwrapped."""
    if not domain.periodic:
        raise PathError("generator loops require a torus domain")
    if which not in (0, 1):
        raise PathError(f"a torus has generators 0 and 1, not {which!r}")
    nodes = np.zeros((domain.shape[which] + 1, 2), dtype=np.intp)
    nodes[:, which] = np.arange(domain.shape[which] + 1)
    return nodes


def cell_loop(domain, j=0, k=0):
    """Contractible loop around the grid cell with corner node (j, k)."""
    return np.array([[j, k], [j + 1, k], [j + 1, k + 1], [j, k + 1], [j, k]])


def integrate_frame(alpha, path, F0):
    """Transport of F0 along the lattice path (an (npts, 2) array of grid
    nodes, unwrapped on a torus, each step one lattice edge or none) in
    alpha's convention; returns the (npts, r, c) frames at its nodes, and
    PathError for any other path.  A lattice edge is one sixth-order
    Magnus step, with A and B interpolated linearly between its end
    nodes.  The kernel ignores `max_step`; pipebench's tracer reads it to
    count int(|edge| / max_step) + 1 substeps per edge, as the former RK4
    kernel took."""
    F = np.asarray(F0, dtype=complex)
    if not np.all(np.isfinite(F)):
        raise ValueError("initial frame must be finite")
    try:
        return transport_polyline(alpha.A, alpha.B, alpha.domain.step1,
                                  alpha.domain.step2, path, F,
                                  row=(alpha.convention == "row_frame"),
                                  periodic=alpha.domain.periodic,
                                  max_step=alpha.domain.hmin / 2.0)
    except ValueError as exc:
        raise PathError(str(exc)) from exc


def holonomy(alpha, loop):
    """Inverse-of-parallel-transport matrix around a closed loop, a lattice
    path that ends at its first node (on a torus, at a translate of it by
    periods): the solution of dJ = <alpha, beta'> J, J(0) = I, at the end
    of the loop."""
    F = integrate_frame(alpha, loop, np.eye(alpha.A.shape[-1]))
    gap = np.subtract(loop[-1], loop[0])
    if (gap % alpha.domain.shape if alpha.domain.periodic else gap).any():
        raise PathError("holonomy requires a closed loop")
    return F[-1]


def group_residuals(F, group_tag):
    """Residuals of membership in the frame's symmetry group: the
    determinant drift |det F - 1| and the unitarity defect, su3:
    ||F^dagger F - I||, su21: ||F^dagger eta F - eta|| with
    eta = diag(1, 1, -1); each the max over the frames of F."""
    F = np.asarray(F, dtype=complex)
    if group_tag == "su3":
        dev = _dagger(F) @ F - np.eye(3)
    elif group_tag == "su21":
        dev = (_dagger(F) * _ETA) @ F - ETA_21
    else:
        raise ValueError(f"unknown group tag {group_tag!r}")
    return {"det_drift": float(np.max(np.abs(np.linalg.det(F) - 1.0))),
            "unitarity": float(np.max(np.linalg.norm(dev, axis=(-2, -1))))}
