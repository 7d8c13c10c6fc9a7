"""Developing maps into RP^2, quadric fitting, holonomy reports, and the
semi-flat (Hessian-potential) development of parabolic meshes with its
Legendre-dual mirror data.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateVertexError, InvalidSignCase
from .frames import holonomy
from .geometry import _along, _d1, lattice_hessian


def normalize_rp2(v):
    """Unit-norm homogeneous coordinates, first nonzero coordinate positive."""
    v = np.asarray(v, dtype=float)
    norms = np.linalg.norm(v, axis=-1)
    if np.any(norms == 0):
        raise DegenerateVertexError("zero vector has no projective image")
    w = v / norms[..., None]
    sign = np.ones(w.shape[:-1])
    remaining = np.ones(w.shape[:-1], dtype=bool)
    for i in range(w.shape[-1]):
        big = remaining & (np.abs(w[..., i]) > 1e-12)
        sign = np.where(big, np.sign(w[..., i]), sign)
        remaining &= ~big
    return w * sign[..., None]


def develop_rp2(mesh):
    """Projectivized position P(f) per vertex of a proper affine mesh."""
    f = np.asarray(mesh.vertices, dtype=float)
    norms = np.linalg.norm(f, axis=-1)
    if np.any(norms < 1e-14):
        raise DegenerateVertexError("immersion passes through the origin")
    return normalize_rp2(f)


@dataclass
class QuadricFit:
    S: np.ndarray
    residual: float
    signature: tuple


def quadric_fit(points):
    """Least-squares quadric through a point cloud.

    Affine R^3 points are homogenized to (x, 1) and a symmetric 4x4 S with
    p^T S p = 0 is fitted (10 parameters, needs >= 9 points in general
    position).  Rows of the design matrix are normalized,
    so the reported residual (smallest singular value / sqrt(#points)) is
    scale-free.  The signature is that of the quadratic 3x3 block.
    """
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
    return QuadricFit(S, residual, (pos, neg))


def _sorted_eigenvalues(M):
    ev = np.linalg.eigvals(M)
    order = np.lexsort((np.angle(ev), -np.round(np.abs(ev), 12)))
    return ev[order]


def holonomy_report(alpha, loops):
    """Per-loop holonomy matrices with eigenvalues (descending modulus,
    ties by argument), unimodularity drift, and pairwise commutators."""
    mats = [holonomy(alpha, lp) for lp in loops]
    entries = []
    for Mh in mats:
        ev = _sorted_eigenvalues(Mh)
        entries.append({
            "matrix": Mh,
            "eigenvalues": ev,
            "det_drift": float(abs(np.linalg.det(Mh) - 1.0)),
            "eigenvalue_product_drift": float(abs(np.prod(ev) - np.linalg.det(Mh))),
        })
    ncomm = len(mats)
    comm = np.zeros((ncomm, ncomm))
    for i in range(ncomm):
        for j in range(i + 1, ncomm):
            comm[i, j] = comm[j, i] = float(
                np.linalg.norm(mats[i] @ mats[j] - mats[j] @ mats[i]))
    return {"loops": entries, "commutators": comm}


@dataclass
class SemiFlatData:
    """Affine coordinates, Hessian potential, and Legendre-dual mirror data
    developed from a parabolic affine sphere mesh."""

    x: np.ndarray          # (n, m, 2) affine coordinates pi_X f
    phi: np.ndarray        # affine Kahler potential pi_xi f
    y: np.ndarray          # (n, m, 2) dual coordinates grad_x phi
    phi_star: np.ndarray   # Legendre transform x.y - phi
    ma_residual: np.ndarray  # det Hess_x phi - 1


def _lattice_grad(field):
    return np.stack([_along(_d1, field, 0, False),
                     _along(_d1, field, 1, False)], axis=-1)


def _chain_rule_hessian(x1, x2, phi):
    """Gradient and Hessian of phi with respect to (x1, x2) on a curved
    grid, by the chain rule through the lattice Jacobian, written out
    entry by entry for the 2x2 matrices."""
    g1, g2 = _lattice_grad(x1), _lattice_grad(x2)  # rows d x^i of J
    det = g1[..., 0] * g2[..., 1] - g1[..., 1] * g2[..., 0]
    if np.any(det == 0):
        raise DegenerateVertexError("degenerate affine development")
    # closed-form 2x2 inverse a = adj J / det J, indexed [lattice, x]
    a00, a01 = g2[..., 1] / det, -g1[..., 1] / det
    a10, a11 = -g2[..., 0] / det, g1[..., 0] / det
    del g1, g2, det  # each field freed early keeps the peak RSS down
    p = _lattice_grad(phi)
    grad = np.empty(phi.shape + (2,))  # d phi / d x = a^T d phi
    grad[..., 0] = a00 * p[..., 0] + a10 * p[..., 1]
    grad[..., 1] = a01 * p[..., 0] + a11 * p[..., 1]
    del p
    # second lattice differences of phi minus gradient-weighted curvature
    # of x: a symmetric matrix l, of which entry (1, 0) is left stale
    l = lattice_hessian(phi)
    for g, x in ((grad[..., 0], x1), (grad[..., 1], x2)):
        h = lattice_hessian(x)
        for i, j in ((0, 0), (0, 1), (1, 1)):
            l[..., i, j] -= g * h[..., i, j]
    l00, l01, l11 = l[..., 0, 0], l[..., 0, 1], l[..., 1, 1]
    # the lattice Jacobian maps d(lattice) -> dx, so Hess_x = (a^T l) a
    H = np.empty(phi.shape + (2, 2))
    for i, (ai0, ai1) in enumerate(((a00, a10), (a01, a11))):
        s0, s1 = ai0 * l00 + ai1 * l01, ai0 * l01 + ai1 * l11
        H[..., i, 0] = s0 * a00 + s1 * a10
        H[..., i, 1] = s0 * a01 + s1 * a11
    return grad, H


def semiflat_develop(mesh):
    """Split a parabolic mesh f = (x, phi) along X = span(e1, e2) and
    xi = e3; returns the affine development, the potential, the mirror
    dual coordinates/potential, and the det Hess phi - 1 residual."""
    if mesh.target_tag != "affine_sphere" or mesh.lam != 0:
        raise InvalidSignCase("semi-flat development needs a parabolic mesh")
    v = np.asarray(mesh.vertices, dtype=float)
    x1, x2, phi = v[..., 0], v[..., 1], v[..., 2]
    grad, H = _chain_rule_hessian(x1, x2, phi)
    ma = H[..., 0, 0] * H[..., 1, 1] - H[..., 0, 1] * H[..., 1, 0] - 1.0
    y = grad
    phi_star = x1 * y[..., 0] + x2 * y[..., 1] - phi
    return SemiFlatData(np.stack([x1, x2], axis=-1), phi, y, phi_star, ma)


def semiflat_dual_roundtrip(sf):
    """Develop the mirror data back: grad_y phi_star should return x.
    Returns the max deviation over interior nodes."""
    grad, _ = _chain_rule_hessian(sf.y[..., 0], sf.y[..., 1], sf.phi_star)
    dev = np.linalg.norm(grad - sf.x, axis=-1)
    return float(dev[2:-2, 2:-2].max())
