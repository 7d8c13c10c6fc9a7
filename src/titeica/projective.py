"""Developing maps into RP^2, quadric fitting, holonomy reports, and the
semi-flat (Hessian-potential) development of parabolic meshes with its
Legendre-dual mirror data, whose lattice derivatives are `geometry`'s
stencils, taken a block of grid rows at a time.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateVertexError, InvalidSignCase
from .frames import holonomy
from .geometry import lattice_diff, lattice_diff2, row_blocks


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


# the (i, j) entries of a symmetric 4x4 S, one per coefficient of the fit
_PAIRS = [(i, j) for i in range(4) for j in range(i, 4)]

# points per block of design rows in `quadric_fit`: 640 KiB of rows
FIT_ROWS = 2 ** 13


@dataclass
class QuadricFit:
    S: np.ndarray
    residual: float
    signature: tuple


def _design_rows(pts):
    """The fit's design rows of a block of (k, 3) finite points: the
    products p_i p_j (i <= j, doubled off the diagonal) of each
    homogenized point p = (x, 1), each row scaled to unit norm.  p is
    first divided by its largest |entry|, which scales the row by a
    positive factor: every product of a finite point is then at most 2
    in size and no square in the norm overflows or underflows, and the
    entry 1 makes the row norm at least 1.  The rows are the transpose of
    a (10, k) array, so that each product is written to contiguous
    memory."""
    p = np.empty((4, pts.shape[0]))
    p[:3], p[3] = pts.T, 1.0
    p /= np.abs(p).max(axis=0)
    Dt = np.empty((len(_PAIRS), pts.shape[0]))
    for c, (i, j) in enumerate(_PAIRS):
        np.multiply(p[i], p[j], out=Dt[c])
        if i != j:
            Dt[c] *= 2.0
    Dt /= np.sqrt(np.einsum("ij,ij->j", Dt, Dt))
    return Dt.T


def quadric_fit(points):
    """Least-squares quadric through a point cloud.

    Affine R^3 points are homogenized to (x, 1) and a symmetric 4x4 S with
    p^T S p = 0 is fitted (10 parameters, needs >= 9 points in general
    position).  Rows of the design matrix are normalized,
    so the reported residual (smallest singular value / sqrt(#points)) is
    scale-free.  The signature is that of the quadratic 3x3 block.

    The design matrix is never formed whole: its rows are made `FIT_ROWS`
    points at a time, and each block is folded into the 10x10 triangular
    factor R of the rows so far by one QR of [R; block] (TSQR: Demmel,
    Grigori, Hoemmen & Langou, SIAM J. Sci. Comput. 34, 2012).  The rows
    and R have the same singular values and right singular vectors, so
    the fit is the SVD of R alone.  Raises DegenerateVertexError on a
    non-finite point, before any of its rows enter the fit.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    npts = pts.shape[0]
    if npts < len(_PAIRS) - 1:
        raise ValueError(f"need at least {len(_PAIRS) - 1} points")
    R = None
    for start in range(0, npts, FIT_ROWS):
        block = pts[start:start + FIT_ROWS]
        if not np.isfinite(block).all():
            raise DegenerateVertexError("non-finite point")
        D = _design_rows(block)
        R = np.linalg.qr(D if R is None else np.vstack([R, D]), mode="r")
    # with 9 points R has 9 rows: its null vector is the tenth right
    # singular vector, which only the full V holds
    _, svals, vt = np.linalg.svd(R)
    svals = np.concatenate([svals, np.zeros(len(_PAIRS) - len(svals))])
    if svals[-2] < 1e-10 * svals[0]:
        raise DegenerateVertexError("points are not in general position")
    S = np.zeros((4, 4))
    for c, (i, j) in zip(vt[-1], _PAIRS):
        S[i, j] = S[j, i] = c
    S /= np.linalg.norm(S)
    residual = float(svals[-1] / np.sqrt(npts))
    eig = np.linalg.eigvalsh(S[:3, :3])
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


def _chain_rule(F, hessian=True):
    """det J, the gradient of phi with respect to (x1, x2) as two fields,
    and, with `hessian`, det Hess_x phi on a curved grid, for the fields
    F = (x1, x2, phi) stacked on the first axis of one array over grid
    rows and columns.  It applies the chain rule through the lattice
    Jacobian J, written out entry by entry for the 2x2 matrices, to the
    lattice derivatives of the three fields, each taken by one call of
    `lattice_diff` or `lattice_diff2` and freed once read.  A node with
    det J = 0 gets inf or nan, without a warning: each caller checks det
    J on the nodes it keeps."""
    # rows d x^i of J
    Fj, Fk = lattice_diff(F, 1), lattice_diff(F, 2)
    (x1j, x2j, pj), (x1k, x2k, pk) = Fj, Fk
    det = x1j * x2k - x1k * x2j
    with np.errstate(divide="ignore", invalid="ignore"):
        # d phi / d x = a^T d phi, with the closed-form 2x2 inverse
        # a = adj J / det J, indexed [lattice, x]
        g0 = x2k / det * pj + -x2j / det * pk
        g1 = -x1k / det * pj + x1j / det * pk
        # each field freed early keeps the peak RSS down
        del x1j, x1k, x2j, x2k, pj, pk, Fk
        if not hessian:
            return det, g0, g1

        def entry(d):
            # an entry of the symmetric matrix l: the second lattice
            # difference d of phi less the gradient-weighted ones of x
            out = np.subtract(d[2], g0 * d[0])
            out -= g1 * d[1]
            return out

        l01 = entry(lattice_diff(Fj, 2))
        del Fj
        l00, l11 = entry(lattice_diff2(F, 1)), entry(lattice_diff2(F, 2))
        # the lattice Jacobian maps d(lattice) -> dx, so Hess_x = a^T l a
        # and det Hess_x = det l det(a)^2 = det l / det J^2
        return det, g0, g1, (l00 * l11 - l01 * l01) / (det * det)


def _check(det):
    if not np.all(det):
        raise DegenerateVertexError("degenerate affine development")


def _blocks(x1, x2, phi, hessian=True):
    """Yield (rows, det J, grad_x1, grad_x2, det_hess) of `_chain_rule` on
    the rows of each block of (n, m) fields, det_hess only with
    `hessian`: computed on the block's slab (`row_blocks`), whose values
    on the block's rows are the whole grid's, bit for bit."""
    n, m = phi.shape
    for rows, slab, core in row_blocks(n, m):
        F = np.stack([x1[slab], x2[slab], phi[slab]])
        yield rows, *(a[core] for a in _chain_rule(F, hessian))


def _chain_rule_hessian(x1, x2, phi):
    """Gradient of phi and det Hess_x phi with respect to (x1, x2) over a
    whole grid, a block of rows at a time (`_blocks`).  Raises
    DegenerateVertexError where det J = 0 at any node."""
    grad = np.empty(phi.shape + (2,))
    det_hess = np.empty(phi.shape)
    for rows, det, g0, g1, dh in _blocks(x1, x2, phi):
        _check(det)
        g = grad[rows]
        g[..., 0], g[..., 1], det_hess[rows] = g0, g1, dh
    return grad, det_hess


def semiflat_develop(mesh):
    """Split a parabolic mesh f = (x, phi) along X = span(e1, e2) and
    xi = e3; returns the affine development, the potential, the mirror
    dual coordinates/potential, and the det Hess phi - 1 residual."""
    if mesh.target_tag != "affine_sphere" or mesh.lam != 0:
        raise InvalidSignCase("semi-flat development needs a parabolic mesh")
    v = np.asarray(mesh.vertices, dtype=float)
    x1, x2, phi = v[..., 0], v[..., 1], v[..., 2]
    y, det_hess = _chain_rule_hessian(x1, x2, phi)
    phi_star = x1 * y[..., 0] + x2 * y[..., 1] - phi
    return SemiFlatData(np.stack([x1, x2], axis=-1), phi, y, phi_star,
                        det_hess - 1.0)


def monge_ampere_gate(vertices):
    """max |det Hess_x phi - 1| over the nodes off the two outer rings of
    a parabolic mesh's (x1, x2, phi) vertices, the `monge_ampere` gate.
    It runs a block of grid rows at a time (`_blocks`), whose values are
    the whole grid's, bit for bit, and raises DegenerateVertexError where
    det J = 0 on rows 1..n-2."""
    v = np.asarray(vertices, dtype=float)
    n = v.shape[0]
    worst = 0.0
    for rows, det, _, _, det_hess in _blocks(v[..., 0], v[..., 1], v[..., 2]):
        r0 = rows.start
        _check(det[max(1 - r0, 0):n - 1 - r0])
        # the gated rows 2..n-3 of the block's rows (none in a block of
        # row 1 or n-2 alone), and columns 2..m-3; np.maximum, unlike max,
        # keeps a nan
        gated = det_hess[max(2 - r0, 0):n - 2 - r0, 2:-2]
        worst = np.maximum(worst, np.abs(gated - 1.0).max(initial=0.0))
    return float(worst)


def semiflat_dual_roundtrip(sf):
    """Develop the mirror data back: grad_y phi_star should return x.
    Returns the max of |grad_y phi_star - x| over the nodes off the two
    outer rings, from the gradient alone, a block of grid rows at a time
    (`_blocks` without det Hess): the whole grid's values, bit for bit.
    Like `semiflat_develop`, it raises DegenerateVertexError where det J =
    0 at any node of the grid."""
    y, phi_star = sf.y, sf.phi_star
    n = phi_star.shape[0]
    worst = 0.0
    for rows, det, g0, g1 in _blocks(y[..., 0], y[..., 1], phi_star,
                                     hessian=False):
        _check(det)
        # rows 2..n-3 of the block's rows, and columns 2..m-3
        core = np.s_[max(2 - rows.start, 0):n - 2 - rows.start, 2:-2]
        x = sf.x[rows]
        d0 = g0[core] - x[..., 0][core]
        d1 = g1[core] - x[..., 1][core]
        # the sum of squares of np.linalg.norm over the last axis
        dev = np.sqrt(d0 * d0 + d1 * d1)
        worst = np.maximum(worst, dev.max(initial=0.0))
    return float(worst)
