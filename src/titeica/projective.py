"""Developing maps into RP^2, quadric fitting, holonomy reports, and the
semi-flat (Hessian-potential) development of parabolic meshes with its
Legendre-dual mirror data.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateVertexError, InvalidSignCase
from .frames import holonomy
from .geometry import lattice_diff, row_blocks, second_diffs


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


def _chain_rule(x1, x2, phi, first, second):
    """det J, the gradient of phi with respect to (x1, x2) as two fields,
    and det Hess_x phi on a curved grid, by the chain rule through the
    lattice Jacobian J, written out entry by entry for the 2x2 matrices,
    from the lattice derivatives first(f) = (f_j, f_k) and second(f) =
    (f_jj, f_kk, f_jk).  A node with det J = 0 gets inf or nan, without a
    warning: each caller checks det J on the nodes it keeps."""
    # rows d x^i of J
    x1j, x1k = first(x1)
    x2j, x2k = first(x2)
    det = x1j * x2k - x1k * x2j
    pj, pk = first(phi)
    with np.errstate(divide="ignore", invalid="ignore"):
        # d phi / d x = a^T d phi, with the closed-form 2x2 inverse
        # a = adj J / det J, indexed [lattice, x]
        g0 = x2k / det * pj + -x2j / det * pk
        g1 = -x1k / det * pj + x1j / det * pk
        # each field freed early keeps the peak RSS down
        del x1j, x1k, x2j, x2k, pj, pk
        # second lattice differences of phi minus gradient-weighted
        # curvature of x: the symmetric matrix l
        l00, l11, l01 = second(phi)
        for g, x in ((g0, x1), (g1, x2)):
            xjj, xkk, xjk = second(x)
            l00 -= g * xjj
            l01 -= g * xjk
            l11 -= g * xkk
        del xjj, xkk, xjk
        # the lattice Jacobian maps d(lattice) -> dx, so Hess_x = a^T l a
        # and det Hess_x = det l det(a)^2 = det l / det J^2
        return det, g0, g1, (l00 * l11 - l01 * l01) / (det * det)


def _centered(x1, x2, phi):
    """`_chain_rule` at the nodes of rows 1..n-2 of (n, m) fields, by the
    centered stencils of `lattice_diff` and `second_diffs`, as (n - 2, m)
    arrays whose columns 0 and m - 1 hold junk.  The fields are copied
    into one flat row each, padded by a zero at both ends, so that every
    stencil reads contiguous slices: the neighbours of a node are its
    flat index -+1 and -+m, and at columns 0 and m - 1 -+1 wraps around
    to the next row or the pad."""
    n, m = phi.shape
    size = n * m
    pad = np.zeros((3, size + 2))
    for row, f in zip(pad, (x1, x2, phi)):
        row[1:-1].reshape(n, m)[...] = f

    def first(f):
        return ((f[2 * m + 1:size + 1] - f[1:size - 2 * m + 1]) / 2.0,
                (f[m + 2:size - m + 2] - f[m:size - m]) / 2.0)

    def second(f):
        twice = 2.0 * f[m + 1:size - m + 1]
        # f_j from one node before the first to one after the last
        fj = (f[2 * m:] - f[:size - 2 * m + 2]) / 2.0
        return (f[2 * m + 1:size + 1] - twice + f[1:size - 2 * m + 1],
                f[m + 2:size - m + 2] - twice + f[m:size - m],
                (fj[2:] - fj[:-2]) / 2.0)

    return [a.reshape(n - 2, m) for a in _chain_rule(*pad, first, second)]


# each side of the boundary ring of a grid, and the four rows or columns
# next to it, which hold every node its one-sided stencils read
_SIDES = ((np.s_[0], np.s_[:4]), (np.s_[-1], np.s_[-4:]),
          (np.s_[:, 0], np.s_[:, :4]), (np.s_[:, -1], np.s_[:, -4:]))


def _edge(x1, x2, phi, side, strip):
    """`_chain_rule` on one side of the boundary ring: the stencils of
    `lattice_diff` and `second_diffs` on the strip next to it, whose
    values on the side are the whole grid's, bit for bit."""
    def first(f):
        return lattice_diff(f, 0), lattice_diff(f, 1)

    out = _chain_rule(x1[strip], x2[strip], phi[strip], first, second_diffs)
    return [a[side] for a in out]


def _check(det):
    if not np.all(det):
        raise DegenerateVertexError("degenerate affine development")


def _centered_rows(x1, x2, phi):
    """Yield (r0, r1, grad_x1, grad_x2, det_hess) of `_centered` for the
    rows r0..r1 - 1 of blocks (`row_blocks`) that cover rows 1..n-2 of
    (n, m) fields, each read with one halo row on each side: the whole
    grid's values, bit for bit.  Raises DegenerateVertexError where
    det J = 0 on their columns 1..m-2."""
    n, m = phi.shape
    for r0, r1 in row_blocks(1, n - 1, m):
        b = np.s_[r0 - 1:r1 + 1]
        det, *out = _centered(x1[b], x2[b], phi[b])
        _check(det[:, 1:-1])
        yield r0, r1, *out


def _chain_rule_hessian(x1, x2, phi):
    """Gradient of phi and det Hess_x phi with respect to (x1, x2) over a
    whole grid: the centered rows 1..n-2 (`_centered_rows`), then the
    one-sided boundary ring (`_edge`) over their junk columns, by the one
    formula of `_chain_rule`."""
    grad = np.empty(phi.shape + (2,))
    det_hess = np.empty(phi.shape)
    parts = [(np.s_[r0:r1], out) for r0, r1, *out in _centered_rows(x1, x2, phi)]
    for side, strip in _SIDES:
        det, *out = _edge(x1, x2, phi, side, strip)
        _check(det)
        parts.append((side, out))
    for nodes, (g0, g1, dh) in parts:
        g = grad[nodes]
        g[..., 0], g[..., 1], det_hess[nodes] = g0, g1, dh
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
    It runs a block of grid rows at a time, each read with one halo row
    on each side, and computes only the centered stencils of its nodes
    (`_centered_rows`), whose values are the whole grid's, bit for bit.
    It raises DegenerateVertexError where det J = 0 on rows 1..n-2: on
    columns 1..m-2 from the blocks, and on columns 0 and m-1 from the
    one-sided stencils across them (`_edge`)."""
    v = np.asarray(vertices, dtype=float)
    x1, x2, phi = v[..., 0], v[..., 1], v[..., 2]
    n = phi.shape[0]
    for side, strip in _SIDES[2:]:  # columns 0 and m - 1
        _check(_edge(x1, x2, phi, side, strip)[0][1:-1])
    worst = 0.0
    for r0, _, _, _, det_hess in _centered_rows(x1, x2, phi):
        # the gated rows 2..n-3 of the block's rows (none in a block of
        # row 1 or n-2 alone), and columns 2..m-3; np.maximum, unlike max,
        # keeps a nan
        gated = det_hess[max(2 - r0, 0):n - 2 - r0, 2:-2]
        worst = np.maximum(worst, np.abs(gated - 1.0).max(initial=0.0))
    return float(worst)


def semiflat_dual_roundtrip(sf):
    """Develop the mirror data back: grad_y phi_star should return x.
    Returns the max deviation over interior nodes."""
    grad, _ = _chain_rule_hessian(sf.y[..., 0], sf.y[..., 1], sf.phi_star)
    dev = np.linalg.norm(grad - sf.x, axis=-1)
    return float(dev[2:-2, 2:-2].max())
