"""RK4 transport kernel.

Transport of a small matrix frame F through a grid of square connection
coefficient matrices A, B, solving

    dF/dt = (A(z) zdot + B(z) conj(zdot)) F        (row convention)
    dF/dt = F (A(z) zdot + B(z) conj(zdot))        (column convention)

by classical RK4 with int(|zdot| / max_step) + 1 substeps per segment and
A, B interpolated bilinearly in lattice coordinates.  Two entry points
share one propagator builder, `_propagators`:

  transport_polyline  any polyline in lattice coordinates: paths and
                      holonomy loops;
  transport_lines     a block of lattice lines of a grid, each from one
                      node outward: the whole reconstruction tree, whose
                      spine is a block of one line and whose teeth are
                      every line along the other axis.  On a grid line the
                      bilinear rule is the linear interpolation of an
                      edge's two end nodes, so the coefficient is formed
                      once per node, and the edges of a block of lines are
                      built in one batch.  It returns the edges and
                      substeps it ran, the tree's only count of them.

The sample points do not depend on F and the system is linear, so every
substep's one-step propagator M = I + h/6 (K1 + 2 K2 + 2 K3 + K4) is
built in batched numpy, and the propagators of each segment are
multiplied together in batch.  The only sequential work left is the
chain F <- P F: once per segment of a polyline, and once per step away
from the start node for a whole block of lines.

All small-matrix products run in real arithmetic: a complex r x r
coefficient C = X + iY acts as the real 2r x 2r block [[X, -Y], [Y, X]]
on the stacked frame [Re F; Im F].  This map is a ring homomorphism, so
the real chain is the complex one written out, and batched real
products are several times cheaper than complex ones.
"""

import numpy as np

# bytes of the edge samples of one block of lines in transport_lines; the
# RK4 stages of the block take about as much again
LINES_BLOCK_BYTES = 1 << 20


def substeps(zdot, max_step):
    """RK4 substeps of segments with velocity zdot: int(|zdot| / max_step) + 1."""
    return (np.abs(zdot) / float(max_step)).astype(np.int64) + 1


def _realify(C):
    """Real blocks [[X, -Y], [Y, X]] of complex C = X + iY, (..., r, r)."""
    r = C.shape[-1]
    R = np.empty(C.shape[:-2] + (2 * r, 2 * r))
    R[..., :r, :r] = R[..., r:, r:] = C.real
    R[..., r:, :r] = C.imag
    np.negative(C.imag, out=R[..., :r, r:])
    return R


def _realified_samples(A, B, xy, zdot, periodic, row):
    """Real blocks of the bilinear samples A zdot + B conj(zdot) at the
    lattice points xy ((S, 2)), transposed in the column convention; zdot
    has shape (S,)."""
    n = np.array(A.shape[:2])
    r = A.shape[-1]
    if periodic:
        i0 = np.floor(xy)
        f = xy - i0
        i0 = i0.astype(np.intp)
    else:
        xy = np.clip(xy, 0.0, n - 1.0)
        i0 = np.minimum(np.floor(xy).astype(np.intp), n - 2)
        f = xy - i0
    corner = i0[:, :, None] + np.arange(2)       # (S, axis, corner)
    if periodic:
        corner %= n[:, None]
    # flat node index and weight of the corners (i_a, j_b), a, b in {0, 1}
    node = corner[:, 0, :, None] * n[1] + corner[:, 1, None, :]
    node = node.reshape(-1, 4)
    wf = np.stack([1.0 - f, f], axis=-1)
    w = (wf[:, 0, :, None] * wf[:, 1, None, :]).reshape(-1, 1, 4)

    def interp(G):
        # one gather of the four corners, weighted by one real matmul on
        # the interleaved (Re, Im) parts: (S, 1, 4) @ (S, 4, 2 r^2)
        G = np.asarray(G, dtype=np.complex128).reshape(-1, r * r)
        g = w @ np.take(G, node, axis=0).view(np.float64)
        return g.view(np.complex128).reshape(-1, r, r)

    zdot = zdot[:, None, None]
    C = interp(A) * zdot + interp(B) * np.conj(zdot)
    return _realify(C if row else np.swapaxes(C, -1, -2))


def _plus_product(X, Y, s):
    """X + s X Y, accumulated in the product's buffer."""
    out = X @ Y
    out *= s
    out += X
    return out


def _propagators(R, h):
    """Propagator P = M_(L-1) ... M_1 M_0 of each segment from its real
    coefficient samples R (..., 2L+1, 2r, 2r): substep q reads the samples
    2q, 2q+1, 2q+2 (start, middle, end) and has length h[..., q, :, :],
    and M_q = I + h/6 (K1 + 2 K2 + 2 K3 + K4).  h may be a scalar."""
    C0, Cm, C1 = R[..., :-1:2, :, :], R[..., 1::2, :, :], R[..., 2::2, :, :]
    K2 = _plus_product(Cm, C0, 0.5 * h)
    K3 = _plus_product(Cm, K2, 0.5 * h)
    K4 = _plus_product(C1, K3, h)
    # M = h/6 (C0 + 2 (K2 + K3) + K4) + I, accumulated in K2's buffer
    M = K2
    M += K3
    M *= 2.0
    M += C0
    M += K4
    M *= h / 6.0
    M += np.eye(R.shape[-1])
    P = M[..., 0, :, :]
    for q in range(1, M.shape[-3]):
        P = M[..., q, :, :] @ P
    return P


def _stacked(F, row):
    """[Re F; Im F] of complex frames (..., r, c), transposed first in the
    column convention (which runs the row system on the transposes)."""
    if not row:
        F = np.swapaxes(F, -1, -2)
    r = F.shape[-2]
    X = np.empty(F.shape[:-2] + (2 * r, F.shape[-1]))
    X[..., :r, :] = F.real
    X[..., r:, :] = F.imag
    return X


def _unstacked(X, row):
    """The complex frames of stacked real ones, inverse of `_stacked`."""
    r = X.shape[-2] // 2
    F = X[..., :r, :] + 1j * X[..., r:, :]
    return F if row else np.swapaxes(F, -1, -2)


def transport_polyline(A, B, d1, d2, pts, F0, row=True, periodic=False,
                       max_step=0.5):
    """Frames at the vertices of the lattice polyline `pts` ((npts, 2)
    floats) transported from F0; returns an (npts, m, n) array.  Each
    segment takes int(|zdot| / max_step) + 1 RK4 substeps."""
    pts = np.asarray(pts, dtype=np.float64)
    r = A.shape[-1]
    d = np.diff(pts, axis=0)
    zdot = d[:, 0] * complex(d1) + d[:, 1] * complex(d2)
    nsub = substeps(zdot, max_step)
    # every segment is padded to the longest one's L substeps (the
    # segments of a grid path are at most a cell long, so L varies
    # little): substep q reads the samples 2q, 2q+1, 2q+2 taken at
    # t = min(k / (2 nsub), 1), and a padding substep (q >= nsub) gets
    # h = 0, i.e. the identity
    L = int(nsub.max(initial=1))
    t = np.minimum(np.arange(2 * L + 1) / (2.0 * nsub[:, None]), 1.0)
    xy = pts[:-1, None, :] + t[..., None] * d[:, None, :]
    R = _realified_samples(A, B, xy.reshape(-1, 2),
                           np.repeat(zdot, 2 * L + 1), periodic, row)
    h = np.where(np.arange(L) < nsub[:, None], 1.0 / nsub[:, None], 0.0)
    P = _propagators(R.reshape(nsub.size, 2 * L + 1, 2 * r, 2 * r),
                     h[..., None, None])
    F = _stacked(np.asarray(F0, dtype=np.complex128), row)
    chain = np.empty((nsub.size + 1,) + F.shape)
    chain[0] = F
    links = list(chain)       # 2-d views: np.dot is the cheapest small product
    for p, f, out in zip(P, links, links[1:]):
        np.dot(p, f, out=out)
    return _unstacked(chain, row)


def transport_lines(A, B, zdot, frames, start, row=True, max_step=0.5):
    """Transport along every lattice line frames[i, :] from its node
    `start` outward, in place: frames ((lines, m) + frame shape) holds the
    frame at each line's node `start` on entry and the frames at all its
    nodes on return.  A and B ((lines, m, r, r)) are the coefficients at
    the same nodes, and the step from node j to node j + 1 of a line is
    zdot.  Each edge is sampled by linear interpolation of its two end
    nodes, the bilinear rule on a grid line, and takes
    int(|zdot| / max_step) + 1 RK4 substeps.  Lines go a block at a time,
    so that a block's edge samples stay within LINES_BLOCK_BYTES.  Returns
    the (edges, substeps) it ran."""
    lines, m = frames.shape[:2]
    r = A.shape[-1]
    nsub = int(substeps(zdot, max_step))
    t = (np.arange(2 * nsub + 1) / (2.0 * nsub))[:, None, None]
    # edge j joins nodes j and j + 1 and runs away from `start`: from j to
    # j + 1 at and above it, from j + 1 to j below it, where the velocity
    # -zdot negates the coefficient
    j = np.arange(m - 1)
    up = j >= start
    src, dst = np.where(up, j, j + 1), np.where(up, j + 1, j)
    sign = np.where(up, 1.0, -1.0)[:, None, None]
    line_bytes = max(m - 1, 1) * t.size * 8 * (2 * r) ** 2
    block = max(1, LINES_BLOCK_BYTES // line_bytes)
    for i in range(0, lines, block):
        rows = slice(i, i + block)
        C = A[rows] * zdot + B[rows] * np.conj(zdot)
        R = _realify(C if row else np.swapaxes(C, -1, -2))
        R0, R1 = sign * R[:, src], sign * R[:, dst]
        # C0 + t (C1 - C0) is exactly C0 where the coefficient is constant
        P = _propagators(R0[:, :, None] + t * (R1 - R0)[:, :, None],
                         1.0 / nsub)
        F = _stacked(frames[rows, start], row)
        X = np.empty((F.shape[0], m) + F.shape[1:])
        X[:, start] = F
        for k in range(start, m - 1):
            np.matmul(P[:, k], X[:, k], out=X[:, k + 1])
        for k in range(start - 1, -1, -1):
            np.matmul(P[:, k], X[:, k + 1], out=X[:, k])
        frames[rows] = _unstacked(X, row)
    edges = lines * (m - 1)
    return edges, edges * nsub
