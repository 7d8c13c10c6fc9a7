"""RK4 transport kernel.

Transport of a small matrix frame F along lattice lines of a grid of
square connection coefficient matrices A, B, solving

    dF/dt = (A(z) zdot + B(z) conj(zdot)) F        (row convention)
    dF/dt = F (A(z) zdot + B(z) conj(zdot))        (column convention)

by classical RK4 with int(|zdot| / max_step) + 1 substeps per lattice
edge, each edge sampled by linear interpolation of its two end nodes.
`transport_lines` runs a block of lattice lines, each from one node
outward: the whole reconstruction tree is two calls, the spine and then
every tooth along the other axis.  `transport_polyline` adapts it to a
path of grid nodes, each step one lattice edge or none (paths and
holonomy loops): each straight run of equal steps is one line, and the
runs are chained.  For a flat connection transport depends only on the
homotopy class of the path, so a path through grid nodes loses nothing.

The samples do not depend on F and the system is linear, so every
substep's one-step propagator M = I + h/6 (K1 + 2 K2 + 2 K3 + K4) is
built in batched numpy, and the propagators of each edge are multiplied
together in batch.  The only sequential work left is the chain F <- P F,
once per step away from a line's start node.

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
    """RK4 substeps of edges with velocity zdot: int(|zdot| / max_step) + 1."""
    return (np.abs(zdot) / float(max_step)).astype(np.int64) + 1


def _realify(C):
    """Real blocks [[X, -Y], [Y, X]] of complex C = X + iY, (..., r, r)."""
    r = C.shape[-1]
    R = np.empty(C.shape[:-2] + (2 * r, 2 * r))
    R[..., :r, :r] = R[..., r:, r:] = C.real
    R[..., r:, :r] = C.imag
    np.negative(C.imag, out=R[..., :r, r:])
    return R


def _plus_product(X, Y, s):
    """X + s X Y, accumulated in the product's buffer."""
    out = X @ Y
    out *= s
    out += X
    return out


def _propagators(R, h):
    """Propagator P = M_(L-1) ... M_1 M_0 of each edge from its real
    coefficient samples R (..., 2L+1, 2r, 2r): substep q reads the samples
    2q, 2q+1, 2q+2 (start, middle, end), every substep has length h, and
    M_q = I + h/6 (K1 + 2 K2 + 2 K3 + K4)."""
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


def transport_polyline(A, B, d1, d2, pts, F0, row=True, periodic=False,
                       max_step=0.5):
    """Frames at the nodes of the lattice path `pts` ((npts, 2) node
    indices, unwrapped on a torus) transported from F0, (npts,) + F0.shape.
    Each straight run of equal steps is one line of `transport_lines`.
    ValueError unless each point is a node of the grid and each step one
    lattice edge or none."""
    pts = np.asarray(pts, dtype=np.float64)
    nodes, shape = np.rint(pts).astype(np.intp), np.array(A.shape[:2])
    inside = periodic or (nodes == nodes % shape).all()
    if (nodes != pts).any() or not inside:
        raise ValueError("path points must be nodes of the grid")
    d = np.diff(nodes, axis=0)
    if (np.abs(d).sum(axis=1) > 1).any():
        raise ValueError("a path step must be one lattice edge or none")
    j, k = (nodes % shape).T
    out = np.empty((len(pts),) + np.shape(F0), dtype=np.complex128)
    out[0] = F0
    # a run starts at the first step and wherever the step changes
    steps = d.tolist()
    starts = [a for a, step in enumerate(steps)
              if a == 0 or step != steps[a - 1]]
    for a, b in zip(starts, starts[1:] + [len(steps)]):
        run = slice(a, b + 1)
        transport_lines(A[j[run], k[run]][None], B[j[run], k[run]][None],
                        d[a, 0] * complex(d1) + d[a, 1] * complex(d2),
                        out[None, run], 0, row, max_step)
    return out


def transport_lines(A, B, zdot, frames, start, row=True, max_step=0.5):
    """Transport along every lattice line frames[i, :] from its node
    `start` outward, in place: frames ((lines, m) + frame shape) holds the
    frame at each line's node `start` on entry and the frames at all its
    nodes on return.  A and B ((lines, m, r, r)) are the coefficients at
    the same nodes, and the step from node j to node j + 1 of a line is
    zdot.  Each edge is sampled by linear interpolation of its two end
    nodes and takes int(|zdot| / max_step) + 1 RK4 substeps.  Lines go a
    block at a time, so that a block's edge samples stay within
    LINES_BLOCK_BYTES.  Returns the (edges, substeps) it ran."""
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
        # the stacked frames [Re F; Im F], transposed in the column
        # convention, which runs the row system on the transposes
        F = frames[rows, start]
        F = F if row else np.swapaxes(F, -1, -2)
        X = np.empty(F.shape[:1] + (m, 2 * r) + F.shape[2:])
        X[:, start, :r], X[:, start, r:] = F.real, F.imag
        for k in range(start, m - 1):
            np.matmul(P[:, k], X[:, k], out=X[:, k + 1])
        for k in range(start - 1, -1, -1):
            np.matmul(P[:, k], X[:, k + 1], out=X[:, k])
        F = X[..., :r, :] + 1j * X[..., r:, :]
        frames[rows] = F if row else np.swapaxes(F, -1, -2)
    edges = lines * (m - 1)
    return edges, edges * nsub
