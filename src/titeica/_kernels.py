"""Magnus transport kernel.

Transport of a small matrix frame F along lattice lines of a grid of
square connection coefficient matrices A, B, solving

    dF/dt = (A(z) zdot + B(z) conj(zdot)) F        (row convention)
    dF/dt = F (A(z) zdot + B(z) conj(zdot))        (column convention)

with the coefficient interpolated linearly along each lattice edge.  On
an edge the coefficient is C(t) = a + (t - 1/2) b, with a the mean and b
the difference of its values at the two end nodes, and the edge's
propagator is exp(Omega) for the sixth-order Magnus expansion

    Omega = a + K/12 + [b, K]/240 - [a, [a, K]]/720,   K = [b, a]

(Iserles, Munthe-Kaas, Norsett & Zanna, Acta Numerica 9, 2000; Blanes,
Casas, Oteo & Ros, Phys. Rep. 470, 2009): one step per edge, exact where
the coefficient is constant, as on every torus.  Omega is built from a, b
and their brackets, so it lies in the Lie algebra of the connection and
exp(Omega) in its group to rounding.  The series converges only for small
Omega, so where `_expm` would need k > 0 squarings for a block of lines,
each edge of the block is split into 2^k sub-edges instead, each one
Magnus step of the linear coefficient between its ends, and their
propagators are multiplied together.  `transport_lines` runs a block of
lattice lines, each from one node outward: the whole reconstruction
tree is two calls, the spine and then every tooth along the other axis.
`transport_polyline` adapts it to a path of grid nodes, each step one
lattice edge or none (paths and holonomy loops): each straight run of
equal steps is one line, and the runs are chained.  For a flat
connection transport depends only on the homotopy class of the path, so
a path through grid nodes loses nothing.

The propagators do not depend on F, so those of a block of lines are
built in batched numpy; the only sequential work left is the chain
F <- P F, once per edge away from a line's start node.

All small-matrix products run in real arithmetic: a complex r x r
coefficient C = X + iY acts as the real 2r x 2r block [[X, -Y], [Y, X]]
on the stacked frame [Re F; Im F].  This map is a ring homomorphism, so
the real chain is the complex one written out, and batched real
products are several times cheaper than complex ones.
"""

import math

import numpy as np

# bytes of one per-edge array of a block of lines in transport_lines,
# float64 of shape (lines, m - 1, 2r, 2r); the Magnus terms and the
# exponential hold up to six such arrays at a time
LINES_BLOCK_BYTES = 1 << 18

# Taylor degrees of _expm, cheapest first; each is a multiple of
# s = ceil(sqrt(q)), and costs s - 1 + q / s - 1 products
_DEGREES = (4, 6, 9, 12, 16)


def _realify(C):
    """Real blocks [[X, -Y], [Y, X]] of complex C = X + iY, (..., r, r)."""
    r = C.shape[-1]
    R = np.empty(C.shape[:-2] + (2 * r, 2 * r))
    R[..., :r, :r] = R[..., r:, r:] = C.real
    R[..., r:, :r] = C.imag
    np.negative(C.imag, out=R[..., :r, r:])
    return R


def _magnus(R):
    """Sixth-order Magnus Omega of each edge between the consecutive nodes
    of R (..., m, n, n), walked from node j to node j + 1: (..., m - 1, n, n).
    Reversing an edge negates its Omega."""
    a = R[..., :-1, :, :] + R[..., 1:, :, :]
    a *= 0.5
    b = R[..., 1:, :, :] - R[..., :-1, :, :]
    tmp = np.empty_like(a)

    def bracket(X, Y, out):
        """[X, Y], in `out`."""
        np.matmul(X, Y, out=out)
        out -= np.matmul(Y, X, out=tmp)
        return out

    K = bracket(b, a, np.empty_like(a))
    # Omega = [b, K]/240 + K/12 - [a, [a, K]]/720 + a, in the buffers of
    # the terms that are done with
    W = bracket(b, K, np.empty_like(a))
    W *= 1.0 / 240.0
    W += np.multiply(K, 1.0 / 12.0, out=tmp)
    L = bracket(a, K, b)
    L = bracket(a, L, K)
    L *= 1.0 / 720.0
    W -= L
    W += a
    return W


def _scaling(W):
    """(q, k) for the exponentials of W (..., n, n): the least Taylor degree
    q in _DEGREES, then the fewest squarings k, with
    ||2^-k W||^(q+1) / (q+1)! < 2^-53 in the largest 1-norm of the batch."""
    norm = float(np.abs(W).sum(axis=-2).max(initial=0.0))
    for q in _DEGREES:
        theta = (2.0 ** -53 * math.factorial(q + 1)) ** (1.0 / (q + 1))
        if norm < theta:
            break
    # 2^-k norm < theta; k = 0 unless past the largest degree's theta
    return q, max(0, math.frexp(norm / theta)[1])


def _expm(W, scaling=None):
    """exp of each real square matrix of W (..., n, n); may overwrite W.

    Scaling and squaring of the Taylor polynomial of degree q, with (q, k)
    = `scaling`, by default `_scaling(W)`.  The polynomial is evaluated by
    Paterson-Stockmeyer: the powers W, ..., W^s, s = ceil(sqrt(q)), and
    Horner's rule in W^s over blocks of s coefficients."""
    q, k = _scaling(W) if scaling is None else scaling
    if k:
        W *= 2.0 ** -k
    s = math.isqrt(q - 1) + 1
    powers = [None, W]
    for _ in range(s - 1):
        powers.append(powers[-1] @ W)
    c = [1.0 / math.factorial(i) for i in range(q + 1)]
    diag = (np.arange(W.shape[-1]),) * 2

    def add_block(P, i, tmp):
        """P += sum over l < s of c[i s + l] W^l, with tmp as scratch."""
        for j in range(1, s):
            P += np.multiply(powers[j], c[i * s + j], out=tmp)
        P[(...,) + diag] += c[i * s]

    # the top block is c[q] I, so Horner's rule starts one product in
    P = powers[s] * c[q]
    tmp = np.empty_like(P)
    add_block(P, q // s - 1, tmp)
    for i in range(q // s - 2, -1, -1):
        P, tmp = np.matmul(P, powers[s], out=tmp), P
        add_block(P, i, tmp)
    for _ in range(k):
        P, tmp = np.matmul(P, P, out=tmp), P
    return P


def _chain(S, forward):
    """Product of S (..., N, n, n) over its axis -3, N a power of 2:
    S[N-1] ... S[0] if forward, else S[0] ... S[N-1]."""
    while S.shape[-3] > 1:
        first, second = S[..., 0::2, :, :], S[..., 1::2, :, :]
        S = second @ first if forward else first @ second
    return S[..., 0, :, :]


def _split_propagators(R, start, k):
    """Propagators of the edges between consecutive nodes of R
    (lines, m, n, n), directed as in `transport_lines`, each the product
    of 2^k Magnus steps over equal sub-edges.  The coefficient is
    interpolated linearly at the sub-edge ends; a sub-edge of length
    h = 2^-k of its edge carries h times it.  Edges go a chunk at a time,
    so that the sub-edge arrays stay about the size of the edge arrays."""
    lines, m = R.shape[:2]
    N = 1 << k
    t = (np.arange(N) / N)[:, None, None]
    P = np.empty((lines, m - 1) + R.shape[2:])
    chunk = max(1, (m - 1) >> k)
    for e0 in range(0, m - 1, chunk):
        e1 = min(e0 + chunk, m - 1)
        R0, R1 = R[:, e0:e1, None], R[:, e0 + 1:e1 + 1, None]
        nodes = np.empty((lines, (e1 - e0) * N + 1) + R.shape[2:])
        nodes[:, :-1] = (R0 + t * (R1 - R0)).reshape(nodes[:, :-1].shape)
        nodes[:, -1] = R[:, e1]
        nodes *= 1.0 / N
        W = _magnus(nodes).reshape(R0.shape[:2] + (N,) + R.shape[2:])
        # the edges below `start` run backward, from their last sub-edge
        back = min(max(start - e0, 0), e1 - e0)
        W[:, :back] *= -1.0
        S = _expm(W)
        P[:, e0:e0 + back] = _chain(S[:, :back], False)
        P[:, e0 + back:e1] = _chain(S[:, back:], True)
    return P


def transport_polyline(A, B, d1, d2, pts, F0, row=True, periodic=False,
                       max_step=0.5):
    """Frames at the nodes of the lattice path `pts` ((npts, 2) node
    indices, unwrapped on a torus) transported from F0, (npts,) + F0.shape.
    Each straight run of equal steps is one line of `transport_lines`.
    ValueError unless each point is a node of the grid and each step one
    lattice edge or none.  `max_step` is ignored: every edge is one
    Magnus step."""
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
                        out[None, run], 0, row)
    return out


def transport_lines(A, B, zdot, frames, start, row=True):
    """Transport along every lattice line frames[i, :] from its node
    `start` outward, in place: frames ((lines, m) + frame shape) holds the
    frame at each line's node `start` on entry and the frames at all its
    nodes on return.  A and B ((lines, m, r, r)) are the coefficients at
    the same nodes, and the step from node j to node j + 1 of a line is
    zdot.  Each edge is one Magnus step of the coefficient interpolated
    linearly between its end nodes.  Lines go a block at a time, so that
    each per-edge array of a block stays within LINES_BLOCK_BYTES.
    Returns the number of edges it ran."""
    lines, m = frames.shape[:2]
    r = A.shape[-1]
    # edge j joins nodes j and j + 1 and runs away from `start`: from j to
    # j + 1 at and above it, from j + 1 to j below it, which negates Omega
    sign = np.where(np.arange(m - 1) >= start, 1.0, -1.0)[:, None, None]
    block = max(1, LINES_BLOCK_BYTES // (max(m - 1, 1) * 8 * (2 * r) ** 2))
    for i in range(0, lines, block):
        rows = slice(i, i + block)
        C = A[rows] * zdot + B[rows] * np.conj(zdot)
        R = _realify(C if row else np.swapaxes(C, -1, -2))
        W = _magnus(R)
        q, k = _scaling(W)
        if k:
            # too large for one step: 2^k sub-edges, each about 2^-k
            # times the size of its edge
            P = _split_propagators(R, start, k)
        else:
            W *= sign
            P = _expm(W, (q, 0))
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
    return lines * (m - 1)
