"""Magnus transport kernel.

Transport of a small matrix frame F along lattice lines of a grid by

    dF/dt = C(z) F,

with C the real step coefficient of the system at the grid's nodes,
interpolated linearly along each lattice edge.  On an edge the
coefficient is C(t) = a + (t - 1/2) b, with a the mean and b the
difference of its values at the two end nodes, and the edge's
propagator is exp(Omega) for the sixth-order Magnus expansion

    Omega = a + K/12 + [b, K]/240 - [a, [a, K]]/720,   K = [b, a]

(Iserles, Munthe-Kaas, Norsett & Zanna, Acta Numerica 9, 2000; Blanes,
Casas, Oteo & Ros, Phys. Rep. 470, 2009): one step per edge, exact where
the coefficient is constant, as on every torus.  Omega is built from a, b
and their brackets, so it lies in the Lie algebra of the connection and
exp(Omega) in its group to rounding.  The series converges only for small
Omega, so where `_expm` would need k > 0 squarings for a block of lines,
the block's lines are refined instead to 2^k sub-edges per edge, each one
Magnus step of the linear coefficient between its ends, and stepped by
the same loop.  `transport_lines` runs a block of lattice lines, each
from one node outward: the whole reconstruction tree is two calls, the
spine and then every tooth along the other axis.  `transport_polyline`
adapts it to a path of grid nodes, each step one lattice edge or none
(paths and holonomy loops), and is the one check of such a path: each
straight run of equal steps is one line, and the runs are chained.  For
a flat connection transport depends only on the homotopy class of the
path, so a path through grid nodes loses nothing.

The propagators do not depend on F, so those of a block of lines are
built in batched numpy; the only sequential work left is the chain
F <- P F, once per edge (or sub-edge) away from a line's start node.

All small-matrix products run in real arithmetic: a complex frame as
[Re F; Im F] under the blocks [[X, -Y], [Y, X]] of C = X + iY, a ring
homomorphism, a real frame under X, C for a form real in its gauge.  C is
one product of [Re c, Im c], c = f zdot, with the form's real pattern.
"""

import math

import numpy as np

# bytes of one per-edge array of a block of lines in transport_lines,
# float64 of shape (lines, m - 1, N, N); the Magnus terms and the
# exponential hold up to six such arrays at a time
LINES_BLOCK_BYTES = 1 << 18

# Taylor degrees of _expm, cheapest first; each is a multiple of
# s = ceil(sqrt(q)), and costs s - 1 + q / s - 1 products
_DEGREES = (4, 6, 9, 12, 16)


def real_pattern(terms, real):
    """(fields, P): the K distinct field arrays f of the row system
    `terms`, each (f, M, dzbar), and P (2K, N N) with C = [Re c, Im c] P,
    c_k = f_k zdot.  A dz term adds Re c M + Im c iM to C, a dzbar term
    Re c M - Im c iM; a part X realifies to [[Re X, -Im X], [Im X, Re X]]
    (N = 2r), or to Re X on a real frame (N = r)."""
    parts = {}      # id(f): (f, the parts of Re c and of Im c)
    for f, M, dzbar in terms:
        _, X = parts.setdefault(id(f), (f, np.zeros((2,) + M.shape, complex)))
        X += [M, (-1j if dzbar else 1j) * M]
    fields = [f for f, _ in parts.values()]
    X = np.stack([p for _, p in parts.values()], axis=1).reshape(-1, *M.shape)
    if not real:
        X = np.block([[X.real, -X.imag], [X.imag, X.real]])
    return fields, X.real.reshape(len(X), -1)


def pattern_step(P, zdot, *fields):
    """The real coefficient C (..., N, N) at the nodes of the fields (...):
    [Re c, Im c] P, c_k = f_k zdot (`real_pattern`)."""
    K = len(fields)
    X = np.empty(np.shape(fields[0]) + (2 * K,))
    for k, f in enumerate(fields):
        c = f * zdot
        X[..., k], X[..., K + k] = c.real, c.imag
    return (X @ P).reshape(X.shape[:-1] + (math.isqrt(P.shape[1]),) * 2)


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


def transport_polyline(step, fields, d1, d2, pts, F0, periodic=False,
                       max_step=0.5):
    """Frames at the nodes of the lattice path `pts` ((npts, 2) node
    indices, unwrapped on a torus) transported from F0 by the row system
    C = step(zdot, *block) of the (n, m) `fields`, (npts,) + F0.shape.
    Each straight run of equal steps is one line of `transport_lines`.
    ValueError unless `pts` is a non-empty (npts, 2) array, each point a
    node of the grid and each step one lattice edge or none.  `max_step`
    is ignored: every edge is one Magnus step."""
    pts = np.asarray(pts, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2 or not len(pts):
        raise ValueError("a path is a non-empty (npts, 2) array of nodes")
    nodes, shape = np.rint(pts).astype(np.intp), np.array(fields[0].shape)
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
    starts = [a for a, d_a in enumerate(steps)
              if a == 0 or d_a != steps[a - 1]]
    for a, b in zip(starts, starts[1:] + [len(steps)]):
        run = slice(a, b + 1)
        transport_lines(
            step, [X[j[run], k[run]][None] for X in fields],
            d[a, 0] * complex(d1) + d[a, 1] * complex(d2), out[None, run], 0)
    return out


def transport_lines(step, fields, zdot, frames, start):
    """Transport along every lattice line frames[i, :] from its node
    `start` outward by dF/dt = C F, in place: frames ((lines, m, r, c),
    real, or complex to run as [Re F; Im F]) holds the frame at each
    line's node `start` on entry and the frames at all its nodes on
    return.  The step from node j to node j + 1 of a line is zdot, and
    step(zdot, *block) is the real coefficient C (b, m, N, N) at the
    nodes of the block of b lines whose per-node `fields` (each
    (lines, m, ...)) are `block`, N = r for a real frame and 2r for a
    complex one.  Each edge is one Magnus step of the coefficient
    interpolated linearly between its end nodes, or 2^k where one step
    would not converge.  Lines go a block at a time, so that each
    per-edge array of a block stays within LINES_BLOCK_BYTES; a block
    refined to 2^k sub-edges per edge holds 2^k times that in each
    per-sub-edge array.  Returns the number of edges it ran."""
    lines, m = frames.shape[:2]
    r = frames.shape[-2]
    cplx = np.iscomplexobj(frames)
    n = 2 * r if cplx else r
    block = max(1, LINES_BLOCK_BYTES // (max(m - 1, 1) * 8 * n * n))
    for i in range(0, lines, block):
        rows = slice(i, i + block)
        R = step(zdot, *(X[rows] for X in fields))
        W = _magnus(R)
        q, k = _scaling(W)
        if k:
            # too large for one step: the line refined to 2^k sub-edges
            # per edge, the coefficient interpolated linearly at the
            # sub-nodes and scaled by the sub-edge's length 2^-k
            N = 1 << k
            t = (np.arange(N) / N)[:, None, None]
            R0, R1 = R[:, :-1, None], R[:, 1:, None]
            fine = np.empty((R.shape[0], (m - 1) * N + 1) + R.shape[2:])
            fine[:, :-1] = (R0 + t * (R1 - R0)).reshape(fine[:, :-1].shape)
            fine[:, -1] = R[:, -1]
            fine *= 1.0 / N
            W = _magnus(fine)
        # edge j joins nodes j and j + 1 and runs away from `start`: from j
        # to j + 1 at and above it, from j + 1 to j below it, which negates
        # Omega; on the refined line `start` is node start 2^k
        s = start << k
        W[:, :s] *= -1.0
        P = _expm(W, None if k else (q, 0))
        F = frames[rows, start]
        X = np.empty(F.shape[:1] + (W.shape[1] + 1, n) + F.shape[2:])
        X[:, s] = np.concatenate([F.real, F.imag], axis=-2) if cplx else F
        for j in range(s, W.shape[1]):
            np.matmul(P[:, j], X[:, j], out=X[:, j + 1])
        for j in range(s - 1, -1, -1):
            np.matmul(P[:, j], X[:, j + 1], out=X[:, j])
        X = X[:, ::1 << k]
        frames[rows] = X[..., :r, :] + 1j * X[..., r:, :] if cplx else X
    return lines * (m - 1)
