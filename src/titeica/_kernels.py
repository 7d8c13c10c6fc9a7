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
exp(Omega) in its group to rounding.

`transport_lines` runs every lattice line of a batch from one node
outward: the whole reconstruction tree is two calls, the spine and then
every tooth along the other axis.  It sweeps tiles of edges that span
every line, each tile's propagators built in batched numpy from its slab
of the fields; the only sequential work is the chain F <- P F of a
frontier of all the lines' frames, one product per edge.  The tile that
holds the edges next to the start node runs first and carries both
frontiers, the one up and the one down; then the tiles above and below
run outward.  The series converges only for small Omega, so where
`_expm` would need k > 0 squarings for a tile, that tile is refined
instead to 2^k sub-edges per edge, each one Magnus step of the linear
coefficient between its ends.  Where every field takes one value on all
the lines, as on a torus, where the cubic differential is c dz^3 and
the metric the constant (1/3) log(8 |c|^2), C is one matrix, each edge's
Omega is C itself, and the same loop chains exp(C) and exp(-C), made
once, in one tile of all the edges, with no per-edge array or bracket.

`transport_polyline` adapts it to a path of grid nodes, each step one
lattice edge or none (paths and holonomy loops), and is the one check of
such a path: each straight run of equal steps is one line, and the runs
are chained.  For a flat connection transport depends only on the
homotopy class of the path, so a path through grid nodes loses nothing.

All small-matrix products run in real arithmetic: a complex frame as
[Re F; Im F] under the blocks [[X, -Y], [Y, X]] of C = X + iY, a ring
homomorphism, a real frame under X, C for a form real in its gauge.  C is
one product of [Re c, Im c], c = f zdot, with the form's real pattern.
"""

import math

import numpy as np

# bytes of one per-edge array of a tile of edges in transport_lines,
# float64 of shape (lines, T, N, N); the Magnus terms and the exponential
# hold up to six such arrays at a time
TILE_BYTES = 1 << 18

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


def _constant(X):
    """Whether every entry of X equals every other (NaN equals none), by
    reductions that allocate no array of X's size."""
    parts = (X.real, X.imag) if np.iscomplexobj(X) else (X,)
    return all(Y.min() == Y.max() for Y in parts)


def transport_lines(step, fields, zdot, frames, start):
    """Transport along every lattice line frames[i, :] from its node
    `start` outward by dF/dt = C F, in place: frames ((lines, m, r, c),
    real, or complex to run as [Re F; Im F]) holds the frame at each
    line's node `start` on entry and the frames at all its nodes on
    return.  The step from node j to node j + 1 is zdot, and
    step(zdot, *slab) is the real coefficient C (lines, m', N, N) at the
    m' nodes whose `fields` (each (lines, m, ...)) are `slab`, N = r for
    a real frame and 2r for a complex one.  The edges 0..m-2 go in tiles
    [a, a + T) of every line, T >= 1 the most edges whose per-edge
    array (lines, T, N, N) stays within TILE_BYTES.  The tile that holds the
    edges next to `start` runs first, advancing a frontier (lines, N, c)
    up through its edges at and above `start` and one down through the
    rest, whose Omega are negated; then the tiles above run upward and
    those below downward.  A tile for which `_expm` would need k > 0
    squarings is refined to 2^k sub-edges per edge.  Where every field
    equals its first entry on all the lines (NaN never does) and exp(C)
    needs no squarings, exp(C) and exp(-C) are the propagators of one
    tile of all the edges.  Returns the number of edges it ran: 0 for
    no lines or one-node lines, whose frames stay as they are."""
    lines, m = frames.shape[:2]
    if not lines or m < 2:
        return 0
    r = frames.shape[-2]
    cplx = np.iscomplexobj(frames)
    n = 2 * r if cplx else r
    E = None
    if all(map(_constant, fields)):
        # every edge's Omega as _magnus sums it where b = 0: +0 + a, so
        # that a -0 entry of C reads +0
        W = step(zdot, *(X[:1, :1] for X in fields))[0, 0] + 0.0
        q, k = _scaling(W)
        # a C of infinite norm, for which _scaling also gives k = 0, takes
        # the tiles' Magnus steps
        if not k and math.isfinite(np.abs(W).sum()):
            E = _expm(np.stack([W, -W]), (q, 0))
    T = m - 1 if E is not None else max(
        1, TILE_BYTES // (lines * 8 * n * n))

    # the parts of the frames that the frontier's rows [Re F; Im F] fill
    re, im = (frames.real, frames.imag) if cplx else (frames, None)

    def chain(P, X, j, dj, N):
        """The frontier X carried through the sub-edges P (lines or 1, ...,
        N, N) in turn from node j, a node each N sub-edges in the direction
        dj, each node's frames stored as it is reached."""
        Y = np.empty_like(X)
        for i in range(P.shape[1]):
            X, Y = np.matmul(P[:, i], X, out=Y), X
            if (i + 1) % N == 0:
                j += dj
                re[:, j] = X[..., :r, :]
                if cplx:
                    im[:, j] = X[..., r:, :]
        return X

    F = frames[:, start]
    up = np.concatenate([F.real, F.imag], axis=-2) if cplx else F.copy()
    down = up.copy()
    # the tile of the edges next to `start`, then those above and below it
    a0 = min(start, m - 2) // T * T
    for a in [a0, *range(a0 + T, m - 1, T), *range(a0 - T, -1, -T)]:
        # the tile's edges from node a + s up run from their lower node,
        # its first s edges, below `start`, from their upper node, which
        # negates their Omega
        b = min(a + T, m - 1)
        s = min(max(start - a, 0), b - a)
        if E is not None:
            k, P = 0, [np.broadcast_to(X, (1, e, n, n))
                       for X, e in ((E[0], b - a - s), (E[1], s))]
        else:
            R = step(zdot, *(X[:, a:b + 1] for X in fields))
            W = _magnus(R)
            q, k = _scaling(W)
            if k:
                # too large for one step: the tile refined to 2^k sub-edges
                # per edge, the coefficient interpolated linearly at the
                # sub-nodes and scaled by the sub-edge's length 2^-k
                t = (np.arange(1 << k) / (1 << k))[:, None, None]
                R0, R1 = R[:, :-1, None], R[:, 1:, None]
                fine = (R0 + t * (R1 - R0)).reshape((lines, -1) + R.shape[2:])
                fine = np.concatenate([fine, R[:, -1:]], axis=1)
                fine *= 2.0 ** -k
                W = _magnus(fine)
            W[:, :s << k] *= -1.0
            P = _expm(W, None if k else (q, 0))
            P = [P[:, s << k:], P[:, :s << k][:, ::-1]]
        up = chain(P[0], up, a + s, 1, 1 << k)
        down = chain(P[1], down, a + s, -1, 1 << k)
    return lines * (m - 1)
