"""RK4 transport kernel.

Transport of a small matrix frame F along a polyline through a grid of
square connection coefficient matrices A, B, solving

    dF/dt = (A(z) zdot + B(z) conj(zdot)) F        (row convention)
    dF/dt = F (A(z) zdot + B(z) conj(zdot))        (column convention)

by classical RK4 with bilinear interpolation of A and B in lattice
coordinates.  The sample points do not depend on F and the system is
linear, so every substep's one-step propagator
M = I + h/6 (K1 + 2 K2 + 2 K3 + K4) is built in batched numpy, and the
propagators of each polyline segment are multiplied together in batch;
the only sequential work left is the chain F <- P F, once per segment.

All small-matrix products run in real arithmetic: a complex r x r
coefficient C = X + iY acts as the real 2r x 2r block [[X, -Y], [Y, X]]
on the stacked frame [Re F; Im F].  This map is a ring homomorphism, so
the real chain is the complex one written out, and batched real
products are several times cheaper than complex ones.
"""

import numpy as np


def _realified_samples(A, B, xy, zdot, periodic, row):
    """Real blocks [[X, -Y], [Y, X]] of the bilinear samples
    X + iY = A zdot + B conj(zdot) at the lattice points xy ((S, 2)),
    transposed in the column convention; zdot has shape (S,)."""
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
    if not row:
        C = np.swapaxes(C, -1, -2)
    R = np.empty((C.shape[0], 2 * r, 2 * r))
    R[:, :r, :r] = R[:, r:, r:] = C.real
    R[:, r:, :r] = C.imag
    np.negative(C.imag, out=R[:, :r, r:])
    return R


def _plus_product(X, Y, s):
    """X + s X Y, accumulated in the product's buffer."""
    out = X @ Y
    out *= s
    out += X
    return out


def transport_polyline(A, B, d1, d2, pts, F0, row=True, periodic=False,
                       max_step=0.5):
    """Frames at the vertices of the lattice polyline `pts` ((npts, 2)
    floats) transported from F0; returns an (npts, m, n) array.  Each
    segment takes int(|zdot| / max_step) + 1 RK4 substeps."""
    pts = np.asarray(pts, dtype=np.float64)
    F = np.asarray(F0, dtype=np.complex128)
    if not row:
        F = F.T   # column convention: the row system on the transposes
    r = A.shape[-1]
    d = np.diff(pts, axis=0)
    zdot = d[:, 0] * complex(d1) + d[:, 1] * complex(d2)
    nsub = (np.abs(zdot) / float(max_step)).astype(np.int64) + 1
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
    R = R.reshape(nsub.size, 2 * L + 1, 2 * r, 2 * r)
    C0, Cm, C1 = R[:, :-1:2], R[:, 1::2], R[:, 2::2]
    h = np.where(np.arange(L) < nsub[:, None], 1.0 / nsub[:, None], 0.0)
    h = h[..., None, None]
    K2 = _plus_product(Cm, C0, 0.5 * h)
    K3 = _plus_product(Cm, K2, 0.5 * h)
    K4 = _plus_product(C1, K3, h)
    M = (h / 6.0) * (C0 + 2.0 * (K2 + K3) + K4)
    M += np.eye(2 * r)         # M = I + h/6 (K1 + 2 K2 + 2 K3 + K4)
    # each segment's propagator P = M_(L-1) ... M_1 M_0, in batch
    P = M[:, 0]
    for j in range(1, L):
        P = M[:, j] @ P
    chain = np.empty((nsub.size + 1, 2 * r, F.shape[-1]))
    chain[0, :r] = F.real
    chain[0, r:] = F.imag
    links = list(chain)       # 2-d views: np.dot is the cheapest small product
    for p, f, out in zip(P, links, links[1:]):
        np.dot(p, f, out=out)
    rec = chain[:, :r] + 1j * chain[:, r:]
    return rec if row else np.swapaxes(rec, -1, -2)
