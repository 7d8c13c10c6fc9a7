"""RK4 transport kernel.

Transport of a small matrix frame F along a polyline through a grid of
square connection coefficient matrices A, B, solving

    dF/dt = (A(z) zdot + B(z) conj(zdot)) F        (row convention)
    dF/dt = F (A(z) zdot + B(z) conj(zdot))        (column convention)

by classical RK4 with bilinear interpolation of A and B in lattice
coordinates.  The sample points do not depend on F and the system is
linear, so every substep's coefficients and its one-step propagator
M = I + h/6 (K1 + 2 K2 + 2 K3 + K4) are built in batched numpy; the only
sequential work left is the chain F <- M F.
"""

import numpy as np


def _sample_coeff(A, B, x, y, zdot, periodic):
    """Bilinear samples of A zdot + B conj(zdot) at lattice points (x, y);
    x, y have shape (3, S) and zdot shape (S,)."""
    n0, n1 = A.shape[:2]
    if periodic:
        i0 = np.floor(x).astype(np.intp)
        j0 = np.floor(y).astype(np.intp)
        fx = x - i0
        fy = y - j0
        i0 %= n0
        j0 %= n1
        i1 = (i0 + 1) % n0
        j1 = (j0 + 1) % n1
    else:
        x = np.clip(x, 0.0, n0 - 1.0)
        y = np.clip(y, 0.0, n1 - 1.0)
        i0 = np.minimum(np.floor(x).astype(np.intp), n0 - 2)
        j0 = np.minimum(np.floor(y).astype(np.intp), n1 - 2)
        fx = x - i0
        fy = y - j0
        i1 = i0 + 1
        j1 = j0 + 1
    w = np.stack([(1.0 - fx) * (1.0 - fy), fx * (1.0 - fy),
                  (1.0 - fx) * fy, fx * fy])[..., None, None]
    I = np.stack([i0, i1, i0, i1])
    J = np.stack([j0, j0, j1, j1])
    a = A[I, J]                       # one gather per array: (4, 3, S, m, m)
    b = B[I, J]
    av = w[0] * a[0] + w[1] * a[1] + w[2] * a[2] + w[3] * a[3]
    bv = w[0] * b[0] + w[1] * b[1] + w[2] * b[2] + w[3] * b[3]
    zdot = zdot[:, None, None]
    return av * zdot + bv * np.conj(zdot)


def transport_polyline(A, B, d1, d2, pts, F0, row=True, periodic=False,
                       max_step=0.5):
    """Frames at the vertices of the lattice polyline `pts` ((npts, 2)
    floats) transported from F0; returns an (npts, m, n) array.  Each
    segment takes int(|zdot| / max_step) + 1 RK4 substeps."""
    pts = np.asarray(pts, dtype=np.float64)
    F = np.asarray(F0, dtype=np.complex128)
    if not row:
        F = F.T   # column convention: the row system on the transposes
    d = np.diff(pts, axis=0)
    zdot = d[:, 0] * complex(d1) + d[:, 1] * complex(d2)
    nsub = (np.abs(zdot) / float(max_step)).astype(np.int64) + 1
    ends = np.cumsum(nsub)
    seg = np.repeat(np.arange(len(nsub)), nsub)
    q = np.arange(seg.size) - (ends - nsub)[seg]
    h = 1.0 / nsub[seg]
    t0 = q * h
    t = np.stack([t0, t0 + 0.5 * h, t0 + h])
    C = _sample_coeff(A, B, pts[seg, 0] + t * d[seg, 0],
                      pts[seg, 1] + t * d[seg, 1], zdot[seg], periodic)
    if not row:
        C = np.swapaxes(C, -1, -2)
    C0, Cm, C1 = C
    h = h[:, None, None]
    K2 = Cm + (0.5 * h) * (Cm @ C0)
    K3 = Cm + (0.5 * h) * (Cm @ K2)
    K4 = C1 + h * (C1 @ K3)
    M = (h / 6.0) * (C0 + 2.0 * K2 + 2.0 * K3 + K4)
    M += np.eye(M.shape[-1])
    chain = np.empty((seg.size + 1,) + F.shape, np.complex128)
    chain[0] = F
    for s in range(seg.size):
        np.matmul(M[s], chain[s], out=chain[s + 1])
    rec = chain[np.concatenate(([0], ends))]
    return rec if row else np.swapaxes(rec, -1, -2)
