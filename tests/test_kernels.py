import numpy as np
import pytest

import titeica as tz
from titeica import _kernels


def setup_transport(n=24):
    dom = tz.Domain.torus(1j, n, n)
    rng = np.random.default_rng(4)
    x, y = dom.z.real, dom.z.imag
    A = (rng.normal(size=(3, 3)) * np.sin(2 * np.pi * x)[..., None, None]
         + 0.2j * rng.normal(size=(3, 3)))
    B = (rng.normal(size=(3, 3)) * np.cos(2 * np.pi * y)[..., None, None]).astype(complex)
    t = np.linspace(0.0, 1.0, 4 * n + 1)
    pts = np.stack([n * t, n * t ** 2], axis=-1)   # a curved lattice path
    F0 = np.eye(3, dtype=complex)
    return dom, A.astype(complex), B, pts, F0


def _sample_scalar(A, B, x, y, zdot, periodic):
    """Bilinear sample of A zdot + B conj(zdot) at one lattice point."""
    n0, n1 = A.shape[:2]
    if periodic:
        x, y = x % n0, y % n1
        i0, j0 = int(np.floor(x)), int(np.floor(y))
        fx, fy = x - i0, y - j0
        i0, j0 = i0 % n0, j0 % n1
        i1, j1 = (i0 + 1) % n0, (j0 + 1) % n1
    else:
        x = min(max(x, 0.0), n0 - 1.0)
        y = min(max(y, 0.0), n1 - 1.0)
        i0 = min(int(np.floor(x)), n0 - 2)
        j0 = min(int(np.floor(y)), n1 - 2)
        fx, fy = x - i0, y - j0
        i1, j1 = i0 + 1, j0 + 1
    w = [(1.0 - fx) * (1.0 - fy), fx * (1.0 - fy), (1.0 - fx) * fy, fx * fy]
    corners = [(i0, j0), (i1, j0), (i0, j1), (i1, j1)]
    av = sum(wc * A[c] for wc, c in zip(w, corners))
    bv = sum(wc * B[c] for wc, c in zip(w, corners))
    return av * zdot + bv * np.conj(zdot)


def transport_scalar(A, B, d1, d2, pts, F0, row, periodic, max_step):
    """Reference: one RK4 substep at a time, applying k = C F directly."""
    def apply(C, F):
        return C @ F if row else F @ C

    F = np.array(F0, dtype=complex)
    record = [F.copy()]
    for s in range(len(pts) - 1):
        x0, y0 = pts[s]
        dx, dy = pts[s + 1] - pts[s]
        zdot = dx * d1 + dy * d2
        nsub = int(abs(zdot) / max_step) + 1
        h = 1.0 / nsub
        for q in range(nsub):
            t0 = q * h
            tm, t1 = t0 + 0.5 * h, t0 + h
            C0 = _sample_scalar(A, B, x0 + t0 * dx, y0 + t0 * dy, zdot, periodic)
            Cm = _sample_scalar(A, B, x0 + tm * dx, y0 + tm * dy, zdot, periodic)
            C1 = _sample_scalar(A, B, x0 + t1 * dx, y0 + t1 * dy, zdot, periodic)
            k1 = apply(C0, F)
            k2 = apply(Cm, F + 0.5 * h * k1)
            k3 = apply(Cm, F + 0.5 * h * k2)
            k4 = apply(C1, F + h * k3)
            F = F + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        record.append(F.copy())
    return np.array(record)


def edge_path(n):
    """Along the last grid row, then down the last grid column: every
    sample sits on the upper clamp of the non-periodic interpolation."""
    last = np.full(n, n - 1.0)
    up = np.stack([np.arange(n, dtype=float), last], axis=-1)
    down = np.stack([last[1:], np.arange(n - 2, -1, -1, dtype=float)], axis=-1)
    return np.concatenate([up, down])


def padded_4x3(dom, A, B):
    A4 = np.zeros(dom.shape + (4, 4), dtype=complex)
    A4[..., :3, :3] = A
    A4[..., 3, 0] = 1.0
    B4 = np.zeros_like(A4)
    B4[..., :3, :3] = B
    B4[..., 3, 1] = 1.0
    F0 = np.zeros((4, 3), dtype=complex)
    F0[:3, :3] = np.eye(3)
    return A4, B4, F0


@pytest.mark.parametrize("path", ["curved", "edge"])
@pytest.mark.parametrize("periodic", [True, False])
@pytest.mark.parametrize("state", ["row", "column", "row_4x3"])
def test_matches_scalar_rk4(path, periodic, state):
    n = 24
    dom, A, B, pts, F0 = setup_transport(n)
    if path == "edge":
        pts = edge_path(n)
    # curved: substep counts differ between segments
    nsub = (np.abs(np.diff(pts, axis=0) @ [dom.step1, dom.step2])
            / (dom.hmin / 2)).astype(int) + 1
    assert path == "edge" or len(set(nsub)) > 1
    if state == "row_4x3":
        A, B, F0 = padded_4x3(dom, A, B)
    row = state != "column"
    args = (A, B, dom.step1, dom.step2, pts, F0)
    got = _kernels.transport_polyline(*args, row=row, periodic=periodic,
                                      max_step=dom.hmin / 2)
    ref = transport_scalar(*args, row, periodic, dom.hmin / 2)
    assert got.shape == ref.shape == (len(pts),) + F0.shape
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def test_transport_records_every_vertex():
    dom, A, B, pts, F0 = setup_transport()
    rec = _kernels.transport_polyline(A, B, dom.step1, dom.step2, pts, F0,
                                      row=True, periodic=True,
                                      max_step=dom.hmin / 2)
    assert rec.shape == (pts.shape[0], 3, 3)
    assert np.array_equal(rec[0], F0)
    assert np.isfinite(rec).all()


def test_transport_row_vs_column_transpose():
    dom, A, B, pts, F0 = setup_transport()
    row = _kernels.transport_polyline(A, B, dom.step1, dom.step2, pts, F0,
                                      row=True, periodic=True,
                                      max_step=dom.hmin / 2)
    col = _kernels.transport_polyline(np.swapaxes(A, -1, -2).copy(),
                                      np.swapaxes(B, -1, -2).copy(),
                                      dom.step1, dom.step2, pts, F0,
                                      row=False, periodic=True,
                                      max_step=dom.hmin / 2)
    assert np.abs(row - np.swapaxes(col, -1, -2)).max() < 1e-12


def test_rectangular_state_supported():
    # immersion systems carry (rows x vector-dim) states, e.g. 4x3
    dom, A, B, pts, F0 = setup_transport()
    A4 = np.zeros(dom.shape + (4, 4), dtype=complex)
    A4[..., :3, :3] = A
    B4 = np.zeros_like(A4)
    B4[..., :3, :3] = B
    F0 = np.zeros((4, 3), dtype=complex)
    F0[:3, :3] = np.eye(3)
    rec = _kernels.transport_polyline(A4, B4, dom.step1, dom.step2, pts, F0,
                                      row=True, periodic=True,
                                      max_step=dom.hmin / 2)
    assert rec.shape == (pts.shape[0], 4, 3)
    assert np.isfinite(rec).all()
