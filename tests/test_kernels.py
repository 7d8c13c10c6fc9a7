from types import SimpleNamespace

import numpy as np
import pytest

import titeica as tz
from titeica import _kernels, cli, immersion
from titeica.immersion import integrate_tree


def setup_transport():
    # the two axes take 3 and 5 RK4 substeps per edge (max_step = hmin / 2)
    dom = tz.Domain.rectangle(1.0, 2.0, 20, 17)
    rng = np.random.default_rng(4)
    x, y = dom.z.real, dom.z.imag
    A = (rng.normal(size=(3, 3)) * np.sin(2 * np.pi * x)[..., None, None]
         + 0.2j * rng.normal(size=(3, 3)))
    B = (rng.normal(size=(3, 3)) * np.cos(np.pi * y)[..., None, None]).astype(complex)
    F0 = np.eye(3, dtype=complex)
    return dom, A.astype(complex), B, curved_path(), F0


def _toward(a, b):
    """The integers from a toward b, a excluded and b included."""
    step = 1 if b >= a else -1
    return range(a + step, b + step, step)


def staircase(corners):
    """The lattice path through the integer corners, each leg along the
    first axis, then along the second."""
    path = [tuple(corners[0])]
    for (j0, k0), (j1, k1) in zip(corners, corners[1:]):
        path += [(j, k0) for j in _toward(j0, j1)]
        path += [(j1, k) for k in _toward(k0, k1)]
    return np.array(path, dtype=float)


def curved_path():
    """A lattice staircase along one and a half turns of an ellipse inside
    the 20 x 17 grid: both axes, both directions."""
    theta = np.linspace(0.0, 3.0 * np.pi, 40)
    corners = np.rint(np.stack([9.5 + 8.0 * np.cos(theta),
                                8.0 + 6.5 * np.sin(theta)], axis=-1))
    return staircase(corners.astype(int))


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


def edge_path(n, m):
    """Along the last grid row, then down the last grid column: every
    edge ends at the last node of an axis."""
    up = np.stack([np.arange(n, dtype=float), np.full(n, m - 1.0)], axis=-1)
    down = np.stack([np.full(m - 1, n - 1.0),
                     np.arange(m - 2, -1, -1, dtype=float)], axis=-1)
    return np.concatenate([up, down])


def ragged_path():
    """Runs of 3, 1, 1, 2, 4, 1, 2 and 2 steps, zero steps among them:
    edges of 3 or 5 substeps and zero steps of 1 follow each other in no
    particular order."""
    runs = [((1, 0), 3), ((0, 1), 1), ((0, 0), 1), ((-1, 0), 2),
            ((0, 1), 4), ((0, -1), 1), ((0, 0), 2), ((1, 0), 2)]
    steps = np.repeat([s for s, _ in runs], [c for _, c in runs], axis=0)
    return np.cumsum(np.concatenate([[(5, 6)], steps]), axis=0).astype(float)


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


@pytest.mark.parametrize("path", ["curved", "edge", "ragged"])
@pytest.mark.parametrize("periodic", [True, False])
@pytest.mark.parametrize("state", ["row", "column", "row_4x3"])
def test_matches_scalar_rk4(path, periodic, state):
    dom, A, B, pts, F0 = setup_transport()
    if path == "edge":
        pts = edge_path(*dom.shape)
    elif path == "ragged":
        pts = ragged_path()
    if periodic and path != "edge":
        pts = pts + (10, 8)     # across the grid's last nodes, unwrapped
    # curved, ragged: both axes in both directions, and substep counts
    # that differ between steps
    d = np.diff(pts, axis=0)
    nsub = (np.abs(d @ [dom.step1, dom.step2])
            / (dom.hmin / 2)).astype(int) + 1
    assert path == "edge" or (len(set(nsub)) > 1 and {
        (1, 0), (-1, 0), (0, 1), (0, -1)} <= set(map(tuple, d)))
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


BAD_PATHS = {
    "off_node": [[3.0, 4.0], [3.5, 4.0]],
    "diagonal": [[3.0, 4.0], [4.0, 5.0]],
    "two_edges": [[3.0, 4.0], [3.0, 6.0]],
    "outside": [[19.0, 4.0], [20.0, 4.0]],
}


@pytest.mark.parametrize("name", sorted(BAD_PATHS))
def test_kernel_rejects_off_lattice_paths(name):
    dom, A, B, _, F0 = setup_transport()
    pts = np.array(BAD_PATHS[name])
    with pytest.raises(ValueError):
        _kernels.transport_polyline(A, B, dom.step1, dom.step2, pts, F0,
                                    periodic=False, max_step=dom.hmin / 2)
    # on a torus a node past the last one is the first one, unwrapped
    if name == "outside":
        _kernels.transport_polyline(A, B, dom.step1, dom.step2, pts, F0,
                                    periodic=True, max_step=dom.hmin / 2)


@pytest.mark.parametrize("row", [True, False])
def test_one_point_polyline_returns_F0(row):
    dom, A, B, _, _ = setup_transport()
    F0 = np.arange(12.0).reshape(4, 3) * (1 - 0.5j)
    if not row:
        F0 = F0.T
    A4, B4, _ = padded_4x3(dom, A, B)
    if not row:
        A4, B4 = np.swapaxes(A4, -1, -2), np.swapaxes(B4, -1, -2)
    rec = _kernels.transport_polyline(A4, B4, dom.step1, dom.step2,
                                      np.array([[3.0, 5.0]]), F0, row=row,
                                      max_step=dom.hmin / 2)
    assert rec.shape == (1,) + F0.shape
    assert np.array_equal(rec[0], F0)


def _halves(shape, root, axis, fixed):
    """The two halves of the lattice line along `axis` whose other
    coordinate is `fixed`, each from coordinate root[axis] outward."""
    lines = []
    for stop in (shape[axis] - 1, 0):
        step = 1 if stop >= root[axis] else -1
        pts = np.empty((abs(stop - root[axis]) + 1, 2), dtype=int)
        pts[:, axis] = np.arange(root[axis], stop + step, step)
        pts[:, 1 - axis] = fixed
        lines.append(pts)
    return lines


def _tree_lines(domain, root, axis_first=0):
    """The spanning comb of integrate_tree as lattice polylines: the two
    halves of a spine along axis_first through `root`, then for each spine
    node the two halves of a tooth along the other axis.  Each line starts
    at a node reached by an earlier line (or at the root)."""
    lines = _halves(domain.shape, root, axis_first, root[1 - axis_first])
    for i in range(domain.shape[axis_first]):
        lines += _halves(domain.shape, root, 1 - axis_first, i)
    return lines


def test_tree_on_2x2_grid():
    # on a 2x2 grid the comb rooted at (1, 1) has one-point halves
    grid = SimpleNamespace(shape=(2, 2), step1=0.5, step2=0.5j, hmin=0.5)
    lines = _tree_lines(grid, (1, 1))
    assert min(len(pts) for pts in lines) == 1
    rng = np.random.default_rng(2)
    A = rng.normal(size=(2, 2, 3, 3)) + 1j * rng.normal(size=(2, 2, 3, 3))
    B = rng.normal(size=(2, 2, 3, 3)) + 1j * rng.normal(size=(2, 2, 3, 3))
    F0 = np.eye(3, dtype=complex)
    frames, counts = integrate_tree(grid, A, B, F0)
    assert counts == {"tree_edges": 3, "tree_substeps": 9}
    assert np.array_equal(frames[1, 1], F0)
    for pts in lines:
        ref = transport_scalar(A, B, grid.step1, grid.step2, pts.astype(float),
                               frames[tuple(pts[0])], True, False, 0.25)
        got = frames[pts[:, 0], pts[:, 1]]
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("row", [True, False])
def test_zero_length_segment_keeps_frame(row):
    dom, A, B, _, F0 = setup_transport()
    F0 = F0 + 0.3j
    pts = np.array([[3.0, 4.0], [3.0, 4.0], [4.0, 4.0], [4.0, 4.0],
                    [4.0, 5.0]])
    rec = _kernels.transport_polyline(A, B, dom.step1, dom.step2, pts, F0,
                                      row=row, periodic=True,
                                      max_step=dom.hmin / 2)
    assert np.array_equal(rec[1], F0)
    assert np.array_equal(rec[3], rec[2])
    assert not np.allclose(rec[2], F0)


def tree_by_lines(domain, A, B, F0, root, row, axis_first):
    """The tree as one scalar RK4 transport per half line of the comb
    (`_tree_lines`): an oracle that shares no code with the kernel."""
    frames = np.empty(domain.shape + F0.shape, dtype=complex)
    frames[root] = F0
    for pts in _tree_lines(domain, root, axis_first):
        frames[pts[:, 0], pts[:, 1]] = transport_scalar(
            A, B, domain.step1, domain.step2, pts.astype(float),
            frames[tuple(pts[0])], row, False, domain.hmin / 2.0)
    return frames


TREE_DOMAINS = {
    # the two axes take 3 and 5 substeps per edge
    "rectangle": (lambda: tz.Domain.rectangle(1.0, 2.0, 20, 17), {3, 5}),
    "oblique_torus": (lambda: tz.Domain.torus(0.3 + 1.1j, 24, 17), {3, 4}),
    "disk_patch": (lambda: tz.Domain.disk_patch(0.7, 16, 16), {3}),
}


@pytest.mark.parametrize("axis_first", [0, 1])
@pytest.mark.parametrize("where", ["centre", "corner_0m", "corner_n0"])
@pytest.mark.parametrize("state", ["row_4x3", "column"])
@pytest.mark.parametrize("name", sorted(TREE_DOMAINS))
def test_tree_matches_per_line_oracle(name, state, where, axis_first):
    make, nsubs = TREE_DOMAINS[name]
    dom = make()
    n, m = dom.shape
    assert {int(_kernels.substeps(s, dom.hmin / 2.0))
            for s in (dom.step1, dom.step2)} == nsubs
    root = {"centre": (n // 2, m // 2), "corner_0m": (0, m - 1),
            "corner_n0": (n - 1, 0)}[where]
    rng = np.random.default_rng(7)
    r = 4 if state == "row_4x3" else 3
    A = rng.normal(size=(n, m, r, r)) + 1j * rng.normal(size=(n, m, r, r))
    B = rng.normal(size=(n, m, r, r)) + 1j * rng.normal(size=(n, m, r, r))
    F0 = rng.normal(size=(r, 3)) + 1j * rng.normal(size=(r, 3))
    row = state != "column"
    got, _ = integrate_tree(dom, A, B, F0, root=root, row=row,
                            axis_first=axis_first)
    ref = tree_by_lines(dom, A, B, F0, root, row, axis_first)
    assert np.array_equal(got[root], F0)
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


# (domain, axis_first) -> the comb's edges and substeps; the spine's edges
# take the substeps of axis_first, the teeth's those of the other axis
TREE_COUNTS = [
    ("rectangle", 0, 339, 1657),
    ("rectangle", 1, 339, 1049),
    ("oblique_torus", 0, 407, 1605),
    ("oblique_torus", 1, 407, 1237),
]


@pytest.mark.parametrize("name, axis_first, edges, nsub", TREE_COUNTS)
def test_tree_reports_the_kernels_counts(name, axis_first, edges, nsub):
    dom = TREE_DOMAINS[name][0]()
    n, m = dom.shape
    A = np.zeros((n, m, 3, 3), dtype=complex)
    F0 = np.eye(3, dtype=complex)
    frames, counts = integrate_tree(dom, A, A, F0, axis_first=axis_first)
    assert counts == {"tree_edges": edges, "tree_substeps": nsub}
    assert np.array_equal(frames, np.broadcast_to(F0, frames.shape))


def test_immerse_runs_the_tree_on_two_lattice_line_calls(tmp_path,
                                                         monkeypatch):
    calls = {"transport_lines": [], "transport_polyline": []}

    def counted(name, kernel):
        def wrapper(*args, **kwargs):
            calls[name].append(args)
            return kernel(*args, **kwargs)
        return wrapper

    # the kernels wherever the tree could reach them
    for name in calls:
        kernel = getattr(_kernels, name)
        for module in (_kernels, immersion):
            if getattr(module, name, None) is kernel:
                monkeypatch.setattr(module, name, counted(name, kernel))
    cfg = {"schema_version": 1, "case": "hyperbolic_affine_sphere",
           "domain": {"kind": "torus", "tau": [0.0, 1.0], "shape": [16, 16]},
           "cubic": {"kind": "constant", "c": [1.0, 0.0]},
           "outputs": {"report": "report.json"}}
    code, report = cli.run(cfg, "immerse", tmp_path)
    assert code == 0
    assert calls["transport_polyline"] == []
    # the spine, one line of 16 nodes, then the 16 teeth
    assert [args[3].shape[:2] for args in calls["transport_lines"]] == [
        (1, 16), (16, 16)]
    # 255 edges of 3 substeps each (|step| = 1/16, max_step = 1/32)
    assert report["transport"] == {"tree_edges": 255, "tree_substeps": 765}
