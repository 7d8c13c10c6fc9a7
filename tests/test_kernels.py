import math
import sys
import tracemalloc
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import expm

import titeica as tz
from titeica import _kernels, cli, immersion
from titeica.frames import (affine_connection, build_connection,
                            torus_generator)
from titeica.immersion import integrate_tree
from titeica.projective import holonomy_report

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "pipebench"))
import workloads  # noqa: E402
from tests.conftest import (AFFINE_GAUGE, affine_complex_system,  # noqa: E402
                            dense_form)


def setup_transport():
    # steps of 1/19 and 1/8 along the two axes
    dom = tz.Domain.rectangle(1.0, 2.0, 20, 17)
    rng = np.random.default_rng(4)
    x, y = dom.z.real, dom.z.imag
    A = (rng.normal(size=(3, 3)) * np.sin(2 * np.pi * x)[..., None, None]
         + 0.2j * rng.normal(size=(3, 3)))
    B = (rng.normal(size=(3, 3)) * np.cos(np.pi * y)[..., None, None]).astype(complex)
    F0 = np.eye(3, dtype=complex)
    return dom, A.astype(complex), B, curved_path(), F0


def polyline(A, B, d1, d2, pts, F0, row=True, periodic=False, max_step=0.5):
    """_kernels.transport_polyline of the system A dz + B dzbar by the
    pattern step of its ConnectionForm, built from terms; the column
    convention dF = F C runs as the row form of the transposed constants
    on F^T, as integrate_frame runs it."""
    form = dense_form(A, B, "row_frame" if row else "column_frame", None)
    step, fields = form.row_system(False)
    F0 = np.asarray(F0, dtype=complex)
    out = _kernels.transport_polyline(
        step, fields, d1, d2, pts, F0 if row else np.swapaxes(F0, -1, -2),
        periodic=periodic, max_step=max_step)
    return out if row else np.swapaxes(out, -1, -2)


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


def _edge_coefficients(A, B, d1, d2, pts, row):
    """(zdot, C0, C1) of each step of the lattice paths pts ((npts, 2), or
    (npts, paths, 2) for paths that take the same steps): its velocity and
    the complex coefficients A zdot + B conj(zdot) at its end nodes,
    transposed in the column convention."""
    n0, n1 = A.shape[:2]
    nodes = np.rint(pts).astype(int)
    for p, q in zip(nodes[:-1], nodes[1:]):
        zdot = (q - p).reshape(-1, 2)[0] @ [complex(d1), complex(d2)]
        C0, C1 = (A[x[..., 0] % n0, x[..., 1] % n1] * zdot
                  + B[x[..., 0] % n0, x[..., 1] % n1] * np.conj(zdot)
                  for x in (p, q))
        if not row:
            C0, C1 = np.swapaxes(C0, -1, -2), np.swapaxes(C1, -1, -2)
        yield zdot, C0, C1


def transport_scalar(A, B, d1, d2, pts, F0, row, substeps):
    """Reference: RK4 with substeps(zdot) substeps per step of the lattice
    path pts, the coefficient linear between the step's end nodes, one
    substep at a time.  The column convention dF = F C runs as the row
    system on the transposes."""
    F = np.array(F0, dtype=complex)
    F = F if row else np.swapaxes(F, -1, -2)
    record = [F]
    for zdot, C0, C1 in _edge_coefficients(A, B, d1, d2, pts, row):
        nsub = substeps(zdot)
        h = 1.0 / nsub
        D = (C1 - C0) * h
        for q in range(nsub):
            Ca = C0 + q * D
            Cm, Cb = Ca + 0.5 * D, Ca + D
            k1 = Ca @ F
            k2 = Cm @ (F + 0.5 * h * k1)
            k3 = Cm @ (F + 0.5 * h * k2)
            k4 = Cb @ (F + h * k3)
            F = F + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        record.append(F)
    out = np.array(record)
    return out if row else np.swapaxes(out, -1, -2)


def fine(zdot):
    """65 RK4 substeps per edge: the ODE, to about 1e-12 here."""
    return 65


def rk4_rule(max_step):
    """The substeps of the former RK4 kernel, int(|zdot| / max_step) + 1
    per edge; its error is the bar the Magnus kernel must clear."""
    return lambda zdot: int(abs(zdot) / max_step) + 1


def magnus_omega(C0, C1):
    """Sixth-order Magnus Omega of the complex coefficient running linearly
    from C0 to C1 over one step."""
    def bracket(X, Y):
        return X @ Y - Y @ X

    a, b = (C0 + C1) / 2.0, C1 - C0
    K = bracket(b, a)
    return a + K / 12.0 + bracket(b, K) / 240.0 - bracket(a, bracket(a, K)) / 720.0


def magnus_scalar(A, B, d1, d2, pts, F0, row, splits=1):
    """Reference: one step of the lattice paths pts at a time, each the
    product over `splits` equal sub-steps of scipy's expm of the complex
    Omega of the sub-step's coefficient, interpolated linearly as in
    `transport_scalar`."""
    F = np.array(F0, dtype=complex)
    F = F if row else np.swapaxes(F, -1, -2)
    record = [F]
    for _, C0, C1 in _edge_coefficients(A, B, d1, d2, pts, row):
        D = (C1 - C0) / splits
        for i in range(splits):
            F = expm(magnus_omega((C0 + i * D) / splits,
                                  (C0 + (i + 1) * D) / splits)) @ F
        record.append(F)
    out = np.array(record)
    return out if row else np.swapaxes(out, -1, -2)


# the largest 1-norm at which _expm's degree-16 Taylor polynomial needs no
# squaring: theta^17 / 17! = 2^-53
THETA_16 = (2.0 ** -53 * math.factorial(17)) ** (1.0 / 17.0)


def kernel_splits(A, B, d1, d2, paths, row):
    """Sub-steps per edge of the lattice paths, run by the kernel as one
    tile of edges: 2^k, with k the squarings that _expm would need for
    the largest 1-norm of an edge's Omega, [[X, -Y], [Y, X]] for
    Omega = X + iY."""
    norms = [np.abs(W.real) + np.abs(W.imag)
             for pts in paths
             for _, C0, C1 in _edge_coefficients(A, B, d1, d2, pts, row)
             for W in [magnus_omega(C0, C1)]]
    norm = max((W.sum(axis=-2).max() for W in norms), default=0.0)
    return 2 ** max(0, math.frexp(norm / THETA_16)[1])


def rel_err(got, ref):
    return np.abs(got - ref).max() / np.abs(ref).max()


def edge_path(n, m):
    """Along the last grid row, then down the last grid column: every
    edge ends at the last node of an axis."""
    up = np.stack([np.arange(n, dtype=float), np.full(n, m - 1.0)], axis=-1)
    down = np.stack([np.full(m - 1, n - 1.0),
                     np.arange(m - 2, -1, -1, dtype=float)], axis=-1)
    return np.concatenate([up, down])


def ragged_path():
    """Runs of 3, 1, 1, 2, 4, 1, 2 and 2 steps, zero steps among them:
    edges of both lengths and zero steps follow each other in no
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
    # curved, ragged: both axes in both directions, and steps of both
    # lengths
    d = np.diff(pts, axis=0)
    assert path == "edge" or {
        (1, 0), (-1, 0), (0, 1), (0, -1)} <= set(map(tuple, d))
    if state == "row_4x3":
        A, B, F0 = padded_4x3(dom, A, B)
    row = state != "column"
    args = (A, B, dom.step1, dom.step2, pts, F0)
    got = polyline(*args, row=row, periodic=periodic,
                   max_step=dom.hmin / 2)
    ref = magnus_scalar(*args, row)
    assert got.shape == ref.shape == (len(pts),) + F0.shape
    assert rel_err(got, ref) <= 1e-13
    # against the ODE: no worse than the former RK4 kernel, to within 25%.
    # These coefficients vary by a third of their size along one edge and
    # reach a 1-norm of 0.6 on it (the workloads': under 0.1), where one
    # Magnus step matches 3 or 5 RK4 substeps rather than beating them
    ode = transport_scalar(*args, row, fine)
    rk4 = transport_scalar(*args, row, rk4_rule(dom.hmin / 2))
    assert rel_err(got, ode) <= 1.25 * rel_err(rk4, ode)


def test_transport_records_every_vertex():
    dom, A, B, pts, F0 = setup_transport()
    rec = polyline(A, B, dom.step1, dom.step2, pts, F0,
                   row=True, periodic=True,
                   max_step=dom.hmin / 2)
    assert rec.shape == (pts.shape[0], 3, 3)
    assert np.array_equal(rec[0], F0)
    assert np.isfinite(rec).all()


def test_transport_row_vs_column_transpose():
    dom, A, B, pts, F0 = setup_transport()
    row = polyline(A, B, dom.step1, dom.step2, pts, F0,
                   row=True, periodic=True,
                   max_step=dom.hmin / 2)
    col = polyline(np.swapaxes(A, -1, -2).copy(),
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
    rec = polyline(A4, B4, dom.step1, dom.step2, pts, F0,
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
        polyline(A, B, dom.step1, dom.step2, pts, F0,
                 periodic=False, max_step=dom.hmin / 2)
    # on a torus a node past the last one is the first one, unwrapped
    if name == "outside":
        polyline(A, B, dom.step1, dom.step2, pts, F0,
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
    rec = polyline(A4, B4, dom.step1, dom.step2,
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


def complex_tree(domain, A, B, F0, root=None, row=True, axis_first=0):
    """integrate_tree on the complex system A zdot + B conj(zdot), built
    from terms, the column convention dF = F C run as the row form of the
    transposed constants on the transposed frames, as
    minlag_cpn_immersion runs it."""
    form = dense_form(A, B, "row_frame" if row else "column_frame", domain)
    step, fields = form.row_system(False)
    if row:
        return integrate_tree(domain, step, fields, F0, root=root,
                              axis_first=axis_first)
    frames, counts = integrate_tree(domain, step, fields,
                                    np.swapaxes(F0, -1, -2), root=root,
                                    axis_first=axis_first)
    return np.swapaxes(frames, -1, -2), counts


def test_tree_on_2x2_grid():
    # on a 2x2 grid the comb has one-point halves.  The coefficients reach
    # a 1-norm of about 4 on an edge, past the reach of one Magnus step:
    # the kernel splits each edge into 2^k sub-edges, and stays within the
    # former RK4 kernel's 9.7e-4 of the ODE.  Rooted at (1, 1) every edge
    # runs backward, rooted at (0, 0) forward
    grid = SimpleNamespace(shape=(2, 2), step1=0.5, step2=0.5j, hmin=0.5)
    rng = np.random.default_rng(2)
    A = rng.normal(size=(2, 2, 3, 3)) + 1j * rng.normal(size=(2, 2, 3, 3))
    B = rng.normal(size=(2, 2, 3, 3)) + 1j * rng.normal(size=(2, 2, 3, 3))
    F0 = np.eye(3, dtype=complex)
    for root in [(1, 1), (0, 0)]:
        lines = _tree_lines(grid, root)
        assert min(len(pts) for pts in lines) == 1
        assert kernel_splits(A, B, grid.step1, grid.step2, lines[2:],
                             True) >= 4
        frames, counts = complex_tree(grid, A, B, F0, root=root)
        assert counts == {"tree_edges": 3}
        assert np.array_equal(frames[root], F0)
        ode = tree_by_lines(grid, A, B, F0, root, True, 0,
                            lambda *a: transport_scalar(*a, fine))
        assert rel_err(frames, ode) <= 9.7e-4
        ref = tree_by_lines(grid, A, B, F0, root, True, 0)
        assert rel_err(frames, ref) <= 1e-13


@pytest.mark.parametrize("row", [True, False])
def test_zero_length_segment_keeps_frame(row):
    dom, A, B, _, F0 = setup_transport()
    F0 = F0 + 0.3j
    pts = np.array([[3.0, 4.0], [3.0, 4.0], [4.0, 4.0], [4.0, 4.0],
                    [4.0, 5.0]])
    rec = polyline(A, B, dom.step1, dom.step2, pts, F0,
                   row=row, periodic=True,
                   max_step=dom.hmin / 2)
    assert np.array_equal(rec[1], F0)
    assert np.array_equal(rec[3], rec[2])
    assert not np.allclose(rec[2], F0)


def tree_by_lines(domain, A, B, F0, root, row, axis_first, transport=None):
    """The tree as scalar transports along the half lines of the comb
    (`_tree_lines`), by default Magnus with the kernel's sub-steps per
    edge (`kernel_splits`) of the spine and of the teeth, which the
    kernel runs in one tile of edges each on these grids: an oracle
    that shares no code with the kernel.  The teeth's halves on each side
    of the spine take the same steps and run together."""
    frames = np.empty(domain.shape + F0.shape, dtype=complex)
    frames[root] = F0
    lines = _tree_lines(domain, root, axis_first)
    d1, d2 = domain.step1, domain.step2
    for group in (lines[:2], [np.stack(lines[2::2], axis=1),
                              np.stack(lines[3::2], axis=1)]):
        run = transport or partial(
            magnus_scalar, splits=kernel_splits(A, B, d1, d2, group, row))
        for pts in group:
            frames[pts[..., 0], pts[..., 1]] = run(
                A, B, d1, d2, pts.astype(float), frames[tuple(pts[0].T)],
                row)
    return frames


TREE_DOMAINS = {
    "rectangle": lambda: tz.Domain.rectangle(1.0, 2.0, 20, 17),
    "oblique_torus": lambda: tz.Domain.torus(0.3 + 1.1j, 24, 17),
    "disk_patch": lambda: tz.Domain.disk_patch(0.7, 16, 16),
}


@pytest.mark.parametrize("axis_first", [0, 1])
@pytest.mark.parametrize("where", ["centre", "corner_0m", "corner_n0"])
@pytest.mark.parametrize("state", ["row_4x3", "column"])
@pytest.mark.parametrize("name", sorted(TREE_DOMAINS))
def test_tree_matches_per_line_oracle(name, state, where, axis_first):
    dom = TREE_DOMAINS[name]()
    n, m = dom.shape
    root = {"centre": (n // 2, m // 2), "corner_0m": (0, m - 1),
            "corner_n0": (n - 1, 0)}[where]
    rng = np.random.default_rng(7)
    r = 4 if state == "row_4x3" else 3
    A = rng.normal(size=(n, m, r, r)) + 1j * rng.normal(size=(n, m, r, r))
    B = rng.normal(size=(n, m, r, r)) + 1j * rng.normal(size=(n, m, r, r))
    F0 = rng.normal(size=(r, 3)) + 1j * rng.normal(size=(r, 3))
    row = state != "column"
    got, _ = complex_tree(dom, A, B, F0, root=root, row=row,
                          axis_first=axis_first)
    ref = tree_by_lines(dom, A, B, F0, root, row, axis_first)
    assert np.array_equal(got[root], F0)
    assert rel_err(got, ref) <= 1e-13


# (domain, axis_first) -> the comb's lattice edges, n m - 1 whichever
# axis the spine runs along
TREE_COUNTS = [
    ("rectangle", 0, 339),
    ("rectangle", 1, 339),
    ("oblique_torus", 0, 407),
    ("oblique_torus", 1, 407),
]


@pytest.mark.parametrize("name, axis_first, edges", TREE_COUNTS)
def test_tree_reports_the_kernels_counts(name, axis_first, edges):
    dom = TREE_DOMAINS[name]()
    n, m = dom.shape
    A = np.zeros((n, m, 3, 3), dtype=complex)
    F0 = np.eye(3, dtype=complex)
    frames, counts = complex_tree(dom, A, A, F0, axis_first=axis_first)
    assert counts == {"tree_edges": edges}
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
    # the spine, one line of 16 nodes, then the 16 teeth, each a real
    # frame (f_x, f_y, xi, f) of R^3
    assert [args[3].shape for args in calls["transport_lines"]] == [
        (1, 16, 4, 3), (16, 16, 4, 3)]
    assert {args[3].dtype for args in calls["transport_lines"]} == {
        np.dtype(np.float64)}
    # 16 x 16 - 1 edges, one Magnus step each
    assert report["transport"] == {"tree_edges": 255}


@pytest.mark.parametrize("norm", [0.0, 1e-3, 0.05, 0.5, 1.0, 5.0])
def test_expm_matches_scipy(norm):
    # 1-norms 1e-3, 0.05 and 0.5 take degrees 4, 9 and 16; 1.0 and 5.0
    # take degree 16 and one and three squarings
    rng = np.random.default_rng(11)
    W = rng.normal(size=(4, 7, 8, 8))
    W *= norm / np.abs(W).sum(axis=-2).max()
    ref = np.array([expm(w) for w in W.reshape(-1, 8, 8)]).reshape(W.shape)
    assert rel_err(_kernels._expm(W.copy()), ref) <= 1e-14


def workload_pipeline(name, n):
    """Pipeline of the benchmark workload's seed-0 config on an n x n grid,
    solved."""
    _, cfg = workloads.make_config(name, 0)
    cfg["domain"]["shape"] = [n, n]
    pipe = cli.Pipeline(cfg)
    pipe.solve()
    return pipe


def immerse_tracing_the_tree(pipe, monkeypatch, trace):
    """Run pipe.immerse() with integrate_tree wrapped by trace(tree, args,
    kwargs), which calls it and returns what it returns."""
    def wrapper(*args, **kwargs):
        return trace(integrate_tree, args, kwargs)

    monkeypatch.setattr(immersion, "integrate_tree", wrapper)
    pipe.immerse()


@pytest.mark.parametrize("name", ["torus_affine", "disk_solve",
                                  "ch2_continuation"])
def test_tree_error_below_rk4(name, monkeypatch):
    # the affine torus (constant coefficient), the affine sphere over the
    # Poincare disk with Q = 0.5 + 0.3 z, and the CH^2 surface, at 32^2
    pipe = workload_pipeline(name, 32)
    calls = []

    def record(tree, args, kwargs):
        frames, counts = tree(*args, **kwargs)
        calls.append((args, kwargs, frames))
        return frames, counts

    immerse_tracing_the_tree(pipe, monkeypatch, record)
    (dom, _, _, F0), kw, got = calls[0]
    psi, Q = pipe.solution.psi, pipe.problem.Q
    if pipe.case.is_affine:
        # the affine sphere's real rows (f_x, f_y, xi, f), against its
        # complex system on (f_z, f_zbar, xi, f)
        A, B = affine_complex_system(psi, Q, pipe.case.lam, dom)
        T_inv = np.linalg.inv(AFFINE_GAUGE)
        F0, got = T_inv @ F0, T_inv @ got
    else:
        # the transposed column frames of CH^2, the row system of C^T
        A, B = (np.swapaxes(X, -1, -2) for X in
                tz.minlag_frame_connection(psi, Q, pipe.case, dom).dense())
    tree = (dom, A, B, F0, kw["root"], True, kw["axis_first"])
    ode = tree_by_lines(*tree, lambda *a: transport_scalar(*a, fine))
    rk4 = tree_by_lines(*tree, lambda *a: transport_scalar(
        *a, rk4_rule(dom.hmin / 2.0)))
    # RK4 errs 1.1e-9, 1.6e-8 and 7.6e-9 here; Magnus 7e-15, 6.1e-10 and
    # 7.5e-12
    assert rel_err(got, ode) <= 0.1 * rel_err(rk4, ode)


@pytest.mark.parametrize("n", [32, 64])
def test_torus_holonomy_closed_form(n):
    # a constant coefficient: each generator's holonomy is exp(w A + w* B)
    # for its period w, and exp of a trace-free matrix has determinant 1
    pipe = workload_pipeline("torus_affine", n)
    dom = pipe.domain
    alpha = build_connection(pipe.solution.psi, pipe.problem.Q, pipe.case,
                             dom, zeta=1.0)
    loops = [torus_generator(dom, 0), torus_generator(dom, 1)]
    rep = holonomy_report(alpha, loops)
    for loop, entry in zip(loops, rep["loops"]):
        w = (loop[-1] - loop[0]) @ [dom.step1, dom.step2]
        A, B = (X[0, 0] for X in alpha.dense())
        closed = expm(w * A + np.conj(w) * B)
        assert rel_err(entry["matrix"], closed) <= 1e-12
        assert entry["det_drift"] <= 1e-13


def test_ch2_frames_stay_in_the_group():
    # exp of an su(2,1) element is in SU(2,1): the unitary frame, and with
    # it its third column, the point, stay on the group to rounding
    pipe = workload_pipeline("ch2_continuation", 32)
    pipe.immerse()
    pipe.verify()
    got = {r["name"]: r["value"] for r in pipe.residuals}
    assert got["unitarity"] <= 1e-13
    assert np.array_equal(pipe.mesh.vertices, pipe.mesh.frame[..., :, 2])


def tree_peaks(name, monkeypatch, scales):
    """The tracemalloc peaks of the workload's 64^2 tree, one per factor
    of _kernels.TILE_BYTES in `scales`."""
    pipe = workload_pipeline(name, 64)
    peaks = []

    def traced(tree, args, kwargs):
        tracemalloc.start()
        try:
            return tree(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    with monkeypatch.context() as patch:
        tile = _kernels.TILE_BYTES
        for scale in scales:
            patch.setattr(_kernels, "TILE_BYTES", int(scale * tile))
            immerse_tracing_the_tree(pipe, patch, traced)
    return peaks


def test_tree_memory_peak(monkeypatch):
    # the 64^2 torus tree, real 4x3 frames under a constant real 4x4
    # coefficient, is chained in one tile with no per-edge array: its peak
    # is the 0.375 MiB of frames and the frontiers (0.40 MiB measured),
    # with any tile size
    assert max(tree_peaks("torus_affine", monkeypatch, [1, 4])) <= (
        0.42 * 2 ** 20)
    # the 64^2 CH^2 tree's coefficient varies, so its per-edge arrays go a
    # tile of edges across every line at a time: quarter tiles keep it at
    # 1.02 MiB measured, and the default tiles take it to 2.57 MiB
    quarter, default = tree_peaks("ch2_continuation", monkeypatch, [0.25, 1])
    assert quarter <= 1.1 * 2 ** 20 < 2.5 * 2 ** 20 < default <= 2.7 * 2 ** 20


def block_transport_lines(step, fields, zdot, frames, start):
    """The line-block path that the tile sweep of `transport_lines`
    replaced, kept as its oracle: each block of whole lines, its per-edge
    arrays under _kernels.TILE_BYTES, one Magnus step per edge (or 2^k
    where one step would not converge for the block) and chained edge by
    edge in a (block, m', N, c) buffer.  Where one tile holds every edge,
    one block holds every line, with the same scaling for every edge.
    Returns the edges it ran."""
    lines, m = frames.shape[:2]
    r = frames.shape[-2]
    cplx = np.iscomplexobj(frames)
    n = 2 * r if cplx else r
    block = max(1, _kernels.TILE_BYTES // (max(m - 1, 1) * 8 * n * n))
    for i in range(0, lines, block):
        rows = slice(i, i + block)
        R = step(zdot, *(X[rows] for X in fields))
        W = _kernels._magnus(R)
        q, k = _kernels._scaling(W)
        if k:
            N = 1 << k
            t = (np.arange(N) / N)[:, None, None]
            R0, R1 = R[:, :-1, None], R[:, 1:, None]
            fine = np.empty((R.shape[0], (m - 1) * N + 1) + R.shape[2:])
            fine[:, :-1] = (R0 + t * (R1 - R0)).reshape(fine[:, :-1].shape)
            fine[:, -1] = R[:, -1]
            fine *= 1.0 / N
            W = _kernels._magnus(fine)
        s = start << k
        W[:, :s] *= -1.0
        P = _kernels._expm(W, None if k else (q, 0))
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


def counting_magnus(monkeypatch):
    """A list that gains one entry per call of the kernel's `_magnus`."""
    calls = []
    magnus = _kernels._magnus

    def counted(R):
        calls.append(R.shape)
        return magnus(R)

    monkeypatch.setattr(_kernels, "_magnus", counted)
    return calls


def torus_pipeline(case, shape, tau=(0.0, 1.0), c=1.0):
    """A solved pipeline of `case` on the flat torus of `tau` and `shape`
    with the constant cubic differential c dz^3."""
    pipe = cli.Pipeline({"schema_version": 1, "case": case,
                         "domain": {"kind": "torus", "tau": list(tau),
                                    "shape": list(shape)},
                         "cubic": {"kind": "constant", "c": [c, 0.0]}})
    pipe.solve()
    return pipe


@pytest.mark.parametrize("axis_first", [0, 1])
@pytest.mark.parametrize("shape, tau", [((64, 64), (0.0, 1.0)),
                                        ((48, 80), (0.3, 0.9))])
def test_torus_tree_is_two_exponentials(shape, tau, axis_first):
    # on a torus the step coefficient is a constant C1 along the first
    # axis and C2 along the second, so the comb's frame at node (j, k) is
    # exp((k - k0) C2) exp((j - j0) C1) F0 with the spine along the first
    # axis, the factors swapped with the spine along the second; C from
    # the affine sphere's complex system on (f_z, f_zbar, xi, f), whose
    # last row f is also the last of the tree's real rows
    pipe = torus_pipeline("hyperbolic_affine_sphere", shape, tau)
    dom = pipe.domain
    mesh = immersion.affine_sphere_immersion(
        pipe.solution, pipe.problem.Q, pipe.case.lam, axis_first=axis_first)
    A, B = (X[0, 0] for X in affine_complex_system(
        pipe.solution.psi, pipe.problem.Q, pipe.case.lam, dom))
    C = [A * d + B * np.conj(d) for d in (dom.step1, dom.step2)]
    f0, xi0, a = mesh.meta["init"]
    F0 = np.stack([a, np.conj(a), xi0, f0])
    (j0, k0), (n, m) = mesh.meta["root"], dom.shape
    E1 = np.array([expm((j - j0) * C[0]) for j in range(n)])[:, None]
    E2 = np.array([expm((k - k0) * C[1]) for k in range(m)])[None, :]
    F = (E2 @ E1 if axis_first == 0 else E1 @ E2) @ F0
    assert rel_err(mesh.vertices, F[..., 3, :]) <= 1e-13


def _torus_system(kind, shape=(32, 32)):
    """(domain, step, fields, F0) of a torus tree: the affine sphere's
    real rows, or the CP^2 unitary frame's complex rows."""
    if kind == "affine_real":
        pipe = torus_pipeline("hyperbolic_affine_sphere", shape, (0.3, 0.9))
        form = affine_connection(pipe.solution.psi, pipe.problem.Q,
                                 pipe.case.lam, pipe.domain)
        step, fields = form.row_system(True)
        F0 = np.random.default_rng(5).normal(size=(4, 3))
    else:
        pipe = torus_pipeline("minlag_cp2", shape, c=0.5)
        form = tz.minlag_frame_connection(pipe.solution.psi, pipe.problem.Q,
                                          pipe.case, pipe.domain)
        step, fields = form.row_system(False)
        rng = np.random.default_rng(5)
        F0 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    return pipe.domain, step, fields, F0


def _lines(fields, F0, start, axis=1):
    """The frames (lines, m) + F0.shape of every lattice line along
    `axis`, F0 at node `start` of each, and the fields as the kernel
    takes them."""
    fs = [np.swapaxes(X, 0, 1 - axis) for X in fields]
    frames = np.zeros(fs[0].shape[:2] + F0.shape, dtype=F0.dtype)
    frames[:, start] = F0
    return fs, frames


@pytest.mark.parametrize("start", [0, 13, 31])
@pytest.mark.parametrize("kind", ["affine_real", "cp2_complex"])
def test_constant_lines_match_the_block_path_to_the_bit(kind, start,
                                                        monkeypatch):
    # a constant coefficient: every edge's Omega is C, so the two
    # exponentials chained over all lines in one tile give the block
    # path's frames bit for bit, with no Magnus step formed
    dom, step, fields, F0 = _torus_system(kind)
    for axis, zdot in ((0, dom.step1), (1, dom.step2)):
        fs, want = _lines(fields, F0, start, axis)
        got = want.copy()
        edges = block_transport_lines(step, fs, complex(zdot), want, start)
        calls = counting_magnus(monkeypatch)
        assert _kernels.transport_lines(step, fs, complex(zdot), got,
                                        start) == edges
        monkeypatch.undo()
        assert calls == []
        assert got.tobytes() == want.tobytes()
        assert (got[:, start] == F0).all()


def _perturbed(fields, how):
    """The torus fields made non-constant at one node, made to need
    k > 0 squarings, or made NaN."""
    fields = [np.array(X) for X in fields]
    X = fields[0]
    if how == "one_node":
        X[5, 7] += 2.0 ** -40
    elif how == "large":
        fields = [X * 40.0 for X in fields]
    else:
        X[...] = np.nan
    return fields


@pytest.mark.parametrize("how", ["one_node", "large", "nan"])
@pytest.mark.parametrize("kind", ["affine_real", "cp2_complex"])
def test_non_constant_lines_take_the_block_path(kind, how, monkeypatch):
    # fields constant but for one node, a constant C too large for exp(C)
    # without squarings, and a NaN field (NaN equals nothing) each run
    # Magnus steps in tiles; one tile holds the 15 edges of these 16 lines,
    # so they give the block path's frames bit for bit
    dom, step, fields, F0 = _torus_system(kind, (16, 16))
    fields = _perturbed(fields, how)
    if how == "large":
        C = step(complex(dom.step2), *(X[:1, :1] for X in fields))
        assert _kernels._scaling(C)[1] > 0
    else:
        assert any((X != X[:1, :1]).any() for X in fields)
    fs, want = _lines(fields, F0, 6)
    got = want.copy()
    block_transport_lines(step, fs, complex(dom.step2), want, 6)
    calls = counting_magnus(monkeypatch)
    _kernels.transport_lines(step, fs, complex(dom.step2), got, 6)
    assert calls
    assert got.tobytes() == want.tobytes()
    assert np.isnan(got).any() == (how == "nan")


@pytest.mark.parametrize("name, n", [("ch2_continuation", 64),
                                     ("ch2_continuation", 256),
                                     ("disk_solve", 64)])
def test_tree_is_tile_invariant(name, n, monkeypatch):
    # the workload's tree, whose coefficient varies, in tiles of one edge,
    # in the default tiles and in one tile of every edge, against the
    # line-block path: one tile of every edge is one block of every line,
    # with the same scaling for every edge, and gives its frames bit for
    # bit
    pipe = workload_pipeline(name, n)
    calls = []

    def record(tree, args, kwargs):
        calls.append((args, kwargs))
        return tree(*args, **kwargs)

    immerse_tracing_the_tree(pipe, monkeypatch, record)
    args, kwargs = calls[0]
    # 8 N^2 bytes per edge of every line, N <= 6
    for tile, bitwise in ((1, False), (_kernels.TILE_BYTES, False),
                          (n * n * 8 * 36, True)):
        with monkeypatch.context() as patch:
            patch.setattr(_kernels, "TILE_BYTES", tile)
            got, counts = integrate_tree(*args, **kwargs)
            patch.setattr(immersion, "transport_lines", block_transport_lines)
            want, _ = integrate_tree(*args, **kwargs)
        assert counts == {"tree_edges": n * n - 1}
        if bitwise:
            assert got.tobytes() == want.tobytes()
        else:
            assert rel_err(got, want) <= 1e-13


def _varying_lines(lines, m, large=1.0, seed=3):
    """(A, B, step, fields, F0) of the complex row system A zdot +
    B conj(zdot) of random (lines, m, 3, 3) coefficients, built from
    terms, and a frame (lines, 3, 3) for node `start` of each line; A and
    B are `large` times larger from node 20 of each line up."""
    rng = np.random.default_rng(seed)
    A, B = (0.3 * (rng.normal(size=(lines, m, 3, 3))
                   + 1j * rng.normal(size=(lines, m, 3, 3)))
            for _ in range(2))
    A[:, 20:] *= large
    B[:, 20:] *= large
    step, fields = dense_form(A, B, "row_frame", None).row_system(False)
    F0 = rng.normal(size=(lines, 3, 3)) + 1j * rng.normal(size=(lines, 3, 3))
    return A, B, step, fields, F0


# the step along every line of _varying_lines
ZDOT = 0.1 + 0.05j


@pytest.mark.parametrize("start", [0, 10, 13, 23])
def test_tiles_match_the_block_path_from_any_start(start, monkeypatch):
    # 16 lines of 24 nodes in tiles of 5 edges, [0, 5) ... [20, 23):
    # `start` at either end of the lines, on the tile boundary 10 and
    # inside the tile [10, 15); the block path runs them in one block
    _, _, step, fs, F0 = _varying_lines(16, 24)
    frames = np.zeros((16, 24, 3, 3), dtype=complex)
    frames[:, start] = F0
    want, got = frames.copy(), frames.copy()
    assert block_transport_lines(step, fs, ZDOT, want, start) == 16 * 23
    monkeypatch.setattr(_kernels, "TILE_BYTES", 16 * 5 * 8 * 36)
    calls = counting_magnus(monkeypatch)
    assert _kernels.transport_lines(step, fs, ZDOT, got, start) == 16 * 23
    assert len(calls) == 5
    assert got[:, start].tobytes() == frames[:, start].tobytes()
    assert rel_err(got, want) <= 1e-13


@pytest.mark.parametrize("shape", [(0, 24), (16, 1)])
@pytest.mark.parametrize("kind", ["constant", "varying"])
def test_no_lines_and_one_node_lines_run_no_edge(kind, shape, monkeypatch):
    # no lines, and lines of one node: no edge runs, no Magnus step is
    # formed, and the frames stay as they are
    if kind == "constant":
        _, step, fields, F0 = _torus_system("cp2_complex", (16, 24))
    else:
        _, _, step, fields, F0 = _varying_lines(16, 24)
    fs = [X[:shape[0], :shape[1]] for X in fields]
    frames = np.random.default_rng(1).normal(size=shape + (3, 3)) + 0.5j
    before = frames.copy()
    calls = counting_magnus(monkeypatch)
    assert _kernels.transport_lines(step, fs, ZDOT, frames, 0) == 0
    assert calls == []
    assert frames.tobytes() == before.tobytes()


def _line_path(i, nodes):
    """The lattice path through the nodes of line i of _varying_lines."""
    return np.stack([np.full(len(nodes), i), nodes], axis=-1).astype(float)


def test_only_the_tiles_that_need_it_refine(monkeypatch):
    # 2 lines of 30 nodes in tiles of 6 edges from node 8, run in the
    # order [6, 12), [12, 18), [18, 24), [24, 29), [0, 6).  The
    # coefficient is 8 times larger from node 20 up, so only the tiles
    # [18, 24) and [24, 29) need squarings: each is refined to its own
    # 2^k sub-edges per edge and takes a second Magnus call, and the
    # frames are those of scalar Magnus steps split as the kernel splits
    # each tile
    start, tiles = 8, [(6, 12), (12, 18), (18, 24), (24, 29), (0, 6)]
    A, B, step, fs, F0 = _varying_lines(2, 30, large=8.0)
    frames = np.zeros((2, 30, 3, 3), dtype=complex)
    frames[:, start] = F0
    monkeypatch.setattr(_kernels, "TILE_BYTES", 2 * 6 * 8 * 36)
    calls = counting_magnus(monkeypatch)
    assert _kernels.transport_lines(step, fs, ZDOT, frames, start) == 58
    want = np.empty_like(frames)
    want[:, start] = F0
    splits = []
    for a, b in tiles:
        nodes = np.arange(a, b + 1)
        splits.append(kernel_splits(A, B, 0.0, ZDOT,
                                    [_line_path(i, nodes) for i in (0, 1)],
                                    True))
        # up from the tile's lowest node at or above `start`, and down
        # from its highest at or below it
        for js in (range(max(start, a), b + 1),
                   range(min(start, b), a - 1, -1)):
            for i in (0, 1) if len(js) else ():
                want[i, js] = magnus_scalar(
                    A, B, 0.0, ZDOT, _line_path(i, js), want[i, js[0]],
                    True, splits[-1])
    assert [s > 1 for s in splits] == [False, False, True, True, False]
    assert len(calls) == len(tiles) + 2
    assert rel_err(frames, want) <= 1e-13
