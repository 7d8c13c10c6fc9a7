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
from titeica.frames import build_connection, torus_generator
from titeica.immersion import integrate_tree
from titeica.projective import holonomy_report

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "pipebench"))
import workloads  # noqa: E402


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
    block of lines: 2^k, with k the squarings that _expm would need for
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
    got = _kernels.transport_polyline(*args, row=row, periodic=periodic,
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
        frames, counts = integrate_tree(grid, A, B, F0, root=root)
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
    rec = _kernels.transport_polyline(A, B, dom.step1, dom.step2, pts, F0,
                                      row=row, periodic=True,
                                      max_step=dom.hmin / 2)
    assert np.array_equal(rec[1], F0)
    assert np.array_equal(rec[3], rec[2])
    assert not np.allclose(rec[2], F0)


def tree_by_lines(domain, A, B, F0, root, row, axis_first, transport=None):
    """The tree as scalar transports along the half lines of the comb
    (`_tree_lines`), by default Magnus with the kernel's sub-steps per
    edge (`kernel_splits`) of the spine and of the teeth, which the
    kernel runs in one block of lines each on these grids: an oracle
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
    got, _ = integrate_tree(dom, A, B, F0, root=root, row=row,
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
    frames, counts = integrate_tree(dom, A, A, F0, axis_first=axis_first)
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
    # the spine, one line of 16 nodes, then the 16 teeth
    assert [args[3].shape[:2] for args in calls["transport_lines"]] == [
        (1, 16), (16, 16)]
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
    (dom, A, B, F0), kw, got = calls[0]
    tree = (dom, A, B, F0, kw["root"], kw.get("row", True), kw["axis_first"])
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
        w = loop.points[-1] - loop.points[0]
        closed = expm(w * alpha.A[0, 0] + np.conj(w) * alpha.B[0, 0])
        assert rel_err(entry["matrix"], closed) <= 1e-12
        assert entry["det_drift"] <= 1e-13


def test_ch2_frames_stay_in_the_group():
    # exp of an su(2,1) element is in SU(2,1): the unitary frame and its
    # point stay on their groups to rounding
    pipe = workload_pipeline("ch2_continuation", 32)
    pipe.immerse()
    pipe.verify()
    got = {r["name"]: r["value"] for r in pipe.residuals}
    assert got["unitarity"] <= 1e-13
    assert got["unit_norm"] <= 1e-13


def test_tree_memory_peak(monkeypatch):
    # the tracemalloc peak of the 64^2 torus tree, 4x4 row frames: the
    # kernel's blocks of 8 lines keep it under 3.6 MiB, and blocks of 32
    # lines would not
    pipe = workload_pipeline("torus_affine", 64)
    peaks = []

    def traced(tree, args, kwargs):
        tracemalloc.start()
        try:
            return tree(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    immerse_tracing_the_tree(pipe, monkeypatch, traced)
    monkeypatch.setattr(_kernels, "LINES_BLOCK_BYTES",
                        4 * _kernels.LINES_BLOCK_BYTES)
    pipe.immerse()
    assert peaks[0] <= 3.6 * 2 ** 20 < peaks[1]
