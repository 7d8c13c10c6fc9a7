import re
import tracemalloc

import numpy as np
import pytest

import titeica as tz
from titeica import cli, geometry, projective, weierstrass
from tests.conftest import (chain_rule_hessian_H, graph_development, mirror,
                            whole_grid_chain_rule_hessian, whole_grid_parabolic)

# the three frozen regression pairs (admissible: |F'| < |G'| on the grid)
PAIRS = [
    tz.HoloPair.from_coeffs([0.0], [0.0, 1.0]),                 # F = 0, G = z
    tz.HoloPair.from_coeffs([0.0, 0.1], [0.0, 1.0]),            # F = 0.1 z
    tz.HoloPair.from_coeffs([0.0, 0.0, 0.2], [0.0, 1.0, 0.05]),
]


def test_simplest_pair_geometry():
    dom = tz.Domain.rectangle(1.0, 1.0, 24, 24)
    mesh = tz.parabolic_from_holomorphic(PAIRS[0], dom)
    # the surface projects to z/2 and the height is |z|^2-quadratic
    W = mesh.vertices[..., 0] + 1j * mesh.vertices[..., 1]
    assert np.abs(W - dom.z / 2).max() < 1e-14
    assert np.abs(mesh.vertices[..., 2] - np.abs(dom.z) ** 2 / 8).max() < 1e-12
    sf = tz.semiflat_develop(mesh)
    assert np.abs(sf.ma_residual[1:-1, 1:-1]).max() < 1e-10


@pytest.mark.parametrize("pair", PAIRS)
def test_monge_ampere_regression(pair):
    for n in (24, 48):
        dom = tz.Domain.rectangle(1.0, 1.0, n, n)
        mesh = tz.parabolic_from_holomorphic(pair, dom)
        sf = tz.semiflat_develop(mesh)
        assert np.abs(sf.ma_residual[2:-2, 2:-2]).max() <= 40.0 * dom.hmax ** 2


def test_derivative_bound_rejected():
    dom = tz.Domain.rectangle(1.0, 1.0, 16, 16)
    pair = tz.HoloPair.from_coeffs([0.0, 1.0], [0.0, 1.0])  # F = G = z
    with pytest.raises(ValueError, match=re.escape("margin 0.000e+00")):
        tz.parabolic_from_holomorphic(pair, dom)


def test_weierstrass_stage_never_builds_frame(tmp_path, monkeypatch):
    calls = []
    for name in ("dz", "dzbar"):
        stencil = getattr(tz.Domain, name)

        def counted(self, f, stencil=stencil, name=name):
            calls.append(name)
            return stencil(self, f)

        monkeypatch.setattr(tz.Domain, name, counted)
    meshes = []

    def represent(pair, domain):
        meshes.append(tz.parabolic_from_holomorphic(pair, domain))
        return meshes[-1]

    monkeypatch.setattr(cli, "parabolic_from_holomorphic", represent)
    cfg = {"schema_version": 1, "case": "parabolic_affine_sphere",
           "domain": {"kind": "rectangle", "shape": [33, 33]},
           "weierstrass": {"f_coeffs": [[0.0, 0.0], [0.1, 0.0]],
                           "g_coeffs": [[0.0, 0.0], [1.0, 0.0]]},
           "outputs": {"mesh": "mesh.obj", "report": "report.json"}}
    code, _ = cli.run(cfg, stage="weierstrass", out_dir=tmp_path)
    assert code == 0 and len(meshes) == 1 and calls == []
    assert meshes[0].frame is None


@pytest.mark.parametrize("pair", PAIRS)
def test_verify_affine_reads_the_vertices_alone(pair):
    # a Weierstrass mesh holds no frame: verify_affine takes the affine
    # normal e3 and differences the vertices, and reads the same values
    # off a bare copy of them
    dom = tz.Domain.rectangle(1.0, 1.0, 24, 20)
    mesh = tz.parabolic_from_holomorphic(pair, dom)
    assert mesh.frame is None
    bare = tz.ImmersionMesh(dom, mesh.vertices.copy(), "affine_sphere", lam=0)
    sol = tz.MetricSolution(2.0 * mesh.psi + np.log(2.0), dom,
                            tz.BackgroundMetric("flat"))
    Q = tz.CubicDifferential.constant(0.0)
    got = tz.verify_affine(mesh, sol, Q)
    assert got == tz.verify_affine(bare, sol, Q)
    assert got["det_identity"] <= 20.0 * dom.hmax ** 2


def test_path_integral_independence():
    # int F dG is path independent, which parabolic_from_holomorphic
    # relies on: spine then teeth and teeth then spine agree at every node
    # with the exact polynomial antiderivative
    pair = PAIRS[2]
    dom = tz.Domain.rectangle(0.7, 0.55, 49, 49)
    integrand = pair.F(dom.z) * pair.dG(dom.z)
    cs = weierstrass._cumulative_simpson
    spine_teeth = (cs(integrand[:, 0] * dom.step1)[:, None]
                   + cs(integrand * dom.step2, axis=1))
    teeth_spine = (cs(integrand[0] * dom.step2)[None, :]
                   + cs(integrand * dom.step1, axis=0))
    anti = np.polynomial.polynomial.polyint(np.polynomial.polynomial.polymul(
        pair.f_coeffs, weierstrass._polyder(pair.g_coeffs)))
    P = np.polynomial.polynomial.polyval
    oracle = P(dom.z, anti) - P(dom.z[0, 0], anti)
    assert np.abs(spine_teeth - teeth_spine).max() < 1e-10
    assert np.abs(spine_teeth - oracle).max() < 1e-9


# -- row-block streaming ----------------------------------------------------------
# The pair of the benchmark's weierstrass_mesh workload at seed 0.
WORKLOAD = {"f_coeffs": [[0.0, 0.0], [0.1, 0.0], [0.05, 0.02]],
            "g_coeffs": [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.1, 0.0]]}
WORKLOAD_PAIR = cli.parse_pair(WORKLOAD)

# 16^2 and 37x20 are one block each; at 512 columns a block is 32 rows,
# and the gate's blocks cover rows 1..n-2: 65 rows end in a block of 30,
# 69 rows in a block of two, and 67 rows in a block of row 65 = n - 2
# alone, which holds no gated node; 8^2 is the smallest grid, and the
# odd grids have a centre row and column
STREAM_SHAPES = [(16, 16), (37, 20), (512, 512), (65, 512), (69, 512),
                 (8, 8), (9, 11), (33, 17), (67, 512)]


def whole_grid_gates(v):
    """The monge_ampere gate over the whole grid, from det l / det J^2 and
    from the determinant of the full Hessian H."""
    _, det_hess = whole_grid_chain_rule_hessian(v[..., 0], v[..., 1], v[..., 2])
    _, H = chain_rule_hessian_H(v[..., 0], v[..., 1], v[..., 2])
    ma_H = H[..., 0, 0] * H[..., 1, 1] - H[..., 0, 1] * H[..., 1, 0] - 1.0
    return (np.abs(det_hess - 1.0)[2:-2, 2:-2].max(),
            np.abs(ma_H[2:-2, 2:-2]).max())


def assert_streams_exactly(dom):
    mesh = tz.parabolic_from_holomorphic(WORKLOAD_PAIR, dom)
    vertices, psi, margin = whole_grid_parabolic(WORKLOAD_PAIR, dom)
    assert np.array_equal(mesh.vertices, vertices)
    assert np.array_equal(mesh.psi, psi)
    assert mesh.meta["margin"] == margin
    gate = projective.monge_ampere_gate(mesh.vertices)
    whole, by_H = whole_grid_gates(vertices)
    assert gate == whole
    # det Hess is about 1; measured up to 3 ulp of 1.0 apart
    assert abs(gate - by_H) <= 4 * np.spacing(1.0)
    # the centered core and the one-sided edges of the semi-flat
    # development have every bit of the whole-grid stencils
    x1, x2, phi = vertices[..., 0], vertices[..., 1], vertices[..., 2]
    for got, want in zip(projective._chain_rule_hessian(x1, x2, phi),
                         whole_grid_chain_rule_hessian(x1, x2, phi)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("shape", STREAM_SHAPES)
def test_streamed_mesh_and_gate_match_whole_grid(shape):
    assert_streams_exactly(tz.Domain.rectangle(1.0, 1.0, *shape))


@pytest.mark.parametrize("rows", [1, 2, 3, 5])
@pytest.mark.parametrize("shape", [(16, 16), (37, 20), (8, 8), (9, 11)])
def test_streaming_is_exact_for_any_block(monkeypatch, shape, rows):
    # a budget of `rows` rows: blocks of one row, and last blocks shorter
    # than the others
    monkeypatch.setattr(geometry, "ROWS_BLOCK_BYTES", 16 * shape[1] * rows)
    assert_streams_exactly(tz.Domain.rectangle(0.7, 0.55, *shape))


def workload_config(n):
    return {"schema_version": 1, "case": "parabolic_affine_sphere",
            "domain": {"kind": "rectangle", "width": 1.0, "height": 1.0,
                       "shape": [n, n]},
            "weierstrass": WORKLOAD}


@pytest.mark.parametrize("n", [256, 512])
def test_weierstrass_stage_memory(n):
    # all but the vertices and psi the mesh keeps is one block of rows;
    # measured 2.9 MiB at both grids (whole-grid fields: 40 MiB at 512^2)
    pipe = cli.Pipeline(workload_config(n))
    tracemalloc.start()
    try:
        pipe.weierstrass_stage()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = pipe.mesh.vertices.nbytes + pipe.mesh.psi.nbytes
    assert peak - kept <= 8 * 2 ** 20


@pytest.mark.parametrize("n", [33, 129])
@pytest.mark.parametrize("mutation", ["height", "sin"])
def test_monge_ampere_gate_fails_mutated_height(tmp_path, monkeypatch,
                                                mutation, n):
    # measured at the whole-grid gate: 77x and 1230x the tolerance for
    # "height", 14x and 57x for "sin", at 33^2 and 129^2
    def mutated(pair, domain):
        mesh = tz.parabolic_from_holomorphic(pair, domain)
        z = domain.z
        if mutation == "height":  # the |G|^2 - |F|^2 term counted twice
            bump = (np.abs(pair.G(z)) ** 2 - np.abs(pair.F(z)) ** 2) / 8.0
        else:
            bump = 0.1 * domain.hmax * np.sin(2.0 * np.pi * z.real)
        v = mesh.vertices.copy()
        v[..., 2] += bump
        mesh.vertices = v
        return mesh

    monkeypatch.setattr(cli, "parabolic_from_holomorphic", mutated)
    code, report = cli.run(workload_config(n), stage="weierstrass",
                           out_dir=tmp_path)
    assert code == 1 and report["failed_checks"] == ["monge_ampere"]


def loop_cumulative_simpson(y, axis=0):
    """The node-by-node loop that weierstrass._cumulative_simpson replaced."""
    y = np.moveaxis(np.asarray(y, dtype=complex), axis, 0)
    out = np.zeros_like(y)
    if y.shape[0] >= 3:
        out[1] = (5.0 * y[0] + 8.0 * y[1] - y[2]) / 12.0
    elif y.shape[0] == 2:
        out[1] = 0.5 * (y[0] + y[1])
    for n in range(2, y.shape[0]):
        out[n] = out[n - 2] + (y[n - 2] + 4.0 * y[n - 1] + y[n]) / 3.0
    return np.moveaxis(out, 0, axis)


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("length", [1, 2, 3, 4, 5, 64])
def test_cumulative_simpson_matches_loop(length, axis):
    # cumsum accumulates in order, as the loop did: equal to the last bit
    rng = np.random.default_rng(length)
    shape = [3, 3]
    shape[axis] = length
    y = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    assert np.array_equal(weierstrass._cumulative_simpson(y, axis),
                          loop_cumulative_simpson(y, axis))
    line = np.moveaxis(y, axis, 0)[:, 0]  # one-dimensional, as the spine is
    assert np.array_equal(weierstrass._cumulative_simpson(line),
                          loop_cumulative_simpson(line))


# -- Legendre transform ---------------------------------------------------------
# The Legendre dual of a semi-flat development is developed in turn, by
# `mirror`; its phi_star is phi** and its y is x**.

def graph(n):
    """An n x n grid over the square [-1, 1]^2 and its coordinates."""
    dom = tz.Domain.rectangle(2.0, 2.0, n, n)
    return dom, dom.z.real, dom.z.imag


def test_legendre_self_dual():
    dom, X1, X2 = graph(41)
    sf = graph_development(dom, X1, X2, 0.5 * (X1 ** 2 + X2 ** 2))
    Y1, Y2 = sf.y[..., 0], sf.y[..., 1]
    dev = np.abs(sf.phi_star - 0.5 * (Y1 ** 2 + Y2 ** 2)).max()
    assert dev <= 20.0 * dom.hmax ** 2


def test_legendre_quadratic_closed_form():
    dom, X1, X2 = graph(41)
    sf = graph_development(dom, X1, X2, X1 ** 2 + 0.25 * X2 ** 2)  # A = diag(2, 1/2)
    Y1, Y2 = sf.y[..., 0], sf.y[..., 1]
    dev = np.abs(sf.phi_star - (Y1 ** 2 / 4 + Y2 ** 2)).max()
    assert dev <= 20.0 * dom.hmax ** 2


def test_legendre_involution():
    dom, X1, X2 = graph(41)
    phi = X1 ** 2 + 0.25 * X2 ** 2 + 0.05 * X1 ** 4
    sf = graph_development(dom, X1, X2, phi)
    dual = mirror(sf, dom)
    tol = 40.0 * dom.hmax ** 2
    assert np.abs(dual.y - sf.x).max() <= tol
    assert np.abs(dual.phi_star - phi).max() <= tol


def test_legendre_preserves_monge_ampere():
    # det Hess s = 1 iff det Hess s* = 1; check on a generated solution
    dom = tz.Domain.rectangle(1.0, 1.0, 41, 41)
    sf = tz.semiflat_develop(tz.parabolic_from_holomorphic(PAIRS[1], dom))
    dual = mirror(sf, dom)
    tol = 40.0 * dom.hmax ** 2
    assert np.abs(sf.ma_residual[2:-2, 2:-2]).max() <= tol
    assert np.abs(dual.ma_residual[2:-2, 2:-2]).max() <= tol


# -- Monge-Ampere residuals --------------------------------------------------------

def test_ma_residual_quadratics_exact():
    dom, X1, X2 = graph(21)
    sf = graph_development(dom, X1, X2, 0.5 * (X1 ** 2 + X2 ** 2))
    assert np.abs(sf.ma_residual).max() < 1e-12
