import numpy as np
import pytest

import titeica as tz
from titeica import cli, weierstrass
from titeica.errors import NonConvexError

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
    assert pair.bound_margin(dom.z) == 0.0
    with pytest.raises(ValueError):
        tz.parabolic_from_holomorphic(pair, dom)


def _eager_frame(mesh):
    dom, v = mesh.domain, mesh.vertices
    return np.stack([dom.dz(v), dom.dzbar(v),
                     np.broadcast_to(np.array([0, 0, 1], complex), v.shape)],
                    axis=-2)


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
    # the first read builds the frame, later reads reuse it
    frame = meshes[0].frame
    assert sorted(calls) == ["dz", "dzbar"]
    assert meshes[0].frame is frame and len(calls) == 2


@pytest.mark.parametrize("pair", PAIRS)
def test_lazy_frame_matches_eager(pair):
    dom = tz.Domain.rectangle(1.0, 1.0, 24, 20)
    lazy = tz.parabolic_from_holomorphic(pair, dom)
    eager = tz.ImmersionMesh(dom, lazy.vertices, _eager_frame(lazy),
                             "affine_sphere", lam=0, psi=lazy.psi)
    sol = tz.MetricSolution(2.0 * lazy.psi + np.log(2.0), dom,
                            tz.BackgroundMetric("flat"))
    Q = tz.CubicDifferential.constant(0.0)
    # verify_affine reads the frame's xi row; read it through the lazy mesh
    got = tz.verify_affine(lazy, sol, Q)
    ref = tz.verify_affine(eager, sol, Q)
    assert np.array_equal(lazy.frame, eager.frame)
    assert lazy.frame.dtype == eager.frame.dtype == complex
    assert got.keys() == ref.keys()
    for name in ref:
        assert (got[name].max, got[name].rms) == (ref[name].max, ref[name].rms)


def test_path_integral_independence():
    # int F dG is path independent; oracle: exact polynomial antiderivative
    pair = PAIRS[2]
    f_times_dg = lambda z: pair.F(z) * pair.dG(z)
    z0, z1 = -0.3 - 0.2j, 0.4 + 0.35j
    via_a = tz.path_integral(f_times_dg, [z0, complex(z1.real, z0.imag), z1],
                             samples_per_segment=24)
    via_b = tz.path_integral(f_times_dg, [z0, complex(z0.real, z1.imag), z1],
                             samples_per_segment=24)
    # antiderivative of F G' = (0.2 z^2)(1 + 0.08 z + ...) expanded exactly
    coeffs = np.polynomial.polynomial.polymul(
        np.array(pair.f_coeffs), np.array([1.0, 0.1]))
    anti = np.polynomial.polynomial.polyint(coeffs)
    oracle = (np.polynomial.polynomial.polyval(z1, anti)
              - np.polynomial.polynomial.polyval(z0, anti))
    assert abs(via_a - via_b) < 1e-10
    assert abs(via_a - oracle) < 1e-9


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

def grid(lo, hi, n):
    x = np.linspace(lo, hi, n)
    return x, np.meshgrid(x, x, indexing="ij")


def test_legendre_self_dual():
    x, (X1, X2) = grid(-1, 1, 41)
    g = tz.GraphFunction(x, x, 0.5 * (X1 ** 2 + X2 ** 2))
    gs = tz.legendre_transform(g)
    Y1, Y2 = np.meshgrid(gs.x1, gs.x2, indexing="ij")
    dev = np.abs(gs.values - 0.5 * (Y1 ** 2 + Y2 ** 2))[gs.mask].max()
    assert dev <= 20.0 * g.hx ** 2


def test_legendre_quadratic_closed_form():
    x, (X1, X2) = grid(-1, 1, 41)
    g = tz.GraphFunction(x, x, X1 ** 2 + 0.25 * X2 ** 2)      # A = diag(2, 1/2)
    gs = tz.legendre_transform(g)
    Y1, Y2 = np.meshgrid(gs.x1, gs.x2, indexing="ij")
    dev = np.abs(gs.values - (Y1 ** 2 / 4 + Y2 ** 2))[gs.mask].max()
    assert dev <= 20.0 * g.hx ** 2


def test_legendre_involution():
    x, (X1, X2) = grid(-1, 1, 41)
    g = tz.GraphFunction(x, x, X1 ** 2 + 0.25 * X2 ** 2 + 0.05 * X1 ** 4)
    gs = tz.legendre_transform(g)
    gss = tz.legendre_transform(gs)
    XX1, XX2 = np.meshgrid(gss.x1, gss.x2, indexing="ij")
    exact = XX1 ** 2 + 0.25 * XX2 ** 2 + 0.05 * XX1 ** 4
    dev = np.abs(gss.values - exact)[gss.mask].max()
    assert dev <= 40.0 * g.hx ** 2


def test_legendre_rejects_nonconvex():
    x, (X1, X2) = grid(-1, 1, 21)
    g = tz.GraphFunction(x, x, X1 ** 2 - X2 ** 2)
    with pytest.raises(NonConvexError):
        tz.legendre_transform(g)


def test_legendre_preserves_monge_ampere():
    # det Hess s = 1 iff det Hess s* = 1; check on a generated solution
    pair = PAIRS[1]
    dom = tz.Domain.rectangle(1.0, 1.0, 41, 41)
    mesh = tz.parabolic_from_holomorphic(pair, dom)
    sf = tz.semiflat_develop(mesh)
    # for this pair the x-projection is a linear image of z, so the
    # potential lives on a regular grid and the graph can be built directly
    g = tz.GraphFunction(sf.x[:, 0, 0], sf.x[0, :, 1], sf.phi)
    r0 = tz.graph_ma_residual(g)
    gs = tz.legendre_transform(g)
    r1 = tz.graph_ma_residual(gs)
    assert np.nanmax(np.abs(r0)) <= 40.0 * g.hx ** 2
    assert np.nanmax(np.abs(r1)) <= 40.0 * max(g.hx, gs.hx) ** 2


# -- Monge-Ampere residuals --------------------------------------------------------

def test_ma_residual_quadratics_exact():
    x, (X1, X2) = grid(-1, 1, 21)
    r = tz.monge_ampere_residual(0.5 * (X1 ** 2 + X2 ** 2), x[1] - x[0])
    assert np.abs(r).max() < 1e-12
    x3 = np.linspace(-1, 1, 9)
    A, B, C = np.meshgrid(x3, x3, x3, indexing="ij")
    r3 = tz.monge_ampere_residual(0.5 * (A ** 2 + B ** 2 + C ** 2),
                                  x3[1] - x3[0], lam=0, n=3)
    assert np.abs(r3).max() < 1e-12


def test_ma_residual_radial_hyperboloid():
    # u = sqrt(1 - |t|^2): the radial graph of lam/u = -1/u parametrizes the
    # lower hyperboloid sheet; det u_ij = (lam/u)^4 analytically
    for n, tol_c in ((41, 20.0), (81, 20.0)):
        t = np.linspace(-0.5, 0.5, n)
        T1, T2 = np.meshgrid(t, t, indexing="ij")
        u = np.sqrt(1.0 - T1 ** 2 - T2 ** 2)
        r = tz.monge_ampere_residual(u, t[1] - t[0], lam=-1, n=2)
        assert np.abs(r).max() <= tol_c * (t[1] - t[0]) ** 2


def test_ma_residual_dimension_errors():
    x = np.zeros((5, 5))
    with pytest.raises(ValueError):
        tz.monge_ampere_residual(x, 0.1, n=4)
    with pytest.raises(ValueError):
        tz.monge_ampere_residual(x, 0.1, n=3)
    with pytest.raises(ValueError):
        tz.monge_ampere_residual(x, (0.1, 0.2, 0.3), n=2)
