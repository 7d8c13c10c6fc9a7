import ast
from pathlib import Path

import numpy as np
import pytest

import titeica as tz
from titeica import geometry
from titeica.errors import OutOfDomainError
from titeica.geometry import (lattice_diff, lattice_diff2, polyval,
                              row_blocks, second_diffs)
from tests.conftest import (dzzbar_matrix, lattice_diff2_reference,
                            lattice_diff_reference)

TAGS = {
    (1, -1): "hyperbolic_affine_sphere",
    (1, 0): "parabolic_affine_sphere",
    (1, 1): "elliptic_affine_sphere",
    (-1, -1): "minlag_ch2",
    (-1, 0): "minlag_c2",
    (-1, 1): "minlag_cp2",
}


@pytest.mark.parametrize("signs,tag", sorted(TAGS.items()))
def test_geometry_tag_roundtrip(signs, tag):
    case = tz.SignCase(*signs)
    assert case.geometry_tag == tag
    back = tz.SignCase.from_tag(tag)
    assert (back.epsilon, back.lam) == signs


def test_geometry_tag_rejects_bad_signs():
    with pytest.raises(ValueError):
        tz.SignCase(2, -1)
    with pytest.raises(ValueError):
        tz.SignCase.from_tag("nonsense")


def test_cubic_norm_examples():
    flat = tz.BackgroundMetric("flat")
    c = 2.0 - 1.0j
    Q = tz.CubicDifferential.constant(c)
    # flat sigma = 1: ||Q||^2 = |c|^2
    assert tz.cubic_norm_sq(Q, flat, 0.3 + 0.2j) == pytest.approx(abs(c) ** 2)
    # zero differential
    Q0 = tz.CubicDifferential.constant(0.0)
    assert tz.cubic_norm_sq(Q0, flat, 1.0j) == 0.0
    # Poincare disk at the origin: sigma = 4, so |1|^2 / 4^3 = 1/64
    poin = tz.BackgroundMetric("poincare_disk")
    Q1 = tz.CubicDifferential.constant(1.0)
    assert tz.cubic_norm_sq(Q1, poin, 0.0) == pytest.approx(1.0 / 64.0)


def test_cubic_norm_out_of_domain():
    poin = tz.BackgroundMetric("poincare_disk")
    Q = tz.CubicDifferential.constant(1.0)
    with pytest.raises(OutOfDomainError):
        tz.cubic_norm_sq(Q, poin, 1.5)


def test_gauss_curvature_values():
    flat = tz.BackgroundMetric("flat", sigma0=3.0)
    assert tz.gauss_curvature(flat, 0.7 + 0.1j) == 0.0
    poin = tz.BackgroundMetric("poincare_disk")
    assert tz.gauss_curvature(poin, 0.3 + 0.1j) == pytest.approx(-1.0)
    assert tz.gauss_curvature(poin, 0.0) == pytest.approx(-1.0)


def test_gauss_curvature_finite_difference_oracle():
    # independent oracle: kappa = -(2/sigma) d2/dz dzbar log sigma by stencils
    for n, bound in ((24, None), (48, None)):
        dom = tz.Domain.disk_patch(0.6, n, n)
        poin = tz.BackgroundMetric("poincare_disk")
        sig = poin.sigma(dom.z)
        kappa_fd = -2.0 / sig * dom.dzzbar(np.log(sig))
        dev = np.abs(kappa_fd[1:-1, 1:-1] + 1.0).max()
        # frozen regression constant: C h^2 with C = 10
        assert dev <= 10.0 * dom.hmax ** 2


def test_local_weight_examples():
    assert tz.local_weight(0.0, 2.0) == pytest.approx(0.0)
    assert tz.local_weight(np.log(2.0), 1.0) == pytest.approx(0.0)
    assert tz.local_weight(np.log(8.0) / 3.0, 1.0) == pytest.approx(
        np.log(8.0) / 6.0 - np.log(2.0) / 2.0)
    assert tz.local_weight(np.log(8.0) / 3.0, 1.0) == pytest.approx(0.0)


def test_weight_roundtrip_random():
    rng = np.random.default_rng(11)
    for _ in range(5):
        u = rng.normal(size=(16, 16))
        sigma = np.exp(rng.normal(size=(16, 16)))
        psi = tz.local_weight(u, sigma)
        assert np.abs(tz.global_weight(psi, sigma) - u).max() < 1e-13
        # both conventions describe the same metric: 2 e^{2 psi} = e^u sigma
        assert np.abs(2 * np.exp(2 * psi) - np.exp(u) * sigma).max() < 1e-12


def test_domain_validation():
    with pytest.raises(ValueError):
        tz.Domain.torus(1j, 4, 16)
    with pytest.raises(ValueError):
        tz.Domain.torus(-1j, 16, 16)
    with pytest.raises(ValueError):
        tz.Domain.disk_patch(1.2, 16, 16)
    oblique = tz.Domain((16, 16), 0.1, 0.05 + 0.1j, 0.0, False)
    with pytest.raises(ValueError):  # the Dirichlet matrix has no cross term
        dzzbar_matrix(oblique)
    with pytest.raises(ValueError):  # nor has its matrix-free form
        oblique.dzzbar_interior(np.zeros(oblique.shape), 0.0)
    dom = tz.Domain.disk_patch(0.8, 16, 16)
    assert np.abs(dom.z).max() <= 0.8 + 1e-12
    assert dom.boundary_mask.sum() == 4 * 16 - 4
    assert not tz.Domain.torus(1j, 16, 16).boundary_mask.any()


def test_domain_is_hashable():
    for make in (lambda: tz.Domain.torus(1j, 8, 8),
                 lambda: tz.Domain.rectangle(1.0, 0.5, 8, 9),
                 lambda: tz.Domain.disk_patch(0.7, 8, 8)):
        a, b = make(), make()
        assert a == b and hash(a) == hash(b)


def test_torus_lattice_coordinates():
    tau = 0.3 + 1.1j
    dom = tz.Domain.torus(tau, 16, 24)
    assert dom.z[0, 0] == 0
    assert dom.z[1, 0] == pytest.approx(1 / 16)
    assert dom.z[0, 1] == pytest.approx(tau / 24)
    j, k = dom.to_lattice(dom.z)
    jj, kk = np.meshgrid(np.arange(16), np.arange(24), indexing="ij")
    assert np.abs(j - jj).max() < 1e-10
    assert np.abs(k - kk).max() < 1e-10


@pytest.mark.parametrize("make", [
    lambda n, m: tz.Domain.torus(0.3 + 1.1j, n, m),
    lambda n, m: tz.Domain.rectangle(1.0, 0.6, n, m),
    lambda n, m: tz.Domain.disk_patch(0.7, n, m)],
    ids=["oblique_torus", "rectangle", "disk_patch"])
def test_at_shape_keeps_the_torus_or_patch(make):
    dom = make(48, 40)
    assert dom.at_shape(48, 40) is dom
    for n, m in ((24, 20), (17, 9), (96, 81)):
        other, ref = dom.at_shape(n, m), make(n, m)
        assert other.shape == (n, m) and other.periodic == dom.periodic
        assert other.origin == dom.origin
        # the same lattice as the constructor's, to rounding
        for a, b in ((other.step1, ref.step1), (other.step2, ref.step2)):
            assert abs(a - b) <= 1e-15 * abs(b)
        # the periods of a torus, the far corner of a patch
        e = 0 if dom.periodic else 1
        assert abs((n - e) * other.step1 - (48 - e) * dom.step1) <= 1e-15
        assert abs((m - e) * other.step2 - (40 - e) * dom.step2) <= 1e-15
    with pytest.raises(ValueError):
        dom.at_shape(7, 40)


def test_oblique_torus_dzzbar_oracle():
    # doubly periodic f = cos(2 pi (x + q y)) with q = (1 - Re tau)/Im tau has
    # d2/dz dzbar f = -(pi^2/... ) analytic value (1/4) Laplacian
    tau = 0.3 + 1.2j
    q = (1.0 - tau.real) / tau.imag
    for n in (24, 48):
        dom = tz.Domain.torus(tau, n, n)
        x, y = dom.z.real, dom.z.imag
        f = np.cos(2 * np.pi * (x + q * y))
        exact = -np.pi ** 2 * (1 + q ** 2) * f
        dev = np.abs(dom.dzzbar(f) - exact).max()
        assert dev <= 60.0 * dom.hmax ** 2 * np.pi ** 2


def test_lattice_hessian_exact_on_quadratics():
    # the edge stencils are exact for quadratics (and the second differences
    # for cubics along their axis), so every node counts, edges included
    h = (0.3, 0.7)
    x = h[0] * np.arange(9)[:, None, None]
    y = h[1] * np.arange(11)[None, :, None]
    a = np.array([0.5, -1.2, 2.0])
    b = np.array([0.7, 0.1, -0.4])
    c = np.array([-0.3, 0.9, 1.5])
    f = (a * x ** 2 + b * x * y + c * y ** 2 + 0.2 * x - y + 1.0
         + 0.3 * x ** 3 - 0.2 * y ** 3)
    f_jj, f_kk, f_jk = second_diffs(f)
    assert f_jj.shape == f_kk.shape == f_jk.shape == (9, 11, 3)
    assert np.abs(f_jj / h[0] ** 2 - (2 * a + 1.8 * x)).max() <= 1e-12
    assert np.abs(f_kk / h[1] ** 2 - (2 * c - 1.2 * y)).max() <= 1e-12
    assert np.abs(f_jk / (h[0] * h[1]) - b).max() <= 1e-12


def test_lattice_hessian_periodic_symbol():
    # exp(i (t1 j + t2 k)) is an eigenfunction: the second difference has
    # symbol -4 sin^2(t/2) and each centered first difference i sin(t)
    n, m = 12, 16
    t1, t2 = 2 * np.pi * 3 / n, 2 * np.pi * 5 / m
    j, k = np.meshgrid(np.arange(n), np.arange(m), indexing="ij")
    f = np.exp(1j * (t1 * j + t2 * k))
    f_jj, f_kk, f_jk = second_diffs(f, periodic=True)
    assert np.abs(f_jj + 4 * np.sin(t1 / 2) ** 2 * f).max() <= 1e-12
    assert np.abs(f_kk + 4 * np.sin(t2 / 2) ** 2 * f).max() <= 1e-12
    assert np.abs(f_jk + np.sin(t1) * np.sin(t2) * f).max() <= 1e-12


@pytest.mark.parametrize("degree", [0, 1, 3, 6])
def test_polyval_in_place_horner_is_bit_equal(degree):
    # the in-place step out *= z; out += a against out = out * z + a
    rng = np.random.default_rng(degree)
    coeffs = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
    z = rng.standard_normal((7, 9)) + 1j * rng.standard_normal((7, 9))
    ref = np.zeros(z.shape, dtype=complex)
    for a in reversed(coeffs):
        ref = ref * z + a
    # as HoloPair holds them: Python complex numbers
    assert np.array_equal(polyval(tuple(map(complex, coeffs)), z), ref)


def test_z_block_keeps_the_bits_of_z():
    dom = tz.Domain.rectangle(0.7, 0.55, 37, 20)
    z = dom.z
    assert np.array_equal(dom.z_block(slice(5, 9)), z[5:9])
    assert np.array_equal(dom.z_block(cols=slice(0, 1)), z[:, :1])


@pytest.mark.parametrize("rows", [1, 2, 3, 5])
@pytest.mark.parametrize("shape", [(8, 8), (9, 11), (37, 20)])
def test_row_blocks_partition_the_rows_into_slabs(monkeypatch, shape, rows):
    # a budget of `rows` rows: blocks of one row, and last blocks shorter
    # than the others
    n, m = shape
    monkeypatch.setattr(geometry, "ROWS_BLOCK_BYTES", 16 * m * rows)
    blocks = list(row_blocks(n, m))
    assert [r for block, _, _ in blocks for r in range(n)[block]] == list(range(n))
    assert all(block.stop - block.start == rows for block, _, _ in blocks[:-1])
    for block, slab, core in blocks:
        assert 0 <= slab.start and slab.stop <= n
        # the 4 rows that a one-sided second difference reads
        assert slab.stop - slab.start >= 4
        # a halo row on each side, but at the grid's edge
        assert slab.start < block.start or block.start == 0
        assert slab.stop > block.stop or block.stop == n
        assert range(n)[slab][core] == range(n)[block]


def _stencil_inputs():
    """Real and complex arrays of 1 to 4 dimensions, with axes of 4 nodes
    and signed zeros, and non-contiguous views of them."""
    rng = np.random.default_rng(7)
    for shape in [(4,), (9,), (4, 7), (11, 5), (6, 4, 5), (5, 6, 4, 4)]:
        for dtype in (float, complex):
            f = rng.standard_normal(shape + (2,)).view(complex)[..., 0]
            f = f.real.copy() if dtype is float else f
            f.reshape(-1)[::5] *= 0.0
            yield f
    v = rng.standard_normal((9, 11, 4))
    frame = rng.standard_normal((8, 6, 4, 4, 2)).view(complex)[..., 0]
    yield from (v[..., 0], v[:, 1:], frame[..., 2, :], frame[:, :, 1])


@pytest.mark.parametrize("periodic", [False, True])
def test_stencils_are_their_reference_expressions(periodic):
    # every axis, to the bit, the sign of a zero included
    for f in _stencil_inputs():
        for axis in range(f.ndim):
            for got, want in ((lattice_diff(f, axis, periodic),
                               lattice_diff_reference(f, axis, periodic)),
                              (lattice_diff2(f, axis, periodic),
                               lattice_diff2_reference(f, axis, periodic))):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == np.ascontiguousarray(want).tobytes()


@pytest.mark.parametrize("periodic", [False, True])
def test_stencils_promote_integer_fields(periodic):
    # integers and booleans are differenced as float64, not truncated
    j = np.array([0, 1, 3, 6, 10, 15])
    if not periodic:
        assert list(lattice_diff(j, 0)) == [0.5, 1.5, 2.5, 3.5, 4.5, 5.5]
        assert list(lattice_diff2(j, 0)) == [1.0] * 6
    f = np.add.outer(j, 2 * j[:5])
    for d in (lattice_diff, lattice_diff2):
        for axis in (0, 1):
            got = d(f, axis, periodic)
            assert got.dtype == float
            assert np.array_equal(got, d(f.astype(float), axis, periodic))
        assert np.array_equal(d(f > 5, 0, periodic),
                              d((f > 5).astype(float), 0, periodic))
    dom = tz.Domain.rectangle(1.0, 1.0, 8, 8)
    grid = np.add.outer(np.arange(8), np.arange(8)) ** 2
    assert np.array_equal(dom.dzzbar(grid), dom.dzzbar(grid.astype(float)))


def test_metric_solution_psi():
    dom = tz.Domain.torus(1j, 16, 16)
    mu = tz.BackgroundMetric("flat")
    sol = tz.MetricSolution(np.full(dom.shape, np.log(2.0)), dom, mu)
    assert np.abs(sol.psi).max() < 1e-14


def test_no_module_imports_private_geometry_names():
    # the lattice stencils are geometry's public functions; a private name
    # imported elsewhere is a second copy of a stencil in the making
    found = []
    for path in sorted(Path(tz.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ImportFrom)
                    and (node.level, node.module) in ((1, "geometry"),
                                                      (0, "titeica.geometry"))):
                found += [f"{path.name}: {a.name}" for a in node.names
                          if a.name.startswith("_")]
    assert found == []
