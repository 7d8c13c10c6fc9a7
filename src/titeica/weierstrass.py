"""Closed-form parabolic affine spheres from a pair of holomorphic
functions, the discrete Legendre transform, and Monge-Ampere residuals.

For holomorphic F, G with |F'| < |G'| the surface

    ( Re W, Im W, s ),   W = (G + conj(F)) / 2,
    s = (|G|^2 - |F|^2)/8 + Re( F G / 4 - (1/2) int F dG )

is a parabolic affine sphere with affine normal (0, 0, 1) and metric
weight e^{2 psi} = (|G'|^2 - |F'|^2)/8.  The harmonic part of the height
is fixed by the structure equations; the printed sources disagree on the
constant in the |G|^2 - |F|^2 term, so the Monge-Ampere residual check
(det Hess = 1 for the graph over (x^1, x^2)) is the arbiter and is
frozen as a regression test.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NonConvexError
from .geometry import lattice_diff, lattice_hessian, polyval, second_diffs
from .immersion import E3, ImmersionMesh


def _polyder(coeffs):
    return tuple((i + 1) * a for i, a in enumerate(coeffs[1:]))


@dataclass(frozen=True)
class HoloPair:
    """Polynomial holomorphic pair (F, G); admissible when |F'| < |G'|."""

    f_coeffs: tuple
    g_coeffs: tuple

    @classmethod
    def from_coeffs(cls, f_coeffs, g_coeffs):
        return cls(tuple(complex(a) for a in f_coeffs),
                   tuple(complex(a) for a in g_coeffs))

    def F(self, z):
        return polyval(self.f_coeffs, z)

    def G(self, z):
        return polyval(self.g_coeffs, z)

    def dF(self, z):
        return polyval(_polyder(self.f_coeffs), z)

    def dG(self, z):
        return polyval(_polyder(self.g_coeffs), z)

    def bound_margin(self, z):
        """min over samples of |G'| - |F'|; the pair is admissible iff > 0."""
        return _bound_margin(np.abs(self.dF(z)), np.abs(self.dG(z)))


def _bound_margin(abs_dF, abs_dG):
    return float(np.min(abs_dG - abs_dF))


def path_integral(fn, points, samples_per_segment=2):
    """Simpson integration of a holomorphic integrand along a polyline."""
    points = np.asarray(points, dtype=complex)
    total = 0.0 + 0.0j
    for z0, z1 in zip(points, points[1:]):
        t = np.linspace(0.0, 1.0, 2 * samples_per_segment + 1)
        zs = z0 + t * (z1 - z0)
        vals = fn(zs)
        # composite Simpson on the uniform parameter grid
        w = np.ones_like(t)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        total += (z1 - z0) * np.sum(w * vals) / (3.0 * (t.size - 1))
    return total


def _cumulative_simpson(y, axis=0):
    """Cumulative integral along `axis` on a unit-step grid, O(h^4): from
    node n - 2 to node n is one Simpson step, so the even and the odd
    nodes each accumulate their steps, in order."""
    y = np.moveaxis(np.asarray(y, dtype=complex), axis, 0)
    out = np.zeros_like(y)
    if y.shape[0] >= 3:
        out[1] = (5.0 * y[0] + 8.0 * y[1] - y[2]) / 12.0
    elif y.shape[0] == 2:
        out[1] = 0.5 * (y[0] + y[1])
    steps = (y[:-2] + 4.0 * y[1:-1] + y[2:]) / 3.0
    out[2::2] = steps[0::2]
    out[3::2] = steps[1::2]
    np.cumsum(out[0::2], axis=0, out=out[0::2])
    np.cumsum(out[1::2], axis=0, out=out[1::2])
    return np.moveaxis(out, 0, axis)


def _parabolic_vertices(pair, domain, dGv):
    """(Re W, Im W, s) per node; int F dG is accumulated by path
    integration from the grid origin (path independence is a property of
    the holomorphic integrand)."""
    z = domain.z
    Fv, Gv = pair.F(z), pair.G(z)
    integrand = Fv * dGv
    spine = _cumulative_simpson(integrand[:, 0] * domain.step1, axis=0)
    teeth = _cumulative_simpson(integrand * domain.step2, axis=1)
    I = spine[:, None] + teeth
    W = 0.5 * (Gv + np.conj(Fv))
    s = ((np.abs(Gv) ** 2 - np.abs(Fv) ** 2) / 8.0
         + np.real(Fv * Gv) / 4.0 - 0.5 * np.real(I))
    return np.stack([W.real, W.imag, s], axis=-1)


def parabolic_from_holomorphic(pair, domain):
    """Parabolic affine sphere mesh from an admissible pair on a planar
    domain."""
    if domain.periodic:
        raise ValueError("the holomorphic representation lives on planar domains")
    z = domain.z
    dGv = pair.dG(z)
    abs_dF, abs_dG = np.abs(pair.dF(z)), np.abs(dGv)
    margin = _bound_margin(abs_dF, abs_dG)
    if margin <= 0:
        raise ValueError(
            f"derivative bound |F'| < |G'| violated (margin {margin:.3e})")
    vertices = _parabolic_vertices(pair, domain, dGv)
    psi = 0.5 * np.log((abs_dG ** 2 - abs_dF ** 2) / 8.0)

    # the (n, m, 3, 3) complex frame is built on its first read: the
    # development and the export use the vertices only
    def frame():
        return np.stack([domain.dz(vertices), domain.dzbar(vertices),
                         np.broadcast_to(E3.astype(complex), vertices.shape)],
                        axis=-2)

    return ImmersionMesh(domain, vertices, frame, "affine_sphere",
                         lam=0, psi=psi, meta={"margin": margin})


@dataclass
class GraphFunction:
    """Scalar field on a regular planar grid, values[i, j] at (x1[i], x2[j])."""

    x1: np.ndarray
    x2: np.ndarray
    values: np.ndarray
    mask: np.ndarray | None = None  # True where the value is valid

    def __post_init__(self):
        self.x1 = np.asarray(self.x1, dtype=float)
        self.x2 = np.asarray(self.x2, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.x1.size, self.x2.size):
            raise ValueError("values must have shape (len(x1), len(x2))")

    @property
    def hx(self):
        return float(self.x1[1] - self.x1[0])

    @property
    def hy(self):
        return float(self.x2[1] - self.x2[0])

    def hessian(self):
        vjj, vkk, vjk = second_diffs(self.values)
        return (vjj / self.hx ** 2, vjk / (self.hx * self.hy),
                vkk / self.hy ** 2)

    def convexity_ok(self, slack=0.0):
        hxx, hxy, hyy = self.hessian()
        det = hxx * hyy - hxy ** 2
        inner = (slice(1, -1), slice(1, -1))
        ok = (det[inner] > -slack) & (hxx[inner] > -slack)
        if self.mask is not None:
            ok = ok | ~self.mask[inner]
        return bool(np.all(ok))


def monge_ampere_residual(values, spacings, lam=0, n=2):
    """det Hess(phi) - 1 (parabolic) or det Hess(phi) - (lam/phi)^{n+2}
    (proper) by centered second differences; interior nodes only.  values
    may be a 2D (n=2) or 3D (n=3) array; returns the interior residual."""
    if n not in (2, 3):
        raise ValueError("dimension n must be 2 or 3")
    v = np.asarray(values, dtype=float)
    if v.ndim != n:
        raise ValueError(f"values must be {n}-dimensional")
    h = [float(s) for s in np.atleast_1d(spacings)]
    if len(h) == 1:
        h = h * n
    if len(h) != n:
        raise ValueError(f"need 1 or {n} grid spacings, got {len(h)}")
    det = np.linalg.det(lattice_hessian(v, h=h))
    if lam == 0:
        rhs = 1.0
    else:
        rhs = (lam / v) ** (n + 2)
    res = det - rhs
    inner = tuple(slice(1, -1) for _ in range(n))
    return res[inner]


def graph_ma_residual(g, lam=0, n=2):
    """Monge-Ampere residual of a GraphFunction, NaN-masked if needed."""
    res = monge_ampere_residual(g.values, (g.hx, g.hy), lam=lam, n=n)
    if g.mask is not None:
        inner = g.mask[1:-1, 1:-1]
        # invalid neighbours contaminate the stencil; shrink by one ring
        valid = np.ones_like(inner)
        m = g.mask
        valid &= m[1:-1, 1:-1] & m[:-2, 1:-1] & m[2:, 1:-1]
        valid &= m[1:-1, :-2] & m[1:-1, 2:]
        valid &= m[:-2, :-2] & m[2:, 2:] & m[:-2, 2:] & m[2:, :-2]
        res = np.where(valid, res, np.nan)
    return res


def legendre_transform(g):
    """Discrete Legendre transform by gradient-map inversion: for each node
    y of a regular grid of g's shape inscribed in the gradient image (4%
    in from each side), solve
    grad s(x) = y by Newton on a C^2 spline of s and set
    s*(y) = x . y - s(x).

    A scattered piecewise-linear resample would be second-order accurate in
    values but its stencil Hessian does not converge, breaking the
    solution-to-solution property of the transform; spline inversion keeps
    the dual Monge-Ampere residual at O(h^2)."""
    from scipy.interpolate import RectBivariateSpline

    if not g.convexity_ok(slack=0.0):
        raise NonConvexError("Legendre transform requires a convex input")
    v = g.values
    sp = RectBivariateSpline(g.x1, g.x2, v, kx=3, ky=3, s=0)
    y1 = lattice_diff(v, 0) / g.hx
    y2 = lattice_diff(v, 1) / g.hy
    inner = (slice(1, -1), slice(1, -1))
    lo1, hi1 = y1[inner].min(), y1[inner].max()
    lo2, hi2 = y2[inner].min(), y2[inner].max()
    pad1, pad2 = 0.04 * (hi1 - lo1), 0.04 * (hi2 - lo2)
    t1 = np.linspace(lo1 + pad1, hi1 - pad1, v.shape[0])
    t2 = np.linspace(lo2 + pad2, hi2 - pad2, v.shape[1])
    T1, T2 = np.meshgrid(t1, t2, indexing="ij")
    x1 = np.full(T1.shape, 0.5 * (g.x1[0] + g.x1[-1]))
    x2 = np.full(T2.shape, 0.5 * (g.x2[0] + g.x2[-1]))
    for _ in range(40):
        gx = sp(x1, x2, dx=1, grid=False) - T1
        gy = sp(x1, x2, dy=1, grid=False) - T2
        hxx = sp(x1, x2, dx=2, grid=False)
        hxy = sp(x1, x2, dx=1, dy=1, grid=False)
        hyy = sp(x1, x2, dy=2, grid=False)
        det = hxx * hyy - hxy ** 2
        det = np.where(np.abs(det) < 1e-300, 1e-300, det)
        dx1 = (hyy * gx - hxy * gy) / det
        dx2 = (hxx * gy - hxy * gx) / det
        x1 = np.clip(x1 - dx1, g.x1[0], g.x1[-1])
        x2 = np.clip(x2 - dx2, g.x2[0], g.x2[-1])
    res1 = sp(x1, x2, dx=1, grid=False) - T1
    res2 = sp(x1, x2, dy=1, grid=False) - T2
    scale = max(hi1 - lo1, hi2 - lo2)
    mask = np.hypot(res1, res2) <= 1e-8 * scale
    vals = x1 * T1 + x2 * T2 - sp(x1, x2, grid=False)
    return GraphFunction(t1, t2, np.where(mask, vals, 0.0), mask=mask)
