"""Domains, background metrics, cubic differentials and sign cases.

Conventions used throughout the package.  A conformal background metric
mu = sigma |dz|^2 lives on a grid over a torus or a planar patch.  A
metric solution is stored in the global convention h = e^u mu; the local
convention writes the same metric as h = 2 e^{2 psi} |dz|^2, so

    e^{2 psi} = e^u sigma / 2.

The norm of a cubic differential Q dz^3 in mu is ||Q||^2 = |Q|^2 / sigma^3,
and the Gauss curvature of mu is kappa = -(2/sigma) d^2/dz dzbar log sigma
(computed analytically for the two built-in metrics).

Grids are index lattices z = origin + j*step1 + k*step2 with complex
steps, so derivative stencils work uniformly for rectangles, square
patches of the Poincare disk, and oblique tori.  Every difference
quotient of the package is written in this module: `lattice_diff` and
`lattice_diff2` along one axis, `second_diffs` for (f_jj, f_kk, f_jk),
and from these the `Domain` stencils d/dz, d/dzbar, d^2/dz^2 and
d^2/dz dzbar, and the interior form `Domain.dzzbar_interior` that the
solvers apply matrix-free.  No stencil is assembled as a matrix.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import OutOfDomainError

GEOMETRY_TAGS = {
    (1, -1): "hyperbolic_affine_sphere",
    (1, 0): "parabolic_affine_sphere",
    (1, 1): "elliptic_affine_sphere",
    (-1, -1): "minlag_ch2",
    (-1, 0): "minlag_c2",
    (-1, 1): "minlag_cp2",
}
SIGNS_BY_TAG = {tag: signs for signs, tag in GEOMETRY_TAGS.items()}

# bytes of one complex field over a block of grid rows, in the stages that
# stream a grid a block of rows at a time (`row_blocks`): 32 rows at 512
# columns
ROWS_BLOCK_BYTES = 1 << 18


@dataclass(frozen=True)
class SignCase:
    """Sign pair (epsilon, lambda) selecting one of the six geometries."""

    epsilon: int
    lam: int

    def __post_init__(self):
        if (self.epsilon, self.lam) not in GEOMETRY_TAGS:
            raise ValueError(f"no geometry for signs ({self.epsilon}, {self.lam})")

    @property
    def geometry_tag(self):
        return GEOMETRY_TAGS[(self.epsilon, self.lam)]

    @classmethod
    def from_tag(cls, tag):
        if tag not in SIGNS_BY_TAG:
            raise ValueError(f"unknown geometry tag {tag!r}")
        eps, lam = SIGNS_BY_TAG[tag]
        return cls(eps, lam)

    @property
    def is_affine(self):
        return self.epsilon == 1

    @property
    def is_toda(self):
        return self.lam != 0


def lattice_diff(f, axis, periodic=False):
    """Centered first difference of f along `axis` (per unit index step),
    second-order one-sided at non-periodic edges."""
    f = np.moveaxis(np.asarray(f), axis, 0)
    if periodic:
        g = (np.roll(f, -1, axis=0) - np.roll(f, 1, axis=0)) / 2.0
    else:
        g = np.empty_like(f)
        g[1:-1] = (f[2:] - f[:-2]) / 2.0
        g[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / 2.0
        g[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / 2.0
    return np.moveaxis(g, 0, axis)


def lattice_diff2(f, axis, periodic=False):
    """Second difference of f along `axis`, one-sided (4-point) at
    non-periodic edges.  The centered difference is f_{i+1} - 2 f_i +
    f_{i-1}, its terms in this order, written into the one array that
    it returns."""
    f = np.moveaxis(np.asarray(f), axis, 0)
    if periodic:
        g = np.multiply(f, 2.0)
        np.subtract(f[1:], g[:-1], out=g[:-1])
        np.subtract(f[:1], g[-1:], out=g[-1:])
        g[1:] += f[:-1]
        g[:1] += f[-1:]
    else:
        g = np.empty_like(f)
        np.multiply(f[1:-1], 2.0, out=g[1:-1])
        np.subtract(f[2:], g[1:-1], out=g[1:-1])
        g[1:-1] += f[:-2]
        g[0] = 2.0 * f[0] - 5.0 * f[1] + 4.0 * f[2] - f[3]
        g[-1] = 2.0 * f[-1] - 5.0 * f[-2] + 4.0 * f[-3] - f[-4]
    return np.moveaxis(g, 0, axis)


def second_diffs(f, periodic=False):
    """(f_jj, f_kk, f_jk) over the two lattice axes, per unit index step:
    the three distinct entries of the lattice Hessian."""
    return (lattice_diff2(f, 0, periodic), lattice_diff2(f, 1, periodic),
            lattice_diff(lattice_diff(f, 0, periodic), 1, periodic))


def polyval(coeffs, z):
    """Horner evaluation of sum_i coeffs[i] z^i (ascending coefficients)."""
    out = np.zeros(np.shape(z), dtype=complex)
    for a in reversed(coeffs):
        out *= z
        out += a
    return out


def row_blocks(start, stop, m):
    """Half-open ranges (r0, r1) that cover the rows start..stop - 1 of a
    grid of m columns, in order, each of as many rows as one complex field
    of ROWS_BLOCK_BYTES holds (at least one), but the last."""
    rows = max(1, ROWS_BLOCK_BYTES // (16 * m))
    bounds = list(range(start, stop, rows)) + [stop]
    return list(zip(bounds[:-1], bounds[1:]))


def _grid_shape(n, m):
    """(n, m) as ints; ValueError unless the grid is at least 8x8.  Every
    constructor checks this before it divides by n or m."""
    n, m = int(n), int(m)
    if n < 8 or m < 8:
        raise ValueError("grid must be at least 8x8")
    return n, m


@dataclass(frozen=True)
class Domain:
    """Grid over a torus, a rectangle, or a square patch of the unit disk.

    disk_patch(r) is the axis-aligned square inscribed in the disk of
    radius r < 1 (half side r/sqrt(2)), so every node satisfies |z| <= r
    and Dirichlet data lives on the square's edge.
    """

    shape: tuple
    step1: complex
    step2: complex
    origin: complex
    periodic: bool

    def __post_init__(self):
        _grid_shape(*self.shape)
        if self.step1 == 0 or self.step2 == 0:
            raise ValueError("grid spacings must be nonzero")
        w = self.step1 * np.conj(self.step2)
        if abs(w.imag) == 0:
            raise ValueError("lattice directions are collinear")

    # -- constructors -------------------------------------------------
    @classmethod
    def torus(cls, tau, n, m):
        tau = complex(tau)
        if tau.imag <= 0:
            raise ValueError("torus modulus must have Im tau > 0")
        n, m = _grid_shape(n, m)
        return cls((n, m), 1.0 / n, tau / m, 0.0, True)

    @classmethod
    def rectangle(cls, width, height, n, m):
        if width <= 0 or height <= 0:
            raise ValueError("rectangle sides must be positive")
        n, m = _grid_shape(n, m)
        return cls((n, m), width / (n - 1), 1j * height / (m - 1),
                   -0.5 * width - 0.5j * height, False)

    @classmethod
    def disk_patch(cls, radius, n, m):
        if not 0 < radius < 1:
            raise ValueError("disk patch radius must lie in (0, 1)")
        side = radius * np.sqrt(2.0)
        return cls.rectangle(side, side, n, m)

    # -- coordinates ---------------------------------------------------
    @property
    def z(self):
        return self.z_block()

    def z_block(self, rows=slice(None), cols=slice(None)):
        """z at the nodes of a block of grid rows and columns (two
        slices), by the one expression of `z`: every value keeps its
        bits."""
        n, m = self.shape
        j = np.arange(n)[rows, None]
        k = np.arange(m)[None, cols]
        return self.origin + j * self.step1 + k * self.step2

    @property
    def h1(self):
        return abs(self.step1)

    @property
    def h2(self):
        return abs(self.step2)

    @property
    def hmin(self):
        return min(self.h1, self.h2)

    @property
    def hmax(self):
        return max(self.h1, self.h2)

    @property
    def boundary_mask(self):
        n, m = self.shape
        mask = np.zeros((n, m), dtype=bool)
        if not self.periodic:
            mask[0, :] = mask[-1, :] = True
            mask[:, 0] = mask[:, -1] = True
        return mask

    @property
    def interior_mask(self):
        return ~self.boundary_mask

    def to_lattice(self, z):
        """Invert z = origin + j step1 + k step2 for real (j, k)."""
        z = np.asarray(z, dtype=complex) - self.origin
        det = (self.step1 * np.conj(self.step2)).imag
        j = (z * np.conj(self.step2)).imag / det
        k = -(z * np.conj(self.step1)).imag / det
        return j, k

    # -- derivative stencils (per complex coordinate) -------------------
    @property
    def _jac_det(self):
        # J = step1 conj(step2) - conj(step1) step2 = 2i Im(step1 conj(step2))
        return self.step1 * np.conj(self.step2) - np.conj(self.step1) * self.step2

    def dz(self, f):
        dj = lattice_diff(f, 0, self.periodic)
        dk = lattice_diff(f, 1, self.periodic)
        return (np.conj(self.step2) * dj - np.conj(self.step1) * dk) / self._jac_det

    def dzbar(self, f):
        dj = lattice_diff(f, 0, self.periodic)
        dk = lattice_diff(f, 1, self.periodic)
        return (-self.step2 * dj + self.step1 * dk) / self._jac_det

    @cached_property
    def dzzbar_coeffs(self):
        """(a, b, c, den) with d^2/dz dzbar f = (a f_jj + c f_jk + b f_kk)
        / den: a = |step2|^2, b = |step1|^2, c = -2 Re(step1 conj(step2))
        and den = 4 Im(step1 conj(step2))^2."""
        s1, s2 = self.step1, self.step2
        den = 4.0 * ((s1 * np.conj(s2)).imag) ** 2
        return abs(s2) ** 2, abs(s1) ** 2, -2.0 * (s1 * np.conj(s2)).real, den

    def dzzbar_interior(self, v, shift):
        """d^2/dz dzbar f + shift * f at the (n-2) x (m-2) interior nodes
        of a planar grid, for f zero on the boundary and v = f[1:-1, 1:-1]
        its interior values: the centered five-point stencil alone, read
        from slices of v.  Its terms are summed in the order of a CSR
        product (node j-1, k-1, the node, k+1, j+1), a neighbour on the
        boundary giving the term +0.0, so the result equals, to the bit,
        the product of the stencil's CSR matrix plus diag(shift) with v.
        Each term is formed in one scratch array and added to the result,
        the only two arrays it allocates."""
        a, b, c, den = self.dzzbar_coeffs
        if c != 0:
            raise ValueError("the interior stencil has no cross term")
        # scaled by 1/den as scipy divides a sparse matrix by a scalar
        inv = 1.0 / den
        ca, cb = a * inv, b * inv
        g = np.empty_like(v)
        g[0] = 0.0
        np.multiply(v[:-1], ca, out=g[1:])
        term = np.empty_like(v)
        term[:, 0] = 0.0
        np.multiply(v[:, :-1], cb, out=term[:, 1:])
        g += term
        np.add(shift, (-2.0 * a + -2.0 * b) * inv, out=term)
        term *= v
        g += term
        term[:, -1] = 0.0
        np.multiply(v[:, 1:], cb, out=term[:, :-1])
        g += term
        term[-1] = 0.0
        np.multiply(v[1:], ca, out=term[:-1])
        g += term
        return g

    def dzzbar(self, f):
        """d^2/dz dzbar f = (a f_jj + c f_jk + b f_kk) / den, its terms
        summed in this order in the array of f_jj (c f_jk only on an
        oblique lattice)."""
        a, b, c, den = self.dzzbar_coeffs
        out = lattice_diff2(f, 0, self.periodic)
        out *= a
        if c != 0:  # an orthogonal lattice has c = -0.0: no cross term
            djk = lattice_diff(lattice_diff(f, 0, self.periodic), 1,
                               self.periodic)
            djk *= c
            out += djk
            del djk
        dkk = lattice_diff2(f, 1, self.periodic)
        dkk *= b
        out += dkk
        out /= den
        return out

    def dzz(self, f):
        djj, dkk, djk = second_diffs(f, self.periodic)
        J = self._jac_det
        return (np.conj(self.step2) ** 2 * djj
                - 2.0 * np.conj(self.step1) * np.conj(self.step2) * djk
                + np.conj(self.step1) ** 2 * dkk) / J ** 2


@dataclass(frozen=True)
class BackgroundMetric:
    """Conformal factor sigma with mu = sigma |dz|^2."""

    curvature_kind: str  # "flat" | "poincare_disk"
    sigma0: float = 1.0

    def __post_init__(self):
        if self.curvature_kind not in ("flat", "poincare_disk"):
            raise ValueError(f"unknown metric kind {self.curvature_kind!r}")
        if self.sigma0 <= 0:
            raise ValueError("conformal factor must be positive")

    def sigma(self, z):
        z = np.asarray(z, dtype=complex)
        if self.curvature_kind == "flat":
            return np.full(z.shape, self.sigma0, dtype=float)
        r2 = np.abs(z) ** 2
        if np.any(r2 >= 1.0):
            raise OutOfDomainError("point outside the unit disk")
        return 4.0 / (1.0 - r2) ** 2

    @property
    def kappa(self):
        """The Gauss curvature, the same at every point: 0 for the flat
        metric, -1 on the Poincare disk."""
        return 0.0 if self.curvature_kind == "flat" else -1.0

    def curvature(self, z):
        z = np.asarray(z, dtype=complex)
        if self.curvature_kind != "flat" and np.any(np.abs(z) >= 1.0):
            raise OutOfDomainError("point outside the unit disk")
        return np.full(z.shape, self.kappa)


def gauss_curvature(mu, z):
    """Gauss curvature of mu at z (0 for flat, -1 on the Poincare disk)."""
    return mu.curvature(z)


@dataclass(frozen=True)
class CubicDifferential:
    """Holomorphic cubic differential Q dz^3: constant, or polynomial in z
    (coefficients in ascending order)."""

    kind: str
    c: complex = 0.0
    coeffs: tuple = ()

    def __post_init__(self):
        if self.kind not in ("constant", "polynomial"):
            raise ValueError(f"unknown cubic differential kind {self.kind!r}")

    @classmethod
    def constant(cls, c):
        return cls("constant", complex(c))

    @classmethod
    def polynomial(cls, coeffs):
        return cls("polynomial", 0.0, tuple(complex(a) for a in coeffs))

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        if self.kind == "constant":
            return np.full(z.shape, self.c, dtype=complex)
        return polyval(self.coeffs, z)

    def scaled(self, t):
        if self.kind == "constant":
            return CubicDifferential.constant(t * self.c)
        return CubicDifferential.polynomial(tuple(t * a for a in self.coeffs))


def cubic_norm_sq(Q, mu, z):
    """||Q||^2_mu = |Q(z)|^2 / sigma(z)^3."""
    return np.abs(Q(z)) ** 2 / mu.sigma(z) ** 3


def cubic_norm_induced(Q, mu, u, z):
    """Norm of Q in the solved metric e^u mu: ||Q||_mu e^{-3u/2}."""
    return np.sqrt(cubic_norm_sq(Q, mu, z)) * np.exp(-1.5 * np.asarray(u))


def local_weight(u, sigma):
    """psi with 2 e^{2 psi} |dz|^2 = e^u sigma |dz|^2."""
    return 0.5 * (np.asarray(u) + np.log(sigma) - np.log(2.0))


def global_weight(psi, sigma):
    """Inverse of local_weight: u = 2 psi - log sigma + log 2."""
    return 2.0 * np.asarray(psi) - np.log(sigma) + np.log(2.0)


@dataclass
class MetricSolution:
    """Scalar field u on the grid, global convention h = e^u mu."""

    u: np.ndarray
    domain: Domain
    mu: BackgroundMetric

    @property
    def sigma(self):
        return self.mu.sigma(self.domain.z)

    @property
    def psi(self):
        return local_weight(self.u, self.sigma)
