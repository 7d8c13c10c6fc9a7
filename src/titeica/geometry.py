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
patches of the Poincare disk, and oblique tori.
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


def _d1(f, periodic):
    """Centered first difference along axis 0 (per unit index step),
    second-order one-sided at non-periodic edges."""
    f = np.asarray(f)
    if periodic:
        return (np.roll(f, -1, axis=0) - np.roll(f, 1, axis=0)) / 2.0
    g = np.empty_like(f)
    g[1:-1] = (f[2:] - f[:-2]) / 2.0
    g[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / 2.0
    g[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / 2.0
    return g


def _d1d1(f, periodic):
    """Second difference along axis 0, one-sided (4-point) at edges."""
    f = np.asarray(f)
    if periodic:
        return np.roll(f, -1, axis=0) - 2.0 * f + np.roll(f, 1, axis=0)
    g = np.empty_like(f)
    g[1:-1] = f[2:] - 2.0 * f[1:-1] + f[:-2]
    g[0] = 2.0 * f[0] - 5.0 * f[1] + 4.0 * f[2] - f[3]
    g[-1] = 2.0 * f[-1] - 5.0 * f[-2] + 4.0 * f[-3] - f[-4]
    return g


def _along(fn, f, axis, periodic):
    f = np.asarray(f)
    if axis == 0:
        return fn(f, periodic)
    return np.moveaxis(fn(np.moveaxis(f, axis, 0), periodic), 0, axis)


def lattice_hessian(f, periodic=False, h=(1.0, 1.0)):
    """Symmetric second differences of f over its first d = len(h) axes,
    scaled by the grid spacings h: second differences on the diagonal,
    first differences of first differences off it, one-sided at
    non-periodic edges.  Trailing component axes of f come before the
    (d, d) matrix axes."""
    f = np.asarray(f)
    d = len(h)
    # matrix axes first in memory, so each entry is a contiguous field
    H = np.empty((d, d) + f.shape, dtype=np.result_type(f, float))
    for i in range(d):
        np.divide(_along(_d1d1, f, i, periodic), h[i] ** 2, out=H[i, i])
        for j in range(i + 1, d):
            dij = _along(_d1, _along(_d1, f, i, periodic), j, periodic)
            np.divide(dij, h[i] * h[j], out=H[i, j])
            H[j, i] = H[i, j]
    return np.moveaxis(H, (0, 1), (-2, -1))


def polyval(coeffs, z):
    """Horner evaluation of sum_i coeffs[i] z^i (ascending coefficients)."""
    out = np.zeros(np.shape(z), dtype=complex)
    for a in reversed(coeffs):
        out = out * z + a
    return out


def _second_diff_matrix(n, periodic):
    import scipy.sparse as sp

    if periodic:
        return sp.diags([1.0, 1.0, -2.0, 1.0, 1.0], [1 - n, -1, 0, 1, n - 1],
                        shape=(n, n), format="csr")
    return sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(n, n), format="csr")


def _centered_diff_matrix(n, periodic):
    import scipy.sparse as sp

    if periodic:
        return sp.diags([0.5, -0.5, 0.5, -0.5], [1 - n, -1, 1, n - 1],
                        shape=(n, n), format="csr")
    return sp.diags([-0.5, 0.5], [-1, 1], shape=(n, n), format="csr")


def dzzbar_matrix(domain):
    """Sparse matrix of the d^2/dz dzbar stencil on the unknowns, flattened:
    every node of a torus, and on a planar grid the Dirichlet restriction
    to the (n-2) x (m-2) interior nodes, built from interior-sized factors
    (the interior of a lattice is a product of index ranges)."""
    import scipy.sparse as sp

    n, m = domain.shape
    if not domain.periodic:
        n, m = n - 2, m - 2
    s1, s2 = domain.step1, domain.step2
    den = 4.0 * ((s1 * np.conj(s2)).imag) ** 2
    D1 = _second_diff_matrix(n, domain.periodic)
    D2 = _second_diff_matrix(m, domain.periodic)
    In, Im = sp.identity(n), sp.identity(m)
    L = (abs(s2) ** 2 * sp.kron(D1, Im) + abs(s1) ** 2 * sp.kron(In, D2))
    cross = (s1 * np.conj(s2)).real
    if abs(cross) > 0:
        C1 = _centered_diff_matrix(n, domain.periodic)
        C2 = _centered_diff_matrix(m, domain.periodic)
        L = L - 2.0 * cross * sp.kron(C1, C2)
    return (L / den).tocsr()


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
        n, m = self.shape
        if n < 8 or m < 8:
            raise ValueError("grid must be at least 8x8")
        if self.step1 == 0 or self.step2 == 0:
            raise ValueError("grid spacings must be nonzero")
        if abs((self.step1 * np.conj(self.step2)).imag) == 0:
            raise ValueError("lattice directions are collinear")

    # -- constructors -------------------------------------------------
    @classmethod
    def torus(cls, tau, n, m):
        tau = complex(tau)
        if tau.imag <= 0:
            raise ValueError("torus modulus must have Im tau > 0")
        return cls((int(n), int(m)), 1.0 / n, tau / m, 0.0, True)

    @classmethod
    def rectangle(cls, width, height, n, m):
        if width <= 0 or height <= 0:
            raise ValueError("rectangle sides must be positive")
        return cls((int(n), int(m)), width / (n - 1), 1j * height / (m - 1),
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
        n, m = self.shape
        j = np.arange(n)[:, None]
        k = np.arange(m)[None, :]
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

    def d_axis(self, f, axis):
        return _along(_d1, f, axis, self.periodic)

    def dz(self, f):
        dj = _along(_d1, f, 0, self.periodic)
        dk = _along(_d1, f, 1, self.periodic)
        return (np.conj(self.step2) * dj - np.conj(self.step1) * dk) / self._jac_det

    def dzbar(self, f):
        dj = _along(_d1, f, 0, self.periodic)
        dk = _along(_d1, f, 1, self.periodic)
        return (-self.step2 * dj + self.step1 * dk) / self._jac_det

    def _second_diffs(self, f):
        H = lattice_hessian(f, self.periodic)
        return H[..., 0, 0], H[..., 1, 1], H[..., 0, 1]

    @cached_property
    def dzzbar_operator(self):
        """dzzbar_matrix(self), built once per domain: a Domain is frozen,
        so the matrix cannot go stale (a continuation reuses it for every
        t)."""
        return dzzbar_matrix(self)

    def dzzbar(self, f):
        djj, dkk, djk = self._second_diffs(f)
        s1, s2 = self.step1, self.step2
        den = 4.0 * ((s1 * np.conj(s2)).imag) ** 2
        out = (abs(s2) ** 2 * djj - 2.0 * (s1 * np.conj(s2)).real * djk
               + abs(s1) ** 2 * dkk) / den
        if np.isrealobj(np.asarray(f)):
            return out.real if np.iscomplexobj(out) else out
        return out

    def dzz(self, f):
        djj, dkk, djk = self._second_diffs(f)
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

    def curvature(self, z):
        z = np.asarray(z, dtype=complex)
        if self.curvature_kind == "flat":
            return np.zeros(z.shape)
        if np.any(np.abs(z) >= 1.0):
            raise OutOfDomainError("point outside the unit disk")
        return np.full(z.shape, -1.0)


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
