"""Closed-form parabolic affine spheres from a pair of holomorphic
functions.

For holomorphic F, G with |F'| < |G'| the surface

    ( Re W, Im W, s ),   W = (G + conj(F)) / 2,
    s = (|G|^2 - |F|^2)/8 + Re( F G / 4 - (1/2) int F dG )

is a parabolic affine sphere with affine normal (0, 0, 1) and metric
weight e^{2 psi} = (|G'|^2 - |F'|^2)/8.  The harmonic part of the height
is fixed by the structure equations; the printed sources disagree on the
constant in the |G|^2 - |F|^2 term, so the arbiter is the Monge-Ampere
residual det Hess phi - 1 of the semi-flat development (the graph phi
over (x^1, x^2)), with det Hess phi = det l / det J^2 for J the lattice
Jacobian of x and l the lattice Hessian of phi less its curvature terms
(`projective._chain_rule`): the `weierstrass` stage gates it
(`projective.monge_ampere_gate`), and it is frozen as a regression test.
The Legendre-dual mirror data are `projective.semiflat_develop`'s.

The mesh and its gate are computed a block of grid rows at a time
(`geometry.row_blocks`): only the vertices and psi are full-size.  The
gate applies `geometry`'s stencils to each block's slab of rows, a halo
row on each side, and every value has the bits of the whole-grid
computation.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import polyval, row_blocks
from .immersion import ImmersionMesh


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


def parabolic_from_holomorphic(pair, domain):
    """Parabolic affine sphere mesh from an admissible pair on a planar
    domain, a block of grid rows at a time (`row_blocks`): only the
    vertices and psi are full-size.  int F dG is accumulated by path
    integration from the grid origin, down column 0 (the spine) and then
    along each row (the teeth); path independence is a property of the
    holomorphic integrand.  A ValueError if |F'| < |G'| fails at a node,
    or if the pair overflows float64."""
    if domain.periodic:
        raise ValueError("the holomorphic representation lives on planar domains")
    n, m = domain.shape
    vertices = np.empty((n, m, 3))
    psi = np.empty((n, m))
    margin = np.inf
    finite = True
    # non-finite values are rejected below, as bad input
    with np.errstate(all="ignore"):
        zc = domain.z_block(cols=slice(0, 1))[:, 0]
        spine = _cumulative_simpson(pair.F(zc) * pair.dG(zc) * domain.step1)
        for rows, _, _ in row_blocks(n, m):
            z = domain.z_block(rows)
            Fv, Gv, dGv = pair.F(z), pair.G(z), pair.dG(z)
            abs_dF, abs_dG = np.abs(pair.dF(z)), np.abs(dGv)
            # np.minimum, unlike min, keeps a nan margin
            margin = np.minimum(margin, np.min(abs_dG - abs_dF))
            psi[rows] = 0.5 * np.log((abs_dG ** 2 - abs_dF ** 2) / 8.0)
            teeth = _cumulative_simpson(Fv * dGv * domain.step2, axis=1)
            W = 0.5 * (Gv + np.conj(Fv))
            v = vertices[rows]
            v[..., 0], v[..., 1] = W.real, W.imag
            v[..., 2] = ((np.abs(Gv) ** 2 - np.abs(Fv) ** 2) / 8.0
                         + np.real(Fv * Gv) / 4.0
                         - 0.5 * np.real(spine[rows, None] + teeth))
            finite &= bool(np.isfinite(v).all()
                           and np.isfinite(psi[rows]).all())
    margin = float(margin)
    if not margin > 0:
        raise ValueError(
            f"derivative bound |F'| < |G'| violated (margin {margin:.3e})")
    if not finite:
        raise ValueError("the pair overflows float64: a vertex or psi is "
                         "not finite")
    return ImmersionMesh(domain, vertices, "affine_sphere", lam=0, psi=psi,
                         meta={"margin": margin})
