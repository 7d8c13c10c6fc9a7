"""Closed-form parabolic affine spheres from a pair of holomorphic
functions.

For holomorphic F, G with |F'| < |G'| the surface

    ( Re W, Im W, s ),   W = (G + conj(F)) / 2,
    s = (|G|^2 - |F|^2)/8 + Re( F G / 4 - (1/2) int F dG )

is a parabolic affine sphere with affine normal (0, 0, 1) and metric
weight e^{2 psi} = (|G'|^2 - |F'|^2)/8.  The harmonic part of the height
is fixed by the structure equations; the printed sources disagree on the
constant in the |G|^2 - |F|^2 term, so the arbiter is the Monge-Ampere
residual det Hess phi - 1 of the semi-flat development
(`projective.semiflat_develop`, the graph phi over (x^1, x^2)): the
`weierstrass` stage gates it, and it is frozen as a regression test.  The
Legendre-dual mirror data are that development's too.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import polyval
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
    margin = float(np.min(abs_dG - abs_dF))
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
