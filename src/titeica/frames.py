"""Flat connection 1-forms alpha = A dz + B dzbar, held as scalar fields
and a constant pattern, their zero-curvature and reality-condition
checks, and frame transport along grid paths.

A form is a list of terms f M dz or conj(f) M dzbar: an (n, m) field f,
psi_z, e^psi (or e^{2 psi}), Q e^{-2 psi} or ones, placed by a constant
r x r matrix M.  Each pattern is written once: `build_connection` the
spectral loop and the C^2 rows, `affine_connection` the affine sphere's
real rows; `minlag_frame_connection` gauges the loop's constants.  The
curvature check and transport read the fields and the pattern
(`curvature_residual`, `_kernels`); dense A and B are built on demand
(`ConnectionForm.dense`), for the reality check.

Two frame conventions are kept explicit:

  row_frame     dF = alpha F, the frame vectors are the rows of F
                (coordinate structure systems).
  column_frame  F^{-1} dF = alpha, the frame vectors are the columns
                (unitary frames of minimal Lagrangian surfaces and the
                spectral loop of connections indexed by zeta); it runs as
                the row form of its transposed constants on F^T.

Zero curvature reads  dzbar(A) - dz(B) + [A, B] = 0  in the row
convention and  dzbar(A) - dz(B) - [A, B] = 0  in the column convention.

The spectral loop A = A0 + zeta A1, B = B0 + B1 / zeta is real for every
zeta iff two identities between its coefficients hold; `reality_check`
tests them on the loop as built and samples no zeta.
"""

from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from ._kernels import pattern_step, real_pattern, transport_polyline
from .errors import InvalidSignCase, PathError
from .geometry import Domain, SignCase, row_blocks

_ETA = np.array([1.0, 1.0, -1.0])
ETA_21 = np.diag(_ETA)


class Term(NamedTuple):
    """f M dz, or conj(f) M dzbar: f an (n, m) field, M a constant matrix."""
    field: np.ndarray
    M: np.ndarray
    dzbar: bool


@dataclass
class ConnectionForm:
    """alpha, the sum of its terms."""

    terms: list
    convention: str  # "row_frame" | "column_frame"
    domain: Domain
    case: SignCase | None = None
    # the zeta a spectral-loop form was built at; None on every other form
    zeta: complex | None = None

    def dense(self):
        """(A, B), the (n, m, r, r) fields of alpha = A dz + B dzbar."""
        r = len(self.terms[0].M)
        A = np.zeros(self.domain.shape + (r, r), dtype=complex)
        B = np.zeros_like(A)
        for f, M, dzbar in self.terms:
            X, g = (B, np.conj(f)) if dzbar else (A, f)
            for i, j in zip(*np.nonzero(M)):
                X[..., i, j] += M[i, j] * g
        return A, B

    def row_system(self, real):
        """(step, fields) of the row system for `_kernels.transport_lines`,
        on a real frame if `real`; a column form's constants transposed."""
        column = self.convention == "column_frame"
        fields, P = real_pattern([(f, M.T if column else M, dzbar)
                                  for f, M, dzbar in self.terms], real)
        return partial(pattern_step, P), fields


# _E[i, j] is the 3 x 3 matrix unit E_ij
_E = np.eye(9, dtype=complex).reshape(3, 3, 3, 3)
# entries (1,3), (2,1), (3,2) of A and (1,2), (2,3), (3,1) of B carry the
# loop's zeta: A = A0 + zeta A1 and B = B0 + B1 / zeta, A1 and B1 there
_ZETA_A = (..., [0, 1, 2], [2, 0, 1])
_ZETA_B = (..., [0, 1, 2], [1, 2, 0])


def build_connection(psi, Q, case, domain, zeta=1.0, convention="column_frame"):
    """column_frame: the loop of flat sl(3, C) connections indexed by zeta
    (the four Toda cases lam = +/-1; zeta enters linearly in the dz part
    and as 1/zeta in the dzbar part, eps multiplying the conj(Q) entry).
    row_frame: the structure system on the rows (f_z, f_zbar, f) of
    minimal Lagrangian surfaces in C^2.  psi_zbar = conj(psi_z) to the
    bit, so each dzbar term holds the field of a dz term."""
    zeta, lam = complex(zeta), case.lam
    if lam == 0 and zeta != 1.0:
        raise InvalidSignCase("the spectral family exists only for lam = +/-1")
    if convention not in ("row_frame", "column_frame"):
        raise ValueError(f"unknown convention {convention!r}")
    row = convention == "row_frame"
    if (lam == 0) != row or (case.epsilon, lam) == (1, 0):
        raise InvalidSignCase(f"no {convention} form for {case.geometry_tag}")
    psi = np.asarray(psi, dtype=float)
    pz, q = domain.dz(psi), Q(domain.z) * np.exp(-2.0 * psi)
    if row:
        one = np.broadcast_to(1.0, domain.shape)    # constant terms
        terms = [Term(pz, 2.0 * _E[0, 0], False),
                 Term(pz, 2.0 * _E[1, 1], True),
                 Term(q, -_E[0, 1], False), Term(q, _E[1, 0], True),
                 Term(one, _E[2, 0], False), Term(one, _E[2, 1], True)]
        return ConnectionForm(terms, convention, domain, case)
    ep = np.exp(psi)
    terms = [Term(pz, _E[0, 0] - _E[1, 1], False),
             Term(pz, _E[1, 1] - _E[0, 0], True),
             Term(ep, (_E[0, 2] + _E[2, 1]) * (-zeta * lam), False),
             Term(ep, (_E[1, 2] + _E[2, 0]) / zeta, True),
             Term(q, _E[1, 0] * zeta, False),
             Term(q, _E[0, 1] * (case.epsilon / zeta), True)]
    return ConnectionForm(terms, convention, domain, case, zeta=zeta)


def affine_connection(psi, Q, lam, domain):
    """The affine sphere's structure system on (f_z, f_zbar, xi) with the
    position row df = f_z dz + f_zbar dzbar, in the constant gauge of the
    real rows (f_x, f_y, xi, f), f_x = f_z + f_zbar, f_y = i (f_z - f_zbar).
    Each field f of 2 psi_z, Q e^{-2 psi}, e^{2 psi} and ones enters as
    f M dz + conj(f M) dzbar, so the form is real."""
    psi = np.asarray(psi, dtype=float)
    M = np.zeros((4, 4, 4), dtype=complex)
    M[0, :2, :2] = [[0.5, -0.5j], [0.5j, 0.5]]
    M[1, :2, :2] = [[0.5, 0.5j], [0.5j, -0.5]]
    M[2, :2, 2] = [1.0, -1.0j]
    M[3, 2:, :2] = [[-0.5 * lam, 0.5j * lam], [0.5, -0.5j]]
    fields = (2.0 * domain.dz(psi), Q(domain.z) * np.exp(-2.0 * psi),
              np.exp(2.0 * psi), np.broadcast_to(1.0, domain.shape))
    terms = [Term(f, X, dzbar) for f, Mf in zip(fields, M)
             for X, dzbar in ((Mf, False), (np.conj(Mf), True))]
    return ConnectionForm(terms, "row_frame", domain, SignCase(1, lam))


def minlag_frame_connection(psi, Q, case, domain):
    """Maurer-Cartan form of the unitary column frame of a minimal
    Lagrangian surface in CP^2 (lam = +1) or CH^2 (lam = -1): the spectral
    loop at zeta = -lam in the constant gauge diag(1, -lam, 1)."""
    if case.epsilon != -1 or case.lam == 0:
        raise InvalidSignCase("unitary frames exist for the CP^2/CH^2 cases")
    loop = build_connection(psi, Q, case, domain, zeta=-case.lam)
    # D^{-1} M D with D = diag(d), d = +/-1: M_ij d_i d_j
    d = np.array([1.0, -case.lam, 1.0])
    terms = [Term(f, M * np.outer(d, d), dzbar) for f, M, dzbar in loop.terms]
    return ConnectionForm(terms, "column_frame", domain, case)


def _times_conj(f, g, rows):
    """f conj(g) on the grid rows `rows`, a real array where it is real:
    f is g or both are real."""
    if f is g:
        f = f[rows]
        return f.real ** 2 + f.imag ** 2 if np.iscomplexobj(f) else f * f
    return f[rows] * np.conj(g[rows])


def curvature_residual(alpha):
    """Nodewise Frobenius norm of the curvature of alpha.

    With the terms grouped by field f, A = sum f M_f and B = sum conj(f)
    N_f, and as dz(conj f) = conj(dzbar f) the curvature is

        sum_f  dzbar(f) M_f - conj(dzbar f) N_f
          +/- sum_{f, g}  f conj(g) [M_f, N_g],

    a sum of scalar columns c with constant parts c U + conj(c) V =
    Re c (U + V) + Im c i(U - V): one per field's derivative and one per
    unordered pair {f, g}, with U = +/-[M_f, N_g] and V = +/-[M_g, N_f]
    (V = 0 for f conj(f), which is real).  A constant (broadcast) field
    has no derivative and a pair whose commutators vanish no column.  The
    curvature is the product of the real columns with the constant
    pattern of their parts' real and imaginary entries, a block of grid
    rows at a time; no (n, m, r, r) field is formed."""
    dom = alpha.domain
    sign = 1.0 if alpha.convention == "row_frame" else -1.0
    groups = {}     # id(f): (f, [M_f, N_f])
    for f, M, dzbar in alpha.terms:
        _, X = groups.setdefault(id(f), (f, np.zeros((2,) + M.shape, complex)))
        X[int(dzbar)] += M
    groups = list(groups.values())
    cols = []       # (c on a block of rows, the parts of Re c [and Im c])

    def add(column, real, U, V):
        cols.append((column, [U + V] if real else [U + V, 1j * (U - V)]))

    for f, (M, N) in groups:
        if any(f.strides):
            add(dom.dzbar(f).__getitem__, False, M, -N)
    for a, (f, (Mf, Nf)) in enumerate(groups):
        for g, (Mg, Ng) in groups[a:]:
            U = sign * (Mf @ Ng - Ng @ Mf)
            V = sign * (Mg @ Nf - Nf @ Mg) if g is not f else np.zeros_like(U)
            if U.any() or V.any():
                real = f is g or not (np.iscomplexobj(f) or np.iscomplexobj(g))
                add(partial(_times_conj, f, g), real, U, V)
    if not cols:
        return np.zeros(dom.shape)
    P = np.stack([W for _, parts in cols for W in parts])
    P = np.concatenate([P.real, P.imag], axis=-1).reshape(len(P), -1)
    out = np.empty(dom.shape)
    for rows, _, _ in row_blocks(*dom.shape):
        X = np.empty(out[rows].shape + (len(P),))
        k = 0
        for column, parts in cols:
            c = column(rows)
            X[..., k] = c.real
            if len(parts) == 2:
                X[..., k + 1] = c.imag
            k += len(parts)
        out[rows] = np.linalg.norm(X @ P, axis=-1)
    return out


def _dagger(X):
    return np.conj(np.swapaxes(X, -1, -2))


def _star(X):
    # eta X^dagger eta with eta = diag(1, 1, -1): a sign mask, no products
    return _dagger(X) * np.outer(_ETA, _ETA)


# (s, rho) per case: alpha takes values in {X : X(iota(zeta)) = -rho(X(zeta))}
# with iota(zeta) = s / conj(zeta)
_REALITY = {
    (1, -1): (-1.0, _dagger),   # hyperbolic affine
    (1, 1): (-1.0, _star),      # elliptic affine
    (-1, -1): (1.0, _star),     # minimal Lagrangian CH^2
    (-1, 1): (1.0, _dagger),    # minimal Lagrangian CP^2
}


def reality_check(alpha):
    """Deviation of the loop from its case's real form, for every zeta at once.

    With A = A0 + zeta A1, B = B0 + B1 / zeta and iota(zeta) = s/conj(zeta),
    X(iota(zeta)) + rho(X(zeta)) = 0 holds for X = A + B, i(A - B) and every
    zeta iff R0 = B0 + rho(A0) and R1 = B1 + s rho(A1) vanish; at one zeta
    its Frobenius norm is at most 2||R0|| + (|zeta| + 1/|zeta|) ||R1||.
    Returns the sup over nodes of 2||R0|| + 4||R1||, a bound of it for every
    1/2 <= |zeta| <= 2."""
    if alpha.zeta is None:
        raise InvalidSignCase("reality conditions apply to the spectral loop "
                              "of the four Toda cases")
    if alpha.case.lam == 0:
        raise InvalidSignCase("no involution for lam = 0")
    s, rho = _REALITY[(alpha.case.epsilon, alpha.case.lam)]
    A, B = alpha.dense()
    A[_ZETA_A] *= s / alpha.zeta    # A0 + s A1
    B[_ZETA_B] *= alpha.zeta        # B0 + B1
    # rho moves the entries of A1 onto those of B1: R1 there, R0 elsewhere
    R = B + rho(A)
    r1 = np.linalg.norm(R[_ZETA_B], axis=-1)
    R[_ZETA_B] = 0.0
    r0 = np.linalg.norm(R, axis=(-2, -1))
    return float(np.max(2.0 * r0 + 4.0 * r1))


def polyline_path(domain, zs):
    """The lattice path through the grid nodes nearest the points zs, an
    (npts, 2) array of node indices: each leg runs along the first lattice
    axis, then along the second."""
    j, k = (np.rint(c).astype(np.intp)
            for c in domain.to_lattice(np.asarray(zs, dtype=complex)))
    # corners (j0, k0), (j1, k0), (j1, k1), (j2, k1), ... joined by unit steps
    corners = np.stack([np.repeat(j, 2)[1:], np.repeat(k, 2)[:-1]], axis=-1)
    d = np.diff(corners, axis=0)
    steps = np.repeat(np.sign(d), np.abs(d).sum(axis=1), axis=0)
    return corners[0] + np.cumsum(np.r_[[[0, 0]], steps], axis=0)


def torus_generator(domain, which):
    """Loop along lattice direction `which` (0 -> period 1, 1 -> period
    tau) from the origin node to its translate by the period, node n of
    the axis unwrapped."""
    if not domain.periodic:
        raise PathError("generator loops require a torus domain")
    if which not in (0, 1):
        raise PathError(f"a torus has generators 0 and 1, not {which!r}")
    nodes = np.zeros((domain.shape[which] + 1, 2), dtype=np.intp)
    nodes[:, which] = np.arange(domain.shape[which] + 1)
    return nodes


def cell_loop(domain, j=0, k=0):
    """Contractible loop around the grid cell with corner node (j, k)."""
    return np.array([[j, k], [j + 1, k], [j + 1, k + 1], [j, k + 1], [j, k]])


def integrate_frame(alpha, path, F0):
    """Transport of F0 along the lattice path (an (npts, 2) array of grid
    nodes, unwrapped on a torus, each step one lattice edge or none), one
    Magnus step per edge, in alpha's convention: the (npts, r, c) frames
    at its nodes, and PathError for any other path.  The kernel ignores
    `max_step`; pipebench's tracer reads it to count int(|edge| /
    max_step) + 1 substeps per edge, as the former RK4 kernel took."""
    F = np.asarray(F0, dtype=complex)
    if not np.all(np.isfinite(F)):
        raise ValueError("initial frame must be finite")
    column, dom = alpha.convention == "column_frame", alpha.domain
    try:
        out = transport_polyline(*alpha.row_system(False), dom.step1,
                                 dom.step2, path,
                                 np.swapaxes(F, -1, -2) if column else F,
                                 periodic=dom.periodic, max_step=dom.hmin / 2)
    except ValueError as exc:
        raise PathError(str(exc)) from exc
    return np.swapaxes(out, -1, -2) if column else out


def holonomy(alpha, loop):
    """Inverse-of-parallel-transport matrix around a closed loop, a lattice
    path that ends at its first node (on a torus, at a translate of it by
    periods): the solution of dJ = <alpha, beta'> J, J(0) = I, at the end
    of the loop."""
    F = integrate_frame(alpha, loop, np.eye(len(alpha.terms[0].M)))
    gap = np.subtract(loop[-1], loop[0])
    if (gap % alpha.domain.shape if alpha.domain.periodic else gap).any():
        raise PathError("holonomy requires a closed loop")
    return F[-1]


def group_residuals(F, group_tag):
    """Residuals of membership in the frame's symmetry group: the
    unitarity defect, su3: ||F^dagger F - I||, su21: ||F^dagger eta F -
    eta|| with eta = diag(1, 1, -1), the max over the frames of F."""
    F = np.asarray(F, dtype=complex)
    if group_tag == "su3":
        dev = _dagger(F) @ F - np.eye(3)
    elif group_tag == "su21":
        dev = (_dagger(F) * _ETA) @ F - ETA_21
    else:
        raise ValueError(f"unknown group tag {group_tag!r}")
    return {"unitarity": float(np.max(np.linalg.norm(dev, axis=(-2, -1))))}
