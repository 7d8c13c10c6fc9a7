"""Residual assembly and solvers for the six sign cases of

    Delta_mu u + 16 eps ||Q||^2 e^{-2u} + 2 lam e^u - 2 kappa = 0,

the global form of the Tzitzeica-type equation, together with its local
form 2 psi_{z zbar} + eps |Q|^2 e^{-4 psi} + lam e^{2 psi} = 0 and the
complex Toda form they both embed into.

Discretization: centered second differences on the index lattice
(5-point stencil on orthogonal grids, plus a centered cross term on
oblique tori), periodic on tori, Dirichlet on planar domains.  Newton
iterations are damped by a halving line search on the sup norm of the
residual.

Every linear system of the equation, multiplied by sigma/4 to make it
symmetric, reads (L_int + diag(shift)) x = rhs, and `_System.solve` is
the one place that solves it.  The shift fixes the method: CG on the
negative definite system when every shift is negative (the hyperbolic
affine sphere, and every monotone step), MINRES otherwise (Paige and
Saunders, SIAM J. Numer. Anal. 12, 1975).  Both stop on the
preconditioned relative residual, and both are preconditioned by
P = -L + c I (negated for CG, like its system) at c = mean |shift|,
inverted in the eigenbasis of L (Concus and Golub, SIAM J. Numer. Anal.
10, 1973): by a real FFT on tori, exactly, and on Dirichlet grids by
X -> S_n X S_m with the orthonormal sine matrices, in single precision.
A preconditioner need not be exact: the float32 transforms are within a
few 1e-6 of P^{-1}, relative, and take half the time of float64 ones.
The Newton and Krylov counts of the solves in the tests and the
benchmark stay those of the exact inverse; MINRES on a strongly
indefinite system can take twice the iterations (1210 against 556 on the
17 x 23 rectangle of tests/test_pde.py).  All that the solve decides on
stays float64: the operator, the Krylov recurrences and their stopping
tests, and the Newton residual.  The iteration counts do not grow with
the grid.  The operator is matrix-free (Knoll and Keyes, J. Comput.
Phys. 193, 2004): `_System.shifted` applies the lattice stencil L_int of
`geometry`.  The residual, the Jacobian's shift, the operator and the
Krylov updates write their terms in place, each summed in the order its
formula is written, so a solve allocates few grid-sized arrays and keeps
none between Newton steps but u and what the next step reads of F.

Newton is inexact (Dembo, Eisenstat and Steihaug, SIAM J. Numer. Anal.
19, 1982; Eisenstat and Walker, SIAM J. Sci. Comput. 17, 1996): a step
at residual ||F||_inf solves its linear system only to the relative
tolerance eta = min(FORCING_MAX, max(LINEAR_RTOL, FORCING_SCALE
||F||_inf)), so the first steps, far from the root, take a few Krylov
iterations and the last ones solve to LINEAR_RTOL.  FORCING_SCALE is
1e-3 rather than 1e-2 for the first step: on the CP^2 rectangle of
tests/test_pde.py (Q = 0.25 + 0.15z, ||F||_inf = 1.5 at the start), a
first step solved to 1e-2 leaves a residual of 7e-2 rather than 9e-3,
and the solve takes a fourth Newton step at 128^2 and 256^2.  If the
line search finds no decrease along a loosely solved step, that step is
solved again once at LINEAR_RTOL before Newton gives up.  The monotone
iteration keeps LINEAR_RTOL on every step: its iterates rise from the
subsolution and stay below the supersolution only when each step is
exact.

A solve that does not converge says why in info["reason"]:
``linear_stall`` (a Krylov solve did not converge, and `_System.solve`
returned no step), ``line_search_stall``, ``max_iter``, or a flat torus
whose data admit no solution.

A solve runs on numpy alone: ``cg`` and ``minres`` are written here, and
the transforms are numpy's FFT and matrix products.  The supersolution
bound is Cardano's formula, with no root finder.  ``cg`` and ``minres``
take a ``callback``; both are module-level functions that
`_System.solve` calls by these names, so that tests and tracers can
replace or wrap them.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .errors import InvalidSignCase, NoConstantSolution, SingularInputError
from .geometry import (BackgroundMetric, CubicDifferential, Domain,
                       MetricSolution, SignCase, cubic_norm_sq, row_blocks)

NEWTON_TOL = 1e-10
MONOTONE_TOL = 1e-8
LINEAR_RTOL = 1e-12
# the forcing term of a Newton step at residual ||F||_inf:
# eta = min(FORCING_MAX, max(LINEAR_RTOL, FORCING_SCALE ||F||_inf))
FORCING_SCALE = 1e-3
FORCING_MAX = 1e-2


@dataclass
class PdeProblem:
    domain: Domain
    mu: BackgroundMetric
    Q: CubicDifferential
    case: SignCase
    boundary: object = 0.0  # Dirichlet data: scalar, or full-grid array (trace used)

    def __post_init__(self):
        if self.domain.periodic:
            if self.Q.kind != "constant":
                raise ValueError("only constant cubic differentials live on a torus")
            if self.mu.curvature_kind != "flat":
                raise ValueError("torus problems use a flat background metric")

    @property
    def boundary_field(self):
        return np.broadcast_to(np.asarray(self.boundary, dtype=float),
                               self.domain.shape)

    # cached: every residual and Jacobian reads them, and a problem is
    # never changed after it is built (continuation builds one per t).
    # sigma and ||Q||^2 = cubic_norm_sq(Q, mu, z) are computed a block of
    # grid rows at a time, from the z of that block alone, which keeps
    # every bit of the whole-grid z
    @cached_property
    def _fields(self):
        n, m = self.domain.shape
        sigma, qnorm2 = np.empty((2, n, m))
        for r0, r1 in row_blocks(0, n, m):
            z = self.domain.z_block(slice(r0, r1))
            s = sigma[r0:r1] = self.mu.sigma(z)
            qnorm2[r0:r1] = np.abs(self.Q(z)) ** 2 / s ** 3
        return sigma, qnorm2

    @property
    def sigma(self):
        return self._fields[0]

    @property
    def qnorm2(self):
        return self._fields[1]

    @property
    def kappa(self):
        """The curvature of mu, a scalar: both background metrics have
        constant curvature."""
        return self.mu.kappa


def _times(coeff, e):
    """e *= coeff in place, with 0 wherever coeff is 0, so an overflowed
    exponential under a vanishing coefficient gives 0 rather than
    0 * inf = NaN.  coeff is a scalar or an array of the shape of e."""
    zero = np.equal(coeff, 0)
    np.multiply(coeff, e, out=e, where=~zero)
    e[zero] = 0.0


def _exp_terms(p, u, c):
    """_times(c eps ||Q||^2, e^{-2u}) + _times(2 lam, e^u), over the grid,
    in one new array and one scratch array."""
    # overflow on wildly diverging iterates yields inf residuals, which the
    # line search rejects; keep that path silent
    with np.errstate(over="ignore"):
        out = np.multiply(u, -2.0)
        np.exp(out, out=out)
        term = np.multiply(c * p.case.epsilon, p.qnorm2)
        _times(term, out)
        np.exp(u, out=term)
        _times(2.0 * p.case.lam, term)
        out += term
    return out


def _nonlinear(p, u):
    out = _exp_terms(p, u, 16.0)
    out -= 2.0 * p.kappa
    return out


def _nonlinear_deriv(p, u):
    return _exp_terms(p, u, -32.0)


def residual_global(u, p):
    """Nodewise residual of the global equation, Delta_mu = (4/sigma)
    d2/dz dzbar: 4/sigma * dzzbar(u) + _nonlinear(p, u), the product and
    the sum written into the array of dzzbar(u)."""
    F = p.domain.dzzbar(u)
    F *= np.divide(4.0, p.sigma)
    F += _nonlinear(p, u)
    return F


def residual_local(psi, Q, case, domain):
    """Nodewise residual of 2 psi_{z zbar} + eps |Q|^2 e^{-4 psi} + lam e^{2 psi}."""
    q = Q(domain.z)
    return (2.0 * domain.dzzbar(psi)
            + case.epsilon * np.abs(q) ** 2 * np.exp(-4.0 * psi)
            + case.lam * np.exp(2.0 * psi))


def toda_residual_complex(a, Qf, Rf, lam, domain):
    """Residual of d^2/dz dw log(a^2) + lam a^2 + Q R a^{-4} with w = zbar.

    With a = e^psi and R = +/- conj(Q) this reduces to residual_local for
    the four lam = +/-1 cases.
    """
    a = np.asarray(a, dtype=complex)
    if np.any(a == 0):
        raise SingularInputError("Toda variable a vanishes at a node")
    la = domain.dzzbar(np.log(a ** 2))
    return la + lam * a ** 2 + np.asarray(Qf) * np.asarray(Rf) * a ** (-4.0)


def flat_torus_solvable(c, case):
    """Whether the equation has any solution on a flat torus with constant
    Q = c.  Integrated over the torus, the Laplacian and kappa drop out:
    int (16 eps ||Q||^2 e^{-2u} + 2 lam e^u) dA = 0, so the two terms must
    have opposite signs (eps lam = -1 and c != 0) or both vanish (lam = 0
    and c = 0)."""
    if case.lam == 0:
        return complex(c) == 0
    return case.epsilon * case.lam == -1 and complex(c) != 0


def _no_solution_reason(p):
    """Why the equation of p has no solution, on a flat torus whose data
    admit none (`flat_torus_solvable`); None everywhere else."""
    if not p.domain.periodic or flat_torus_solvable(p.Q.c, p.case):
        return None
    return (f"no solution on a flat torus for {p.case.geometry_tag} with "
            f"Q = {p.Q.c:g}: the integral of 16 eps ||Q||^2 e^(-2u) + "
            "2 lam e^u must vanish, which needs eps lam = -1 and Q != 0, "
            "or lam = 0 and Q = 0")


def constant_solution(c, case):
    """u = (1/3) log(8 |c|^2) on the flat torus; only solvable for eps*lam = -1."""
    c = complex(c)
    if case.lam == 0 or not flat_torus_solvable(c, case):
        raise NoConstantSolution(
            f"no constant solution for case {case.geometry_tag} with c={c}")
    return np.log(8.0 * abs(c) ** 2) / 3.0


def cubic_supersolution_root(max8q2):
    """Positive root m of x^3 - x^2 - M = 0, M = max 8||Q||^2;  m >= 1.

    Cardano on y = x - 1/3, which solves y^3 - y/3 = q with q = 2/27 + M:
    x = w + 1/(9w) + 1/3 with w^3 = q/2 + sqrt(q^2/4 - 1/729), the radicand
    written as M (1/27 + M/4) so that it does not cancel.  One Newton step
    then brings m within 1 ulp of the root for 1e-14 <= M <= 1e14."""
    M = float(max8q2)
    if M < 0:
        raise ValueError("M must be nonnegative")
    # the base is positive, so its real cube root is a power
    w = ((2.0 / 27.0 + M) / 2.0
         + math.sqrt(M) * math.sqrt(1.0 / 27.0 + M / 4.0)) ** (1.0 / 3.0)
    x = w + 1.0 / (9.0 * w) + 1.0 / 3.0
    return x - ((x - 1.0) * x * x - M) / ((3.0 * x - 2.0) * x)


def supersolution_bound(p):
    """log m for the sub/supersolution bracket [0, log m] of the hyperbolic
    affine sphere equation on a kappa = -1 background."""
    if (p.case.epsilon, p.case.lam) != (1, -1):
        raise InvalidSignCase("supersolution bound requires (eps, lam) = (1, -1)")
    if p.mu.curvature_kind != "poincare_disk":
        raise InvalidSignCase("supersolution bound assumes a kappa = -1 background")
    m = cubic_supersolution_root(np.max(8.0 * p.qnorm2))
    return np.log(m)


def scaling_shift(u, delta):
    """v = u - log(delta), delta > 0."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    return np.asarray(u) - np.log(delta)


def residual_scaled(v, p, delta):
    """Residual of the delta-scaled equation
    Delta v + 16 eps ||Q||^2 delta^{-2} e^{-2v} + 2 lam delta e^v - 2 kappa,
    which v = u - log(delta) satisfies exactly when u solves the original."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    lap = 4.0 / p.sigma * p.domain.dzzbar(v)
    return (lap + 16.0 * p.case.epsilon * p.qnorm2 * delta ** -2 * np.exp(-2.0 * v)
            + 2.0 * p.case.lam * delta * np.exp(v) - 2.0 * p.kappa)


# -- linear solves ---------------------------------------------------------

def cg(A, b, *, M, rtol, maxiter, callback=None):
    """Preconditioned conjugate gradients (Hestenes and Stiefel, J. Res.
    NBS 49, 1952) for A x = b, with A and M = P^{-1} functions of a vector,
    A and P symmetric and both positive definite (or both negative
    definite, which takes the steps of (-A) x = -b with -M, every vector
    but x negated, exactly).  Step for step the iteration of
    scipy.sparse.linalg.cg: x_0 = 0, stop when ||r|| < rtol ||b||, one
    callback(x) per iteration.  Returns (x, info), info 0 on convergence
    and maxiter otherwise.  A and M return a new array on every call,
    which the iteration overwrites; b is not changed."""
    x = np.zeros_like(b)
    bnorm = np.linalg.norm(b)
    if bnorm == 0:
        return x, 0
    atol = rtol * bnorm
    r, p = b.copy(), None
    for _ in range(maxiter):
        if np.linalg.norm(r) < atol:
            return x, 0
        z = M(r)
        rho = np.dot(r, z)
        if p is None:
            p = z
        else:
            p *= rho / rho_prev
            p += z
        del z  # freed before A allocates its result
        q = A(p)
        alpha = rho / np.dot(p, q)
        # r -= alpha q and x += alpha p, both products formed in q
        q *= alpha
        r -= q
        x += np.multiply(p, alpha, out=q)
        del q
        rho_prev = rho
        if callback is not None:
            callback(x)
    return x, maxiter


def minres(A, b, *, M, rtol, maxiter, callback=None):
    """Preconditioned MINRES (Paige and Saunders, SIAM J. Numer. Anal. 12,
    1975) for A x = b, with A symmetric, possibly indefinite, and M = P^{-1}
    symmetric positive definite, both functions of a vector.  The Lanczos
    recurrence and Givens rotations of scipy.sparse.linalg.minres, but
    the stop of `cg`, in the norm the recurrence minimizes: ||r||_M <=
    rtol ||b||_M, that is phibar <= rtol beta1.  scipy's tests on
    ||r|| <= rtol ||A|| ||x|| and ||A r|| <= rtol ||A|| ||r|| loosen as the
    grid is refined, since ||A|| grows like h^-2.  One callback(x) per
    iteration.  Returns (x, info), info 0 on convergence and maxiter
    otherwise.  A and M return a new array on every call, which the
    iteration overwrites (r1 and r2 are kept across iterations, so a
    shared buffer would corrupt them); b is not changed."""
    x = np.zeros_like(b)
    y = M(b)
    beta1 = np.dot(b, y)
    if beta1 < 0:
        raise ValueError("indefinite preconditioner")
    if beta1 == 0:
        return x, 0
    beta1 = math.sqrt(beta1)
    eps = np.finfo(float).eps
    atol = rtol * beta1
    r1 = r2 = b
    # w_{k-2} and w_{k-1}: w_k is written over w_{k-2}, which it is the
    # last to read; every product of a scalar and a vector is formed in
    # `scratch`
    w = np.zeros_like(b)
    w2 = np.zeros_like(b)
    scratch = np.empty_like(b)
    beta, oldb, dbar, epsln, phibar = beta1, 0.0, 0.0, 0.0, beta1
    cs, sn = -1.0, 0.0
    for it in range(1, maxiter + 1):
        # Lanczos step: v_k, alfa_k, beta_{k+1} in the P-inner product;
        # v is scaled in y, the preconditioned vector that M returned
        v = y
        v *= 1.0 / beta
        y = A(v)
        if it >= 2:
            y -= np.multiply(r1, beta / oldb, out=scratch)
        alfa = np.dot(v, y)
        y -= np.multiply(r2, alfa / beta, out=scratch)
        r1, r2 = r2, y
        y = M(r2)
        oldb, beta = beta, np.dot(r2, y)
        if beta < 0:
            raise ValueError("non-symmetric matrix")
        beta = math.sqrt(beta)
        # previous rotation on the new column, then the next rotation
        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        gamma = max(math.hypot(gbar, beta), eps)
        cs, sn = gbar / gamma, beta / gamma
        phi, phibar = cs * phibar, sn * phibar
        # w = (v - oldeps w_{k-2} - delta w_{k-1}) / gamma
        w1, w2 = w2, w
        w1 *= oldeps
        w = np.subtract(v, w1, out=w1)
        w -= np.multiply(w2, delta, out=scratch)
        w *= 1.0 / gamma
        x += np.multiply(w, phi, out=scratch)
        if callback is not None:
            callback(x)
        if phibar <= atol:  # phibar = ||r||_M
            return x, 0
    return x, maxiter


def spsolve(A, b, **kwargs):
    """scipy.sparse.linalg.spsolve, called by no solve: pipebench/tracer.py
    wraps it by name, for `pde.spsolve_fallbacks`, which reads 0."""
    from scipy.sparse.linalg import spsolve

    return spsolve(A, b, **kwargs)


def sine_matrix(n):
    """The orthonormal type-I sine matrix, j, k = 1..n,

        S_jk = sqrt(2/(n+1)) sin(pi j k/(n+1)):

    symmetric, its own inverse, and the eigenbasis of the Dirichlet
    second difference.  j k is reduced mod 2(n+1) in integers, in the
    narrowest unsigned type that holds n^2, so the matrix gathers its
    entries from the 2(n+1) values at the arguments pi a/(n+1), a =
    0..2n+1, each computed once."""
    j = np.arange(1, n + 1, dtype=np.min_scalar_type(n * n))
    period = 2 * (n + 1)
    table = math.sqrt(2.0 / (n + 1)) * np.sin(np.pi / (n + 1) * np.arange(period))
    index = np.multiply.outer(j, j)
    index %= period
    return table[index]


@dataclass
class SolveReport:
    converged: bool
    iterations: int
    residual_inf: float
    solution: MetricSolution
    info: dict = field(default_factory=dict)


class _System:
    """Shared pieces for a problem: the stencil restricted to the unknowns,
    applied matrix-free, the symbol of -L_int in the basis of the
    transform that diagonalizes it, and the linear solve with its count
    of Krylov iterations.

    The unknowns are the nodes of `inner`, a slice pair of the grid: the
    whole grid on a torus, its (n-2) x (m-2) interior block on a planar
    grid.  A grid field F is read at the unknowns as the view F[inner],
    and the vectors of the Krylov solve are those values flattened, row
    by row; `weighted` and `rinf` read a residual there, and a Newton
    step is added to u there.

    L_int v is `Domain.dzzbar` of v on a torus.  On a planar grid it is
    `Domain.dzzbar_interior` of v, the boundary values taken as zero:
    slices only, so a product gathers, scatters and differences no edge
    node.  The transform is numpy's real FFT on a torus and X -> S_n X
    S_m on a planar grid, with the sine matrices built here once, in
    float32 like the symbol they diagonalize: a planar `precond` casts
    its residual to float32 once and its result back to float64 once,
    and makes four single-precision products.  Its two float32 buffers
    are the only work arrays kept here; every other array of a solve is
    allocated where it is formed and freed once it is read no more, so
    that the heap stays low between the phases of a Newton step.

    `maxiter` is N, the number of unknowns (`size`), within which CG and
    MINRES end in exact arithmetic.  A Krylov solve of the tests or the
    benchmark takes at most 64 iterations and at most 0.1 N.  A system
    whose shift is of both signs and as large as the stencil's diagonal
    can need more in floating point, and is reported as a stall: MINRES
    takes 3.8 N on the 17 x 23 rectangle of tests/test_pde.py."""

    def __init__(self, p):
        dom = p.domain
        self.p = p
        n, m = dom.shape
        if dom.periodic:
            self.inner, self.grid = np.s_[:, :], (n, m)
        else:
            self.inner, self.grid = np.s_[1:-1, 1:-1], (n - 2, m - 2)
        self.size = math.prod(self.grid)
        self.linear_iters = 0
        self.maxiter = self.size
        if dom.periodic:
            # the stencil is circulant, cross term included: its symbol is
            # the FFT of its kernel L e_0, which sums to 0 (constants)
            impulse = np.zeros(self.grid)
            impulse[0, 0] = 1.0
            self.symbol = -np.fft.rfftn(dom.dzzbar(impulse)).real
            self.symbol[0, 0] = 0.0
            self._fwd = np.fft.rfftn
            self._inv = partial(np.fft.irfftn, s=self.grid, axes=(0, 1))
        else:
            # the interior second differences, which have no cross term on
            # a planar domain, are diagonal in the sine basis
            a, b, _, den = dom.dzzbar_coeffs
            sj = 4.0 * np.sin(np.pi * np.arange(1, n - 1) / (2 * (n - 1))) ** 2
            sk = 4.0 * np.sin(np.pi * np.arange(1, m - 1) / (2 * (m - 1))) ** 2
            symbol = np.add.outer(a * sj, b * sk)
            symbol /= den
            self.symbol = symbol.astype(np.float32)
            del symbol  # freed before the sine matrices are built
            Sn = sine_matrix(n - 2).astype(np.float32)
            Sm = Sn if m == n else sine_matrix(m - 2).astype(np.float32)
            # the products run in two float32 buffers of this system, so
            # an application allocates only its float64 result; with a
            # new float32 array per product, the heap that glibc kept
            # after a 512^2 CH^2 solve raised the run's peak by 36 MiB
            X, Y = np.empty((2,) + self.grid, np.float32)

            def sines(Z):
                return np.matmul(np.matmul(Sn, Z, out=Y), Sm, out=X)

            def fwd(R):
                X[...] = R
                return sines(X)

            self._fwd = fwd
            self._inv = lambda Z: sines(Z).astype(float)

    def weighted(self, F):
        """w F at the unknowns, flattened, for the symmetrizing weight
        w = sigma/4 and a grid field F: one new array."""
        out = np.divide(self.p.sigma[self.inner], 4.0)
        out *= F[self.inner]
        return out.ravel()

    def shifted(self, v, shift):
        """(L_int + diag(shift)) v for the unknowns v, flattened."""
        dom = self.p.domain
        if dom.periodic:
            out = dom.dzzbar(v.reshape(self.grid)).ravel()
            out += shift * v
            return out
        return dom.dzzbar_interior(v.reshape(self.grid),
                                   shift.reshape(self.grid)).ravel()

    def precond(self, c):
        """The function r -> P^{-1} r for P = -L_int + c I (c >= 0), on
        flattened unknowns."""
        # in the symbol's precision, whatever the type of c
        denom = (self.symbol + c).astype(self.symbol.dtype, copy=False)
        denom[denom == 0.0] = 1.0  # torus mean mode at c = 0, where P is singular

        def apply(r):
            coeffs = self._fwd(r.reshape(self.grid))
            coeffs /= denom
            return self._inv(coeffs).ravel()

        return apply

    def solve(self, shift, rhs, rtol=LINEAR_RTOL):
        """x with (L_int + diag(shift)) x = rhs on the unknowns, to the
        relative tolerance rtol of the Krylov method's stopping test: CG
        when every shift is negative, which makes the system negative
        definite, preconditioned by -P^{-1}, and MINRES otherwise,
        preconditioned by P^{-1}, at c = mean |shift|; P is SPD for
        either.  Newton passes its forcing term as rtol; the monotone
        iteration keeps LINEAR_RTOL.  None, no step, if the Krylov solve
        does not converge; adds to the count `linear_iters`."""
        P = self.precond(float(np.mean(np.abs(shift))))
        if np.all(shift < 0):
            # the system and P^{-1} both negative definite: CG takes the
            # steps of CG on the negated, SPD system and the same x
            krylov = cg

            def M(r):
                out = P(r)
                return np.negative(out, out=out)
        else:
            krylov, M = minres, P

        def count(xk):
            self.linear_iters += 1

        x, info = krylov(partial(self.shifted, shift=shift), rhs, M=M,
                         rtol=rtol, maxiter=self.maxiter, callback=count)
        return x if info == 0 else None

    def rinf(self, F):
        """max |F| over the unknowns, NaN if one of them is NaN: the
        larger of max F and -min F, which both propagate a NaN (the abs
        only clears the sign of a zero)."""
        inner = F[self.inner]
        return abs(float(max(inner.max(), -inner.min())))


def _apply_boundary(p, u):
    """Set the Dirichlet data of p on the edges of the grid field u, in
    place; nothing on a torus."""
    if not p.domain.periodic:
        mask = p.domain.boundary_mask
        u[mask] = p.boundary_field[mask]


def _line_search(p, sys_, u, delta, rinf):
    """(u, F, rinf, t) at the first of 40 halvings t = 1, 1/2, ... of the
    step delta whose residual is below rinf; None if there is none, and
    False if there is no step (delta None: its Krylov solve stalled).
    Every trial is written into one copy of u, whose edges keep u's."""
    if delta is None:
        return False
    u_try = u.copy()
    inner = u_try[sys_.inner]
    delta = delta.reshape(sys_.grid)
    t = 1.0
    for _ in range(40):
        # u + t delta at the unknowns
        np.multiply(delta, t, out=inner)
        inner += u[sys_.inner]
        F_try = residual_global(u_try, p)
        r_try = sys_.rinf(F_try)
        if r_try < rinf:
            return u_try, F_try, r_try, t
        t *= 0.5
    return None


def solve_newton(p, u0=None, tol=NEWTON_TOL, max_iter=100):
    """Damped Newton for the global equation.  Returns the best iterate with
    converged=False and info["reason"] after max_iter steps or a stall, and
    at once, after no step, on a flat torus whose data admit no solution
    (`flat_torus_solvable`): there Newton would drive u towards +/-inf
    until the exponential terms fell below tol.

    Inexact: each step solves its linear system to the forcing term eta
    of its starting residual, and a step whose line search finds no
    decrease at eta > LINEAR_RTOL is solved once more at LINEAR_RTOL (the
    module docstring has both rules).  That guard never fires on the
    benchmark workloads or the solves of the tests, so there each Newton
    step makes exactly one Krylov solve, which
    tests/test_trace_contract.py checks as cg + minres calls = Newton
    steps.

    info["history"] holds one entry per Newton step in each of its lists:
    the residual ||F||_inf the step starts from (`rinf`), the linear
    tolerance it was solved to (`eta`, the last one if the guard fired),
    its Krylov iterations (`linear_iters`) and the line-search factor of
    the step taken (`step`, 0.0 if none was)."""
    n, m = p.domain.shape
    u = np.zeros((n, m)) if u0 is None else np.broadcast_to(
        np.asarray(u0, dtype=float), (n, m)).copy()
    _apply_boundary(p, u)
    sys_ = _System(p)
    F = residual_global(u, p)
    rinf = sys_.rinf(F)
    history = {"rinf": [], "eta": [], "linear_iters": [], "step": []}
    reason = _no_solution_reason(p)
    it = 0
    converged = not reason and rinf <= tol

    def step(rtol):
        # the Jacobian's shift w G'(u) is built for the solve and freed
        # with it, before the line search
        delta = sys_.solve(sys_.weighted(_nonlinear_deriv(p, u)), rhs, rtol)
        return _line_search(p, sys_, u, delta, rinf)

    while not (converged or reason) and it < max_iter:
        # of F, only rhs = -w F is kept
        rhs = sys_.weighted(F)
        np.negative(rhs, out=rhs)
        del F
        eta = min(FORCING_MAX, max(LINEAR_RTOL, FORCING_SCALE * rinf))
        iters = sys_.linear_iters
        found = step(eta)
        if found is None and eta > LINEAR_RTOL:
            eta = LINEAR_RTOL
            found = step(eta)
        history["rinf"].append(rinf)
        history["eta"].append(eta)
        history["linear_iters"].append(sys_.linear_iters - iters)
        history["step"].append(found[3] if found else 0.0)
        it += 1
        if found is False:
            reason = (f"linear_stall: the Krylov solve of Newton step {it} "
                      f"did not converge in {sys_.maxiter} iterations")
        elif found is None:
            reason = (f"line_search_stall: 40 halvings of Newton step {it} "
                      f"found no residual below {rinf:.3e}")
        else:
            u, F, rinf, _ = found
            converged = rinf <= tol
    if not (converged or reason):
        reason = (f"max_iter: residual {rinf:.3e} > tol {tol:.3e} after "
                  f"{it} Newton steps")
    sol = MetricSolution(u, p.domain, p.mu)
    info = {"history": history, "linear_iters": sys_.linear_iters}
    if reason:
        info["reason"] = reason
    return SolveReport(bool(converged), it, rinf, sol, info)


def check_monotone(p):
    """InvalidSignCase unless the monotone iteration applies to p: the
    hyperbolic affine sphere, on a flat torus or on a kappa = -1 planar
    background with zero boundary values, where [0, log m] brackets u."""
    if (p.case.epsilon, p.case.lam) != (1, -1):
        raise InvalidSignCase("monotone iteration requires (eps, lam) = (1, -1)")
    if p.domain.periodic:
        return
    if p.mu.curvature_kind != "poincare_disk":
        raise InvalidSignCase("planar monotone iteration assumes kappa = -1")
    if np.any(p.boundary_field != 0.0):
        raise InvalidSignCase("monotone bracket [0, log m] needs boundary 0")


def solve_monotone(p, tol=MONOTONE_TOL, max_iter=400):
    """Monotone (sub/supersolution) iteration for the hyperbolic affine
    sphere case (`check_monotone`).  Iterates increase from the
    subsolution and stay below the supersolution; the shift constant is
    sup |dG/du| + 1 on the current bracket.  An unconverged solve gives
    info["reason"] as `solve_newton` does: ``max_iter``, ``linear_stall``,
    or, at once after no step, a flat torus without a solution."""
    check_monotone(p)
    n, m = p.domain.shape
    no_solution = reason = _no_solution_reason(p)
    if no_solution:
        sub = super_ = 0.0      # nothing to bracket; no step is taken
    elif p.domain.periodic:
        uc = constant_solution(p.Q.c, p.case)
        sub, super_ = uc - 1.0, uc + 1.0
    else:
        sub, super_ = 0.0, supersolution_bound(p)
    u = np.full((n, m), sub)
    _apply_boundary(p, u)
    sys_ = _System(p)
    # max |G'| at the supersolution, the same on every step
    gsuper = np.abs(_nonlinear_deriv(p, np.full((n, m), super_))).max()
    history = {"min_step": [], "max_u": []}
    F = residual_global(u, p)
    rinf = sys_.rinf(F)
    it = 0
    converged = not reason and rinf <= tol
    while not (converged or reason) and it < max_iter:
        # max |G'| over u and the supersolution, NaN if either has one
        gmag = np.maximum(np.abs(_nonlinear_deriv(p, u)).max(), gsuper)
        shift = float(gmag) + 1.0
        # (w shift - L_int) delta = w F
        rhs = sys_.weighted(F)
        np.negative(rhs, out=rhs)
        delta = sys_.solve(
            sys_.weighted(np.broadcast_to(-shift, (n, m))), rhs)
        if delta is None:
            reason = (f"linear_stall: the Krylov solve of step {it + 1} "
                      f"did not converge in {sys_.maxiter} iterations")
            break
        u[sys_.inner] += delta.reshape(sys_.grid)
        history["min_step"].append(float(delta.min()))
        history["max_u"].append(float(u.max()))
        F = residual_global(u, p)
        rinf = sys_.rinf(F)
        it += 1
        converged = rinf <= tol
    if not (converged or reason):
        reason = (f"max_iter: residual {rinf:.3e} > tol {tol:.3e} after "
                  f"{it} monotone steps")
    sol = MetricSolution(u, p.domain, p.mu)
    info = {"history": history, "linear_iters": sys_.linear_iters}
    if not no_solution:
        info["bracket"] = (float(sub), float(super_))
    if reason:
        info["reason"] = reason
    return SolveReport(bool(converged), it, rinf, sol, info)


def ch2_continuation_bound(Q0, mu, domain):
    """Lower bound (3 sqrt(6) sup ||Q0||_mu)^{-1} on the continuation range
    of the CH2 equation."""
    sup = float(np.max(np.sqrt(cubic_norm_sq(Q0, mu, domain.z))))
    if sup == 0:
        return np.inf
    return 1.0 / (3.0 * np.sqrt(6.0) * sup)


@dataclass
class ContinuationResult:
    t_grid: list
    reports: list
    failure_index: int | None

    @property
    def converged_all(self):
        return self.failure_index is None


def continuation_grid(t_grid):
    """t_grid as a list of floats; ValueError unless it is nonempty,
    finite, increasing and starts at t >= 0."""
    t_grid = [float(t) for t in t_grid]
    if not all(map(math.isfinite, t_grid)):
        raise ValueError("t_grid must be finite")
    if (not t_grid or t_grid[0] < 0
            or any(b <= a for a, b in zip(t_grid, t_grid[1:]))):
        raise ValueError("t_grid must be increasing and start at t >= 0")
    return t_grid


def continuation_family(p0, Q0, t_grid, tol=NEWTON_TOL, max_iter=100):
    """Solve along Q = t Q0 for increasing t, seeding each Newton solve with
    the previous solution.  Stops at the first failure (failure is data,
    not an exception)."""
    t_grid = continuation_grid(t_grid)
    reports = []
    seed = None
    failure = None
    for i, t in enumerate(t_grid):
        pt = PdeProblem(p0.domain, p0.mu, Q0.scaled(t), p0.case, p0.boundary)
        rep = solve_newton(pt, seed, tol=tol, max_iter=max_iter)
        reports.append(rep)
        if not rep.converged:
            failure = i
            break
        seed = rep.solution.u
    return ContinuationResult(t_grid[:len(reports)], reports, failure)
