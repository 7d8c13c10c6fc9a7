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
negated, positive definite system when every shift is negative (the
hyperbolic affine sphere, and every monotone step), MINRES otherwise
(Paige and Saunders, SIAM J. Numer. Anal. 12, 1975).  Both are
preconditioned by P = -L + c I at c = mean |shift|, inverted exactly by
fast transforms (Concus and Golub, SIAM J. Numer. Anal. 10, 1973): a
type-I DST on Dirichlet grids, a real FFT on tori.  Their iteration
counts do not grow with the grid.  The operator is matrix-free (Knoll and
Keyes, J. Comput. Phys. 193, 2004): `_System.shifted` applies the lattice
stencil L_int of `geometry`.  A Krylov solve that does not converge is
replaced by a sparse direct solve; the matrix of L_int is built, once per
domain, only then.  `_System` counts Krylov iterations and direct solves.

scipy is imported inside the functions that call it, never at module
level: the Krylov routines and the fast transforms load on a run's first
solve and the sparse matrices only for a direct fallback, so importing
the package, or building a closed-form surface, costs numpy alone.  The
supersolution bound is Cardano's formula, with no root finder.  ``cg``,
``minres`` and ``spsolve`` are module-level functions (with scipy's
keywords, ``callback`` included), which `_System.solve` calls by these
names, so that tests and tracers can replace or wrap them.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .errors import InvalidSignCase, NoConstantSolution, SingularInputError
from .geometry import (BackgroundMetric, CubicDifferential, Domain,
                       MetricSolution, SignCase, cubic_norm_sq)

NEWTON_TOL = 1e-10
MONOTONE_TOL = 1e-8
LINEAR_RTOL = 1e-12


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
    # never changed after it is built (continuation builds one per t)
    @cached_property
    def sigma(self):
        return self.mu.sigma(self.domain.z)

    @cached_property
    def kappa(self):
        return self.mu.curvature(self.domain.z)

    @cached_property
    def qnorm2(self):
        return cubic_norm_sq(self.Q, self.mu, self.domain.z)


def _times(coeff, e):
    """coeff * e with 0 wherever coeff is 0, so an overflowed exponential
    under a vanishing coefficient gives 0 rather than 0 * inf = NaN."""
    coeff = np.broadcast_to(coeff, e.shape)
    return np.multiply(coeff, e, out=np.zeros_like(e), where=coeff != 0)


def _nonlinear(p, u):
    # overflow on wildly diverging iterates yields inf residuals, which the
    # line search rejects; keep that path silent
    with np.errstate(over="ignore"):
        return (_times(16.0 * p.case.epsilon * p.qnorm2, np.exp(-2.0 * u))
                + _times(2.0 * p.case.lam, np.exp(u)) - 2.0 * p.kappa)


def _nonlinear_deriv(p, u):
    with np.errstate(over="ignore"):
        return (_times(-32.0 * p.case.epsilon * p.qnorm2, np.exp(-2.0 * u))
                + _times(2.0 * p.case.lam, np.exp(u)))


def residual_global(u, p):
    """Nodewise residual of the global equation, Delta_mu = (4/sigma) d2/dz dzbar."""
    lap = 4.0 / p.sigma * p.domain.dzzbar(u)
    return lap + _nonlinear(p, u)


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


def constant_solution(c, case):
    """u = (1/3) log(8 |c|^2) on the flat torus; only solvable for eps*lam = -1."""
    c = complex(c)
    if case.epsilon * case.lam != -1 or c == 0:
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
    w = math.cbrt((2.0 / 27.0 + M) / 2.0
                  + math.sqrt(M) * math.sqrt(1.0 / 27.0 + M / 4.0))
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

def cg(A, b, *, callback=None, **kwargs):
    """scipy.sparse.linalg.cg; `callback` is named for wrappers that count
    iterations through it."""
    from scipy.sparse.linalg import cg

    return cg(A, b, callback=callback, **kwargs)


def minres(A, b, *, callback=None, **kwargs):
    """scipy.sparse.linalg.minres, with `callback` named as for `cg`."""
    from scipy.sparse.linalg import minres

    return minres(A, b, callback=callback, **kwargs)


def spsolve(A, b, **kwargs):
    """scipy.sparse.linalg.spsolve."""
    from scipy.sparse.linalg import spsolve

    return spsolve(A, b, **kwargs)


@dataclass
class SolveReport:
    converged: bool
    iterations: int
    residual_inf: float
    solution: MetricSolution
    info: dict = field(default_factory=dict)


class _System:
    """Shared pieces for a problem: the stencil restricted to the unknowns,
    applied matrix-free, the interior index, the symbol of -L_int in the
    basis of the fast transform that diagonalizes it, and the linear solve
    with its counts of Krylov iterations and direct solves.

    L_int v is `Domain.dzzbar` of v on a torus.  On a planar grid it is
    `Domain.dzzbar_interior` of one zero-bordered buffer, allocated here,
    whose inner block is v: slices only, so a product gathers, scatters
    and differences no edge node."""

    def __init__(self, p):
        from scipy.fft import dstn, irfftn, rfftn

        dom = p.domain
        self.p = p
        self.interior = np.flatnonzero(dom.interior_mask.ravel())
        self.w = (p.sigma / 4.0).ravel()[self.interior]  # symmetrizing weight
        self.linear_iters = self.spsolve_fallbacks = 0
        n, m = dom.shape
        if dom.periodic:
            # the stencil is circulant, cross term included: its symbol is
            # the FFT of its kernel L e_0, which sums to 0 (constants)
            self.grid = (n, m)
            impulse = np.zeros(self.grid)
            impulse[0, 0] = 1.0
            self.symbol = -rfftn(dom.dzzbar(impulse)).real
            self.symbol[0, 0] = 0.0
            self._fwd, self._inv = rfftn, partial(irfftn, s=self.grid)
        else:
            # DST-I eigenvalues of the interior second differences, which
            # have no cross term on a planar domain
            self.grid = (n - 2, m - 2)
            self._bordered = np.zeros((n, m))
            a, b, _, den = dom.dzzbar_coeffs
            sj = 4.0 * np.sin(np.pi * np.arange(1, n - 1) / (2 * (n - 1))) ** 2
            sk = 4.0 * np.sin(np.pi * np.arange(1, m - 1) / (2 * (m - 1))) ** 2
            self.symbol = (a * sj[:, None] + b * sk[None, :]) / den
            self._fwd = self._inv = partial(dstn, type=1, norm="ortho")

    def shifted(self, v, shift):
        """(L_int + diag(shift)) v for the unknowns v, flattened."""
        dom = self.p.domain
        if dom.periodic:
            out = dom.dzzbar(v.reshape(self.grid)).ravel()
            out += shift * v
            return out
        self._bordered[1:-1, 1:-1] = v.reshape(self.grid)
        return dom.dzzbar_interior(self._bordered,
                                   shift.reshape(self.grid)).ravel()

    def precond(self, c):
        """P^{-1} for P = -L_int + c I (c >= 0) as a LinearOperator."""
        from scipy.sparse.linalg import LinearOperator

        denom = self.symbol + c
        denom[denom == 0.0] = 1.0  # torus mean mode at c = 0, where P is singular

        def apply(r):
            x = self._inv(self._fwd(r.reshape(self.grid)) / denom)
            return x.reshape(r.shape)

        size = self.interior.size
        return LinearOperator((size, size), matvec=apply, dtype=float)

    def solve(self, shift, rhs):
        """x with (L_int + diag(shift)) x = rhs on the unknowns: CG on the
        negated system when every shift is negative, which makes it SPD,
        MINRES otherwise, preconditioned by P^{-1} at c = mean |shift|,
        which is SPD for either.  A Krylov solve that does not converge is
        replaced by a direct solve of the assembled matrix.  Adds to the
        counts `linear_iters` and `spsolve_fallbacks`."""
        from scipy.sparse.linalg import LinearOperator

        sign = -1.0 if np.all(shift < 0) else 1.0

        def apply(v):
            out = self.shifted(np.ravel(v), shift)
            out *= sign
            return out

        def count(xk):
            self.linear_iters += 1

        size = shift.size
        A = LinearOperator((size, size), matvec=apply, dtype=float)
        M = self.precond(float(np.mean(np.abs(shift))))
        b = sign * rhs
        if sign < 0:
            x, info = cg(A, b, M=M, rtol=LINEAR_RTOL, atol=0.0,
                         maxiter=20 * size, callback=count)
        else:
            x, info = minres(A, b, M=M, rtol=LINEAR_RTOL,
                             maxiter=20 * size, callback=count)
        if info != 0:
            import scipy.sparse as sp

            L = self.p.domain.dzzbar_operator
            x = spsolve((sign * (L + sp.diags(shift))).tocsc(), b)
            self.spsolve_fallbacks += 1
        return x

    def rinf(self, F):
        return float(np.max(np.abs(F.ravel()[self.interior])))


def _apply_boundary(p, u):
    if not p.domain.periodic:
        u = u.copy()
        mask = p.domain.boundary_mask
        u[mask] = p.boundary_field[mask]
    return u


def solve_newton(p, u0=None, tol=NEWTON_TOL, max_iter=100):
    """Damped Newton for the global equation.  Returns the best iterate with
    converged=False after max_iter or a stalled line search."""
    n, m = p.domain.shape
    u = np.zeros((n, m)) if u0 is None else np.broadcast_to(
        np.asarray(u0, dtype=float), (n, m)).copy()
    u = _apply_boundary(p, u)
    sys_ = _System(p)
    F = residual_global(u, p)
    rinf = sys_.rinf(F)
    it = 0
    converged = rinf <= tol
    while not converged and it < max_iter:
        gp = _nonlinear_deriv(p, u).ravel()[sys_.interior]
        delta = sys_.solve(sys_.w * gp, -(sys_.w * F.ravel()[sys_.interior]))
        t = 1.0
        accepted = False
        for _ in range(40):
            u_try = u.copy()
            u_try.ravel()[sys_.interior] += t * delta
            F_try = residual_global(u_try, p)
            r_try = sys_.rinf(F_try)
            if r_try < rinf:
                u, F, rinf = u_try, F_try, r_try
                accepted = True
                break
            t *= 0.5
        it += 1
        if not accepted:
            break
        converged = rinf <= tol
    sol = MetricSolution(u, p.domain, p.mu)
    info = {"linear_iters": sys_.linear_iters,
            "spsolve_fallbacks": sys_.spsolve_fallbacks}
    return SolveReport(bool(converged), it, rinf, sol, info)


def solve_monotone(p, tol=MONOTONE_TOL, max_iter=400):
    """Monotone (sub/supersolution) iteration for the hyperbolic affine
    sphere case.  Iterates increase from the subsolution and stay below the
    supersolution; the shift constant is sup |dG/du| + 1 on the current
    bracket."""
    if (p.case.epsilon, p.case.lam) != (1, -1):
        raise InvalidSignCase("monotone iteration requires (eps, lam) = (1, -1)")
    n, m = p.domain.shape
    if p.domain.periodic:
        uc = constant_solution(p.Q.c, p.case)
        sub, super_ = uc - 1.0, uc + 1.0
    else:
        if p.mu.curvature_kind != "poincare_disk":
            raise InvalidSignCase("planar monotone iteration assumes kappa = -1")
        if np.any(p.boundary_field != 0.0):
            raise InvalidSignCase("monotone bracket [0, log m] needs boundary 0")
        sub, super_ = 0.0, supersolution_bound(p)
    u = np.full((n, m), sub)
    u = _apply_boundary(p, u)
    sys_ = _System(p)
    super_field = np.full((n, m), super_)
    history = {"min_step": [], "max_u": []}
    F = residual_global(u, p)
    rinf = sys_.rinf(F)
    it = 0
    converged = rinf <= tol
    while not converged and it < max_iter:
        gmag = np.maximum(np.abs(_nonlinear_deriv(p, u)),
                          np.abs(_nonlinear_deriv(p, super_field)))
        shift = float(np.max(gmag)) + 1.0
        # (w shift - L_int) delta = w F
        delta = sys_.solve(-sys_.w * shift,
                           -(sys_.w * F.ravel()[sys_.interior]))
        u.ravel()[sys_.interior] += delta
        history["min_step"].append(float(delta.min()))
        history["max_u"].append(float(u.max()))
        F = residual_global(u, p)
        rinf = sys_.rinf(F)
        it += 1
        converged = rinf <= tol
    sol = MetricSolution(u, p.domain, p.mu)
    info = {"bracket": (float(sub), float(super_)),
            "history": history, "linear_iters": sys_.linear_iters,
            "spsolve_fallbacks": sys_.spsolve_fallbacks}
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
    increasing and starts at t >= 0."""
    t_grid = [float(t) for t in t_grid]
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
