"""Residual assembly and solvers for the six sign cases of

    Delta_mu u + 16 eps ||Q||^2 e^{-2u} + 2 lam e^u - 2 kappa = 0,

the global form of the Tzitzeica-type equation, together with its local
form 2 psi_{z zbar} + eps |Q|^2 e^{-4 psi} + lam e^{2 psi} = 0 and the
complex Toda form they both embed into.

Discretization: centered second differences on the index lattice
(5-point stencil on orthogonal grids, plus a centered cross term on
oblique tori), periodic on tori, Dirichlet on planar domains.  Newton
iterations are damped by a halving line search on the sup norm of the
residual.  Linear solves are symmetric (after multiplying the equation by
sigma/4) and preconditioned by the constant-coefficient operator
P = -L + c I, inverted exactly by fast transforms (Concus and Golub,
SIAM J. Numer. Anal. 10, 1973): a type-I DST on Dirichlet grids, a real
FFT on tori.  Their iteration counts do not grow with the grid.

scipy is imported inside the functions that call it, never at module
level: the sparse and Krylov routines and the fast transforms load on a
run's first solve, ``brentq`` only for the supersolution bound, so
importing the package, or building a closed-form surface, costs numpy
alone.  ``cg``, ``minres`` and ``spsolve`` are module-level functions
(with scipy's keywords, ``callback`` included) so that tests and tracers
can replace or wrap them by name.
"""

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
    """Positive root m of x^3 - x^2 - M = 0, M = max 8||Q||^2;  m >= 1."""
    M = float(max8q2)
    if M < 0:
        raise ValueError("M must be nonnegative")
    if M == 0.0:
        return 1.0
    from scipy.optimize import brentq

    hi = 1.0 + M ** (1.0 / 3.0) + 1e-9
    return brentq(lambda x: x ** 3 - x ** 2 - M, 1.0, hi, xtol=1e-15, rtol=1e-15)


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


def _sym_solve(A, rhs, spd, M):
    """Solve the symmetric system A x = rhs by CG (spd) or MINRES,
    preconditioned by the SPD operator M ~ A^{-1}, falling back to a sparse
    direct solve if the Krylov method does not converge.  Returns
    (x, Krylov iterations, whether the fallback ran)."""
    iters = 0

    def count(xk):
        nonlocal iters
        iters += 1

    if spd:
        x, info = cg(A, rhs, M=M, rtol=LINEAR_RTOL, atol=0.0,
                     maxiter=20 * rhs.size, callback=count)
    else:
        x, info = minres(A, rhs, M=M, rtol=LINEAR_RTOL,
                         maxiter=20 * rhs.size, callback=count)
    if info != 0:
        x = spsolve(A.tocsc(), rhs)
    return x, iters, info != 0


@dataclass
class SolveReport:
    converged: bool
    iterations: int
    residual_inf: float
    solution: MetricSolution
    info: dict = field(default_factory=dict)


class _System:
    """Shared pieces for a problem: the stencil restricted to the unknowns,
    the interior index, and the symbol of -L_int in the basis of the fast
    transform that diagonalizes it."""

    def __init__(self, p):
        from scipy.fft import dstn, irfftn, rfftn

        dom = p.domain
        self.p = p
        self.L_int = dom.dzzbar_operator
        self.interior = np.flatnonzero(dom.interior_mask.ravel())
        self.w = (p.sigma / 4.0).ravel()[self.interior]  # symmetrizing weight
        n, m = dom.shape
        if dom.periodic:
            # the stencil is circulant, cross term included: its symbol is
            # the FFT of its kernel L e_0, which sums to 0 (constants)
            self.grid = (n, m)
            kernel = self.L_int[:, [0]].toarray().reshape(n, m)
            self.symbol = -rfftn(kernel).real
            self.symbol[0, 0] = 0.0
            self._fwd, self._inv = rfftn, partial(irfftn, s=self.grid)
        else:
            # DST-I eigenvalues of the interior second differences; the
            # cross term, zero on the rectangles and disk patches built by
            # Domain, is left out of P
            self.grid = (n - 2, m - 2)
            s1, s2 = dom.step1, dom.step2
            den = 4.0 * ((s1 * np.conj(s2)).imag) ** 2
            sj = 4.0 * np.sin(np.pi * np.arange(1, n - 1) / (2 * (n - 1))) ** 2
            sk = 4.0 * np.sin(np.pi * np.arange(1, m - 1) / (2 * (m - 1))) ** 2
            self.symbol = (abs(s2) ** 2 * sj[:, None]
                           + abs(s1) ** 2 * sk[None, :]) / den
            self._fwd = self._inv = partial(dstn, type=1, norm="ortho")

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
    import scipy.sparse as sp

    n, m = p.domain.shape
    u = np.zeros((n, m)) if u0 is None else np.broadcast_to(
        np.asarray(u0, dtype=float), (n, m)).copy()
    u = _apply_boundary(p, u)
    sys_ = _System(p)
    F = residual_global(u, p)
    rinf = sys_.rinf(F)
    it = linear_iters = fallbacks = 0
    converged = rinf <= tol
    while not converged and it < max_iter:
        gp = _nonlinear_deriv(p, u).ravel()[sys_.interior]
        shift = sys_.w * gp
        J = (sys_.L_int + sp.diags(shift)).tocsr()
        rhs = -(sys_.w * F.ravel()[sys_.interior])
        # mean |shift| keeps P SPD for CG on -J and for MINRES on J alike
        M = sys_.precond(float(np.mean(np.abs(shift))))
        if np.all(shift < 0):
            delta, k, fell_back = _sym_solve(-J, -rhs, True, M)
        else:
            delta, k, fell_back = _sym_solve(J, rhs, False, M)
        linear_iters += k
        fallbacks += fell_back
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
    info = {"linear_iters": linear_iters, "spsolve_fallbacks": fallbacks}
    return SolveReport(bool(converged), it, rinf, sol, info)


def solve_monotone(p, tol=MONOTONE_TOL, max_iter=400):
    """Monotone (sub/supersolution) iteration for the hyperbolic affine
    sphere case.  Iterates increase from the subsolution and stay below the
    supersolution; the shift constant is sup |dG/du| + 1 on the current
    bracket."""
    import scipy.sparse as sp

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
    it = linear_iters = fallbacks = 0
    converged = rinf <= tol
    while not converged and it < max_iter:
        gmag = np.maximum(np.abs(_nonlinear_deriv(p, u)),
                          np.abs(_nonlinear_deriv(p, super_field)))
        shift = float(np.max(gmag)) + 1.0
        A = (sp.diags(sys_.w * shift) - sys_.L_int).tocsr()
        rhs = sys_.w * F.ravel()[sys_.interior]
        M = sys_.precond(shift * float(np.mean(sys_.w)))
        delta, k, fell_back = _sym_solve(A, rhs, True, M)
        linear_iters += k
        fallbacks += fell_back
        u.ravel()[sys_.interior] += delta
        history["min_step"].append(float(delta.min()))
        history["max_u"].append(float(u.max()))
        F = residual_global(u, p)
        rinf = sys_.rinf(F)
        it += 1
        converged = rinf <= tol
    sol = MetricSolution(u, p.domain, p.mu)
    info = {"bracket": (float(sub), float(super_)),
            "history": history, "linear_iters": linear_iters,
            "spsolve_fallbacks": fallbacks}
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
