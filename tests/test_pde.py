import inspect
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import bisect, brentq
from scipy.sparse.linalg import LinearOperator, spsolve

import titeica as tz
from titeica import pde
from titeica.errors import InvalidSignCase, NoConstantSolution, SingularInputError
from tests.conftest import (dzzbar_matrix, exact_precond,
                            residual_global_reference, sine_matrix_reference)

FLAT = tz.BackgroundMetric("flat")
POIN = tz.BackgroundMetric("poincare_disk")
HYP = tz.SignCase(1, -1)


def poincare_weight(dom):
    """psi = log(sqrt(2)/(1 - |z|^2)): the local weight of the Poincare
    metric (u = 0), an exact solution for Q = 0, lam = -1."""
    return np.log(np.sqrt(2.0) / (1.0 - np.abs(dom.z) ** 2))


# -- residuals ---------------------------------------------------------------

def test_residual_global_constant_solution(torus32):
    p, _ = torus32
    u = np.full(p.domain.shape, tz.constant_solution(1.0, HYP))
    assert np.abs(tz.residual_global(u, p)).max() < 1e-12


def test_residual_global_poincare_zero():
    dom = tz.Domain.disk_patch(0.7, 16, 16)
    p = tz.PdeProblem(dom, POIN, tz.CubicDifferential.constant(0.0), HYP)
    # 0 + 0 - 2 e^0 - 2 kappa = -2 + 2 = 0 exactly
    assert np.abs(tz.residual_global(np.zeros(dom.shape), p)).max() == 0.0


def _zero_of_q_problem():
    """A rectangle whose Q = z - z0 vanishes at the node z0 = z[5, 7], in
    the parabolic case: both exponential terms have a zero coefficient
    there, the second one everywhere."""
    dom = tz.Domain.rectangle(1.0, 0.6, 17, 23)
    Q = tz.CubicDifferential.polynomial([-dom.z[5, 7], 1.0])
    return tz.PdeProblem(dom, FLAT, Q, tz.SignCase(1, 0))


RESIDUAL_PROBLEMS = {
    "disk_patch": lambda: tz.PdeProblem(
        tz.Domain.disk_patch(0.7, 33, 29), POIN,
        tz.CubicDifferential.polynomial([0.5, 0.3]), HYP),
    "flat_torus": lambda: tz.PdeProblem(
        tz.Domain.torus(1j, 16, 12), FLAT, tz.CubicDifferential.constant(0.0),
        tz.SignCase(-1, 0)),
    "oblique_torus": lambda: tz.PdeProblem(
        tz.Domain.torus(0.3 + 1.1j, 12, 10), FLAT,
        tz.CubicDifferential.constant(1.0), tz.SignCase(-1, 1)),
    "zero_of_q": _zero_of_q_problem,
}


def _same_bits(a, b):
    """a and b equal bit for bit, the sign of a zero included, but for the
    payload of a nan."""
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan].view(np.uint64), b[~nan].view(np.uint64)))


@pytest.mark.parametrize("name", sorted(RESIDUAL_PROBLEMS))
def test_residual_global_is_the_allocating_expression(name):
    # the in-place residual against the expression with a new array per
    # term, on u of both signs and with exponentials that overflow: to the
    # bit, signed zeros and the 0 of a vanishing coefficient included
    p = RESIDUAL_PROBLEMS[name]()
    rng = np.random.default_rng(21)
    for scale in (1e-3, 1.0, 30.0):
        u = scale * rng.normal(size=p.domain.shape)
        u[5, 7], u[3, 2], u[-2, 1] = -400.0, 800.0, -0.0
        got = tz.residual_global(u, p)
        assert _same_bits(got, residual_global_reference(u, p))
        # an overflowed exponential is inf under a nonzero coefficient and
        # 0 under a zero one, never 0 * inf = nan
        assert not np.isnan(got).any()


def test_rinf_keeps_a_nan():
    # max |F| over the unknowns alone: a nan among them is the result, so
    # that no line search accepts it; a zero residual reads +0.0
    sys_ = pde._System(_stencil_problem(tz.Domain.rectangle(1.0, 0.6, 17, 23)))
    F = np.full((17, 23), -0.0)
    assert math.copysign(1.0, sys_.rinf(F)) == 1.0
    F[0, 3] = np.nan  # a boundary node
    F[4, 6] = -2.5
    assert sys_.rinf(F) == 2.5
    F[9, 9] = np.nan
    assert np.isnan(sys_.rinf(F)) and not sys_.rinf(F) < 1.0


def test_residual_global_parabolic_trivial():
    dom = tz.Domain.torus(1j, 16, 16)
    p = tz.PdeProblem(dom, FLAT, tz.CubicDifferential.constant(0.0),
                      tz.SignCase(1, 0))
    assert np.abs(tz.residual_global(np.full(dom.shape, 5.0), p)).max() < 1e-11


@pytest.mark.parametrize("signs,Q", [
    ((-1, 0), tz.CubicDifferential.polynomial([0.5, 0.3])),  # lam = 0
    ((1, -1), tz.CubicDifferential.constant(0.0)),           # Q = 0
])
def test_residual_global_no_nan_on_overflow(signs, Q):
    # a vanishing coefficient times an overflowed exponential is 0, not NaN
    dom = tz.Domain.rectangle(1.0, 1.0, 32, 32)
    p = tz.PdeProblem(dom, FLAT, Q, tz.SignCase(*signs))
    u = np.zeros(dom.shape)
    u[::2] = 1e3
    u[1::2] = -1e3
    r = tz.residual_global(u, p)
    assert not np.isnan(r).any()
    assert np.isinf(r).any()


def test_residual_local_constant_solution(torus32):
    p, sol = torus32
    psi = tz.local_weight(sol.u, p.sigma)
    r = tz.residual_local(psi, p.Q, HYP, p.domain)
    assert np.abs(r).max() < 1e-10


def test_residual_local_poincare_weight_order():
    vals = {}
    for n in (32, 64):
        dom = tz.Domain.disk_patch(0.7, n, n)
        r = tz.residual_local(poincare_weight(dom),
                              tz.CubicDifferential.constant(0.0), HYP, dom)
        mgn = n // 8
        vals[n] = np.abs(r[mgn:-mgn, mgn:-mgn]).max()
        assert vals[n] <= 40.0 * dom.hmax ** 2
    assert 3.0 <= vals[32] / vals[64] <= 5.0  # second-order stencils


def test_residual_local_lambda_plus_one():
    dom = tz.Domain.torus(1j, 16, 16)
    r = tz.residual_local(np.zeros(dom.shape),
                          tz.CubicDifferential.constant(0.0),
                          tz.SignCase(-1, 1), dom)
    assert np.abs(r - 1.0).max() < 1e-13


# -- complex Toda form -------------------------------------------------------

def test_toda_residual_trivial():
    dom = tz.Domain.torus(1j, 16, 16)
    z = np.zeros(dom.shape, dtype=complex)
    a = np.ones(dom.shape, dtype=complex)
    r = tz.toda_residual_complex(a, z, z, -1.0, dom)
    assert np.abs(r + 1.0).max() < 1e-13


@pytest.mark.parametrize("case,rsign,lam", [
    (tz.SignCase(1, -1), 1.0, -1.0),    # R = conj(Q), lam = -1
    (tz.SignCase(-1, 1), -1.0, 1.0),    # R = -conj(Q), lam = +1
])
def test_toda_reduces_to_local(case, rsign, lam, torus32):
    p, sol = torus32
    psi = tz.local_weight(sol.u, p.sigma)
    qf = p.Q(p.domain.z)
    r_toda = tz.toda_residual_complex(np.exp(psi.astype(complex)), qf,
                                      rsign * np.conj(qf), lam, p.domain)
    r_local = tz.residual_local(psi, p.Q, case, p.domain)
    assert np.abs(r_toda - r_local).max() < 1e-10


def test_toda_rejects_vanishing():
    dom = tz.Domain.torus(1j, 16, 16)
    a = np.ones(dom.shape, dtype=complex)
    a[3, 4] = 0.0
    with pytest.raises(SingularInputError):
        tz.toda_residual_complex(a, a, a, -1.0, dom)


# -- constant solution and supersolution bound -------------------------------

def test_constant_solution_values():
    assert tz.constant_solution(1.0, HYP) == pytest.approx(np.log(8.0) / 3.0)
    assert tz.constant_solution(1.0, HYP) == pytest.approx(0.693147, abs=1e-6)
    # same for the CP^2 signs, and 8|c|^2 = 1 gives u = 0
    assert tz.constant_solution(np.sqrt(1 / 8), tz.SignCase(-1, 1)) == \
        pytest.approx(0.0)


def test_constant_solution_errors():
    with pytest.raises(NoConstantSolution):
        tz.constant_solution(0.0, HYP)
    with pytest.raises(NoConstantSolution):
        tz.constant_solution(1.0, tz.SignCase(-1, -1))
    with pytest.raises(NoConstantSolution):
        tz.constant_solution(1.0, tz.SignCase(1, 1))


def test_supersolution_root():
    assert tz.cubic_supersolution_root(0.0) == 1.0
    # substitution check: 8 - 4 - 4 = 0, so M = 4 gives m = 2
    assert tz.cubic_supersolution_root(4.0) == 2.0
    # scalar bisection oracle for M = 2
    oracle = bisect(lambda x: x ** 3 - x ** 2 - 2.0, 1.0, 3.0, xtol=1e-13)
    assert tz.cubic_supersolution_root(2.0) == pytest.approx(oracle, abs=1e-10)
    with pytest.raises(ValueError):
        tz.cubic_supersolution_root(-1.0)


def test_supersolution_root_matches_brentq():
    # brentq at its tightest tolerance is the root finder the closed form
    # replaced; both are within a few ulp of the root
    for M in np.logspace(-14.0, 14.0, 57):
        hi = 1.0 + M ** (1.0 / 3.0) + 1e-9
        oracle = brentq(lambda x: x ** 3 - x ** 2 - M, 1.0, hi,
                        xtol=1e-15, rtol=1e-15)
        assert tz.cubic_supersolution_root(M) == pytest.approx(oracle, rel=1e-15)


def test_supersolution_bound_cases():
    dom = tz.Domain.disk_patch(0.7, 16, 16)
    p = tz.PdeProblem(dom, POIN, tz.CubicDifferential.constant(0.0), HYP)
    assert tz.supersolution_bound(p) == 0.0
    with pytest.raises(InvalidSignCase):
        tz.supersolution_bound(
            tz.PdeProblem(dom, POIN, tz.CubicDifferential.constant(1.0),
                          tz.SignCase(-1, -1)))
    m = tz.supersolution_bound(
        tz.PdeProblem(dom, POIN, tz.CubicDifferential.constant(4.0), HYP))
    assert m == pytest.approx(np.log(tz.cubic_supersolution_root(
        np.max(8 * tz.cubic_norm_sq(tz.CubicDifferential.constant(4.0),
                                    POIN, dom.z)))))


# -- scaling shift ----------------------------------------------------------

def test_scaling_shift_values():
    u = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.all(tz.scaling_shift(u, 1.0) == u)
    assert np.abs(tz.scaling_shift(u, np.e) - (u - 1.0)).max() < 1e-15
    with pytest.raises(ValueError):
        tz.scaling_shift(u, 0.0)


def test_scaling_residual_identity():
    rng = np.random.default_rng(3)
    dom = tz.Domain.torus(1j, 16, 16)
    p = tz.PdeProblem(dom, FLAT, tz.CubicDifferential.constant(0.7),
                      tz.SignCase(1, 1))
    u = rng.normal(size=dom.shape)
    for delta in (0.01, 1.0, 7.5):
        v = tz.scaling_shift(u, delta)
        r0 = tz.residual_global(u, p)
        r1 = tz.residual_scaled(v, p, delta)
        assert np.abs(r0 - r1).max() < 1e-9 * max(1.0, np.abs(r0).max())


# -- Newton ------------------------------------------------------------------

@pytest.mark.parametrize("signs", [(1, -1), (-1, 1)])
def test_newton_torus_constant(signs):
    dom = tz.Domain.torus(1j, 48, 48)
    case = tz.SignCase(*signs)
    p = tz.PdeProblem(dom, FLAT, tz.CubicDifferential.constant(1.0), case)
    rep = tz.solve_newton(p)
    assert rep.converged and rep.residual_inf <= 1e-10
    assert np.abs(rep.solution.u - np.log(8.0) / 3.0).max() <= 1e-10


def test_newton_disk_zero(disk_q0):
    p, sol = disk_q0
    assert np.abs(sol.u).max() <= 1e-10


def test_newton_elliptic_contract_only():
    # no existence claim: either non-convergence, or a genuine residual
    dom = tz.Domain.torus(1j, 16, 16)
    p = tz.PdeProblem(dom, FLAT, tz.CubicDifferential.constant(1.0),
                      tz.SignCase(1, 1))
    rep = tz.solve_newton(p, max_iter=25)
    if rep.converged:
        assert rep.residual_inf <= 1e-10
    else:
        assert rep.residual_inf > 1e-10


def test_newton_unique_from_seeds():
    dom = tz.Domain.disk_patch(0.7, 24, 24)
    p = tz.PdeProblem(dom, POIN, tz.CubicDifferential.constant(4.0), HYP)
    sols = [tz.solve_newton(p, u0).solution.u for u0 in (-1.0, 0.0, 1.0)]
    assert np.abs(sols[0] - sols[1]).max() <= 1e-8
    assert np.abs(sols[1] - sols[2]).max() <= 1e-8


def test_newton_boundary_trace():
    # manufactured data: u = 2 psi + log 2 with psi = 0.5 log cosh(2x) solves
    # the C^2 equation (Q = 1); seeding at the trace keeps Newton on it
    dom = tz.Domain.rectangle(1.0, 1.0, 24, 24)
    psi = 0.5 * np.log(np.cosh(2.0 * dom.z.real))
    u_exact = tz.global_weight(psi, 1.0)
    p = tz.PdeProblem(dom, FLAT, tz.CubicDifferential.constant(1.0),
                      tz.SignCase(-1, 0), boundary=u_exact)
    rep = tz.solve_newton(p, u0=u_exact)
    assert rep.converged
    assert np.abs(rep.solution.u - u_exact).max() <= 5e-3


# -- monotone iteration ------------------------------------------------------

def test_monotone_zero_cubic(disk_q0):
    p, _ = disk_q0
    rep = tz.solve_monotone(p)
    assert rep.converged and rep.iterations == 0
    assert np.abs(rep.solution.u).max() == 0.0


def test_monotone_bracket_and_agreement():
    # odd grid so the center node z = 0 realizes max 8||Q||^2 = 2 exactly
    dom = tz.Domain.disk_patch(0.7, 25, 25)
    Q = tz.CubicDifferential.constant(4.0)
    p = tz.PdeProblem(dom, POIN, Q, HYP)
    assert np.max(8 * p.qnorm2) == pytest.approx(2.0)
    rep = tz.solve_monotone(p)
    assert rep.converged
    logm = rep.info["bracket"][1]
    assert logm == pytest.approx(np.log(tz.cubic_supersolution_root(2.0)))
    hist = rep.info["history"]
    assert min(hist["min_step"]) >= -1e-9          # increasing iterates
    assert max(hist["max_u"]) <= logm + 1e-9       # confined below log m
    assert rep.solution.u.min() >= -1e-9
    newton = tz.solve_newton(p)
    assert np.abs(rep.solution.u - newton.solution.u).max() <= 1e-8


def test_monotone_torus_agreement(torus32):
    p, sol = torus32
    rep = tz.solve_monotone(p)
    assert rep.converged
    assert np.abs(rep.solution.u - sol.u).max() <= 1e-8


def test_monotone_invalid_cases():
    dom = tz.Domain.disk_patch(0.7, 16, 16)
    for signs in ((-1, -1), (1, 1), (-1, 1)):
        with pytest.raises(InvalidSignCase):
            tz.solve_monotone(tz.PdeProblem(
                dom, POIN, tz.CubicDifferential.constant(1.0),
                tz.SignCase(*signs)))


# -- Gauss-Bonnet obstruction -------------------------------------------------

def test_gauss_bonnet_obstruction():
    dom = tz.Domain.torus(1j, 16, 16)
    p = tz.PdeProblem(dom, FLAT, tz.CubicDifferential.constant(1.0),
                      tz.SignCase(-1, -1))
    # the weighted grid sum of the residual is strictly negative for every
    # constant u: the integrand 2 e^u + 16 ||Q||^2 e^{-2u} is positive
    for u0 in (-1.0, 0.0, 1.0):
        u = np.full(dom.shape, u0)
        r = tz.residual_global(u, p)
        assert (p.sigma / 4 * r).sum() < 0
        rep = tz.solve_newton(p, u0, max_iter=30)
        assert not rep.converged


# -- global/local identity ----------------------------------------------------

def test_global_local_identity_ratio():
    rng = np.random.default_rng(7)
    worst = {}
    for n in (32, 64):
        dom = tz.Domain.disk_patch(0.7, n, n)
        Q = tz.CubicDifferential.polynomial([0.3, 0.2])
        p = tz.PdeProblem(dom, POIN, Q, HYP)
        vals = []
        for _ in range(20):
            cx = rng.normal(size=6)
            x, y = dom.z.real, dom.z.imag
            u = (cx[0] * np.sin(3 * x) * np.cos(2 * y) + cx[1] * x * y
                 + cx[2] * np.exp(x) + cx[3] * np.cos(5 * y)
                 + cx[4] * x ** 2 + cx[5])
            rg = tz.residual_global(u, p)
            rl = tz.residual_local(tz.local_weight(u, p.sigma), Q, HYP, dom)
            vals.append(np.abs(rg - 4.0 / p.sigma * rl)[1:-1, 1:-1].max())
        worst[n] = max(vals)
        assert worst[n] <= 20.0 * dom.hmax ** 2
    assert 3.5 <= worst[32] / worst[64] <= 4.5


# -- continuation ---------------------------------------------------------------

def test_continuation_t0_identity():
    dom = tz.Domain.disk_patch(0.7, 16, 16)
    Q0 = tz.CubicDifferential.constant(1.0)
    p0 = tz.PdeProblem(dom, POIN, Q0.scaled(0.0), tz.SignCase(-1, -1))
    res = tz.continuation_family(p0, Q0, [0.0])
    assert res.converged_all
    assert np.abs(res.reports[0].solution.u).max() <= 1e-12


def test_continuation_ch2_below_bound():
    dom = tz.Domain.disk_patch(0.7, 25, 25)
    Q0 = tz.CubicDifferential.constant(1.0)
    # sup ||Q0|| over the patch sits at the center node: sigma = 4, so 1/8
    bound = tz.ch2_continuation_bound(Q0, POIN, dom)
    assert bound == pytest.approx(8.0 / (3.0 * np.sqrt(6.0)))
    p0 = tz.PdeProblem(dom, POIN, Q0.scaled(0.0), tz.SignCase(-1, -1))
    res = tz.continuation_family(p0, Q0, np.linspace(0.0, 0.5 * bound, 5))
    assert res.failure_index is None
    assert all(r.converged for r in res.reports)


def test_continuation_records_failure():
    # the torus CH^2 case is obstructed at every t, t = 0 (Q = 0) included:
    # eps lam = +1, so no u makes the integral of the equation vanish
    dom = tz.Domain.torus(1j, 16, 16)
    Q0 = tz.CubicDifferential.constant(1.0)
    p0 = tz.PdeProblem(dom, FLAT, Q0.scaled(0.0), tz.SignCase(-1, -1))
    res = tz.continuation_family(p0, Q0, [0.0, 0.5], max_iter=25)
    assert res.failure_index == 0
    assert len(res.reports) == 1
    [rep] = res.reports
    assert not rep.converged and rep.iterations == 0
    assert "flat torus" in rep.info["reason"]


@pytest.mark.parametrize("t", [np.nan, np.inf], ids=["nan", "inf"])
def test_continuation_rejects_nonfinite_t(t):
    # NaN fails every comparison and inf is larger than every t, so only
    # a finiteness check stops them before a solve on non-finite data
    with pytest.raises(ValueError, match="finite"):
        pde.continuation_grid([0.0, t])
    dom = tz.Domain.disk_patch(0.7, 16, 16)
    Q0 = tz.CubicDifferential.constant(1.0)
    p0 = tz.PdeProblem(dom, POIN, Q0.scaled(0.0), tz.SignCase(-1, -1))
    with pytest.raises(ValueError, match="finite"):
        tz.continuation_family(p0, Q0, [0.0, t])


def _failing_cg(A, b, **kwargs):
    return np.zeros_like(b), 1


def test_continuation_stops_at_linear_stall(monkeypatch):
    # t = 0 (Q = 0) is solved by u = 0 without a step; the first step, at
    # t = 0.1, makes a Krylov solve, which fails: the family stops there
    monkeypatch.setattr(pde, "cg", _failing_cg)
    monkeypatch.setattr(pde, "minres", _failing_cg)
    dom = tz.Domain.disk_patch(0.7, 20, 20)
    Q0 = tz.CubicDifferential.constant(1.0)
    p0 = tz.PdeProblem(dom, POIN, Q0.scaled(0.0), tz.SignCase(-1, -1))
    res = tz.continuation_family(p0, Q0, [0.0, 0.1, 0.2, 0.3])
    assert res.failure_index == 1 and res.t_grid == [0.0, 0.1]
    first, stalled = res.reports
    assert first.converged and first.iterations == 0
    assert not stalled.converged and stalled.iterations == 1
    assert stalled.info["reason"].startswith("linear_stall: ")


# -- stencil matrix and fast-Poisson preconditioner -----------------------------

OBLIQUE = tz.Domain.torus(0.3 + 1.1j, 12, 10)

STENCIL_DOMAINS = pytest.mark.parametrize(
    "dom", [tz.Domain.rectangle(1.0, 0.6, 17, 23),
            tz.Domain.disk_patch(0.7, 20, 20), OBLIQUE],
    ids=["rectangle", "disk_patch", "oblique_torus"])


def _sliced_reference(dom):
    """The Dirichlet block assembled the earlier way: full-grid factors
    with the periodic corners set by hand, sliced to the interior nodes."""
    def factor(n, vals):
        D = sp.diags(vals, [-1, 0, 1], shape=(n, n), format="lil")
        if dom.periodic:
            D[0, n - 1], D[n - 1, 0] = vals[0], vals[2]
        return D.tocsr()

    n, m = dom.shape
    s1, s2 = dom.step1, dom.step2
    den = 4.0 * ((s1 * np.conj(s2)).imag) ** 2
    L = (abs(s2) ** 2 * sp.kron(factor(n, [1.0, -2.0, 1.0]), sp.identity(m))
         + abs(s1) ** 2 * sp.kron(sp.identity(n), factor(m, [1.0, -2.0, 1.0])))
    cross = (s1 * np.conj(s2)).real
    if abs(cross) > 0:
        L = L - 2.0 * cross * sp.kron(factor(n, [-0.5, 0.0, 0.5]),
                                      factor(m, [-0.5, 0.0, 0.5]))
    idx = np.flatnonzero(dom.interior_mask.ravel())
    return (L / den).tocsr()[np.ix_(idx, idx)].tocsr()


@STENCIL_DOMAINS
def test_interior_matrix_direct_assembly(dom):
    L_int = dzzbar_matrix(dom)
    sliced = _sliced_reference(dom)
    assert L_int.shape == sliced.shape and (L_int != sliced).nnz == 0
    # independent oracle: the array stencil applied to interior unit vectors
    idx = np.flatnonzero(dom.interior_mask.ravel())
    dense = np.empty(L_int.shape)
    for col, node in enumerate(idx):
        e = np.zeros(dom.shape)
        e.ravel()[node] = 1.0
        dense[:, col] = dom.dzzbar(e).ravel()[idx]
    assert np.abs(L_int.toarray() - dense).max() <= 1e-12 * np.abs(dense).max()


def _stencil_problem(dom):
    return tz.PdeProblem(dom, FLAT, tz.CubicDifferential.constant(1.0), HYP)


@STENCIL_DOMAINS
def test_stencil_operators_match_matrix(dom, monkeypatch):
    # the matrix-free product against the sparse matrix, the oracle: L_int
    # column by column; then the solve of (L + diag(s)) x = v for an
    # all-negative shift (CG) and a mixed one (MINRES), and, with both
    # Krylov methods made to fail, no solution at all
    sys_ = pde._System(_stencil_problem(dom))
    L = dzzbar_matrix(dom)
    size = sys_.size
    cols = np.empty((size, size))
    for col in range(size):
        e = np.zeros(size)
        e[col] = 1.0
        cols[:, col] = sys_.shifted(e, np.zeros(size))
    scale = np.abs(L).max()
    assert np.abs(cols - L.toarray()).max() <= 1e-12 * scale
    rng = np.random.default_rng(8)
    v, s = rng.normal(size=size), rng.normal(size=size)
    for shift in (-np.abs(s), s):
        ref = spsolve((L + sp.diags(shift)).tocsc(), v)
        x = sys_.solve(shift, v)
        assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()
    assert sys_.linear_iters > 0
    monkeypatch.setattr(pde, "cg", _failing_cg)
    monkeypatch.setattr(pde, "minres", _failing_cg)
    for shift in (-np.abs(s), s):
        assert sys_.solve(shift, v) is None


@pytest.mark.parametrize("dom", [tz.Domain.rectangle(1.0, 0.6, 17, 23),
                                 tz.Domain.disk_patch(0.7, 256, 256)],
                         ids=["rectangle", "disk_patch_256"])
def test_interior_stencil_sums_like_csr(dom):
    # dzzbar_interior sums its terms in the order of the CSR product, so
    # the matrix-free solves reproduce the sparse-matrix solves bit by bit
    n, m = dom.shape
    rng = np.random.default_rng(9)
    f = np.zeros(dom.shape)
    f[1:-1, 1:-1] = rng.normal(size=(n - 2, m - 2))
    s = rng.normal(size=(n - 2, m - 2))
    J = dzzbar_matrix(dom) + sp.diags(s.ravel())
    ref = J @ f[1:-1, 1:-1].ravel()
    assert np.array_equal(dom.dzzbar_interior(f[1:-1, 1:-1], s).ravel(), ref)


@pytest.mark.parametrize("dom", [OBLIQUE, tz.Domain.torus(1j, 16, 12)],
                         ids=["oblique", "square"])
def test_torus_symbol_from_impulse(dom):
    # the FFT of the stencil applied to a unit impulse at node 0 is the
    # symbol of the matrix's first column
    from scipy.fft import rfftn

    sys_ = pde._System(_stencil_problem(dom))
    kernel = dzzbar_matrix(dom)[:, [0]].toarray().reshape(dom.shape)
    ref = -rfftn(kernel).real
    ref[0, 0] = 0.0
    assert np.abs(sys_.symbol - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("dom,c", [
    (tz.Domain.rectangle(1.0, 0.6, 17, 23), 0.0),   # n != m, h1 != h2: axes
    (tz.Domain.rectangle(1.0, 0.6, 17, 23), 3.7),
    (OBLIQUE, 0.7),                                 # cross term in the symbol
])
def test_fast_poisson_inverse(dom, c):
    # P^{-1} r against the sparse solve: the package's FFT on a torus, and
    # on a planar grid the float64 sine transforms of the oracle
    sys_ = pde._System(_stencil_problem(dom))
    r = np.random.default_rng(5).normal(size=sys_.size)
    P = (-dzzbar_matrix(dom) + c * sp.identity(r.size)).tocsc()
    ref = spsolve(P, r)
    exact = sys_.precond(c) if dom.periodic else exact_precond(sys_, c)
    assert np.abs(exact(r) - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("dom,c", [
    (tz.Domain.rectangle(1.0, 0.6, 17, 23), 0.0),
    (tz.Domain.rectangle(1.0, 0.6, 17, 23), 3.7),
    (tz.Domain.rectangle(3.0, 0.2, 64, 33), 0.0),
    (tz.Domain.disk_patch(0.7, 256, 256), 0.0),
    (tz.Domain.disk_patch(0.7, 256, 256), 5.0),
])
def test_single_precision_fast_poisson(dom, c):
    # the planar transforms run in float32: against the float64 oracle,
    # P^{-1} r is off by 0.5-0.7 sqrt(n + m) eps_32 of max |P^{-1} r|
    # (3.8e-7 at 17x23, 1.7e-6 at 256^2), and the bound is 2 sqrt(n + m)
    # eps_32; the result is float64, like everything the solve decides on
    sys_ = pde._System(_stencil_problem(dom))
    r = np.random.default_rng(5).normal(size=sys_.size)
    ref = exact_precond(sys_, c)(r)
    got = sys_.precond(c)(r)
    assert got.dtype == np.float64
    bound = 2.0 * np.sqrt(sum(sys_.grid)) * np.finfo(np.float32).eps
    assert np.abs(got - ref).max() <= bound * np.abs(ref).max()


def test_fast_poisson_torus_mean_mode():
    # at c = 0 P is singular on the constants; P^{-1} stays finite and
    # inverts -L on mean-zero data
    sys_ = pde._System(_stencil_problem(OBLIQUE))
    r = np.random.default_rng(6).normal(size=sys_.size)
    r -= r.mean()
    x = sys_.precond(0.0)(r)
    L = dzzbar_matrix(OBLIQUE)
    assert np.abs(-L @ x - r).max() <= 1e-12 * np.abs(r).max()


@pytest.mark.parametrize("n,m", [(1, 1), (15, 21), (62, 62), (126, 126),
                                 (254, 254)])
def test_sine_matrices_are_the_dst(n, m):
    # S_n X S_m is the orthonormal type-I DST of X; S is its own inverse
    from scipy.fft import dstn

    X = np.random.default_rng(n).normal(size=(n, m))
    ref = dstn(X, type=1, norm="ortho")
    Sn, Sm = pde.sine_matrix(n), pde.sine_matrix(m)
    assert np.abs(Sn @ X @ Sm - ref).max() <= 1e-13 * np.abs(ref).max()
    assert np.array_equal(Sn, Sn.T)
    assert np.abs(Sn @ Sn - np.eye(n)).max() <= 1e-13


@pytest.mark.parametrize("n", [1, 6, 15, 62, 254, 510, 1022])
def test_sine_matrix_has_the_bits_of_n2_sines(n):
    # gathered from its 2(n + 1) distinct values, every entry is the one
    # sine of its reduced argument
    assert np.array_equal(pde.sine_matrix(n), sine_matrix_reference(n))


# -- the in-package Krylov methods against scipy's ------------------------------

def _krylov_system(dom, shift):
    """(A, M, b, matrix of A) for sign (L_int + diag(shift)), the sign
    making A positive definite for an all-negative shift, as _System.solve
    forms them."""
    sys_ = pde._System(_stencil_problem(dom))
    sign = -1.0 if np.all(shift < 0) else 1.0
    b = np.random.default_rng(12).normal(size=shift.size)
    M = sys_.precond(float(np.mean(np.abs(shift))))
    L = sign * (dzzbar_matrix(dom) + sp.diags(shift))
    return (lambda v: sign * sys_.shifted(v, shift)), M, b, L.tocsc()


def _counted(krylov, *args, **kwargs):
    iters = []
    x, info = krylov(*args, callback=lambda xk: iters.append(1), **kwargs)
    return x, info, len(iters)


def _operator(f, size):
    """The function f as the LinearOperator scipy's solvers take."""
    return LinearOperator((size, size), matvec=f, dtype=float)


@pytest.mark.parametrize("dom", [tz.Domain.disk_patch(0.7, 20, 20), OBLIQUE],
                         ids=["disk_patch", "oblique_torus"])
def test_cg_matches_scipy(dom):
    from scipy.sparse.linalg import cg

    size = np.flatnonzero(dom.interior_mask).size
    shift = -np.random.default_rng(13).uniform(0.5, 3.0, size)
    A, M, b, _ = _krylov_system(dom, shift)
    kw = dict(rtol=pde.LINEAR_RTOL, maxiter=20 * size)
    x, info, k = _counted(pde.cg, A, b, M=M, **kw)
    ref, ref_info, ref_k = _counted(cg, _operator(A, size), b,
                                    M=_operator(M, size), atol=0.0, **kw)
    assert info == ref_info == 0 and k == ref_k > 0
    assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("dom", [tz.Domain.rectangle(1.0, 0.6, 17, 23),
                                 OBLIQUE], ids=["rectangle", "oblique_torus"])
def test_minres_matches_direct_solve(dom):
    # a shift of both signs on the scale of the stencil's diagonal makes
    # the system indefinite
    from scipy.sparse.linalg import minres

    scale = np.abs(dzzbar_matrix(dom).diagonal()).mean()
    size = np.flatnonzero(dom.interior_mask).size
    shift = np.random.default_rng(14).normal(scale=scale, size=size)
    A, M, b, L = _krylov_system(dom, shift)
    eig = np.linalg.eigvalsh(L.toarray())
    assert eig[0] < 0 < eig[-1]
    kw = dict(rtol=pde.LINEAR_RTOL, maxiter=20 * size)
    x, info, k = _counted(pde.minres, A, b, M=M, **kw)
    ref = spsolve(L, b)
    assert info == 0
    assert np.abs(x - ref).max() <= 1e-10 * np.abs(ref).max()

    # no later than the first of scipy's iterates, the same Lanczos
    # recurrence, whose residual meets the package's stop ||r||_M <=
    # rtol ||b||_M; scipy's own stop on ||A|| ||x|| is looser, so it
    # runs to a tighter rtol here
    def m_norm(v):
        return np.sqrt(np.dot(v, M(v)))

    met = []
    minres(_operator(A, size), b, M=_operator(M, size),
           rtol=1e-2 * kw["rtol"], maxiter=kw["maxiter"],
           callback=lambda xk: met.append(
               m_norm(b - A(xk)) <= kw["rtol"] * m_norm(b)))
    assert True in met
    assert 0 < k <= met.index(True) + 1


@pytest.mark.parametrize("name,shift_sign", [("cg", -1.0), ("minres", 1.0)])
def test_krylov_maxiter_reports_failure(name, shift_sign):
    # a solve cut off before it converges returns a nonzero info, on which
    # _System.solve returns no step and the solve stops as linear_stall
    dom = tz.Domain.disk_patch(0.7, 20, 20)
    size = np.flatnonzero(dom.interior_mask).size
    shift = shift_sign * np.random.default_rng(15).uniform(0.5, 3.0, size)
    A, M, b, _ = _krylov_system(dom, shift)
    x, info, k = _counted(getattr(pde, name), A, b, M=M,
                          rtol=pde.LINEAR_RTOL, maxiter=2)
    assert info != 0 and k == 2
    assert np.all(np.isfinite(x))


def test_krylov_cap_is_the_unknowns():
    # _System caps a Krylov solve at N iterations, the exact-arithmetic
    # bound; the indefinite system of test_minres_matches_direct_solve
    # needs 3.8 N in floating point, and is a stall
    dom = tz.Domain.rectangle(1.0, 0.6, 17, 23)
    sys_ = pde._System(_stencil_problem(dom))
    size = sys_.size
    assert sys_.maxiter == size == 15 * 21
    scale = np.abs(dzzbar_matrix(dom).diagonal()).mean()
    shift = np.random.default_rng(14).normal(scale=scale, size=size)
    b = np.random.default_rng(12).normal(size=size)
    assert sys_.solve(shift, b) is None
    assert sys_.linear_iters == size


@pytest.mark.parametrize("dom", [
    *(tz.Domain.rectangle(w, h, n, m)
      for w, h, n, m in [(1.0, 1.0, 16, 16), (1.0, 0.6, 17, 23),
                         (3.0, 0.2, 64, 33)]),
    *(tz.Domain.disk_patch(r, n, n)
      for r, n in [(0.1, 16), (0.5, 33), (0.7, 64), (0.95, 256)]),
])
def test_planar_domains_have_no_cross_term(dom):
    # the DST symbol of _System leaves the lattice cross term out of P;
    # P is -L_int + c I, inverted to single precision, only on the
    # orthogonal grids these constructors build
    assert (dom.step1 * np.conj(dom.step2)).real == 0.0


def _oblique_seed(dom):
    n, m = dom.shape
    j, k = np.meshgrid(np.arange(n), np.arange(m), indexing="ij")
    return (np.log(8.0) / 3.0
            + 0.3 * np.cos(2 * np.pi * j / n) * np.sin(2 * np.pi * k / m))


# each runs one preconditioned path: CG on -J (disk), CG on the monotone
# operator, MINRES on the indefinite CP^2 Jacobian, the 9-point torus stencil
SOLVES = {
    "disk_newton": lambda n: tz.solve_newton(tz.PdeProblem(
        tz.Domain.disk_patch(0.7, n, n), POIN,
        tz.CubicDifferential.polynomial([0.5, 0.3]), HYP)),
    "disk_monotone": lambda n: tz.solve_monotone(tz.PdeProblem(
        tz.Domain.disk_patch(0.7, n, n), POIN,
        tz.CubicDifferential.polynomial([0.5, 0.3]), HYP)),
    "cp2_minres": lambda n: tz.solve_newton(tz.PdeProblem(
        tz.Domain.rectangle(1.0, 1.0, n, n), FLAT,
        tz.CubicDifferential.polynomial([0.25, 0.15]), tz.SignCase(-1, 1))),
    "oblique_torus": lambda n: tz.solve_newton(tz.PdeProblem(
        tz.Domain.torus(0.3 + 1.1j, n, n), FLAT,
        tz.CubicDifferential.constant(1.0), HYP),
        _oblique_seed(tz.Domain.torus(0.3 + 1.1j, n, n))),
}


@pytest.mark.parametrize("name", sorted(SOLVES))
def test_linear_iterations_flat_in_n(name):
    small, large = SOLVES[name](32), SOLVES[name](128)
    assert small.converged and large.converged
    assert small.iterations == large.iterations
    # every linear solve takes at least one Krylov iteration ...
    assert small.info["linear_iters"] >= small.iterations
    # ... and the fast-Poisson preconditioner, exact up to its float32
    # transforms on planar grids, keeps the count from growing with the
    # grid
    assert large.info["linear_iters"] <= small.info["linear_iters"]
    assert large.info["linear_iters"] <= 10 * large.iterations


@pytest.mark.parametrize("name", sorted(n for n in SOLVES
                                        if n != "oblique_torus"))
def test_planar_solve_cost_even_and_odd_n(name):
    # 128 and 129 nodes per side take different transform sizes; the
    # solves cost the same Newton steps and, to within one, Krylov
    # iterations
    even, odd = SOLVES[name](128), SOLVES[name](129)
    assert even.converged and odd.converged
    assert even.iterations == odd.iterations
    assert abs(even.info["linear_iters"] - odd.info["linear_iters"]) <= 1


@pytest.mark.parametrize("n", [32, 128])
def test_monotone_keeps_exact_linear_solves(n):
    # the bracket argument needs exact steps: no forcing term here
    rep = SOLVES["disk_monotone"](n)
    assert rep.converged
    assert (rep.iterations, rep.info["linear_iters"]) == (9, 72)


@pytest.mark.parametrize("n", [32, 128])
@pytest.mark.parametrize("name", sorted(SOLVES))
def test_single_precision_keeps_the_solves(name, n, monkeypatch):
    # with the float64 oracle in place of the planar float32 transforms,
    # every solve takes the same Newton steps and Krylov iterations, and
    # u moves at the rounding level (4.2e-17 at most, measured); a torus
    # keeps its FFT in both runs
    fast = SOLVES[name](n)
    precond = pde._System.precond

    def exact(self, c):
        if self.p.domain.periodic:
            return precond(self, c)
        return exact_precond(self, c)

    monkeypatch.setattr(pde._System, "precond", exact)
    ref = SOLVES[name](n)
    assert fast.converged and ref.converged
    assert fast.iterations == ref.iterations
    assert fast.info["linear_iters"] == ref.info["linear_iters"]
    assert np.abs(fast.solution.u - ref.solution.u).max() <= 1e-14


def test_disk_solve_config():
    # the 256^2 Poincare disk patch of the disk_solve benchmark workload:
    # its second Newton step ends at 0.87 of the tolerance, a margin that
    # a less accurate preconditioner could use up and buy a third step
    rep = tz.solve_newton(tz.PdeProblem(
        tz.Domain.disk_patch(0.7, 256, 256), POIN,
        tz.CubicDifferential.polynomial([0.5, 0.3]), HYP), tol=1e-10)
    assert rep.converged
    assert (rep.iterations, rep.info["linear_iters"]) == (2, 8)
    assert rep.residual_inf <= 1e-10


def test_disk_solve_memory_peak():
    # the tracemalloc peak of the 256^2 disk_solve solve, set-up included:
    # 6.8 MiB with the residual, the Jacobian and the Krylov updates
    # written in place and every array freed once it is read no more
    # (10.7 MiB with a new array per term and a gathered interior)
    p = tz.PdeProblem(tz.Domain.disk_patch(0.7, 256, 256), POIN,
                      tz.CubicDifferential.polynomial([0.5, 0.3]), HYP)
    tracemalloc.start()
    try:
        rep = tz.solve_newton(p, tol=1e-10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.converged
    assert peak <= 7.0 * 2 ** 20


@pytest.mark.parametrize("n", [128, 256])
def test_cp2_square_torus_off_the_constant(n):
    # CP^2 on the square torus with Q = 0.9 c*, c* = (pi^2/3)^(3/2), below
    # the branch point of the mode cos 2 pi x, started from u0 + cos 2 pi x:
    # Newton finds the non-constant solution, which depends on x alone,
    # its amplitude within 25 h^2 of the quadrature value 0.6994518 (18.5
    # h^2 measured at both grids).  MINRES's indefinite solves stop on the
    # preconditioned relative residual, which does not loosen as h
    # shrinks, so the counts are those of 64^2
    dom = tz.Domain.torus(1j, n, n)
    c = 0.9 * (np.pi ** 2 / 3.0) ** 1.5
    case = tz.SignCase(-1, 1)
    u0 = pde.constant_solution(c, case)
    x = np.arange(n)[:, None] / n
    start = np.broadcast_to(u0 + np.cos(2.0 * np.pi * x), dom.shape)
    rep = tz.solve_newton(tz.PdeProblem(
        dom, FLAT, tz.CubicDifferential.constant(c), case), start)
    assert rep.converged and rep.residual_inf <= pde.NEWTON_TOL
    assert (rep.iterations, rep.info["linear_iters"]) == (6, 34)
    u = rep.solution.u
    assert np.abs(u - u[:, :1]).max() <= 1e-12
    assert abs((u - u0).max() - 0.6994518) <= 25.0 / n ** 2


@pytest.mark.parametrize("name", sorted(n for n in SOLVES
                                        if n != "disk_monotone"))
def test_newton_history(name):
    rep = SOLVES[name](32)
    hist = rep.info["history"]
    assert rep.converged
    assert sorted(hist) == ["eta", "linear_iters", "rinf", "step"]
    assert all(len(v) == rep.iterations for v in hist.values())
    assert sum(hist["linear_iters"]) == rep.info["linear_iters"]
    assert all(pde.LINEAR_RTOL <= eta <= 1e-2 for eta in hist["eta"])
    # each step starts below the residual of the one before, and the
    # last one ends below that
    rinf = hist["rinf"] + [rep.residual_inf]
    assert all(b < a for a, b in zip(rinf, rinf[1:]))
    assert all(0.0 < t <= 1.0 for t in hist["step"])


def test_stall_guard_resolves_exactly(monkeypatch):
    # a loose solve that returns no step at all stalls the line search;
    # the step is solved again at LINEAR_RTOL, and Newton takes the steps
    # of exact solves
    ref = SOLVES["disk_newton"](48)
    cg = pde.cg
    loose = []

    def zero_when_loose(A, b, *, rtol, **kwargs):
        if rtol > pde.LINEAR_RTOL:
            loose.append(rtol)
            return np.zeros_like(b), 0
        return cg(A, b, rtol=rtol, **kwargs)

    monkeypatch.setattr(pde, "cg", zero_when_loose)
    rep = SOLVES["disk_newton"](48)
    assert len(loose) == ref.iterations
    assert rep.converged and rep.iterations == ref.iterations
    assert rep.info["history"]["eta"] == [pde.LINEAR_RTOL] * rep.iterations
    assert rep.residual_inf <= pde.NEWTON_TOL


# Newton on a torus starts with an all-negative shift (CG); CH^2 with
# Q = 1 on a flat rectangle starts with a mixed one (MINRES)
STALLS = {
    "torus_cg": ("cg", lambda: tz.PdeProblem(
        tz.Domain.torus(1j, 16, 16), FLAT, tz.CubicDifferential.constant(1.0),
        HYP)),
    "ch2_minres": ("minres", lambda: tz.PdeProblem(
        tz.Domain.rectangle(1.0, 1.0, 16, 16), FLAT,
        tz.CubicDifferential.constant(1.0), tz.SignCase(-1, -1))),
}


@pytest.mark.parametrize("name", sorted(STALLS))
def test_newton_stops_at_linear_stall(name, monkeypatch):
    hook, problem = STALLS[name]
    other = {"cg": "minres", "minres": "cg"}[hook]
    calls = []

    def failing(A, b, **kwargs):
        calls.append(kwargs["rtol"])
        return _failing_cg(A, b)

    def never(A, b, **kwargs):
        raise AssertionError(f"{other} called")

    monkeypatch.setattr(pde, hook, failing)
    monkeypatch.setattr(pde, other, never)
    rep = tz.solve_newton(problem())
    assert not rep.converged and rep.iterations == 1
    assert rep.info["reason"].startswith("linear_stall: ")
    assert rep.info["history"]["step"] == [0.0]
    # a failed loose solve is not solved again: the stall ends the solve
    assert calls == rep.info["history"]["eta"] == [pde.FORCING_MAX]


def test_monotone_stops_at_linear_stall(monkeypatch):
    monkeypatch.setattr(pde, "cg", _failing_cg)
    rep = SOLVES["disk_monotone"](16)
    assert not rep.converged and rep.iterations == 0
    assert rep.info["reason"].startswith("linear_stall: ")
    assert rep.info["history"] == {"min_step": [], "max_u": []}
    assert rep.info["bracket"][0] == 0.0


def test_newton_stops_at_line_search_stall(monkeypatch):
    # a linear solve that converges to a zero step: no halving of it
    # lowers the residual, at the forcing term or at LINEAR_RTOL
    monkeypatch.setattr(pde, "cg",
                        lambda A, b, **kwargs: (np.zeros_like(b), 0))
    rep = SOLVES["disk_newton"](16)
    assert not rep.converged and rep.iterations == 1
    assert rep.info["reason"].startswith("line_search_stall: ")
    assert rep.info["history"]["eta"] == [pde.LINEAR_RTOL]
    assert rep.info["history"]["step"] == [0.0]


@pytest.mark.parametrize("solve", [tz.solve_newton, tz.solve_monotone])
def test_stops_at_max_iter(solve):
    p = tz.PdeProblem(tz.Domain.disk_patch(0.7, 16, 16), POIN,
                      tz.CubicDifferential.polynomial([0.5, 0.3]), HYP)
    rep = solve(p, max_iter=1)
    assert not rep.converged and rep.iterations == 1
    assert rep.info["reason"].startswith("max_iter: ")


@pytest.mark.parametrize("name", sorted(SOLVES))
def test_matches_direct_solve(name, monkeypatch):
    fast = SOLVES[name](48)

    def direct(self, shift, rhs, rtol=pde.LINEAR_RTOL):
        L = dzzbar_matrix(self.p.domain)
        return spsolve((L + sp.diags(shift)).tocsc(), rhs)

    monkeypatch.setattr(pde._System, "solve", direct)
    ref = SOLVES[name](48)
    assert fast.converged and ref.converged
    assert fast.iterations == ref.iterations
    assert np.abs(fast.solution.u - ref.solution.u).max() <= 1e-10


@pytest.mark.parametrize("name", ["cg", "minres"])
def test_krylov_hooks_name_callback(name):
    # wrappers such as a tracer count iterations through this keyword
    assert "callback" in inspect.signature(getattr(pde, name)).parameters


@pytest.mark.parametrize("name,hook", [("disk_newton", "cg"),
                                       ("disk_monotone", "cg"),
                                       ("oblique_torus", "cg"),
                                       ("cp2_minres", "minres")])
def test_callback_counts_linear_iters(name, hook, monkeypatch):
    # the shift's sign picks the method: every step of a solve calls that
    # hook once, by its module name, and never the other one
    krylov = getattr(pde, hook)
    counts = {"calls": 0, "iters": 0}

    def counting(A, b, callback=None, **kwargs):
        def count(xk):
            counts["iters"] += 1
            if callback is not None:
                callback(xk)

        counts["calls"] += 1
        return krylov(A, b, callback=count, **kwargs)

    def never(A, b, **kwargs):
        raise AssertionError(f"{other} called on a {hook} solve")

    other = {"cg": "minres", "minres": "cg"}[hook]
    monkeypatch.setattr(pde, hook, counting)
    monkeypatch.setattr(pde, other, never)
    rep = SOLVES[name](32)
    assert rep.converged and "reason" not in rep.info
    assert counts["calls"] == rep.iterations
    assert counts["iters"] == rep.info["linear_iters"] > 0
