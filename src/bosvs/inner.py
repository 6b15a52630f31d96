"""Per-block subproblem schemes.

Four ways to produce (x_i^{k+1}, z_i^k, r_i^k) for one block inside an
outer iteration:

* ``generalized_step``: one linearized proximal step with a BB-seeded
  backtracking stepsize and a safeguard that ratchets delta_min_i up by
  tau whenever the accepted delta increased.
* ``multistep_loop``: repeated linearized steps with a running
  (1/delta)-weighted average as z; stops once the accumulated weight
  gamma reaches the previous iteration's and the scaled displacement
  falls below psi(e^{k-1}).
* ``accelerated_loop``: Nesterov-style inner loop with either the
  constant schedule (needs a Lipschitz constant) or the adaptive
  line-searched schedule; z is the accelerated average.
* ``exact_block_solve``: minimizes the exact block objective, by CG when
  h = 0 or one prox when the Gram is a positive multiple of the identity.

All four share the solvable-subproblem classes, decided by the block's
structured Gram value (``linops.gram``): h = 0 leads to a linear system
that value solves directly; a Gram equal to c*I collapses to a single
prox at scale 1/(delta + rho*c); anything else raises
UnsupportedSubproblem.
"""

import math

import numpy as np
from scipy.sparse.linalg import LinearOperator, cg

from . import linops
from .errors import (CGNotConverged, InnerIterationCap, LineSearchDiverged,
                     MissingLipschitz, UnsupportedSubproblem)

__all__ = ['LineSearchParams', 'RelaxationParams', 'InnerResult',
           'BlockState', 'BlockWorkspace', 'InnerContext', 'RunningAverage',
           'bb_stepsize', 'prox_linear_step', 'generalized_step',
           'multistep_loop', 'accelerated_loop', 'exact_block_solve']

LINE_SEARCH_CAP = 60


class LineSearchParams:
    """Backtracking and safeguard constants.

    Requires 0 < sigma < 1 < tau <= eta and 0 < delta_min < delta_max.
    Defaults match the benchmark configuration.
    """

    def __init__(self, sigma=1e-5, eta=3.0, tau=1.1,
                 delta_min=1e-10, delta_max=1e10):
        if not (0.0 < sigma < 1.0):
            raise ValueError(f"sigma must be in (0, 1), got {sigma}")
        if not (1.0 < tau <= eta):
            raise ValueError(f"need 1 < tau <= eta, got tau={tau}, eta={eta}")
        if not (0.0 < delta_min < delta_max):
            raise ValueError("need 0 < delta_min < delta_max")
        self.sigma = float(sigma)
        self.eta = float(eta)
        self.tau = float(tau)
        self.delta_min = float(delta_min)
        self.delta_max = float(delta_max)


class RelaxationParams:
    """Practical slack for line searches and inner stopping.

    eps^k = eps0 / k**eps_exponent feeds the line-search slack; the
    multistep slack is eps^k * delta * gamma**(-omega_multistep) and the
    accelerated slack eps^k * gamma**(-(1 + omega_accelerated)). The
    stopping rule gains the disjunct l >= l_prev, with delta_min_i
    multiplied by tau whenever the gamma branch ends up failing. The
    exponents must keep the slack sequences summable: eps_exponent > 1,
    omega_multistep > 1, omega_accelerated > 0.5.
    """

    def __init__(self, enabled=True, eps0=10.0, eps_exponent=1.1,
                 omega_multistep=1.2, omega_accelerated=0.6):
        if eps_exponent <= 1.0:
            raise ValueError("eps_exponent must exceed 1")
        if omega_multistep <= 1.0:
            raise ValueError("omega_multistep must exceed 1")
        if omega_accelerated <= 0.5:
            raise ValueError("omega_accelerated must exceed 0.5")
        self.enabled = bool(enabled)
        self.eps0 = float(eps0)
        self.eps_exponent = float(eps_exponent)
        self.omega_multistep = float(omega_multistep)
        self.omega_accelerated = float(omega_accelerated)

    def eps(self, k):
        return self.eps0 / k ** self.eps_exponent


class InnerResult:
    """Output of one block update.

    x_next feeds the next outer iteration's expansion point, z enters the
    error measure and back substitution, r is the inexactness term,
    Gamma the accumulated weight (1/delta for the generalized scheme,
    +inf for the exact baseline), inner_iters the count l_i^k, and
    delta_final the last accepted stepsize parameter (NaN for exact).
    """

    def __init__(self, x_next, z, r, Gamma, inner_iters, delta_final):
        self.x_next = x_next
        self.z = z
        self.r = float(r)
        self.Gamma = float(Gamma)
        self.inner_iters = int(inner_iters)
        self.delta_final = float(delta_final)


class BlockState:
    """Mutable per-block bookkeeping carried across outer iterations."""

    def __init__(self, x, delta_min):
        self.x = x                    # current iterate x_i^k
        self.x_prev = None            # x_i^{k-1}, for the BB seed
        self.delta_prev = None        # last accepted delta
        self.delta_min = float(delta_min)
        self.Gamma_prev = 0.0
        self.l_prev = 1


class BlockWorkspace:
    """One block's Gram value A^T A (``linops.gram``), shared by every
    subproblem solve of the block."""

    def __init__(self, A):
        self._gram = linops.gram(A, A)

    def gram_basis(self):
        """The Gram value, a ``linops.Gram``."""
        return self._gram

    def identity_multiple(self):
        return linops.identity_multiple(self._gram)

    def solve_shifted(self, delta, rho, rhs):
        """Solve (delta*I + rho*A^T A) u = rhs."""
        return self._gram.solve_shifted(delta, rho, rhs)


class InnerContext:
    """Per-(outer iteration, block) inputs shared by every scheme."""

    def __init__(self, p, i, b_ik, lam, rho, ls, relax, k, workspace=None):
        self.p = p
        self.i = i
        self.b_ik = b_ik
        self.lam = lam
        self.rho = float(rho)
        self.ls = ls
        self.relax = relax
        self.k = int(k)
        self.workspace = workspace if workspace is not None \
            else BlockWorkspace(p.blocks[i].A)
        # penalty center: rho/2 ||A u - c_vec||^2 with c_vec = b_ik - lam/rho
        self.c_vec = b_ik - lam / rho
        self.block = p.blocks[i]
        self._atc = None

    def adjoint_c(self):
        if self._atc is None:
            self._atc = self.block.A.apply_adjoint(self.c_vec)
        return self._atc


def bb_stepsize(f, x_cur, x_prev):
    """<grad f(x) - grad f(x_prev), dx> / ||dx||^2, or None if dx = 0."""
    d = np.asarray(x_cur, dtype=float) - np.asarray(x_prev, dtype=float)
    nn = float(d @ d)
    if nn == 0.0:
        return None
    return float((f.gradient(x_cur) - f.gradient(x_prev)) @ d) / nn


def _mid(a, b, c):
    """Median of three scalars."""
    return sorted((a, b, c))[1]


def _bb_seed(ctx, bst):
    """Safeguarded BB initial stepsize; delta_min_i when unavailable."""
    if ctx.k > 1 and bst.x_prev is not None:
        s = bb_stepsize(ctx.block.f, bst.x, bst.x_prev)
        if s is not None:
            return _mid(bst.delta_min, s, ctx.ls.delta_max)
    return bst.delta_min


def _composite_argmin(ctx, grad_vec, center, delta):
    """argmin <g, u> + (delta/2)||u - center||^2 + h(u)
    + (rho/2)||A u - c_vec||^2 over the solvable classes."""
    rho = ctx.rho
    rhs = delta * center - grad_vec + rho * ctx.adjoint_c()
    if getattr(ctx.block.h, 'is_zero', False):
        return ctx.workspace.solve_shifted(delta, rho, rhs)
    c = ctx.workspace.identity_multiple()
    if c is not None and c > 0.0:
        t = 1.0 / (delta + rho * c)
        return ctx.block.h.prox(rhs * t, t)
    raise UnsupportedSubproblem(ctx.i + 1)


def prox_linear_step(p, i, v, delta, b_ik, lam, rho, workspace=None):
    """Minimize the linearized proximal subproblem around v.

    Solves argmin_u f_i(v) + <grad f_i(v), u - v> + (delta/2)||u - v||^2
    + h_i(u) + (rho/2)||A_i u - b_ik + lam/rho||^2. With h_i = 0 this is
    a direct linear solve; with Gram(A_i) = c*I it is one prox call at
    scale 1/(delta + rho*c); otherwise UnsupportedSubproblem.
    """
    ctx = InnerContext(p, i, np.asarray(b_ik, dtype=float),
                       np.asarray(lam, dtype=float), rho,
                       LineSearchParams(), RelaxationParams(enabled=False),
                       1, workspace)
    g = ctx.block.f.gradient(np.asarray(v, dtype=float))
    return _composite_argmin(ctx, g, np.asarray(v, dtype=float), delta)


def generalized_step(ctx, bst):
    """One BB-seeded backtracking step; returns InnerResult with l = 1."""
    ls = ctx.ls
    f = ctx.block.f
    x = bst.x
    delta0 = _bb_seed(ctx, bst)
    fx = f.value(x)
    gx = f.gradient(x)
    slack = ctx.relax.eps(ctx.k) if ctx.relax.enabled else 0.0
    sig = 1.0 - ls.sigma
    x_new = None
    delta = delta0
    for j in range(LINE_SEARCH_CAP + 1):
        delta = delta0 * ls.eta ** j
        cand = _composite_argmin(ctx, gx, x, delta)
        d = cand - x
        dd = float(d @ d)
        lhs = fx + float(gx @ d) + 0.5 * sig * delta * dd
        if lhs >= f.value(cand) - slack:
            x_new = cand
            break
    if x_new is None:
        raise LineSearchDiverged(ctx.i + 1, LINE_SEARCH_CAP)
    r = dd / delta
    if ctx.k > 1 and bst.delta_prev is not None \
            and delta > max(bst.delta_prev, bst.delta_min):
        bst.delta_min *= ls.tau
    return InnerResult(x_new, x_new.copy(), r, 1.0 / delta, 1, delta)


class RunningAverage:
    """Weighted running average a^l of inner iterates.

    update(u, delta) adds weight 1/delta: gamma += 1/delta,
    alpha = 1/(delta*gamma), a = (1 - alpha) a + alpha u. Equals the
    batch average sum(u^j/delta^j) / sum(1/delta^j) exactly in exact
    arithmetic.
    """

    def __init__(self, a0):
        self.a = np.asarray(a0, dtype=float).copy()
        self.gamma = 0.0

    def update(self, u, delta):
        self.gamma += 1.0 / delta
        alpha = 1.0 / (delta * self.gamma)
        self.a = (1.0 - alpha) * self.a + alpha * u
        return alpha


def _stop_gate(gamma, Gamma_prev, l, l_prev, relaxed):
    if gamma >= Gamma_prev:
        return True
    return relaxed and l >= l_prev


def multistep_loop(ctx, bst, psi_val, record=None,
                   inner_cap=10000, cap_error=True):
    """Repeated linearized steps with weighted averaging.

    Each inner iteration runs the same backtracking as the generalized
    step but from the previous inner iterate. Stops when the weight
    gamma reaches Gamma_prev (relaxed mode also accepts l >= l_prev) and
    ||u^l - u^{l-1}|| / sqrt(gamma) <= psi_val. On a relaxed exit with
    gamma still below Gamma_prev, delta_min_i is multiplied by tau.
    """
    ls = ctx.ls
    f = ctx.block.f
    relax = ctx.relax
    delta0 = _bb_seed(ctx, bst)
    eps = relax.eps(ctx.k) if relax.enabled else 0.0
    sig = 1.0 - ls.sigma
    u = bst.x.copy()
    fu = f.value(u)
    gu = f.gradient(u)
    avg = RunningAverage(u)
    sumsq = 0.0
    delta = delta0
    l = 0
    stopped = False
    while l < inner_cap:
        l += 1
        accepted = None
        for j in range(LINE_SEARCH_CAP + 1):
            delta = delta0 * ls.eta ** j
            cand = _composite_argmin(ctx, gu, u, delta)
            d = cand - u
            dd = float(d @ d)
            gamma_trial = avg.gamma + 1.0 / delta
            slack = eps * delta * gamma_trial ** (-relax.omega_multistep) \
                if relax.enabled else 0.0
            lhs = fu + float(gu @ d) + 0.5 * sig * delta * dd
            if lhs >= f.value(cand) - slack:
                accepted = cand
                break
        if accepted is None:
            raise LineSearchDiverged(ctx.i + 1, LINE_SEARCH_CAP)
        avg.update(accepted, delta)
        sumsq += dd
        u = accepted
        fu = f.value(u)
        gu = f.gradient(u)
        if record is not None:
            record.append({'l': l, 'delta': delta, 'gamma': avg.gamma,
                           'u': u.copy(), 'z': avg.a.copy()})
        if _stop_gate(avg.gamma, bst.Gamma_prev, l, bst.l_prev, relax.enabled) \
                and math.sqrt(dd / avg.gamma) <= psi_val:
            stopped = True
            break
    if not stopped and cap_error:
        raise InnerIterationCap(ctx.i + 1, inner_cap)
    if avg.gamma < bst.Gamma_prev:
        bst.delta_min *= ls.tau
    return InnerResult(u, avg.a.copy(), sumsq / avg.gamma, avg.gamma, l, delta)


def accelerated_loop(ctx, bst, psi_val, schedule='adaptive', record=None,
                     inner_cap=10000, cap_error=True):
    """Nesterov-weighted inner loop; z is the accelerated average a^l.

    schedule='constant' uses delta^l = 2*zeta / ((1-sigma) l) and
    alpha^l = 2/(l+1) without a line search (zeta must be available;
    zero-smooth blocks fall back to delta^1 = delta_min_i). The adaptive
    schedule line-searches theta = 1/(delta0*eta^j) and sets delta and
    alpha so that delta^l * alpha^l * gamma^l = 1 holds exactly, with
    gamma^l the running sum of 1/delta^j. Stopping mirrors the multistep
    rule with displacement measured on the averages a^l.
    """
    ls = ctx.ls
    f = ctx.block.f
    relax = ctx.relax
    sig = 1.0 - ls.sigma
    if schedule not in ('adaptive', 'constant'):
        raise ValueError(f"unknown schedule {schedule!r}")
    if schedule == 'constant':
        zeta = f.lipschitz
        if zeta is None:
            raise MissingLipschitz(
                f"block {ctx.i + 1}: constant schedule needs a Lipschitz "
                "constant")
        delta1 = 2.0 * zeta / sig if zeta > 0.0 else bst.delta_min
    delta0 = _bb_seed(ctx, bst)
    eps = relax.eps(ctx.k) if relax.enabled else 0.0
    u = bst.x.copy()
    a = bst.x.copy()
    Lam = 0.0
    gamma = 0.0
    sumsq = 0.0
    delta = delta0
    l = 0
    stopped = False
    while l < inner_cap:
        l += 1
        if schedule == 'constant':
            delta = delta1 / l
            alpha = 1.0 if l == 1 else 2.0 / (l + 1.0)
            gamma_new = l * (l + 1.0) / (2.0 * delta1)
            abar = (1.0 - alpha) * a + alpha * u
            gbar = f.gradient(abar)
            u_new = _composite_argmin(ctx, gbar, u, delta)
            a_new = (1.0 - alpha) * a + alpha * u_new
        else:
            accepted = False
            for j in range(LINE_SEARCH_CAP + 1):
                theta = 1.0 / (delta0 * ls.eta ** j)
                delta = 2.0 / (theta + math.sqrt(theta * theta
                                                 + 4.0 * theta * Lam))
                alpha = 1.0 / (1.0 + delta * Lam)
                gamma_trial = Lam + 1.0 / delta
                abar = (1.0 - alpha) * a + alpha * u
                gbar = f.gradient(abar)
                u_new = _composite_argmin(ctx, gbar, u, delta)
                a_new = (1.0 - alpha) * a + alpha * u_new
                step = a_new - abar
                ss = float(step @ step)
                slack = eps * gamma_trial ** (-(1.0 + relax.omega_accelerated)) \
                    if relax.enabled else 0.0
                lhs = f.value(abar) + float(gbar @ step) \
                    + 0.5 * sig * (delta / alpha) * ss
                if lhs >= f.value(a_new) - slack:
                    accepted = True
                    break
            if not accepted:
                raise LineSearchDiverged(ctx.i + 1, LINE_SEARCH_CAP)
            Lam = gamma_trial
            gamma_new = Lam
        du = u_new - u
        sumsq += float(du @ du)
        a_disp = np.linalg.norm(a_new - a)
        u = u_new
        a = a_new
        gamma = gamma_new
        if record is not None:
            record.append({'l': l, 'delta': delta, 'alpha': alpha,
                           'gamma': gamma, 'u': u.copy(), 'z': a.copy()})
        if _stop_gate(gamma, bst.Gamma_prev, l, bst.l_prev, relax.enabled) \
                and a_disp <= psi_val:
            stopped = True
            break
    if not stopped and cap_error:
        raise InnerIterationCap(ctx.i + 1, inner_cap)
    if gamma < bst.Gamma_prev:
        bst.delta_min *= ls.tau
    return InnerResult(u, a.copy(), sumsq / gamma, gamma, l, delta)


def exact_block_solve(ctx, bst, cg_tol=1e-6, cg_maxit=100000):
    """Minimize the exact block objective L_i.

    h = 0: conjugate gradient on (H_f + rho A^T A) u = rho A^T c
    - grad f(0), warm started at the current iterate, stopping when the
    gradient norm falls below cg_tol. Gram = c*I with f = 0: single prox.
    The result carries r = 0 and Gamma = +inf.
    """
    h = ctx.block.h
    f = ctx.block.f
    rho = ctx.rho
    n = ctx.block.dim
    if getattr(h, 'is_zero', False):
        if f.hess_apply is None:
            raise UnsupportedSubproblem(
                ctx.i + 1, f"block {ctx.i + 1}: CG path needs a quadratic "
                           "smooth part")
        rhs = rho * ctx.adjoint_c() - f.gradient(np.zeros(n))
        G = ctx.workspace.gram_basis()

        def matvec(v):
            return f.hess_apply(v) + rho * G.apply(v)

        iters = [0]

        def count(_):
            iters[0] += 1

        op = LinearOperator((n, n), matvec=matvec)
        u, info = cg(op, rhs, x0=bst.x.copy(), rtol=0.0, atol=cg_tol,
                     maxiter=cg_maxit, callback=count)
        if info > 0:
            raise CGNotConverged(cg_maxit)
        return InnerResult(u, u.copy(), 0.0, np.inf,
                           max(iters[0], 1), float('nan'))
    c = ctx.workspace.identity_multiple()
    if c is not None and c > 0.0 and getattr(f, 'is_zero', False):
        u = h.prox(ctx.adjoint_c() / c, 1.0 / (rho * c))
        return InnerResult(u, u.copy(), 0.0, np.inf, 1, float('nan'))
    raise UnsupportedSubproblem(ctx.i + 1)
