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
* ``exact_block_solve``: minimizes the exact block objective, by a direct
  solve (CG fallback, CGNotConverged at its cap) if h = 0, or one prox if
  f = 0 and Gram = c I, c > 0.

The three inexact schemes share one backtracking search over
delta0 * eta**j (``_line_search``) and one sufficient-decrease test
(``BlockState.descent``); the generalized step is one
``_linearized_step``, the multistep loop iterates it, and both inner
loops end through ``_run_inner``.

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
from .problem import Block

__all__ = ['LineSearchParams', 'RelaxationParams', 'InnerResult',
           'BlockState', 'BlockWorkspace', 'InnerContext', 'RunningAverage',
           'generalized_step', 'multistep_loop', 'accelerated_loop',
           'exact_block_solve']

LINE_SEARCH_CAP = 60
INNER_CAP = 10000     # default inner iteration cap of both inner loops
CG_TOL = 1e-6         # default absolute residual tolerance of the exact CG
CG_MAXIT = 100000     # iteration cap of the exact scheme's CG
ACCEL_SCHEDULES = ('adaptive', 'constant')   # the first is the default


class LineSearchParams:
    """Backtracking and safeguard constants.

    sigma (descent slack), eta (backtracking factor) and tau (delta_min
    ratchet) are fixed at the benchmark configuration; the analysis needs
    0 < sigma < 1 < tau <= eta. The stepsize bounds are settable and need
    0 < delta_min < delta_max.
    """

    sigma = 1e-5
    eta = 3.0
    tau = 1.1

    def __init__(self, delta_min=1e-10, delta_max=1e10):
        if not (0.0 < delta_min < delta_max):
            raise ValueError("need 0 < delta_min < delta_max")
        self.delta_min = float(delta_min)
        self.delta_max = float(delta_max)


class RelaxationParams:
    """Practical slack for line searches and inner stopping.

    eps^k = eps0 / k**eps_exponent feeds the line-search slack; the
    multistep slack is eps^k * delta * gamma**(-omega_multistep) and the
    accelerated slack eps^k * gamma**(-(1 + omega_accelerated)). The
    stopping rule gains the disjunct l >= l_prev, with delta_min_i
    multiplied by tau whenever the gamma branch ends up failing. Only
    ``enabled`` is settable; the fixed exponents keep the slack sequences
    summable (eps_exponent > 1, omega_multistep > 1,
    omega_accelerated > 0.5).
    """

    eps0 = 10.0
    eps_exponent = 1.1
    omega_multistep = 1.2
    omega_accelerated = 0.6

    def __init__(self, enabled=True):
        self.enabled = bool(enabled)

    def eps(self, k):
        """Slack scale eps^k; 0 when the relaxation is disabled."""
        return self.eps0 / k ** self.eps_exponent if self.enabled else 0.0


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
        self.basis = None             # Q of x's working basis, if any
        self._memo = []   # [point, f(point), grad f(point), residual]

    def _memoized(self, f, u, slot, fn):
        """Points match by identity (iterates are rebound, never written in
        place). An entry lives while its point is x or x_prev or is the
        newest, so the BB seed at x^k reuses iteration k-1's gradient at
        x^{k-1}, and a step from an accepted trial point reuses f or grad f
        there. A part with a ``residual`` hook and no ``normal`` form takes
        it once per point."""
        for e in self._memo:
            if e[0] is u:
                break
        else:
            e = [u, None, None, None]
            self._memo = [d for d in self._memo
                          if d[0] is self.x or d[0] is self.x_prev] + [e]
        if e[slot] is None:
            if f.residual is not None and f.normal is None \
                    and e[3] is None:
                e[3] = f.residual(u)
            e[slot] = fn(u) if e[3] is None else fn(u, e[3])
        return e[slot]

    def value(self, f, u):
        """f(u), memoized with grad f(u). A part with a ``normal`` form
        (H, b, c) gives it from the memoized gradient as
        0.5 <u, grad f(u) - b> + c, with no F apply; f = 0 gives 0."""
        if f.is_zero:
            return 0.0
        if f.normal is not None:
            _, b, c = f.normal
            return 0.5 * float(u @ (self.gradient(f, u) - b)) + c
        return self._memoized(f, u, 1, f.value)

    def gradient(self, f, u):
        """grad f(u), memoized with f(u)."""
        return self._memoized(f, u, 2, f.gradient)

    def descent(self, f, u, g):
        """A line search's sufficient-decrease test from u, g = grad f(u):
        passes(d, v, bound, slack) at the trial v = u + d. A part with a
        ``normal`` form tests ``_gap(d, g, grad f(v)) <= bound + slack``
        (no f); any other f(u) + <g, d> + bound >= f(v) - slack, taking
        f(u) once."""
        if f.normal is not None:
            return lambda d, v, bound, slack: \
                _gap(d, g, self.gradient(f, v)) <= bound + slack
        fu = self.value(f, u)
        return lambda d, v, bound, slack: \
            fu + float(g @ d) + bound >= self.value(f, v) - slack


class BlockWorkspace:
    """One block's Gram value A^T A (``linops.gram``, unless the caller
    already holds it), shared by every subproblem solve of the block.

    Given the block, it runs it in the basis v = Q u when h = 0, the Gram
    is ``linops.Diagonalized`` Q^T diag Q and ``f.in_basis`` has a form
    there: ``block`` is then the block in v (else None), the Gram a
    ``DiagonalOp``, and ``to_basis``/``from_basis`` apply Q/Q^T.
    """

    def __init__(self, A, gram=None, block=None):
        g = self._gram = linops.gram(A, A) if gram is None else gram
        self._system = self.block = None
        self.to_basis = self.from_basis = np.asarray
        fb = block.f.in_basis(g) if block is not None and block.f.in_basis \
            and isinstance(g, linops.Diagonalized) \
            and block.h.is_zero else None
        if fb is not None:
            self.block = Block(A, fb, block.h)
            self._gram = linops.DiagonalOp(g.eig)
            self.to_basis, self.from_basis = g.forward, g.inverse

    def adopt(self, bst):
        """Move a block state's iterates into the working basis, once."""
        if self.block is not None and bst.basis is not self.to_basis:
            bst.x, bst.x_prev = (None if v is None else self.to_basis(v)
                                 for v in (bst.x, bst.x_prev))
            bst.basis, bst._memo = self.to_basis, []

    def release(self, ctx, bst, res):
        """``adopt``'s counterpart: rolls the state past step ``res``
        (x_prev <- x <- x^{k+1}, then delta, Gamma and the inner count) and
        returns (z_i, x_i^{k+1}, f_i(z_i)) out of the basis, f_i(z_i) taken
        in it through the rolled memo, which a line search or direct solve
        left holding it (with a normal form, the gradient it comes from)."""
        bst.x_prev, bst.x = bst.x, res.x_next
        bst.delta_prev = res.delta_final
        bst.Gamma_prev = res.Gamma
        bst.l_prev = res.inner_iters
        z = self.from_basis(res.z)
        x = z if res.x_next is res.z else self.from_basis(res.x_next)
        return z, x, bst.value(ctx.block.f, res.z)

    def gram_basis(self):
        """The Gram value: a ``ZeroOp``, ``ScaledIdentityOp``,
        ``Diagonalized`` or ``DenseOp`` of ``linops``."""
        return self._gram

    def identity_multiple(self):
        return linops.identity_multiple(self._gram)

    def solve_shifted(self, delta, rho, rhs):
        """Solve (delta*I + rho*A^T A) u = rhs."""
        return self._gram.solve_shifted(delta, rho, rhs)

    def system(self, f, rho):
        """The exact scheme's (``linops.direct_solver`` of H_f + rho A^T A,
        a cached inverse if dense, or None; grad f(0)), built once per rho."""
        if self._system is None or self._system[0] != rho:
            H = f.hess_gram(self._gram.cols) if f.hess_gram else None
            self._system = (rho, None if H is None
                            else linops.direct_solver(H, self._gram, rho),
                            f.gradient(np.zeros(self._gram.cols)))
        return self._system[1:]


class InnerContext:
    """Per-(outer iteration, block) inputs shared by every scheme.

    ``atc`` and ``atc_rho`` are A^T c and rho A^T c, in the workspace's
    coordinates, for c = b_ik - lam/rho; ``ls``, ``relax`` and ``k`` feed
    the line searches.
    """

    def __init__(self, p, i, b_ik, lam, rho, ls=None, relax=None, k=1,
                 workspace=None):
        self.i = i
        self.rho = float(rho)
        self.ls = ls if ls is not None else LineSearchParams()
        self.relax = relax if relax is not None else RelaxationParams()
        self.k = int(k)
        self.workspace = workspace if workspace is not None \
            else BlockWorkspace(p.blocks[i].A)
        self.block = self.workspace.block or p.blocks[i]
        self.atc = self.workspace.to_basis(
            self.block.A.apply_adjoint(b_ik - lam / rho))
        self.atc_rho = self.rho * self.atc


def _bb_seed(ctx, bst):
    """Safeguarded BB stepsize <grad f(x) - grad f(x_prev), dx> / ||dx||^2
    from the gradients ``bst`` holds, so only the one at x^k is new;
    delta_min_i when unavailable (k = 1 or dx = 0) or 0 (f = 0)."""
    if ctx.k > 1 and bst.x_prev is not None and not ctx.block.f.is_zero:
        d = bst.x - bst.x_prev
        nn = float(d @ d)
        if nn != 0.0:
            f = ctx.block.f
            s = float((bst.gradient(f, bst.x)
                       - bst.gradient(f, bst.x_prev)) @ d) / nn
            return sorted((bst.delta_min, s, ctx.ls.delta_max))[1]
    return bst.delta_min


def _composite_argmin(ctx, grad_vec, center, delta):
    """argmin <g, u> + (delta/2)||u - center||^2 + h(u)
    + (rho/2)||A u - b_ik + lam/rho||^2 over the solvable classes."""
    rho = ctx.rho
    rhs = delta * center - grad_vec + ctx.atc_rho
    if ctx.block.h.is_zero:
        return ctx.workspace.solve_shifted(delta, rho, rhs)
    c = ctx.workspace.identity_multiple()
    if c is not None and c > 0.0:
        t = 1.0 / (delta + rho * c)
        return ctx.block.h.prox(rhs * t, t)
    raise UnsupportedSubproblem(ctx.i + 1)


def _line_search(ctx, delta0, trial):
    """First result of trial(delta0 * eta**j), j = 0..LINE_SEARCH_CAP,
    that is not None; LineSearchDiverged when every trial is rejected."""
    for j in range(LINE_SEARCH_CAP + 1):
        out = trial(delta0 * ctx.ls.eta ** j)
        if out is not None:
            return out
    raise LineSearchDiverged(ctx.i + 1, LINE_SEARCH_CAP)


def _gap(d, g_u, g_v):
    """Bregman gap f(v) - f(u) - <g_u, d> of a quadratic f, from its
    gradients g_u at u and g_v at v = u + d."""
    return 0.5 * float(d @ (g_v - g_u))


def _linearized_step(ctx, bst, u, delta0, slack):
    """Backtracked linearized step from u, with g = grad f(u).

    Accepts the first trial delta whose candidate u + d passes the block's
    sufficient-decrease test (``BlockState.descent``) with bound
    (1 - sigma) delta ||d||^2 / 2 and slack(delta). Returns
    (u + d, ||d||^2, delta).
    """
    f = ctx.block.f
    sig = 1.0 - ctx.ls.sigma
    g = bst.gradient(f, u)
    passes = bst.descent(f, u, g)

    def trial(delta):
        cand = _composite_argmin(ctx, g, u, delta)
        d = cand - u
        dd = float(d @ d)
        if passes(d, cand, 0.5 * sig * delta * dd, slack(delta)):
            return cand, dd, delta

    return _line_search(ctx, delta0, trial)


def generalized_step(ctx, bst):
    """One BB-seeded linearized step; returns InnerResult with l = 1."""
    eps = ctx.relax.eps(ctx.k)
    x_new, dd, delta = _linearized_step(ctx, bst, bst.x, _bb_seed(ctx, bst),
                                        lambda _: eps)
    if ctx.k > 1 and bst.delta_prev is not None \
            and delta > max(bst.delta_prev, bst.delta_min):
        bst.delta_min *= ctx.ls.tau
    return InnerResult(x_new, x_new, dd / delta, 1.0 / delta, 1, delta)


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
        # the first update keeps u itself, so the block memo matches it
        self.a = u if alpha == 1.0 else (1.0 - alpha) * self.a + alpha * u
        return alpha


def _run_inner(ctx, bst, psi_val, iterates, record, inner_cap, cap_error):
    """Run an inner loop to its stopping rule; ``iterates`` yields (u, z,
    ||u - u_prev||^2, gamma, delta, displacement, record extras). Raises
    ValueError if inner_cap < 1."""
    if inner_cap < 1:
        raise ValueError(f"inner_cap must be >= 1, got {inner_cap}")
    sumsq = 0.0
    for l, (u, z, dd, gamma, delta, disp, extra) in zip(
            range(1, inner_cap + 1), iterates):
        sumsq += dd
        if record is not None:
            record.append({'l': l, 'delta': delta, 'gamma': gamma,
                           'u': u.copy(), 'z': z.copy(), **extra})
        if (gamma >= bst.Gamma_prev
                or ctx.relax.enabled and l >= bst.l_prev) \
                and disp <= psi_val:
            break
    else:
        if cap_error:
            raise InnerIterationCap(ctx.i + 1, inner_cap)
    if gamma < bst.Gamma_prev:
        bst.delta_min *= ctx.ls.tau
    return InnerResult(u, z, sumsq / gamma, gamma, l, delta)


def _multistep_iterates(ctx, bst):
    eps = ctx.relax.eps(ctx.k)
    omega = ctx.relax.omega_multistep
    delta0 = _bb_seed(ctx, bst)
    u = bst.x
    avg = RunningAverage(u)
    while True:
        u, dd, delta = _linearized_step(
            ctx, bst, u, delta0,
            lambda d: eps * d * (avg.gamma + 1.0 / d) ** (-omega))
        avg.update(u, delta)
        yield u, avg.a, dd, avg.gamma, delta, math.sqrt(dd / avg.gamma), {}


def multistep_loop(ctx, bst, psi_val, record=None,
                   inner_cap=INNER_CAP, cap_error=True):
    """Repeated linearized steps with weighted averaging.

    Each inner iteration is the generalized step's linearized step, taken
    from the previous inner iterate. Stops when the weight gamma reaches
    Gamma_prev (relaxed mode also accepts l >= l_prev) and
    ||u^l - u^{l-1}|| / sqrt(gamma) <= psi_val. On a relaxed exit with
    gamma still below Gamma_prev, delta_min_i is multiplied by tau.
    """
    return _run_inner(ctx, bst, psi_val, _multistep_iterates(ctx, bst),
                      record, inner_cap, cap_error)


def _accelerated_iterates(ctx, bst, delta1):
    f = ctx.block.f
    sig = 1.0 - ctx.ls.sigma
    u = a = bst.x
    gamma = 0.0

    def point(alpha, delta):   # abar, grad f(abar), next u, next a
        # while gamma = 0, alpha = 1: abar is x^k itself and a_new is u_new,
        # x^{k+1} if the loop stops here, so the memo matches both
        abar = u if gamma == 0.0 else (1.0 - alpha) * a + alpha * u
        gbar = bst.gradient(f, abar)
        u_new = _composite_argmin(ctx, gbar, u, delta)
        return abar, gbar, u_new, \
            u_new if gamma == 0.0 else (1.0 - alpha) * a + alpha * u_new

    if delta1 is None:
        delta0 = _bb_seed(ctx, bst)
        eps = ctx.relax.eps(ctx.k)
        power = -(1.0 + ctx.relax.omega_accelerated)

        def trial(scaled):
            theta = 1.0 / scaled
            delta = 2.0 / (theta + math.sqrt(theta * theta
                                             + 4.0 * theta * gamma))
            alpha = 1.0 / (1.0 + delta * gamma)
            gamma_trial = gamma + 1.0 / delta
            abar, gbar, u_new, a_new = point(alpha, delta)
            step = a_new - abar
            ss = float(step @ step)
            if bst.descent(f, abar, gbar)(
                    step, a_new, 0.5 * sig * (delta / alpha) * ss,
                    eps * gamma_trial ** power):
                return delta, alpha, gamma_trial, u_new, a_new

    l = 0
    while True:
        l += 1
        if delta1 is None:
            delta, alpha, gamma_new, u_new, a_new = \
                _line_search(ctx, delta0, trial)
        else:
            delta = delta1 / l
            alpha = 1.0 if l == 1 else 2.0 / (l + 1.0)
            gamma_new = l * (l + 1.0) / (2.0 * delta1)
            _, _, u_new, a_new = point(alpha, delta)
        du = u_new - u
        yield (u_new, a_new, float(du @ du), gamma_new, delta,
               np.linalg.norm(a_new - a), {'alpha': alpha})
        u, a, gamma = u_new, a_new, gamma_new


def accelerated_loop(ctx, bst, psi_val, schedule=ACCEL_SCHEDULES[0],
                     record=None, inner_cap=INNER_CAP, cap_error=True):
    """Nesterov-weighted inner loop; z is the accelerated average a^l.

    schedule='constant' uses delta^l = 2*zeta / ((1-sigma) l) and
    alpha^l = 2/(l+1) without a line search (zeta must be available;
    zero-smooth blocks fall back to delta^1 = delta_min_i). The adaptive
    schedule line-searches theta = 1/(delta0*eta^j) and sets delta and
    alpha so that delta^l * alpha^l * gamma^l = 1 holds exactly, with
    gamma^l the running sum of 1/delta^j. Stopping mirrors the multistep
    rule with displacement measured on the averages a^l.
    """
    if schedule not in ACCEL_SCHEDULES:
        raise ValueError(f"unknown schedule {schedule!r}")
    delta1 = None
    if schedule == 'constant':
        zeta = ctx.block.f.lipschitz
        if zeta is None:
            raise MissingLipschitz(
                f"block {ctx.i + 1}: constant schedule needs a Lipschitz "
                "constant")
        delta1 = 2.0 * zeta / (1.0 - ctx.ls.sigma) if zeta > 0.0 \
            else bst.delta_min
    return _run_inner(ctx, bst, psi_val,
                      _accelerated_iterates(ctx, bst, delta1), record,
                      inner_cap, cap_error)


def exact_block_solve(ctx, bst, cg_tol=CG_TOL):
    """Minimize the exact block objective L_i.

    h = 0: (H_f + rho A^T A) u = rho A^T c - grad f(0) by the workspace's
    direct ``system`` solve (which gives a ``normal`` f the optimality
    condition's grad f(u) = rho A^T (c - A u), so ``release`` takes f(u)
    with no product with H_f), else by CG on ``hess_apply`` warm started at
    the current iterate until the residual norm is below cg_tol (a
    right-hand side that is not finite is returned as u, with no CG, so
    the run ends diverged as the direct solve's would). Gram = c*I
    with f = 0: one prox. Result: r = 0, Gamma = +inf, l = 1 (CG: its count).
    """
    h, f, rho = ctx.block.h, ctx.block.f, ctx.rho
    if h.is_zero:
        solve, g0 = ctx.workspace.system(f, rho)
        rhs = ctx.atc_rho - g0
        G = ctx.workspace.gram_basis()
        if solve is not None:
            u = solve(rhs)
            if f.normal is not None:
                bst._memoized(f, u, 2, lambda v: rho * (ctx.atc - G.apply(v)))
            return InnerResult(u, u, 0.0, np.inf, 1, np.nan)
        if f.hess_apply is None:
            raise UnsupportedSubproblem(
                ctx.i + 1, f"block {ctx.i + 1}: CG path needs a quadratic "
                           "smooth part")
        iters = []
        if not np.isfinite(rhs).all():
            # CG would spin to its cap; a non-finite u ends the run diverged
            u = rhs
        else:
            op = LinearOperator(
                G.shape, matvec=lambda v: f.hess_apply(v) + rho * G.apply(v))
            u, info = cg(op, rhs, x0=bst.x.copy(), rtol=0.0, atol=cg_tol,
                         maxiter=CG_MAXIT, callback=iters.append)
            if info > 0:
                raise CGNotConverged(CG_MAXIT)
        return InnerResult(u, u, 0.0, np.inf, max(len(iters), 1), np.nan)
    c = ctx.workspace.identity_multiple()
    if c is not None and c > 0.0 and f.is_zero:
        u = h.prox(ctx.atc / c, 1.0 / (rho * c))
        return InnerResult(u, u, 0.0, np.inf, 1, np.nan)
    raise UnsupportedSubproblem(ctx.i + 1)
