"""Outer loop: block sweep, error measure, correction step, diagnostics.

One outer iteration sweeps the blocks in order (each sees the already
updated z of earlier blocks and the y of later ones), forms the combined
error measure

    e^k = theta_1 ||z_+ - y_+|| + theta_2 ||A z - b|| + theta_3 sqrt(sum r_i),

then corrects: y_1 <- z_1, y_+ <- y_+ + alpha M^{-T} H (z_+ - y_+) by
back substitution, lam <- lam + alpha rho (A z - b), with the stepsize
alpha = ALPHA. The reported solution is the z iterate.

``solve`` drives outer_step until e^k falls below the stopping tolerance.
``energy_E`` evaluates the merit function used by the decay diagnostics
when a reference solution is available.
"""

import csv
import json
import math
import time

import numpy as np

from .errors import (CGNotConverged, DimensionMismatch, InnerIterationCap,
                     LineSearchDiverged, MaxItersReached, MissingReference,
                     NegativeR, as_int)
from .inner import (ACCEL_SCHEDULES, CG_TOL, BlockState, BlockWorkspace,
                    InnerContext, LineSearchParams, RelaxationParams,
                    accelerated_loop, exact_block_solve, generalized_step,
                    multistep_loop)
from .linops import assemble_back_sub, back_substitute
from .problem import objective

__all__ = ['OuterParams', 'OuterState', 'TraceRecord', 'SolveResult',
           'error_measure', 'b_i_k', 'outer_step', 'solve', 'energy_E',
           'default_thetas', 'psi_multistep', 'psi_accelerated',
           'write_trace_csv', 'write_summary', 'CSV_BASE_FIELDS']

SCHEMES = ('generalized', 'multistep', 'accelerated', 'exact')
ALPHA = 0.999     # correction stepsize, inside (0, 1)

CSV_BASE_FIELDS = ['k', 'time_s', 'objective', 'e_k', 'primal_res', 'E_k',
                   'inner_iters_total']


def default_thetas(rho, sigma, alpha):
    """Error-measure weights tied to the penalty and safeguard constants."""
    return (1e-6 * math.sqrt(rho), math.sqrt(rho),
            1e-6 * math.sqrt(sigma / (1.0 - alpha)))


def psi_multistep(t):
    """Default inner forcing for the multistep scheme: min(0.1 t, t^1.1)."""
    return min(0.1 * t, t ** 1.1)


def psi_accelerated(t):
    """Default inner forcing for the accelerated scheme: 0.5 t."""
    return 0.5 * t


class OuterParams:
    """Configuration for one solve.

    Parameters
    ----------
    rho : float
        Penalty parameter, finite and > 0.
    scheme : str
        One of 'generalized', 'multistep', 'accelerated', 'exact', used
        for every block.
    accel_schedule : str
        'adaptive' (line-searched) or 'constant' (needs Lipschitz
        constants).
    ls : LineSearchParams
    relax : RelaxationParams
        Practical slack; construct with enabled=False for the strict
        variants.
    stop_tol : float or None
        Terminate when e^k <= stop_tol, which is >= 0. None resolves after
        the first iteration to 1e-8 * (1 + |Phi(z^1)|).
    max_outer_iters : int
        Outer iteration budget, >= 1.
    cg_tol : float
        Absolute residual tolerance of the exact scheme's CG fallback,
        finite and > 0.
    reference : (x_star, lam_star) or None
        Enables the E_k column in the trace.

    ``ALPHA`` is the correction stepsize, ``default_thetas(rho, sigma,
    ALPHA)`` weighs e^k where it is formed, and ``psi_multistep`` and
    ``psi_accelerated`` are the inner forcing functions of e^{k-1}.
    """

    def __init__(self, rho, scheme='accelerated',
                 accel_schedule=ACCEL_SCHEDULES[0], ls=None, relax=None,
                 stop_tol=None, max_outer_iters=100000, cg_tol=CG_TOL,
                 reference=None):
        if not 0.0 < rho < np.inf:
            raise ValueError("rho must be finite and positive")
        if scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r}")
        if accel_schedule not in ACCEL_SCHEDULES:
            raise ValueError(f"unknown accel_schedule {accel_schedule!r}")
        if stop_tol is not None and not stop_tol >= 0.0:
            raise ValueError("stop_tol must be nonnegative or None")
        if not 0.0 < cg_tol < np.inf:
            raise ValueError("cg_tol must be finite and positive")
        max_outer_iters = as_int('max_outer_iters', max_outer_iters)
        if max_outer_iters < 1:
            raise ValueError("max_outer_iters must be at least 1")
        self.rho = float(rho)
        self.scheme = scheme
        self.accel_schedule = accel_schedule
        self.ls = ls if ls is not None else LineSearchParams()
        self.relax = relax if relax is not None else RelaxationParams()
        self.stop_tol = stop_tol
        self.max_outer_iters = max_outer_iters
        self.cg_tol = float(cg_tol)
        self.reference = reference


class OuterState:
    """Iterate bundle: x, y, lam, last z, per-block inner bookkeeping."""

    def __init__(self, p, params, x0=None, lam0=None):
        if x0 is None:
            x0 = np.zeros(p.n)
        x0 = p.check_vector(x0).copy()
        if lam0 is None:
            lam0 = np.zeros(p.rows)
        lam0 = np.asarray(lam0, dtype=float).ravel().copy()
        if lam0.size != p.rows:
            raise DimensionMismatch("lam0 length mismatch")
        self.x = x0
        self.y = x0.copy()
        self.z = None
        self.lam = lam0
        self.bstates = [BlockState(x0[p.slices[i]].copy(),
                                   params.ls.delta_min)
                        for i in range(p.m)]
        self.e_prev = np.inf
        self.k = 1

    @property
    def deltas(self):
        return [b.delta_prev for b in self.bstates]

    @property
    def Gammas(self):
        return [b.Gamma_prev for b in self.bstates]


class TraceRecord:
    """One outer iteration's diagnostics; its lists are kept as given."""

    def __init__(self, k, time_s, objective, e_k, primal_res, E_k,
                 inner_iters, deltas, gammas):
        self.k = int(k)
        self.time_s = float(time_s)
        self.objective = float(objective)
        self.e_k = float(e_k)
        self.primal_res = float(primal_res)
        self.E_k = None if E_k is None else float(E_k)
        self.inner_iters = inner_iters
        self.deltas = deltas
        self.gammas = gammas

    @property
    def inner_iters_total(self):
        return int(sum(self.inner_iters))


class SolveResult:
    """Final iterates, trace, and termination report."""

    def __init__(self, x, y, z, lam, trace, converged, reason, stop_tol):
        self.x = x
        self.y = y
        self.z = self.solution = z    # the reported solution is z
        self.lam = lam
        self.trace = trace
        self.converged = bool(converged)
        self.reason = reason
        self.stop_tol = stop_tol

    @property
    def iterations(self):
        return len(self.trace)

    @property
    def final_objective(self):
        return self.trace[-1].objective if self.trace else None


def error_measure(theta, z, y, r_list, p, primal_res):
    """theta_1 ||z_+ - y_+|| + theta_2 ||Az - b|| + theta_3 sqrt(sum r_i).

    The consensus term drops block 1. r_i must be nonnegative.
    ``primal_res`` is ||A z - b||, which the caller's sweep already took.
    """
    t1, t2, t3 = theta
    z = p.check_vector(z)
    y = p.check_vector(y)
    if len(r_list) != p.m:
        raise DimensionMismatch(f"need {p.m} inexactness terms")
    if any(r < 0.0 for r in r_list):    # a NaN passes, as in numpy
        raise NegativeR(f"negative inexactness term in {list(r_list)}")
    d = z[p.tail] - y[p.tail]      # the norm as np.linalg.norm takes it
    return float(t1 * math.sqrt(d.dot(d)) + t2 * primal_res
                 + t3 * math.sqrt(np.add.reduce(r_list)))


def energy_E(p, state, rho, alpha, reference, bs):
    """Merit function against a reference pair (x*, lam*).

    rho * ||y_+ - x*_+||_P^2 + (1/rho) ||lam - lam*||^2
    + alpha sum_i ||x_i - x*_i||^2 / Gamma_i, with P = M H^{-1} M^T and
    Gamma_i each block's accumulated weight: 1/delta_i for the generalized
    step, so its term is delta_i ||x_i - x*_i||^2, and +inf for an exact
    block, which drops out. Gamma_i = 0 (no inner step yet) raises
    MissingReference.
    """
    if reference is None:
        raise MissingReference("energy_E needs a reference pair")
    x_star, lam_star = reference
    x_star = p.check_vector(x_star)
    lam_star = np.asarray(lam_star, dtype=float).ravel()
    pterm = (bs.p_quadratic(state.y[p.tail] - x_star[p.tail]) if p.m > 1
             else 0.0)
    dl = state.lam - lam_star
    out = rho * pterm + float(dl @ dl) / rho
    for sl, g in zip(p.slices, state.Gammas):
        if g == 0.0:
            raise MissingReference("no inner step taken yet")
        if g != np.inf:
            d = state.x[sl] - x_star[sl]
            out += alpha * float(d @ d) / g
    return float(out)


def b_i_k(b, prods, i):
    """Block i's partial right-hand side: b minus each prods[j], j != i."""
    out = b.copy()
    for q in prods[:i] + prods[i + 1:]:
        out -= q
    return out


def _workspaces(p, bs):
    # blocks 2..m reuse the self-Grams back substitution already built
    grams = [None] + bs.hblocks
    return [BlockWorkspace(blk.A, g, blk) for blk, g in zip(p.blocks, grams)]


def _step_block(p, i, s, params, ws, b_ik):
    """Block i's subproblem under the chosen scheme, from the workspace's
    ``adopt`` to its ``release``; returns (r_i, z_i, x_i^{k+1}, f_i(z_i))."""
    bst = s.bstates[i]
    ws.adopt(bst)
    ctx = InnerContext(p, i, b_ik, s.lam, params.rho, params.ls, params.relax,
                       s.k, ws)
    if params.scheme == 'generalized':
        res = generalized_step(ctx, bst)
    elif params.scheme == 'multistep':
        res = multistep_loop(ctx, bst, psi_multistep(s.e_prev))
    elif params.scheme == 'accelerated':
        res = accelerated_loop(ctx, bst, psi_accelerated(s.e_prev),
                               schedule=params.accel_schedule)
    else:
        res = exact_block_solve(ctx, bst, params.cg_tol)
    return (res.r, *ws.release(ctx, bst, res))


def outer_step(p, s, params, bs, workspaces=None, t0=None):
    """Advance the state by one outer iteration; returns (s, TraceRecord).

    The sweep applies each block operator once per iterate it needs:
    ``prods[j]`` holds A_j y_j until block j is swept, then A_j z_j;
    ``b_i_k`` takes b_i from them, and A z - b sums them in the order of
    ``Problem.apply_A``. x, y, z, lam, e_prev and k are committed only
    when e^k is finite; the record is returned either way.
    """
    if workspaces is None:
        workspaces = _workspaces(p, bs)
    if t0 is None:
        t0 = time.perf_counter()
    z = np.zeros(p.n)
    prods = [None] + [p.blocks[j].A.apply(s.y[p.slices[j]])
                      for j in range(1, p.m)]
    steps = []
    for i, sl in enumerate(p.slices):
        steps.append(_step_block(p, i, s, params, workspaces[i],
                                 b_i_k(p.b, prods, i)))
        z[sl] = steps[-1][1]
        prods[i] = p.blocks[i].A.apply(z[sl])
    r_list, _, x_next, f_known = zip(*steps)
    primal_vec = sum(prods, np.zeros(p.rows)) - p.b
    primal = math.sqrt(primal_vec.dot(primal_vec))    # np.linalg.norm's bits
    e = error_measure(default_thetas(params.rho, params.ls.sigma, ALPHA),
                      z, s.y, r_list, p, primal)
    E = None if params.reference is None else energy_E(
        p, s, params.rho, ALPHA, params.reference, bs)
    rec = TraceRecord(s.k, time.perf_counter() - t0, objective(p, z, f_known),
                      e, primal, E, [b.l_prev for b in s.bstates], s.deltas,
                      s.Gammas)
    if math.isfinite(e):    # commit, with the correction step
        s.y = np.concatenate([z[p.slices[0]], back_substitute(
            bs, s.y[p.tail], z[p.tail], ALPHA)])
        s.lam = s.lam + ALPHA * params.rho * primal_vec
        s.x = np.concatenate(x_next)
        s.z = z
        s.e_prev = e
        s.k += 1
    return s, rec


def solve(p, params, callbacks=None, raise_on_maxiter=True):
    """Run the outer loop until e^k <= stop_tol or the budget runs out.

    Returns a SolveResult whose ``solution`` is the final z iterate.
    Callbacks receive (state, record) after every iteration; a truthy
    return stops the run with reason 'callback'. An inner loop or the
    exact scheme's CG that hits its cap ends it as 'stagnated'; a line
    search that gives up or a non-finite e^k as 'diverged'. Both keep the
    iterates of the last completed iteration, whose record ends the trace.
    The other reasons are 'converged' and 'max_iters'.
    Raises MaxItersReached (result attached) when the budget is exhausted
    and raise_on_maxiter is set.
    """
    bs = assemble_back_sub([blk.A for blk in p.blocks[1:]])
    workspaces = _workspaces(p, bs)
    s = OuterState(p, params)
    callbacks = list(callbacks or [])
    trace = []
    stop_tol = params.stop_tol
    reason = 'max_iters'
    t0 = time.perf_counter()
    for _ in range(params.max_outer_iters):
        try:
            s, rec = outer_step(p, s, params, bs, workspaces, t0)
        except (InnerIterationCap, CGNotConverged, LineSearchDiverged) as exc:
            reason = 'diverged' if isinstance(exc, LineSearchDiverged) \
                else 'stagnated'
            break
        if not np.isfinite(rec.e_k):
            reason = 'diverged'
            break
        trace.append(rec)
        if stop_tol is None:
            stop_tol = 1e-8 * (1.0 + abs(rec.objective))
        stopped = any([cb(s, rec) for cb in callbacks])    # call them all
        if rec.e_k <= stop_tol:
            reason = 'converged'
            break
        if stopped:
            reason = 'callback'
            break
    result = SolveResult(s.x, s.y, s.z, s.lam, trace, reason == 'converged',
                         reason, stop_tol)
    if reason == 'max_iters' and raise_on_maxiter:
        raise MaxItersReached(result)
    return result


def write_trace_csv(records, path, m):
    """Write the trace: CSV_BASE_FIELDS, then one delta column per block."""
    fields = CSV_BASE_FIELDS + [f"delta_{i + 1}" for i in range(m)]
    with open(path, 'w', newline='') as fh:
        w = csv.writer(fh)
        w.writerow(fields)
        for r in records:
            row = [getattr(r, f) for f in CSV_BASE_FIELDS] + r.deltas
            w.writerow(['' if v is None else repr(v) for v in row])


def write_summary(result, path, extra=None):
    """JSON run summary: objective, iterations, termination, residuals."""
    last = result.trace[-1] if result.trace else None
    doc = {
        'final_objective': None if last is None else last.objective,
        'iterations': result.iterations,
        'termination': result.reason,
        'converged': result.converged,
        'stop_tol': result.stop_tol,
        'final_e': None if last is None else last.e_k,
        'final_primal_res': None if last is None else last.primal_res,
    }
    doc.update(extra or {})
    with open(path, 'w') as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write('\n')
    return doc
