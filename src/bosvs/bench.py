"""Benchmark instances and runners.

Two desk-scale instance families: image deblurring with a total
variation plus wavelet-sparsity objective (three blocks), and lasso
consensus (two blocks). ``ista_oracle`` gives an independent reference
solution for the lasso family, and ``refsolve`` a reference run whose
final objective grades any problem (accelerated refinement protocol).
``run_benchmark`` executes one scheme on a problem and writes trace,
summary, and plot-data files graded against a given reference objective.
"""

import math
import os

import numpy as np

from .errors import BadDims, MaxItersReached, SolverError, as_int, as_real
from .linops import (BlurOperator, DenseOp, DiffOperator, HaarTransform,
                     IdentityOp, NegIdentityOp, VStackOp, ZeroOp)
from .outer import OuterParams, solve, write_summary, write_trace_csv
from .problem import Block, Problem
from .prox import (GroupL2, QuadraticLS, ScaledL1, ZeroProx, ZeroSmooth,
                   soft_threshold)

__all__ = ['DeblurConfig', 'LassoConfig', 'phantom', 'make_deblur',
           'make_lasso', 'ista_oracle', 'refsolve', 'run_benchmark',
           'REFERENCE_CAP']

REFERENCE_CAP = 50000
SNR_DB_FLOOR = -20.0 * math.log10(np.finfo(float).max)   # about -6165 dB
REFERENCE_WINDOW = 4     # iterations the stable digits must hold over
ISTA_MAXIT = 200000      # iteration cap of ista_oracle


class DeblurConfig:
    """Deblurring instance settings.

    size x size image (power of two, >= 8), uniform blur_size x
    blur_size kernel (odd), Gaussian noise at snr_db (above about -6165,
    where 10^(-snr_db/20) overflows; math.inf for noiseless), finite
    total-variation and wavelet-sparsity weights alpha_tv, beta_wav >= 0,
    Haar levels (default 2 for sizes up to 64, else 4) and seed >= 0.
    """

    def __init__(self, size=32, blur_size=3, snr_db=40.0, alpha_tv=0.005,
                 beta_wav=0.001, seed=0, haar_levels=None):
        self.size = size = as_int('size', size, 8)
        if size & (size - 1):
            raise BadDims(f"size must be a power of two >= 8, got {size}")
        self.blur_size = as_int('blur_size', blur_size, 1)
        if self.blur_size % 2 == 0:
            raise BadDims(f"blur_size must be odd, got {self.blur_size}")
        self.snr_db = as_real('snr_db', snr_db, SNR_DB_FLOOR, above=True,
                              inf=True)
        self.alpha_tv = as_real('alpha_tv', alpha_tv, 0.0)
        self.beta_wav = as_real('beta_wav', beta_wav, 0.0)
        # numpy's generators reject a negative seed without naming it
        self.seed = as_int('seed', seed, 0)
        self.haar_levels = as_int('haar_levels', haar_levels, 1) \
            if haar_levels is not None else (2 if size <= 64 else 4)
        if self.haar_levels >= size.bit_length():     # 2**levels > size
            raise BadDims(f"need 2**haar_levels <= size {size}, got "
                          f"haar_levels={self.haar_levels}")

    def as_dict(self):
        return dict(vars(self))


class LassoConfig:
    """Lasso instance: d x n Gaussian design, sparse truth; n, d >= 1,
    0 <= nnz <= n, finite noise_std and l1 weight beta >= 0, seed >= 0."""

    def __init__(self, n=100, d=150, nnz=10, noise_std=0.01, beta=0.1,
                 seed=0):
        self.n = as_int('n', n, 1)
        self.d = as_int('d', d, 1)
        self.nnz = as_int('nnz', nnz, 0)
        if self.nnz > self.n:
            raise BadDims(f"need nnz <= n, got nnz={self.nnz}, n={self.n}")
        self.noise_std = as_real('noise_std', noise_std, 0.0)
        self.beta = as_real('beta', beta, 0.0)
        self.seed = as_int('seed', seed, 0)

    def as_dict(self):
        return dict(vars(self))


def phantom(rows, cols, seed=0):
    """Piecewise-constant test image in [0, 1]: blocks plus a disk."""
    rng = np.random.default_rng(seed)
    img = np.full((rows, cols), 0.1)
    for _ in range(4):
        r0, r1 = np.sort(rng.integers(0, rows, size=2))
        c0, c1 = np.sort(rng.integers(0, cols, size=2))
        img[r0:r1 + 1, c0:c1 + 1] = rng.uniform(0.2, 0.9)
    cr, cc = rows / 2.0, cols / 2.0
    rad = min(rows, cols) / 4.0
    ri, ci = np.ogrid[:rows, :cols]
    img[(ri - cr) ** 2 + (ci - cc) ** 2 <= rad * rad] = 1.0
    return np.clip(img, 0.0, 1.0)


def make_deblur(cfg):
    """Three-block deblurring problem.

    Block 1 is the image u with the data-fit smooth part; blocks 2 and 3
    carry the difference field and wavelet coefficients with group-l2 and
    l1 parts. The constraint stacks [B u; Psi^T u] = [w; v], so the Gram
    of each auxiliary block is exactly the identity.
    """
    n = cfg.size * cfg.size
    B = DiffOperator(cfg.size, cfg.size)
    Psi = HaarTransform(cfg.size, cfg.size, cfg.haar_levels)
    A1 = VStackOp([B, Psi])
    A2 = VStackOp([NegIdentityOp(2 * n), ZeroOp(n, 2 * n)])
    A3 = VStackOp([ZeroOp(2 * n, n), NegIdentityOp(n)])
    F = BlurOperator.uniform(cfg.size, cfg.size, cfg.blur_size)
    truth = phantom(cfg.size, cfg.size, cfg.seed)
    clean = F.apply(truth.ravel())
    if math.isinf(cfg.snr_db):
        data = clean
    else:
        rng = np.random.default_rng(cfg.seed + 1)
        std = np.linalg.norm(clean) * 10.0 ** (-cfg.snr_db / 20.0) \
            / np.sqrt(clean.size)
        data = clean + std * rng.standard_normal(clean.size)
    blocks = [
        Block(A1, QuadraticLS(F, data), ZeroProx()),
        Block(A2, ZeroSmooth(), GroupL2(cfg.alpha_tv, 2)),
        Block(A3, ZeroSmooth(), ScaledL1(cfg.beta_wav)),
    ]
    meta = {'family': 'deblur', 'config': cfg.as_dict(),
            'truth': truth.ravel(), 'data': data}
    return Problem(blocks, np.zeros(3 * n), meta=meta)


def make_lasso(cfg):
    """Two-block lasso consensus: u - z = 0, data fit on u, l1 on z.

    Raises BadDims, naming noise_std, when the data overflow to inf."""
    rng = np.random.default_rng(cfg.seed)
    F = rng.standard_normal((cfg.d, cfg.n)) / np.sqrt(cfg.d)
    u_true = np.zeros(cfg.n)
    support = rng.choice(cfg.n, size=cfg.nnz, replace=False)
    u_true[support] = rng.choice([-1.0, 1.0], size=cfg.nnz) \
        * rng.uniform(0.5, 2.0, size=cfg.nnz)
    with np.errstate(over='ignore'):
        data = F @ u_true + cfg.noise_std * rng.standard_normal(cfg.d)
    if not np.isfinite(data).all():
        raise BadDims(f"noise_std={cfg.noise_std} overflows the data")
    # taken from the C-order draw, so the instance keeps its bits; one
    # column-major copy then serves DenseOp and meta['design'] alike
    F = np.asfortranarray(F)
    blocks = [
        Block(IdentityOp(cfg.n), QuadraticLS(DenseOp(F), data), ZeroProx()),
        Block(NegIdentityOp(cfg.n), ZeroSmooth(), ScaledL1(cfg.beta)),
    ]
    meta = {'family': 'lasso', 'config': cfg.as_dict(), 'truth': u_true,
            'data': data, 'design': F}
    return Problem(blocks, np.zeros(cfg.n), meta=meta)


def ista_oracle(F, data, beta, tol=1e-10):
    """Proximal-gradient reference for min 0.5||Fu - f||^2 + beta||u||_1.

    Fixed stepsize 1/L with L the largest eigenvalue of F^T F. Stops when
    the unit-scale fixed-point residual ||u - prox(u - grad, beta)||
    drops below tol. Raises SolverError at the first iterate whose
    residual is not finite, MaxItersReached after ISTA_MAXIT iterations.
    """
    with np.errstate(over='ignore', invalid='ignore'):  # the check raises
        f = QuadraticLS(DenseOp(np.asarray(F, dtype=float)), data)
        L = f.lipschitz
        if L <= 0.0:
            return np.zeros(f.F.cols)
        t = 1.0 / L
        u = np.zeros(f.F.cols)
        for k in range(ISTA_MAXIT):
            g = f.gradient(u)
            res = np.linalg.norm(u - soft_threshold(u - g, beta))
            if res <= tol:
                return u
            if not math.isfinite(res):    # NaN or inf from here on
                raise SolverError(
                    f"ista_oracle: residual {res} at iteration {k}")
            u = soft_threshold(u - t * g, t * beta)
    raise MaxItersReached(
        message=f"ista_oracle: no convergence in {ISTA_MAXIT}")


def _stable_digits_callback():
    seen = []

    def cb(_state, rec):
        seen.append(f"{rec.objective:.7e}")
        return seen[-REFERENCE_WINDOW:] == [seen[-1]] * REFERENCE_WINDOW

    return cb


def refsolve(p, rho, cap=REFERENCE_CAP):
    """Reference objective by the accelerated refinement protocol.

    Runs the accelerated scheme at penalty rho until the objective's first
    eight significant digits hold over REFERENCE_WINDOW iterations, at most
    ``cap`` in all. Returns the SolveResult; its final objective is phi_star.
    """
    params = OuterParams(rho=rho, scheme='accelerated', stop_tol=0.0,
                         max_outer_iters=as_int('cap', cap, 1))
    return solve(p, params, callbacks=[_stable_digits_callback()],
                 raise_on_maxiter=False)


def run_benchmark(p, params, out_dir, phi_star):
    """Run ``params.scheme`` on problem p and write its artifacts.

    Writes <scheme>_trace.csv, <scheme>_summary.json, and
    <scheme>_plotdata.csv (wall time against log10 relative objective
    error versus the reference objective phi_star) into the existing
    directory out_dir. Returns 0 when the run converged and 2 otherwise.
    """
    scheme = params.scheme
    result = solve(p, params, raise_on_maxiter=False)
    write_trace_csv(result.trace, os.path.join(out_dir, f"{scheme}_trace.csv"),
                    p.m)
    scale = max(abs(phi_star), 1e-300)
    with open(os.path.join(out_dir, f"{scheme}_plotdata.csv"), 'w') as fh:
        fh.write("time_s,log10_rel_err\n")
        for rec in result.trace:
            rel = abs(rec.objective - phi_star) / scale
            val = math.log10(rel) if rel > 0 else -math.inf
            fh.write(f"{rec.time_s!r},{val!r}\n")
    write_summary(result, os.path.join(out_dir, f"{scheme}_summary.json"),
                  extra={'scheme': scheme, 'phi_star': phi_star})
    return 0 if result.converged else 2
