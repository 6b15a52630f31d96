"""Correctness checks computed apart from the library.

Nothing here calls into ``bosvs``: the lasso reference is a numpy FISTA
on the design matrix and data, and the deblurring objective is rebuilt
from ``scipy.ndimage.correlate`` (the blur), numpy forward differences
(the TV term) and an orthonormal Haar transform written here.

Each check returns ``(value, limit, passed)`` so the caller can print
the measured figure next to the limit it was held to.
"""

import numpy as np
from scipy import ndimage

# lasso: limits on a solve that met the default stopping tolerance
# (measured about 4e-8 on 300x400); a perturbed u or a wrong beta reads
# orders of magnitude higher
LASSO_OBJ_GAP = 1e-6
LASSO_KKT = 1e-6
LASSO_CONSENSUS = 1e-6
# deblur: relative spread of the independent objective across schemes
DEBLUR_AGREE = {32: 1e-4, 64: 2e-2}


def soft(v, t):
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def lasso_objective(F, data, beta, u, z):
    """0.5 ||F u - data||^2 + beta ||z||_1 on the split variables."""
    r = F @ u - data
    return 0.5 * float(r @ r) + beta * float(np.abs(z).sum())


def lasso_kkt(F, data, beta, u):
    """Unit-step prox-gradient residual ||u - soft(u - grad, beta)||."""
    g = F.T @ (F @ u - data)
    return float(np.linalg.norm(u - soft(u - g, beta)))


def lasso_reference(F, data, beta, tol=1e-11, maxit=200000):
    """FISTA with gradient restart until the prox-gradient residual <= tol.

    Returns (u_star, phi_star). Raises RuntimeError when the budget runs
    out, so a reference never grades a run with a loose answer.
    """
    L = float(np.linalg.eigvalsh(F.T @ F)[-1])
    t = 1.0 / L
    u = np.zeros(F.shape[1])
    w = u.copy()
    theta = 1.0
    for _ in range(maxit):
        u_new = soft(w - t * (F.T @ (F @ w - data)), t * beta)
        if float((w - u_new) @ (u_new - u)) > 0.0:   # restart on uphill
            theta = 1.0
            w = u.copy()
            continue
        theta_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * theta * theta))
        w = u_new + ((theta - 1.0) / theta_new) * (u_new - u)
        u, theta = u_new, theta_new
        if lasso_kkt(F, data, beta, u) <= tol:
            return u, lasso_objective(F, data, beta, u, u)
    raise RuntimeError(f"lasso reference: residual above {tol} after {maxit}")


def check_lasso(F, data, beta, phi_star, u, z, reported):
    """Objective gap, KKT residual and consensus of one returned solution."""
    own = lasso_objective(F, data, beta, u, z)
    gap = max(abs(own - phi_star), abs(reported - phi_star)) \
        / (1.0 + abs(phi_star))
    kkt = lasso_kkt(F, data, beta, u)
    cons = float(np.linalg.norm(u - z))
    return {'obj_gap': (gap, LASSO_OBJ_GAP, gap <= LASSO_OBJ_GAP),
            'kkt_residual': (kkt, LASSO_KKT, kkt <= LASSO_KKT),
            'consensus': (cons, LASSO_CONSENSUS, cons <= LASSO_CONSENSUS)}


def haar2(img, levels):
    """Orthonormal multilevel 2-D Haar analysis (rows, then columns)."""
    x = np.array(img, dtype=float)
    s = np.sqrt(0.5)
    r, c = x.shape
    for _ in range(levels):
        b = x[:r, :c]
        b = np.vstack([(b[0::2] + b[1::2]) * s, (b[0::2] - b[1::2]) * s])
        b = np.hstack([(b[:, 0::2] + b[:, 1::2]) * s,
                       (b[:, 0::2] - b[:, 1::2]) * s])
        x[:r, :c] = b
        r //= 2
        c //= 2
    return x


class DeblurObjective:
    """Reduced deblurring objective Phi~(u) on the image alone.

    0.5 ||K u - data||^2 + alpha_tv * sum_p ||(grad u)_p||_2
    + beta_wav * ||Haar(u)||_1, with K a uniform blur_size x blur_size
    correlation under replicate ('nearest') boundary and forward
    differences that vanish across the last row and column.
    """

    def __init__(self, cfg, data):
        self.size = cfg['size']
        self.kernel = np.full((cfg['blur_size'], cfg['blur_size']),
                              1.0 / cfg['blur_size'] ** 2)
        self.alpha = cfg['alpha_tv']
        self.beta = cfg['beta_wav']
        self.levels = cfg['haar_levels']
        self.data = np.asarray(data, dtype=float).reshape(self.size, self.size)

    def __call__(self, u):
        img = np.asarray(u, dtype=float).reshape(self.size, self.size)
        r = ndimage.correlate(img, self.kernel, mode='nearest') - self.data
        gx = np.zeros_like(img)
        gy = np.zeros_like(img)
        gx[:, :-1] = np.diff(img, axis=1)
        gy[:-1, :] = np.diff(img, axis=0)
        return (0.5 * float((r * r).sum())
                + self.alpha * float(np.hypot(gx, gy).sum())
                + self.beta * float(np.abs(haar2(img, self.levels)).sum()))


def check_deblur(phi, u, truth, observed, beat_truth):
    """Per-solve properties of a restored image u.

    It must lower the objective below the observed image's and land
    closer to the truth than the observation; ``beat_truth`` adds
    Phi~(u) < Phi~(truth), which holds once the run is close enough to
    the optimum (deblur 32 at e_k <= 1e-3, not deblur 64 at 1e-2).
    """
    pu, po = phi(u), phi(observed)
    du = float(np.linalg.norm(u - truth))
    do = float(np.linalg.norm(observed - truth))
    out = {'phi_below_observed': (pu, po, pu < po),
           'closer_than_observed': (du, do, du < do)}
    if beat_truth:
        pt = phi(truth)
        out['phi_below_truth'] = (pu, pt, pu < pt)
    return out


def check_agreement(values, limit):
    """Relative spread (max - min) / min of Phi~ across the schemes."""
    vals = np.asarray(list(values), dtype=float)
    spread = float((vals.max() - vals.min()) / vals.min())
    return {'scheme_agreement': (spread, limit, spread <= limit)}
