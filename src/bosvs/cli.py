"""Command line front end.

Subcommands: ``solve`` runs one scheme on a problem file; ``bench
deblur`` / ``bench lasso`` generate an instance, save it, and run one or
all schemes on it against the final objective of a ``refsolve`` run
(deblur) or the ISTA oracle's (lasso); ``refsolve`` runs the accelerated
refinement protocol (``--summary`` adds ``phi_star`` to the ``solve``
summary). A flag left out takes the library's default. Exit code 0 on
convergence (for ``refsolve``, also when its stable-digits rule ends
the run), 2 when a run stopped short of it, 1 on any other error.
"""

import argparse
import json
import os
import sys

import numpy as np

from .bench import (DeblurConfig, LassoConfig, ista_oracle, make_deblur,
                    make_lasso, refsolve, run_benchmark)
from .errors import MaxItersReached, SolverError
from .inner import ACCEL_SCHEDULES, RelaxationParams
from .outer import SCHEMES, OuterParams, solve, write_summary, write_trace_csv
from .problem import objective
from .problem_io import load_problem, save_problem


def _bool(text):
    val = text.strip().lower()
    if val in ('1', 'true', 'yes', 'on'):
        return True
    if val in ('0', 'false', 'no', 'off'):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {text!r}")


def _given(args, *names):
    """The flags among ``names`` given; one left out (None) is not passed."""
    return {k: getattr(args, k) for k in names if getattr(args, k) is not None}


def _build_params(args, scheme):
    return OuterParams(
        scheme=scheme, relax=RelaxationParams(**_given(args, 'enabled')),
        **_given(args, 'rho', 'alpha', 'accel_schedule', 'stop_tol',
                 'max_outer_iters'))


def _add_common(sp, rho_default=None, tol_default=None):
    sp.add_argument('--rho', type=float, required=rho_default is None,
                    default=rho_default, help='penalty parameter')
    sp.add_argument('--alpha', type=float,
                    help='correction stepsize in (0, 1)')
    shown = '' if tol_default is None else f' (default: {tol_default:g})'
    sp.add_argument('--tol', dest='stop_tol', type=float, default=tol_default,
                    help=f'stopping tolerance on e_k{shown}')
    sp.add_argument('--max-iters', dest='max_outer_iters', type=int)
    sp.add_argument('--relaxed', dest='enabled', type=_bool, metavar='BOOL',
                    help='practical stopping/line-search slack (true/false)')
    sp.add_argument('--accel-schedule', choices=ACCEL_SCHEDULES)


def _last(result, what):
    if not result.trace:
        raise SolverError(f"{what} ended ({result.reason}) before iteration 1")
    return result.trace[-1]


def _cmd_solve(args):
    p = load_problem(args.problem)
    result = solve(p, _build_params(args, args.scheme),
                   raise_on_maxiter=False)
    if args.trace:
        write_trace_csv(result.trace, args.trace, p.m)
    if args.summary:
        write_summary(result, args.summary, extra={'scheme': args.scheme})
    last = _last(result, args.scheme)
    print(f"{args.scheme}: k={last.k} objective={last.objective:.9e} "
          f"e={last.e_k:.3e} ({result.reason})")
    return 0 if result.converged else 2


def _bench_run_matrix(p, args, phi_star):
    os.makedirs(args.out, exist_ok=True)
    problem_path = os.path.join(args.out, 'problem.json')
    save_problem(p, problem_path)
    schemes = SCHEMES if args.scheme == 'all' else [args.scheme]
    codes = {scheme: run_benchmark(p, _build_params(args, scheme), args.out,
                                   phi_star)
             for scheme in schemes}
    index = {'problem': problem_path, 'phi_star': phi_star, 'schemes': codes}
    with open(os.path.join(args.out, 'index.json'), 'w') as fh:
        json.dump(index, fh, indent=2, sort_keys=True)
        fh.write('\n')
    for scheme in schemes:
        print(f"{scheme}: exit {codes[scheme]}")
    return max(codes.values())


def _cmd_bench_deblur(args):
    p = make_deblur(DeblurConfig(**_given(
        args, 'size', 'blur_size', 'snr_db', 'alpha_tv', 'beta_wav', 'seed',
        'haar_levels')))
    ref = refsolve(p, args.rho if args.ref_rho is None else args.ref_rho,
                   **_given(args, 'alpha'))
    return _bench_run_matrix(p, args, _last(ref, 'reference run').objective)


def _cmd_bench_lasso(args):
    cfg = LassoConfig(**_given(args, 'n', 'd', 'nnz', 'noise_std', 'beta',
                               'seed'))
    p = make_lasso(cfg)
    u = ista_oracle(p.meta['design'], p.meta['data'], cfg.beta)
    phi_star = objective(p, np.concatenate([u, u]))
    code = _bench_run_matrix(p, args, phi_star)
    with open(os.path.join(args.out, 'ista.json'), 'w') as fh:
        json.dump({'objective': phi_star}, fh, indent=2, sort_keys=True)
        fh.write('\n')
    print(f"ista reference objective: {phi_star:.9e}")
    return code


def _cmd_refsolve(args):
    p = load_problem(args.problem)
    result = refsolve(p, args.rho, **_given(args, 'alpha', 'cap'))
    if args.summary:
        write_summary(result, args.summary,
                      extra={'phi_star': result.final_objective})
    print(f"phi_star={_last(result, 'refsolve').objective:.9e} after "
          f"{result.iterations} iterations ({result.reason})")
    # 'callback' is the stable-digits rule that ends a complete reference run
    return 0 if result.reason in ('callback', 'converged') else 2


def build_parser():
    ap = argparse.ArgumentParser(prog='bosvs',
                                 description='inexact multi-block ADMM '
                                             'solvers and benchmarks')
    sub = ap.add_subparsers(dest='command', required=True)

    sp = sub.add_parser('solve', help='run one scheme on a problem file')
    sp.add_argument('--problem', required=True)
    sp.add_argument('--scheme', choices=SCHEMES, required=True)
    _add_common(sp)
    sp.add_argument('--trace', help='trace CSV output path')
    sp.add_argument('--summary', help='summary JSON output path')
    sp.set_defaults(func=_cmd_solve)

    bench = sub.add_parser('bench', help='generate and run an instance')
    bsub = bench.add_subparsers(dest='family', required=True)

    bd = bsub.add_parser('deblur', help='image deblurring benchmark')
    bd.add_argument('--size', type=int)
    bd.add_argument('--seed', type=int)
    bd.add_argument('--blur', dest='blur_size', type=int)
    bd.add_argument('--snr', dest='snr_db', type=float)
    bd.add_argument('--alpha-tv', type=float)
    bd.add_argument('--beta-wav', type=float)
    bd.add_argument('--haar-levels', type=int)
    bd.add_argument('--scheme', choices=[*SCHEMES, 'all'], default='all')
    bd.add_argument('--out', required=True)
    # the library's scaled stop_tol is out of reach at rho = 5e-4
    _add_common(bd, rho_default=5e-4, tol_default=1e-3)
    bd.add_argument('--ref-rho', type=float,
                    help='penalty used for the reference-objective run '
                         '(default: same as --rho; the refinement protocol '
                         'can stall below the optimum when rho is tiny)')
    bd.set_defaults(func=_cmd_bench_deblur)

    bl = bsub.add_parser('lasso', help='lasso consensus benchmark')
    bl.add_argument('--n', type=int)
    bl.add_argument('--d', type=int)
    bl.add_argument('--nnz', type=int)
    bl.add_argument('--noise-std', type=float)
    bl.add_argument('--beta', type=float)
    bl.add_argument('--seed', type=int)
    bl.add_argument('--scheme', choices=[*SCHEMES, 'all'], default='all')
    bl.add_argument('--out', required=True)
    _add_common(bl, rho_default=1.0)
    bl.set_defaults(func=_cmd_bench_lasso)

    rf = sub.add_parser('refsolve', help='reference objective protocol')
    rf.add_argument('--problem', required=True)
    rf.add_argument('--rho', type=float, required=True)
    rf.add_argument('--alpha', type=float)
    rf.add_argument('--cap', type=int)
    rf.add_argument('--summary')
    rf.set_defaults(func=_cmd_refsolve)
    return ap


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:    # argparse exits 2 on a usage error
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except MaxItersReached:
        print("error: iteration budget exhausted", file=sys.stderr)
        return 2
    except (SolverError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == '__main__':
    sys.exit(main())
