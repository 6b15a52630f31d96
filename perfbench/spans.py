"""Runtime span tracing of the library's public layers.

``Tracer.install`` replaces selected functions and methods of the
``bosvs`` modules with wrappers that record one span per call: a name
id, the parent span, the scheme tag of the solve in progress, and
start/end times. Spans stay in flat arrays in memory until ``save``
writes them out. ``layer_metrics`` turns them into self times (a span's
duration minus its children's) and per-layer counts. ``uninstall``
restores every original.

The wrappers sit at the module attribute the caller looks up, so
functions that ``outer`` imported by name are patched in ``outer``.
"""

import functools
import json
import time
import weakref
from array import array

import numpy as np

from bosvs import bench, inner, linops, outer, problem, prox

SCHEMES = ('generalized', 'multistep', 'accelerated', 'exact')
STEP_FUNCS = {'generalized': 'generalized_step', 'multistep': 'multistep_loop',
              'accelerated': 'accelerated_loop', 'exact': 'exact_block_solve'}
OPS = ('DenseOp', 'ScaledIdentityOp', 'ZeroOp', 'VStackOp', 'HaarTransform',
       'DiffOperator', 'BlurOperator')


class Tracer:
    """In-memory span recorder with runtime wrappers."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array('i')
        self.parent = array('i')
        self.tag = array('b')
        self.start = array('d')
        self.end = array('d')
        self._stack = [-1]
        self.current = 0            # tag of the solve in progress, 0 = none
        self.gram_bytes = 0
        self._patches = []

    def set_scheme(self, scheme):
        """Tag the spans that follow with scheme (None: untagged)."""
        self.current = SCHEMES.index(scheme) + 1 if scheme else 0

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn):
        """Return fn wrapped so each call records a span called name."""
        nid = self._id(name)
        names, parents, tags = self.name, self.parent, self.tag
        starts, ends, stack = self.start, self.end, self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            tags.append(tracer.current)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _span(self, owner, attr, name):
        self._patch(owner, attr, self.wrap(name, owner.__dict__[attr]))

    def _first_call_span(self, owner, attr, name):
        """Span only each object's first call (the lazy probe)."""
        fn = owner.__dict__[attr]
        traced = self.wrap(name, fn)
        seen = weakref.WeakSet()

        @functools.wraps(fn)
        def probe(obj, *args):
            if obj in seen:
                return fn(obj, *args)
            seen.add(obj)
            return traced(obj, *args)

        self._patch(owner, attr, probe)

    def install(self):
        self._span(bench, 'make_lasso', 'bench.make')
        self._span(bench, 'make_deblur', 'bench.make')
        self._span(outer, 'solve', 'outer.solve')
        self._span(outer, 'assemble_back_sub', 'linops.assemble_back_sub')
        self._span(outer, 'back_substitute', 'linops.back_substitute')
        self._span(outer, 'b_i_k', 'problem.b_i_k')
        self._span(outer, 'objective', 'problem.objective')
        self._span(outer, 'error_measure', 'outer.error_measure')
        for scheme, func in STEP_FUNCS.items():
            self._span(outer, func, f'inner.step.{scheme}')
        self._span(problem.Problem, 'apply_A', 'problem.apply_A')
        traced_gram = self.wrap('linops.gram', linops.gram)

        def gram(a, b):
            g = traced_gram(a, b)
            self.gram_bytes += g.nbytes
            return g

        self._patch(linops, 'gram', gram)
        self._span(linops, 'identity_multiple', 'linops.identity_multiple')
        for op in OPS:
            cls = getattr(linops, op)
            self._span(cls, 'apply', f'linops.{op}.apply')
            self._span(cls, 'apply_adjoint', f'linops.{op}.adjoint')
        self._first_call_span(inner.BlockWorkspace, 'identity_multiple',
                              'inner.probe')
        self._first_call_span(inner.BlockWorkspace, 'gram_basis',
                              'inner.probe')
        self._span(inner.BlockWorkspace, 'solve_shifted',
                   'inner.solve_shifted')
        # one call per subproblem solve (prox, shifted solve or scalar
        # division) inside the inexact schemes' line searches
        self._span(inner, '_composite_argmin', 'inner.subproblem')
        self._span(prox.QuadraticLS, 'value', 'prox.f_value')
        self._span(prox.QuadraticLS, 'gradient', 'prox.f_grad')
        self._span(prox.QuadraticLS, 'hess_apply', 'prox.hess_apply')
        self._span(prox.ScaledL1, 'prox', 'prox.prox')
        self._span(prox.GroupL2, 'prox', 'prox.prox')

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def arrays(self):
        return {'name': np.array(self.name, dtype=np.int32),
                'parent': np.array(self.parent, dtype=np.int32),
                'tag': np.array(self.tag, dtype=np.int8),
                'start': np.array(self.start, dtype=np.float64),
                'end': np.array(self.end, dtype=np.float64)}

    def save(self, path, context):
        """Write every span and the name table to an .npz file."""
        np.savez(path, names=np.array(self.names),
                 schemes=np.array(('',) + SCHEMES),
                 context=np.array(json.dumps(context)), **self.arrays())

    def layer_metrics(self, results, rounds):
        """Per-layer figures per round, from the spans and solve results.

        ``results`` are the traced solves' records (scheme, iterations,
        inner iterations). Times are self times except the two setup
        containers, ``linops.assemble_back_sub_s`` and ``inner.probe_s``,
        which are inclusive so their Gram and probe work shows whole.
        """
        a = self.arrays()
        k = len(self.names)
        dur = a['end'] - a['start']
        par = a['parent']
        has = par >= 0
        child = np.bincount(par[has], weights=dur[has], minlength=dur.size)
        self_t = np.bincount(a['name'], weights=dur - child, minlength=k)
        incl = np.bincount(a['name'], weights=dur, minlength=k)
        calls = np.bincount(a['name'], minlength=k)
        ntag = len(SCHEMES) + 1
        by_tag = np.bincount(a['name'].astype(np.int64) * ntag + a['tag'],
                             minlength=ntag * k).reshape(k, ntag)

        def get(arr, name):
            return float(arr[self._ids[name]]) / rounds \
                if name in self._ids else 0.0

        m = {}

        def put(name, value, unit):
            m[name] = (value, unit)

        put('bench.make_s', get(self_t, 'bench.make'), 's')
        put('linops.assemble_back_sub_s',
            get(incl, 'linops.assemble_back_sub'), 's')
        put('linops.gram_s', get(self_t, 'linops.gram'), 's')
        put('linops.gram_bytes', self.gram_bytes / rounds, 'B')
        put('linops.identity_multiple_s',
            get(self_t, 'linops.identity_multiple'), 's')
        put('inner.probe_s', get(incl, 'inner.probe'), 's')
        put('problem.b_i_k_s', get(self_t, 'problem.b_i_k'), 's')
        put('problem.b_i_k_calls', get(calls, 'problem.b_i_k'), 'count')
        put('problem.apply_A_s', get(self_t, 'problem.apply_A'), 's')
        put('problem.objective_s', get(self_t, 'problem.objective'), 's')
        put('outer.error_measure_s', get(self_t, 'outer.error_measure'), 's')
        put('outer.solve_self_s', get(self_t, 'outer.solve'), 's')
        put('linops.back_substitute_s',
            get(self_t, 'linops.back_substitute'), 's')
        put('inner.solve_shifted_s', get(self_t, 'inner.solve_shifted'), 's')
        put('inner.solve_shifted_calls',
            get(calls, 'inner.solve_shifted'), 'count')
        smooth = ('prox.f_value', 'prox.f_grad', 'prox.hess_apply')
        put('prox.smooth_s', sum(get(self_t, n) for n in smooth), 's')
        put('prox.f_value_calls', get(calls, 'prox.f_value'), 'count')
        put('prox.f_grad_calls', get(calls, 'prox.f_grad'), 'count')
        put('prox.hess_apply_calls', get(calls, 'prox.hess_apply'), 'count')
        put('prox.prox_s', get(self_t, 'prox.prox'), 's')
        put('prox.prox_calls', get(calls, 'prox.prox'), 'count')
        for op in OPS:
            put(f'linops.{op}.apply_s', get(self_t, f'linops.{op}.apply'), 's')
            put(f'linops.{op}.adjoint_s',
                get(self_t, f'linops.{op}.adjoint'), 's')
            put(f'linops.{op}.calls', get(calls, f'linops.{op}.apply')
                + get(calls, f'linops.{op}.adjoint'), 'count')
        sub = self._ids.get('inner.subproblem')
        for t, scheme in enumerate(SCHEMES, start=1):
            mine = [r for r in results if r['scheme'] == scheme]
            inner_iters = sum(r['inner_iters'] for r in mine) / rounds
            put(f'inner.step_s.{scheme}',
                get(self_t, f'inner.step.{scheme}'), 's')
            put(f'inner.iters.{scheme}', inner_iters, 'count')
            put(f'outer.iters.{scheme}',
                sum(r['iterations'] for r in mine) / rounds, 'count')
            if scheme == 'exact':
                continue    # no line search: CG iterations are its inner.iters
            trials = 0.0 if sub is None else float(by_tag[sub, t]) / rounds
            put(f'inner.trials.{scheme}', trials, 'count')
            put(f'inner.accept_ratio.{scheme}',
                inner_iters / trials if trials else 0.0, 'ratio')
        put('trace.spans', dur.size / rounds, 'count')
        return m
