"""Operator correctness against dense and scipy oracles."""

import copy
import pickle

import numpy as np
import pytest
from scipy import ndimage

from bosvs import bench
from bosvs.errors import BadDims, DimensionMismatch, RankDeficient
from bosvs import linops
from bosvs.linops import (BlurOperator, DenseOp, DiagonalOp, Diagonalized,
                          DiffOperator, HaarTransform, IdentityOp, NegIdentityOp,
                          ScaledIdentityOp, VStackOp, ZeroOp,
                          assemble_back_sub, back_substitute, gram,
                          identity_multiple)


def smallest_gram_eigenvalue(a):
    """Smallest eigenvalue of A^T A, clamped at zero (reference form)."""
    return max(gram(a, a).eig_bounds()[0], 0.0)


def adjoint_gap(op, rng, trials=5):
    """max |<w, A v> - <A^T w, v>| over random pairs."""
    worst = 0.0
    for _ in range(trials):
        v = rng.standard_normal(op.cols)
        w = rng.standard_normal(op.rows)
        worst = max(worst, abs(float(w @ op.apply(v))
                               - float(v @ op.apply_adjoint(w))))
    return worst


def make_ops(rng):
    return [
        DenseOp(rng.standard_normal((7, 4))),
        ScaledIdentityOp(6, -2.5),
        IdentityOp(5),
        NegIdentityOp(5),
        ZeroOp(8, 3),
        VStackOp([DenseOp(rng.standard_normal((3, 4))),
                  IdentityOp(4),
                  ZeroOp(2, 4)]),
        HaarTransform(8, 8, levels=2),
        DiffOperator(5, 6),
        BlurOperator.uniform(6, 6, 3),
        BlurOperator(5, 7, np.array([[0.0, 0.25, 0.0],
                                     [0.25, 0.0, 0.25],
                                     [0.0, 0.25, 0.0]])),
    ]


def test_adjoints_match_dense_transpose():
    rng = np.random.default_rng(0)
    for op in make_ops(rng):
        a = op.to_dense()
        assert a.shape == (op.rows, op.cols)
        v = rng.standard_normal(op.cols)
        w = rng.standard_normal(op.rows)
        assert np.allclose(op.apply(v), a @ v, atol=1e-12)
        assert np.allclose(op.apply_adjoint(w), a.T @ w, atol=1e-12)
        assert adjoint_gap(op, rng) <= 1e-10


def test_dimension_checks():
    op = DenseOp(np.ones((3, 2)))
    with pytest.raises(DimensionMismatch):
        op.apply(np.ones(3))
    with pytest.raises(DimensionMismatch):
        op.apply_adjoint(np.ones(2))
    with pytest.raises(DimensionMismatch):
        VStackOp([IdentityOp(3), IdentityOp(4)])
    with pytest.raises(DimensionMismatch):
        VStackOp([])
    with pytest.raises(BadDims):
        HaarTransform(6, 6, levels=2)   # not divisible by 4
    with pytest.raises(BadDims):
        HaarTransform(4, 4, levels=3)
    with pytest.raises(BadDims, match='levels'):
        HaarTransform(8, 8, True)
    with pytest.raises(BadDims):
        BlurOperator.uniform(4, 4, 2)   # even kernel
    with pytest.raises(BadDims):
        DiffOperator(0, 3)


def test_every_operator_checks_and_flattens_its_input():
    # a list, an (n, 1) column and a 1-D array with the same values give
    # the same bytes; a wrong length is a DimensionMismatch either way
    rng = np.random.default_rng(3)
    for op in make_ops(rng):
        for fn, n in ((op.apply, op.cols), (op.apply_adjoint, op.rows)):
            v = rng.standard_normal(n)
            out = fn(v)
            for same in (list(v), v.reshape(n, 1), v.copy()):
                assert fn(same).tobytes() == out.tobytes(), type(op)
            for bad in (np.ones(n + 1), np.ones(n - 1), [1.0] * (n + 1)):
                with pytest.raises(DimensionMismatch):
                    fn(bad)


def test_unrepresentable_operators_are_rejected():
    for rows, cols in ((12, -1), (0, 3), (3, 0)):
        with pytest.raises(DimensionMismatch):
            ZeroOp(rows, cols)
    for shape in ((0, 3), (3, 0), (0, 0), (1, 0)):
        with pytest.raises(DimensionMismatch):
            DenseOp(np.zeros(shape))
    for kernel in (np.zeros((3, 3)), [[np.nan]], [[np.inf]]):
        with pytest.raises(BadDims, match='kernel'):
            BlurOperator(4, 4, kernel)
    for rows, cols in ((0, 4), (4, 0), (-1, 4)):
        with pytest.raises(BadDims, match='image'):
            BlurOperator(rows, cols, [[1.0]])


def test_haar_single_level_hand_case():
    # 2x2 image [[a, b], [c, d]]: one level gives the four quarter sums
    a, b, c, d = 1.0, 2.0, -3.0, 5.0
    t = HaarTransform(2, 2, levels=1)
    out = t.apply(np.array([a, b, c, d])).reshape(2, 2)
    assert abs(out[0, 0] - (a + b + c + d) / 2.0) < 1e-14
    assert abs(out[0, 1] - (a - b + c - d) / 2.0) < 1e-14
    assert abs(out[1, 0] - (a + b - c - d) / 2.0) < 1e-14
    assert abs(out[1, 1] - (a - b - c + d) / 2.0) < 1e-14


def test_haar_orthonormal_and_roundtrip():
    rng = np.random.default_rng(1)
    for rows, cols, levels in [(8, 8, 1), (8, 8, 3), (16, 8, 2),
                               (32, 32, 2), (64, 64, 2)]:
        t = HaarTransform(rows, cols, levels)
        x = rng.standard_normal(rows * cols)
        y = t.apply(x)
        assert np.linalg.norm(t.apply_adjoint(y) - x, np.inf) <= 1e-12
        assert np.linalg.norm(t.apply(t.apply_adjoint(x)) - x, np.inf) <= 1e-12
        # Parseval: energy preserved
        assert abs(float(y @ y) - float(x @ x)) <= 1e-10 * float(x @ x)
    q = HaarTransform(8, 8, 2).to_dense()
    assert np.max(np.abs(q.T @ q - np.eye(64))) <= 1e-12
    assert np.max(np.abs(q @ q.T - np.eye(64))) <= 1e-12


def test_haar_constant_image_concentrates():
    t = HaarTransform(8, 8, levels=3)
    y = t.apply(np.ones(64)).reshape(8, 8)
    assert abs(y[0, 0] - 8.0) < 1e-12
    y[0, 0] = 0.0
    assert np.max(np.abs(y)) < 1e-12


def test_diff_matches_manual_differences():
    rng = np.random.default_rng(2)
    op = DiffOperator(5, 7)
    u = rng.standard_normal((5, 7))
    out = op.apply(u.ravel())
    gx = out[:35].reshape(5, 7)
    gy = out[35:].reshape(5, 7)
    assert np.allclose(gx[:, :-1], u[:, 1:] - u[:, :-1])
    assert np.allclose(gx[:, -1], 0.0)
    assert np.allclose(gy[:-1, :], u[1:, :] - u[:-1, :])
    assert np.allclose(gy[-1, :], 0.0)
    # constant image has zero gradient
    assert np.linalg.norm(op.apply(np.full(35, 3.7))) == 0.0


def test_blur_matches_ndimage_correlate():
    rng = np.random.default_rng(3)
    for rows, cols, size in [(6, 6, 3), (8, 5, 5), (9, 9, 3)]:
        op = BlurOperator.uniform(rows, cols, size)
        u = rng.standard_normal((rows, cols))
        want = ndimage.correlate(u, np.full((size, size), 1.0 / size ** 2),
                                 mode='nearest')
        assert np.allclose(op.apply(u.ravel()), want.ravel(), atol=1e-12)
    # non-uniform kernel too
    k = np.array([[0.0, 0.2, 0.0], [0.1, 0.4, 0.1], [0.0, 0.2, 0.0]])
    op = BlurOperator(7, 6, k)
    u = rng.standard_normal((7, 6))
    want = ndimage.correlate(u, k, mode='nearest')
    assert np.allclose(op.apply(u.ravel()), want.ravel(), atol=1e-12)


def test_blur_preserves_constants():
    op = BlurOperator.uniform(8, 8, 3)
    out = op.apply(np.full(64, 2.0))
    assert np.allclose(out, 2.0, atol=1e-14)


def test_blur_self_gram_is_diagonal_in_the_dct_basis():
    sym = np.array([[0.05, 0.1, 0.05], [0.1, 0.4, 0.1], [0.05, 0.1, 0.05]])
    ops = [BlurOperator.uniform(8, 8, 3), BlurOperator(8, 8, sym),
           BlurOperator(6, 6, np.array([[1.7]])),
           BlurOperator(8, 12, sym)]
    for op in ops:
        g = op.self_gram()
        assert type(g) is Diagonalized
        want = op.to_dense().T @ op.to_dense()
        got = np.column_stack([g.apply(e) for e in np.eye(op.cols)])
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        # the blur shares its basis with the differences on the same grid
        d = DiffOperator(op.imrows, op.imcols).self_gram()
        assert g.forward is d.forward and g.inverse is d.inverse
    asym = sym.copy()
    asym[0, 0] = 0.0
    assert BlurOperator.uniform(8, 8, 5).self_gram() is None
    assert BlurOperator(8, 8, asym).self_gram() is None


def test_blur_diagonalized_is_F_in_the_dct_basis():
    sym = np.array([[0.05, 0.1, 0.05], [0.1, 0.4, 0.1], [0.05, 0.1, 0.05]])
    for op in (BlurOperator.uniform(8, 8, 3), BlurOperator(8, 12, sym)):
        d = op.diagonalized()
        want = op.to_dense()
        got = np.column_stack([d.apply(e) for e in np.eye(op.cols)])
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        assert np.array_equal(op.self_gram().eig, d.eig ** 2)
        assert d.forward is op.self_gram().forward
    assert BlurOperator.uniform(8, 8, 5).diagonalized() is None


def test_diagonal_op_is_elementwise():
    rng = np.random.default_rng(31)
    d, e = rng.uniform(0.5, 2.0, 7), rng.uniform(0.1, 1.0, 7)
    D, E = DiagonalOp(d), DiagonalOp(e)
    v = rng.standard_normal(7)
    assert np.array_equal(D.apply(v), d * v)
    assert np.array_equal(D.apply_adjoint(v), d * v)
    assert np.array_equal(D.solve_shifted(0.3, 2.0, v), v / (0.3 + 2.0 * d))
    assert D.eig_bounds() == (d.min(), d.max())
    assert np.array_equal(D.self_gram().apply(v), d ** 2 * v)
    assert np.array_equal(D.to_dense(), np.diag(d))
    # structural sums stay elementwise, and so does the exact direct solve
    assert np.array_equal(linops._add(D, E, 0.5).apply(v), (d + 0.5 * e) * v)
    assert np.array_equal(linops._add(ScaledIdentityOp(7, 2.0), D).apply(v),
                          (2.0 + d) * v)
    assert np.array_equal(linops.direct_solver(D, E, 0.5)(v),
                          v / (d + 0.5 * e))


def test_gram_structured_fast_paths_are_exact():
    n = 12
    ident = IdentityOp(n)
    neg = NegIdentityOp(n)
    zero = ZeroOp(n, 5)
    assert np.array_equal(gram(ident, ident).to_dense(), np.eye(n))
    assert np.array_equal(gram(neg, neg).to_dense(), np.eye(n))
    assert np.array_equal(gram(neg, ident).to_dense(), -np.eye(n))
    assert np.array_equal(gram(zero, zero).to_dense(), np.zeros((5, 5)))
    h = HaarTransform(4, 4, 1)
    assert np.array_equal(gram(h, h).to_dense(), np.eye(16))
    # the deblur-style stacks: [-I; 0] and [0; -I] give exact I and 0
    a2 = VStackOp([NegIdentityOp(n), ZeroOp(n, n)])
    a3 = VStackOp([ZeroOp(n, n), NegIdentityOp(n)])
    assert np.array_equal(gram(a2, a2).to_dense(), np.eye(n))
    assert np.array_equal(gram(a3, a3).to_dense(), np.eye(n))
    assert np.array_equal(gram(a2, a3).to_dense(), np.zeros((n, n)))
    # [I; I] sums two multiples of I; a square zero solves and bounds as 0
    two = VStackOp([ident, ident])
    assert type(gram(two, two)) is ScaledIdentityOp
    assert gram(two, two).scalar == 2.0
    z5, rhs = gram(zero, zero), np.arange(5.0)
    assert np.array_equal(z5.solve_shifted(4.0, 3.0, rhs), rhs / 4.0)
    assert z5.eig_bounds() == (0.0, 0.0)
    # Gram values are operators of the same classes as their operands
    for a, b in [(ident, ident), (neg, neg), (neg, ident), (h, h),
                 (a2, a2), (a3, a3)]:
        assert type(gram(a, b)) is ScaledIdentityOp
    assert type(gram(zero, zero)) is ZeroOp
    assert type(gram(a2, a3)) is ZeroOp
    d = DenseOp(np.arange(6.0).reshape(3, 2))
    assert type(gram(d, d)) is DenseOp
    # an operator's own self_gram gives the same structured value
    for a in (ident, neg, ScaledIdentityOp(n, 3.0), zero, h, a2, a3, two):
        got, want = a.self_gram(), gram(a, a)
        assert type(got) is type(want)
        assert np.array_equal(got.to_dense(), want.to_dense())
    stack = VStackOp([IdentityOp(16), BlurOperator.uniform(4, 4, 5)])
    assert stack.self_gram() is None
    # and check their operands' lengths like any operator
    for g in (gram(ident, ident), gram(zero, zero)):
        with pytest.raises(DimensionMismatch):
            g.apply(np.ones(g.cols + 1))
        with pytest.raises(DimensionMismatch):
            g.apply_adjoint(np.ones(g.rows - 1))


def test_gram_matches_dense_oracle():
    rng = np.random.default_rng(4)
    for _ in range(5):
        a = DenseOp(rng.standard_normal((9, 4)))
        b = DenseOp(rng.standard_normal((9, 6)))
        want = a.to_dense().T @ b.to_dense()
        assert np.allclose(gram(a, b).to_dense(), want, atol=1e-12)
    with pytest.raises(DimensionMismatch):
        gram(DenseOp(np.ones((3, 2))), DenseOp(np.ones((4, 2))))


def gram_cases(rng):
    """Operator pairs: every block pair of lasso and deblur 8/16, a dense
    fallback (with itself and with another operator), a rectangular zero,
    and blurs with no structured self Gram (5x5, asymmetric 3x3; alone
    and in a stack)."""
    problems = [bench.make_lasso(bench.LassoConfig(n=12, d=15, seed=0)),
                bench.make_deblur(bench.DeblurConfig(size=8)),
                bench.make_deblur(bench.DeblurConfig(size=16))]
    pairs = [(bi.A, bj.A) for p in problems for bi in p.blocks
             for bj in p.blocks]
    d = DenseOp(rng.standard_normal((9, 5)))
    pairs += [(d, d), (d, DenseOp(rng.standard_normal((9, 3)))),
              (ZeroOp(6, 3), DenseOp(rng.standard_normal((6, 4))))]
    b5 = BlurOperator.uniform(6, 6, 5)
    asym = BlurOperator(6, 6, rng.random((3, 3)))
    st = VStackOp([b5, IdentityOp(36)])
    pairs += [(b5, b5), (asym, asym), (st, st)]
    return pairs


def test_gram_values_match_dense_oracle():
    rng = np.random.default_rng(12)
    for a, b in gram_cases(rng):
        g = gram(a, b)
        assert isinstance(g, (ZeroOp, ScaledIdentityOp, Diagonalized,
                              DenseOp))
        want = a.to_dense().T @ b.to_dense()
        tol = 1e-12 * max(1.0, np.abs(want).max())
        assert g.shape == want.shape
        assert np.allclose(g.to_dense(), want, rtol=0.0, atol=tol)
        v = rng.standard_normal(b.cols)
        w = rng.standard_normal(a.cols)
        assert np.allclose(g.apply(v), want @ v, rtol=0.0, atol=10 * tol)
        assert np.allclose(g.apply_adjoint(w), want.T @ w, rtol=0.0,
                           atol=10 * tol)
        square = want.shape[0] == want.shape[1]
        c0 = want[0, 0]
        oracle_c = c0 if square and np.abs(
            want - c0 * np.eye(len(want))).max() <= 1e-12 * max(1.0, abs(c0)) \
            else None
        assert identity_multiple(g) == oracle_c
        if isinstance(g, ZeroOp):
            assert not np.any(want)
        if not isinstance(g, DenseOp):
            # structured values hold at most one vector of eigenvalues
            assert g.nbytes <= 8 * g.cols
        if a is not b:
            continue
        evals = np.linalg.eigvalsh(want)
        lo, hi = g.eig_bounds()
        assert abs(lo - evals[0]) <= 1e-10 * max(1.0, evals[-1])
        assert abs(hi - evals[-1]) <= 1e-10 * max(1.0, evals[-1])
        if lo <= 0.0:
            continue
        for delta, rho in [(1e-3, 5e-4), (0.7, 1.0), (0.0, 1.0)]:
            rhs = rng.standard_normal(g.cols)
            u = g.solve_shifted(delta, rho, rhs)
            ue = np.linalg.solve(delta * np.eye(g.cols) + rho * want, rhs)
            assert np.linalg.norm(u - ue) <= 1e-9 * np.linalg.norm(ue)


def test_identity_multiple_detection():
    def dense_gram(g):
        # A^T B = g with A = I, B = g: the dense fallback path
        return gram(DenseOp(np.eye(len(g))), DenseOp(g))

    assert identity_multiple(dense_gram(np.eye(5))) == 1.0
    assert identity_multiple(dense_gram(2.5 * np.eye(7))) == 2.5
    g = np.eye(4)
    g[0, 1] = 1e-6
    assert identity_multiple(dense_gram(g)) is None
    assert identity_multiple(dense_gram(np.diag([1.0, 2.0, 1.0]))) is None
    assert identity_multiple(dense_gram(np.ones((2, 3)))) is None
    assert identity_multiple(dense_gram(np.zeros((3, 3)))) == 0.0
    assert identity_multiple(gram(NegIdentityOp(6), IdentityOp(6))) == -1.0
    assert identity_multiple(gram(ZeroOp(4, 2), ZeroOp(4, 3))) is None


def test_smallest_gram_eigenvalue():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((10, 6))
    op = DenseOp(a)
    want = float(np.linalg.eigvalsh(a.T @ a)[0])
    got = smallest_gram_eigenvalue(op)
    assert abs(got - want) <= 1e-8 * max(abs(want), 1e-30)
    # rank deficient: nu clamps at zero
    wide = DenseOp(rng.standard_normal((3, 8)))
    assert smallest_gram_eigenvalue(wide) >= 0.0


def dense_back_sub(mats):
    """Dense H and lower block-triangular M, M_ij = A_i^T A_j, of the
    blocks' matrices."""
    dims = [a.shape[1] for a in mats]
    offs = np.concatenate([[0], np.cumsum(dims)])
    h_dense = np.zeros((offs[-1], offs[-1]))
    m_dense = np.zeros_like(h_dense)
    for i in range(len(mats)):
        si = slice(offs[i], offs[i + 1])
        h_dense[si, si] = mats[i].T @ mats[i]
        for j in range(i + 1):
            m_dense[si, offs[j]:offs[j + 1]] = mats[i].T @ mats[j]
    return h_dense, m_dense


def test_back_sub_assembly_matches_dense():
    rng = np.random.default_rng(6)
    dims = [3, 4, 2]
    ops = [DenseOp(rng.standard_normal((9, d)) + np.eye(9, d)) for d in dims]
    bs = assemble_back_sub(ops)
    mats = [op.to_dense() for op in ops]
    for i in range(3):
        want = mats[i].T @ mats[i]
        assert np.allclose(bs.hblocks[i].to_dense(), want, atol=1e-12)
    # H and M^T actions against dense constructions
    h_dense, m_dense = dense_back_sub(mats)
    v = rng.standard_normal(sum(dims))
    assert np.allclose(bs.apply_H(v), h_dense @ v, atol=1e-10)
    assert np.allclose(bs.apply_M_T(v), m_dense.T @ v, atol=1e-10)
    assert np.allclose(bs.solve_H(v), np.linalg.solve(h_dense, v), atol=1e-8)
    p_dense = m_dense @ np.linalg.solve(h_dense, m_dense.T)
    assert abs(bs.p_quadratic(v) - float(v @ p_dense @ v)) <= 1e-8 * (
        1.0 + abs(float(v @ p_dense @ v)))


def assert_matches_dense_oracle(bs, mats, rng, alpha=0.9):
    """back_substitute, apply_M_T and p_quadratic against dense M and H."""
    h_dense, m_dense = dense_back_sub(mats)
    p_dense = m_dense @ np.linalg.solve(h_dense, m_dense.T)
    for _ in range(3):
        y, z, v = rng.standard_normal((3, len(h_dense)))
        want = y + alpha * np.linalg.solve(m_dense.T, h_dense @ (z - y))
        got = back_substitute(bs, y, z, alpha)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        assert np.allclose(bs.apply_M_T(v), m_dense.T @ v, atol=1e-12)
        quad = float(v @ p_dense @ v)
        assert abs(bs.p_quadratic(v) - quad) <= 1e-12 * (1.0 + abs(quad))


def test_back_substitute_coupled_dense_blocks_match_the_dense_solve(
        monkeypatch):
    # four dense trailing blocks, every pair coupled: each block's
    # correction goes through the row-space sum of the blocks after it
    rng = np.random.default_rng(14)
    mats = [rng.standard_normal((20, d)) + 2.0 * np.eye(20, d)
            for d in (3, 5, 4, 2)]
    calls = []
    monkeypatch.setattr(linops, 'gram',
                        lambda a, b: calls.append(a is b) or gram(a, b))
    bs = assemble_back_sub([DenseOp(a) for a in mats])
    assert calls == [True] * 4    # self-Grams only, no A_i^T A_j
    assert bs.coupled
    assert_matches_dense_oracle(bs, mats, rng)
    y, z = rng.standard_normal((2, bs.total))
    want = back_substitute(bs, y, z, 0.9)
    for h in bs.hblocks:    # back substitution applies no H_i
        h.apply = None
    assert back_substitute(bs, y, z, 0.9).tobytes() == want.tobytes()


def test_back_substitute_skips_uncoupled_blocks_bit_for_bit():
    # deblur's [-I; 0] and [0; -I] share no nonzero row: u = z - y, and
    # M^T keeps a signed zero that adding A_2^T 0 would turn into +0.0
    p = bench.make_deblur(bench.DeblurConfig(size=8))
    bs = assemble_back_sub([blk.A for blk in p.blocks[1:]])
    assert not bs.coupled
    rng = np.random.default_rng(15)
    y, z = rng.standard_normal((2, bs.total))
    y[[3, bs.total - 1]] = 0.0
    z[[3, bs.total - 1]] = -0.0
    w = z - y
    assert np.signbit(w[3]) and np.signbit(w[-1])
    for op in bs.ops:   # the skip applies no operator
        op.apply = op.apply_adjoint = None
    got = back_substitute(bs, y, z, 0.999)
    assert got.tobytes() == (y + 0.999 * w).tobytes()
    assert bs.apply_M_T(w).tobytes() == w.tobytes()


def test_stacks_sharing_a_row_range_or_split_apart_count_as_coupled():
    rng = np.random.default_rng(16)
    n = 4
    dense = DenseOp(rng.standard_normal((6, n)))
    for ops in (
            # [I; 0] and [I; I] share the rows of the first part
            [VStackOp([IdentityOp(n), ZeroOp(n, n)]),
             VStackOp([IdentityOp(n), IdentityOp(n)])],
            # part row splits (4, 4) and (2, 6): the pair is not placed
            [VStackOp([NegIdentityOp(n), ZeroOp(n, n)]),
             VStackOp([ZeroOp(2, n), dense])],
            # (4, 4) and (2, 2, 4) do not couple, but only a product shows it
            [VStackOp([IdentityOp(n), ZeroOp(n, n)]),
             VStackOp([ZeroOp(2, n), ZeroOp(2, n), IdentityOp(n)])]):
        bs = assemble_back_sub(ops)
        assert bs.coupled
        assert_matches_dense_oracle(bs, [op.to_dense() for op in ops], rng)


def test_back_substitute_solves_triangular_system():
    rng = np.random.default_rng(7)
    for trial in range(10):
        nb = int(rng.integers(1, 4))
        dims = [int(rng.integers(2, 6)) for _ in range(nb)]
        rows = sum(dims) + 3
        ops = [DenseOp(rng.standard_normal((rows, d))) for d in dims]
        bs = assemble_back_sub(ops)
        total = sum(dims)
        y = rng.standard_normal(total)
        z = rng.standard_normal(total)
        alpha = 0.9
        y_new = back_substitute(bs, y, z, alpha)
        u = (y_new - y) / alpha
        # residual of M^T u = H (z - y)
        res = bs.apply_M_T(u) - bs.apply_H(z - y)
        assert np.linalg.norm(res) <= 1e-10, f"trial {trial}"


def test_back_substitute_identity_structure_is_relaxation():
    rng = np.random.default_rng(8)
    n = 6
    ops = [VStackOp([NegIdentityOp(n), ZeroOp(n, n)]),
           VStackOp([ZeroOp(n, n), NegIdentityOp(n)])]
    bs = assemble_back_sub(ops)
    for i in range(2):
        assert np.array_equal(bs.hblocks[i].to_dense(), np.eye(n))
    assert not bs.coupled
    y = rng.standard_normal(2 * n)
    z = rng.standard_normal(2 * n)
    got = back_substitute(bs, y, z, 0.999)
    assert np.allclose(got, y + 0.999 * (z - y), atol=1e-14)


def test_back_substitute_through_ill_conditioned_dense_block():
    # the trailing block's Gram has condition number 1e8
    rng = np.random.default_rng(10)
    rows, d = 30, 8
    u, _ = np.linalg.qr(rng.standard_normal((rows, d)))
    v, _ = np.linalg.qr(rng.standard_normal((d, d)))
    a3 = u @ np.diag(np.logspace(0.0, -4.0, d)) @ v.T
    a2 = rng.standard_normal((rows, 5))
    bs = assemble_back_sub([DenseOp(a2), DenseOp(a3)])
    h3 = a3.T @ a3
    assert np.linalg.cond(h3) > 1e7
    m = np.block([[a2.T @ a2, np.zeros((5, d))], [a3.T @ a2, h3]])
    h = np.block([[a2.T @ a2, np.zeros((5, d))], [np.zeros((d, 5)), h3]])
    for _ in range(3):
        y = rng.standard_normal(5 + d)
        z = rng.standard_normal(5 + d)
        want = y + 0.9 * np.linalg.solve(m.T, h @ (z - y))
        got = back_substitute(bs, y, z, 0.9)
        assert np.linalg.norm(got - want) <= 1e-7 * np.linalg.norm(want)
        w = rng.standard_normal(5 + d)
        ue = np.linalg.solve(h, w)
        assert np.linalg.norm(bs.solve_H(w) - ue) <= 1e-7 * np.linalg.norm(ue)


def test_direct_solver_inverts_a_dense_sum_to_the_back_sub_bound():
    # K = H + rho I with condition number 1e8 is solved through its cached
    # inverse as closely as the ill-conditioned back substitution above
    rng = np.random.default_rng(12)
    n, rho = 40, 1e-9
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    h = q @ np.diag(np.logspace(0.0, -8.0, n) - rho) @ q.T
    h = 0.5 * (h + h.T)
    k = h + rho * np.eye(n)
    assert np.linalg.cond(k) > 0.9e8
    solve = linops.direct_solver(DenseOp(h), IdentityOp(n), rho)
    for _ in range(3):
        rhs = rng.standard_normal(n)
        want = np.linalg.solve(k, rhs)
        assert np.linalg.norm(solve(rhs) - want) <= 1e-7 * np.linalg.norm(want)


def test_direct_solver_rejects_a_sum_that_is_not_positive_definite():
    rng = np.random.default_rng(13)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    h = q @ np.diag([-3.0, 1.0, 1.0, 2.0, 2.0, 4.0]) @ q.T
    with pytest.raises(np.linalg.LinAlgError):
        linops.direct_solver(DenseOp(0.5 * (h + h.T)), IdentityOp(6), 1.0)


def test_back_sub_rejects_rank_deficient_blocks():
    rng = np.random.default_rng(9)
    good = DenseOp(rng.standard_normal((8, 3)))
    a = rng.standard_normal((8, 4))
    a[:, 3] = a[:, 0] + a[:, 1]  # dependent column
    bad = DenseOp(a)
    with pytest.raises(RankDeficient) as info:
        assemble_back_sub([good, bad])
    assert info.value.block == 3  # 1-based among all blocks; first is block 2
    with pytest.raises(RankDeficient) as info:
        assemble_back_sub([good, ZeroOp(8, 2)])
    assert info.value.block == 3


def test_back_substitute_dimension_check():
    bs = assemble_back_sub([IdentityOp(4)])
    with pytest.raises(DimensionMismatch):
        back_substitute(bs, np.zeros(3), np.zeros(4), 0.5)


def test_a_dense_gram_copies_after_its_symv_products():
    # symv is bound at module level, not on the Gram, so a problem that has
    # solved still pickles and deep-copies, and its copies read the triangle
    rng = np.random.default_rng(3)
    g = DenseOp(rng.standard_normal((9, 5))).self_gram()
    v = rng.standard_normal(5)
    want = g.apply(v)
    for c in (copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert c._symmetric and np.array_equal(c.apply(v), want)
