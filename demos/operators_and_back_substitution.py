"""
Linear operators and the back-substitution correction
=====================================================

Builds the operator toolbox a split problem is made of, looks at the
Gram structure each block exposes, and shows what the back-substitution
step actually solves.
"""

import numpy as np

from bosvs import linops

rng = np.random.default_rng(0)

# A 16x16 image, flattened. The blur operator applies a normalized
# uniform kernel with replicate edges; the Haar transform is an
# orthonormal change of basis; the difference operator stacks horizontal
# and vertical first differences.
n = 16
blur = linops.BlurOperator(n, n, np.full((3, 3), 1.0 / 9.0))
haar = linops.HaarTransform(n, n, 2)
diff = linops.DiffOperator(n, n)

x = rng.standard_normal(n * n)
print('blur:  %4d -> %4d   ||Bx|| / ||x|| = %.3f'
      % (blur.cols, blur.rows, np.linalg.norm(blur.apply(x)) / np.linalg.norm(x)))
print('haar:  %4d -> %4d   ||Wx|| / ||x|| = %.6f  (orthonormal)'
      % (haar.cols, haar.rows, np.linalg.norm(haar.apply(x)) / np.linalg.norm(x)))
print('diff:  %4d -> %4d   rows stack [horizontal; vertical] differences'
      % (diff.cols, diff.rows))

# Adjoints are exact: <Ax, y> == <x, A^T y> to roundoff.
y = rng.standard_normal(diff.rows)
lhs = diff.apply(x) @ y
rhs = x @ diff.apply_adjoint(y)
print('adjoint identity on diff: |<Ax,y> - <x,A^Ty>| = %.2e' % abs(lhs - rhs))

# The multi-block correction step. After the per-block sweep produces
# z, the trailing blocks' expansion points move by a correction u that
# solves M^T u = H (z - y). M^T is block upper triangular, with blocks
# A_i^T A_j (j >= i) and diagonal blocks H_i = A_i^T A_i, the blocks of
# H. Back substitution needs only the operators and the H_i: from the
# last block up, u_i = w_i - H_i^{-1} A_i^T (sum_{j>i} A_j u_j). When the
# trailing blocks have orthonormal columns and touch disjoint constraint
# rows, as in the deblurring benchmark, M and H collapse to the identity
# and the correction is just z - y.
ortho = [linops.VStackOp([linops.IdentityOp(20), linops.ZeroOp(20, 20)]),
         linops.VStackOp([linops.ZeroOp(20, 20), linops.NegIdentityOp(20)])]
bs = linops.assemble_back_sub(ortho)
v = rng.standard_normal(40)
print('orthonormal trailing blocks: ||H v - v|| = %.2e, ||M^T v - v|| = %.2e'
      % (np.linalg.norm(bs.apply_H(v) - v), np.linalg.norm(bs.apply_M_T(v) - v)))

# With generic full-rank blocks every pair couples and the system is
# genuinely triangular.
blocks = [linops.DenseOp(rng.standard_normal((12, d)) + 3.0 * np.eye(12, d))
          for d in (5, 4, 6)]
bs = linops.assemble_back_sub(blocks)
z_minus_y = rng.standard_normal(15)
y_plus = rng.standard_normal(15)
alpha = 0.9
y_new = linops.back_substitute(bs, y_plus, y_plus + z_minus_y, alpha)
u = (y_new - y_plus) / alpha
resid = np.linalg.norm(bs.apply_M_T(u) - bs.apply_H(z_minus_y))
print('dense trailing blocks:       ||M^T u - H(z - y)|| = %.2e' % resid)
