"""Linear operators and the structured Gram algebra built on them.

Every coupling block A_i is a ``LinOp``: a matrix-free pair
(apply, apply_adjoint) with explicit ``rows``/``cols``. Dense matrices,
signed identities, vertical stacks, an orthonormal 2-D Haar transform,
forward differences with replicate boundary, and explicit small-kernel
blur cover the structures used by the benchmark problems.

``gram(a, b)`` returns A^T B as an operator of this module: ``ZeroOp``
(possibly rectangular), ``ScaledIdentityOp``, ``Diagonalized`` by a fast
orthonormal transform (the DCT-II for differences and symmetric 3x3
blurs) or the ``DenseOp`` fallback. These four also solve their shifted
systems (``solve_shifted``) and report their spectrum (``eig_bounds``).
Stacks sum their part Grams structurally, so they are never materialized.
``DiagonalOp(eig)``, a ``Diagonalized`` on the identity basis, is how
``inner.BlockWorkspace`` runs a block whose Gram is ``Diagonalized``.
``back_substitute`` applies y + alpha * M^{-T} H (z - y), M_ij = A_i^T A_j,
from the operators A_2..A_m and their self-Grams H_i alone.
"""

import functools

import numpy as np
from scipy import sparse
from scipy.fft import dctn, idctn

from .errors import BadDims, DimensionMismatch, RankDeficient, as_int

__all__ = ['LinOp', 'DenseOp', 'ScaledIdentityOp', 'IdentityOp', 'NegIdentityOp',
           'ZeroOp', 'VStackOp', 'HaarTransform', 'DiffOperator', 'BlurOperator',
           'Diagonalized', 'DiagonalOp', 'gram', 'identity_multiple',
           'assemble_back_sub', 'back_substitute', 'BackSubMatrices',
           'direct_solver']


class LinOp:
    """Base linear operator with shape (rows, cols).

    Subclasses implement ``apply`` (forward) and ``apply_adjoint``. The
    default ``to_dense`` materializes by applying to identity columns,
    which is fine at desk scale. The operators ``gram`` returns also
    implement, for a symmetric G, ``solve_shifted(delta, rho, rhs)``,
    which solves (delta I + rho G) u = rhs, and ``eig_bounds()``, the
    smallest and largest eigenvalues. ``scalar`` is c when the operator
    is stored as c I (a scaled identity or a square zero), else None.
    ``self_gram()`` is A^T A as one of those operators, or None when only
    the dense product gives it; ``diagonalized()`` is the operator as a
    ``Diagonalized``, or None.
    """

    rows = None
    cols = None
    scalar = None

    def self_gram(self):
        return None

    def diagonalized(self):
        return None

    def apply(self, v):
        raise NotImplementedError

    def apply_adjoint(self, w):
        raise NotImplementedError

    def to_dense(self):
        out = np.empty((self.rows, self.cols), order='F')
        e = np.zeros(self.cols)
        for j in range(self.cols):
            e[j] = 1.0
            out[:, j] = self.apply(e)
            e[j] = 0.0
        return out

    def _check_apply(self, v):
        v = np.asarray(v, dtype=float).ravel()
        if v.size != self.cols:
            raise DimensionMismatch(
                f"apply expects length {self.cols}, got {v.size}")
        return v

    def _check_adjoint(self, w):
        w = np.asarray(w, dtype=float).ravel()
        if w.size != self.rows:
            raise DimensionMismatch(
                f"apply_adjoint expects length {self.rows}, got {w.size}")
        return w

    @property
    def shape(self):
        return (self.rows, self.cols)

    @property
    def nbytes(self):
        """Bytes of the operator's array attributes (not cached factors)."""
        return sum(v.nbytes for v in vars(self).values()
                   if isinstance(v, np.ndarray))


def _dsymv(*args):    # BLAS symv: the first call imports it over this name
    global _dsymv
    from scipy.linalg.blas import dsymv as _dsymv
    return _dsymv(*args)


class DenseOp(LinOp):
    """Wrap an explicit matrix. Storage is column-major contiguous.

    Shifted solves use its eigendecomposition, computed on first use. A
    Gram that ``self_gram`` builds is exactly symmetric and is applied
    from its upper triangle by BLAS symv, which reads half the memory.
    """

    _symmetric = False

    def __init__(self, a):
        a = np.asfortranarray(a, dtype=float)
        if a.ndim != 2:
            raise DimensionMismatch("dense operator needs a 2-D array")
        self._a = a
        self.rows, self.cols = a.shape

    @functools.cached_property
    def _eigh(self):
        from scipy.linalg import eigh
        return eigh(self._a)

    def apply(self, v):
        if self._symmetric:
            return _dsymv(1.0, self._a, self._check_apply(v))
        return self._a @ self._check_apply(v)

    def apply_adjoint(self, w):
        return self._a.T @ self._check_adjoint(w)

    def to_dense(self):
        return np.array(self._a)

    def self_gram(self):
        # numpy takes syrk for a.T @ a, so the result is exactly symmetric;
        # its transpose is column-major, which DenseOp keeps without a copy
        g = _from_array((self._a.T @ self._a).T)
        if isinstance(g, DenseOp):
            g._symmetric = True
        return g

    def solve_shifted(self, delta, rho, rhs):
        w, q = self._eigh
        dvals = delta + rho * w
        u = q @ ((q.T @ rhs) / dvals)
        # one refinement pass when the shifted spectrum is spread enough
        # for the factored solve to leave a visible residual
        if dvals[-1] > 1e6 * dvals[0]:
            res = rhs - (delta * u + rho * (self._a @ u))
            u += q @ ((q.T @ res) / dvals)
        return u

    def eig_bounds(self):
        w = self._eigh[0]
        return float(w[0]), float(w[-1])


class ScaledIdentityOp(LinOp):
    """c * I on n coordinates, with c = ``scalar``."""

    def __init__(self, n, scale=1.0):
        self.rows = self.cols = as_int('n', n)
        if self.rows <= 0:
            raise DimensionMismatch("identity needs n >= 1")
        self.scalar = float(scale)

    def apply(self, v):
        return self.scalar * self._check_apply(v)

    def apply_adjoint(self, w):
        return self.scalar * self._check_adjoint(w)

    def to_dense(self):     # ``_add`` materializes c I beside a dense H
        return self.scalar * np.eye(self.rows)

    def self_gram(self):
        return ScaledIdentityOp(self.cols, self.scalar * self.scalar)

    def solve_shifted(self, delta, rho, rhs):
        return rhs / (delta + rho * self.scalar)

    def eig_bounds(self):
        return self.scalar, self.scalar


def IdentityOp(n):
    return ScaledIdentityOp(n, 1.0)


def NegIdentityOp(n):
    return ScaledIdentityOp(n, -1.0)


class ZeroOp(LinOp):
    """Zero map, possibly rectangular."""

    def __init__(self, rows, cols):
        self.rows, self.cols = as_int('rows', rows), as_int('cols', cols)
        if self.rows < 1 or self.cols < 1:
            raise DimensionMismatch("zero map needs rows, cols >= 1")
        self.scalar = 0.0 if self.rows == self.cols else None

    def apply(self, v):
        self._check_apply(v)
        return np.zeros(self.rows)

    def apply_adjoint(self, w):
        self._check_adjoint(w)
        return np.zeros(self.cols)

    def self_gram(self):
        return ZeroOp(self.cols, self.cols)

    def solve_shifted(self, delta, rho, rhs):
        return rhs / delta

    def eig_bounds(self):
        return 0.0, 0.0


class VStackOp(LinOp):
    """Vertical stack [P_1; P_2; ...]; all parts share the column count."""

    def __init__(self, parts):
        parts = tuple(parts)
        if not parts:
            raise DimensionMismatch("vstack needs at least one part")
        cols = parts[0].cols
        for p in parts:
            if p.cols != cols:
                raise DimensionMismatch("vstack parts must share cols")
        self.parts = parts
        self.cols = cols
        self.rows = sum(p.rows for p in parts)

    def apply(self, v):
        v = self._check_apply(v)
        return np.concatenate([p.apply(v) for p in self.parts])

    def apply_adjoint(self, w):
        w = self._check_adjoint(w)
        out = np.zeros(self.cols)
        at = 0
        for p in self.parts:
            out += p.apply_adjoint(w[at:at + p.rows])
            at += p.rows
        return out

    def self_gram(self):
        grams = [p.self_gram() for p in self.parts]
        return None if None in grams else functools.reduce(_add, grams)


def _image_shape(imrows, imcols):
    """(imrows, imcols) checked by ``as_int`` and >= 1, else BadDims."""
    shape = as_int('shape', imrows), as_int('shape', imcols)
    if min(shape) < 1:
        raise BadDims(f"image shape must be >= 1, got {shape}")
    return shape


class HaarTransform(LinOp):
    """Orthonormal multilevel 2-D Haar analysis on flattened images.

    ``apply`` decomposes (the transpose of the synthesis basis), and
    ``apply_adjoint`` reconstructs; the transform is square and
    orthonormal, so adjoint(apply(v)) == v to machine precision. Image
    dims must be divisible by 2**levels.
    """

    def __init__(self, imrows, imcols, levels=2):
        imrows, imcols = _image_shape(imrows, imcols)
        levels = as_int('levels', levels)
        if levels < 1:
            raise BadDims("levels must be >= 1")
        step = 2 ** levels
        if imrows % step or imcols % step:
            raise BadDims(
                f"image dims ({imrows}, {imcols}) not divisible by 2^{levels}")
        self.imrows, self.imcols, self.levels = imrows, imcols, levels
        self.rows = self.cols = imrows * imcols

    @staticmethod
    def _fwd_axis(x, axis):
        # pairwise (sum, diff)/sqrt(2) along one axis, averages first
        x = x.swapaxes(0, axis)
        a, b = x[0::2], x[1::2]
        s = 1.0 / np.sqrt(2.0)
        return np.concatenate([(a + b) * s, (a - b) * s]).swapaxes(0, axis)

    @staticmethod
    def _inv_axis(x, axis):
        x = x.swapaxes(0, axis)
        h = x.shape[0] // 2
        a, d = x[:h], x[h:]
        s = 1.0 / np.sqrt(2.0)
        out = np.empty_like(x)
        out[0::2] = (a + d) * s
        out[1::2] = (a - d) * s
        return out.swapaxes(0, axis)

    def apply(self, v):
        x = self._check_apply(v).reshape(self.imrows, self.imcols).copy()
        r, c = self.imrows, self.imcols
        for _ in range(self.levels):
            x[:r, :c] = self._fwd_axis(self._fwd_axis(x[:r, :c], 0), 1)
            r //= 2
            c //= 2
        return x.ravel()

    def apply_adjoint(self, w):
        x = self._check_adjoint(w).reshape(self.imrows, self.imcols).copy()
        # undo levels from the coarsest scale outward
        scales = [(self.imrows >> s, self.imcols >> s)
                  for s in range(self.levels - 1, -1, -1)]
        for r, c in scales:
            x[:r, :c] = self._inv_axis(self._inv_axis(x[:r, :c], 1), 0)
        return x.ravel()

    def self_gram(self):
        """Orthonormal, so A^T A = I."""
        return ScaledIdentityOp(self.cols, 1.0)


@functools.cache
def _dct_basis(r, c):
    """One (forward, inverse) orthonormal 2-D DCT-II pair per image shape."""
    return (lambda v: dctn(np.asarray(v, dtype=float).reshape(r, c),
                           type=2, norm='ortho').ravel(),
            lambda w: idctn(np.asarray(w, dtype=float).reshape(r, c),
                            type=2, norm='ortho').ravel())


class DiffOperator(LinOp):
    """Forward differences on a 2-D grid with replicate boundary.

    Output stacks the horizontal then vertical differences, so the two
    components of pixel p sit at positions p and p + N. Constant images
    map to zero.
    """

    def __init__(self, imrows, imcols):
        self.imrows, self.imcols = _image_shape(imrows, imcols)
        self.cols = self.imrows * self.imcols
        self.rows = 2 * self.cols

    def apply(self, v):
        u = self._check_apply(v).reshape(self.imrows, self.imcols)
        gx = np.zeros_like(u)
        gy = np.zeros_like(u)
        gx[:, :-1] = u[:, 1:] - u[:, :-1]
        gy[:-1, :] = u[1:, :] - u[:-1, :]
        return np.concatenate([gx.ravel(), gy.ravel()])

    def apply_adjoint(self, w):
        w = self._check_adjoint(w)
        n = self.cols
        gx = w[:n].reshape(self.imrows, self.imcols)
        gy = w[n:].reshape(self.imrows, self.imcols)
        out = np.zeros((self.imrows, self.imcols))
        out[:, :-1] -= gx[:, :-1]
        out[:, 1:] += gx[:, :-1]
        out[:-1, :] -= gy[:-1, :]
        out[1:, :] += gy[:-1, :]
        return out.ravel()

    def self_gram(self):
        """D^T D is the free-boundary grid Laplacian, diagonal in DCT-II.

        Eigenvalues are 4 sin^2(pi i / 2r) + 4 sin^2(pi j / 2c) on the
        (i, j) frequency grid, with the orthonormal 2-D DCT-II as basis
        (Ng, Chan & Tang, SIAM J. Sci. Comput. 21(3), 1999).
        """
        r, c = self.imrows, self.imcols
        lr = 4.0 * np.sin(np.pi * np.arange(r) / (2.0 * r)) ** 2
        lc = 4.0 * np.sin(np.pi * np.arange(c) / (2.0 * c)) ** 2
        return Diagonalized((lr[:, None] + lc[None, :]).ravel(),
                            *_dct_basis(r, c))


class BlurOperator(LinOp):
    """Explicit 2-D correlation with replicate boundary handling.

    Boundary pixels reuse their nearest in-image neighbor (clipped
    indices). The taps are assembled once into a sparse matrix, so apply
    and adjoint are single sparse products and the adjoint is exact by
    construction. No FFT; meant for desk-scale kernels and images.
    """

    def __init__(self, imrows, imcols, kernel):
        imrows, imcols = _image_shape(imrows, imcols)
        kernel = np.asarray(kernel, dtype=float)
        if kernel.ndim != 2 or kernel.shape[0] % 2 == 0 or kernel.shape[1] % 2 == 0:
            raise BadDims("kernel must be 2-D with odd side lengths")
        if not np.isfinite(kernel).all():
            raise BadDims("blur kernel must be finite")
        if not kernel.any():
            raise BadDims("blur kernel is all zero")
        self.imrows, self.imcols = imrows, imcols
        self.kernel = kernel.copy()
        self.rows = self.cols = n = imrows * imcols
        kh, kw = kernel.shape
        hr, hc = kh // 2, kw // 2
        ri = np.arange(imrows)
        ci = np.arange(imcols)
        rows_idx, cols_idx, vals = [], [], []
        for di in range(-hr, hr + 1):
            for dj in range(-hc, hc + 1):
                w = kernel[di + hr, dj + hc]
                if w == 0.0:
                    continue
                ir = np.clip(ri + di, 0, imrows - 1)
                ic = np.clip(ci + dj, 0, imcols - 1)
                src = (ir[:, None] * imcols + ic[None, :]).ravel()
                rows_idx.append(np.arange(n))
                cols_idx.append(src)
                vals.append(np.full(n, w))
        mat = sparse.coo_matrix(
            (np.concatenate(vals),
             (np.concatenate(rows_idx), np.concatenate(cols_idx))),
            shape=(n, n))
        self._mat = mat.tocsr()
        self._mat_t = self._mat.T.tocsr()

    @staticmethod
    def uniform(imrows, imcols, size):
        """Uniform size x size averaging kernel (size odd)."""
        size = as_int('size', size)
        k = np.full((size, size), 1.0 / (size * size))
        return BlurOperator(imrows, imcols, k)

    def apply(self, v):
        return self._mat @ self._check_apply(v)

    def apply_adjoint(self, w):
        return self._mat_t @ self._check_adjoint(w)

    def diagonalized(self):
        """F as Q^T diag(eig_F) Q in the DCT-II basis when the kernel is
        symmetric in both axes with half-width <= 1 (clipping is then
        half-sample reflection), else None; eig_F = fwd(F e_0) / fwd(e_0)."""
        k = self.kernel
        if max(k.shape) > 3 or not (np.array_equal(k, k[::-1])
                                    and np.array_equal(k, k[:, ::-1])):
            return None
        fwd, inv = _dct_basis(self.imrows, self.imcols)
        e0 = np.zeros(self.cols)
        e0[0] = 1.0
        return Diagonalized(fwd(self.apply(e0)) / fwd(e0), fwd, inv)

    def self_gram(self):
        """F^T F = Q^T diag(eig_F^2) Q, or None without ``diagonalized``."""
        d = self.diagonalized()
        return None if d is None else d.self_gram()


class Diagonalized(LinOp):
    """Q^T diag(eig) Q, with ``forward`` applying Q and ``inverse`` Q^T."""

    def __init__(self, eig, forward, inverse):
        self.eig = np.asarray(eig, dtype=float)
        self.forward = forward
        self.inverse = inverse
        self.rows = self.cols = self.eig.size

    def apply(self, v):
        return self.inverse(self.eig * self.forward(v))

    apply_adjoint = apply

    def solve_shifted(self, delta, rho, rhs):
        return self.inverse(self.forward(rhs) / (delta + rho * self.eig))

    def eig_bounds(self):
        return float(self.eig.min()), float(self.eig.max())

    def self_gram(self):
        """Q^T diag(eig^2) Q, on the same basis."""
        return Diagonalized(self.eig ** 2, self.forward, self.inverse)


def DiagonalOp(eig):
    """diag(eig): ``Diagonalized`` on the identity basis (``np.asarray``),
    so every product and shifted solve is elementwise."""
    return Diagonalized(eig, np.asarray, np.asarray)


def _from_array(g):
    """ZeroOp, ScaledIdentityOp when g = c I within 1e-12 (relative), else
    DenseOp."""
    if not np.any(g):
        return ZeroOp(*g.shape)
    if g.shape[0] == g.shape[1]:
        c = g[0, 0]
        tol = 1e-12 * max(abs(c), 1.0)
        # the first row turns a dense Gram away without n x n temporaries
        if np.max(np.abs(g[0, 1:]), initial=0.0) <= tol \
                and np.max(np.abs(g - c * np.eye(len(g)))) <= tol:
            return ScaledIdentityOp(len(g), c)
    return DenseOp(g)


def _add(x, y, c=1.0):
    """Structural sum x + c y of two Gram values of one shape."""
    if isinstance(y, ZeroOp) or isinstance(x, ZeroOp) and c == 1.0:
        return y if isinstance(x, ZeroOp) else x
    sx, sy = x.scalar, y.scalar     # not None for multiples of I
    if sx is not None and sy is not None:
        return ScaledIdentityOp(x.rows, sx + c * sy)
    if isinstance(y, Diagonalized) and sx is not None:
        return Diagonalized(sx + c * y.eig, y.forward, y.inverse)
    if isinstance(x, Diagonalized) and (
            sy is not None or getattr(y, 'forward', None) is x.forward):
        return Diagonalized(x.eig + c * (y.eig if sy is None else sy),
                            x.forward, x.inverse)
    return _from_array(x.to_dense() + c * y.to_dense())


def gram(a, b):
    """The Gram block A^T B of two operators with equal row counts.

    Zero and signed-identity operands, an operator with a ``self_gram``
    paired with itself, and aligned vertical stacks give structured
    values without materializing anything; other pairs fall back to
    the dense product, which is still recognized as zero or c I.
    """
    if a.rows != b.rows:
        raise DimensionMismatch("gram needs equal row counts")
    if isinstance(a, ZeroOp) or isinstance(b, ZeroOp):
        return ZeroOp(a.cols, b.cols)
    if isinstance(a, ScaledIdentityOp) and isinstance(b, ScaledIdentityOp):
        return ScaledIdentityOp(a.cols, a.scalar * b.scalar)
    if (isinstance(a, VStackOp) and isinstance(b, VStackOp)
            and [p.rows for p in a.parts] == [p.rows for p in b.parts]):
        return functools.reduce(_add, map(gram, a.parts, b.parts))
    g = a.self_gram() if a is b else None
    return g if g is not None else _from_array(a.to_dense().T @ b.to_dense())


def _rank_deficient(g):
    """Back-substitution rank test on a Gram value's eigenvalue bounds."""
    lo, hi = g.eig_bounds()
    return hi <= 0.0 or lo <= 1e-10 * hi


def direct_solver(h, g, rho):
    """rhs -> (H + rho G)^{-1} rhs for Gram values H >= 0 and G, or None
    when the sum fails the back-substitution rank test (a dense sum: when
    G does). A dense sum is inverted once (potrf, potri); a solve is one
    symv, its sums split by BLAS thread; any other is solved structurally."""
    k = _add(h, g, rho)
    if _rank_deficient(g if isinstance(k, DenseOp) else k):
        return None
    if isinstance(k, DenseOp):
        from scipy.linalg import blas, lapack
        c, info = lapack.dpotrf(k._a)
        if info == 0:
            c, info = lapack.dpotri(c, overwrite_c=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"not positive definite (info {info})")
        return functools.partial(blas.dsymv, 1.0, c)
    return functools.partial(k.solve_shifted, 0.0, 1.0)


def identity_multiple(g):
    """c when the Gram value g is c I (0.0 for a square zero), else None."""
    return g.scalar


def block_slices(dims):
    """The slice of each block, of lengths dims, in their stacked vector."""
    stops = np.cumsum(dims).tolist()
    return [slice(stop - d, stop) for d, stop in zip(dims, stops)]


class BackSubMatrices:
    """The operators A_2..A_m (``ops``), their self-Grams H_i (``hblocks``)
    and their ``slices`` in the stacked (z - y) vector. M_ij = A_i^T A_j
    (j <= i) is never formed; ``coupled`` is False when no pair of blocks
    couples (``_uncoupled``), so that M = H."""

    def __init__(self, ops, hblocks):
        self.ops, self.hblocks = ops, hblocks
        self.slices = block_slices([a.cols for a in ops])
        self.total = sum(a.cols for a in ops)
        self.coupled = not all(_uncoupled(a, b) for i, a in enumerate(ops)
                               for b in ops[i + 1:])

    def _split(self, v):
        v = np.asarray(v, dtype=float).ravel()
        return [v[sl] for sl in self.slices]

    def _upward(self, parts):
        """Yield (i, A_i^T s_i) from the next-to-last block up, s_i the sum
        of A_j parts[j] over j > i; parts[i] is read after its yield."""
        s = self.ops[-1].apply(parts[-1])
        for i in reversed(range(len(parts) - 1)):
            yield i, self.ops[i].apply_adjoint(s)
            if i:
                s = s + self.ops[i].apply(parts[i])

    def apply_H(self, v):
        return _cat([h.apply(p) for h, p in zip(self.hblocks, self._split(v))])

    def solve_H(self, v):
        return _cat([h.solve_shifted(0.0, 1.0, p)
                     for h, p in zip(self.hblocks, self._split(v))])

    def apply_M_T(self, v):
        # (M^T v)_i = H_i v_i + A_i^T sum_{j > i} A_j v_j
        parts = self._split(v)
        out = [h.apply(p) for h, p in zip(self.hblocks, parts)]
        if self.coupled:
            for i, term in self._upward(parts):
                out[i] = out[i] + term
        return _cat(out)

    def p_quadratic(self, v):
        """v^T (M H^{-1} M^T) v, used by the energy diagnostic."""
        w = self.apply_M_T(v)
        return float(w @ self.solve_H(w))


def _cat(parts):
    return np.concatenate(parts) if parts else np.zeros(0)


def _uncoupled(a, b):
    """A^T B = 0 by structure, without a product: a zero operand, or
    stacks of one part row split whose parts pair off uncoupled."""
    return (isinstance(a, ZeroOp) or isinstance(b, ZeroOp)
            or isinstance(a, VStackOp) and isinstance(b, VStackOp)
            and [p.rows for p in a.parts] == [p.rows for p in b.parts]
            and all(map(_uncoupled, a.parts, b.parts)))


def assemble_back_sub(blocks):
    """BackSubMatrices of the operators A_2..A_m. A block that fails
    ``_rank_deficient`` raises RankDeficient with its 1-based number."""
    blocks = list(blocks)
    hblocks = [gram(a, a) for a in blocks]
    for i, h in enumerate(hblocks):
        if _rank_deficient(h):
            raise RankDeficient(i + 2)
    return BackSubMatrices(blocks, hblocks)


def back_substitute(bs, y_plus, z_plus, alpha):
    """Return y + alpha * M^{-T} H (z - y) by blockwise back substitution.

    M^T is block upper triangular with diagonal blocks H_i: from the last
    block up, u_i = w_i - H_i^{-1} A_i^T s_i with w = z - y and s_i the
    row-space sum of A_j u_j over j > i. Uncoupled blocks give u = w.
    """
    y_plus = np.asarray(y_plus, dtype=float).ravel()
    z_plus = np.asarray(z_plus, dtype=float).ravel()
    if y_plus.size != bs.total or z_plus.size != bs.total:
        raise DimensionMismatch("back_substitute: block vector length "
                                f"{bs.total} expected")
    w = z_plus - y_plus
    if bs.coupled:
        u = bs._split(w)
        for i, term in bs._upward(u):
            u[i] = u[i] - bs.hblocks[i].solve_shifted(0.0, 1.0, term)
        w = _cat(u)
    return y_plus + alpha * w
