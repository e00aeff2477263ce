"""Sparse symmetric storage, banded Cholesky factorization, and a dense
generalized symmetric eigensolver that tolerates a singular right-hand
matrix: one shifted solve gives the leading pairs and the kernel, which it
returns as infinite eigenvalues at the head of one descending spectrum.

Everything downstream (assembly, local solves, coarse solves, eigenproblem
reductions) goes through this module. The matrices `factorize` sees are box
matrices: the free dofs of a rectangle of grid nodes in the global row-major
numbering, so each row couples only to rows at most about one box width away.
A box matrix cut from a larger one (the global matrix or a domain's local
energy) is cut by `submatrix`: its rows are gathered by indptr arithmetic and
its columns picked through a position map, with the arrays scipy's fancy
indexing would give. The dof sets it is cut on are strictly increasing by
construction, and its principal cuts of a symmetric matrix are symmetric,
so neither is checked: `SparseSym` only carries the csr matrix `factorize`
takes.
They are factored in that numbering, without reordering, by LAPACK's banded
Cholesky (`dpbtrf`), which stores one triangle of the band; `factor_band`
factors a matrix that comes in that storage already, the coarse Galerkin
matrix of `spectral`. A vector is solved by LAPACK's banded substitution
(`dpbtrs`); a block of columns by a blocked substitution over the same band
whose steps are level-3 BLAS (`dtrsm`, `dgemm`), so it agrees with its
column solves to rounding but not bit for bit. The global matrix is not
factored here: its direct reference solve,
`grid.AssembledSystem.solve_direct`, uses a sparse LU.

`dpbtrs` is bound once, through `ctypes`, to the function pointer that
scipy's `scipy.linalg.cython_lapack` exports in a capsule: the same routine
of the same LAPACK that `scipy.linalg.lapack.dpbtrs` calls, so the results
agree bit for bit. Unlike that f2py wrapper, which holds the GIL, a `ctypes`
call releases it, so threads solving different vectors or different runs of
one vector (`solve_spans`) run on different cores at once.

Importing this module sets the OpenBLAS libraries bundled with the numpy and
scipy wheels to one thread for the whole process, once and before any
process is forked: every stage runs its BLAS on one thread in every process
(`_bundled_openblas`).
"""

import ctypes
import glob
import os

import numpy as np
import scipy
import scipy.linalg
import scipy.linalg.cython_lapack
import scipy.sparse as sparse

from .errors import DimensionMismatch, NonConvergence, NotPositiveDefinite, NotSymmetric


# The global thread-count setters of the bundled OpenBLAS builds: numpy's
# 64-bit-integer copy, scipy's copy, and the unprefixed name of older wheels.
_THREAD_SETTERS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                   "openblas_set_num_threads")


def _bundled_openblas():
    """The OpenBLAS libraries bundled with the numpy and scipy wheels, each
    with its global thread-count setter, as (library, setter) pairs."""
    found = []
    for pkg in (np, scipy):
        for path in sorted(glob.glob(os.path.dirname(pkg.__file__) + ".libs/*openblas*.so*")):
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            name = next((n for n in _THREAD_SETTERS if hasattr(lib, n)), None)
            if name is not None:
                found.append((lib, getattr(lib, name)))
    return found


def _capsule_function(name, *argtypes):
    """The LAPACK routine `name` of scipy's Cython LAPACK as a ctypes
    function with these argument types and no result; a call releases the
    GIL."""
    capsule = ctypes.py_object(scipy.linalg.cython_lapack.__pyx_capi__[name])
    get_name = ctypes.pythonapi.PyCapsule_GetName
    get_name.restype, get_name.argtypes = ctypes.c_char_p, [ctypes.py_object]
    get_pointer = ctypes.pythonapi.PyCapsule_GetPointer
    get_pointer.restype = ctypes.c_void_p
    get_pointer.argtypes = [ctypes.py_object, ctypes.c_char_p]
    return ctypes.CFUNCTYPE(None, *argtypes)(get_pointer(capsule, get_name(capsule)))


_INT = ctypes.POINTER(ctypes.c_int)
_ONE = ctypes.c_int(1)
# dpbtrs(uplo, n, kd, nrhs, ab, ldab, b, ldb, info)
_dpbtrs = _capsule_function("dpbtrs", ctypes.c_char_p, _INT, _INT, _INT, ctypes.c_void_p, _INT,
                            ctypes.c_void_p, _INT, _INT)


# One BLAS thread per process, set once for the process here, before any
# fork. The local kernels (a banded solve on w x w blocks, dense pencils of a
# few hundred rows) and the Krylov loop's single-vector solves are too small
# to gain from a second thread. A per-thread cap
# (`openblas_set_num_threads_local`) would cost more: a fork shuts OpenBLAS's
# helper threads down, and the next call of that setter starts one helper per
# library again, which busy-waits on the cores the processes need. After the
# global setting no call and no fork starts a helper.
_OPENBLAS = _bundled_openblas()
for _lib, _set_threads in _OPENBLAS:
    _set_threads(1)


class SparseSym:
    """A sparse symmetric matrix in csr storage, both triangles stored: the
    operand of `factorize`. Symmetry is the caller's: the matrices come from
    the assembly and the principal cuts `submatrix` takes of it."""

    def __init__(self, mat):
        self.mat = sparse.csr_matrix(mat)


class SparseFactor:
    """Banded Cholesky factor, reusable for many solves.

    `band` is the (w+1) x n LAPACK lower band storage of L (A = L L^T, w the
    lower bandwidth): band[i - j, j] = L[i, j] for 0 <= i - j <= w. The
    entries below the matrix (i >= n), which LAPACK does not reference, are
    zero.
    """

    def __init__(self, band):
        self.band = np.asfortranarray(band, dtype=float)
        self.n = band.shape[1]
        w = band.shape[0] - 1
        # dpbtrs's n, kd, ab and ldab for this band (`solve_spans`)
        self.lapack_args = (ctypes.c_int(self.n), ctypes.c_int(w), self.band.ctypes.data,
                            ctypes.c_int(w + 1))

    def __reduce__(self):
        # a copy or an unpickled factor takes the address of its own band
        return SparseFactor, (self.band,)

    def solve(self, rhs):
        """A^{-1} rhs for a vector or a block of columns, in a new array.

        A vector goes through LAPACK's `dpbtrs` (`solve_spans`). A block is
        solved by the blocked substitution of `_block_solve` and returned in
        C order; it agrees with its column solves to rounding, not bit for
        bit."""
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape[0] != self.n:
            raise DimensionMismatch(f"rhs has leading dimension {rhs.shape[0]}, expected {self.n}")
        if rhs.ndim == 1:
            x = np.array(rhs)
            solve_spans([(self, 0)], x)
            return x
        return self._block_solve(rhs)

    def _block_solve(self, rhs):
        """L L^T X = rhs through block rows of b = w rows of L.

        With w the lower bandwidth, L is block bidiagonal in those rows:
        lower-triangular diagonal blocks D_k and upper-triangular
        sub-diagonal blocks O_k. The forward step is
        Y_k = D_k^{-1} (B_k - O_k Y_{k-1}), the backward step
        X_k = D_k^{-T} (Y_k - O_{k+1}^T X_{k+1}). X is kept in C order, so a
        block row X_k is contiguous and its transpose goes to `dtrsm` and
        `dgemm` as an F-ordered matrix without a copy; the steps are written
        transposed, X_k^T <- (X_k^T - X_{k-1}^T O_k^T) D_k^{-T}.
        """
        band = self.band
        w, n = band.shape[0] - 1, self.n
        if w == 0 or rhs.shape[1] == 0:  # a diagonal L, or nothing to solve
            return np.ascontiguousarray(rhs) / (band[0] ** 2)[:, None]
        b = w
        nb = -(-n // b)
        X = np.empty((nb * b, rhs.shape[1]))  # written in full: no zero-fill
        X[:n] = rhs
        X[n:] = 0.0
        # the band padded to whole blocks with the identity, column-major.
        # The padded rows stay decoupled because the band entries below the
        # matrix are zero.
        # L[kb + r, kb + c] sits at flat[kb (w+1) + c w + r], so with b = w
        # the k-th b x b slice read with strides (w, 1) is D_k^T, and the one
        # b further on is O_{k+1}^T. Both views read only inside `flat`; the
        # triangle dtrsm does not read holds other band entries, and the one
        # dgemm would read is zeroed by the tril copy of the O blocks.
        padded = np.empty((w + 1, nb * b), order="F")
        padded[:, :n] = band
        padded[:, n:] = 0.0
        padded[0, n:] = 1.0
        flat = padded.ravel(order="F")
        step = flat.strides[0]
        shape, strides = (nb, b, b), (b * (w + 1) * step, w * step, step)
        Dt = np.lib.stride_tricks.as_strided(flat, shape, strides, writeable=False)
        Ot = np.tril(np.lib.stride_tricks.as_strided(flat[b:], shape, strides, writeable=False))
        dgemm, dtrsm = scipy.linalg.blas.dgemm, scipy.linalg.blas.dtrsm
        for k in range(nb):
            xk = X[k * b:(k + 1) * b].T
            if k:
                dgemm(-1.0, X[(k - 1) * b:k * b].T, Ot[k - 1].T, 1.0, xk, trans_b=1,
                      overwrite_c=1)
            dtrsm(1.0, Dt[k].T, xk, side=1, lower=1, trans_a=1, overwrite_b=1)
        for k in range(nb - 1, -1, -1):
            xk = X[k * b:(k + 1) * b].T
            if k < nb - 1:
                dgemm(-1.0, X[(k + 1) * b:(k + 2) * b].T, Ot[k].T, 1.0, xk, overwrite_c=1)
            dtrsm(1.0, Dt[k].T, xk, side=1, lower=1, overwrite_b=1)
        return X[:n]


def solve_spans(spans, x):
    """Overwrite x[start:start + factor.n] by factor's solve of it for each
    (factor, start) of `spans`, the runs of the C-contiguous float vector x
    that the spans name: one LAPACK `dpbtrs` call each, through scipy's
    Cython capsule, with the GIL released for the call. Spans solved at the
    same time must not overlap."""
    if x.dtype != float or x.ndim != 1 or not x.flags.c_contiguous:
        raise ValueError("solve_spans needs a C-contiguous float vector")
    address, info = x.ctypes.data, ctypes.c_int()
    for factor, start in spans:
        if not 0 <= start <= x.size - factor.n:
            raise DimensionMismatch(f"span [{start}, {start + factor.n}) outside {x.size} entries")
        n, kd, ab, ldab = factor.lapack_args
        _dpbtrs(b"L", n, kd, _ONE, ab, ldab, address + 8 * start, n, info)


def factorize(A):
    """Banded Cholesky factor of an SPD SparseSym for repeated solves.

    The band is read from the lower triangle of A in its own numbering (no
    reordering), so the factor holds (w+1) * n doubles for lower bandwidth w
    and suits the banded box matrices of the local problems. A Cholesky that
    breaks down (LAPACK info > 0) or a squared pivot L[j, j]^2 at most
    1e-14 * max|diag| raises NotPositiveDefinite, which almost always
    indicates a constrained dof leaked into the free set.
    """
    mat = A.mat
    if not mat.has_canonical_format:  # a duplicate entry would overwrite, not add
        mat = mat.copy()
        mat.sum_duplicates()
    n = mat.shape[0]
    offset = np.repeat(np.arange(n), np.diff(mat.indptr)) - mat.indices
    lower = offset >= 0
    band = np.zeros((int(offset.max(initial=0)) + 1, n), order="F")
    band[offset[lower], mat.indices[lower]] = mat.data[lower]
    return factor_band(band, 1e-14 * np.abs(band[0]).max(initial=0.0))


def factor_band(band, min_pivot):
    """Banded Cholesky factor of the SPD matrix whose lower band `band` holds
    ((w+1) x n, F-ordered, zero below the matrix), overwritten in place by
    LAPACK's `dpbtrf`. A Cholesky that breaks down (info > 0) or a squared
    pivot L[j, j]^2 at most `min_pivot` raises NotPositiveDefinite."""
    band, info = scipy.linalg.lapack.dpbtrf(band, lower=1, overwrite_ab=1)
    if info > 0:
        raise NotPositiveDefinite(f"leading minor of order {info} is not positive definite")
    pivots = band[0] ** 2
    if np.any(pivots <= min_pivot):
        raise NotPositiveDefinite(
            f"smallest pivot {pivots.min():.3e} vs bound {min_pivot:.3e}"
        )
    return SparseFactor(band)


def submatrix(A, rows, cols=None):
    """A[rows][:, cols] of the csr matrix A for strictly increasing index
    arrays rows and cols (None keeps every column), as a csr matrix with the
    entries scipy's fancy indexing gives, in the same order. The rows are
    gathered by indptr arithmetic. Their entries find their positions in
    cols through one position map, which spans only the columns they
    reach."""
    start = A.indptr[rows]
    count = A.indptr[rows + 1] - start
    indptr = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(count, out=indptr[1:])
    at = np.arange(indptr[-1]) + np.repeat(start - indptr[:-1], count)
    if cols is None:
        return sparse.csr_matrix((A.data[at], A.indices[at], indptr),
                                 shape=(rows.size, A.shape[1]))
    reached = A.indices[at]
    lo, hi = int(reached.min(initial=0)), int(reached.max(initial=-1))
    a, b = np.searchsorted(cols, [lo, hi + 1])
    position = np.full(max(hi - lo + 1, 0), -1, dtype=reached.dtype)
    position[cols[a:b] - lo] = np.arange(a, b)
    local = position[np.subtract(reached, lo, dtype=np.intp)]
    hit = np.flatnonzero(local >= 0)
    return sparse.csr_matrix(
        (A.data[at[hit]], local[hit], np.searchsorted(hit, indptr).astype(reached.dtype)),
        shape=(rows.size, cols.size))


class DensePencilEig:
    """Leading eigenpairs of K x = lambda M x with M possibly singular.

    eigenvalues descend, the kernel_dim kernel modes (M x ~ 0, lambda =
    +inf) first; vectors[:, j] pairs with eigenvalues[j]. Kernel vectors
    have unit Euclidean norm, finite vectors unit M-norm.
    """

    def __init__(self, eigenvalues, vectors, kernel_dim):
        self.eigenvalues = eigenvalues
        self.vectors = vectors
        self.kernel_dim = kernel_dim


def _check_dense_sym(name, M):
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"{name} must be square")
    scale = np.abs(M).max(initial=0.0)
    if scale and np.abs(M - M.T).max() > 1e-10 * scale:
        raise NotSymmetric(f"{name} is not symmetric")
    return 0.5 * (M + M.T)


# A pair of the shifted pencil is kernel when 1 - mu <= _KERNEL_GAP. The
# bound errs towards the kernel: a kernel mode counted as finite reports a
# lambda with no correct digits (1 - mu is rounding there), while a mode with
# lambda >= 1e10 counted as kernel keeps its position and changes only its
# label.
_KERNEL_GAP = 1e-10


def _shifted_pairs(K, M, k):
    """The k leading pairs of K x = mu (K + M) x, mu descending, or all n
    pairs when a solve for k < n of them returns fewer: LAPACK's dsygvx can,
    without an error, when the subset's edge cuts a cluster. A solve that
    fails raises NonConvergence."""
    n = K.shape[0]
    try:
        mu, X = scipy.linalg.eigh(K, K + M, subset_by_index=[n - k, n - 1] if k < n else None)
        if mu.size < k:
            mu, X = scipy.linalg.eigh(K, K + M)
    except scipy.linalg.LinAlgError as exc:
        raise NonConvergence(f"K + M not positive definite or eigensolve failed: {exc}") from exc
    return mu[::-1], X[:, ::-1]


def dense_generalized_sym_eig(K, M, n_pairs=None):
    """Leading eigenpairs of the symmetric PSD pencil K x = lambda M x, with
    M possibly singular (the kernel of M carries infinite eigenvalues).

    Solved through the spectral transform mu = lambda / (1 + lambda): the
    shifted pencil K x = mu (K + M) x has a positive definite right-hand side
    whenever ker(K) and ker(M) intersect trivially, mu lies in [0, 1], and
    ker(M) maps to mu = 1 exactly. Working with the bounded spectrum keeps
    the *relative* accuracy of small eigenvalues uniform even when the top
    eigenvalues are 1e6 times larger (high-contrast coefficients do this),
    which a direct Cholesky reduction of M does not.

    One solve gives both the pairs and the kernel: the kernel is the leading
    pairs with 1 - mu <= 1e-10 (`_KERNEL_GAP`), returned with lambda = +inf.
    The top k = min(n, n_pairs) pairs are computed (n_pairs=None computes
    all n). If all k are kernel and k < n, the kernel may go on past them,
    so all n pairs are computed once and max(n_pairs, kernel_dim) returned:
    the whole kernel always comes back. A solve for the k pairs that
    returns fewer takes the same path (`_shifted_pairs`).

    The result is one descending spectrum, kernel first (`DensePencilEig`).
    Kernel vectors are normalized to unit length: in exact arithmetic they
    span ker(M). Finite vectors are M-orthonormal.
    """
    K = _check_dense_sym("K", K)
    M = _check_dense_sym("M", M)
    if K.shape != M.shape:
        raise DimensionMismatch("K and M differ in size")
    n = K.shape[0]

    k = n if n_pairs is None else min(n, n_pairs)
    mu, X = _shifted_pairs(K, M, k)
    kernel_dim = int(np.count_nonzero(1.0 - mu <= _KERNEL_GAP))
    if kernel_dim == mu.size == k < n:  # the kernel may go on past the k pairs
        mu, X = _shifted_pairs(K, M, n)
        kernel_dim = int(np.count_nonzero(1.0 - mu <= _KERNEL_GAP))
    mu, X = mu[:max(k, kernel_dim)], X[:, :max(k, kernel_dim)]
    mu_f = np.clip(mu[kernel_dim:], 0.0, None)
    lam = np.full(mu.size, np.inf)
    lam[kernel_dim:] = mu_f / (1.0 - mu_f)
    # (K+M)-orthonormal -> M-orthonormal. x^T M x equals 1 - mu in exact
    # arithmetic, but 1 - mu cancels when lambda is large; the computed
    # quadratic form does not.
    norms = np.sqrt(np.maximum(np.einsum("ij,ij->j", X, M @ X), np.finfo(float).tiny))
    norms[:kernel_dim] = np.linalg.norm(X[:, :kernel_dim], axis=0)
    return DensePencilEig(lam, X / norms, kernel_dim)
