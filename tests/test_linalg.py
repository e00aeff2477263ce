import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sparse
from scipy.sparse.linalg import splu

from msras import linalg
from msras.decomp import build_decomposition
from msras.errors import DimensionMismatch, NotPositiveDefinite, NotSymmetric
from msras.grid import (
    CartesianGrid,
    CoefficientField,
    assemble_partial_stiffness,
    skyscraper_coefficient,
)
from msras.linalg import (
    SparseSym,
    dense_generalized_sym_eig,
    factorize,
    submatrix,
)
from msras.spectral import local_stiffness
from tests.conftest import make_system, openblas_threads
from tests.oracles import assert_symmetric, refined_sparse_solve


def random_spd(n, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    A = A + A.T + 3.0 * n * np.eye(n)  # diagonally dominant
    return SparseSym(A)


def banded_spd(n, w, seed):
    """Random diagonally dominant SPD matrix of lower bandwidth exactly w."""
    rng = np.random.default_rng(seed)
    A = np.zeros((n, n))
    for d in range(1, w + 1):
        A += np.diag(rng.standard_normal(n - d), -d)
    A += A.T + np.diag(2.0 * w + 1.0 + rng.random(n))
    return SparseSym(A)


def principal(A, idx):
    """A[idx, idx] of a SparseSym for a strictly increasing idx, cut as the
    set-up cuts the blocks it factors."""
    idx = np.asarray(idx, dtype=np.int64)
    return SparseSym(submatrix(A.mat, idx, idx))


def assert_block_agrees(f, B):
    """A block solve, from C- and F-ordered input, agrees with its column
    solves to 1e-14 relative and leaves the caller's block as it was."""
    cols = np.column_stack([f.solve(B[:, j]) for j in range(B.shape[1])])
    for block in (np.ascontiguousarray(B), np.asfortranarray(B)):
        before = block.copy()
        X = f.solve(block)
        assert np.array_equal(block, before)
        assert X.shape == B.shape
        assert np.linalg.norm(X - cols) <= 1e-14 * np.linalg.norm(cols)


class TestBlockSolve:
    @pytest.mark.parametrize("n, w", [(40, 8), (23, 5), (6, 5), (1, 0), (9, 0), (2, 1)],
                             ids=["whole-blocks", "n-not-multiple-of-w", "dense-band",
                                  "scalar", "diagonal", "two-by-two"])
    def test_agrees_with_column_solves(self, n, w):
        A = banded_spd(n, w, seed=n + w)
        f = factorize(A)
        assert f.band.shape == (w + 1, n)
        B = np.random.default_rng(n).standard_normal((n, 7))
        assert_block_agrees(f, B)
        assert np.linalg.norm(A.mat @ f.solve(B) - B) <= 1e-13 * np.linalg.norm(B)

    def test_one_column_block(self):
        f = factorize(banded_spd(23, 5, seed=1))
        assert_block_agrees(f, np.random.default_rng(2).standard_normal((23, 1)))

    def test_empty_block(self):
        f = factorize(banded_spd(23, 5, seed=1))
        assert f.solve(np.zeros((23, 0))).shape == (23, 0)


class TestSparseSym:
    def test_accepts_tiny_asymmetry(self):
        # the carrier keeps the matrix as given; the tests' symmetry
        # assertion passes rounding-level asymmetry and fails a real one
        A = np.array([[1.0, 0.5], [0.5 * (1 + 1e-14), 1.0]])
        assert np.array_equal(SparseSym(A).mat.toarray(), A)
        assert_symmetric(SparseSym(A).mat)
        with pytest.raises(AssertionError):
            assert_symmetric(sparse.csr_matrix([[1.0, 2.0], [0.0, 1.0]]))


class TestFactorize:
    def test_diagonal(self):
        A = SparseSym(np.diag([2.0, 3.0]))
        f = factorize(A)
        assert np.allclose(f.solve(np.array([2.0, 3.0])), [1.0, 1.0])

    def test_scalar_interior_node(self):
        # 1x1 system of the interior node of a 2x2-element unit-coefficient grid
        A = SparseSym(np.array([[8.0 / 3.0]]))
        f = factorize(A)
        assert f.solve(np.array([8.0 / 3.0]))[0] == pytest.approx(1.0, abs=1e-14)
        assert f.solve(np.array([1.0]))[0] == pytest.approx(0.375, abs=1e-15)

    def test_identity(self):
        f = factorize(SparseSym(np.eye(4)))
        b = np.array([1.0, -2.0, 3.0, 4.0])
        assert np.array_equal(f.solve(b), b)

    def test_residual_roundtrip_random_spd(self):
        A = random_spd(50, seed=1)
        f = factorize(A)
        rng = np.random.default_rng(2)
        for _ in range(5):
            b = rng.standard_normal(50)
            x = f.solve(b)
            assert np.linalg.norm(A.mat @ x - b) <= 1e-10 * np.linalg.norm(b)

    def test_solve_deterministic(self):
        A = random_spd(30, seed=3)
        f = factorize(A)
        b = np.arange(30, dtype=float)
        assert np.array_equal(f.solve(b), f.solve(b))

    def test_zero_pivot_raises(self):
        A = SparseSym(np.diag([1.0, 0.0, 2.0]))
        with pytest.raises(NotPositiveDefinite):
            factorize(A)

    def test_negative_pivot_raises(self):
        A = SparseSym(np.diag([1.0, -2.0]))
        with pytest.raises(NotPositiveDefinite):
            factorize(A)

    @pytest.mark.parametrize("contrast", [1.0, 1e6])
    def test_singular_neumann_box_raises(self, contrast):
        # the pure-Neumann stiffness of a whole 12x9 grid holds the constants
        # in its kernel; LAPACK either stops on a non-positive leading minor
        # or finishes with a pivot below 1e-14 * max|diag|, and both raise
        grid = CartesianGrid(12, 9)
        coeff = (CoefficientField.constant(grid, 1.0) if contrast == 1.0
                 else skyscraper_coefficient(grid, contrast, (8, 8), 0.3, 7))
        n = 13 * 10
        A = SparseSym(assemble_partial_stiffness(grid, coeff, (0, 12, 0, 9), np.arange(n), n))
        assert_symmetric(A.mat)
        with pytest.raises(NotPositiveDefinite):
            factorize(A)

    def test_rhs_length_checked(self):
        f = factorize(random_spd(5, seed=4))
        with pytest.raises(DimensionMismatch):
            f.solve(np.ones(6))

    def test_matrix_rhs(self):
        A = random_spd(12, seed=5)
        f = factorize(A)
        B = np.random.default_rng(6).standard_normal((12, 3))
        X = f.solve(B)
        assert np.linalg.norm(A.mat @ X - B) <= 1e-10 * np.linalg.norm(B)


@pytest.fixture(scope="module")
def desk64():
    """The desk instance: 64^2, 4x4 subdomains, contrast 1e6."""
    system = make_system(64, contrast=1e6)
    return system, build_decomposition(system, 4, 4, 2, 4)


class TestBandedBoxFactors:
    def test_interior_solves_agree_with_refined_superlu(self, desk64):
        # The right-hand sides of the harmonic reduction, A_ee^{-1} A_ek.
        # Blocks with a floating high-contrast inclusion have cond ~1e8, and
        # any float64 direct solve of them is off by ~1e-10 forward (SuperLU
        # under two orderings differs by as much); there the banded solve
        # must be no further from the refined reference than SuperLU is.
        system, decomp = desk64
        for sub in decomp.subdomains:
            A = principal(system.A_free, sub.dofs0_star)
            i1 = sub.star_positions(sub.dofs0_star)
            i2 = sub.star_positions(sub.boundary_star)
            B = local_stiffness(system, sub.box_star, sub.dofs_star)[i1][:, i2].toarray(order="F")
            X = factorize(A).solve(B)
            ref = refined_sparse_solve(A.mat, B)
            err = np.linalg.norm(X - ref) / np.linalg.norm(ref)
            err_lu = np.linalg.norm(splu(A.mat.tocsc()).solve(B) - ref) / np.linalg.norm(ref)
            assert err <= max(1e-12, 2.0 * err_lu), (sub.id, err, err_lu)
            backward = np.linalg.norm(A.mat @ X - B) / (
                np.linalg.norm(A.mat.data) * np.linalg.norm(X) + np.linalg.norm(B))
            assert backward <= 1e-14, (sub.id, backward)

    def test_block_solve_agrees_with_column_solves(self, desk64):
        # a block runs the blocked substitution, a vector dpbtrs: the same
        # factor, rounded in a different order
        system, decomp = desk64
        sub = decomp.subdomains[5]
        f = factorize(principal(system.A_free, sub.dofs0_star))
        B = np.random.default_rng(16).standard_normal((f.n, 9))
        assert_block_agrees(f, B)

    @pytest.mark.parametrize("dofs", ["dofs0_star", "dofs0"])
    def test_factor_is_one_band(self, desk64, dofs):
        # interior and AS2_geneo blocks alike: one (w+1) x n float64 array,
        # w the block's lower bandwidth, at most one past the box width
        system, decomp = desk64
        for sub in decomp.subdomains:
            A = principal(system.A_free, getattr(sub, dofs))
            entries = A.mat.tocoo()
            w = int((entries.row - entries.col).max())
            f = factorize(A)
            arrays = [v for v in vars(f).values() if isinstance(v, np.ndarray)]
            assert len(arrays) == 1 and arrays[0] is f.band
            assert f.band.dtype == np.float64 and f.band.shape == (w + 1, A.mat.shape[0])
            x0, x1, _, _ = sub.box_star if dofs == "dofs0_star" else sub.box
            assert w <= (x1 - x0 + 1) + 1


class TestExtractSubmatrix:
    """The principal cuts A[idx, idx] the factorizations take, through
    `submatrix`."""

    def test_all_indices_identity(self):
        A = random_spd(8, seed=7)
        sub = principal(A, np.arange(8))
        assert (sub.mat != A.mat).nnz == 0

    def test_single_index(self):
        A = random_spd(6, seed=8)
        sub = principal(A, [3])
        assert sub.mat.toarray()[0, 0] == A.mat.toarray()[3, 3]

    def test_tridiagonal_slice(self):
        # dense-slicing oracle: picking {1, 3} of a tridiagonal matrix
        # decouples the two diagonal entries
        d = np.array([2.0, 3.0, 4.0, 5.0, 6.0])
        A = SparseSym(np.diag(d) + np.diag(-np.ones(4), 1) + np.diag(-np.ones(4), -1))
        sub = principal(A, [1, 3]).mat.toarray()
        assert np.array_equal(sub, np.diag([3.0, 5.0]))

    def test_preserves_symmetry_exactly(self):
        A = random_spd(20, seed=9)
        sub = principal(A, [0, 4, 7, 13, 19]).mat
        assert (sub - sub.T).nnz == 0

    def test_matches_scipy_fancy_indexing(self):
        # random strictly increasing index sets, one-element sets among them,
        # on symmetric matrices with empty rows: the same csr arrays as
        # scipy's A[rows][:, cols]
        def same(mine, ref):
            return mine.shape == ref.shape and all(
                a.dtype == b.dtype and np.array_equal(a, b)
                for a, b in ((mine.indptr, ref.indptr), (mine.indices, ref.indices),
                             (mine.data, ref.data)))

        rng = np.random.default_rng(11)
        with_empty_rows = 0
        for trial in range(200):
            n = int(rng.integers(1, 40))
            A = sparse.random(n, n, density=rng.uniform(0.0, 0.3), random_state=trial,
                              format="csr")
            A = (A + A.T).tocsr()
            with_empty_rows += np.diff(A.indptr).min() == 0
            rows, cols = [np.flatnonzero(rng.random(n) < rng.uniform(0.2, 1.0)) for _ in "rc"]
            rows, cols = [p[:1] if rng.random() < 0.2 else p for p in (rows, cols)]
            assert same(submatrix(A, rows, cols), A[rows][:, cols])
            assert same(submatrix(A, rows), A[rows])
            assert same(principal(SparseSym(A), rows).mat, A[rows][:, rows])
        assert with_empty_rows > 20


def eig_residual_ok(K, M, pencil):
    nk = np.linalg.norm(K, 2)
    nm = np.linalg.norm(M, 2)
    for j in range(pencil.kernel_dim, pencil.eigenvalues.size):
        lam = pencil.eigenvalues[j]
        x = pencil.vectors[:, j]
        r = np.linalg.norm(K @ x - lam * M @ x)
        if r > 1e-8 * (nk + abs(lam) * nm) * np.linalg.norm(x):
            return False
    return True


class TestDensePencilEig:
    def test_identity_pencil(self):
        pe = dense_generalized_sym_eig(np.eye(2), np.eye(2))
        assert np.allclose(pe.eigenvalues, [1.0, 1.0])
        assert pe.kernel_dim == 0

    def test_diagonal_pencil(self):
        pe = dense_generalized_sym_eig(np.diag([4.0, 1.0]), np.diag([2.0, 1.0]))
        assert np.allclose(pe.eigenvalues, [2.0, 1.0])

    def test_rank_deficient_m(self):
        rng = np.random.default_rng(11)
        Q = rng.standard_normal((20, 15))
        M = Q @ Q.T
        B = rng.standard_normal((20, 20))
        K = B @ B.T
        pe = dense_generalized_sym_eig(K, M)
        assert pe.eigenvalues[pe.kernel_dim:].size == 15
        assert pe.kernel_dim == 5
        assert eig_residual_ok(K, M, pe)
        # kernel vectors really annihilate M
        assert np.linalg.norm(M @ pe.vectors[:, :5]) <= 1e-8 * np.linalg.norm(M, 2)

    def test_residual_invariant_spd(self):
        rng = np.random.default_rng(12)
        B = rng.standard_normal((25, 25))
        K = B @ B.T
        C = rng.standard_normal((25, 25))
        M = C @ C.T + np.eye(25)
        pe = dense_generalized_sym_eig(K, M)
        assert eig_residual_ok(K, M, pe)

    def test_eigenvalues_nonincreasing(self):
        rng = np.random.default_rng(13)
        B = rng.standard_normal((15, 15))
        K = B @ B.T
        pe = dense_generalized_sym_eig(K, np.eye(15))
        assert np.all(np.diff(pe.eigenvalues) <= 0)

    def test_m_orthonormal_vectors(self):
        rng = np.random.default_rng(14)
        B = rng.standard_normal((10, 10))
        K = B @ B.T
        C = rng.standard_normal((10, 10))
        M = C @ C.T + np.eye(10)
        pe = dense_generalized_sym_eig(K, M)
        G = pe.vectors.T @ M @ pe.vectors
        assert np.allclose(G, np.eye(10), atol=1e-8)

    def test_m_normalized_across_wide_spectrum(self):
        # eigenvalues from 1e-3 to 1e6: every vector has unit M-norm to
        # rounding, also where 1 - mu = 1 / (1 + lambda) cancels
        rng = np.random.default_rng(15)
        n = 120
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        M = (Q * rng.uniform(1.0, 2.0, n)) @ Q.T
        W, _ = np.linalg.qr(rng.standard_normal((n, n)))
        L = np.linalg.cholesky(0.5 * (M + M.T))
        K = L @ (W * np.logspace(-3, 6, n)) @ W.T @ L.T
        pe = dense_generalized_sym_eig(0.5 * (K + K.T), M)
        assert pe.kernel_dim == 0 and pe.eigenvalues.size == n
        V = pe.vectors
        assert np.abs(np.einsum("ij,ij->j", V, M @ V) - 1.0).max() <= 1e-13

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetric):
            dense_generalized_sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]), np.eye(2))

    def test_zero_lhs(self):
        pe = dense_generalized_sym_eig(np.zeros((4, 4)), np.eye(4))
        assert np.allclose(pe.eigenvalues, 0.0)


def planted_pencil(n, kernel_dim, seed):
    """PSD pencil K x = lambda M x with a planted kernel of M of dimension
    kernel_dim and finite eigenvalues log-spaced in [1e-3, 1e2]: K and M are
    congruent, through one random well-conditioned Z, to diagonal matrices."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    Zinv = (Q * rng.uniform(1.0, 2.0, n)).T
    m = np.r_[np.zeros(kernel_dim), np.ones(n - kernel_dim)]
    k = np.r_[np.ones(kernel_dim), np.logspace(-3, 2, n - kernel_dim)]
    K = Zinv.T @ (k[:, None] * Zinv)
    M = Zinv.T @ (m[:, None] * Zinv)
    return 0.5 * (K + K.T), 0.5 * (M + M.T)


class TestPartialPencil:
    @pytest.mark.parametrize("kernel_dim", [0, 1, 3])
    def test_leading_pairs_of_full_solve(self, kernel_dim):
        n = 40
        K, M = planted_pencil(n, kernel_dim, seed=20 + kernel_dim)
        full = dense_generalized_sym_eig(K, M)
        assert full.kernel_dim == kernel_dim and full.eigenvalues.size == n
        assert np.all(np.isinf(full.eigenvalues[:kernel_dim]))
        assert np.all(np.isfinite(full.eigenvalues[kernel_dim:]))
        for n_pairs in (kernel_dim + 1, kernel_dim + 4, 11, n - 1):
            part = dense_generalized_sym_eig(K, M, n_pairs=n_pairs)
            assert part.kernel_dim == kernel_dim and part.eigenvalues.size == n_pairs
            assert np.all(np.isinf(part.eigenvalues[:kernel_dim]))
            lam = full.eigenvalues[kernel_dim:n_pairs]
            assert np.all(np.abs(part.eigenvalues[kernel_dim:] - lam) <= 1e-12 * lam)
            assert part.vectors.shape == (n, n_pairs)
            V, W = part.vectors[:, kernel_dim:], full.vectors[:, kernel_dim:n_pairs]
            sign = np.sign(np.einsum("ij,ij->j", V, W))
            assert np.abs(V - sign * W).max() <= 1e-8 * np.abs(W).max()
            Vk = part.vectors[:, :kernel_dim]
            assert np.linalg.norm(M @ Vk) <= 1e-8 * np.linalg.norm(M, 2)

    def test_n_pairs_beyond_n_clamps(self):
        K, M = planted_pencil(12, 1, seed=30)
        full = dense_generalized_sym_eig(K, M)
        part = dense_generalized_sym_eig(K, M, n_pairs=50)
        assert part.eigenvalues.size == 12 and part.kernel_dim == 1
        lam = full.eigenvalues[1:]
        assert np.all(np.abs(part.eigenvalues[1:] - lam) <= 1e-12 * lam)

    def test_n_pairs_below_kernel_dim_returns_whole_kernel(self):
        K, M = planted_pencil(20, 3, seed=31)
        part = dense_generalized_sym_eig(K, M, n_pairs=1)
        assert part.kernel_dim == 3
        assert part.eigenvalues.size == 3 and np.all(np.isinf(part.eigenvalues))
        Qk = part.vectors
        assert Qk.shape == (20, 3)
        assert np.linalg.matrix_rank(Qk) == 3
        assert np.linalg.norm(M @ Qk) <= 1e-8 * np.linalg.norm(M, 2)

    def test_all_kernel_m(self):
        pe = dense_generalized_sym_eig(np.eye(5), np.zeros((5, 5)), n_pairs=2)
        assert pe.kernel_dim == 5 and pe.eigenvalues.size == 5
        assert np.all(np.isinf(pe.eigenvalues))
        assert np.allclose(pe.vectors.T @ pe.vectors, np.eye(5))


class TestKernelRule:
    """The kernel is the leading pairs of the shifted pencil with
    1 - mu <= 1e-10. The pencils are diagonal, so the eigensolver is exact
    and only the transform and the rule are under test."""

    def test_finite_up_to_1e9_stay_finite(self):
        lam = np.logspace(-3, 9, 25)
        pe = dense_generalized_sym_eig(np.diag(np.r_[1.0, 1.0, lam]),
                                       np.diag(np.r_[0.0, 0.0, np.ones(25)]))
        assert pe.kernel_dim == 2 and np.all(np.isinf(pe.eigenvalues[:2]))
        got, want = pe.eigenvalues[2:], lam[::-1]
        # lambda is formed from 1 - mu = 1 / (1 + lambda), which carries an
        # absolute rounding error of about eps: lambda's relative error grows
        # as eps (1 + lambda), so 1e-12 relative holds only up to lambda ~ 1
        assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + want) * want)

    def test_rounding_level_gap_counts_as_kernel(self):
        # M's eigenvalue there is 1e-11 of its largest and K is large:
        # 1 - mu ~ 1e-15 has no correct digits, and lambda ~ 1e15 none either
        lam = np.logspace(-3, 2, 10)
        pe = dense_generalized_sym_eig(np.diag(np.r_[1e4, lam]),
                                       np.diag(np.r_[1e-11, np.ones(10)]))
        assert pe.kernel_dim == 1 and pe.eigenvalues[0] == np.inf
        assert np.all(np.abs(pe.eigenvalues[1:] - lam[::-1]) <= 1e-12 * lam[::-1])
        # the kernel vector has unit length, not unit M-norm
        assert np.allclose(np.abs(pe.vectors[:, 0]), np.eye(11)[0])


class TestOneBlasThread:
    def test_set_at_import_whatever_the_environment_says(self, bundled_openblas):
        code = ("import json; from tests.conftest import openblas_threads; "
                "print(json.dumps(openblas_threads()))")
        root = Path(__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, cwd=root,
            env={**os.environ, "OPENBLAS_NUM_THREADS": "2",
                 "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root)])})
        assert json.loads(proc.stdout) == [1] * len(linalg._OPENBLAS)
        assert openblas_threads() == [1] * len(linalg._OPENBLAS)


