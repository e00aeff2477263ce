"""Spectral basis construction and the coarse space.

The local eigenproblem lives on the discretely a-harmonic subspace of the
oversampling domain: energy of the partition-of-unity-weighted restriction
against the local energy. It is solved by eliminating the interior block:
with interior dofs I1 and interface dofs I2 of omega_i^*, harmonic vectors
are parameterized by their interface values through H = [-E; I] with
E = A11^{-1} A12, the local energy becomes the Schur complement
S = A22 - A21 E and the weighted Gram becomes Ptil = H^T (X A_omega X) H.
X = diag(chi) vanishes off omega_i, which lies inside the interior of
omega_i^*, so Ptil = W^T A_omega[s, s] W over the dofs s where chi != 0,
with W = -X_s E[s]; H itself is never formed, only applied. The pencil
Ptil x = lambda S x on the interface is exactly equivalent to the full
eigenproblem, at a fraction of the dense size.

Zero-energy harmonic modes (constants on subdomains not touching the
Dirichlet boundary) appear as kernel vectors of S; they are always retained
first in the local basis.

Both local eigenproblems are solved on their coupling dofs only, through the
one Schur reduction `schur_complement`: the harmonic pencil on the interface
of omega_i^* (eliminating its interior through the cached sparse interior
factor), the GenEO pencil on the overlap-zone dofs of omega_i, where its
left-hand side is nonzero (eliminating the rest through a dense Cholesky).
Vectors extend back through the map x_eliminated = -E x_kept of the same
reduction. Each pencil is solved for the m + 1 leading pairs only: the m
the basis keeps and the next eigenvalue.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sparse

from .decomp import overlap_zone
from .errors import (
    EmptyBoundary,
    FactorizationFailure,
    NotPositiveDefinite,
    RankDeficientCoarse,
    TooManyModes,
)
from .grid import assemble_partial_stiffness
from .linalg import dense_generalized_sym_eig, extract_submatrix, factorize


def local_stiffness(system, box, dofs, cells=None):
    """Stiffness of the bilinear form restricted to the cells of `box` (or
    the window mask `cells` of them), on the local numbering of the free
    dofs `dofs`; dofs with no node in the box's window get empty rows."""
    x0, x1, y0, y1 = box
    width = x1 - x0 + 1
    iy, ix = np.divmod(system.free_to_node[dofs], system.grid.nx + 1)
    inside = (ix >= x0) & (ix <= x1) & (iy >= y0) & (iy <= y1)
    node_map = np.full(width * (y1 - y0 + 1), -1, dtype=np.int64)
    node_map[(iy[inside] - y0) * width + ix[inside] - x0] = np.nonzero(inside)[0]
    return assemble_partial_stiffness(
        system.grid, system.coeff, box, node_map, dofs.size, cells
    )


def interior_factor(decomp, i):
    """Factor of the global matrix on dofs0(omega_i^*), the interior dofs of
    the oversampling domain. It is the interior block A11 of the harmonic
    reduction and the oversampled Schwarz local solve (the MS-GFEM particular
    solve) alike, so it is computed once per decomposition and cached there."""
    sub = decomp.subdomains[i]

    def build():
        try:
            return factorize(extract_submatrix(decomp.system.A_free, sub.dofs0_star))
        except NotPositiveDefinite as exc:
            raise FactorizationFailure(f"subdomain {i}: interior block not SPD: {exc}") from exc

    return decomp.factor(("dofs0_star", i), build)


def schur_complement(A, keep, elim, solve):
    """Exact elimination of the positions `elim` of the sparse symmetric
    matrix A onto the positions `keep`. `solve` applies A_ee^{-1} to a dense
    block of columns. Returns (S, E): E = A_ee^{-1} A_ek and the dense,
    symmetrized Schur complement S = A_kk - A_ke E. A vector on `keep`
    extends to `elim` as -E x."""
    A_ek = A[elim][:, keep]
    E = solve(A_ek.toarray())
    S = A[keep][:, keep].toarray() - A_ek.T @ E
    return 0.5 * (S + S.T), E


def reduce_to_harmonic(system, decomp, pu, i):
    """Interface reduction of the local eigenproblem on omega_i^*.

    Returns (S, Ptil, H): the interface Schur complement of the local energy,
    the harmonic-extended PU-weighted Gram matrix, and the harmonic
    extension H, a function that takes interface values X (a vector or
    columns) to the harmonic vectors on dofs(omega_i^*): -E X on the
    interior dofs, X on the interface. The pencil Ptil x = lambda S x has
    exactly the eigenpairs of the eigenproblem on the a-harmonic subspace.
    """
    sub = decomp.subdomains[i]
    i1 = sub.star_positions(sub.dofs0_star)
    i2 = sub.star_positions(sub.boundary_star)
    if i2.size == 0:
        raise EmptyBoundary(
            f"subdomain {i}: omega^* has no internal boundary (covers the whole domain)"
        )

    A_star = local_stiffness(system, sub.box_star, sub.dofs_star)
    # A11 = A_star[i1, i1] is bit-identical to the global matrix on dofs0_star
    # (every cell incident to an interior node lies in omega_i^*)
    S, E = schur_complement(A_star, i2, i1, interior_factor(decomp, i).solve)

    # chi is zero off dofs(omega_i), all of them interior to omega_i^*: the
    # rows of chi H that are not zero are -chi E on the dofs s where chi != 0
    chi = pu.weights[i]
    nz = np.flatnonzero(chi)
    s = sub.dofs[nz]
    W = -chi[nz, None] * E[np.searchsorted(sub.dofs0_star, s)]
    Ptil = W.T @ (local_stiffness(system, sub.box, s) @ W)
    Ptil = 0.5 * (Ptil + Ptil.T)

    def H(X):
        out = np.empty((sub.dofs_star.size,) + np.shape(X)[1:])
        out[i1] = -(E @ X)
        out[i2] = X
        return out

    return S, Ptil, H


@dataclass
class LocalSpectralBasis:
    """Retained eigenpairs of a local eigenproblem, as full local vectors on
    dofs(omega_i^*). Kernel (zero-energy) modes come first with eigenvalue
    +inf; the remaining eigenvalues are finite and non-increasing."""

    subdomain_id: int
    kind: str  # "harmonic" or "geneo"
    eigenvalues: np.ndarray
    vectors: np.ndarray  # (n_star, m)
    next_eigenvalue: float
    kernel_dim: int

    @property
    def n_modes(self):
        return self.vectors.shape[1]


def _assemble_basis(sub_id, kind, pencil, m, full_of):
    l = pencil.kernel_dim
    n_finite = pencil.n_finite
    if m < l:
        raise TooManyModes(
            f"subdomain {sub_id}: {l} zero-energy modes must be retained, got m={m}"
        )
    if m > l + n_finite:
        raise TooManyModes(
            f"subdomain {sub_id}: requested {m} modes, only {l + n_finite} available"
        )
    take = m - l
    kernel = full_of(pencil.kernel_vectors)
    vecs = np.hstack([kernel / np.linalg.norm(kernel, axis=0),
                      full_of(pencil.eigenvectors[:, :take])])
    vals = np.concatenate([np.full(l, np.inf), pencil.eigenvalues[:take]])
    next_ev = float(pencil.eigenvalues[take]) if take < n_finite else 0.0
    return LocalSpectralBasis(
        subdomain_id=sub_id,
        kind=kind,
        eigenvalues=vals,
        vectors=vecs,
        next_eigenvalue=next_ev,
        kernel_dim=l,
    )


def solve_local_eigenproblem(S, Ptil, H, m, sub_id=0):
    """Top-m eigenpairs of Ptil x = lambda S x, expanded through the
    harmonic extension H of `reduce_to_harmonic` and normalized to unit
    local energy (kernel modes to unit Euclidean norm). Only the m + 1
    leading pairs are solved for: the last gives next_eigenvalue.

    The finite eigenvectors come out S-orthonormal, i.e. orthonormal in the
    local energy inner product on the oversampling domain.
    """
    pencil = dense_generalized_sym_eig(Ptil, S, n_pairs=m + 1)
    return _assemble_basis(sub_id, "harmonic", pencil, m, H)


def truncate_basis(basis, m):
    """Shrink a basis to its leading m modes, recomputing next_eigenvalue."""
    if m > basis.n_modes:
        raise TooManyModes(f"cannot grow a basis from {basis.n_modes} to {m} modes")
    if m < basis.kernel_dim:
        raise TooManyModes(
            f"{basis.kernel_dim} zero-energy modes must be retained, got m={m}"
        )
    if m == basis.n_modes:
        return basis
    return LocalSpectralBasis(
        subdomain_id=basis.subdomain_id,
        kind=basis.kind,
        eigenvalues=basis.eigenvalues[:m],
        vectors=basis.vectors[:, :m],
        next_eigenvalue=float(basis.eigenvalues[m]),
        kernel_dim=basis.kernel_dim,
    )


def geneo_coupling(system, decomp, pu, i):
    """The left-hand side of the GenEO pencil of omega_i, the PU-weighted
    overlap-zone energy K = chi A_over chi on the free dofs of omega_i
    (sparse), and the positions the pencil is solved on: the coupling dofs
    Gamma, where K has a nonzero row. K is PSD, so these are the rows with a
    positive diagonal entry. Without an overlap K is zero, and the positions
    are all of omega_i's dofs."""
    sub = decomp.subdomains[i]
    A_over = local_stiffness(system, sub.box, sub.dofs, overlap_zone(decomp, i))
    chi = sparse.diags(pu.weights[sub.id])
    K = (chi @ A_over @ chi).tocsr()
    gamma = np.flatnonzero(K.diagonal() > 0.0)
    return K, gamma if gamma.size else np.arange(sub.dofs.size)


def geneo_eigenproblem(system, decomp, pu, i, m):
    """Overlap-zone eigenproblem on omega_i (no oversampling, no harmonic
    constraint): PU-weighted energy over the overlap zone against the full
    local energy, K x = lambda A_omega x on the free dofs of omega_i.

    K vanishes off the coupling dofs Gamma, so for lambda != 0 the other
    rows I force x_I = -A_II^{-1} A_IGamma x_Gamma, and the pencil is exactly
    K_GammaGamma x = lambda S x with S the Schur complement of A_omega onto
    Gamma; kernel vectors extend through the same map. Vectors are then
    zero-extended to dofs(omega_i^*) so gluing is uniform across basis
    kinds."""
    sub = decomp.subdomains[i]
    K, gamma = geneo_coupling(system, decomp, pu, i)
    rest = np.setdiff1d(np.arange(sub.dofs.size), gamma, assume_unique=True)
    A_omega = local_stiffness(system, sub.box, sub.dofs)
    try:
        cho = scipy.linalg.cho_factor(A_omega[rest][:, rest].toarray(), lower=True,
                                      check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise FactorizationFailure(
            f"subdomain {i}: local energy off the overlap zone not SPD: {exc}"
        ) from exc
    S, E = schur_complement(A_omega, gamma, rest,
                            lambda b: scipy.linalg.cho_solve(cho, b, check_finite=False))

    pencil = dense_generalized_sym_eig(K[gamma][:, gamma].toarray(), S, n_pairs=m + 1)
    pos = sub.star_positions(sub.dofs)

    def full_of(X):
        out = np.zeros((sub.dofs_star.size, X.shape[1]))
        out[pos[gamma]] = X
        out[pos[rest]] = -(E @ X)
        return out

    return _assemble_basis(i, "geneo", pencil, m, full_of)


@dataclass
class CoarseSpace:
    """Glued coarse basis with the Cholesky factor of its Galerkin matrix.

    lam is the bound sqrt(xi * xi_star * max_i next_eigenvalue) computed from
    the bases this space was built from.
    """

    basis: sparse.csc_matrix  # (n_free, m) unit-energy columns, in pivot order
    cho: tuple  # (L, True): leading m x m block of the pivoted factor, L L^T = B^T A B
    max_next_eigenvalue: float
    lam: float

    @property
    def m(self):
        return self.basis.shape[1]

    def apply(self, r):
        """R_S^T A_S^{-1} R_S r for a vector or a stack of columns. Non-finite
        input propagates (the drivers report it as a breakdown)."""
        rc = self.basis.T @ r
        return self.basis @ scipy.linalg.cho_solve(self.cho, rc, check_finite=False)


def coarse_space_from_columns(system, columns, xi, xi_star, max_next_eigenvalue):
    """Assemble, rank-filter and factorize a coarse space from explicit
    global columns (already glued), decomposing their Galerkin matrix once.
    Scaled to unit diagonal (a zero-energy column becomes a zero row), it
    gets one pivoted Cholesky whose tolerance 1e-12 is relative to that unit
    diagonal. The columns are kept in pivot order up to the rank, so the
    leading rank x rank block of the factor serves the coarse solve."""
    cols = sparse.csc_matrix(columns)
    galerkin = cols.T @ (system.A_free @ cols)
    norms = np.sqrt(np.maximum(galerkin.diagonal(), 0.0))
    scale = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0.0)
    a_c = sparse.diags(scale) @ galerkin @ sparse.diags(scale)
    a_c = (0.5 * (a_c + a_c.T)).toarray(order="F")
    n = a_c.shape[0]
    L, piv, rank, _ = scipy.linalg.lapack.dpstrf(a_c, tol=1e-12, lower=1, overwrite_a=1)
    if rank == 0:
        raise ValueError(f"empty coarse space: none of the {n} columns has positive energy")
    if rank < n:
        warnings.warn(
            f"coarse basis rank {rank} < {n}; dropping {n - rank} zero-energy or "
            "dependent coarse columns",
            RankDeficientCoarse,
        )
    keep = piv[:rank] - 1
    basis = cols[:, keep]
    for j, s in enumerate(scale[keep]):  # in place: no temporary the size of the basis
        basis.data[basis.indptr[j]:basis.indptr[j + 1]] *= s
    return CoarseSpace(
        basis=basis,
        cho=(np.asfortranarray(L[:rank, :rank]), True),  # copies only when rank < n
        max_next_eigenvalue=max_next_eigenvalue,
        lam=float(np.sqrt(xi * xi_star * max_next_eigenvalue)),
    )


def build_coarse_space(system, decomp, pu, bases):
    """Glue local spectral bases into the global coarse space: column (i, j)
    is the zero-extended nodal product chi_i * phi_{i,j}, normalized in the
    a-norm. Near-duplicate columns are removed by pivoted rank filtering."""
    total = sum(b.n_modes for b in bases)
    if total < 1:
        raise ValueError("empty coarse space: every subdomain contributed 0 modes")
    blocks = []
    for basis in bases:
        sub = decomp.subdomains[basis.subdomain_id]
        local = sparse.csc_matrix(pu.on_star(sub)[:, None] * basis.vectors)  # stores no zeros
        blocks.append(sparse.csc_matrix(
            (local.data, sub.dofs_star[local.indices], local.indptr),
            shape=(system.n_free, basis.n_modes),
        ))
    max_next = max((b.next_eigenvalue for b in bases), default=0.0)
    return coarse_space_from_columns(
        system, sparse.hstack(blocks, format="csc"), decomp.xi, decomp.xi_star, max_next
    )


def export_spectrum_csv(path, bases):
    """Per-subdomain eigenvalue decay: rows "i,k,lambda" (1-based k)."""
    with open(path, "w") as fh:
        fh.write("i,k,lambda\n")
        for b in bases:
            for k, lam in enumerate(b.eigenvalues, start=1):
                fh.write(f"{b.subdomain_id},{k},{lam:.17g}\n")
            fh.write(f"{b.subdomain_id},{b.n_modes + 1},{b.next_eigenvalue:.17g}\n")
