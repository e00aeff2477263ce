"""Spectral basis construction and the coarse space.

The local eigenproblem lives on the discretely a-harmonic subspace of the
oversampling domain: energy of the partition-of-unity-weighted restriction
against the local energy. It is solved by eliminating the interior block:
with interior dofs I1 and interface dofs I2 of omega_i^*, harmonic vectors
are parameterized by their interface values x as [-E x; x] with
E = A11^{-1} A12, and the local energy becomes the Schur complement
S = A22 - A21 E. X = diag(chi) vanishes off the interior dofs s of omega_i,
which lie inside the interior of omega_i^*, so chi times the harmonic vector
of x is W x on s with W = -X_s E[s], and zero elsewhere; the weighted Gram
becomes Ptil = W^T A_omega[s, s] W. On its interior rows a domain's
local energy is the global matrix bit for bit (every cell incident to an
interior dof lies in the domain), so A11, A12 and A_omega[s, s] are slices
of `system.A_free`, cut by `linalg.submatrix`, and only A22 is assembled,
from the Q1 stencil on the interface rows alone. The pencil Ptil x = lambda S x
on the interface is exactly equivalent to the full eigenproblem, at a
fraction of the dense size.

Zero-energy harmonic modes (constants on subdomains not touching the
Dirichlet boundary) are the kernel of S: the pencil solve reports them as
the leading eigenvalues +inf, and the local basis always retains them first.

Both local eigenproblems are solved on their coupling dofs only, through the
one Schur reduction `schur_complement`: the harmonic pencil on the interface
of omega_i^* (eliminating its interior through the cached banded interior
factor), the GenEO pencil on the overlap-zone dofs Gamma_i of omega_i, where
its left-hand side is nonzero (eliminating the rest through a banded factor
of the local energy off the overlap zone, assembled on omega_i because it
holds the Neumann rows of omega_i's boundary). `coupling_rows` is the one
definition of Gamma_i, and `pencil_size` gives the order of either pencil,
the most modes a basis can keep. Both eliminations are one blocked banded
solve of all the coupling columns at once. Each pencil is solved for the
m + 1 leading pairs only: the m the basis keeps and the next eigenvalue.
The GenEO left-hand side chi A_over chi is A_over with its entries scaled in
place, and every block either pencil needs of an assembled matrix is one
`linalg.submatrix` cut.

A basis keeps only what the coarse space uses of its vectors phi: the
products chi_i phi on s = dofs0(omega_i), the dofs where chi_i > 0, formed
from the pencil's vectors through the chi-weighted extension of its
reduction: the product with W above, and for GenEO chi times the vectors on
Gamma and one product with chi (-E) on the rows eliminated. The coarse
space keeps these blocks as they are, one per basis, in the order the bases
come (subdomain order in the drivers). Block (a, b) of its Galerkin matrix B^T A B is nonzero only
where omega_a and omega_b share a cell, so in this order B^T A B is banded:
columns of subdomains a strip of subdomains apart do not meet, and the
lower bandwidth is set by the widest pair of overlapping subdomains before
any product is formed. The lower band is assembled pair by pair straight
into LAPACK band storage, scaled to unit diagonal in place and overwritten
by its banded Cholesky factor, so neither an m x m array nor a copy of the
bases is formed. Only a Galerkin matrix that factor rejects (zero-energy or
dependent columns) is expanded to a dense array and decomposed by a pivoted
Cholesky, whose pivot order gives the columns the coarse solve keeps.
"""

import warnings
from dataclasses import dataclass, field, replace

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
from .linalg import (
    SparseFactor,
    SparseSym,
    dense_generalized_sym_eig,
    factor_band,
    factorize,
    submatrix,
)


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
        dofs = sub.dofs0_star
        A11 = SparseSym(submatrix(decomp.system.A_free.mat, dofs, dofs))
        try:
            return factorize(A11)
        except NotPositiveDefinite as exc:
            raise FactorizationFailure(f"subdomain {i}: interior block not SPD: {exc}") from exc

    return decomp.factor(("dofs0_star", i), build)


def schur_complement(A_ek, A_kk, solve):
    """Exact elimination of a block of dofs from a sparse symmetric matrix,
    given its sparse blocks A_ek (eliminated rows, kept columns) and A_kk
    (kept rows and columns). `solve` applies A_ee^{-1} to a dense block of
    columns. Returns (S, E): E = A_ee^{-1} A_ek and the dense, symmetrized
    Schur complement S = A_kk - A_ke E. A vector on the kept dofs extends to
    the eliminated ones as -E x. The block is handed to `solve` in C order,
    the row layout of the blocked banded solve."""
    E = solve(A_ek.toarray())
    S = A_kk.toarray() - A_ek.T @ E
    return 0.5 * (S + S.T), E


def reduce_to_harmonic(system, decomp, pu, i):
    """Interface reduction of the local eigenproblem on omega_i^*.

    Returns (S, Ptil, W): the interface Schur complement of the local energy,
    the harmonic-extended PU-weighted Gram matrix, and W = -chi E[s], the
    matrix that takes interface values x to chi_i times their harmonic
    extension on s = dofs0(omega_i), the dofs where chi_i > 0. The pencil
    Ptil x = lambda S x has exactly the eigenpairs of the eigenproblem on the
    a-harmonic subspace.
    """
    sub = decomp.subdomains[i]
    if sub.boundary_star.size == 0:
        raise EmptyBoundary(
            f"subdomain {i}: omega^* has no internal boundary (covers the whole domain)"
        )
    A = system.A_free.mat
    S, E = schur_complement(submatrix(A, sub.dofs0_star, sub.boundary_star),
                            local_stiffness(system, sub.box_star, sub.boundary_star),
                            interior_factor(decomp, i).solve)

    # chi is nonzero exactly on dofs0(omega_i), all of them interior to
    # omega_i^*: the rows of the chi-weighted extension that are not zero
    # are -chi E there
    chi = pu.weights[i][np.searchsorted(sub.dofs, sub.dofs0)]
    W = -chi[:, None] * E[np.searchsorted(sub.dofs0_star, sub.dofs0)]
    Ptil = W.T @ (submatrix(A, sub.dofs0, sub.dofs0) @ W)
    return S, 0.5 * (Ptil + Ptil.T), W


@dataclass
class LocalSpectralBasis:
    """Retained eigenpairs of a local eigenproblem, kept as the subdomain's
    block of coarse columns: glued[:, j] is chi_i phi_{i,j} on dofs0(omega_i),
    the dofs where chi_i > 0. Kernel (zero-energy) modes come first with
    eigenvalue +inf; the remaining eigenvalues are finite and
    non-increasing."""

    subdomain_id: int
    kind: str  # "harmonic" or "geneo"
    eigenvalues: np.ndarray
    glued: np.ndarray  # (|dofs0|, m)
    next_eigenvalue: float
    kernel_dim: int

    @property
    def n_modes(self):
        return self.glued.shape[1]


def _assemble_basis(sub_id, kind, pencil, m, glued):
    """The basis of the leading m modes of `pencil`, kernel first, with
    `glued` the product of chi_i and their extension on dofs0(omega_i)."""
    l, n = pencil.kernel_dim, pencil.vectors.shape[0]
    if m < l:
        raise TooManyModes(
            f"subdomain {sub_id}: {l} zero-energy modes must be retained, got m={m}"
        )
    if m > n:
        raise TooManyModes(f"subdomain {sub_id}: requested {m} modes, only {n} available")
    return LocalSpectralBasis(
        subdomain_id=sub_id,
        kind=kind,
        eigenvalues=pencil.eigenvalues[:m],
        glued=glued,
        next_eigenvalue=float(pencil.eigenvalues[m]) if m < n else 0.0,
        kernel_dim=l,
    )


def solve_local_eigenproblem(S, Ptil, W, m, sub_id=0):
    """Top-m eigenpairs of Ptil x = lambda S x, glued through the matrix W of
    `reduce_to_harmonic`. Only the m + 1 leading pairs are solved for: the
    last gives next_eigenvalue.

    The finite interface vectors come out S-orthonormal, i.e. their harmonic
    extensions are orthonormal in the local energy inner product on the
    oversampling domain; kernel vectors have unit Euclidean norm on the
    interface.
    """
    pencil = dense_generalized_sym_eig(Ptil, S, n_pairs=m + 1)
    return _assemble_basis(sub_id, "harmonic", pencil, m, W @ pencil.vectors[:, :m])


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
    return replace(basis, eigenvalues=basis.eigenvalues[:m], glued=basis.glued[:, :m],
                   next_eigenvalue=float(basis.eigenvalues[m]))


def coupling_rows(decomp, pu, i):
    """Gamma_i, the rows of omega_i's GenEO pencil, as positions in its
    dofs: the dofs where chi_i > 0 (dofs0(omega_i)) that are incident to a
    cell of the overlap zone, found on the zone's mask dilated to the nodes
    of omega_i's window. When no other subdomain meets omega_i, Gamma_i is
    every dof of omega_i."""
    sub = decomp.subdomains[i]
    x0, x1, y0, y1 = sub.box
    zone = overlap_zone(decomp, i)
    touched = np.zeros((y1 - y0 + 1, x1 - x0 + 1), dtype=bool)
    for dy in (0, 1):  # a node touches the (up to) four cells around it
        for dx in (0, 1):
            touched[dy:dy + y1 - y0, dx:dx + x1 - x0] |= zone
    iy, ix = np.divmod(decomp.system.free_to_node[sub.dofs], decomp.grid.nx + 1)
    gamma = np.flatnonzero(touched[iy - y0, ix - x0] & (pu.weights[i] > 0.0))
    return gamma if gamma.size else np.arange(sub.dofs.size)


def pencil_size(decomp, pu, kind, i):
    """The order of subdomain i's local pencil, the most modes its basis can
    keep: the interface of omega_i^* for the harmonic kind, |Gamma_i| for
    GenEO."""
    if kind == "geneo":
        return coupling_rows(decomp, pu, i).size
    return decomp.subdomains[i].boundary_star.size


def geneo_coupling(system, decomp, pu, i):
    """The left-hand side of the GenEO pencil of omega_i, the PU-weighted
    overlap-zone energy K = chi A_over chi on the free dofs of omega_i
    (csr, A_over's pattern with its entries scaled in place), and the
    positions the pencil is solved on, Gamma_i of `coupling_rows`: K is PSD
    and has a positive diagonal exactly there. Without an overlap K is zero,
    and the positions are all of omega_i's dofs."""
    sub = decomp.subdomains[i]
    K = local_stiffness(system, sub.box, sub.dofs, overlap_zone(decomp, i))
    chi = pu.weights[sub.id]
    K.data *= chi[np.repeat(np.arange(sub.dofs.size), np.diff(K.indptr))]
    K.data *= chi[K.indices]
    return K, coupling_rows(decomp, pu, i)


def geneo_eigenproblem(system, decomp, pu, i, m):
    """Overlap-zone eigenproblem on omega_i (no oversampling, no harmonic
    constraint): PU-weighted energy over the overlap zone against the full
    local energy, K x = lambda A_omega x on the free dofs of omega_i.

    K vanishes off the coupling dofs Gamma, so for lambda != 0 the other
    rows I force x_I = -A_II^{-1} A_IGamma x_Gamma, and the pencil is exactly
    K_GammaGamma x = lambda S x with S the Schur complement of A_omega onto
    Gamma; kernel vectors extend through the same map. The basis keeps chi_i
    times these extensions on dofs0(omega_i), where chi_i > 0, the block the
    coarse space glues for either basis kind."""
    sub = decomp.subdomains[i]
    K, gamma = geneo_coupling(system, decomp, pu, i)
    rest = np.setdiff1d(np.arange(sub.dofs.size), gamma, assume_unique=True)
    A_omega = local_stiffness(system, sub.box, sub.dofs)
    try:
        factor = factorize(SparseSym(submatrix(A_omega, rest, rest)))
    except NotPositiveDefinite as exc:
        raise FactorizationFailure(
            f"subdomain {i}: local energy off the overlap zone not SPD: {exc}"
        ) from exc
    S, E = schur_complement(submatrix(A_omega, rest, gamma), submatrix(A_omega, gamma, gamma),
                            factor.solve)

    pencil = dense_generalized_sym_eig(submatrix(K, gamma, gamma).toarray(), S, n_pairs=m + 1)
    # chi times the extension of the kept vectors X on the dofs where
    # chi > 0: the identity on Gamma and -E on the rest
    X = pencil.vectors[:, :m]
    chi = pu.weights[i]
    on = chi > 0.0
    row = np.cumsum(on) - 1  # a dof's row among those where chi > 0
    g, r = gamma[on[gamma]], rest[on[rest]]
    glued = np.empty((row[-1] + 1, X.shape[1]))
    glued[row[g]] = chi[g, None] * X[on[gamma]]
    glued[row[r]] = (chi[r, None] * -E[on[rest]]) @ X
    return _assemble_basis(i, "geneo", pencil, m, glued)


@dataclass
class CoarseSpace:
    """The coarse space as the local bases' own blocks, with the Cholesky
    factor of its Galerkin matrix.

    Column j of the coarse basis is scale[j] times column j of the blocks
    taken in order: blocks[k] (the glued block of the k-th basis, shared with
    it, not copied) holds columns offsets[k]:offsets[k + 1] on the rows
    rows[k] = dofs0(omega_i) and is zero elsewhere. scale takes each column
    to unit energy and is applied around the solve; the blocks are never
    scaled, since they belong to the bases (a sweep truncates the same bases
    for its next cell). `keep` lists the columns the coarse solve uses, and the banded
    factor pairs with them in that order: L L^T = B_k^T A B_k for the scaled
    columns B_k = B[:, keep]. For a full-rank basis keep is every column in
    order and L has the band of the Galerkin matrix. Otherwise keep is the
    pivot order of the columns the pivoted factorization kept, and L is
    stored as a full band; the dropped columns (zero-energy or dependent)
    take no part in the solve. lam is the bound
    sqrt(xi * xi_star * max_i next_eigenvalue) computed from the bases this
    space was built from.
    """

    rows: list  # rows[k]: the free dofs of block k, dofs0 of its subdomain
    blocks: list  # blocks[k]: the k-th basis's glued block, (rows[k].size, m_k)
    offsets: np.ndarray  # block k holds columns offsets[k]:offsets[k + 1]
    scale: np.ndarray  # per column: 1 / its energy norm, 0 for zero energy
    keep: np.ndarray  # the rank columns the solve uses, in the factor's order
    factor: SparseFactor  # L of L L^T = B_k^T A B_k, in LAPACK lower band storage
    max_next_eigenvalue: float
    lam: float
    gather: np.ndarray = field(init=False, repr=False)  # the rows end to end
    spans: list = field(init=False, repr=False)  # per block: X_k, its columns, its gather run

    def __post_init__(self):
        self.gather = np.concatenate(self.rows)
        starts = np.cumsum([0] + [rows.size for rows in self.rows])
        self.spans = list(zip(self.blocks, self.offsets, self.offsets[1:], starts, starts[1:]))

    @property
    def m(self):
        return self.keep.size

    def apply(self, r):
        """R_S^T A_S^{-1} R_S r for a vector or a stack of columns: r is
        gathered once on the blocks' rows end to end, block k forms
        X_k^T r[rows_k] from its run and X_k y_k into it, and one scatter
        sums the runs back in block order. Non-finite input propagates (the
        drivers report it as a breakdown)."""
        r = np.asarray(r, dtype=float)
        g = r[self.gather]
        rc = np.empty((self.scale.size,) + r.shape[1:])
        for X, a, b, p, q in self.spans:
            rc[a:b] = X.T @ g[p:q]
        rc = (self.scale * rc.T).T
        y = np.zeros_like(rc)
        y[self.keep] = self.factor.solve(rc[self.keep])
        y = (self.scale * y.T).T
        for X, a, b, p, q in self.spans:
            g[p:q] = X @ y[a:b]
        z = [np.bincount(self.gather, u, minlength=r.shape[0])
             for u in g.reshape(g.shape[0], -1).T]
        return np.column_stack(z).reshape(r.shape)


def _galerkin(A, rows, blocks, offsets, coupled):
    """The lower band of B^T A B for the blocks of columns X_k on the rows
    rows[k] and the symmetric csr matrix A, in LAPACK lower band storage: a
    (w+1) x m F-ordered array with band[i - j, j] = (B^T A B)[i, j], zero
    below the matrix. coupled[a] lists the blocks b <= a that may meet block
    a, and w is the widest of those pairs, so no m x m array is formed. For
    each block a, T = A[reached, rows_a] X_a is formed once on the rows
    `reached` that A couples to rows_a (A's columns compacted to them), and
    X_b^T T on the rows of rows_b among them is written for each coupled b;
    one position map over the free dofs, set and cleared per block, finds
    those rows."""
    m = offsets[-1]
    w = max(offsets[a + 1] - 1 - offsets[b] for a, bs in enumerate(coupled) for b in bs)
    band = np.zeros((w + 1, m), order="F")
    position = np.full(A.shape[0], -1)
    for a, bs in enumerate(coupled):
        A_a = submatrix(A, rows[a])
        reached, local = np.unique(A_a.indices, return_inverse=True)
        T = sparse.csr_matrix((A_a.data, local, A_a.indptr),
                              shape=(rows[a].size, reached.size)).T @ blocks[a]
        position[reached] = np.arange(reached.size)
        i = np.arange(offsets[a], offsets[a + 1])
        for b in bs:
            p = position[rows[b]]
            hit = p >= 0
            G = blocks[b][hit].T @ T[p[hit]]  # G[j, i] = (B^T A B)[j, i]
            j = np.arange(offsets[b], offsets[b + 1])[:, None]
            lower = i >= j
            band[(i - j)[lower], np.broadcast_to(j, lower.shape)[lower]] = G[lower]
        position[reached] = -1
    return band


def _scaled_galerkin(A, rows, blocks, offsets, coupled):
    """The Galerkin band of `_galerkin`, scaled in place to unit diagonal (a
    zero-energy column becomes a zero row and column), and the scale of
    each column."""
    band = _galerkin(A, rows, blocks, offsets, coupled)
    norms = np.sqrt(np.maximum(band[0], 0.0))
    scale = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0.0)
    m = scale.size
    for d in range(band.shape[0]):  # row j + d of column j
        band[d, :m - d] *= scale[d:]
    band *= scale
    return band, scale


def _pivoted_factor(band):
    """(keep, factor) of a Galerkin matrix the banded factor rejected, from
    its scaled band: the band expanded to a dense lower triangle, overwritten
    by one pivoted Cholesky whose tolerance 1e-12 is relative to the unit
    diagonal. keep is the pivot order of the kept columns, and the leading
    rank x rank block of the factor is stored as a full band."""
    w, n = band.shape[0] - 1, band.shape[1]
    dense = np.zeros((n, n), order="F")
    for j in range(n):
        dense[j:j + w + 1, j] = band[:min(w + 1, n - j), j]
    L, piv, rank, _ = scipy.linalg.lapack.dpstrf(dense, tol=1e-12, lower=1, overwrite_a=1)
    if 0 < rank < n:
        warnings.warn(
            f"coarse basis rank {rank} < {n}; dropping {n - rank} zero-energy or "
            "dependent coarse columns",
            RankDeficientCoarse,
        )
    full = np.zeros((rank, rank), order="F")
    for j in range(rank):
        full[:rank - j, j] = L[j:rank, j]
    return piv[:rank] - 1, SparseFactor(full)


def build_coarse_space(system, decomp, bases):
    """The coarse space of the local spectral bases: column (i, j) is the
    zero-extended nodal product chi_i * phi_{i,j}, normalized in the a-norm.
    The bases' glued blocks are kept as they are, in the order given, and
    the Galerkin matrix is assembled block by block over the pairs of
    subdomains that overlap.

    That matrix is written into its lower band alone, scaled there to unit
    diagonal, and overwritten by its banded Cholesky factor, which serves
    the coarse solve with every column in order. Only when that
    factorization breaks down or meets a squared pivot at most 1e-12, as for
    zero-energy or dependent columns, is the band formed again (the failed
    factorization overwrote it), expanded to a dense array and decomposed by
    one pivoted Cholesky, which keeps the columns of its pivot order up to
    its rank."""
    if sum(b.n_modes for b in bases) < 1:
        raise ValueError("empty coarse space: every subdomain contributed 0 modes")
    max_next = max(b.next_eigenvalue for b in bases)
    bases = [b for b in bases if b.n_modes]
    subs = [decomp.subdomains[b.subdomain_id] for b in bases]
    rows, blocks = [s.dofs0 for s in subs], [b.glued for b in bases]
    offsets = np.cumsum([0] + [b.n_modes for b in bases])
    # a dof interior to omega_a meets, through A, only dofs of cells of
    # omega_a, so blocks a and b couple only if their boxes share a cell
    x0, x1, y0, y1 = np.array([s.box for s in subs]).T
    meet = ((np.maximum.outer(x0, x0) < np.minimum.outer(x1, x1))
            & (np.maximum.outer(y0, y0) < np.minimum.outer(y1, y1)))
    coupled = [np.flatnonzero(meet[a, :a + 1]) for a in range(len(subs))]
    args = (system.A_free.mat, rows, blocks, offsets, coupled)
    band, scale = _scaled_galerkin(*args)
    keep = np.arange(scale.size)
    try:
        factor = factor_band(band, 1e-12)
    except NotPositiveDefinite:
        keep, factor = _pivoted_factor(_scaled_galerkin(*args)[0])
    if keep.size == 0:
        raise ValueError(
            f"empty coarse space: none of the {scale.size} columns has positive energy"
        )
    return CoarseSpace(
        rows=rows,
        blocks=blocks,
        offsets=offsets,
        scale=scale,
        keep=keep,
        factor=factor,
        max_next_eigenvalue=max_next,
        lam=float(np.sqrt(decomp.xi * decomp.xi_star * max_next)),
    )


def export_spectrum_csv(path, bases):
    """Per-subdomain eigenvalue decay: rows "i,k,lambda" (1-based k)."""
    with open(path, "w") as fh:
        fh.write("i,k,lambda\n")
        for b in bases:
            for k, lam in enumerate(b.eigenvalues, start=1):
                fh.write(f"{b.subdomain_id},{k},{lam:.17g}\n")
            fh.write(f"{b.subdomain_id},{b.n_modes + 1},{b.next_eigenvalue:.17g}\n")
