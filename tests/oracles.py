"""Independent brute-force oracles used by the tests.

Everything here is deliberately written without reusing the package's
assembly or eigensolver internals: elements are integrated by 2x2 Gauss
quadrature of explicitly coded shape-function gradients, local matrices are
accumulated in dense python loops, the harmonic space is obtained as an SVD
null space, and pencils are solved through an independently derived spectral
transform with a geometric kernel count.

Before the harmonic pencil is projected, the orthonormal null-space basis is
changed to the basis of the same space whose boundary rows are the identity.
The orthonormal basis mixes interior and boundary values, so small-energy
directions come out of cancellation between O(1) columns: projecting onto it
loses about 1e-8 relative accuracy on eigenvalues 1e-10 below the top one,
the size of the bound the oracle serves.

The stiffness triplets and the partition-of-unity distances also have plain
per-cell / per-node loop references here, which the vectorized production
code must reproduce bit for bit. The COO triplet assembly the package used
before its stencil writer is kept as the reference its matrices must match
bit for bit, with scipy's fancy indexing as the reference for its slices.

The package stores subdomains as boxes of cells. The full-grid mask builder
it replaced is kept here as the reference the box arithmetic must match bit
for bit: blocks dilated ring by ring, dof sets from per-node cell incidence,
breadth-first partition-of-unity distances, coloring constants by counting,
masked stiffness assembly and the GenEO overlap zone as an OR of masks.
The GenEO pencil's rows keep their first definition, the positive diagonal
of the PU-weighted energy assembled on that zone, as the reference the box
rule must match. The symmetry check the package dropped from its sparse
matrices is kept here, at its 1e-12 relative tolerance, for the tests that
assert it.

The sparse direct reference solve is SuperLU refined with residuals formed in
extended precision, so its error is far below the rounding a plain float64
solve of an ill-conditioned high-contrast block carries.

The dense diagnostics of the preconditioned operator (its energy-norm
contraction and the condition number of the additive schemes) assemble the
operator column by column through the package's preconditioner apply and
decompose it densely, so they serve small instances only, with BLAS on
every core for their duration (`blas_width`). The coarse
solve's dense reference starts from its kept columns, written out densely
from the coarse space's blocks.
"""

import contextlib
import os

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from msras import linalg
from msras.schwarz import apply_preconditioner

_GP = ((1.0 - 1.0 / np.sqrt(3.0)) / 2.0, (1.0 + 1.0 / np.sqrt(3.0)) / 2.0)


def q1_element_quadrature(c, hx, hy):
    """Q1 element stiffness via 2x2 Gauss quadrature on the reference cell,
    corner order (0,0), (hx,0), (0,hy), (hx,hy)."""
    K = np.zeros((4, 4))
    corners = [(0, 0), (1, 0), (0, 1), (1, 1)]
    for gx in _GP:
        for gy in _GP:
            grads = []
            for (a, b) in corners:
                # gradient of Lx_a(x)Ly_b(y) at (gx, gy) in reference coords
                lx = gx if a == 1 else 1.0 - gx
                ly = gy if b == 1 else 1.0 - gy
                dlx = 1.0 if a == 1 else -1.0
                dly = 1.0 if b == 1 else -1.0
                grads.append((dlx * ly / hx, lx * dly / hy))
            w = 0.25 * hx * hy
            for i in range(4):
                for j in range(4):
                    K[i, j] += w * c * (grads[i][0] * grads[j][0] + grads[i][1] * grads[j][1])
    return K


def dense_local_stiffness(system, cellmask, dofs):
    """Dense stiffness over the given cells on the numbering of `dofs`,
    accumulated cell by cell in python."""
    grid = system.grid
    nloc = dofs.size
    node_pos = {int(system.free_to_node[d]): k for k, d in enumerate(dofs)}
    A = np.zeros((nloc, nloc))
    for cy in range(grid.ny):
        for cx in range(grid.nx):
            if not cellmask[cy, cx]:
                continue
            Ke = q1_element_quadrature(system.coeff.values[cy, cx], grid.hx, grid.hy)
            n00 = cy * (grid.nx + 1) + cx
            nodes = [n00, n00 + 1, n00 + grid.nx + 1, n00 + grid.nx + 2]
            for i, ni in enumerate(nodes):
                ki = node_pos.get(ni, -1)
                if ki < 0:
                    continue
                for j, nj in enumerate(nodes):
                    kj = node_pos.get(nj, -1)
                    if kj >= 0:
                        A[ki, kj] += Ke[i, j]
    return A


def box_mask(grid, box):
    """The (ny, nx) cell mask of a box (x0, x1, y0, y1)."""
    x0, x1, y0, y1 = box
    mask = np.zeros((grid.ny, grid.nx), dtype=bool)
    mask[y0:y1, x0:x1] = True
    return mask


def touches_dirichlet(system, sub):
    """Whether any node incident to the oversampling cells is constrained."""
    dir_set = set(np.flatnonzero(system.node_to_free < 0).tolist())
    cells_star = box_mask(system.grid, sub.box_star)
    ny, nx = cells_star.shape
    for cy in range(ny):
        for cx in range(nx):
            if not cells_star[cy, cx]:
                continue
            n00 = cy * (nx + 1) + cx
            for n in (n00, n00 + 1, n00 + nx + 1, n00 + nx + 2):
                if n in dir_set:
                    return True
    return False


def psd_pencil_eigs(K, M, kernel_dim):
    """Finite eigenvalues (descending) of K x = lambda M x for PSD K, M via
    mu = lambda/(1+lambda); the kernel count is supplied by the caller."""
    mu = scipy.linalg.eigh(K, M + K, eigvals_only=True)[::-1]
    mu = mu[kernel_dim:]
    return mu / (1.0 - mu)


def harmonic_nullspace_pencil(system, decomp, pu, i):
    """Dense parts of the local a-harmonic eigenproblem on omega_i^*:
    (A_star, P, W, boundary) with P the PU-weighted energy on omega_i, W an
    orthonormal SVD null-space basis of the interior rows of A_star (the
    harmonic space), and boundary the positions of the internal-boundary
    dofs."""
    sub = decomp.subdomains[i]
    A_star = dense_local_stiffness(system, box_mask(system.grid, sub.box_star), sub.dofs_star)
    A_omega = dense_local_stiffness(system, box_mask(system.grid, sub.box), sub.dofs_star)
    chi = pu.on_star(sub)
    P = chi[:, None] * A_omega * chi[None, :]
    interior = sub.star_positions(sub.dofs0_star)
    W = scipy.linalg.null_space(A_star[interior, :])
    return A_star, P, W, sub.star_positions(sub.boundary_star)


def dense_harmonic_extension(system, decomp, i):
    """The discrete a-harmonic extension on omega_i^* as a dense
    (n_star, n_boundary) matrix, from the dense local energy A_star: unit
    values on the internal-boundary dofs, and on the interior dofs the dense
    solve that zeroes the interior rows of A_star times it."""
    sub = decomp.subdomains[i]
    A_star = dense_local_stiffness(system, box_mask(system.grid, sub.box_star), sub.dofs_star)
    interior = sub.star_positions(sub.dofs0_star)
    boundary = sub.star_positions(sub.boundary_star)
    H = np.zeros((sub.dofs_star.size, boundary.size))
    H[boundary] = np.eye(boundary.size)
    H[interior] = -np.linalg.solve(A_star[np.ix_(interior, interior)],
                                   A_star[np.ix_(interior, boundary)])
    return H


def harmonic_eigs_bruteforce(system, decomp, pu, i, count):
    """Eigenvalues of the local a-harmonic eigenproblem by explicit
    null-space construction of the harmonic space and a dense pencil solve.

    The null-space basis is changed to the one whose boundary rows are the
    identity before projection: it spans the same space, so the eigenvalues
    do not change, but it avoids the cancellation that costs the orthonormal
    basis about 1e-8 relative accuracy on the small tail eigenvalues.
    Returns (kernel_dim, finite eigenvalues descending)."""
    A_star, P, W, boundary = harmonic_nullspace_pencil(system, decomp, pu, i)
    W = W @ np.linalg.inv(W[boundary, :])
    Ko = W.T @ P @ W
    Mo = W.T @ A_star @ W
    Ko = 0.5 * (Ko + Ko.T)
    Mo = 0.5 * (Mo + Mo.T)
    kernel_dim = 0 if touches_dirichlet(system, decomp.subdomains[i]) else 1
    lam = psd_pencil_eigs(Ko, Mo, kernel_dim)
    return kernel_dim, lam[:count]


def geneo_eigs_bruteforce(system, decomp, pu, i, count):
    """Eigenvalues of the overlap-zone eigenproblem by dense assembly and a
    dense pencil solve. Returns (kernel_dim, finite eigenvalues descending)."""
    sub = decomp.subdomains[i]
    cells = box_mask(system.grid, sub.box)
    overlap = mask_geneo_overlap([box_mask(system.grid, s.box) for s in decomp.subdomains], i)
    A_omega = dense_local_stiffness(system, cells, sub.dofs)
    A_over = dense_local_stiffness(system, overlap, sub.dofs)
    chi = pu.weights[sub.id]
    K = chi[:, None] * A_over * chi[None, :]
    dir_set = set(np.flatnonzero(system.node_to_free < 0).tolist())
    ny, nx = cells.shape
    kernel_dim = 1
    for cy in range(ny):
        for cx in range(nx):
            if cells[cy, cx]:
                n00 = cy * (nx + 1) + cx
                if any(n in dir_set for n in (n00, n00 + 1, n00 + nx + 1, n00 + nx + 2)):
                    kernel_dim = 0
    lam = psd_pencil_eigs(K, A_omega, kernel_dim)
    return kernel_dim, lam[:count]


def stiffness_triplets_loops(cx, cy, coeff, kref, node_map, nx):
    """COO stiffness triplets by plain loops: one 4x4 block per cell in the
    given cell order, entries in row-major (i, j) order; entries whose row
    or column maps to -1 (constrained/absent dof) are skipped."""
    rows, cols, vals = [], [], []
    for c in range(cx.shape[0]):
        n00 = cy[c] * (nx + 1) + cx[c]
        nodes = [node_map[n00], node_map[n00 + 1], node_map[n00 + nx + 1], node_map[n00 + nx + 2]]
        for i in range(4):
            if nodes[i] < 0:
                continue
            for j in range(4):
                if nodes[j] < 0:
                    continue
                rows.append(nodes[i])
                cols.append(nodes[j])
                vals.append(coeff[c] * kref[i, j])
    return (np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64),
            np.array(vals, dtype=np.float64))


def pu_distances_loops(cellmask, cap):
    """Partition-of-unity distances by a node-queue breadth-first search:
    0 on nodes whose nodal basis support leaves the cell set, -1 on nodes
    with no incident cell in the set, BFS levels capped at `cap` elsewhere.
    Two nodes are neighbours when they share an in-set cell."""
    ny, nx = cellmask.shape
    dist = np.full((ny + 1, nx + 1), -1, dtype=np.int64)
    queue = []

    def cells_around(iy, ix):
        for cyy in (iy - 1, iy):
            for cxx in (ix - 1, ix):
                if 0 <= cyy < ny and 0 <= cxx < nx:
                    yield cyy, cxx

    for iy in range(ny + 1):
        for ix in range(nx + 1):
            flags = [bool(cellmask[c]) for c in cells_around(iy, ix)]
            if not any(flags):
                continue
            if all(flags):
                dist[iy, ix] = -2  # interior, not yet reached
            else:
                dist[iy, ix] = 0
                queue.append((iy, ix))
    head = 0
    while head < len(queue):
        iy, ix = queue[head]
        head += 1
        d = dist[iy, ix]
        if d >= cap:
            continue
        for cyy, cxx in cells_around(iy, ix):
            if not cellmask[cyy, cxx]:
                continue
            for jy in (cyy, cyy + 1):
                for jx in (cxx, cxx + 1):
                    if dist[jy, jx] == -2:
                        dist[jy, jx] = d + 1
                        queue.append((jy, jx))
    # interior pockets the search never reached saturate at the cap
    dist[dist == -2] = cap
    return np.minimum(dist, cap)


# --- the full-grid mask builder the box arithmetic replaced ---------------


def _corners(a):
    """The four overlapping windows of a 2-D array, shrunk by one in each
    direction: on a cell array padded by one ring, the cells around each
    node; on a node array, the corners of each cell."""
    return a[:-1, :-1], a[:-1, 1:], a[1:, :-1], a[1:, 1:]


def _any_corner(a):
    w, x, y, z = _corners(a)
    return w | x | y | z


def node_incidence(cellmask):
    """(any_in, all_in) node masks for a cell mask: incident to >=1 cell of
    the set / all existing incident cells in the set."""
    w, x, y, z = _corners(np.pad(cellmask, 1, constant_values=True))
    return _any_corner(np.pad(cellmask, 1)), w & x & y & z


def pu_distances_mask(cellmask, cap):
    """pu_distances_loops on whole-array frontiers: breadth-first levels
    from the nodes whose basis support leaves the cell set."""
    any_in, all_in = node_incidence(cellmask)
    dist = np.full(any_in.shape, -1, dtype=np.int64)
    reached = any_in & ~all_in
    dist[reached] = 0
    for level in range(1, cap + 1):
        # nodes -> cells: in-set cells with a reached corner; cells -> nodes:
        # every corner of those cells
        active = cellmask & _any_corner(reached)
        frontier = _any_corner(np.pad(active, 1)) & all_in & ~reached
        if not frontier.any():
            break
        dist[frontier] = level
        reached |= frontier
    dist[all_in & ~reached] = cap
    return dist


def dilate(cellmask, layers):
    """Grow a cell set by `layers` rings of elements (8-connected)."""
    out = cellmask.copy()
    ny, nx = cellmask.shape
    for _ in range(layers):
        pad = np.zeros((ny + 2, nx + 2), dtype=bool)
        pad[1 : ny + 1, 1 : nx + 1] = out
        grown = np.zeros_like(out)
        for dy in (0, 1, 2):
            for dx in (0, 1, 2):
                grown |= pad[dy : dy + ny, dx : dx + nx]
        out = grown
    return out


def _free_dofs(mask_nodes, node_to_free):
    nodes = np.nonzero(mask_nodes.ravel())[0]
    free = node_to_free[nodes]
    return free[free >= 0]


def mask_coloring_constant(masks):
    """Maximum over grid nodes of the number of masks with an incident cell."""
    return int(sum(node_incidence(m)[0].astype(np.int64) for m in masks).max())


def mask_decomposition(system, px, py, overlap_layers, oversampling_layers):
    """The decomposition as full-grid masks: (subdomains, xi, xi_star), each
    subdomain a dict of its two cell masks and five dof sets."""
    grid = system.grid
    x_edges = np.linspace(0, grid.nx, px + 1).astype(int)
    y_edges = np.linspace(0, grid.ny, py + 1).astype(int)
    subs = []
    for j in range(py):
        for i in range(px):
            block = np.zeros((grid.ny, grid.nx), dtype=bool)
            block[y_edges[j] : y_edges[j + 1], x_edges[i] : x_edges[i + 1]] = True
            cells = dilate(block, overlap_layers)
            cells_star = dilate(cells, oversampling_layers)
            any_o, all_o = node_incidence(cells)
            any_s, all_s = node_incidence(cells_star)
            dofs_star = _free_dofs(any_s, system.node_to_free)
            dofs0_star = _free_dofs(all_s, system.node_to_free)
            subs.append({
                "cells": cells,
                "cells_star": cells_star,
                "dofs": _free_dofs(any_o, system.node_to_free),
                "dofs0": _free_dofs(all_o, system.node_to_free),
                "dofs_star": dofs_star,
                "dofs0_star": dofs0_star,
                "boundary_star": np.setdiff1d(dofs_star, dofs0_star),
            })
    xi = mask_coloring_constant([s["cells"] for s in subs])
    xi_star = mask_coloring_constant([s["cells_star"] for s in subs])
    return subs, xi, xi_star


def mask_pu_weights(system, subs, cap):
    """Distance-normalized partition-of-unity weights on each subdomain's dofs."""
    dists = []
    total = np.zeros(system.n_free)
    for s in subs:
        dist = pu_distances_mask(s["cells"], cap)
        d_free = dist.ravel()[system.free_to_node[s["dofs"]]].astype(float)
        d_free = np.maximum(d_free, 0.0)
        dists.append(d_free)
        total[s["dofs"]] += d_free
    return [d / total[s["dofs"]] for s, d in zip(subs, dists)]


def coo_stiffness(grid, coeff, cellmask, node_map, n, kref):
    """Sparse stiffness over the cells of a full-grid mask on the dof
    numbering `node_map` (one entry per grid node, -1 for no dof), from the
    unit-coefficient element matrix `kref`: one 4x4 block of COO triplets
    per cell in row-major order, entries dropped where a node has no dof,
    summed by scipy's COO to CSR conversion. The package assembled its
    matrices this way before it wrote them from the stencil directly."""
    cy, cx = np.nonzero(cellmask)
    n00 = cy * (grid.nx + 1) + cx
    corners = np.stack([n00, n00 + 1, n00 + grid.nx + 1, n00 + grid.nx + 2], axis=1)
    mapped = node_map[corners]
    rows = np.repeat(mapped, 4, axis=1).reshape(-1)
    cols = np.tile(mapped, (1, 4)).reshape(-1)
    vals = (coeff.values[cy, cx][:, None, None] * kref[None, :, :]).reshape(-1)
    keep = (rows >= 0) & (cols >= 0)
    return scipy.sparse.coo_matrix(
        (vals[keep], (rows[keep], cols[keep])), shape=(n, n)
    ).tocsr()


def mask_local_stiffness(system, cellmask, dofs, kref):
    """`coo_stiffness` on the numbering of the free dofs `dofs`."""
    grid = system.grid
    node_map = np.full(grid.n_nodes, -1, dtype=np.int64)
    node_map[system.free_to_node[dofs]] = np.arange(dofs.size)
    return coo_stiffness(grid, system.coeff, cellmask, node_map, dofs.size, kref)


def mask_geneo_overlap(masks, i):
    """Cells of masks[i] that also lie in another mask."""
    overlap = np.zeros_like(masks[i])
    for j, other in enumerate(masks):
        if j != i:
            overlap |= other
    return overlap & masks[i]


def positive_diagonal_gamma(system, decomp, pu, i):
    """The rows of omega_i's GenEO pencil by their first definition, as
    positions in its dofs: where the PU-weighted overlap-zone energy
    chi A_over chi, assembled from the masks, has a positive diagonal, or
    every position when it has none (no overlap)."""
    grid = system.grid
    masks = [box_mask(grid, sub.box) for sub in decomp.subdomains]
    kref = q1_element_quadrature(1.0, grid.hx, grid.hy)
    K = mask_local_stiffness(system, mask_geneo_overlap(masks, i),
                             decomp.subdomains[i].dofs, kref)
    chi = pu.weights[i]
    gamma = np.flatnonzero(chi * K.diagonal() * chi > 0.0)
    return gamma if gamma.size else np.arange(chi.size)


def assert_symmetric(A, rtol=1e-12):
    """A sparse matrix is square and symmetric to `rtol` relative to its
    largest entry."""
    assert A.shape[0] == A.shape[1], A.shape
    scale = np.abs(A.data).max() if A.nnz else 0.0
    skew = (A - A.T).tocoo()
    assert not skew.nnz or np.abs(skew.data).max() <= rtol * max(scale, 1e-300)


def refined_sparse_solve(A, B, steps=2):
    """A^{-1} B for a sparse A (CSR) and dense B: a SuperLU solve followed by
    `steps` rounds of iterative refinement whose residuals B - A X are summed
    in np.longdouble. The forward error then no longer scales with
    cond(A) * eps of float64."""
    A = scipy.sparse.csr_matrix(A)
    lu = scipy.sparse.linalg.splu(A.tocsc())
    data = A.data.astype(np.longdouble)[:, None]
    X = lu.solve(B)
    for _ in range(steps):
        AX = np.add.reduceat(data * X[A.indices].astype(np.longdouble), A.indptr[:-1], axis=0)
        X = X + lu.solve((B.astype(np.longdouble) - AX).astype(float))
    return X


def kept_coarse_columns(coarse, n):
    """The columns a coarse space solves with, as a dense n x m array in the
    order of its factor: each block zero-extended from its rows, scaled to
    unit energy, and the kept columns taken in `keep` order."""
    B = np.zeros((n, coarse.scale.size))
    for rows, X, a in zip(coarse.rows, coarse.blocks, coarse.offsets):
        B[rows, a:a + X.shape[1]] = X
    return (B * coarse.scale)[:, coarse.keep]


class TooLarge(Exception):
    """Problem exceeds the size limit of a dense diagnostic."""


@contextlib.contextmanager
def blas_width(n):
    """Every bundled OpenBLAS at n threads inside the block (or the function
    it decorates), and back at the package's one thread after it, also on an
    exception."""
    for _, set_threads in linalg._OPENBLAS:
        set_threads(n)
    try:
        yield
    finally:
        for _, set_threads in linalg._OPENBLAS:
            set_threads(1)


# The dense oracles' n^3 eigensolves of a few thousand rows gain from every
# core, unlike the package's small kernels.
_ALL_CORES = len(os.sched_getaffinity(0))


@blas_width(_ALL_CORES)
def contraction_norm(state, system, max_dofs=3000):
    """Exact ||I - B A|| in the energy norm, via dense assembly of the
    preconditioned operator and a symmetric eigensolve of its similarity
    transform. Only for small instances."""
    n = system.n_free
    if n > max_dofs:
        raise TooLarge(f"{n} dofs exceeds the dense-oracle limit {max_dofs}")
    A = system.A_free.mat.toarray()
    BA = apply_preconditioner(state, A)  # B applied to the columns of A
    E = np.eye(n) - BA
    w, Q = scipy.linalg.eigh(A)
    w = np.maximum(w, 0.0)
    half = Q @ (np.sqrt(w)[:, None] * Q.T)
    inv_half = Q @ ((1.0 / np.sqrt(w))[:, None] * Q.T)
    T = half @ E @ inv_half
    s2 = scipy.linalg.eigh(T.T @ T, eigvals_only=True)[-1]
    return float(np.sqrt(max(s2, 0.0)))


@blas_width(_ALL_CORES)
def spd_condition_number(state, system, max_dofs=3000):
    """Spectral condition number of the preconditioned operator B A for a
    symmetric preconditioner (the additive schemes), via the symmetric form
    A^(1/2) B A^(1/2)."""
    n = system.n_free
    if n > max_dofs:
        raise TooLarge(f"{n} dofs exceeds the dense-oracle limit {max_dofs}")
    A = system.A_free.mat.toarray()
    B = apply_preconditioner(state, np.eye(n))
    w, Q = scipy.linalg.eigh(A)
    w = np.maximum(w, 0.0)
    half = Q @ (np.sqrt(w)[:, None] * Q.T)
    C = half @ B @ half
    ev = scipy.linalg.eigh(0.5 * (C + C.T), eigvals_only=True)
    return float(ev[-1] / ev[0])
