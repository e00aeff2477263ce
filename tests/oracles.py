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
code must reproduce bit for bit.
"""

import numpy as np
import scipy.linalg

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


def touches_dirichlet(system, sub):
    """Whether any node incident to the oversampling cells is constrained."""
    grid = system.grid
    dir_set = set(system.dirichlet_nodes.tolist())
    ny, nx = sub.cells_star.shape
    for cy in range(ny):
        for cx in range(nx):
            if not sub.cells_star[cy, cx]:
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
    A_star = dense_local_stiffness(system, sub.cells_star, sub.dofs_star)
    A_omega = dense_local_stiffness(system, sub.cells, sub.dofs_star)
    chi = pu.on_star(sub)
    P = chi[:, None] * A_omega * chi[None, :]
    interior = sub.star_positions(sub.dofs0_star)
    W = scipy.linalg.null_space(A_star[interior, :])
    return A_star, P, W, sub.star_positions(sub.boundary_star)


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
    overlap = np.zeros_like(sub.cells)
    for other in decomp.subdomains:
        if other.id != i:
            overlap |= other.cells
    overlap &= sub.cells
    A_omega = dense_local_stiffness(system, sub.cells, sub.dofs)
    A_over = dense_local_stiffness(system, overlap, sub.dofs)
    chi = pu.weights[sub.id]
    K = chi[:, None] * A_over * chi[None, :]
    dir_set = set(system.dirichlet_nodes.tolist())
    grid = system.grid
    ny, nx = sub.cells.shape
    kernel_dim = 1
    for cy in range(ny):
        for cx in range(nx):
            if sub.cells[cy, cx]:
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
