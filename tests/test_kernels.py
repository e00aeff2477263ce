import hashlib

import numpy as np
import pytest
import scipy.sparse as sparse

from msras import linalg, schwarz, spectral
from msras.decomp import box_nodes, build_decomposition, build_partition_of_unity, pu_distances
from msras.grid import (
    SIDES,
    BoundarySpec,
    CartesianGrid,
    CoefficientField,
    assemble_partial_stiffness,
    element_stiffness,
)
from tests.conftest import make_system
from tests.oracles import (
    box_mask,
    coo_stiffness,
    mask_geneo_overlap,
    mask_local_stiffness,
    pu_distances_loops,
    pu_distances_mask,
    stiffness_triplets_loops,
)


def random_box(rng, grid):
    x0, x1 = np.sort(rng.choice(grid.nx + 1, 2, replace=False))
    y0, y1 = np.sort(rng.choice(grid.ny + 1, 2, replace=False))
    return int(x0), int(x1), int(y0), int(y1)


class TestBackendEquivalence:
    """The vectorized production code against the plain-loop references."""

    def test_stiffness_triplets_identical(self):
        rng = np.random.default_rng(0)
        grid = CartesianGrid(23, 17, lx=23 * 0.11, ly=17 * 0.047)
        coeff = CoefficientField(rng.uniform(0.5, 1e6, (grid.ny, grid.nx)))
        kref = element_stiffness(1.0, grid.hx, grid.hy)
        boxes = [(0, grid.nx, 0, grid.ny)] + [random_box(rng, grid) for _ in range(6)]
        for x0, x1, y0, y1 in boxes:
            width, n_window = x1 - x0 + 1, (x1 - x0 + 1) * (y1 - y0 + 1)
            node_map = np.arange(n_window, dtype=np.int64)
            node_map[rng.choice(n_window, n_window // 5, replace=False)] = -1
            for cells in (None, rng.random((y1 - y0, x1 - x0)) < 0.7):
                mine = assemble_partial_stiffness(grid, coeff, (x0, x1, y0, y1), node_map,
                                                  n_window, cells)
                ly, lx = np.nonzero(np.ones((y1 - y0, x1 - x0), bool) if cells is None else cells)
                # the loop reference on the window's own node numbering
                rows, cols, vals = stiffness_triplets_loops(
                    lx, ly, coeff.values[ly + y0, lx + x0], kref, node_map, width - 1
                )
                ref = sparse.coo_matrix((vals, (rows, cols)), shape=mine.shape).tocsr()
                for a, b in ((mine.indptr, ref.indptr), (mine.indices, ref.indices),
                             (mine.data, ref.data)):
                    assert np.array_equal(a, b)

    def test_pu_distances_identical(self):
        rng = np.random.default_rng(1)
        grid = CartesianGrid(26, 19)
        boxes = [(0, 26, 0, 19), (0, 9, 4, 19), (3, 26, 0, 1)]
        boxes += [random_box(rng, grid) for _ in range(12)]
        for cap in (1, 2, 4):
            for box in boxes:
                ref = pu_distances_loops(box_mask(grid, box), cap).ravel()
                nodes = box_nodes(grid, box)
                assert np.array_equal(pu_distances(grid, box, nodes, cap), ref[nodes])
                outside = np.setdiff1d(np.arange(grid.n_nodes), nodes)
                assert np.all(ref[outside] == -1)  # box_nodes are all incident nodes

    def test_mask_distance_reference_matches_loops(self):
        # the whole-array breadth-first search the decomposition reference
        # uses, on masks that are not boxes
        rng = np.random.default_rng(2)
        for cap in (1, 2, 4):
            mask = rng.random((19, 26)) < 0.6
            assert np.array_equal(pu_distances_mask(mask, cap), pu_distances_loops(mask, cap))

    def test_zero_sum_entries_stay_stored(self):
        # on a 5 x 5 grid of 1 x sqrt(2) cells the element matrix couples
        # some corners with an exact 0.0; those entries stay in the pattern,
        # as the summed triplets keep them
        grid = CartesianGrid(5, 5, lx=1.0, ly=np.sqrt(2.0))
        kref = element_stiffness(1.0, grid.hx, grid.hy)
        assert np.any(kref == 0.0)
        coeff = CoefficientField(np.random.default_rng(3).uniform(1.0, 1e3, (5, 5)))
        node_map = np.arange(grid.n_nodes, dtype=np.int64)
        mine = assemble_partial_stiffness(grid, coeff, (0, 5, 0, 5), node_map, grid.n_nodes)
        ly, lx = np.nonzero(np.ones((5, 5), bool))
        rows, cols, vals = stiffness_triplets_loops(lx, ly, coeff.values[ly, lx], kref,
                                                    node_map, grid.nx)
        ref = sparse.coo_matrix((vals, (rows, cols)), shape=mine.shape).tocsr()
        assert _digest(mine) == _digest(ref)
        assert np.count_nonzero(mine.data == 0.0) > 0

    def test_decreasing_node_map_rejected(self):
        # the rows are written in window order, so a numbering that is not
        # increasing there would misplace them
        grid = CartesianGrid(4, 3)
        coeff = CoefficientField.constant(grid)
        node_map = np.arange(grid.n_nodes, dtype=np.int64)[::-1].copy()
        with pytest.raises(ValueError, match="increasing"):
            assemble_partial_stiffness(grid, coeff, (0, 4, 0, 3), node_map, grid.n_nodes)


def _digest(*arrays):
    """sha256 over the dtype, shape and bytes of arrays and csr matrices."""
    h = hashlib.sha256()
    for a in arrays:
        parts = (a.indptr, a.indices, a.data) if sparse.issparse(a) else (a,)
        for part in parts:
            h.update(f"{part.dtype}{part.shape}".encode())
            h.update(np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("nx,p,seed", [(64, 4, 7), (64, 4, 23), (128, 8, 7), (128, 8, 23)])
def test_blocks_match_coo_reference(nx, p, seed, monkeypatch):
    """The desk instance's matrices, bit for bit: A_free and f_free against
    the COO assembly of every node sliced by scipy, every local assembly
    against its COO assembly, and every slice the set-up takes against
    scipy's fancy indexing of the same matrix."""
    system = make_system(nx, contrast=1e6, seed=seed)
    grid = system.grid
    kref = element_stiffness(1.0, grid.hx, grid.hy)
    A_full = coo_stiffness(grid, system.coeff, np.ones((grid.ny, grid.nx), bool),
                           np.arange(grid.n_nodes), grid.n_nodes, kref)
    free, fixed = system.free_to_node, np.flatnonzero(system.node_to_free < 0)
    # the load alone: the same problem with zero Dirichlet data has no lift
    channel = BoundarySpec.mixed_flux_channel()
    zero = BoundarySpec(**{s: (c[0], 0.0) if c[0] == "dirichlet" else c
                           for s in SIDES for c in [getattr(channel, s)]})
    load = make_system(nx, contrast=1e6, seed=seed, bc=zero).f_free
    assert _digest(system.A_free.mat) == _digest(A_full[free][:, free])
    assert _digest(system.f_free) == _digest(load - A_full[free][:, fixed] @ system.lift[fixed])

    slices = []

    def spy(A, rows, cols=None):
        slices.append((A, rows, cols))
        return submatrix(A, rows, cols)

    submatrix = linalg.submatrix
    for module in (spectral, schwarz):
        monkeypatch.setattr(module, "submatrix", spy)
    assemblies = []
    local_stiffness = spectral.local_stiffness
    monkeypatch.setattr(spectral, "local_stiffness",
                        lambda *args: assemblies.append(args) or local_stiffness(*args))
    dec = build_decomposition(system, p, p, 2, 4)
    pu = build_partition_of_unity(dec)
    couplings = [spectral.geneo_coupling(system, dec, pu, i) for i in range(dec.n_subdomains)]
    for i in range(dec.n_subdomains):
        spectral.reduce_to_harmonic(system, dec, pu, i)
        spectral.geneo_eigenproblem(system, dec, pu, i, 10)
    schwarz.build_preconditioner(system, dec, pu, "AS2_geneo")
    # per subdomain: A11, A12 and A_omega[s, s]; the dofs0 block; three
    # blocks of A_omega and K_GammaGamma
    assert len(slices) == 8 * dec.n_subdomains
    for A, rows, cols in slices:
        ref = A[rows] if cols is None else A[rows][:, cols]
        assert _digest(submatrix(A, rows, cols)) == _digest(ref)

    masks = [box_mask(grid, sub.box) for sub in dec.subdomains]
    refs = {}
    for sub in dec.subdomains:
        refs[(sub.box_star, None, id(sub.boundary_star))] = mask_local_stiffness(
            system, box_mask(grid, sub.box_star), sub.boundary_star, kref)  # A22
        refs[(sub.box, None, id(sub.dofs))] = mask_local_stiffness(
            system, masks[sub.id], sub.dofs, kref)  # A_omega
        zone = mask_geneo_overlap(masks, sub.id)
        refs[(sub.box, "zone", id(sub.dofs))] = A_over = mask_local_stiffness(
            system, zone, sub.dofs, kref)
        chi = sparse.diags(pu.weights[sub.id])
        K, gamma = couplings[sub.id]
        assert np.array_equal(K.toarray(), (chi @ A_over @ chi).toarray())
    assert len(assemblies) == 3 * dec.n_subdomains + len(couplings)
    for s, box, dofs, *cells in assemblies:
        key = (box, "zone" if cells else None, id(dofs))
        assert _digest(local_stiffness(s, box, dofs, *cells)) == _digest(refs[key])
