import numpy as np
import scipy.sparse as sparse

from msras.decomp import pu_distances
from msras.grid import CartesianGrid, CoefficientField, assemble_partial_stiffness, element_stiffness
from tests.oracles import pu_distances_loops, stiffness_triplets_loops


class TestBackendEquivalence:
    """The vectorized production code against the plain-loop references."""

    def test_stiffness_triplets_identical(self):
        rng = np.random.default_rng(0)
        grid = CartesianGrid(23, 17, lx=23 * 0.11, ly=17 * 0.047)
        mask = rng.random((grid.ny, grid.nx)) < 0.7
        coeff = CoefficientField(rng.uniform(0.5, 1e6, (grid.ny, grid.nx)))
        node_map = np.arange(grid.n_nodes, dtype=np.int64)
        node_map[rng.choice(node_map.size, 40, replace=False)] = -1
        mine = assemble_partial_stiffness(grid, coeff, mask, node_map, grid.n_nodes)
        cy, cx = np.nonzero(mask)
        kref = element_stiffness(1.0, grid.hx, grid.hy)
        rows, cols, vals = stiffness_triplets_loops(
            cx, cy, coeff.values[cy, cx], kref, node_map, grid.nx
        )
        ref = sparse.coo_matrix((vals, (rows, cols)), shape=mine.shape).tocsr()
        for a, b in ((mine.indptr, ref.indptr), (mine.indices, ref.indices),
                     (mine.data, ref.data)):
            assert np.array_equal(a, b)

    def test_pu_distances_identical(self):
        rng = np.random.default_rng(1)
        for cap in (1, 2, 4):
            mask = rng.random((19, 26)) < 0.6
            assert np.array_equal(pu_distances(mask, cap), pu_distances_loops(mask, cap))
