import numpy as np
import scipy.sparse as sparse

from msras.decomp import box_nodes, pu_distances
from msras.grid import (
    CartesianGrid,
    CoefficientField,
    assemble_partial_stiffness,
    element_stiffness,
)
from tests.oracles import (
    box_mask,
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
