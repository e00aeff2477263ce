import numpy as np
import pytest

from msras.decomp import (
    box_nodes,
    build_decomposition,
    build_partition_of_unity,
    coloring_constant,
    overlap_zone,
    pu_distances,
)
from msras.errors import GridTooSmall
from msras.grid import BoundarySpec, CartesianGrid, element_stiffness
from msras.spectral import local_stiffness
from tests.conftest import PINNED_DECOMPOSITIONS, make_system
from tests.oracles import (
    box_mask,
    mask_decomposition,
    mask_geneo_overlap,
    mask_local_stiffness,
    mask_pu_weights,
    pu_distances_loops,
)


def reconstruct(decomp, pu, v):
    """sum_i extend(chi_i * restrict(v, dofs0(omega_i^*)))"""
    out = np.zeros_like(v)
    for sub in decomp.subdomains:
        loc = np.zeros(sub.dofs_star.size)
        loc[sub.star_positions(sub.dofs0_star)] = v[sub.dofs0_star]
        out[sub.dofs_star] += pu.on_star(sub) * loc
    return out


class TestBuildDecomposition:
    def test_single_subdomain_is_whole_domain(self):
        system = make_system(8)
        dec = build_decomposition(system, 1, 1, 1, 1)
        sub = dec.subdomains[0]
        assert sub.box == sub.box_star == (0, 8, 0, 8)
        assert dec.xi == 1 and dec.xi_star == 1
        assert np.array_equal(sub.dofs, np.arange(system.n_free))
        assert np.array_equal(sub.dofs0, np.arange(system.n_free))

    def test_2x2_overlap1_coloring_is_4(self):
        # 8x8 grid, 2x2 blocks, one overlap layer: the four subdomains all
        # meet in a band around the center, counted exhaustively per node
        system = make_system(8, bc=BoundarySpec.all_dirichlet())
        dec = build_decomposition(system, 2, 2, 1, 1)
        assert dec.xi == 4

    def test_dof_set_nesting(self, decomp16):
        for sub in decomp16.subdomains:
            assert np.all(np.isin(sub.dofs0, sub.dofs))
            assert np.all(np.isin(sub.dofs, sub.dofs_star))
            assert np.all(np.isin(sub.dofs0_star, sub.dofs_star))
            (x0, x1, y0, y1), (s0, s1, t0, t1) = sub.box, sub.box_star
            assert s0 <= x0 < x1 <= s1 and t0 <= y0 < y1 <= t1  # box inside box_star
            assert sub.boundary_star.size == sub.dofs_star.size - sub.dofs0_star.size

    def test_every_cell_covered(self, decomp16):
        grid = decomp16.grid
        union = np.zeros((grid.ny, grid.nx), dtype=bool)
        for sub in decomp16.subdomains:
            union |= box_mask(grid, sub.box)
        assert union.all()

    def test_interior_rule_cell_incidence(self):
        # a node is interior iff every incident cell is in the subdomain;
        # free Neumann-boundary nodes with all cells inside count as interior
        system = make_system(8)
        dec = build_decomposition(system, 2, 1, 1, 1)
        sub = dec.subdomains[0]
        cells_in = box_mask(system.grid, sub.box)
        node_of = system.free_to_node
        nx = system.grid.nx
        for dof in sub.dofs:
            node = node_of[dof]
            ix, iy = node % (nx + 1), node // (nx + 1)
            cells = [
                (cx, cy)
                for cx in (ix - 1, ix)
                for cy in (iy - 1, iy)
                if 0 <= cx < nx and 0 <= cy < system.grid.ny
            ]
            inside = all(cells_in[cy, cx] for cx, cy in cells)
            assert inside == (dof in set(sub.dofs0.tolist()))

    def test_oversampling_monotone(self):
        system = make_system(16)
        sizes = []
        xis = []
        for s in (1, 2, 3):
            dec = build_decomposition(system, 2, 2, 1, s)
            sizes.append([sub.dofs_star.size for sub in dec.subdomains])
            xis.append(dec.xi_star)
        for a, b in zip(sizes, sizes[1:]):
            assert all(x <= y for x, y in zip(a, b))
        assert xis == sorted(xis)

    def test_grid_too_small(self):
        system = make_system(4)
        with pytest.raises(GridTooSmall):
            build_decomposition(system, 8, 8, 1, 1)
        with pytest.raises(GridTooSmall):
            build_decomposition(system, 2, 2, 0, 1)


class TestColoringConstant:
    def test_disjoint_domains(self):
        grid = CartesianGrid(4, 4)
        assert coloring_constant(grid, [(0, 2, 0, 2), (3, 4, 3, 4)]) == 1  # no shared node

    def test_shared_corner_node(self):
        grid = CartesianGrid(4, 4)
        assert coloring_constant(grid, [(0, 2, 0, 2), (2, 4, 2, 4)]) == 2

    def test_identical_domains(self):
        grid = CartesianGrid(3, 3)
        assert coloring_constant(grid, [(0, 3, 0, 3)] * 5) == 5


class TestPartitionOfUnity:
    def test_single_subdomain_weights_one(self):
        system = make_system(8)
        dec = build_decomposition(system, 1, 1, 1, 1)
        pu = build_partition_of_unity(dec)
        assert np.allclose(pu.weights[0], 1.0)

    def test_bounds_and_boundary_zero(self, decomp16, pu16):
        system = decomp16.system
        for sub in decomp16.subdomains:
            w = pu16.weights[sub.id]
            assert np.all(w >= 0.0) and np.all(w <= 1.0)
            interior = np.isin(sub.dofs, sub.dofs0)
            assert np.all(w[~interior] == 0.0)  # chi = 0 where support leaves omega_i

    def test_partition_sums_to_one(self, decomp16, pu16):
        total = np.zeros(decomp16.system.n_free)
        for sub in decomp16.subdomains:
            total[sub.dofs] += pu16.weights[sub.id]
        assert np.abs(total - 1.0).max() <= 1e-14

    def test_single_cover_weight_one(self, decomp16, pu16):
        covered = np.zeros(decomp16.system.n_free, dtype=int)
        for sub in decomp16.subdomains:
            covered[sub.dofs] += 1
        for sub in decomp16.subdomains:
            only_here = covered[sub.dofs] == 1
            assert np.all(pu16.weights[sub.id][only_here] == 1.0)

    def test_reconstruction_identity(self, decomp16, pu16, rng):
        n = decomp16.system.n_free
        for _ in range(20):
            v = rng.standard_normal(n)
            r = reconstruct(decomp16, pu16, v)
            assert np.abs(r - v).max() <= 1e-13 * np.abs(v).max()

    @pytest.mark.parametrize("config", [*PINNED_DECOMPOSITIONS,
                                        (20, 50, "neumann_x", 2, 3, 1, 1),
                                        (20, 50, "neumann_x", 5, 8, 3, 1)])
    def test_support_is_interior_dofs(self, config):
        # supp chi_i = dofs0(omega_i): the harmonic reduction takes chi_i's
        # rows from dofs0(omega_i), and each basis keeps chi_i phi there
        # only, on the rows the glue writes it to
        nx, ny, bc, px, py, overlap, oversampling = config
        dec = build_decomposition(_system((nx, ny), bc), px, py, overlap, oversampling)
        pu = build_partition_of_unity(dec)
        for sub in dec.subdomains:
            assert np.array_equal(sub.dofs[pu.weights[sub.id] > 0.0], sub.dofs0), sub.id

    def test_pu_apply_support(self, decomp16, pu16, rng):
        # chi_i applied on dofs(omega_i^*) vanishes off the interior of omega_i
        sub = decomp16.subdomains[0]
        v = rng.standard_normal(sub.dofs_star.size)
        out = pu16.on_star(sub) * v
        inside = np.isin(sub.dofs_star, sub.dofs0)
        assert np.all(out[~inside] == 0.0)

    def test_pu_apply_on_ones_gives_chi(self, decomp16, pu16):
        # chi_i extended by zero: the weights on dofs(omega_i), 0 elsewhere
        sub = decomp16.subdomains[1]
        ref = np.zeros(sub.dofs_star.size)
        ref[np.isin(sub.dofs_star, sub.dofs)] = pu16.weights[1]
        assert np.array_equal(pu16.on_star(sub), ref)


def box_distances(grid, box, cap):
    """pu_distances on the box's node range, laid out as the loop reference's
    (ny+1, nx+1) array with -1 on nodes with no cell in the box."""
    nodes = box_nodes(grid, box)
    out = np.full(grid.n_nodes, -1, dtype=np.int64)
    out[nodes] = pu_distances(grid, box, nodes, cap)
    return out.reshape(grid.ny + 1, grid.nx + 1)


class TestDistanceSemantics:
    def test_rectangle_distances(self):
        # 6x6 block: boundary ring 0, next ring 1, capped at 2 inside
        grid = CartesianGrid(8, 8)
        box = (1, 7, 1, 7)
        d = box_distances(grid, box, 2)
        assert d[0, 0] == -1  # no incident cell
        assert d[1, 1] == 0  # support leaves the set
        assert d[2, 2] == 1
        assert d[3, 3] == 2
        assert d[4, 4] == 2  # capped
        assert np.array_equal(d, pu_distances_loops(box_mask(grid, box), 2))

    def test_full_grid_interior_positive(self):
        grid = CartesianGrid(4, 4)
        d = box_distances(grid, (0, 4, 0, 4), 3)
        # no internal boundary at all: every node saturates at the cap
        assert np.all(d == 3)
        assert np.array_equal(d, pu_distances_loops(np.ones((4, 4), dtype=bool), 3))

    def test_sides_on_the_domain_boundary_do_not_count(self):
        grid = CartesianGrid(9, 6)
        box = (0, 5, 2, 6)  # touches left and top
        for cap in (1, 3, 9):
            assert np.array_equal(box_distances(grid, box, cap),
                                  pu_distances_loops(box_mask(grid, box), cap))


# (nx, ny) x boundary x (px, py) x overlap x oversampling against the mask
# builder; each grid and boundary runs every block layout and every overlap
# and every oversampling value, in a third of their combinations. Both
# presets constrain the left and right sides, so "neumann_x" (free left and
# right sides) checks the interior rule along x on the domain boundary.
_GRIDS = ((16, 16), (37, 23), (20, 50), (64, 64))
_BOUNDARIES = ("mixed", "dirichlet", "neumann_x")
_BLOCKS = ((1, 1), (2, 1), (3, 2), (4, 4), (5, 8), (8, 8))
_OVERSAMPLING = (1, 2, 4)
_CONFIGS = [
    (g, bc, b, ov, os_)
    for g in _GRIDS
    for bc in _BOUNDARIES
    for bi, b in enumerate(_BLOCKS)
    for ov in (1, 2, 3)
    for oi, os_ in enumerate(_OVERSAMPLING)
    if (bi + ov + oi) % 3 == 0 and (g, bc) != ((64, 64), "neumann_x")
]
_MATRIX_CONFIGS = [
    (g, bc, b, ov, os_) for (g, bc, b, ov, os_) in _CONFIGS
    if g != (64, 64) and bc != "neumann_x" and b in ((2, 1), (3, 2), (4, 4))
]


def _system(grid_shape, bc):
    nx, ny = grid_shape
    spec = {
        "mixed": BoundarySpec.mixed_flux_channel(),
        "dirichlet": BoundarySpec.all_dirichlet(),
        "neumann_x": BoundarySpec(left=("neumann", 0.0), right=("neumann", 1.0),
                                  bottom=("dirichlet", 0.0), top=("dirichlet", 1.0)),
    }[bc]
    return make_system(nx, ny, contrast=1e4, bc=spec)


def _same_csr(a, b):
    a, b = a.tocsr(), b.tocsr()
    return all(np.array_equal(x, y) for x, y in
               ((a.indptr, b.indptr), (a.indices, b.indices), (a.data, b.data)))


class TestBoxesMatchMaskReference:
    """Box arithmetic reproduces the full-grid mask builder bit for bit."""

    @pytest.mark.parametrize("grid_shape,bc", sorted({(c[0], c[1]) for c in _CONFIGS}))
    def test_dof_sets_pu_and_coloring(self, grid_shape, bc):
        system = _system(grid_shape, bc)
        for g, b, blocks, ov, os_ in _CONFIGS:
            if (g, b) != (grid_shape, bc):
                continue
            dec = build_decomposition(system, *blocks, ov, os_)
            pu = build_partition_of_unity(dec)
            ref, xi, xi_star = mask_decomposition(system, *blocks, ov, os_)
            weights = mask_pu_weights(system, ref, ov + 1)
            assert (dec.xi, dec.xi_star) == (xi, xi_star), (blocks, ov, os_)
            for sub, r, w in zip(dec.subdomains, ref, weights, strict=True):
                for name in ("dofs", "dofs0", "dofs_star", "dofs0_star", "boundary_star"):
                    mine = getattr(sub, name)
                    assert mine.dtype == r[name].dtype and np.array_equal(mine, r[name]), name
                assert np.array_equal(box_mask(system.grid, sub.box), r["cells"])
                assert np.array_equal(box_mask(system.grid, sub.box_star), r["cells_star"])
                assert np.array_equal(pu.weights[sub.id], w), (blocks, ov, os_, sub.id)

    @pytest.mark.parametrize("grid_shape,bc,blocks,ov,os_", _MATRIX_CONFIGS)
    def test_local_and_geneo_matrices(self, grid_shape, bc, blocks, ov, os_):
        system = _system(grid_shape, bc)
        grid = system.grid
        kref = element_stiffness(1.0, grid.hx, grid.hy)
        dec = build_decomposition(system, *blocks, ov, os_)
        masks = [box_mask(grid, s.box) for s in dec.subdomains]
        for sub in dec.subdomains:
            cells_star = box_mask(grid, sub.box_star)
            zone = mask_geneo_overlap(masks, sub.id)
            x0, x1, y0, y1 = sub.box
            window = np.zeros_like(zone)
            window[y0:y1, x0:x1] = overlap_zone(dec, sub.id)
            assert np.array_equal(window, zone)
            pairs = (
                (local_stiffness(system, sub.box_star, sub.dofs_star),  # A_star
                 mask_local_stiffness(system, cells_star, sub.dofs_star, kref)),
                (local_stiffness(system, sub.box, sub.dofs_star),  # A_omega
                 mask_local_stiffness(system, masks[sub.id], sub.dofs_star, kref)),
                (local_stiffness(system, sub.box, sub.dofs, overlap_zone(dec, sub.id)),
                 mask_local_stiffness(system, zone, sub.dofs, kref)),  # GenEO overlap
            )
            for mine, ref in pairs:
                assert _same_csr(mine, ref), (blocks, ov, os_, sub.id)

    def test_subdomains_hold_no_grid_arrays(self, decomp16):
        for sub in decomp16.subdomains:
            for name, value in vars(sub).items():
                assert np.ndim(value) < 2 or isinstance(value, tuple), name
            assert len(sub.box) == len(sub.box_star) == 4
