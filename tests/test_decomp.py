import json

import numpy as np
import pytest

from msras.decomp import (
    build_decomposition,
    build_partition_of_unity,
    coloring_constant,
    decomposition_summary,
    export_decomposition_json,
    pu_apply,
    pu_distances,
)
from msras.errors import DimensionMismatch, GridTooSmall
from msras.grid import BoundarySpec
from tests.conftest import make_system


def reconstruct(decomp, pu, v):
    """sum_i extend(chi_i * restrict(v, dofs0(omega_i^*)))"""
    out = np.zeros_like(v)
    for sub in decomp.subdomains:
        loc = np.zeros(sub.dofs_star.size)
        loc[sub.star_positions(sub.dofs0_star)] = v[sub.dofs0_star]
        out[sub.dofs_star] += pu_apply(pu, decomp, sub.id, loc)
    return out


class TestBuildDecomposition:
    def test_single_subdomain_is_whole_domain(self):
        system = make_system(8)
        dec = build_decomposition(system, 1, 1, 1, 1)
        sub = dec.subdomains[0]
        assert sub.cells.all() and sub.cells_star.all()
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
            assert np.all(sub.cells_star[sub.cells])
            assert sub.boundary_star.size == sub.dofs_star.size - sub.dofs0_star.size

    def test_every_cell_covered(self, decomp16):
        union = np.zeros_like(decomp16.subdomains[0].cells)
        for sub in decomp16.subdomains:
            union |= sub.cells
        assert union.all()

    def test_interior_rule_cell_incidence(self):
        # a node is interior iff every incident cell is in the subdomain;
        # free Neumann-boundary nodes with all cells inside count as interior
        system = make_system(8)
        dec = build_decomposition(system, 2, 1, 1, 1)
        sub = dec.subdomains[0]
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
            inside = all(sub.cells[cy, cx] for cx, cy in cells)
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
        a = np.zeros((4, 4), dtype=bool)
        b = np.zeros((4, 4), dtype=bool)
        a[:2, :2] = True
        b[3:, 3:] = True  # no shared nodes either
        assert coloring_constant([a, b]) == 1

    def test_identical_domains(self):
        a = np.ones((3, 3), dtype=bool)
        assert coloring_constant([a] * 5) == 5


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

    def test_pu_apply_support(self, decomp16, pu16, rng):
        sub = decomp16.subdomains[0]
        v = rng.standard_normal(sub.dofs_star.size)
        out = pu_apply(pu16, decomp16, 0, v)
        inside = np.isin(sub.dofs_star, sub.dofs0)
        assert np.all(out[~inside] == 0.0)

    def test_pu_apply_dimension_checked(self, decomp16, pu16):
        with pytest.raises(DimensionMismatch):
            pu_apply(pu16, decomp16, 0, np.ones(3))

    def test_pu_apply_on_ones_gives_chi(self, decomp16, pu16):
        sub = decomp16.subdomains[1]
        out = pu_apply(pu16, decomp16, 1, np.ones(sub.dofs_star.size))
        assert np.array_equal(out, pu16.on_star(sub))


class TestSummary:
    def test_summary_roundtrip(self, decomp16, tmp_path):
        path = tmp_path / "dec.json"
        export_decomposition_json(path, decomp16)
        data = json.loads(path.read_text())
        assert data["xi"] == decomp16.xi
        assert len(data["subdomains"]) == 4
        s = decomposition_summary(decomp16)["subdomains"][0]
        assert s["dofs0_star"] <= s["dofs_star"]


class TestDistanceSemantics:
    def test_rectangle_distances(self):
        # 6x6 block: boundary ring 0, next ring 1, capped at 2 inside
        mask = np.zeros((8, 8), dtype=bool)
        mask[1:7, 1:7] = True
        d = pu_distances(mask, 2)
        assert d[0, 0] == -1  # no incident cell
        assert d[1, 1] == 0  # support leaves the set
        assert d[2, 2] == 1
        assert d[3, 3] == 2
        assert d[4, 4] == 2  # capped

    def test_full_grid_interior_positive(self):
        mask = np.ones((4, 4), dtype=bool)
        d = pu_distances(mask, 3)
        # no internal boundary at all: every node saturates at the cap
        assert np.all(d == 3)
