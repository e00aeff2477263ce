import numpy as np
import pytest

from msras.errors import AllNeumann, InvalidBlockCount, NonpositiveCoefficient
from msras.grid import (
    BoundarySpec,
    CartesianGrid,
    CoefficientField,
    assemble,
    element_stiffness,
    export_solution_csv,
    gaussian_bump_source,
    skyscraper_coefficient,
)
from msras.linalg import factorize

# Exact Q1 element matrices from symbolic integration of the bilinear basis
# on [0,hx]x[0,hy], corner order (0,0),(hx,0),(0,hy),(hx,hy).
K_UNIT = np.array(
    [
        [2 / 3, -1 / 6, -1 / 6, -1 / 3],
        [-1 / 6, 2 / 3, -1 / 3, -1 / 6],
        [-1 / 6, -1 / 3, 2 / 3, -1 / 6],
        [-1 / 3, -1 / 6, -1 / 6, 2 / 3],
    ]
)
K_ANISO = np.array(  # coeff 3, hx = 1/2, hy = 1/4
    [
        [5 / 2, 1 / 2, -7 / 4, -5 / 4],
        [1 / 2, 5 / 2, -5 / 4, -7 / 4],
        [-7 / 4, -5 / 4, 5 / 2, 1 / 2],
        [-5 / 4, -7 / 4, 1 / 2, 5 / 2],
    ]
)


class TestElementStiffness:
    def test_unit_square(self):
        K = element_stiffness(1.0, 1.0, 1.0)
        assert np.allclose(K, K_UNIT, atol=1e-15)

    def test_anisotropic_cell(self):
        K = element_stiffness(3.0, 0.5, 0.25)
        assert np.allclose(K, K_ANISO, atol=1e-14)

    def test_linear_in_coefficient(self):
        assert np.allclose(element_stiffness(7.5, 0.3, 0.4), 7.5 * element_stiffness(1.0, 0.3, 0.4))

    def test_row_sums_vanish(self):
        K = element_stiffness(2.0, 0.1, 0.7)
        assert np.allclose(K.sum(axis=1), 0.0, atol=1e-14)

    def test_nonpositive_coefficient(self):
        with pytest.raises(NonpositiveCoefficient):
            element_stiffness(0.0, 1.0, 1.0)


class TestAssemble:
    def test_two_by_two_hand_assembly(self):
        # one interior node: A = [8/3], f = hx*hy*1 = 0.25
        grid = CartesianGrid(2, 2)
        coeff = CoefficientField.constant(grid, 1.0)
        bc = BoundarySpec.all_dirichlet(0.0)
        system = assemble(grid, coeff, bc, source=lambda x, y: np.ones_like(x))
        assert system.n_free == 1
        assert system.A_free.mat.toarray()[0, 0] == pytest.approx(8.0 / 3.0, abs=1e-14)
        assert system.f_free[0] == pytest.approx(0.25, abs=1e-15)

    def test_zero_data_zero_solution(self):
        grid = CartesianGrid(7, 5)
        system = assemble(grid, CoefficientField.constant(grid), BoundarySpec.all_dirichlet(0.0))
        assert np.allclose(system.solve_direct(), 0.0)

    def test_constant_dirichlet_reproduced(self):
        grid = CartesianGrid(6, 9)
        system = assemble(grid, CoefficientField.constant(grid), BoundarySpec.all_dirichlet(5.0))
        full = system.expand(system.solve_direct())
        assert np.allclose(full, 5.0, atol=1e-12)

    def test_patch_test_linear_exact(self):
        # Q1 reproduces u = a*x + b*y + c exactly under pure Dirichlet data
        grid = CartesianGrid(9, 8)
        lin = lambda x, y: 2.0 * x - 3.0 * y + 0.5
        bc = BoundarySpec(
            left=("dirichlet", lin),
            right=("dirichlet", lin),
            bottom=("dirichlet", lin),
            top=("dirichlet", lin),
        )
        rng = np.random.default_rng(0)
        coeff = CoefficientField.constant(grid, 2.5)
        system = assemble(grid, coeff, bc)
        full = system.expand(system.solve_direct())
        coords = grid.node_coords()
        exact = lin(coords[:, 0], coords[:, 1])
        assert np.abs(full - exact).max() <= 1e-10

    def test_neumann_flux_linear_exact(self):
        # -u'' = 0, u(0)=0, flux 2 at x=1, zero flux top/bottom: u = 2x
        grid = CartesianGrid(8, 6)
        bc = BoundarySpec(
            left=("dirichlet", 0.0),
            right=("neumann", 2.0),
            bottom=("neumann", 0.0),
            top=("neumann", 0.0),
        )
        system = assemble(grid, CoefficientField.constant(grid), bc)
        full = system.expand(system.solve_direct())
        coords = grid.node_coords()
        assert np.abs(full - 2.0 * coords[:, 0]).max() <= 1e-10

    def test_symmetry_and_spd(self, system16):
        A = system16.A_free.mat
        assert (A - A.T).nnz == 0
        factorize(system16.A_free)  # SPD iff this succeeds

    def test_load_consistency(self):
        grid = CartesianGrid(5, 5)
        coeff = CoefficientField.constant(grid)
        src = lambda x, y: x + y
        hom = assemble(grid, coeff, BoundarySpec.all_dirichlet(0.0), source=src)
        assert np.all(hom.lift == 0.0)
        # pure load vector: nodal quadrature of the source
        coords = grid.node_coords()[hom.free_to_node]
        pure = grid.hx * grid.hy * src(coords[:, 0], coords[:, 1])
        assert np.allclose(hom.f_free, pure, atol=1e-15)

    def test_coefficient_scaling(self):
        grid = CartesianGrid(6, 6)
        bc = BoundarySpec.all_dirichlet(lambda x, y: x * y)
        s1 = assemble(grid, CoefficientField.constant(grid, 1.0), bc)
        s4 = assemble(grid, CoefficientField.constant(grid, 4.0), bc)
        assert abs(s4.A_free.mat - 4.0 * s1.A_free.mat).max() <= 1e-14
        u1 = s1.expand(s1.solve_direct())
        u4 = s4.expand(s4.solve_direct())
        assert np.abs(u1 - u4).max() <= 1e-11

    def test_all_neumann_rejected(self):
        with pytest.raises(AllNeumann):
            BoundarySpec(
                left=("neumann", 0.0),
                right=("neumann", 0.0),
                bottom=("neumann", 0.0),
                top=("neumann", 0.0),
            )


class TestSkyscraper:
    def test_contrast_one_is_constant(self):
        grid = CartesianGrid(16, 16)
        field = skyscraper_coefficient(grid, 1.0, (4, 4), 0.5, 3)
        assert np.all(field.values == 1.0)

    def test_zero_fraction_is_constant(self):
        grid = CartesianGrid(16, 16)
        field = skyscraper_coefficient(grid, 100.0, (4, 4), 0.0, 3)
        assert np.all(field.values == 1.0)

    def test_deterministic_in_seed(self):
        grid = CartesianGrid(32, 32)
        a = skyscraper_coefficient(grid, 1e6, (8, 8), 0.3, 11)
        b = skyscraper_coefficient(grid, 1e6, (8, 8), 0.3, 11)
        assert np.array_equal(a.values, b.values)
        c = skyscraper_coefficient(grid, 1e6, (8, 8), 0.3, 12)
        assert not np.array_equal(a.values, c.values)

    def test_bounds_recorded(self):
        grid = CartesianGrid(16, 16)
        field = skyscraper_coefficient(grid, 50.0, (4, 4), 0.5, 3)
        assert set(np.unique(field.values)) == {1.0, 50.0}

    def test_invalid_blocks(self):
        grid = CartesianGrid(8, 8)
        with pytest.raises(InvalidBlockCount):
            skyscraper_coefficient(grid, 10.0, (16, 4), 0.5, 0)


class TestSource:
    def test_peak_value(self):
        assert gaussian_bump_source(0.15, 0.55) == pytest.approx(1000.0, abs=1e-12)

    def test_unit_offset_in_x(self):
        # direct evaluation: amplitude decays by e^-1 one unit away in x
        assert gaussian_bump_source(1.15, 0.55) == pytest.approx(1000.0 * np.exp(-1.0), rel=1e-12)

    def test_symmetric_in_y(self):
        for t in (0.05, 0.2, 0.4):
            assert gaussian_bump_source(0.15, 0.55 + t) == pytest.approx(
                gaussian_bump_source(0.15, 0.55 - t), rel=1e-14
            )


class TestIO:
    def test_raster_roundtrip(self, tmp_path):
        grid = CartesianGrid(6, 4)
        field = skyscraper_coefficient(grid, 9.0, (3, 2), 0.5, 5)
        path = tmp_path / "coeff.txt"
        with open(path, "w") as fh:
            fh.write("6 4\n")
            np.savetxt(fh, field.values, fmt="%.17g")
        back = CoefficientField.from_raster(grid, path)
        assert np.array_equal(field.values, back.values)

    def test_raster_header_checked(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 2\n1 1 1\n1 1 1\n")
        with pytest.raises(ValueError):
            CoefficientField.from_raster(CartesianGrid(4, 4), path)

    def test_solution_csv(self, tmp_path):
        grid = CartesianGrid(2, 2)
        u = np.arange(grid.n_nodes, dtype=float)
        path = tmp_path / "sol.csv"
        export_solution_csv(path, grid, u)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,y,u"
        assert len(lines) == grid.n_nodes + 1
        x, y, val = lines[5].split(",")  # node 4 = center
        assert (float(x), float(y), float(val)) == (0.5, 0.5, 4.0)
