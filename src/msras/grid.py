"""Cartesian Q1 discretization of heterogeneous diffusion.

Grid, per-cell coefficient fields, mixed Dirichlet/Neumann boundary data with
lifting, and stiffness/load assembly. Cells carry a constant coefficient, so
the 2x2 Gauss element integral is exact and precomputable; the global matrix
is built from per-cell COO triplets of the reference element stiffness.

Conventions: nodes are numbered row-major, node(ix, iy) = iy*(nx+1) + ix;
cell (cx, cy) has corners [n00, n10, n01, n11]. Dirichlet wins at corners
where two sides with different condition types meet.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sparse

from .errors import AllNeumann, InvalidBlockCount, NonpositiveCoefficient
from .linalg import SparseSym, factorize

SIDES = ("left", "right", "bottom", "top")


@dataclass(frozen=True)
class CartesianGrid:
    nx: int
    ny: int
    lx: float = 1.0
    ly: float = 1.0

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2:
            raise ValueError("grid needs at least 2x2 cells")
        if self.lx <= 0 or self.ly <= 0:
            raise ValueError("domain side lengths must be positive")

    @property
    def hx(self):
        return self.lx / self.nx

    @property
    def hy(self):
        return self.ly / self.ny

    @property
    def n_nodes(self):
        return (self.nx + 1) * (self.ny + 1)

    def node_coords(self):
        """(n_nodes, 2) array of node coordinates, row-major order."""
        x = np.linspace(0.0, self.lx, self.nx + 1)
        y = np.linspace(0.0, self.ly, self.ny + 1)
        X, Y = np.meshgrid(x, y)
        return np.column_stack([X.ravel(), Y.ravel()])


class CoefficientField:
    """Per-cell scalar diffusion coefficient with declared bounds."""

    def __init__(self, values, kind="constant"):
        values = np.asarray(values, dtype=float)
        bad = ~(np.isfinite(values) & (values > 0.0))  # also NaN, where <= 0 is false
        if np.any(bad):
            cy, cx = np.argwhere(bad)[0]
            raise NonpositiveCoefficient(
                f"coefficient values must be finite and positive: cell (cx, cy) = "
                f"({cx}, {cy}) is {values[cy, cx]}"
            )
        self.values = values  # shape (ny, nx)
        self.kind = kind
        self.alpha = float(values.min())
        self.beta = float(values.max())

    @classmethod
    def constant(cls, grid, value=1.0):
        if value <= 0:
            raise NonpositiveCoefficient(f"constant coefficient {value} <= 0")
        return cls(np.full((grid.ny, grid.nx), float(value)), kind="constant")

    @classmethod
    def from_raster(cls, grid, path):
        """Read a plain-text raster: first line "nx ny", then ny rows of nx
        values, row cy=0 first."""
        with open(path) as fh:
            nx, ny = map(int, fh.readline().split())
            data = np.loadtxt(fh)
        data = np.atleast_2d(data)
        if data.shape != (ny, nx):
            raise ValueError(f"raster body is {data.shape}, header says {(ny, nx)}")
        if (nx, ny) != (grid.nx, grid.ny):
            raise ValueError(f"raster is {nx}x{ny}, grid is {grid.nx}x{grid.ny}")
        return cls(data, kind="raster")


def skyscraper_coefficient(grid, contrast, blocks, inclusion_fraction, seed):
    """Piecewise-constant high-contrast field: background 1, a seeded random
    subset of bx-by-by blocks set to `contrast`."""
    bx, by = blocks
    if contrast < 1.0:
        raise NonpositiveCoefficient("contrast must be >= 1")
    if not (1 <= bx <= grid.nx and 1 <= by <= grid.ny):
        raise InvalidBlockCount(f"blocks {blocks} incompatible with grid {grid.nx}x{grid.ny}")
    if not (0.0 <= inclusion_fraction <= 1.0):
        raise ValueError("inclusion_fraction must lie in [0, 1]")
    values = np.ones((grid.ny, grid.nx))
    n_blocks = bx * by
    n_pick = int(round(inclusion_fraction * n_blocks))
    if contrast > 1.0 and n_pick > 0:
        rng = np.random.default_rng(seed)
        picked = rng.choice(n_blocks, size=n_pick, replace=False)
        x_edges = np.linspace(0, grid.nx, bx + 1).astype(int)
        y_edges = np.linspace(0, grid.ny, by + 1).astype(int)
        for b in picked:
            jx, jy = int(b % bx), int(b // bx)
            values[y_edges[jy] : y_edges[jy + 1], x_edges[jx] : x_edges[jx + 1]] = contrast
    return CoefficientField(values, kind="skyscraper")


def gaussian_bump_source(x, y):
    """Anisotropic Gaussian bump centred at (0.15, 0.55), amplitude 1000."""
    return 1000.0 * np.exp(-((x - 0.15) ** 2) - 10.0 * (y - 0.55) ** 2)


@dataclass(frozen=True)
class BoundarySpec:
    """Per-side boundary condition: ("dirichlet", g) with g a constant or a
    callable g(x, y), or ("neumann", q) with a constant flux q."""

    left: tuple = ("dirichlet", 0.0)
    right: tuple = ("dirichlet", 0.0)
    bottom: tuple = ("dirichlet", 0.0)
    top: tuple = ("dirichlet", 0.0)

    def __post_init__(self):
        for side in SIDES:
            kind, _ = getattr(self, side)
            if kind not in ("dirichlet", "neumann"):
                raise ValueError(f"unknown condition {kind!r} on side {side!r}")
        if not any(getattr(self, s)[0] == "dirichlet" for s in SIDES):
            raise AllNeumann("at least one side must be Dirichlet")

    @classmethod
    def all_dirichlet(cls, g=0.0):
        bc = ("dirichlet", g)
        return cls(left=bc, right=bc, bottom=bc, top=bc)

    @classmethod
    def mixed_flux_channel(cls):
        """Left u=10, right u=-10, flux +1 on top and -1 on bottom."""
        return cls(
            left=("dirichlet", 10.0),
            right=("dirichlet", -10.0),
            top=("neumann", 1.0),
            bottom=("neumann", -1.0),
        )


def element_stiffness(coeff, hx, hy):
    """Exact Q1 element stiffness for a constant coefficient on an hx-by-hy
    cell, corner order [(0,0), (hx,0), (0,hy), (hx,hy)]."""
    if coeff <= 0:
        raise NonpositiveCoefficient(f"coefficient {coeff} <= 0")
    kx = np.array([[1.0, -1.0], [-1.0, 1.0]]) / hx
    ky = np.array([[1.0, -1.0], [-1.0, 1.0]]) / hy
    mx = np.array([[2.0, 1.0], [1.0, 2.0]]) * (hx / 6.0)
    my = np.array([[2.0, 1.0], [1.0, 2.0]]) * (hy / 6.0)
    return coeff * (np.kron(my, kx) + np.kron(ky, mx))


@dataclass
class AssembledSystem:
    """Free-dof linear system with Dirichlet lifting.

    A_free is SPD on the free dofs; f_free already carries the Neumann edge
    terms and the lifting correction -a(u_D, .). The full solution is
    lift + expand(u_free).
    """

    grid: CartesianGrid
    coeff: CoefficientField
    A_free: SparseSym
    f_free: np.ndarray
    lift: np.ndarray
    free_to_node: np.ndarray
    node_to_free: np.ndarray
    dirichlet_nodes: np.ndarray
    _factor: object = field(default=None, repr=False)

    @property
    def n_free(self):
        return self.free_to_node.shape[0]

    def expand(self, u_free):
        full = self.lift.copy()
        full[self.free_to_node] += u_free
        return full

    def a_norm(self, v_free):
        return float(np.sqrt(max(v_free @ (self.A_free @ v_free), 0.0)))

    def factor(self):
        if self._factor is None:
            self._factor = factorize(self.A_free)
        return self._factor

    def solve_direct(self):
        return self.factor().solve(self.f_free)


def _dirichlet_value(cond, xs, ys):
    g = cond[1]
    return g(xs, ys) if callable(g) else np.full_like(np.asarray(xs, dtype=float), float(g))


def assemble_partial_stiffness(grid, coeff, box, node_map, n_local, cells=None):
    """Stiffness over the cells of `box` = (x0, x1, y0, y1), or over those
    selected by the (y1-y0, x1-x0) bool mask `cells`, on the dof numbering of
    `node_map`: one entry per node of the box's window (row-major, nodes
    x0..x1 by y0..y1), -1 for excluded nodes. Shared by the global assembly
    (the whole-domain box) and all subdomain-local assemblies.

    Triplets come one 4x4 block per cell, cells in row-major order and
    entries in row-major (i, j) order; entries whose row or column maps to -1
    are dropped. The fixed order makes the CSR sums deterministic."""
    x0, x1, y0, y1 = box
    if cells is None:
        cells = np.ones((y1 - y0, x1 - x0), dtype=bool)
    ly, lx = np.nonzero(cells)
    width = x1 - x0 + 1  # nodes per window row
    n00 = ly * width + lx
    corners = np.stack([n00, n00 + 1, n00 + width, n00 + width + 1], axis=1)
    mapped = node_map[corners]  # (ncells, 4)
    rows = np.repeat(mapped, 4, axis=1).reshape(-1)
    cols = np.tile(mapped, (1, 4)).reshape(-1)
    kref = element_stiffness(1.0, grid.hx, grid.hy)
    vals = (coeff.values[ly + y0, lx + x0][:, None, None] * kref[None, :, :]).reshape(-1)
    keep = (rows >= 0) & (cols >= 0)
    return sparse.coo_matrix(
        (vals[keep], (rows[keep], cols[keep])), shape=(n_local, n_local)
    ).tocsr()


def assemble(grid, coeff, bc, source=None):
    """Assemble the free-dof system for -div(A grad u) = f with the given
    boundary spec.

    The source, a callable f(x, y) on node coordinates (None for f = 0),
    enters via nodal quadrature hx*hy*f(x_k) weighted by the fraction of
    surrounding cells present; a constant Neumann flux enters by
    trapezoidal edge quadrature. Nonhomogeneous Dirichlet data is eliminated
    by lifting, keeping A_free SPD.
    """
    if coeff.values.shape != (grid.ny, grid.nx):
        raise ValueError("coefficient field does not match the grid")
    nx, ny = grid.nx, grid.ny
    n_nodes = grid.n_nodes
    coords = grid.node_coords()

    # Dirichlet node set (corner rule: any Dirichlet side claims its corner).
    dir_mask = np.zeros(n_nodes, dtype=bool)
    ix = np.arange(n_nodes) % (nx + 1)
    iy = np.arange(n_nodes) // (nx + 1)
    side_nodes = {
        "left": ix == 0,
        "right": ix == nx,
        "bottom": iy == 0,
        "top": iy == ny,
    }
    for side in SIDES:
        if getattr(bc, side)[0] == "dirichlet":
            dir_mask |= side_nodes[side]

    lift = np.zeros(n_nodes)
    for side in SIDES:
        cond = getattr(bc, side)
        if cond[0] != "dirichlet":
            continue
        sel = side_nodes[side]
        lift[sel] = _dirichlet_value(cond, coords[sel, 0], coords[sel, 1])

    free_to_node = np.nonzero(~dir_mask)[0].astype(np.int64)
    node_to_free = np.full(n_nodes, -1, dtype=np.int64)
    node_to_free[free_to_node] = np.arange(free_to_node.size)

    # Full stiffness once; free block and lifting correction come from slices.
    identity_map = np.arange(n_nodes, dtype=np.int64)
    A_full = assemble_partial_stiffness(grid, coeff, (0, nx, 0, ny), identity_map, n_nodes)
    dir_nodes = np.nonzero(dir_mask)[0]
    A_free = SparseSym(A_full[free_to_node][:, free_to_node], validate=False)

    load = np.zeros(n_nodes)
    if source is not None:
        # boundary weight = (number of incident cells)/4
        wx = np.where((ix == 0) | (ix == nx), 1, 2)
        wy = np.where((iy == 0) | (iy == ny), 1, 2)
        load = grid.hx * grid.hy * (wx * wy / 4.0) * source(coords[:, 0], coords[:, 1])

    for side in SIDES:
        cond = getattr(bc, side)
        if cond[0] != "neumann":
            continue
        q = float(cond[1])
        h_edge = grid.hx if side in ("bottom", "top") else grid.hy
        nodes = np.nonzero(side_nodes[side])[0]
        # trapezoidal rule: each boundary edge gives q*h/2 to both endpoints
        w = np.full(nodes.size, q * h_edge)
        w[0] *= 0.5
        w[-1] *= 0.5
        load[nodes] += w

    f_free = load[free_to_node]
    if dir_nodes.size and np.any(lift[dir_nodes] != 0.0):
        f_free = f_free - A_full[free_to_node][:, dir_nodes] @ lift[dir_nodes]

    return AssembledSystem(
        grid=grid,
        coeff=coeff,
        A_free=A_free,
        f_free=np.asarray(f_free),
        lift=lift,
        free_to_node=free_to_node,
        node_to_free=node_to_free,
        dirichlet_nodes=dir_nodes,
    )


def export_solution_csv(path, grid, u_full):
    """Write the full nodal solution as "x,y,u" rows."""
    coords = grid.node_coords()
    with open(path, "w") as fh:
        fh.write("x,y,u\n")
        for (x, y), u in zip(coords, u_full):
            fh.write(f"{x:.17g},{y:.17g},{u:.17g}\n")
