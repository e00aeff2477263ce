"""Cartesian Q1 discretization of heterogeneous diffusion.

Grid, per-cell coefficient fields, mixed Dirichlet/Neumann boundary data with
lifting, and stiffness/load assembly. Cells carry a constant coefficient, so
the 2x2 Gauss element integral is exact and precomputable; every stiffness
matrix, global or subdomain-local, is written into CSR straight from the Q1
stencil of the reference element stiffness (`assemble_partial_stiffness`).

Conventions: nodes are numbered row-major, node(ix, iy) = iy*(nx+1) + ix;
cell (cx, cy) has corners [n00, n10, n01, n11]. Dirichlet wins at corners
where two sides with different condition types meet.
"""

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sparse

from .errors import AllNeumann, InvalidBlockCount, NonpositiveCoefficient
from .linalg import SparseSym

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
    """Per-cell scalar diffusion coefficient, finite and positive."""

    def __init__(self, values):
        values = np.asarray(values, dtype=float)
        bad = ~(np.isfinite(values) & (values > 0.0))  # also NaN, where <= 0 is false
        if np.any(bad):
            cy, cx = np.argwhere(bad)[0]
            raise NonpositiveCoefficient(
                f"coefficient values must be finite and positive: cell (cx, cy) = "
                f"({cx}, {cy}) is {values[cy, cx]}"
            )
        self.values = values  # shape (ny, nx)

    @classmethod
    def constant(cls, grid, value=1.0):
        if value <= 0:
            raise NonpositiveCoefficient(f"constant coefficient {value} <= 0")
        return cls(np.full((grid.ny, grid.nx), float(value)))

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
        return cls(data)


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
    return CoefficientField(values)


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
    _factor: object = field(default=None, repr=False)

    @property
    def n_free(self):
        return self.free_to_node.shape[0]

    def expand(self, u_free):
        full = self.lift.copy()
        full[self.free_to_node] += u_free
        return full

    def a_norm(self, v_free):
        return float(np.sqrt(max(v_free @ (self.A_free.mat @ v_free), 0.0)))

    def solve_direct(self):
        """Reference solution of the global system by a sparse LU with a
        fill-reducing ordering (SuperLU, cached on first use). The box
        matrices' banded factor `linalg.factorize` would store the whole
        band of the global matrix, about one grid row wide. SuperLU is
        imported here, on the first direct solve: no solve, comparison,
        sweep or spectrum run of the package uses `scipy.sparse.linalg`, so
        only a caller that checks a solution against this one loads it."""
        if self._factor is None:
            from scipy.sparse.linalg import splu

            self._factor = splu(self.A_free.mat.tocsc(), permc_spec="MMD_AT_PLUS_A",
                                diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))
        return self._factor.solve(self.f_free)


def _dirichlet_value(cond, xs, ys):
    g = cond[1]
    return g(xs, ys) if callable(g) else np.full_like(np.asarray(xs, dtype=float), float(g))


# The Q1 stencil of a node: its cells, in row-major cell order, are the
# ones whose lower-left node lies (ey, ex) from it, and its neighbours are
# the 3 x 3 nodes (dy, dx) around it, in row-major order. Cell k holds
# neighbour o when _SHARED[k, o], and the entry pairs the node's and the
# neighbour's corners of that cell, flat index _PAIR[k, o] into the 4 x 4
# element matrix (corner index x + 2y).
_EY, _EX = np.array([(-1, -1), (-1, 0), (0, -1), (0, 0)]).T[:, :, None]
_DY, _DX = np.array([(dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1)]).T[:, None, :]
_SHARED = (_DX - _EX >= 0) & (_DX - _EX <= 1) & (_DY - _EY >= 0) & (_DY - _EY <= 1)
_PAIR = 4 * (-_EX - 2 * _EY) + np.clip(_DX - _EX, 0, 1) + 2 * np.clip(_DY - _EY, 0, 1)


@functools.lru_cache(maxsize=8)
def _stencil_terms(hx, hy):
    """(4, 9, 1) read-only: the unit-coefficient term of cell k in entry o
    of the stencil, 0 where the cell does not hold the neighbour."""
    terms = np.where(_SHARED, element_stiffness(1.0, hx, hy).ravel()[_PAIR], 0.0)[:, :, None]
    terms.flags.writeable = False
    return terms


def assemble_partial_stiffness(grid, coeff, box, node_map, n_local, cells=None):
    """Stiffness over the cells of `box` = (x0, x1, y0, y1), or over those
    selected by the (y1-y0, x1-x0) bool mask `cells`, on the dof numbering of
    `node_map`: one entry per node of the box's window (row-major, nodes
    x0..x1 by y0..y1), -1 for excluded nodes. The numbers must increase in
    window order, as a free-dof numbering does. Shared by the global
    assembly (the whole-domain box) and all subdomain-local assemblies.

    The CSR is written straight from the Q1 stencil, with the mapped nodes
    and their nine neighbours as the two axes of every array. A row holds
    the mapped neighbours that share an included cell with its node, in
    column order, also where the entry sums to zero. An entry is the sum of
    the coefficient times the element-matrix term over the included cells
    holding both nodes, added in row-major cell order: the order in which
    the sparse sum of one 4 x 4 block per cell, cells in row-major order,
    adds them, so the two agree bit for bit. Excluded cells take part with a
    zero coefficient, which adds nothing."""
    x0, x1, y0, y1 = box
    width = x1 - x0 + 1  # nodes per window row
    nodes = np.flatnonzero(node_map >= 0)
    rows = node_map[nodes]
    if np.any(rows[1:] <= rows[:-1]):
        raise ValueError("node_map must number the window's nodes in increasing order")
    # the window's cell coefficients in a ring of absent cells (zero); the
    # cell down-left of node n sits at n + n // width in it
    padded = np.zeros((y1 - y0 + 2, width + 1))
    window = coeff.values[y0:y1, x0:x1]
    padded[1:-1, 1:-1] = window if cells is None else np.where(cells, window, 0.0)
    around = padded.ravel()[np.add.outer([0, 1, width + 1, width + 2], nodes + nodes // width)]
    terms = _stencil_terms(grid.hx, grid.hy)
    vals = terms[0] * around[0]  # (9, nodes)
    for k in range(1, 4):
        vals += terms[k] * around[k]
    inside = around > 0.0
    keep = _SHARED[0][:, None] & inside[0]
    for k in range(1, 4):
        keep |= _SHARED[k][:, None] & inside[k]
    # a neighbour off the window's side shares no cell with the node, so
    # the node it reads instead, one row up or down, is never kept
    off = np.full(width + 1, -1)
    cols = np.concatenate([off, node_map, off])[
        np.add.outer((width * _DY + _DX).ravel() + width + 1, nodes)]
    keep &= cols >= 0
    indptr = np.zeros(n_local + 1, dtype=np.int64)
    indptr[rows + 1] = keep.sum(axis=0)
    keep = keep.T  # entries in row order
    return sparse.csr_matrix((vals.T[keep], cols.T[keep], np.cumsum(indptr)),
                             shape=(n_local, n_local))


def _lifting(grid, coeff, dir_mask, lift):
    """(near, a(u_D, .) on near): the nodes that share a cell with a
    Dirichlet node, the Dirichlet nodes among them, and the product of their
    stiffness with the lift, which vanishes off the Dirichlet nodes. A free
    row sums its Dirichlet terms in column order, as the product of the
    full-node stiffness would; the free columns that row would also hold add
    only exact zeros."""
    nx, ny = grid.nx, grid.ny
    dirichlet = dir_mask.reshape(ny + 1, nx + 1)
    near = dirichlet.copy()  # dilated by one node in each direction
    near[1:] |= dirichlet[:-1]
    near[:-1] |= dirichlet[1:]
    rows = near.copy()
    near[:, 1:] |= rows[:, :-1]
    near[:, :-1] |= rows[:, 1:]
    near = np.flatnonzero(near)
    node_map = np.full(grid.n_nodes, -1, dtype=np.int64)
    node_map[near] = np.arange(near.size)
    A_near = assemble_partial_stiffness(grid, coeff, (0, nx, 0, ny), node_map, near.size)
    return near, A_near @ lift[near]


def assemble(grid, coeff, bc, source=None):
    """Assemble the free-dof system for -div(A grad u) = f with the given
    boundary spec.

    The source, a callable f(x, y) on node coordinates (None for f = 0),
    enters via nodal quadrature hx*hy*f(x_k) weighted by the fraction of
    surrounding cells present; a constant Neumann flux enters by
    trapezoidal edge quadrature. Nonhomogeneous Dirichlet data is eliminated
    by lifting, keeping A_free SPD. A_free is assembled on the free
    numbering and the lifting on the nodes next to the Dirichlet ones
    (`_lifting`), so no full-node matrix is formed.
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

    A_free = SparseSym(assemble_partial_stiffness(grid, coeff, (0, nx, 0, ny), node_to_free,
                                                  free_to_node.size))

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
    if np.any(lift[dir_mask] != 0.0):
        near, lifting = _lifting(grid, coeff, dir_mask, lift)
        free = node_to_free[near] >= 0
        f_free[node_to_free[near[free]]] -= lifting[free]

    return AssembledSystem(
        grid=grid,
        coeff=coeff,
        A_free=A_free,
        f_free=np.asarray(f_free),
        lift=lift,
        free_to_node=free_to_node,
        node_to_free=node_to_free,
    )


def export_solution_csv(path, grid, u_full):
    """Write the full nodal solution as "x,y,u" rows."""
    coords = grid.node_coords()
    with open(path, "w") as fh:
        fh.write("x,y,u\n")
        for (x, y), u in zip(coords, u_full):
            fh.write(f"{x:.17g},{y:.17g},{u:.17g}\n")
