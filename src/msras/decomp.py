"""Overlapping decomposition with oversampling and the nodal partition of unity.

Subdomains are boxes of cells, (x0, x1, y0, y1) for x0 <= cx < x1 and
y0 <= cy < y1: a block of the px-by-py partition grown by `overlap_layers`
rings of elements (8-connected, clipped to the domain) for omega_i, and by
`oversampling_layers` more for omega_i^*. A free node belongs to a domain
when one of its incident cells does (the box's node range x0..x1, y0..y1),
and to the interior when all of them do (that range shrunk by one on each
side not on the domain boundary): unambiguous zero-extension semantics.

The partition of unity is a normalized discrete distance: d_i(node) counts
cell layers to the sides of omega_i off the domain boundary, where the nodal
basis support leaves omega_i, capped at overlap_layers+1, and
chi_i = d_i / sum_j d_j. Applying chi as a diagonal nodal scaling realizes
the interpolated product exactly for Q1 elements.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import GridTooSmall, UncoveredNode


def _grow(box, layers, grid):
    """A box grown by `layers` rings of cells, clipped to the domain."""
    x0, x1, y0, y1 = box
    return (max(x0 - layers, 0), min(x1 + layers, grid.nx),
            max(y0 - layers, 0), min(y1 + layers, grid.ny))


def box_nodes(grid, box, interior=False):
    """Row-major ids of the nodes incident to a cell of `box`; with
    `interior`, of the nodes all of whose cells lie in it."""
    x0, x1, y0, y1 = box
    if interior:
        x0, x1 = x0 + (x0 > 0), x1 - (x1 < grid.nx)
        y0, y1 = y0 + (y0 > 0), y1 - (y1 < grid.ny)
    ix = np.arange(x0, x1 + 1, dtype=np.int64)
    iy = np.arange(y0, y1 + 1, dtype=np.int64)
    return (iy[:, None] * (grid.nx + 1) + ix).ravel()


def pu_distances(grid, box, nodes, cap):
    """Partition-of-unity distances of `nodes` (incident to the box): cell
    layers to the nearest box side off the domain boundary, capped at `cap`."""
    x0, x1, y0, y1 = box
    iy, ix = np.divmod(nodes, grid.nx + 1)
    dist = np.full(nodes.shape, cap, dtype=np.int64)
    for inner, to_side in ((x0 > 0, ix - x0), (x1 < grid.nx, x1 - ix),
                           (y0 > 0, iy - y0), (y1 < grid.ny, y1 - iy)):
        if inner:
            np.minimum(dist, to_side, out=dist)
    return dist


def _free_dofs(nodes, node_to_free):
    free = node_to_free[nodes]
    return free[free >= 0]


@dataclass
class Subdomain:
    id: int
    box: tuple  # (x0, x1, y0, y1) cells of omega_i
    box_star: tuple  # (x0, x1, y0, y1) cells of omega_i^*
    dofs: np.ndarray  # free dofs incident to omega_i
    dofs0: np.ndarray  # free dofs interior to omega_i
    dofs_star: np.ndarray
    dofs0_star: np.ndarray
    boundary_star: np.ndarray  # dofs on the internal boundary of omega_i^*

    def star_positions(self, global_free):
        """Positions of `global_free` inside dofs_star (assumes membership)."""
        return np.searchsorted(self.dofs_star, global_free)


@dataclass
class Decomposition:
    grid: object
    system: object
    subdomains: list
    xi: int
    xi_star: int
    overlap_layers: int
    # (name, subdomain id) -> a per-subdomain quantity: the factor of
    # system.A_free on the dof set of that name, or Gamma_i under "gamma"
    factors: dict = field(default_factory=dict, repr=False)

    @property
    def n_subdomains(self):
        return len(self.subdomains)

    def factor(self, key, build):
        """The quantity cached under `key`, made by build() on first use."""
        if key not in self.factors:
            self.factors[key] = build()
        return self.factors[key]


def coloring_constant(grid, boxes):
    """Maximum over grid nodes of the number of boxes with an incident cell."""
    if not boxes:
        raise ValueError("need at least one domain")
    count = np.zeros((grid.ny + 1, grid.nx + 1), dtype=np.int64)
    for x0, x1, y0, y1 in boxes:
        count[y0 : y1 + 1, x0 : x1 + 1] += 1
    return int(count.max())


def overlap_zone(decomp, i):
    """The cells of omega_i that lie in another subdomain too, as a bool
    mask on omega_i's window of cells."""
    x0, x1, y0, y1 = np.array([s.box for s in decomp.subdomains]).T
    a0, a1 = np.maximum(x0, x0[i]) - x0[i], np.minimum(x1, x1[i]) - x0[i]
    b0, b1 = np.maximum(y0, y0[i]) - y0[i], np.minimum(y1, y1[i]) - y0[i]
    meet = (a0 < a1) & (b0 < b1)
    meet[i] = False
    zone = np.zeros((y1[i] - y0[i], x1[i] - x0[i]), dtype=bool)
    for j in np.flatnonzero(meet):
        zone[b0[j]:b1[j], a0[j]:a1[j]] = True
    return zone


def build_decomposition(system, px, py, overlap_layers, oversampling_layers):
    """Block partition of the cell grid, extended by overlap and oversampling
    layers (clipped at the domain boundary), with all dof index sets and the
    coloring constants computed by exhaustive per-node counting."""
    grid = system.grid
    if px < 1 or py < 1:
        raise GridTooSmall("px and py must be >= 1")
    if overlap_layers < 1 or oversampling_layers < 1:
        raise GridTooSmall("overlap and oversampling layers must be >= 1")
    if px > grid.nx or py > grid.ny:
        raise GridTooSmall(f"{px}x{py} blocks do not fit a {grid.nx}x{grid.ny} grid")

    x_edges = np.linspace(0, grid.nx, px + 1).astype(int).tolist()
    y_edges = np.linspace(0, grid.ny, py + 1).astype(int).tolist()
    node_to_free = system.node_to_free

    subdomains = []
    for j in range(py):
        for i in range(px):
            block = (x_edges[i], x_edges[i + 1], y_edges[j], y_edges[j + 1])
            box = _grow(block, overlap_layers, grid)
            box_star = _grow(box, oversampling_layers, grid)
            dofs_star = _free_dofs(box_nodes(grid, box_star), node_to_free)
            dofs0_star = _free_dofs(box_nodes(grid, box_star, interior=True), node_to_free)
            # every dof set is strictly increasing (row-major nodes, free ids
            # numbered in node order), so the difference needs no sort
            subdomains.append(
                Subdomain(
                    id=len(subdomains),
                    box=box,
                    box_star=box_star,
                    dofs=_free_dofs(box_nodes(grid, box), node_to_free),
                    dofs0=_free_dofs(box_nodes(grid, box, interior=True), node_to_free),
                    dofs_star=dofs_star,
                    dofs0_star=dofs0_star,
                    boundary_star=np.setdiff1d(dofs_star, dofs0_star, assume_unique=True),
                )
            )

    return Decomposition(
        grid=grid,
        system=system,
        subdomains=subdomains,
        xi=coloring_constant(grid, [s.box for s in subdomains]),
        xi_star=coloring_constant(grid, [s.box_star for s in subdomains]),
        overlap_layers=overlap_layers,
    )


@dataclass
class PartitionOfUnity:
    """Nodal weights chi_i per subdomain, aligned with subdomain.dofs."""

    weights: list  # weights[i][k] pairs with decomp.subdomains[i].dofs[k]

    def on_star(self, sub):
        """chi_i extended by zero to the dofs_star index set of subdomain i."""
        out = np.zeros(sub.dofs_star.size)
        out[sub.star_positions(sub.dofs)] = self.weights[sub.id]
        return out


def build_partition_of_unity(decomp):
    """Distance-normalized partition of unity on the free dofs."""
    system = decomp.system
    cap = decomp.overlap_layers + 1
    dist_per_sub = []
    total = np.zeros(system.n_free)
    for sub in decomp.subdomains:
        nodes = system.free_to_node[sub.dofs]
        d_free = pu_distances(decomp.grid, sub.box, nodes, cap).astype(float)
        dist_per_sub.append(d_free)
        total[sub.dofs] += d_free
    if np.any(total <= 0.0):
        bad = int(np.nonzero(total <= 0.0)[0][0])
        raise UncoveredNode(f"free dof {bad} has zero weight in every subdomain")
    weights = [d / total[sub.dofs] for sub, d in zip(decomp.subdomains, dist_per_sub)]
    return PartitionOfUnity(weights=weights)
