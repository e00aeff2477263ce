"""Overlapping decomposition with oversampling and the nodal partition of unity.

Subdomains are unions of cells, built by extending a px-by-py block partition
by `overlap_layers` rings of elements (8-connected), and again by
`oversampling_layers` rings for the enlarged domains. Dof sets are derived
from cell incidence: a free node belongs to a domain when one of its incident
cells does, and to the interior when all of them do, which gives unambiguous
zero-extension semantics.

The partition of unity is a normalized discrete distance: d_i(node) counts
cell layers to the nodes where the nodal basis support leaves omega_i, capped
at overlap_layers+1, and chi_i = d_i / sum_j d_j. Applying chi as a diagonal
nodal scaling realizes the interpolated product exactly for Q1 elements.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, GridTooSmall, UncoveredNode


def _corners(a):
    """The four overlapping windows of a 2-D array, shrunk by one in each
    direction: on a cell array padded by one ring, the cells around each
    node; on a node array, the corners of each cell."""
    return a[:-1, :-1], a[:-1, 1:], a[1:, :-1], a[1:, 1:]


def _any_corner(a):
    w, x, y, z = _corners(a)
    return w | x | y | z


def _node_incidence(cellmask):
    """(any_in, all_in) node masks for a cell mask: incident to >=1 cell of
    the set / all existing incident cells in the set."""
    w, x, y, z = _corners(np.pad(cellmask, 1, constant_values=True))
    return _any_corner(np.pad(cellmask, 1)), w & x & y & z


def pu_distances(cellmask, cap):
    """Per-node cell-layer distances for the partition of unity: 0 on nodes
    whose nodal basis support leaves the cell set, -1 on nodes with no
    incident cell in the set, breadth-first levels (capped at `cap`)
    elsewhere. Two nodes are neighbours when they share an in-set cell."""
    any_in, all_in = _node_incidence(cellmask)
    dist = np.full(any_in.shape, -1, dtype=np.int64)
    reached = any_in & ~all_in
    dist[reached] = 0
    for level in range(1, cap + 1):
        # nodes -> cells: in-set cells with a reached corner; cells -> nodes:
        # every corner of those cells
        active = cellmask & _any_corner(reached)
        frontier = _any_corner(np.pad(active, 1)) & all_in & ~reached
        if not frontier.any():
            break
        dist[frontier] = level
        reached |= frontier
    dist[all_in & ~reached] = cap
    return dist


def _dilate(cellmask, layers):
    """Grow a cell set by `layers` rings of elements (8-connected)."""
    out = cellmask.copy()
    ny, nx = cellmask.shape
    for _ in range(layers):
        pad = np.zeros((ny + 2, nx + 2), dtype=bool)
        pad[1 : ny + 1, 1 : nx + 1] = out
        grown = np.zeros_like(out)
        for dy in (0, 1, 2):
            for dx in (0, 1, 2):
                grown |= pad[dy : dy + ny, dx : dx + nx]
        out = grown
    return out


def _free_dofs(mask_nodes, node_to_free):
    nodes = np.nonzero(mask_nodes.ravel())[0]
    free = node_to_free[nodes]
    return free[free >= 0]


@dataclass
class Subdomain:
    id: int
    cells: np.ndarray  # (ny, nx) bool, omega_i
    cells_star: np.ndarray  # (ny, nx) bool, omega_i^*
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
    px: int
    py: int
    overlap_layers: int
    oversampling_layers: int
    # subdomain id -> factor of system.A_free on dofs0_star (spectral.interior_factor)
    interior_factors: dict = field(default_factory=dict, repr=False)

    @property
    def n_subdomains(self):
        return len(self.subdomains)


def coloring_constant(masks):
    """Maximum over grid nodes of the number of domains with an incident cell."""
    if not masks:
        raise ValueError("need at least one domain")
    count = None
    for mask in masks:
        any_in, _ = _node_incidence(mask)
        count = any_in.astype(np.int64) if count is None else count + any_in
    return int(count.max())


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

    x_edges = np.linspace(0, grid.nx, px + 1).astype(int)
    y_edges = np.linspace(0, grid.ny, py + 1).astype(int)
    node_to_free = system.node_to_free

    subdomains = []
    for j in range(py):
        for i in range(px):
            block = np.zeros((grid.ny, grid.nx), dtype=bool)
            block[y_edges[j] : y_edges[j + 1], x_edges[i] : x_edges[i + 1]] = True
            cells = _dilate(block, overlap_layers)
            cells_star = _dilate(cells, oversampling_layers)
            any_o, all_o = _node_incidence(cells)
            any_s, all_s = _node_incidence(cells_star)
            dofs_star = _free_dofs(any_s, node_to_free)
            dofs0_star = _free_dofs(all_s, node_to_free)
            subdomains.append(
                Subdomain(
                    id=len(subdomains),
                    cells=cells,
                    cells_star=cells_star,
                    dofs=_free_dofs(any_o, node_to_free),
                    dofs0=_free_dofs(all_o, node_to_free),
                    dofs_star=dofs_star,
                    dofs0_star=dofs0_star,
                    boundary_star=np.setdiff1d(dofs_star, dofs0_star),
                )
            )

    xi = coloring_constant([s.cells for s in subdomains])
    xi_star = coloring_constant([s.cells_star for s in subdomains])
    return Decomposition(
        grid=grid,
        system=system,
        subdomains=subdomains,
        xi=xi,
        xi_star=xi_star,
        px=px,
        py=py,
        overlap_layers=overlap_layers,
        oversampling_layers=oversampling_layers,
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

    def at(self, sub, global_free):
        """chi_i values at arbitrary global free indices (zero outside)."""
        out = np.zeros(len(global_free))
        pos = np.searchsorted(sub.dofs, global_free)
        pos = np.clip(pos, 0, sub.dofs.size - 1)
        hit = sub.dofs[pos] == global_free
        out[hit] = self.weights[sub.id][pos[hit]]
        return out


def build_partition_of_unity(decomp):
    """Distance-normalized partition of unity on the free dofs."""
    grid = decomp.grid
    system = decomp.system
    cap = decomp.overlap_layers + 1
    n_free = system.n_free
    dist_per_sub = []
    total = np.zeros(n_free)
    for sub in decomp.subdomains:
        dist = pu_distances(sub.cells, cap)
        d_free = dist.ravel()[system.free_to_node[sub.dofs]].astype(float)
        d_free = np.maximum(d_free, 0.0)  # -1 cannot occur on dofs(omega_i)
        dist_per_sub.append(d_free)
        total[sub.dofs] += d_free
    if np.any(total <= 0.0):
        bad = int(np.nonzero(total <= 0.0)[0][0])
        raise UncoveredNode(f"free dof {bad} has zero weight in every subdomain")
    weights = [d / total[sub.dofs] for sub, d in zip(decomp.subdomains, dist_per_sub)]
    return PartitionOfUnity(weights=weights)


def pu_apply(pu, decomp, i, v_local):
    """Nodal multiplication by chi_i of a vector on dofs(omega_i^*): the
    interpolated product chi_i * v, still indexed by dofs_star."""
    sub = decomp.subdomains[i]
    v_local = np.asarray(v_local)
    if v_local.shape[0] != sub.dofs_star.size:
        raise DimensionMismatch(
            f"vector length {v_local.shape[0]} != dofs(omega_{i}^*) size {sub.dofs_star.size}"
        )
    return pu.on_star(sub) * v_local


def decomposition_summary(decomp):
    """JSON-ready summary: per-subdomain cell/dof counts plus the coloring
    constants."""
    return {
        "px": decomp.px,
        "py": decomp.py,
        "overlap_layers": decomp.overlap_layers,
        "oversampling_layers": decomp.oversampling_layers,
        "xi": decomp.xi,
        "xi_star": decomp.xi_star,
        "subdomains": [
            {
                "id": s.id,
                "cells": int(s.cells.sum()),
                "cells_star": int(s.cells_star.sum()),
                "dofs": int(s.dofs.size),
                "dofs0": int(s.dofs0.size),
                "dofs_star": int(s.dofs_star.size),
                "dofs0_star": int(s.dofs0_star.size),
                "boundary_star": int(s.boundary_star.size),
            }
            for s in decomp.subdomains
        ],
    }


def export_decomposition_json(path, decomp):
    with open(path, "w") as fh:
        json.dump(decomposition_summary(decomp), fh, indent=2)
