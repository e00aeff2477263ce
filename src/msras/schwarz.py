"""Two-level Schwarz preconditioners and the Richardson/GMRES drivers.

The hybrid restricted scheme applies PU-weighted local solves on the
oversampling domains additively and then a coarse correction on the updated
residual; that composition applied to A reproduces the one-shot multiscale
approximation map, so the Richardson iteration contracts in the energy norm
at the rate sqrt(xi * xi_star * max_i lambda_{i, m_i+1}).

Scheme variants: {hybrid_RAS_msgfem, RAS, AS, hybrid_AS} share the
oversampled local solves (RAS flavours weight them by the partition of
unity, AS flavours do not; hybrid flavours apply the coarse solve
multiplicatively, the rest additively). AS2_geneo is the standard fully
additive two-level method: unweighted local solves on the overlap subdomains
themselves plus an additive coarse solve.
"""

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import Breakdown, DimensionMismatch, Stagnation
from .linalg import SparseSym, factorize, submatrix
from .spectral import interior_factor

SCHEMES = ("hybrid_RAS_msgfem", "RAS", "AS", "hybrid_AS", "AS2_geneo")
_HYBRID = {"hybrid_RAS_msgfem": "RAS", "hybrid_AS": "AS"}  # hybrid -> its one-level part
_PU_WEIGHTED = ("hybrid_RAS_msgfem", "RAS")


@dataclass
class PreconditionerState:
    scheme: str
    local_dofs: list  # global free indices per subdomain
    local_factors: list
    local_weights: list  # chi values aligned with local_dofs, or None
    coarse: object  # CoarseSpace or None
    system: object


def build_preconditioner(system, decomp, pu, scheme, coarse=None):
    """Factorize the per-subdomain solves and bundle the application state.

    MS-GFEM flavours solve on the interior dofs of the oversampling domains,
    sharing the decomposition's cached interior factors with the spectral
    layer; AS2_geneo solves on the interior dofs of the overlap subdomains,
    factored once per decomposition into the same cache. Without a coarse
    space a hybrid scheme is its one-level part: the state's scheme is then
    RAS or AS.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}, expected one of {SCHEMES}")
    if coarse is None:
        scheme = _HYBRID.get(scheme, scheme)
    local_dofs = []
    local_factors = []
    local_weights = []
    for sub in decomp.subdomains:
        if scheme == "AS2_geneo":
            dofs = sub.dofs0
            local_factors.append(decomp.factor(
                ("dofs0", sub.id),
                lambda: factorize(SparseSym(submatrix(system.A_free.mat, dofs, dofs)))
            ))
        else:
            dofs = sub.dofs0_star
            local_factors.append(interior_factor(decomp, sub.id))
        local_dofs.append(dofs)
        local_weights.append(
            pu.on_star(sub)[sub.star_positions(dofs)] if scheme in _PU_WEIGHTED else None
        )
    return PreconditionerState(
        scheme=scheme,
        local_dofs=local_dofs,
        local_factors=local_factors,
        local_weights=local_weights,
        coarse=coarse,
        system=system,
    )


def apply_one_level(state, r):
    """Sum of zero-extended (optionally PU-weighted) local solves of r.

    Accepts a vector or a stack of columns.
    """
    r = np.asarray(r, dtype=float)
    n = state.system.n_free
    if r.shape[0] != n:
        raise DimensionMismatch(f"residual has length {r.shape[0]}, expected {n}")
    z = np.zeros_like(r)
    for dofs, fac, w in zip(state.local_dofs, state.local_factors, state.local_weights):
        y = fac.solve(r[dofs])
        if w is not None:
            y = (w * y.T).T
        z[dofs] += y
    return z


def apply_preconditioner(state, r):
    """Full preconditioner application: one-level part plus the coarse solve,
    multiplicatively on the updated residual for hybrid schemes, additively
    otherwise. Linear and stateless."""
    z1 = apply_one_level(state, r)
    if state.coarse is None:
        return z1
    if state.scheme in _HYBRID:
        return z1 + state.coarse.apply(r - state.system.A_free.mat @ z1)
    return z1 + state.coarse.apply(r)


@dataclass
class IterationHistory:
    """Per-iteration convergence records.

    res_b is the Euclidean residual norm ||f - A v_j||; res_precond the
    preconditioned one ||B(f - A v_j)||; err_a the energy-norm error against
    a supplied reference solution (empty if none was given). time_s holds
    cumulative wall time. converged is set by the driver where it stops: its
    own stopping quantity (res_b for Richardson, res_precond for GMRES) fell
    to target_reduction times its initial value.
    """

    iters: list = field(default_factory=list)
    res_b: list = field(default_factory=list)
    res_precond: list = field(default_factory=list)
    err_a: list = field(default_factory=list)
    time_s: list = field(default_factory=list)
    converged: bool = False

    def record(self, j, res, res_pre, err, t):
        self.iters.append(j)
        self.res_b.append(res)
        self.res_precond.append(res_pre)
        self.err_a.append(err)
        self.time_s.append(t)

    @property
    def n_iterations(self):
        return self.iters[-1] if self.iters else 0

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("iter,res_b,res_precond,err_a,time_ms\n")
            for j, res, pre, err, t in zip(self.iters, self.res_b, self.res_precond, self.err_a,
                                           self.time_s):
                err_txt = "" if err is None else f"{err:.17g}"
                fh.write(f"{j},{res:.17g},{pre:.17g},{err_txt},{1e3 * t:.6g}\n")


def _err_a(system, v, u_ref):
    if u_ref is None:
        return None
    return system.a_norm(v - u_ref)


def richardson(state, system, v0=None, target_reduction=1e-10, maxit=200, u_ref=None):
    """Preconditioned Richardson iteration v += B(f - A v), stopping on
    Euclidean residual reduction. Raises Stagnation after 5 consecutive
    non-decreasing steps (the configuration does not contract) and Breakdown
    on a non-finite residual."""
    if not (0.0 < target_reduction < 1.0):
        raise ValueError("target_reduction must lie in (0, 1)")
    if maxit < 1:
        raise ValueError("maxit must be >= 1")
    A = system.A_free.mat
    f = system.f_free
    v = np.zeros(system.n_free) if v0 is None else np.array(v0, dtype=float)
    t0 = time.perf_counter()
    history = IterationHistory()

    r = f - A @ v
    res0 = float(np.linalg.norm(r))
    z = apply_preconditioner(state, r)
    history.record(0, res0, float(np.linalg.norm(z)), _err_a(system, v, u_ref),
                   time.perf_counter() - t0)
    if res0 == 0.0:
        history.converged = True
        return v, history

    res_prev = res0
    stalled = 0
    for j in range(1, maxit + 1):
        v = v + z
        r = f - A @ v
        res = float(np.linalg.norm(r))
        if not np.isfinite(res):
            raise Breakdown(f"non-finite residual at iteration {j}")
        z = apply_preconditioner(state, r)
        history.record(j, res, float(np.linalg.norm(z)), _err_a(system, v, u_ref),
                       time.perf_counter() - t0)
        if res <= target_reduction * res0:
            history.converged = True
            return v, history
        stalled = stalled + 1 if res >= res_prev else 0
        if stalled >= 5:
            raise Stagnation(
                f"residual did not decrease for 5 consecutive steps (at iteration {j})"
            )
        res_prev = res
    return v, history


def gmres(state, system, u0=None, target_reduction=1e-10, maxit=200, u_ref=None):
    """Left-preconditioned GMRES on B A u = B f.

    Arnoldi with classical Gram-Schmidt in two block products against the
    whole basis, run twice (one reorthogonalization pass: "twice is
    enough"), and Givens-rotation least squares; no restarting. Stops when
    the preconditioned residual drops below target_reduction times its
    initial value, or at a vanishing new Arnoldi vector (happy breakdown);
    non-finite coefficients raise Breakdown. Returns the last iterate formed.
    """
    if not (0.0 < target_reduction < 1.0):
        raise ValueError("target_reduction must lie in (0, 1)")
    if maxit < 1:
        raise ValueError("maxit must be >= 1")
    A = system.A_free.mat
    f = system.f_free
    n = system.n_free
    u0 = np.zeros(n) if u0 is None else np.array(u0, dtype=float)
    t0 = time.perf_counter()
    history = IterationHistory()

    res0 = f - A @ u0
    r0 = apply_preconditioner(state, res0)
    beta = float(np.linalg.norm(r0))
    history.record(0, float(np.linalg.norm(res0)), beta,
                   _err_a(system, u0, u_ref), time.perf_counter() - t0)
    if beta == 0.0:
        history.converged = True
        return u0, history

    # Column-major and never zero-filled: a column is read only after it is
    # written, so only the written columns become resident. np.zeros would
    # write every column whenever the basis comes from the heap, as it does
    # in a repeated solve once freed bases have raised the allocator's mmap
    # threshold above its size.
    V = np.empty((n, maxit + 1), order="F")
    Hm = np.zeros((maxit + 1, maxit))
    cs = np.zeros(maxit)
    sn = np.zeros(maxit)
    g = np.zeros(maxit + 1)
    g[0] = beta
    V[:, 0] = r0 / beta

    for j in range(maxit):
        w = apply_preconditioner(state, A @ V[:, j])
        for _ in range(2):
            h = V[:, : j + 1].T @ w
            w -= V[:, : j + 1] @ h
            Hm[: j + 1, j] += h
        hnext = float(np.linalg.norm(w))
        if not np.isfinite(hnext) or not np.all(np.isfinite(Hm[: j + 2, j])):
            raise Breakdown(f"non-finite Arnoldi coefficients at step {j + 1}")
        Hm[j + 1, j] = hnext

        for i in range(j):
            h0 = cs[i] * Hm[i, j] + sn[i] * Hm[i + 1, j]
            Hm[i + 1, j] = -sn[i] * Hm[i, j] + cs[i] * Hm[i + 1, j]
            Hm[i, j] = h0
        denom = np.hypot(Hm[j, j], Hm[j + 1, j])
        cs[j] = Hm[j, j] / denom if denom else 1.0
        sn[j] = Hm[j + 1, j] / denom if denom else 0.0
        Hm[j, j] = denom
        Hm[j + 1, j] = 0.0
        g[j + 1] = -sn[j] * g[j]
        g[j] = cs[j] * g[j]

        res_pre = abs(g[j + 1])
        y = scipy.linalg.solve_triangular(Hm[: j + 1, : j + 1], g[: j + 1])
        uj = u0 + V[:, : j + 1] @ y
        history.record(j + 1, float(np.linalg.norm(f - A @ uj)), float(res_pre),
                       _err_a(system, uj, u_ref), time.perf_counter() - t0)
        if res_pre <= target_reduction * beta or hnext <= 1e-14 * beta:
            break
        V[:, j + 1] = w / hnext

    history.converged = bool(res_pre <= target_reduction * beta)
    return uj, history
