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

import functools
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import (Breakdown, DimensionMismatch, FactorizationFailure, NotPositiveDefinite,
                     Stagnation)
from .linalg import SparseSym, factorize, solve_spans, submatrix
from .spectral import interior_factor

SCHEMES = ("hybrid_RAS_msgfem", "RAS", "AS", "hybrid_AS", "AS2_geneo")
_HYBRID = {"hybrid_RAS_msgfem": "RAS", "hybrid_AS": "AS"}  # hybrid -> its one-level part
_PU_WEIGHTED = ("hybrid_RAS_msgfem", "RAS")


@dataclass
class PreconditionerState:
    """What a preconditioner application reads. The local solves are laid
    out end to end, as the coarse space lays out its blocks: subdomain k's
    dofs are gather[start:start + factor.n] for its span (factor, start) in
    `spans`, and its PU weights (PU-weighted schemes only, else None) are
    weights[start:start + factor.n]. `shares` deals the spans by stride
    between the calling thread (shares[0]) and one helper thread per further
    usable core (`usable_cores`), at most one thread per span."""

    scheme: str
    gather: np.ndarray  # the subdomains' dofs end to end, in subdomain order
    spans: list  # per subdomain: (its local factor, the start of its run)
    weights: object  # the PU weights end to end, or None
    shares: list  # the spans each thread solves, the caller's first
    coarse: object  # CoarseSpace or None
    system: object


@functools.lru_cache(maxsize=None)
def _helpers(count):
    """`count` helper threads for the one-level apply, started on first use
    and idle between applies. A forked child starts without them."""
    return ThreadPoolExecutor(count, thread_name_prefix="msras-apply")


os.register_at_fork(after_in_child=_helpers.cache_clear)


def usable_cores():
    """The cores this process may run on: os.sched_getaffinity where the
    platform has it, else os.cpu_count(), and at least 1."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity is not None else os.cpu_count() or 1


def _overlap_factor(system, sub):
    """Factor of the global matrix on dofs0(omega_i), AS2_geneo's local solve."""
    try:
        return factorize(SparseSym(submatrix(system.A_free.mat, sub.dofs0, sub.dofs0)))
    except NotPositiveDefinite as exc:
        raise FactorizationFailure(f"subdomain {sub.id}: local block not SPD: {exc}") from exc


def factor_family(scheme):
    """The dof set of each subdomain a scheme's local solves factor, the name
    its factors are cached under in decomp.factors: dofs0, the interior of
    the overlap subdomain, for AS2_geneo, and dofs0_star, the interior of
    the oversampling domain, for the others."""
    return "dofs0" if scheme == "AS2_geneo" else "dofs0_star"


def build_preconditioner(system, decomp, pu, scheme, coarse=None):
    """Factorize the per-subdomain solves and bundle the application state.

    The local solves are on the scheme's `factor_family`. MS-GFEM flavours
    share the decomposition's cached interior factors with the spectral
    layer; AS2_geneo's are factored once per decomposition into the same
    cache. Without a coarse space a hybrid scheme is its one-level part: the
    state's scheme is then RAS or AS.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}, expected one of {SCHEMES}")
    if coarse is None:
        scheme = _HYBRID.get(scheme, scheme)
    family = factor_family(scheme)
    local_dofs = []
    spans = []
    weights = []
    start = 0
    for sub in decomp.subdomains:
        dofs = getattr(sub, family)
        if family == "dofs0":
            factor = decomp.factor(("dofs0", sub.id), lambda: _overlap_factor(system, sub))
        else:
            factor = interior_factor(decomp, sub.id)
        local_dofs.append(dofs)
        spans.append((factor, start))
        start += dofs.size
        if scheme in _PU_WEIGHTED:
            weights.append(pu.on_star(sub)[sub.star_positions(dofs)])
    width = min(usable_cores(), len(spans))
    return PreconditionerState(
        scheme=scheme,
        gather=np.concatenate(local_dofs),
        spans=spans,
        weights=np.concatenate(weights) if weights else None,
        shares=[spans[k::width] for k in range(width)],
        coarse=coarse,
        system=system,
    )


def apply_one_level(state, r):
    """Sum of zero-extended (optionally PU-weighted) local solves of r.

    Accepts a vector or a stack of columns. r is gathered once on the
    subdomains' dofs end to end, every subdomain's run is solved in place
    there, the weights are applied once, and one scatter sums the runs back
    in subdomain order, as a loop adding one subdomain at a time would. A
    vector's runs are solved by the calling thread and the helper threads
    together (`state.shares`), each run by one LAPACK call that releases
    the GIL (`linalg.solve_spans`); the helpers call nothing else, and all
    are idle again when this returns. Each run's solve and the order of the
    sums are the same for any split, so z is too. A stack goes run by run
    through the blocked solve in this thread.
    """
    r = np.asarray(r, dtype=float)
    n = state.system.n_free
    if r.shape[0] != n:
        raise DimensionMismatch(f"residual has length {r.shape[0]}, expected {n}")
    g = r[state.gather]
    if r.ndim == 1:
        own, *helped = state.shares
        running = [_helpers(len(helped)).submit(solve_spans, share, g) for share in helped]
        try:
            solve_spans(own, g)
        finally:  # no helper is left working, even if the caller's share raised
            for future in running:
                future.result()
        if state.weights is not None:
            g *= state.weights
        return np.bincount(state.gather, g, minlength=n)
    for factor, p in state.spans:
        g[p:p + factor.n] = factor.solve(g[p:p + factor.n])
    if state.weights is not None:
        g *= state.weights[:, None]
    z = np.empty_like(r)
    for j, u in enumerate(g.T):
        z[:, j] = np.bincount(state.gather, u, minlength=n)
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


# The steps GMRES makes room for at first; its arrays double from there, so
# a solve of at most this many steps, the default maxit's 200 included,
# never copies its basis.
_GMRES_STEPS = 256


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
    # threshold above its size. The arrays hold `size` steps and double when
    # the steps reach it, so what they reserve follows the steps made, not
    # maxit.
    size = min(maxit, _GMRES_STEPS)
    V = np.empty((n, size + 1), order="F")
    Hm = np.zeros((size + 1, size))
    cs = np.zeros(size)
    sn = np.zeros(size)
    g = np.zeros(size + 1)
    g[0] = beta
    V[:, 0] = r0 / beta

    for j in range(maxit):
        if j == size:
            grow = min(size, maxit - size)
            size += grow
            wider = np.empty((n, size + 1), order="F")
            wider[:, :j + 1] = V  # the column stride stays n
            V, Hm = wider, np.pad(Hm, ((0, grow), (0, grow)))
            cs, sn, g = (np.pad(a, (0, grow)) for a in (cs, sn, g))
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
