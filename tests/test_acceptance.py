"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured quantities (run with -s to see them)."""

import time

import numpy as np
import pytest

from msras.bench import ExperimentConfig, run_sweep
from msras.decomp import build_decomposition, build_partition_of_unity
from msras.grid import (
    BoundarySpec,
    CartesianGrid,
    assemble,
    gaussian_bump_source,
    skyscraper_coefficient,
)
from msras.schwarz import (
    apply_one_level,
    build_preconditioner,
    gmres,
    richardson,
)
from msras.spectral import (
    build_coarse_space,
    geneo_eigenproblem,
    reduce_to_harmonic,
    solve_local_eigenproblem,
)
from tests.conftest import columns_coarse_space
from tests.oracles import (
    contraction_norm,
    geneo_eigs_bruteforce,
    harmonic_eigs_bruteforce,
    spd_condition_number,
)

DESK = dict(px=4, py=4, overlap=2, ovsp=4, modes=10)


def build_instance(nx, contrast, px, py, overlap, ovsp):
    grid = CartesianGrid(nx, nx)
    coeff = skyscraper_coefficient(grid, contrast, (8, 8), 0.3, 7)
    system = assemble(grid, coeff, BoundarySpec.mixed_flux_channel(),
                      source=gaussian_bump_source)
    decomp = build_decomposition(system, px, py, overlap, ovsp)
    pu = build_partition_of_unity(decomp)
    return system, decomp, pu


def spectral_setup(system, decomp, pu, modes):
    bases = []
    for i in range(decomp.n_subdomains):
        S, P, W = reduce_to_harmonic(system, decomp, pu, i)
        bases.append(solve_local_eigenproblem(S, P, W, modes, sub_id=i))
    coarse = build_coarse_space(system, decomp, bases)
    return bases, coarse


@pytest.fixture(scope="module")
def desk():
    t0 = time.perf_counter()
    system, decomp, pu = build_instance(64, 1e6, DESK["px"], DESK["py"],
                                        DESK["overlap"], DESK["ovsp"])
    bases, coarse = spectral_setup(system, decomp, pu, DESK["modes"])
    state = build_preconditioner(system, decomp, pu, "hybrid_RAS_msgfem", coarse=coarse)
    u_ref = system.solve_direct()
    return {
        "system": system,
        "decomp": decomp,
        "pu": pu,
        "bases": bases,
        "coarse": coarse,
        "state": state,
        "u_ref": u_ref,
        "build_seconds": time.perf_counter() - t0,
    }


def test_criterion_1_contraction_bound():
    """||I - BA||_a <= Lambda on every (oversampling, modes) configuration."""
    t0 = time.perf_counter()
    grid = CartesianGrid(40, 40)
    coeff = skyscraper_coefficient(grid, 1e6, (8, 8), 0.3, 7)
    system = assemble(grid, coeff, BoundarySpec.mixed_flux_channel(),
                      source=gaussian_bump_source)
    assert system.n_free <= 1681
    results = []
    for ovsp in (2, 4):
        decomp = build_decomposition(system, 2, 2, 1, ovsp)
        pu = build_partition_of_unity(decomp)
        reductions = [reduce_to_harmonic(system, decomp, pu, i) for i in range(4)]
        for modes in (5, 10):
            bases = [
                solve_local_eigenproblem(S, P, W, modes, sub_id=i)
                for i, (S, P, W) in enumerate(reductions)
            ]
            coarse = build_coarse_space(system, decomp, bases)
            state = build_preconditioner(system, decomp, pu, "hybrid_RAS_msgfem",
                                         coarse=coarse)
            cn = contraction_norm(state, system)
            results.append((ovsp, modes, cn, coarse.lam))
            assert cn <= coarse.lam + 1e-8, (ovsp, modes, cn, coarse.lam)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    detail = "; ".join(f"s={s},m={m}: {cn:.4f}<={lam:.4f}" for s, m, cn, lam in results)
    print(f"\n[PASS] criterion 1 (contraction bound, {elapsed:.1f}s): {detail}")


def test_criterion_2_richardson_contraction(desk):
    """Per-step energy-norm contraction at rate Lambda and 1e-10 reduction."""
    t0 = time.perf_counter()
    lam = desk["coarse"].lam
    sol, hist = richardson(desk["state"], desk["system"], target_reduction=1e-10,
                           maxit=200, u_ref=desk["u_ref"])
    errs = hist.err_a
    for j in range(len(errs) - 1):
        assert errs[j + 1] <= lam * errs[j] + 1e-8 * errs[0], (j, errs[j + 1], errs[j])
    assert hist.res_b[-1] <= 1e-10 * hist.res_b[0]
    assert hist.n_iterations <= 200
    elapsed = desk["build_seconds"] + (time.perf_counter() - t0)
    assert elapsed < 120.0
    print(f"\n[PASS] criterion 2 (Richardson contraction, {elapsed:.1f}s): "
          f"{hist.n_iterations} iterations, Lambda={lam:.4f}, "
          f"max step ratio={max(errs[j+1]/errs[j] for j in range(len(errs)-2)):.2e}")


def test_criterion_3_gmres_dominance(desk):
    """GMRES preconditioned residual never exceeds the Richardson one."""
    _, hr = richardson(desk["state"], desk["system"], target_reduction=1e-10, maxit=200)
    _, hg = gmres(desk["state"], desk["system"], target_reduction=1e-10, maxit=200)
    overlap = range(min(len(hr.res_precond), len(hg.res_precond)))
    for j in overlap:
        assert hg.res_precond[j] <= hr.res_precond[j] * (1 + 1e-10), j
    print(f"\n[PASS] criterion 3 (GMRES dominance): compared {len(list(overlap))} steps, "
          f"gmres {hg.n_iterations} vs richardson {hr.n_iterations} iterations")


def test_criterion_4_eigenproblem_oracles():
    """Schur-reduced eigenvalues match brute-force oracles to 1e-8 relative."""
    system, decomp, pu = build_instance(32, 1e3, 2, 2, 1, 2)
    worst_h = 0.0
    for i in range(decomp.n_subdomains):
        S, P, W = reduce_to_harmonic(system, decomp, pu, i)
        b = solve_local_eigenproblem(S, P, W, 15, sub_id=i)
        l_o, lam_o = harmonic_eigs_bruteforce(system, decomp, pu, i, 15 - b.kernel_dim)
        assert l_o == b.kernel_dim
        mine = b.eigenvalues[b.kernel_dim : 15]
        rel = (np.abs(mine - lam_o) / np.abs(lam_o)).max()
        worst_h = max(worst_h, rel)
        assert rel <= 1e-8, (i, rel)
    worst_g = 0.0
    for i in range(decomp.n_subdomains):
        b = geneo_eigenproblem(system, decomp, pu, i, 15)
        l_o, lam_o = geneo_eigs_bruteforce(system, decomp, pu, i, 15 - b.kernel_dim)
        assert l_o == b.kernel_dim
        mine = b.eigenvalues[b.kernel_dim : 15]
        rel = (np.abs(mine - lam_o) / np.abs(lam_o)).max()
        worst_g = max(worst_g, rel)
        assert rel <= 1e-8, (i, rel)
    print(f"\n[PASS] criterion 4 (eigenproblem oracles): top 15 modes, "
          f"max rel dev harmonic {worst_h:.2e}, geneo {worst_g:.2e}")


def test_criterion_5_geneo_condition_bound():
    """Spectral condition of the additive two-level operator under its bound."""
    system, decomp, pu = build_instance(40, 1e6, 2, 2, 1, 2)
    checked = []
    for modes in (5, 10):
        bases = [geneo_eigenproblem(system, decomp, pu, i, modes)
                 for i in range(decomp.n_subdomains)]
        coarse = build_coarse_space(system, decomp, bases)
        state = build_preconditioner(system, decomp, pu, "AS2_geneo", coarse=coarse)
        kappa = spd_condition_number(state, system)
        xi = decomp.xi
        bound = (1 + xi) * (2 + xi * (2 * xi + 1)) * max(
            1.0 + b.next_eigenvalue for b in bases
        )
        assert kappa <= bound + 1e-8, (modes, kappa, bound)
        checked.append((modes, kappa, bound))
    detail = "; ".join(f"m={m}: kappa={k:.2f}<={b:.2f}" for m, k, b in checked)
    print(f"\n[PASS] criterion 5 (GenEO condition bound): {detail}")


def test_criterion_6_degenerate_identities(desk):
    """Single-subdomain exactness and the partition-of-unity reconstruction."""
    # moderate contrast keeps eps*kappa below the 1e-10 target, so the exact
    # single-subdomain inverse really converges in one step in floating point
    grid = CartesianGrid(16, 16)
    coeff = skyscraper_coefficient(grid, 1e2, (8, 8), 0.3, 7)
    system = assemble(grid, coeff, BoundarySpec.mixed_flux_channel(),
                      source=gaussian_bump_source)
    decomp = build_decomposition(system, 1, 1, 1, 1)
    pu = build_partition_of_unity(decomp)
    # any coarse space: here the one spanned by the glued particular field,
    # the one-level RAS apply of the load
    glued = apply_one_level(build_preconditioner(system, decomp, pu, "RAS"), system.f_free)
    coarse = columns_coarse_space(system, glued[:, None])
    state = build_preconditioner(system, decomp, pu, "hybrid_RAS_msgfem", coarse=coarse)
    u = system.solve_direct()
    _, hist_r = richardson(state, system, target_reduction=1e-10)
    assert hist_r.n_iterations == 1
    _, hist_g = gmres(state, system, target_reduction=1e-10)
    assert hist_g.n_iterations == 1

    dd, du = desk["decomp"], desk["pu"]
    n = desk["system"].n_free
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        v = rng.standard_normal(n)
        recon = np.zeros(n)
        for sub in dd.subdomains:
            loc = np.zeros(sub.dofs_star.size)
            loc[sub.star_positions(sub.dofs0_star)] = v[sub.dofs0_star]
            recon[sub.dofs_star] += du.on_star(sub) * loc
        worst = max(worst, np.abs(recon - v).max() / np.abs(v).max())
    assert worst <= 1e-13
    print(f"\n[PASS] criterion 6 (degenerate identities): richardson=1, gmres=1 "
          f"iterations; PU reconstruction max rel dev {worst:.2e} over 100 vectors")


def test_criterion_7_trend_reproduction():
    """Iteration counts weakly decrease along both sweep axes; the error
    bound strictly decreases along the modes axis where the next eigenvalue
    does."""
    cfg = ExperimentConfig(
        nx=64, ny=64,
        coefficient={"kind": "skyscraper", "contrast": 1e6, "blocks": [8, 8],
                     "fraction": 0.3, "seed": 7},
        boundary={"preset": "mixed_flux_channel"},
        source={"kind": "gaussian_bump"},
        px=4, py=4, overlap_layers=2, oversampling_layers=4,
        modes=10, scheme="hybrid_RAS_msgfem", driver="gmres",
        target_reduction=1e-10, maxit=200, seed=7,
    )
    ovsp_list = [1, 2, 4, 6]
    modes_list = [4, 8, 12, 16]
    sweep = run_sweep(cfg, ovsp_list, modes_list)
    iters = {}
    for s in ovsp_list:
        for m in modes_list:
            cell = sweep.cells[(s, m)]
            assert not cell.get("failure"), (s, m, cell)
            assert cell["converged"], (s, m)
            iters[(s, m)] = cell["iterations"]
    for s in ovsp_list:
        for m_a, m_b in zip(modes_list, modes_list[1:]):
            assert iters[(s, m_b)] <= iters[(s, m_a)] + 1, ("modes axis", s, m_a, m_b)
            na = sweep.cells[(s, m_a)]["max_next_eigenvalue"]
            nb = sweep.cells[(s, m_b)]["max_next_eigenvalue"]
            if nb < na:
                assert sweep.cells[(s, m_b)]["lambda_bound"] < sweep.cells[(s, m_a)]["lambda_bound"]
    for m in modes_list:
        for s_a, s_b in zip(ovsp_list, ovsp_list[1:]):
            assert iters[(s_b, m)] <= iters[(s_a, m)] + 1, ("ovsp axis", m, s_a, s_b)
    table = "; ".join(
        f"s={s}: " + ",".join(str(iters[(s, m)]) for m in modes_list) for s in ovsp_list
    )
    print(f"\n[PASS] criterion 7 (sweep trends): iterations {table}")


def test_criterion_8_scheme_ranking(desk):
    """The hybrid restricted scheme needs the fewest GMRES iterations."""
    system, decomp, pu = desk["system"], desk["decomp"], desk["pu"]
    coarse = desk["coarse"]
    counts = {}
    sols = {}
    for scheme in ("hybrid_RAS_msgfem", "RAS", "AS", "hybrid_AS"):
        state = build_preconditioner(system, decomp, pu, scheme, coarse=coarse)
        sols[scheme], hist = gmres(state, system, target_reduction=1e-10, maxit=200)
        counts[scheme] = hist.n_iterations
    geneo_bases = [geneo_eigenproblem(system, decomp, pu, i, DESK["modes"])
                   for i in range(decomp.n_subdomains)]
    geneo_coarse = build_coarse_space(system, decomp, geneo_bases)
    state = build_preconditioner(system, decomp, pu, "AS2_geneo", coarse=geneo_coarse)
    sols["AS2_geneo"], hist = gmres(state, system, target_reduction=1e-10, maxit=200)
    counts["AS2_geneo"] = hist.n_iterations
    best = min(counts.values())
    assert counts["hybrid_RAS_msgfem"] == best, counts
    # criterion 9 piggybacks on these runs; keep the solutions around
    desk["scheme_solutions"] = sols
    print(f"\n[PASS] criterion 8 (scheme ranking): {counts}")


def test_criterion_9_solver_correctness(desk):
    """Converged solutions match the sparse direct solve in the energy norm."""
    system = desk["system"]
    u = desk["u_ref"]
    norms = {}
    sol_r, _ = richardson(desk["state"], system, target_reduction=1e-10, maxit=200)
    norms["richardson"] = system.a_norm(sol_r - u) / system.a_norm(u)
    sol_g, _ = gmres(desk["state"], system, target_reduction=1e-10, maxit=200)
    norms["gmres"] = system.a_norm(sol_g - u) / system.a_norm(u)
    for scheme, sol in desk.get("scheme_solutions", {}).items():
        norms[scheme] = system.a_norm(sol - u) / system.a_norm(u)
    for name, err in norms.items():
        assert err <= 1e-8, (name, err)
    detail = "; ".join(f"{k}={v:.1e}" for k, v in norms.items())
    print(f"\n[PASS] criterion 9 (solver correctness): rel a-norm errors {detail}")
