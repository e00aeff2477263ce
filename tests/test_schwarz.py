import os
import sys
import threading
import time

import numpy as np
import pytest
import scipy.linalg

from msras import schwarz
from msras.decomp import build_decomposition, build_partition_of_unity
from msras.errors import (
    Breakdown,
    DimensionMismatch,
    FactorizationFailure,
    NotPositiveDefinite,
    Stagnation,
)
from msras.schwarz import (
    apply_one_level,
    apply_preconditioner,
    build_preconditioner,
    gmres,
    richardson,
)
from msras.spectral import (
    build_coarse_space,
    reduce_to_harmonic,
    solve_local_eigenproblem,
)
from tests.conftest import columns_coarse_space, gmres_rss_growth, local_solves, make_system
from tests.oracles import (
    TooLarge,
    contraction_norm,
    kept_coarse_columns,
    spd_condition_number,
)


@pytest.fixture(scope="module")
def small():
    # 143 free dofs: small enough to assemble every operator densely
    system = make_system(12, contrast=1e3)
    dec = build_decomposition(system, 2, 2, 1, 2)
    pu = build_partition_of_unity(dec)
    bases = []
    for i in range(4):
        S, P, W = reduce_to_harmonic(system, dec, pu, i)
        bases.append(solve_local_eigenproblem(S, P, W, 5, sub_id=i))
    coarse = build_coarse_space(system, dec, bases)
    return system, dec, pu, coarse


def dense_one_level(system, state):
    n = system.n_free
    A = system.A_free.mat.toarray()
    B1 = np.zeros((n, n))
    for dofs, _, w in local_solves(state):
        Ai = np.linalg.inv(A[np.ix_(dofs, dofs)])
        scaled = Ai if w is None else w[:, None] * Ai
        B1[np.ix_(dofs, dofs)] += scaled
    return B1


def dense_preconditioner(system, state):
    A = system.A_free.mat.toarray()
    B1 = dense_one_level(system, state)
    if state.coarse is None:
        return B1
    Rc = kept_coarse_columns(state.coarse, system.n_free)
    C = Rc @ np.linalg.inv(Rc.T @ A @ Rc) @ Rc.T
    if state.scheme in ("hybrid_RAS_msgfem", "hybrid_AS"):
        return B1 + C @ (np.eye(system.n_free) - A @ B1)
    return B1 + C


class TestOneLevded:
    def test_single_subdomain_exact_inverse(self):
        system = make_system(8)
        dec = build_decomposition(system, 1, 1, 1, 1)
        pu = build_partition_of_unity(dec)
        state = build_preconditioner(system, dec, pu, "RAS")
        r = np.sin(np.arange(system.n_free, dtype=float))
        z = apply_one_level(state, r)
        assert np.linalg.norm(system.A_free.mat @ z - r) <= 1e-10 * np.linalg.norm(r)

    def test_zero_in_zero_out(self, small):
        system, dec, pu, _ = small
        state = build_preconditioner(system, dec, pu, "RAS")
        assert np.all(apply_one_level(state, np.zeros(system.n_free)) == 0.0)

    @pytest.mark.parametrize("scheme", ["RAS", "AS", "AS2_geneo"])
    def test_matches_dense_oracle(self, small, scheme, rng):
        system, dec, pu, _ = small
        state = build_preconditioner(system, dec, pu, scheme)
        B1 = dense_one_level(system, state)
        r = rng.standard_normal(system.n_free)
        z = apply_one_level(state, r)
        assert np.linalg.norm(z - B1 @ r) <= 1e-12 * np.linalg.norm(B1 @ r)

    def test_dimension_checked(self, small):
        system, dec, pu, _ = small
        state = build_preconditioner(system, dec, pu, "RAS")
        with pytest.raises(DimensionMismatch):
            apply_one_level(state, np.ones(3))


def loop_one_level(state, r):
    """The one-level apply as a loop adding one subdomain at a time: a
    vector's local solves through scipy's f2py dpbtrs, a stack's through
    the blocked solve."""
    z = np.zeros_like(r)
    for dofs, fac, w in local_solves(state):
        if r.ndim == 1:
            y = scipy.linalg.lapack.dpbtrs(fac.band, r[dofs][:, None], lower=1)[0][:, 0]
        else:
            y = fac.solve(r[dofs])
        z[dofs] += y if w is None else (w * y.T).T
    return z


class TestThreadedApply:
    """A vector's local solves are dealt by stride between the calling
    thread and helper threads, one per further usable core and at most one
    per run; z is the per-subdomain loop's, bit for bit, for any split."""

    @pytest.mark.parametrize("cores", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("scheme", schwarz.SCHEMES)
    def test_shares_match_serial_loop(self, small, monkeypatch, rng, scheme, cores):
        # 4 runs: 5 cores give one run to each of 4 threads
        system, dec, pu, coarse = small
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
        state = build_preconditioner(system, dec, pu, scheme, coarse=coarse)
        assert state.scheme == scheme and len(state.spans) == 4
        assert len(state.shares) == min(cores, 4) and all(state.shares)
        # every run is in exactly one share
        assert sorted(p for share in state.shares for _, p in share) == [
            p for _, p in state.spans]
        r = rng.standard_normal(system.n_free)
        R = rng.standard_normal((system.n_free, 3))
        z = loop_one_level(state, r)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # the threads hand the GIL over as often as they can
        try:
            for _ in range(20):
                assert apply_one_level(state, r).tobytes() == z.tobytes()
        finally:
            sys.setswitchinterval(interval)
        assert apply_one_level(state, R).tobytes() == loop_one_level(state, R).tobytes()

    def test_one_core_solves_in_the_caller(self, small, monkeypatch, rng):
        system, dec, pu, _ = small
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        state = build_preconditioner(system, dec, pu, "RAS")
        assert state.shares == [state.spans]
        monkeypatch.setattr(schwarz, "_helpers", lambda count: pytest.fail("helper threads"))
        r = rng.standard_normal(system.n_free)
        assert apply_one_level(state, r).tobytes() == loop_one_level(state, r).tobytes()

    def test_caller_error_waits_for_the_helpers(self, small, monkeypatch, rng):
        # the apply returns, here by raising, only once no helper is working
        system, dec, pu, _ = small
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        state = build_preconditioner(system, dec, pu, "RAS")
        finished = threading.Event()

        def solve(spans, x):
            if threading.current_thread() is threading.main_thread():
                raise ValueError("the caller's share")
            time.sleep(0.2)
            finished.set()

        monkeypatch.setattr(schwarz, "solve_spans", solve)
        with pytest.raises(ValueError, match="the caller's share"):
            apply_one_level(state, rng.standard_normal(system.n_free))
        assert finished.is_set()


class TestPreconditioner:
    @pytest.mark.parametrize("scheme", ["hybrid_RAS_msgfem", "RAS", "AS", "hybrid_AS"])
    def test_matches_dense_oracle(self, small, scheme, rng):
        system, dec, pu, coarse = small
        state = build_preconditioner(system, dec, pu, scheme, coarse=coarse)
        B = dense_preconditioner(system, state)
        r = rng.standard_normal(system.n_free)
        z = apply_preconditioner(state, r)
        assert np.linalg.norm(z - B @ r) <= 1e-12 * np.linalg.norm(B @ r)

    def test_stateless_bitwise(self, small, rng):
        system, dec, pu, coarse = small
        state = build_preconditioner(system, dec, pu, "hybrid_RAS_msgfem", coarse=coarse)
        r = rng.standard_normal(system.n_free)
        assert np.array_equal(apply_preconditioner(state, r), apply_preconditioner(state, r))

    def test_linear(self, small, rng):
        system, dec, pu, coarse = small
        state = build_preconditioner(system, dec, pu, "hybrid_RAS_msgfem", coarse=coarse)
        x = rng.standard_normal(system.n_free)
        y = rng.standard_normal(system.n_free)
        lhs = apply_preconditioner(state, 2.0 * x - 3.5 * y)
        rhs = 2.0 * apply_preconditioner(state, x) - 3.5 * apply_preconditioner(state, y)
        assert np.linalg.norm(lhs - rhs) <= 1e-13 * np.linalg.norm(rhs)

    def test_ras_weights_are_pu_on_local_dofs(self, small):
        # chi_i on dofs0(omega_i^*): its weights where that meets dofs(omega_i), 0 elsewhere
        system, dec, pu, _ = small
        state = build_preconditioner(system, dec, pu, "RAS")
        for sub, (dofs, _, w) in zip(dec.subdomains, local_solves(state), strict=True):
            assert np.array_equal(dofs, sub.dofs0_star)
            ref = np.zeros(dofs.size)
            ref[np.isin(dofs, sub.dofs)] = pu.weights[sub.id][np.isin(sub.dofs, dofs)]
            assert np.array_equal(w, ref)

    def test_hybrid_without_coarse_is_one_level(self, small, rng):
        system, dec, pu, _ = small
        r = rng.standard_normal(system.n_free)
        for hybrid, one_level in (("hybrid_RAS_msgfem", "RAS"), ("hybrid_AS", "AS")):
            state = build_preconditioner(system, dec, pu, hybrid)
            assert state.scheme == one_level
            ref = build_preconditioner(system, dec, pu, one_level)
            assert np.array_equal(apply_preconditioner(state, r), apply_preconditioner(ref, r))

    def test_overlap_factor_failure_names_subdomain(self, monkeypatch):
        # AS2_geneo's local factor fails as the interior and GenEO factors
        # do; a fresh decomposition, so nothing is cached in a shared one
        def fail(A):
            raise NotPositiveDefinite("leading minor of order 3 is not positive definite")

        system = make_system(12, contrast=1e3)
        dec = build_decomposition(system, 2, 2, 1, 2)
        monkeypatch.setattr(schwarz, "factorize", fail)
        with pytest.raises(FactorizationFailure, match="subdomain 0: local block not SPD") as err:
            build_preconditioner(system, dec, build_partition_of_unity(dec), "AS2_geneo")
        assert isinstance(err.value.__cause__, NotPositiveDefinite)
        assert not dec.factors

    def test_full_coarse_space_gives_exact_inverse(self, small, rng):
        # coarse space spanning everything makes the hybrid correction exact
        system, dec, pu, _ = small
        n = system.n_free
        cols = np.eye(n)
        coarse = columns_coarse_space(system, cols)
        state = build_preconditioner(system, dec, pu, "hybrid_RAS_msgfem", coarse=coarse)
        r = rng.standard_normal(n)
        z = apply_preconditioner(state, r)
        assert np.linalg.norm(system.A_free.mat @ z - r) <= 1e-9 * np.linalg.norm(r)


class TestMsgfemMap:
    """The one-shot multiscale approximation of v is the hybrid
    preconditioner applied to A v."""

    def test_zero_maps_to_zero(self, small):
        system, dec, pu, coarse = small
        state = build_preconditioner(system, dec, pu, "hybrid_RAS_msgfem", coarse=coarse)
        zero = np.zeros(system.n_free)
        assert np.allclose(apply_preconditioner(state, system.A_free.mat @ zero), 0.0)

    def test_contraction_property(self, small, rng):
        # ||v - G v||_a <= Lambda ||v||_a for any v
        system, dec, pu, coarse = small
        state = build_preconditioner(system, dec, pu, "hybrid_RAS_msgfem", coarse=coarse)
        for _ in range(100):
            v = rng.standard_normal(system.n_free)
            gv = apply_preconditioner(state, system.A_free.mat @ v)
            assert system.a_norm(v - gv) <= coarse.lam * system.a_norm(v) * (1 + 1e-10)

    def test_exhausted_spectrum_identity(self):
        # retaining the whole local harmonic spectrum makes G the identity;
        # the glued full spaces overlap, so the rank filter must kick in
        system = make_system(10, contrast=1e2)
        dec = build_decomposition(system, 2, 2, 1, 2)
        pu = build_partition_of_unity(dec)
        bases = []
        for i in range(4):
            S, P, W = reduce_to_harmonic(system, dec, pu, i)
            bases.append(solve_local_eigenproblem(S, P, W, S.shape[0], sub_id=i))
        from msras.errors import RankDeficientCoarse

        with pytest.warns(RankDeficientCoarse):
            coarse = build_coarse_space(system, dec, bases)
        assert coarse.lam == 0.0
        state = build_preconditioner(system, dec, pu, "hybrid_RAS_msgfem", coarse=coarse)
        rng = np.random.default_rng(1)
        v = rng.standard_normal(system.n_free)
        gv = apply_preconditioner(state, system.A_free.mat @ v)
        assert system.a_norm(v - gv) <= 1e-8 * system.a_norm(v)


class TestRichardson:
    def test_exact_start_converges_immediately(self, small):
        import dataclasses

        system, dec, pu, coarse = small
        u = np.arange(system.n_free, dtype=float)
        exact = dataclasses.replace(system, f_free=system.A_free.mat @ u)
        state = build_preconditioner(exact, dec, pu, "hybrid_RAS_msgfem", coarse=coarse)
        sol, hist = richardson(state, exact, v0=u)
        assert hist.n_iterations == 0
        assert np.array_equal(sol, u)

    def test_single_subdomain_one_iteration(self):
        system = make_system(8)
        dec = build_decomposition(system, 1, 1, 1, 1)
        pu = build_partition_of_unity(dec)
        state = build_preconditioner(system, dec, pu, "RAS")
        sol, hist = richardson(state, system)
        assert hist.n_iterations == 1
        u = system.solve_direct()
        assert system.a_norm(sol - u) <= 1e-9 * system.a_norm(u)

    def test_stagnation_detected(self):
        # one-level additive Schwarz diverges as a Richardson iteration here
        system = make_system(24, contrast=1e6)
        dec = build_decomposition(system, 3, 3, 1, 1)
        pu = build_partition_of_unity(dec)
        state = build_preconditioner(system, dec, pu, "AS")
        with pytest.raises(Stagnation):
            richardson(state, system, maxit=100)

    def test_nonfinite_residual_breaks_down(self, small):
        # NaN >= NaN is False: without the finiteness check the loop would
        # run all maxit steps and return a NaN iterate
        import dataclasses

        system, dec, pu, coarse = small
        broken = dataclasses.replace(system, f_free=np.full(system.n_free, np.nan))
        state = build_preconditioner(broken, dec, pu, "hybrid_RAS_msgfem", coarse=coarse)
        with pytest.raises(Breakdown, match="iteration 1"):
            richardson(state, broken, maxit=40)

    def test_history_records(self, small):
        system, dec, pu, coarse = small
        state = build_preconditioner(system, dec, pu, "hybrid_RAS_msgfem", coarse=coarse)
        u = system.solve_direct()
        sol, hist = richardson(state, system, u_ref=u)
        assert hist.res_b[0] > 0 and hist.res_b[-1] <= 1e-10 * hist.res_b[0]
        assert len(hist.err_a) == len(hist.res_b) == len(hist.iters)
        assert all(np.isfinite(hist.res_b))
        assert hist.err_a[-1] <= 1e-8 * hist.err_a[0]


class TestGmres:
    def test_single_subdomain_one_iteration(self):
        system = make_system(8)
        dec = build_decomposition(system, 1, 1, 1, 1)
        pu = build_partition_of_unity(dec)
        state = build_preconditioner(system, dec, pu, "RAS")
        sol, hist = gmres(state, system)
        assert hist.n_iterations == 1
        u = system.solve_direct()
        assert system.a_norm(sol - u) <= 1e-9 * system.a_norm(u)

    def test_exact_start(self, small):
        import dataclasses

        system, dec, pu, coarse = small
        u = np.arange(system.n_free, dtype=float)
        exact = dataclasses.replace(system, f_free=system.A_free.mat @ u)
        state = build_preconditioner(exact, dec, pu, "hybrid_RAS_msgfem", coarse=coarse)
        sol, hist = gmres(state, exact, u0=u)
        assert hist.n_iterations == 0

    def test_converges_and_matches_direct(self, small):
        system, dec, pu, coarse = small
        state = build_preconditioner(system, dec, pu, "hybrid_RAS_msgfem", coarse=coarse)
        sol, hist = gmres(state, system)
        u = system.solve_direct()
        assert system.a_norm(sol - u) <= 1e-8 * system.a_norm(u)
        assert hist.res_precond[-1] <= 1e-10 * hist.res_precond[0]

    def test_long_one_level_run(self):
        # no coarse space: dozens of Arnoldi steps, over which a basis that
        # loses orthogonality would stall or mislead the residual
        system = make_system(48, contrast=1e6)
        dec = build_decomposition(system, 6, 6, 1, 1)
        state = build_preconditioner(system, dec, build_partition_of_unity(dec), "RAS")
        sol, hist = gmres(state, system, target_reduction=1e-12)
        assert hist.n_iterations >= 60
        assert hist.res_precond[-1] <= 1e-12 * hist.res_precond[0]
        assert all(b <= a for a, b in zip(hist.res_precond, hist.res_precond[1:]))
        u = system.solve_direct()
        assert system.a_norm(sol - u) <= 1e-8 * system.a_norm(u)

    def test_dominates_richardson(self, small):
        system, dec, pu, coarse = small
        state = build_preconditioner(system, dec, pu, "hybrid_RAS_msgfem", coarse=coarse)
        _, hr = richardson(state, system, target_reduction=1e-12, maxit=30)
        _, hg = gmres(state, system, target_reduction=1e-12, maxit=30)
        for j in range(min(len(hr.res_precond), len(hg.res_precond))):
            assert hg.res_precond[j] <= hr.res_precond[j] * (1 + 1e-10)

    def test_history_csv(self, small, tmp_path):
        system, dec, pu, coarse = small
        state = build_preconditioner(system, dec, pu, "hybrid_RAS_msgfem", coarse=coarse)
        _, hist = gmres(state, system)
        path = tmp_path / "hist.csv"
        hist.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "iter,res_b,res_precond,err_a,time_ms"
        assert len(lines) == len(hist.iters) + 1
        first = lines[1].split(",")
        assert first[0] == "0" and first[3] == ""  # no reference supplied
        # GMRES stops on res_precond: the last row carries it to 17 digits
        assert float(lines[-1].split(",")[2]) == hist.res_precond[-1]


class TestConvergedFlag:
    """Each driver sets history.converged where it stops, in its own stopping
    quantity: the Euclidean residual for Richardson, the preconditioned one
    for GMRES; also when maxit runs out first."""

    @pytest.mark.parametrize("driver, series", [(richardson, "res_b"), (gmres, "res_precond")])
    @pytest.mark.parametrize("maxit", [1, 2, 200])
    def test_flag_matches_stopping_series(self, small, driver, series, maxit):
        system, dec, pu, coarse = small
        state = build_preconditioner(system, dec, pu, "hybrid_RAS_msgfem", coarse=coarse)
        _, hist = driver(state, system, target_reduction=1e-10, maxit=maxit)
        values = getattr(hist, series)
        assert hist.converged == (values[-1] <= 1e-10 * values[0])
        assert hist.converged == (maxit == 200)

    @pytest.mark.parametrize("driver", [richardson, gmres])
    def test_exact_start_is_converged(self, small, driver):
        import dataclasses

        system, dec, pu, coarse = small
        u = np.arange(system.n_free, dtype=float)
        exact = dataclasses.replace(system, f_free=system.A_free.mat @ u)
        state = build_preconditioner(exact, dec, pu, "hybrid_RAS_msgfem", coarse=coarse)
        _, hist = driver(state, exact, u)
        assert hist.n_iterations == 0 and hist.converged

    @pytest.mark.parametrize("driver", [richardson, gmres])
    @pytest.mark.parametrize("maxit", [0, -1])
    def test_maxit_below_one_rejected(self, small, driver, maxit):
        system, dec, pu, coarse = small
        state = build_preconditioner(system, dec, pu, "hybrid_RAS_msgfem", coarse=coarse)
        with pytest.raises(ValueError, match="maxit"):
            driver(state, system, maxit=maxit)


class TestGmresMemory:
    def test_krylov_basis_grows_with_iterations_not_maxit(self):
        # a row of the maxit-wide basis is under one page, so a row-major
        # basis would be resident in full after its first column write
        n, maxit = 80_000, 500
        basis_bytes = 8 * n * (maxit + 1)
        assert basis_bytes >= 300e6
        ((iterations, growth),) = gmres_rss_growth(n, maxit)
        assert iterations <= 3
        assert growth < basis_bytes / 10, f"peak RSS grew {growth / 1e6:.0f} MB"

    def test_repeated_solves_do_not_zero_fill_the_basis(self):
        # a 25.7 MB basis: once earlier bases are freed, the allocator
        # serves it from the heap, where zero-filling makes every column
        # resident although three are written
        n, maxit = 16_000, 200
        basis_bytes = 8 * n * (maxit + 1)
        runs = gmres_rss_growth(n, maxit, solves=4)
        assert [iterations for iterations, _ in runs] == [3] * 4
        growth = [g for _, g in runs]
        assert max(growth) < basis_bytes / 4, f"peak RSS grew {[g // 2**20 for g in growth]} MiB"

    @pytest.mark.parametrize("steps", [256, 2])
    def test_huge_maxit_matches_maxit_200_bit_for_bit(self, monkeypatch, steps):
        # maxit 1e7 reserves room for `steps` steps, not 1e7; with room for
        # 2 the arrays double three times, and the iterations, the solution
        # and the history are those of maxit 200 either way
        system = make_system(16, contrast=1e3)
        dec = build_decomposition(system, 4, 4, 1, 2)
        state = build_preconditioner(system, dec, build_partition_of_unity(dec), "RAS")
        u, ref = gmres(state, system, maxit=200)
        monkeypatch.setattr(schwarz, "_GMRES_STEPS", steps)
        v, hist = gmres(state, system, maxit=10**7)
        assert 8 < hist.n_iterations < 16 and hist.converged
        assert u.tobytes() == v.tobytes()
        for name in ("iters", "res_b", "res_precond", "err_a"):
            assert getattr(hist, name) == getattr(ref, name)


class TestDenseDiagnostics:
    def test_contraction_zero_for_exact_preconditioner(self):
        system = make_system(8)
        dec = build_decomposition(system, 1, 1, 1, 1)
        pu = build_partition_of_unity(dec)
        state = build_preconditioner(system, dec, pu, "RAS")
        assert contraction_norm(state, system) <= 1e-10

    def test_contraction_bounded_by_lambda(self, small):
        system, dec, pu, coarse = small
        state = build_preconditioner(system, dec, pu, "hybrid_RAS_msgfem", coarse=coarse)
        assert contraction_norm(state, system) <= coarse.lam + 1e-8

    def test_too_large_guard(self, small):
        system, dec, pu, coarse = small
        state = build_preconditioner(system, dec, pu, "hybrid_RAS_msgfem", coarse=coarse)
        with pytest.raises(TooLarge):
            contraction_norm(state, system, max_dofs=10)

    def test_spd_condition_number_identity_limit(self):
        system = make_system(8)
        dec = build_decomposition(system, 1, 1, 1, 1)
        pu = build_partition_of_unity(dec)
        state = build_preconditioner(system, dec, pu, "AS")  # B = A^{-1}
        assert spd_condition_number(state, system) == pytest.approx(1.0, abs=1e-8)
