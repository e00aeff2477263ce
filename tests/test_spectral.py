import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sparse

import msras.spectral as spectral
from msras.bench import compute_bases
from msras.decomp import build_decomposition, build_partition_of_unity
from msras.errors import EmptyBoundary, FactorizationFailure, RankDeficientCoarse, TooManyModes
from msras.grid import BoundarySpec, element_stiffness
from msras.linalg import single_blas_thread
from msras.schwarz import apply_one_level, build_preconditioner
from msras.spectral import (
    build_coarse_space,
    coarse_space_from_columns,
    export_spectrum_csv,
    geneo_eigenproblem,
    local_stiffness,
    reduce_to_harmonic,
    solve_local_eigenproblem,
    truncate_basis,
)
from tests.conftest import make_system
from tests.oracles import (
    box_mask,
    dense_local_stiffness,
    geneo_eigs_bruteforce,
    harmonic_eigs_bruteforce,
    harmonic_nullspace_pencil,
    mask_geneo_overlap,
    mask_local_stiffness,
    node_incidence,
    q1_element_quadrature,
)


@pytest.fixture(scope="module")
def interior_case():
    # 3x3 decomposition on 16x16 with left/right Dirichlet only: the middle
    # column of subdomains has no Dirichlet contact, so constants are
    # zero-energy harmonic modes there
    system = make_system(16, contrast=1e3)
    dec = build_decomposition(system, 3, 3, 1, 1)
    pu = build_partition_of_unity(dec)
    return system, dec, pu


class TestLocalAssembly:
    def test_element_quadrature_matches_production(self):
        from msras.grid import element_stiffness

        for (c, hx, hy) in [(1.0, 1.0, 1.0), (3.0, 0.5, 0.25), (0.7, 0.1, 0.9)]:
            assert np.allclose(
                element_stiffness(c, hx, hy), q1_element_quadrature(c, hx, hy), atol=1e-13
            )

    def test_local_stiffness_matches_dense_oracle(self, system16, decomp16):
        sub = decomp16.subdomains[2]
        mine = local_stiffness(system16, sub.box_star, sub.dofs_star).toarray()
        oracle = dense_local_stiffness(system16, box_mask(system16.grid, sub.box_star),
                                       sub.dofs_star)
        scale = np.abs(oracle).max()
        assert np.abs(mine - oracle).max() <= 1e-12 * scale


def glued_particular(system, dec, pu):
    """The one-level RAS apply of the load."""
    return apply_one_level(build_preconditioner(system, dec, pu, "RAS"), system.f_free)


class TestParticularSolve:
    """The MS-GFEM local particular solves, glued by the partition of unity,
    are the one-level RAS apply of the load."""

    def test_single_subdomain_equals_global_solution(self):
        system = make_system(8)
        dec = build_decomposition(system, 1, 1, 1, 1)
        phi = glued_particular(system, dec, build_partition_of_unity(dec))
        assert np.allclose(phi, system.solve_direct(), atol=1e-11)

    def test_zero_source_zero_solution(self):
        system = make_system(8, bc=BoundarySpec.all_dirichlet(0.0), source=None)
        dec = build_decomposition(system, 2, 1, 1, 1)
        assert np.all(glued_particular(system, dec, build_partition_of_unity(dec)) == 0.0)

    def test_interior_residual_vanishes(self, system16, decomp16, pu16):
        # a(u - phi_i, v) = 0 for v supported inside omega_i^*
        state = build_preconditioner(system16, decomp16, pu16, "RAS")
        for dofs, fac in zip(state.local_dofs, state.local_factors, strict=True):
            full = np.zeros(system16.n_free)
            full[dofs] = fac.solve(system16.f_free[dofs])
            r = system16.f_free - system16.A_free @ full
            scale = np.abs(system16.f_free).max()
            assert np.abs(r[dofs]).max() <= 1e-10 * scale

    def test_glued_field_differs_from_solution(self, system16, decomp16, pu16):
        glued = glued_particular(system16, decomp16, pu16)
        u = system16.solve_direct()
        assert system16.a_norm(glued - u) > 1e-3 * system16.a_norm(u)


def star_stiffness(system, dec, i):
    """The local energy on dofs(omega_i^*) and the positions of its interior
    dofs there."""
    sub = dec.subdomains[i]
    return (local_stiffness(system, sub.box_star, sub.dofs_star),
            sub.star_positions(sub.dofs0_star))


class TestReduceToHarmonic:
    def test_harmonic_columns(self, system16, decomp16, pu16):
        S, P, H = reduce_to_harmonic(system16, decomp16, pu16, 0)
        A_star, interior = star_stiffness(system16, decomp16, 0)
        res = A_star[interior, :] @ H(np.eye(S.shape[0]))
        scale = np.abs(A_star.data).max()
        assert np.abs(res).max() <= 1e-10 * scale

    def test_interface_block_sizes(self, system16, decomp16, pu16):
        sub = decomp16.subdomains[1]
        S, P, H = reduce_to_harmonic(system16, decomp16, pu16, 1)
        assert S.shape == (sub.boundary_star.size, sub.boundary_star.size)
        assert P.shape == S.shape
        ext = H(np.eye(S.shape[0]))
        assert ext.shape == (sub.dofs_star.size, sub.boundary_star.size)
        assert np.array_equal(ext[sub.star_positions(sub.boundary_star)], np.eye(S.shape[0]))
        assert H(np.ones(S.shape[0])).shape == (sub.dofs_star.size,)

    def test_s_spd_with_dirichlet_contact(self, system16, decomp16, pu16):
        S, _, _ = reduce_to_harmonic(system16, decomp16, pu16, 0)
        ev = np.linalg.eigvalsh(S)
        assert ev[0] > 1e-12 * ev[-1]

    def test_s_rank_one_kernel_when_interior(self, interior_case):
        # dense null-space oracle: interior subdomain -> exactly the constants
        system, dec, pu = interior_case
        i = 4  # middle subdomain of the 3x3 layout
        S, _, H = reduce_to_harmonic(system, dec, pu, i)
        ev = np.linalg.eigvalsh(S)
        assert ev[0] <= 1e-12 * ev[-1]
        assert ev[1] > 1e-10 * ev[-1]

    def test_ptil_psd(self, system16, decomp16, pu16):
        _, P, _ = reduce_to_harmonic(system16, decomp16, pu16, 3)
        ev = np.linalg.eigvalsh(P)
        assert ev[0] >= -1e-10 * max(ev[-1], 1.0)

    def test_whole_domain_rejected(self):
        system = make_system(8)
        dec = build_decomposition(system, 1, 1, 1, 1)
        pu = build_partition_of_unity(dec)
        with pytest.raises(EmptyBoundary):
            reduce_to_harmonic(system, dec, pu, 0)


class TestLocalEigenproblem:
    def test_monotone_spectrum(self, system16, decomp16, pu16):
        S, P, H = reduce_to_harmonic(system16, decomp16, pu16, 0)
        b = solve_local_eigenproblem(S, P, H, 12, sub_id=0)
        finite = b.eigenvalues[b.kernel_dim :]
        assert np.all(np.diff(finite) <= 1e-12 * finite[0])
        assert np.all(finite >= 0.0)

    def test_s_orthonormal_vectors(self, system16, decomp16, pu16):
        S, P, H = reduce_to_harmonic(system16, decomp16, pu16, 0)
        b = solve_local_eigenproblem(S, P, H, 8, sub_id=0)
        A = star_stiffness(system16, decomp16, 0)[0].toarray()
        G = b.vectors.T @ A @ b.vectors
        assert np.abs(G - np.eye(8)).max() <= 1e-8

    def test_vectors_are_harmonic(self, system16, decomp16, pu16):
        S, P, H = reduce_to_harmonic(system16, decomp16, pu16, 2)
        b = solve_local_eigenproblem(S, P, H, 6, sub_id=2)
        A_star, interior = star_stiffness(system16, decomp16, 2)
        res = A_star[interior, :] @ b.vectors
        scale = np.abs(A_star.data).max() * np.abs(b.vectors).max()
        assert np.abs(res).max() <= 1e-8 * scale

    def test_exhausted_spectrum(self, system16, decomp16, pu16):
        S, P, H = reduce_to_harmonic(system16, decomp16, pu16, 0)
        n2 = S.shape[0]
        b = solve_local_eigenproblem(S, P, H, n2, sub_id=0)
        assert b.next_eigenvalue == 0.0
        with pytest.raises(TooManyModes):
            solve_local_eigenproblem(S, P, H, n2 + 1, sub_id=0)

    def test_kernel_mode_is_constant(self):
        # interior subdomain with constant coefficient: the zero-energy mode
        # is the constant vector
        system = make_system(16)
        dec = build_decomposition(system, 3, 3, 1, 1)
        pu = build_partition_of_unity(dec)
        S, P, H = reduce_to_harmonic(system, dec, pu, 4)
        b = solve_local_eigenproblem(S, P, H, 5, sub_id=4)
        assert b.kernel_dim == 1
        assert b.eigenvalues[0] == np.inf
        v = b.vectors[:, 0]
        assert np.abs(v - v[0]).max() <= 1e-8 * np.abs(v[0])

    def test_kernel_must_be_retained(self, interior_case):
        system, dec, pu = interior_case
        S, P, H = reduce_to_harmonic(system, dec, pu, 4)
        with pytest.raises(TooManyModes):
            solve_local_eigenproblem(S, P, H, 0, sub_id=4)

    def test_matches_bruteforce_oracle(self, interior_case):
        system, dec, pu = interior_case
        for i in range(dec.n_subdomains):
            S, P, H = reduce_to_harmonic(system, dec, pu, i)
            b = solve_local_eigenproblem(S, P, H, 10, sub_id=i)
            l_o, lam_o = harmonic_eigs_bruteforce(system, dec, pu, i, 10 - b.kernel_dim)
            assert l_o == b.kernel_dim
            mine = b.eigenvalues[b.kernel_dim : 10]
            rel = np.abs(mine - lam_o) / np.abs(lam_o)
            assert rel.max() <= 1e-8, (i, int(rel.argmax()), rel.max())

    def test_harmonic_oracle_matches_extended_precision(self, interior_case):
        # the oracle must be well inside the 1e-8 bound it serves: compare it
        # with its own null-space pencil, projected and solved at 30 digits,
        # on the subdomain whose tail eigenvalues are 1e-10 below the top one
        mpmath = pytest.importorskip("mpmath")
        system, dec, pu = interior_case
        i, count = 0, 10
        A_star, P, W, _ = harmonic_nullspace_pencil(system, dec, pu, i)
        with mpmath.workdps(30):
            Wm = mpmath.matrix(W.tolist())
            K = Wm.T * mpmath.matrix(P.tolist()) * Wm
            M = Wm.T * mpmath.matrix(A_star.tolist()) * Wm
            Linv = mpmath.inverse(mpmath.cholesky(M))  # SPD: Dirichlet contact
            C = Linv * K * Linv.T
            ev = mpmath.eigsy((C + C.T) / 2, eigvals_only=True)
            ref = np.sort(np.array([float(x) for x in ev]))[::-1][:count]
        kernel_dim, lam_o = harmonic_eigs_bruteforce(system, dec, pu, i, count)
        assert kernel_dim == 0
        rel = np.abs(lam_o - ref) / np.abs(ref)
        assert rel.max() <= 1e-9, (int(rel.argmax()), rel.max())

    def test_truncate(self, system16, decomp16, pu16):
        S, P, H = reduce_to_harmonic(system16, decomp16, pu16, 0)
        b = solve_local_eigenproblem(S, P, H, 11, sub_id=0)
        t = truncate_basis(b, 6)
        assert t.n_modes == 6
        assert t.next_eigenvalue == b.eigenvalues[6]
        assert np.array_equal(t.vectors, b.vectors[:, :6])
        with pytest.raises(TooManyModes):
            truncate_basis(t, 8)


class TestGeneo:
    def test_single_subdomain_all_zero(self):
        system = make_system(8)
        dec = build_decomposition(system, 1, 1, 1, 1)
        pu = build_partition_of_unity(dec)
        b = geneo_eigenproblem(system, dec, pu, 0, 5)
        assert np.allclose(b.eigenvalues, 0.0)
        assert b.next_eigenvalue == 0.0

    def test_nonnegative_and_monotone(self, system16, decomp16, pu16):
        b = geneo_eigenproblem(system16, decomp16, pu16, 0, 10)
        finite = b.eigenvalues[b.kernel_dim :]
        assert np.all(finite >= 0.0)
        assert np.all(np.diff(finite) <= 1e-12 * max(finite[0], 1.0))

    def test_matches_bruteforce_oracle(self, system16, decomp16, pu16):
        for i in range(4):
            b = geneo_eigenproblem(system16, decomp16, pu16, i, 10)
            l_o, lam_o = geneo_eigs_bruteforce(system16, decomp16, pu16, i, 10 - b.kernel_dim)
            assert l_o == b.kernel_dim
            mine = b.eigenvalues[b.kernel_dim : 10]
            rel = np.abs(mine - lam_o) / np.maximum(np.abs(lam_o), 1e-30)
            assert rel.max() <= 1e-8


@pytest.fixture(scope="module")
def geneo_desk():
    # the desk coefficient (skyscraper, contrast 1e6) at 64^2, 4x4 subdomains,
    # 2 overlap layers: 10 GenEO modes per subdomain, and the full pencil's K
    # and A_omega from the mask assembly, which matches the production
    # assembly bit for bit (a different summation order moves the top
    # eigenvalues, up to about 6e5, by up to 2e-8 relative)
    system = make_system(64, contrast=1e6)
    dec = build_decomposition(system, 4, 4, 2, 4)
    pu = build_partition_of_unity(dec)
    kref = element_stiffness(1.0, system.grid.hx, system.grid.hy)
    masks = [box_mask(system.grid, s.box) for s in dec.subdomains]
    cases = []
    for i, sub in enumerate(dec.subdomains):
        A = mask_local_stiffness(system, masks[i], sub.dofs, kref).toarray()
        A_over = mask_local_stiffness(system, mask_geneo_overlap(masks, i), sub.dofs,
                                      kref).toarray()
        chi = pu.weights[i]
        b = geneo_eigenproblem(system, dec, pu, i, 10)
        cases.append((chi[:, None] * A_over * chi[None, :], A,
                      b.vectors[sub.star_positions(sub.dofs)], b))
    return system, dec, pu, cases


class TestGeneoReducedPencil:
    """The GenEO pencil is solved on the coupling dofs; its vectors, extended
    to omega_i, must solve the full pencil K v = lambda A_omega v."""

    def test_finite_modes_solve_full_pencil(self, geneo_desk):
        for K, A, V, b in geneo_desk[3]:
            fin = V[:, b.kernel_dim :]
            lam = b.eigenvalues[b.kernel_dim :]
            res = np.linalg.norm(K @ fin - (A @ fin) * lam, axis=0)
            assert np.all(res <= 1e-8 * np.linalg.norm(K, 2) * np.linalg.norm(fin, axis=0)), \
                b.subdomain_id
            gram = fin.T @ A @ fin
            assert np.abs(gram - np.eye(lam.size)).max() <= 1e-8, b.subdomain_id

    def test_kernel_vectors_in_kernel(self, geneo_desk):
        kernels = 0
        for _, A, V, b in geneo_desk[3]:
            ker = V[:, : b.kernel_dim]
            kernels += b.kernel_dim
            assert np.all(np.linalg.norm(A @ ker, axis=0)
                          <= 1e-8 * np.linalg.norm(A, 2) * np.linalg.norm(ker, axis=0))
        assert kernels > 0  # the floating subdomains carry the constants

    def test_kernel_and_next_eigenvalue_match_oracle(self, geneo_desk):
        system, dec, pu, cases = geneo_desk
        for _, _, _, b in cases:
            l_o, lam_o = geneo_eigs_bruteforce(system, dec, pu, b.subdomain_id,
                                               10 - b.kernel_dim + 1)
            assert l_o == b.kernel_dim
            rel = abs(b.next_eigenvalue - lam_o[-1]) / lam_o[-1]
            assert rel <= 1e-8, (b.subdomain_id, rel)

    def test_pencil_has_coupling_rows(self, system16, decomp16, pu16, monkeypatch):
        # Gamma: the dofs with nonzero PU weight on a node of an overlap-zone
        # cell; a fallback to the full omega_i pencil must fail here
        sizes = []
        original = spectral.dense_generalized_sym_eig
        monkeypatch.setattr(spectral, "dense_generalized_sym_eig",
                            lambda K, M, n_pairs=None: sizes.append(K.shape[0])
                            or original(K, M, n_pairs))
        masks = [box_mask(system16.grid, s.box) for s in decomp16.subdomains]
        for i, sub in enumerate(decomp16.subdomains):
            geneo_eigenproblem(system16, decomp16, pu16, i, 5)
            on_zone, _ = node_incidence(mask_geneo_overlap(masks, i))
            in_gamma = on_zone.ravel()[system16.free_to_node[sub.dofs]] & (pu16.weights[i] != 0)
            assert sizes[-1] == np.count_nonzero(in_gamma) < sub.dofs.size

    def test_cholesky_failure_is_typed(self, system16, decomp16, pu16, monkeypatch):
        def fail(*args, **kwargs):
            raise scipy.linalg.LinAlgError("leading minor not positive definite")

        monkeypatch.setattr(scipy.linalg, "cho_factor", fail)
        with pytest.raises(FactorizationFailure, match="subdomain 1"):
            geneo_eigenproblem(system16, decomp16, pu16, 1, 5)


class TestBlasWidth:
    @pytest.mark.parametrize("kind", ["harmonic", "geneo"])
    def test_bases_do_not_depend_on_blas_width(self, interior_case, blas_width_two, kind):
        # a fresh decomposition per run, so no cached factor crosses the cap
        system, _, _ = interior_case

        def bases():
            dec = build_decomposition(system, 3, 3, 1, 1)
            return compute_bases(system, dec, build_partition_of_unity(dec), [6] * 9, kind)

        wide = bases()
        with single_blas_thread():
            narrow = bases()
        for a, b in zip(wide, narrow, strict=True):
            assert a.kernel_dim == b.kernel_dim
            fin = slice(a.kernel_dim, None)
            lam = np.append(a.eigenvalues[fin], a.next_eigenvalue)
            rel = np.abs(np.append(b.eigenvalues[fin], b.next_eigenvalue) - lam) / np.abs(lam)
            assert rel.max() <= 1e-10, (a.subdomain_id, rel.max())
            angles = scipy.linalg.subspace_angles(a.vectors, b.vectors)
            assert angles.max() <= 1e-8, (a.subdomain_id, angles.max())


class TestCoarseSpace:
    def test_empty_rejected(self, system16, decomp16, pu16):
        with pytest.raises(ValueError):
            build_coarse_space(system16, decomp16, pu16, [])

    def test_lambda_formula(self, system16):
        cols = np.zeros((system16.n_free, 1))
        cols[0, 0] = 1.0
        cs = coarse_space_from_columns(system16, cols, xi=4, xi_star=4, max_next_eigenvalue=1e-6)
        assert cs.lam == pytest.approx(4e-3, rel=1e-12)

    def test_lambda_from_bases(self, system16, decomp16, pu16):
        bases = []
        for i in range(4):
            S, P, H = reduce_to_harmonic(system16, decomp16, pu16, i)
            bases.append(solve_local_eigenproblem(S, P, H, 6, sub_id=i))
        cs = build_coarse_space(system16, decomp16, pu16, bases)
        expected = np.sqrt(
            decomp16.xi * decomp16.xi_star * max(b.next_eigenvalue for b in bases)
        )
        assert cs.lam == pytest.approx(expected, rel=1e-14)
        assert cs.m == 24

    @pytest.mark.parametrize("kind", ["harmonic", "geneo"])
    def test_glued_columns_match_lil_build(self, system16, decomp16, pu16, monkeypatch, kind):
        # reference: column by column into a lil_matrix, which stores no zeros
        if kind == "harmonic":
            bases = [solve_local_eigenproblem(*reduce_to_harmonic(system16, decomp16, pu16, i),
                                              6, sub_id=i) for i in range(4)]
        else:
            bases = [geneo_eigenproblem(system16, decomp16, pu16, i, 5) for i in range(4)]
        ref = sparse.lil_matrix((system16.n_free, sum(b.n_modes for b in bases)))
        j = 0
        for basis in bases:
            sub = decomp16.subdomains[basis.subdomain_id]
            for k in range(basis.n_modes):
                ref[sub.dofs_star, j] = pu16.on_star(sub) * basis.vectors[:, k]
                j += 1
        ref = ref.tocsc()
        seen = []
        original = spectral.coarse_space_from_columns

        def capture(system, cols, *rest):
            seen.append(cols)
            return original(system, cols, *rest)

        monkeypatch.setattr(spectral, "coarse_space_from_columns", capture)
        build_coarse_space(system16, decomp16, pu16, bases)
        (cols,) = seen
        # chi_i vanishes on the internal boundary of omega_i: those zeros are not stored
        glued_size = sum(decomp16.subdomains[b.subdomain_id].dofs_star.size * b.n_modes
                         for b in bases)
        assert ref.nnz < glued_size and np.all(cols.data != 0.0)
        for a, b in ((cols.indptr, ref.indptr), (cols.indices, ref.indices),
                     (cols.data, ref.data)):
            assert np.array_equal(a, b)

    def test_degenerate_coarse_reproduces_solution(self):
        # single subdomain: the glued particular field is the exact solution,
        # and the coarse correction from zero reproduces it
        system = make_system(8)
        dec = build_decomposition(system, 1, 1, 1, 1)
        glued = glued_particular(system, dec, build_partition_of_unity(dec))
        u = system.solve_direct()
        assert np.allclose(glued, u, atol=1e-10)
        cs = coarse_space_from_columns(
            system, glued[:, None], xi=1, xi_star=1, max_next_eigenvalue=0.0
        )
        z = cs.apply(system.f_free)
        assert system.a_norm(z - u) <= 1e-9 * system.a_norm(u)

    def test_rank_filtering_drops_duplicates(self, system16, decomp16, pu16):
        rng = np.random.default_rng(5)
        col = rng.standard_normal(system16.n_free)
        cols = np.column_stack([col, col, rng.standard_normal(system16.n_free)])
        with pytest.warns(RankDeficientCoarse):
            cs = coarse_space_from_columns(system16, cols, 1, 1, 0.0)
        assert cs.m == 2

    def test_zero_energy_columns_dropped(self, system16):
        # the kept block of the one Galerkin product, scaled, is the Galerkin
        # matrix of the kept columns: the coarse solve inverts B^T A B
        rng = np.random.default_rng(6)
        cols = np.column_stack([rng.standard_normal(system16.n_free), np.zeros(system16.n_free),
                                rng.standard_normal(system16.n_free)])
        with pytest.warns(RankDeficientCoarse, match="zero-energy"):
            cs = coarse_space_from_columns(system16, cols, 1, 1, 0.0)
        assert cs.m == 2
        B = cs.basis.toarray()
        r = rng.standard_normal(system16.n_free)
        assert np.allclose(B.T @ (system16.A_free @ cs.apply(r)), B.T @ r, rtol=0.0, atol=1e-13)
        assert np.allclose(np.diag(B.T @ (system16.A_free @ B)), 1.0, rtol=0.0, atol=1e-13)

    def test_galerkin_matrix_factored_once(self, system16, decomp16, pu16, monkeypatch):
        # one pivoted Cholesky finds the rank and is the coarse factor: no
        # dense eigensolve scales its tolerance, and no second factorization.
        # The kept columns come in pivot order, and the stored factor must
        # pair with that order: L L^T = B^T A B
        bases = [solve_local_eigenproblem(*reduce_to_harmonic(system16, decomp16, pu16, i),
                                          6, sub_id=i) for i in range(4)]

        def forbidden(*args, **kwargs):
            raise AssertionError("the Galerkin matrix is decomposed once, by dpstrf")

        monkeypatch.setattr(scipy.linalg, "eigh", forbidden)
        monkeypatch.setattr(scipy.linalg, "cho_factor", forbidden)
        cs = build_coarse_space(system16, decomp16, pu16, bases)
        assert cs.m == 24
        L, lower = cs.cho
        assert lower and L.flags.f_contiguous
        L = np.tril(L)
        B = cs.basis.toarray()
        assert np.allclose(L @ L.T, B.T @ (system16.A_free @ B), rtol=0.0, atol=1e-12)

    def test_zero_and_duplicate_columns_one_warning(self, system16):
        rng = np.random.default_rng(8)
        col = rng.standard_normal(system16.n_free)
        cols = np.column_stack([col, np.zeros(system16.n_free), 2.0 * col,
                                rng.standard_normal(system16.n_free)])
        with pytest.warns(RankDeficientCoarse) as record:
            cs = coarse_space_from_columns(system16, cols, 1, 1, 0.0)
        assert len(record) == 1 and "dropping 2 zero-energy or dependent" in str(record[0].message)
        assert cs.m == 2
        B = cs.basis.toarray()
        r = rng.standard_normal(system16.n_free)
        assert np.allclose(B.T @ (system16.A_free @ cs.apply(r)), B.T @ r, rtol=0.0, atol=1e-13)

    def test_all_zero_columns_rejected(self, system16):
        with pytest.raises(ValueError, match="empty coarse space"):
            coarse_space_from_columns(system16, np.zeros((system16.n_free, 3)), 1, 1, 0.0)

    def test_columns_normalized(self, system16, decomp16, pu16):
        bases = []
        for i in range(4):
            S, P, H = reduce_to_harmonic(system16, decomp16, pu16, i)
            bases.append(solve_local_eigenproblem(S, P, H, 4, sub_id=i))
        cs = build_coarse_space(system16, decomp16, pu16, bases)
        B = cs.basis.toarray()
        assert np.allclose(np.diag(B.T @ (system16.A_free @ B)), 1.0, atol=1e-10)

    def test_decay_improves_with_oversampling(self, system16):
        # the eigenvalue tail reaches a fixed threshold at a smaller index
        # when the oversampling region grows
        first_below = {}
        for s in (1, 3):
            dec = build_decomposition(system16, 2, 2, 1, s)
            pu = build_partition_of_unity(dec)
            S, P, H = reduce_to_harmonic(system16, dec, pu, 0)
            b = solve_local_eigenproblem(S, P, H, min(20, S.shape[0]), sub_id=0)
            lam = b.eigenvalues[b.kernel_dim :]
            hit = np.nonzero(lam <= 1e-4)[0]
            first_below[s] = hit[0] if hit.size else lam.size
        assert first_below[3] <= first_below[1]

    def test_spectrum_export(self, system16, decomp16, pu16, tmp_path):
        bases = []
        for i in range(2):
            S, P, H = reduce_to_harmonic(system16, decomp16, pu16, i)
            bases.append(solve_local_eigenproblem(S, P, H, 3, sub_id=i))
        path = tmp_path / "spec.csv"
        export_spectrum_csv(path, bases)
        lines = path.read_text().splitlines()
        assert lines[0] == "i,k,lambda"
        assert len(lines) == 1 + 2 * 4  # 3 retained + next per subdomain
        i, k, lam = lines[1].split(",")
        assert (int(i), int(k)) == (0, 1)
