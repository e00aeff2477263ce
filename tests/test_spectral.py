import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sparse

import msras.spectral as spectral
from msras.bench import local_setup
from msras.decomp import (
    box_nodes,
    build_decomposition,
    build_partition_of_unity,
    overlap_zone,
)
from msras.errors import (
    EmptyBoundary,
    FactorizationFailure,
    NotPositiveDefinite,
    RankDeficientCoarse,
    TooManyModes,
)
from msras.grid import BoundarySpec, element_stiffness
from msras.linalg import dense_generalized_sym_eig
from msras.schwarz import apply_one_level, build_preconditioner
from msras.spectral import (
    LocalSpectralBasis,
    build_coarse_space,
    export_spectrum_csv,
    geneo_eigenproblem,
    local_stiffness,
    reduce_to_harmonic,
    solve_local_eigenproblem,
    truncate_basis,
)
from tests.conftest import (
    PINNED_DECOMPOSITIONS,
    coarse_rss_growth,
    columns_coarse_space,
    make_system,
    pinned_instance,
)
from tests.oracles import (
    blas_width,
    box_mask,
    dense_harmonic_extension,
    dense_local_stiffness,
    geneo_eigs_bruteforce,
    harmonic_eigs_bruteforce,
    harmonic_nullspace_pencil,
    kept_coarse_columns,
    mask_geneo_overlap,
    mask_local_stiffness,
    node_incidence,
    positive_diagonal_gamma,
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
            r = system16.f_free - system16.A_free.mat @ full
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


def extended_vectors(system, dec, pu, i, S, P, b):
    """The vectors of the harmonic basis b on dofs(omega_i^*): its pencil
    (P, S) solved again and the eigenvectors, kernel first, extended through
    the dense oracle extension. Checks first that b keeps chi_i times them
    on dofs0(omega_i) to 1e-10."""
    sub = dec.subdomains[i]
    pencil = dense_generalized_sym_eig(P, S, n_pairs=b.n_modes + 1)
    V = dense_harmonic_extension(system, dec, i) @ pencil.vectors[:, : b.n_modes]
    on = sub.star_positions(sub.dofs0)
    glued = pu.on_star(sub)[on, None] * V[on]
    assert np.abs(b.glued - glued).max() <= 1e-10 * np.abs(glued).max()
    return V


def full_assembly_reduction(system, dec, pu, i):
    """S and Ptil formed from the full local assemblies on omega_i^* and on
    the dofs where chi_i != 0, sliced locally (not symmetrized: the pencil
    solve does that)."""
    sub = dec.subdomains[i]
    i1 = sub.star_positions(sub.dofs0_star)
    i2 = sub.star_positions(sub.boundary_star)
    A_star = local_stiffness(system, sub.box_star, sub.dofs_star)
    A_ek = A_star[i1][:, i2]
    E = spectral.interior_factor(dec, i).solve(A_ek.toarray())
    S = A_star[i2][:, i2].toarray() - A_ek.T @ E
    chi = pu.weights[i]
    nz = np.flatnonzero(chi)
    s = sub.dofs[nz]
    W = -chi[nz, None] * E[np.searchsorted(sub.dofs0_star, s)]
    Ptil = W.T @ (local_stiffness(system, sub.box, s) @ W)
    return S, Ptil


class TestReduceToHarmonic:
    @pytest.mark.parametrize("config", PINNED_DECOMPOSITIONS)
    def test_global_slices_match_full_assemblies(self, config):
        # on interior rows of a domain its local energy is the global matrix
        system, dec, pu = pinned_instance(*config)
        for i in range(dec.n_subdomains):
            S, P, _ = reduce_to_harmonic(system, dec, pu, i)
            S_ref, P_ref = full_assembly_reduction(system, dec, pu, i)
            assert np.array_equal(S, S_ref) and np.array_equal(P, P_ref), i

    def test_one_local_assembly(self, system16, decomp16, pu16, monkeypatch):
        calls = []
        assemble = spectral.local_stiffness
        monkeypatch.setattr(spectral, "local_stiffness",
                            lambda *args: calls.append(1) or assemble(*args))
        for i in range(decomp16.n_subdomains):
            reduce_to_harmonic(system16, decomp16, pu16, i)
        assert len(calls) == decomp16.n_subdomains

    def test_interior_factor_failure_names_subdomain(self, monkeypatch):
        # a fresh decomposition, so the failure is not cached in a shared one
        system = make_system(16, contrast=1e3)
        dec = build_decomposition(system, 2, 2, 1, 2)
        monkeypatch.setattr(spectral, "submatrix",
                            lambda A, rows, cols=None: sparse.csr_matrix(np.diag([1.0, 0.0, 2.0])))
        with pytest.raises(FactorizationFailure, match="subdomain 1: interior block not SPD") as err:
            spectral.interior_factor(dec, 1)
        assert isinstance(err.value.__cause__, NotPositiveDefinite)

    def test_interface_solve_is_blocked(self, system16, decomp16, pu16, monkeypatch):
        # E = A11^{-1} A12 runs the level-3 blocked substitution; dpbtrs, one
        # column at a time, is left to the vector solves of the preconditioner
        calls = []
        dpbtrs = scipy.linalg.lapack.dpbtrs
        monkeypatch.setattr(scipy.linalg.lapack, "dpbtrs",
                            lambda *args, **kwargs: calls.append(1) or dpbtrs(*args, **kwargs))
        for i in range(len(decomp16.subdomains)):
            reduce_to_harmonic(system16, decomp16, pu16, i)
        assert not calls
        state = build_preconditioner(system16, decomp16, pu16, "RAS")
        apply_one_level(state, system16.f_free)
        assert len(calls) == len(decomp16.subdomains)

    def test_harmonic_columns(self, system16, decomp16, pu16):
        # W is chi_0 times the harmonic extension, on the dofs where chi_0 > 0
        sub = decomp16.subdomains[0]
        _, _, W = reduce_to_harmonic(system16, decomp16, pu16, 0)
        ext = dense_harmonic_extension(system16, decomp16, 0)
        A_star, interior = star_stiffness(system16, decomp16, 0)
        res = A_star[interior, :] @ ext
        scale = np.abs(A_star.data).max()
        assert np.abs(res).max() <= 1e-10 * scale
        on = sub.star_positions(sub.dofs0)
        glued = pu16.on_star(sub)[on, None] * ext[on]
        assert np.abs(W - glued).max() <= 1e-10 * np.abs(glued).max()

    def test_interface_block_sizes(self, system16, decomp16, pu16):
        sub = decomp16.subdomains[1]
        S, P, W = reduce_to_harmonic(system16, decomp16, pu16, 1)
        assert S.shape == (sub.boundary_star.size, sub.boundary_star.size)
        assert P.shape == S.shape
        assert W.shape == (sub.dofs0.size, sub.boundary_star.size)

    def test_s_spd_with_dirichlet_contact(self, system16, decomp16, pu16):
        S, _, _ = reduce_to_harmonic(system16, decomp16, pu16, 0)
        ev = np.linalg.eigvalsh(S)
        assert ev[0] > 1e-12 * ev[-1]

    def test_s_rank_one_kernel_when_interior(self, interior_case):
        # dense null-space oracle: interior subdomain -> exactly the constants
        system, dec, pu = interior_case
        i = 4  # middle subdomain of the 3x3 layout
        S, _, _ = reduce_to_harmonic(system, dec, pu, i)
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
        S, P, W = reduce_to_harmonic(system16, decomp16, pu16, 0)
        b = solve_local_eigenproblem(S, P, W, 12, sub_id=0)
        finite = b.eigenvalues[b.kernel_dim :]
        assert np.all(np.diff(finite) <= 1e-12 * finite[0])
        assert np.all(finite >= 0.0)

    def test_s_orthonormal_vectors(self, system16, decomp16, pu16):
        S, P, W = reduce_to_harmonic(system16, decomp16, pu16, 0)
        b = solve_local_eigenproblem(S, P, W, 8, sub_id=0)
        V = extended_vectors(system16, decomp16, pu16, 0, S, P, b)
        A = star_stiffness(system16, decomp16, 0)[0].toarray()
        G = V.T @ A @ V
        assert np.abs(G - np.eye(8)).max() <= 1e-8

    def test_vectors_are_harmonic(self, system16, decomp16, pu16):
        S, P, W = reduce_to_harmonic(system16, decomp16, pu16, 2)
        b = solve_local_eigenproblem(S, P, W, 6, sub_id=2)
        V = extended_vectors(system16, decomp16, pu16, 2, S, P, b)
        A_star, interior = star_stiffness(system16, decomp16, 2)
        res = A_star[interior, :] @ V
        scale = np.abs(A_star.data).max() * np.abs(V).max()
        assert np.abs(res).max() <= 1e-8 * scale

    def test_exhausted_spectrum(self, system16, decomp16, pu16):
        S, P, W = reduce_to_harmonic(system16, decomp16, pu16, 0)
        n2 = S.shape[0]
        b = solve_local_eigenproblem(S, P, W, n2, sub_id=0)
        assert b.next_eigenvalue == 0.0
        with pytest.raises(TooManyModes):
            solve_local_eigenproblem(S, P, W, n2 + 1, sub_id=0)

    def test_kernel_mode_is_constant(self):
        # interior subdomain with constant coefficient: the zero-energy mode
        # is the constant vector
        system = make_system(16)
        dec = build_decomposition(system, 3, 3, 1, 1)
        pu = build_partition_of_unity(dec)
        S, P, W = reduce_to_harmonic(system, dec, pu, 4)
        b = solve_local_eigenproblem(S, P, W, 5, sub_id=4)
        assert b.kernel_dim == 1
        assert b.eigenvalues[0] == np.inf
        v = extended_vectors(system, dec, pu, 4, S, P, b)[:, 0]
        assert np.abs(v - v[0]).max() <= 1e-8 * np.abs(v[0])

    def test_kernel_must_be_retained(self, interior_case):
        system, dec, pu = interior_case
        S, P, W = reduce_to_harmonic(system, dec, pu, 4)
        with pytest.raises(TooManyModes):
            solve_local_eigenproblem(S, P, W, 0, sub_id=4)

    def test_matches_bruteforce_oracle(self, interior_case):
        system, dec, pu = interior_case
        for i in range(dec.n_subdomains):
            S, P, W = reduce_to_harmonic(system, dec, pu, i)
            b = solve_local_eigenproblem(S, P, W, 10, sub_id=i)
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
        S, P, W = reduce_to_harmonic(system16, decomp16, pu16, 1)
        b = solve_local_eigenproblem(S, P, W, 11, sub_id=1)
        t = truncate_basis(b, 6)
        assert t.n_modes == 6
        assert t.next_eigenvalue == b.eigenvalues[6]
        assert np.array_equal(t.glued, b.glued[:, :6])
        assert truncate_basis(b, 11) is b
        # the mode-count rule of a pencil solve, naming the subdomain
        with pytest.raises(TooManyModes, match="^subdomain 1: requested 8 modes, only 6 available$"):
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
        # the basis keeps v on supp chi as glued / chi; K v = lambda A v
        # zeroes the rows of A v where chi = 0 (for the kernel, A v = 0), so
        # v there is the dense solve that zeroes them
        on = chi > 0.0
        V = np.empty((sub.dofs.size, b.n_modes))
        V[on] = b.glued / chi[on, None]
        V[~on] = -np.linalg.solve(A[np.ix_(~on, ~on)], A[np.ix_(~on, on)] @ V[on])
        cases.append((chi[:, None] * A_over * chi[None, :], A, V, b))
    return system, dec, pu, cases


class TestBasisMemory:
    @pytest.mark.parametrize("kind", ["harmonic", "geneo"])
    def test_basis_holds_its_glued_block(self, geneo_desk, kind):
        # a basis keeps chi_i phi on dofs0(omega_i) beside its eigenvalues:
        # at most |dofs0| m_i + O(m_i) doubles, where full vectors on
        # omega_i^* would take n_star m_i
        system, dec, pu, cases = geneo_desk
        if kind == "geneo":
            bases = [b for _, _, _, b in cases]
        else:
            bases = local_setup(system, dec, pu, [10] * dec.n_subdomains)[0]
        for b, sub in zip(bases, dec.subdomains, strict=True):
            held = sum((a if a.base is None else a.base).nbytes
                       for a in vars(b).values() if isinstance(a, np.ndarray))
            assert b.glued.shape == (sub.dofs0.size, b.n_modes)
            assert held <= 8 * (sub.dofs0.size + 2) * b.n_modes, (b.subdomain_id, held)


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
        # cell; a fallback to the full omega_i pencil must fail here. Each
        # eigenproblem forms its overlap zone once.
        sizes, zones = [], []
        original = spectral.dense_generalized_sym_eig
        monkeypatch.setattr(spectral, "dense_generalized_sym_eig",
                            lambda K, M, n_pairs=None: sizes.append(K.shape[0])
                            or original(K, M, n_pairs))
        monkeypatch.setattr(spectral, "overlap_zone",
                            lambda dec, i: zones.append(i) or overlap_zone(dec, i))
        masks = [box_mask(system16.grid, s.box) for s in decomp16.subdomains]
        for i, sub in enumerate(decomp16.subdomains):
            geneo_eigenproblem(system16, decomp16, pu16, i, 5)
            assert zones == list(range(i + 1))
            on_zone, _ = node_incidence(mask_geneo_overlap(masks, i))
            in_gamma = on_zone.ravel()[system16.free_to_node[sub.dofs]] & (pu16.weights[i] != 0)
            assert sizes[-1] == np.count_nonzero(in_gamma) < sub.dofs.size

    def test_coupling_rows_match_positive_diagonal(self):
        # the box rule against Gamma's first definition, the positive
        # diagonal of chi A_over chi, on a seeded set of small instances:
        # one subdomain, strips and blocks, overlap 1-3, both boundaries
        rng = np.random.default_rng(29)
        cases = [(8, 8, 1, 1, 1), (12, 9, 5, 1, 2), (16, 21, 1, 4, 3), (40, 40, 5, 5, 3)]
        cases += [(*rng.integers(8, 41, 2), *rng.integers(1, 6, 2), rng.integers(1, 4))
                  for _ in range(12)]
        for k, (nx, ny, px, py, overlap) in enumerate(cases):
            bc = BoundarySpec.all_dirichlet() if k % 2 else None
            system = make_system(int(nx), int(ny), contrast=1e6, bc=bc, seed=k)
            dec = build_decomposition(system, int(px), int(py), int(overlap), 1)
            pu = build_partition_of_unity(dec)
            for i in range(dec.n_subdomains):
                gamma = spectral.coupling_rows(dec, pu, i, overlap_zone(dec, i))
                ref = positive_diagonal_gamma(system, dec, pu, i)
                assert np.array_equal(gamma, ref), (nx, ny, px, py, overlap, i)
                assert spectral.pencil_size(dec, pu, "geneo", i) == gamma.size
                assert (gamma.size == dec.subdomains[i].dofs.size) == (dec.n_subdomains == 1)

    def test_cholesky_failure_is_typed(self, system16, decomp16, pu16, monkeypatch):
        def fail(A):
            raise NotPositiveDefinite("leading minor of order 3 is not positive definite")

        monkeypatch.setattr(spectral, "factorize", fail)
        with pytest.raises(FactorizationFailure, match="subdomain 1: local energy off") as err:
            geneo_eigenproblem(system16, decomp16, pu16, 1, 5)
        assert isinstance(err.value.__cause__, NotPositiveDefinite)


@pytest.mark.parametrize("nx, parts, seed", [(64, 4, 7), (64, 4, 23), (128, 8, 7), (128, 8, 23)])
def test_kernel_follows_topology(nx, parts, seed):
    """On the desk coefficient, a basis has one kernel mode (the constant)
    exactly when its domain, omega_i^* for the harmonic basis and omega_i
    for GenEO, touches no Dirichlet node, and none otherwise; no mode is
    reported as a finite eigenvalue of 1e10 or more."""
    system = make_system(nx, contrast=1e6, seed=seed)
    dec = build_decomposition(system, parts, parts, 2, 4)
    pu = build_partition_of_unity(dec)
    for kind, box in (("harmonic", "box_star"), ("geneo", "box")):
        for b in local_setup(system, dec, pu, [10] * dec.n_subdomains, kind)[0]:
            nodes = box_nodes(system.grid, getattr(dec.subdomains[b.subdomain_id], box))
            floating = not np.any(system.node_to_free[nodes] < 0)
            assert b.kernel_dim == int(floating), (kind, b.subdomain_id)
            finite = np.r_[b.eigenvalues[b.kernel_dim:], b.next_eigenvalue]
            assert np.all(finite < 1e10), (kind, b.subdomain_id, finite.max())


class TestBlasWidth:
    @pytest.mark.parametrize("kind", ["harmonic", "geneo"])
    def test_bases_do_not_depend_on_blas_width(self, interior_case, bundled_openblas, kind):
        # the package runs BLAS on one thread; a second one changes the
        # bases only by rounding. A fresh decomposition per run, so no
        # cached factor crosses from one width to the other.
        system, _, _ = interior_case

        def bases():
            dec = build_decomposition(system, 3, 3, 1, 1)
            return local_setup(system, dec, build_partition_of_unity(dec), [6] * 9, kind)[0]

        with blas_width(2):
            wide = bases()
        narrow = bases()
        for a, b in zip(wide, narrow, strict=True):
            assert a.kernel_dim == b.kernel_dim
            fin = slice(a.kernel_dim, None)
            lam = np.append(a.eigenvalues[fin], a.next_eigenvalue)
            rel = np.abs(np.append(b.eigenvalues[fin], b.next_eigenvalue) - lam) / np.abs(lam)
            assert rel.max() <= 1e-10, (a.subdomain_id, rel.max())
            angles = scipy.linalg.subspace_angles(a.glued, b.glued)
            assert angles.max() <= 1e-8, (a.subdomain_id, angles.max())


def _galerkin_bands(monkeypatch):
    """The unscaled Galerkin bands `build_coarse_space` forms, copied as
    they are written: the set-up scales them in place and factors them."""
    bands = []
    original = spectral._galerkin

    def capture(*args):
        band = original(*args)
        bands.append(band.copy(order="K"))
        return band

    monkeypatch.setattr(spectral, "_galerkin", capture)
    return bands


class TestCoarseSpace:
    def test_empty_rejected(self, system16, decomp16, pu16):
        with pytest.raises(ValueError):
            build_coarse_space(system16, decomp16, [])

    def test_lambda_formula(self, system16):
        cols = np.zeros((system16.n_free, 1))
        cols[0, 0] = 1.0
        # xi = xi_star = 1 on one subdomain
        cs = columns_coarse_space(system16, cols, max_next_eigenvalue=1.6e-5)
        assert cs.lam == pytest.approx(4e-3, rel=1e-12)

    def test_lambda_from_bases(self, system16, decomp16, pu16):
        bases = []
        for i in range(4):
            S, P, W = reduce_to_harmonic(system16, decomp16, pu16, i)
            bases.append(solve_local_eigenproblem(S, P, W, 6, sub_id=i))
        cs = build_coarse_space(system16, decomp16, bases)
        expected = np.sqrt(
            decomp16.xi * decomp16.xi_star * max(b.next_eigenvalue for b in bases)
        )
        assert cs.lam == pytest.approx(expected, rel=1e-14)
        assert cs.m == 24

    @pytest.mark.parametrize("kind", ["harmonic", "geneo"])
    def test_coarse_space_shares_the_bases(self, system16, decomp16, pu16, kind):
        # the coarse basis is the bases' own blocks chi_i phi on
        # dofs0(omega_i), neither copied nor scaled in place; bases in
        # another order, or some of them, give the coarse solve of their
        # columns in that order
        if kind == "harmonic":
            bases = [solve_local_eigenproblem(*reduce_to_harmonic(system16, decomp16, pu16, i),
                                              6, sub_id=i) for i in range(4)]
        else:
            bases = [geneo_eigenproblem(system16, decomp16, pu16, i, 5) for i in range(4)]
        before = [b.glued.copy() for b in bases]
        cs = build_coarse_space(system16, decomp16, bases)
        for basis, glued, rows, block in zip(bases, before, cs.rows, cs.blocks, strict=True):
            assert np.array_equal(basis.glued, glued)
            assert np.shares_memory(block, basis.glued)
            assert np.array_equal(rows, decomp16.subdomains[basis.subdomain_id].dofs0)
        A = system16.A_free.mat.toarray()
        r = np.random.default_rng(4).standard_normal((system16.n_free, 2))
        for subset in (bases, bases[::-1], bases[1:3]):
            cs = build_coarse_space(system16, decomp16, subset)
            assert cs.m == sum(b.n_modes for b in subset)
            B = kept_coarse_columns(cs, system16.n_free)
            expected = B @ np.linalg.solve(B.T @ A @ B, B.T @ r)
            for k in range(2):
                z = cs.apply(r[:, k])
                assert np.linalg.norm(z - expected[:, k]) <= 1e-12 * np.linalg.norm(expected[:, k])
            z = cs.apply(r)
            assert np.linalg.norm(z - expected) <= 1e-12 * np.linalg.norm(expected)
        for basis, glued in zip(bases, before, strict=True):
            assert np.array_equal(basis.glued, glued)

    def test_degenerate_coarse_reproduces_solution(self):
        # single subdomain: the glued particular field is the exact solution,
        # and the coarse correction from zero reproduces it
        system = make_system(8)
        dec = build_decomposition(system, 1, 1, 1, 1)
        glued = glued_particular(system, dec, build_partition_of_unity(dec))
        u = system.solve_direct()
        assert np.allclose(glued, u, atol=1e-10)
        cs = columns_coarse_space(system, glued[:, None])
        z = cs.apply(system.f_free)
        assert system.a_norm(z - u) <= 1e-9 * system.a_norm(u)

    def test_rank_filtering_drops_duplicates(self, system16, decomp16, pu16):
        rng = np.random.default_rng(5)
        col = rng.standard_normal(system16.n_free)
        cols = np.column_stack([col, col, rng.standard_normal(system16.n_free)])
        with pytest.warns(RankDeficientCoarse):
            cs = columns_coarse_space(system16, cols)
        assert cs.m == 2

    def test_zero_energy_columns_dropped(self, system16):
        # the kept block of the one Galerkin product, scaled, is the Galerkin
        # matrix of the kept columns: the coarse solve inverts B^T A B
        rng = np.random.default_rng(6)
        cols = np.column_stack([rng.standard_normal(system16.n_free), np.zeros(system16.n_free),
                                rng.standard_normal(system16.n_free)])
        with pytest.warns(RankDeficientCoarse, match="zero-energy"):
            cs = columns_coarse_space(system16, cols)
        assert cs.m == 2 and 1 not in cs.keep
        B = kept_coarse_columns(cs, system16.n_free)
        r = rng.standard_normal(system16.n_free)
        assert np.allclose(B.T @ (system16.A_free.mat @ cs.apply(r)), B.T @ r, rtol=0.0, atol=1e-13)
        assert np.allclose(np.diag(B.T @ (system16.A_free.mat @ B)), 1.0, rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("case", ["desk", "no_modes", "strips"])
    def test_galerkin_band_of_overlapping_pairs(self, system16, decomp16, pu16, monkeypatch,
                                                case):
        # the band assembled over the pairs of overlapping subdomains is the
        # lower band of B^T A B to rounding, and every entry of B^T A B
        # outside it is zero. Its last diagonal is not: w is the widest
        # coupled pair. On 2 x 2 subdomains every pair overlaps and the band
        # is the whole triangle, also when a subdomain gives no mode; on
        # 4 x 4 the columns of subdomains a strip apart do not meet, and
        # w = 17 of m = 48
        system, decomp = system16, decomp16
        if case == "strips":
            system = make_system(32)
            decomp = build_decomposition(system, 4, 4, 1, 1)
            rng = np.random.default_rng(3)
            bases = [LocalSpectralBasis(sub.id, "harmonic", np.ones(3),
                                        rng.standard_normal((sub.dofs0.size, 3)), 0.1, 0)
                     for sub in decomp.subdomains]
        else:
            bases = [solve_local_eigenproblem(*reduce_to_harmonic(system, decomp, pu16, i),
                                              6, sub_id=i) for i in range(4)]
        if case == "no_modes":
            bases[1] = LocalSpectralBasis(1, "harmonic", np.ones(0),
                                          np.zeros((decomp.subdomains[1].dofs0.size, 0)), 0.1, 0)
        bands = _galerkin_bands(monkeypatch)
        cs = build_coarse_space(system, decomp, bases)
        (band,) = bands
        B = kept_coarse_columns(cs, system.n_free) / cs.scale  # full rank: every column kept
        full = B.T @ (system.A_free.mat @ B)
        w, m = band.shape[0] - 1, full.shape[0]
        assert band.flags.f_contiguous and band.shape[1] == m
        assert (m, w) == {"desk": (24, 23), "no_modes": (18, 17), "strips": (48, 17)}[case]
        tol = 1e-14 * np.diag(full).max()
        for d in range(w + 1):
            assert np.abs(band[d, :m - d] - np.diagonal(full, -d)).max() <= tol
            assert not band[d, m - d:].any()
        assert band[w].any()
        assert not np.tril(full, -w - 1).any() and not np.triu(full, w + 1).any()

    def test_bandwidth_is_the_last_overlapping_pair(self, monkeypatch):
        # at 256^2 with 8 x 8 subdomains and 10 modes each (the benchmark's
        # decomposition), w is set by the last pair of overlapping
        # subdomains, a strip and one subdomain on: (px + 1) * 10 - 1 = 99.
        # The band's last diagonal is not zero, so no narrower band holds
        # B^T A B
        system = make_system(256)
        decomp = build_decomposition(system, 8, 8, 2, 4)
        rng = np.random.default_rng(0)
        bases = [LocalSpectralBasis(sub.id, "harmonic", np.ones(10),
                                    rng.standard_normal((sub.dofs0.size, 10)), 0.1, 0)
                 for sub in decomp.subdomains]
        bands = _galerkin_bands(monkeypatch)
        cs = build_coarse_space(system, decomp, bases)
        (band,) = bands
        assert cs.m == 640 and band.shape == (100, 640) and cs.factor.band.shape == (100, 640)
        assert band[99].any()

    def test_galerkin_matrix_factored_once(self, system16, decomp16, pu16, monkeypatch):
        # a full-rank Galerkin matrix is factored once, in its band: no
        # dense eigensolve, no pivoted or dense Cholesky. The stored factor
        # pairs with every column in order: L L^T = B_k^T A B_k with
        # B_k the scaled columns of keep
        bases = [solve_local_eigenproblem(*reduce_to_harmonic(system16, decomp16, pu16, i),
                                          6, sub_id=i) for i in range(4)]

        def forbidden(*args, **kwargs):
            raise AssertionError("a full-rank Galerkin matrix is factored once, by dpbtrf")

        monkeypatch.setattr(scipy.linalg.lapack, "dpstrf", forbidden)
        monkeypatch.setattr(scipy.linalg, "eigh", forbidden)
        monkeypatch.setattr(scipy.linalg, "cho_factor", forbidden)
        cs = build_coarse_space(system16, decomp16, bases)
        assert cs.m == 24 and np.array_equal(cs.keep, np.arange(24))
        band = cs.factor.band
        assert band.flags.f_contiguous
        L = np.zeros((24, 24))
        for d in range(band.shape[0]):
            L += np.diag(band[d, :24 - d], -d)
        B = kept_coarse_columns(cs, system16.n_free)
        assert np.allclose(L @ L.T, B.T @ (system16.A_free.mat @ B), rtol=0.0, atol=1e-12)

    def test_zero_and_duplicate_columns_one_warning(self, system16):
        rng = np.random.default_rng(8)
        col = rng.standard_normal(system16.n_free)
        cols = np.column_stack([col, np.zeros(system16.n_free), 2.0 * col,
                                rng.standard_normal(system16.n_free)])
        with pytest.warns(RankDeficientCoarse) as record:
            cs = columns_coarse_space(system16, cols)
        assert len(record) == 1 and "dropping 2 zero-energy or dependent" in str(record[0].message)
        assert cs.m == 2
        B = kept_coarse_columns(cs, system16.n_free)
        r = rng.standard_normal(system16.n_free)
        assert np.allclose(B.T @ (system16.A_free.mat @ cs.apply(r)), B.T @ r, rtol=0.0, atol=1e-13)

    def test_dropped_columns_mid_order(self, system16):
        # a zero column and a dependent one between kept ones: the coarse
        # solve is B_k (B_k^T A B_k)^{-1} B_k^T on the kept columns alone.
        # A full-rank set keeps every column and solves through its band
        rng = np.random.default_rng(9)
        a, b, c = rng.standard_normal((3, system16.n_free))
        with pytest.warns(RankDeficientCoarse, match="dropping 2"):
            cs = columns_coarse_space(
                system16, np.column_stack([a, b, np.zeros(system16.n_free), a - b, c]))
        assert cs.m == 3 and cs.scale.size == 5
        assert 2 not in cs.keep and cs.keep.size == np.unique(cs.keep).size
        with warnings.catch_warnings():
            warnings.simplefilter("error", RankDeficientCoarse)
            full_rank = columns_coarse_space(system16, np.column_stack([a, b, c]))
        assert np.array_equal(full_rank.keep, np.arange(3))
        A = system16.A_free.mat.toarray()
        r = rng.standard_normal((system16.n_free, 2))
        for cs in (cs, full_rank):
            B = kept_coarse_columns(cs, system16.n_free)
            expected = B @ np.linalg.solve(B.T @ A @ B, B.T @ r)
            for k in range(2):
                z = cs.apply(r[:, k])
                assert (np.linalg.norm(z - expected[:, k])
                        <= 1e-12 * np.linalg.norm(expected[:, k]))
            z = cs.apply(r)
            assert np.linalg.norm(z - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_coarse_stage_grows_by_its_live_result(self):
        # the stage keeps the bases' blocks as its basis: its peak resident
        # set grows by the banded factor and per-block temporaries, less
        # than one copy of the bases, which a glued copy of the columns
        # alone would take
        m, growth, bases_bytes = coarse_rss_growth(256, 4, 40)
        assert m == 640
        assert growth < bases_bytes, (
            f"peak RSS grew {growth / 1e6:.1f} MB for {bases_bytes / 1e6:.1f} MB of bases")

    def test_full_rank_coarse_space_forms_no_square_array(self):
        # 16 x 16 subdomains with 10 modes each: m = 2560, and one m x m
        # array alone would take 52 MB, several times the basis and the band
        system = make_system(128)
        decomp = build_decomposition(system, 16, 16, 2, 4)
        rng = np.random.default_rng(0)
        bases = [LocalSpectralBasis(sub.id, "harmonic", np.ones(10),
                                    rng.standard_normal((sub.dofs0.size, 10)), 0.1, 0)
                 for sub in decomp.subdomains]
        tracemalloc.start()
        try:
            cs = build_coarse_space(system, decomp, bases)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cs.m == 2560
        assert peak < 4 * cs.m**2, f"the coarse set-up peaked at {peak / 1e6:.1f} MB"

    def test_all_zero_columns_rejected(self, system16):
        for n_cols in (3, 0):
            with pytest.raises(ValueError, match="empty coarse space"):
                columns_coarse_space(system16, np.zeros((system16.n_free, n_cols)))

    def test_columns_normalized(self, system16, decomp16, pu16):
        bases = []
        for i in range(4):
            S, P, W = reduce_to_harmonic(system16, decomp16, pu16, i)
            bases.append(solve_local_eigenproblem(S, P, W, 4, sub_id=i))
        cs = build_coarse_space(system16, decomp16, bases)
        B = kept_coarse_columns(cs, system16.n_free)
        assert np.allclose(np.diag(B.T @ (system16.A_free.mat @ B)), 1.0, atol=1e-10)

    def test_decay_improves_with_oversampling(self, system16):
        # the eigenvalue tail reaches a fixed threshold at a smaller index
        # when the oversampling region grows
        first_below = {}
        for s in (1, 3):
            dec = build_decomposition(system16, 2, 2, 1, s)
            pu = build_partition_of_unity(dec)
            S, P, W = reduce_to_harmonic(system16, dec, pu, 0)
            b = solve_local_eigenproblem(S, P, W, min(20, S.shape[0]), sub_id=0)
            lam = b.eigenvalues[b.kernel_dim :]
            hit = np.nonzero(lam <= 1e-4)[0]
            first_below[s] = hit[0] if hit.size else lam.size
        assert first_below[3] <= first_below[1]

    def test_spectrum_export(self, system16, decomp16, pu16, tmp_path):
        bases = []
        for i in range(2):
            S, P, W = reduce_to_harmonic(system16, decomp16, pu16, i)
            bases.append(solve_local_eigenproblem(S, P, W, 3, sub_id=i))
        path = tmp_path / "spec.csv"
        export_spectrum_csv(path, bases)
        lines = path.read_text().splitlines()
        assert lines[0] == "i,k,lambda"
        assert len(lines) == 1 + 2 * 4  # 3 retained + next per subdomain
        i, k, lam = lines[1].split(",")
        assert (int(i), int(k)) == (0, 1)
