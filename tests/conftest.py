import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import msras
from msras import linalg
from msras.decomp import build_decomposition, build_partition_of_unity
from msras.grid import (
    BoundarySpec,
    CartesianGrid,
    CoefficientField,
    assemble,
    gaussian_bump_source,
    skyscraper_coefficient,
)
from msras.spectral import LocalSpectralBasis, build_coarse_space


def make_system(nx, ny=None, contrast=None, bc=None, source=gaussian_bump_source, seed=7):
    ny = nx if ny is None else ny
    grid = CartesianGrid(nx, ny)
    if contrast is None:
        coeff = CoefficientField.constant(grid, 1.0)
    else:
        coeff = skyscraper_coefficient(grid, contrast, (8, 8), 0.3, seed)
    bc = bc or BoundarySpec.mixed_flux_channel()
    return assemble(grid, coeff, bc, source=source)


def local_solves(state):
    """Per subdomain of a preconditioner state: (its dofs, its local factor,
    its PU weights or None), read from the state's end-to-end layout."""
    for factor, p in state.spans:
        run = slice(p, p + factor.n)
        yield state.gather[run], factor, None if state.weights is None else state.weights[run]


def columns_coarse_space(system, columns, max_next_eigenvalue=0.0):
    """The coarse space of the dense (n_free, k) `columns` through
    `build_coarse_space`: one subdomain covering the grid, whose dofs0 is
    every free dof and whose xi = xi_star = 1, with one basis whose glued
    block is the column set."""
    decomp = build_decomposition(system, 1, 1, 1, 1)
    assert decomp.subdomains[0].dofs0.size == system.n_free
    basis = LocalSpectralBasis(0, "harmonic", np.ones(columns.shape[1]), columns,
                               max_next_eigenvalue, 0)
    return build_coarse_space(system, decomp, [basis])


# (nx, ny, boundary, px, py, overlap, oversampling): the desk instance and
# all-Dirichlet 37x23 variants, on which the harmonic reduction is pinned
PINNED_DECOMPOSITIONS = [
    (64, 64, "mixed", 4, 4, 2, 4),
    *((37, 23, "dirichlet", 3, 2, ov, os_) for ov in (1, 2, 3) for os_ in (1, 2)),
]


def pinned_instance(nx, ny, bc, px, py, overlap, oversampling):
    """System, decomposition and partition of unity of a PINNED_DECOMPOSITIONS entry."""
    spec = BoundarySpec.mixed_flux_channel() if bc == "mixed" else BoundarySpec.all_dirichlet()
    system = make_system(nx, ny, contrast=1e6, bc=spec)
    dec = build_decomposition(system, px, py, overlap, oversampling)
    return system, dec, build_partition_of_unity(dec)


@pytest.fixture(scope="session")
def system16():
    return make_system(16, contrast=1e3)


@pytest.fixture(scope="session")
def decomp16(system16):
    return build_decomposition(system16, 2, 2, 1, 2)


@pytest.fixture(scope="session")
def pu16(decomp16):
    return build_partition_of_unity(decomp16)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240811)


_OPENBLAS_GETTERS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads")


def openblas_threads():
    """The thread count each bundled OpenBLAS is set to."""
    counts = []
    for lib, _ in linalg._OPENBLAS:
        name = next(n for n in _OPENBLAS_GETTERS if hasattr(lib, n))
        counts.append(getattr(lib, name)())
    return counts


@pytest.fixture
def bundled_openblas():
    """Skips the test without a bundled OpenBLAS whose thread count it can
    set and read."""
    if not linalg._OPENBLAS:
        pytest.skip("no bundled OpenBLAS with a global thread-count setter")


_GMRES_RSS = """
import resource, sys, types
import numpy as np
import scipy.sparse as sparse
from msras.linalg import SparseFactor, SparseSym
from msras.schwarz import PreconditionerState, gmres

n, maxit, solves = map(int, sys.argv[1:])
# three distinct eigenvalues and an identity preconditioner (one local
# solve on every dof, with the factor L = I): three steps
A = SparseSym(sparse.diags(np.resize([1.0, 2.0, 3.0], n)).tocsr())
system = types.SimpleNamespace(A_free=A, f_free=np.ones(n), n_free=n)
identity = [(SparseFactor(np.ones((1, n))), 0)]
state = PreconditionerState("RAS", np.arange(n), identity, None, [identity], None, system)
for _ in range(solves):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    _, history = gmres(state, system, maxit=maxit)
    after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(history.n_iterations, 1024 * (after - before))
"""


def gmres_rss_growth(n, maxit, solves=1):
    """(iterations, growth of the peak resident set in bytes) of each of
    `solves` GMRES solves run one after another in a fresh interpreter, on
    an n-row diagonal system that converges in three steps. ru_maxrss only
    grows, so a fresh process is the only clean baseline."""
    out = subprocess.run(
        [sys.executable, "-c", _GMRES_RSS, str(n), str(maxit), str(solves)],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(Path(msras.__file__).parents[1])},
    ).stdout.split()
    return [(int(out[k]), int(out[k + 1])) for k in range(0, len(out), 2)]


_COARSE_RSS = """
import ctypes, os, resource, sys
import numpy as np
from msras.decomp import build_decomposition
from msras.spectral import LocalSpectralBasis, build_coarse_space
from tests.conftest import make_system

nx, parts, modes = map(int, sys.argv[1:])
system = make_system(nx)
decomp = build_decomposition(system, parts, parts, 2, 4)
rng = np.random.default_rng(0)
bases = [LocalSpectralBasis(sub.id, "harmonic", np.ones(modes),
                            rng.standard_normal((sub.dofs0.size, modes)), 0.1, 0)
         for sub in decomp.subdomains]


def peak():
    return 1024 * resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def resident():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


# freed heap pages go back to the system, and touched ballast lifts the
# resident set to the peak the set-up left, so the coarse stage's growth
# can hide neither in freed memory nor below an earlier transient
malloc_trim = ctypes.CDLL(None).malloc_trim
malloc_trim.argtypes, malloc_trim.restype = [ctypes.c_size_t], ctypes.c_int
malloc_trim(0)
ballast = np.ones(max(peak() - resident(), 0) // 8)
before = peak()
coarse = build_coarse_space(system, decomp, bases)
growth = peak() - before
print(coarse.m, growth, sum(b.glued.nbytes for b in bases))
"""


def coarse_rss_growth(nx, parts, modes):
    """(coarse dimension, growth of the peak resident set in bytes, bytes of
    the bases' glued blocks) of `build_coarse_space` in a fresh interpreter,
    on the constant-coefficient nx x nx system cut into parts x parts
    subdomains with `modes` random glued columns each."""
    out = subprocess.run(
        [sys.executable, "-c", _COARSE_RSS, str(nx), str(parts), str(modes)],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(Path(msras.__file__).parents[1]), str(Path(__file__).parents[1])])},
    ).stdout.split()
    return tuple(map(int, out))
