"""Two-level spectral restricted additive Schwarz solvers for heterogeneous
diffusion on Cartesian Q1 grids.

Spectral coarse spaces are built from local eigenproblems on discretely
harmonic subspaces of oversampled subdomains; the hybrid restricted
preconditioner contracts at the coarse-space approximation bound, both as a
Richardson iteration and under GMRES.
"""

from .bench import ExperimentConfig, run_comparison, run_single, run_spectrum, run_sweep
from .decomp import (
    Decomposition,
    PartitionOfUnity,
    Subdomain,
    build_decomposition,
    build_partition_of_unity,
    coloring_constant,
)
from .grid import (
    AssembledSystem,
    BoundarySpec,
    CartesianGrid,
    CoefficientField,
    assemble,
    element_stiffness,
    gaussian_bump_source,
    skyscraper_coefficient,
)
from .linalg import (
    DensePencilEig,
    SparseFactor,
    SparseSym,
    dense_generalized_sym_eig,
    factorize,
)
from .schwarz import (
    IterationHistory,
    PreconditionerState,
    SCHEMES,
    apply_one_level,
    apply_preconditioner,
    build_preconditioner,
    gmres,
    richardson,
)
from .spectral import (
    CoarseSpace,
    LocalSpectralBasis,
    build_coarse_space,
    geneo_eigenproblem,
    reduce_to_harmonic,
    solve_local_eigenproblem,
    truncate_basis,
)

__version__ = "0.1.0"
