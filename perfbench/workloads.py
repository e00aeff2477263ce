"""The benchmark's workloads: the desk instance at three sizes and scheme mixes.

All workloads use the desk instance (skyscraper coefficient with contrast
1e6, mixed_flux_channel boundary, Gaussian source, 2 overlap and 4
oversampling layers, GMRES to a 1e-10 reduction within 200 steps). The seed
feeds the coefficient's random block choice; 7 is the desk config's seed.

- msras_256: the paper's method at 256^2 with 8x8 subdomains. About 80% of
  the run is the local harmonic eigensolves; Krylov is a few percent.
- ras_256: one-level RAS at 256^2 with 16x16 subdomains. About 90% of the
  run is GMRES; it has the most subdomains and the largest Krylov basis, and
  it never enters the spectral layer. Its iteration count depends on the
  coefficient layout (113 to 146 over seeds 0-15), so it is run on fixed
  seeds by hand and is not in BENCHMARK.json.
- compare_128: all five schemes over one shared set-up at 128^2 with 8x8
  subdomains: GenEO pencils, harmonic set-up, repeated preconditioner
  builds and five short solves.
"""

DEFAULT_SEED = 7

# The five schemes of the comparison, fixed here so the workload does not
# change when the package adds a scheme.
COMPARE_SCHEMES = ("hybrid_RAS_msgfem", "RAS", "AS", "hybrid_AS", "AS2_geneo")

_DESK = {
    "lx": 1.0,
    "ly": 1.0,
    "coefficient": {"kind": "skyscraper", "contrast": 1e6, "blocks": [8, 8], "fraction": 0.3},
    "boundary": {"preset": "mixed_flux_channel"},
    "source": {"kind": "gaussian_bump"},
    "overlap_layers": 2,
    "oversampling_layers": 4,
    "driver": "gmres",
    "target_reduction": 1e-10,
    "maxit": 200,
    "outputs": {},
}

# name -> (entry point, size and scheme overrides of the desk instance)
WORKLOADS = {
    "msras_256": ("run_single", {"nx": 256, "ny": 256, "px": 8, "py": 8, "modes": 10,
                                 "scheme": "hybrid_RAS_msgfem"}),
    "ras_256": ("run_single", {"nx": 256, "ny": 256, "px": 16, "py": 16, "modes": 0,
                               "scheme": "RAS"}),
    "compare_128": ("run_comparison", {"nx": 128, "ny": 128, "px": 8, "py": 8, "modes": 10,
                                       "scheme": "hybrid_RAS_msgfem"}),
}

# Smoke mode: the same workloads shrunk to a 32^2 grid with 4x4 subdomains.
SMOKE = {"nx": 32, "ny": 32, "px": 4, "py": 4}


def config(name, seed, smoke=False):
    """Experiment config (a plain dict) of a workload for a seed."""
    _, overrides = WORKLOADS[name]
    cfg = dict(_DESK, **overrides, seed=seed)
    cfg["coefficient"] = dict(_DESK["coefficient"], seed=seed)
    if smoke:
        cfg.update(SMOKE)
    return cfg


def schemes(name):
    """Schemes solved in one call of the workload's entry point."""
    entry, overrides = WORKLOADS[name]
    return COMPARE_SCHEMES if entry == "run_comparison" else (overrides["scheme"],)
