"""Configuration-driven experiment runner: single solves, scheme comparisons,
and oversampling-by-modes sweeps, with machine-readable reports.

One JSON document describes one experiment (grid, coefficient, boundary
data, source, decomposition, coarse-space size, scheme, solver). Reports
echo every input parameter, carry per-stage wall times, and are
deterministic in the config seed except for the timing fields.
"""

import json
import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import schwarz, spectral
from .decomp import build_decomposition, build_partition_of_unity
from .errors import ConfigError, MsrasError, NonpositiveCoefficient
from .grid import (
    SIDES,
    BoundarySpec,
    CartesianGrid,
    CoefficientField,
    assemble,
    export_solution_csv,
    gaussian_bump_source,
    skyscraper_coefficient,
)
from .linalg import single_blas_thread

_DRIVERS = ("richardson", "gmres")


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass
class ExperimentConfig:
    nx: int = 64
    ny: int = 64
    lx: float = 1.0
    ly: float = 1.0
    coefficient: dict = field(default_factory=lambda: {"kind": "constant", "value": 1.0})
    boundary: dict = field(default_factory=lambda: {"preset": "mixed_flux_channel"})
    source: dict = field(default_factory=lambda: {"kind": "gaussian_bump"})
    px: int = 4
    py: int = 4
    overlap_layers: int = 2
    oversampling_layers: int = 4
    modes: object = 10  # uniform int or per-subdomain list
    scheme: str = "hybrid_RAS_msgfem"
    driver: str = "gmres"
    target_reduction: float = 1e-10
    maxit: int = 200
    seed: int = 7
    outputs: dict = field(default_factory=dict)

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict):
            raise ConfigError(f"config must be a JSON object, got {type(data).__name__}")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        cfg = cls(**data)
        cfg.validate()
        return cfg

    @classmethod
    def from_json(cls, path):
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        return cls.from_dict(data)

    def to_json(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)

    def validate(self):
        for name in ("nx", "ny", "px", "py", "overlap_layers", "oversampling_layers", "maxit",
                     "seed"):
            if not _is_int(getattr(self, name)):
                raise ConfigError(f"{name}: must be an integer, got {getattr(self, name)!r}")
        for name in ("lx", "ly", "target_reduction"):
            if not _is_number(getattr(self, name)):
                raise ConfigError(f"{name}: must be a number, got {getattr(self, name)!r}")
        for name in ("coefficient", "boundary", "source", "outputs"):
            if not isinstance(getattr(self, name), dict):
                raise ConfigError(f"{name}: must be an object")
        for side in SIDES:
            if not isinstance(self.boundary.get(side, {}), dict):
                raise ConfigError(f"boundary.{side}: must be an object")
        if not all(isinstance(path, str) for path in self.outputs.values()):
            raise ConfigError("outputs: paths must be strings")
        if self.nx < 2 or self.ny < 2:
            raise ConfigError("grid: nx and ny must be >= 2")
        if self.lx <= 0 or self.ly <= 0:
            raise ConfigError("grid: lx and ly must be positive")
        if self.px < 1 or self.py < 1:
            raise ConfigError("decomposition.px/py: must be >= 1")
        if self.px > self.nx or self.py > self.ny:
            raise ConfigError("decomposition: more blocks than cells")
        if self.overlap_layers < 1:
            raise ConfigError("decomposition.overlap_layers: must be >= 1")
        if self.oversampling_layers < 1:
            raise ConfigError("decomposition.oversampling_layers: must be >= 1")
        if self.scheme not in schwarz.SCHEMES:
            raise ConfigError(f"scheme: {self.scheme!r} not in {schwarz.SCHEMES}")
        if self.driver not in _DRIVERS:
            raise ConfigError(f"solver.driver: {self.driver!r} not in {_DRIVERS}")
        if not (0.0 < self.target_reduction < 1.0):
            raise ConfigError("solver.target_reduction: must lie in (0, 1)")
        if self.maxit < 1:
            raise ConfigError("solver.maxit: must be >= 1")
        for name, value in self._data_numbers():
            if value is not None and not (_is_number(value) and math.isfinite(value)):
                raise ConfigError(f"{name}: must be a finite number, got {value!r}")
        kind = self.coefficient.get("kind")
        if kind not in ("constant", "skyscraper", "raster"):
            raise ConfigError(f"coefficient.kind: unknown kind {kind!r}")
        if kind == "skyscraper":
            if self.coefficient.get("contrast", 1.0) < 1.0:
                raise ConfigError("coefficient.contrast: must be >= 1")
            fr = self.coefficient.get("fraction", 0.0)
            if not (0.0 <= fr <= 1.0):
                raise ConfigError("coefficient.fraction: must lie in [0, 1]")
            blocks = self.coefficient.get("blocks", (8, 8))
            if not (isinstance(blocks, (list, tuple)) and len(blocks) == 2
                    and all(map(_is_int, blocks))):
                raise ConfigError(f"coefficient.blocks: must be a pair of integers, got {blocks!r}")
            bx, by = blocks
            if not (1 <= bx <= self.nx and 1 <= by <= self.ny):
                raise ConfigError("coefficient.blocks: must fit the cell grid")
            if not _is_int(self.coefficient.get("seed", self.seed)):
                raise ConfigError("coefficient.seed: must be an integer")
        if kind == "raster" and not isinstance(self.coefficient.get("path"), str):
            raise ConfigError("coefficient.path: the raster needs a file path")
        skind = self.source.get("kind", "none")
        if skind not in ("gaussian_bump", "constant", "none"):
            raise ConfigError(f"source.kind: unknown kind {skind!r}")
        self.modes_list()  # raises on malformed modes

    def _data_numbers(self):
        """(path, value) of the coefficient, source and boundary numbers."""
        yield "coefficient.value", self.coefficient.get("value")
        yield "coefficient.contrast", self.coefficient.get("contrast")
        yield "coefficient.fraction", self.coefficient.get("fraction")
        yield "source.value", self.source.get("value")
        yield "boundary.value", self.boundary.get("value")
        for side in SIDES:
            spec = self.boundary.get(side, {})
            yield f"boundary.{side}.value", spec.get("value")
            yield f"boundary.{side}.flux", spec.get("flux")

    def modes_list(self):
        n_sub = self.px * self.py
        if _is_int(self.modes):
            if self.modes < 0:
                raise ConfigError("modes: must be >= 0")
            return [self.modes] * n_sub
        modes = self.modes
        if not (isinstance(modes, (list, tuple)) and len(modes) == n_sub
                and all(_is_int(m) and m >= 0 for m in modes)):
            raise ConfigError(f"modes: need an integer or {n_sub} nonnegative integers")
        return list(modes)


def _build_boundary(spec):
    preset = spec.get("preset")
    if preset == "mixed_flux_channel":
        return BoundarySpec.mixed_flux_channel()
    if preset == "all_dirichlet":
        return BoundarySpec.all_dirichlet(spec.get("value", 0.0))
    if preset is not None:
        raise ConfigError(f"boundary.preset: unknown preset {preset!r}")
    sides = {}
    for side in SIDES:
        s = spec.get(side)
        if s is None:
            raise ConfigError(f"boundary.{side}: missing")
        if s.get("type") == "dirichlet":
            sides[side] = ("dirichlet", float(s.get("value", 0.0)))
        elif s.get("type") == "neumann":
            sides[side] = ("neumann", float(s.get("flux", 0.0)))
        else:
            raise ConfigError(f"boundary.{side}.type: unknown type")
    return BoundarySpec(**sides)


def _build_coefficient(cfg, grid):
    spec = cfg.coefficient
    kind = spec["kind"]
    if kind == "constant":
        return CoefficientField.constant(grid, spec.get("value", 1.0))
    if kind == "skyscraper":
        return skyscraper_coefficient(
            grid,
            contrast=spec.get("contrast", 1e6),
            blocks=tuple(spec.get("blocks", (8, 8))),
            inclusion_fraction=spec.get("fraction", 0.3),
            seed=spec.get("seed", cfg.seed),
        )
    try:
        return CoefficientField.from_raster(grid, spec["path"])
    except (OSError, ValueError, NonpositiveCoefficient) as exc:
        raise ConfigError(f"coefficient.path {spec['path']!r}: {exc}") from exc


def _build_source(cfg):
    kind = cfg.source.get("kind", "none")
    if kind == "gaussian_bump":
        return gaussian_bump_source
    if kind == "constant":
        value = float(cfg.source.get("value", 1.0))
        return lambda x, y: np.full_like(np.asarray(x, dtype=float), value)
    return None


def build_problem(cfg):
    """Grid, coefficient, boundary data and assembled system from a config."""
    grid = CartesianGrid(cfg.nx, cfg.ny, cfg.lx, cfg.ly)
    coeff = _build_coefficient(cfg, grid)
    bc = _build_boundary(cfg.boundary)
    system = assemble(grid, coeff, bc, source=_build_source(cfg))
    return system


# hybrid schemes without a coarse space run as their one-level part
_ONE_LEVEL = {"hybrid_RAS_msgfem": "RAS", "hybrid_AS": "AS"}
_TIMING_KEYS = ("assembly_s", "decomposition_s", "eigensolves_s", "coarse_setup_s",
                "local_factorizations_s", "krylov_s")


def basis_kind(scheme):
    """The local eigenproblem behind a scheme's coarse space: the overlap-zone
    (GenEO) one for AS2_geneo, the oversampled harmonic one otherwise."""
    return "geneo" if scheme == "AS2_geneo" else "harmonic"


def compute_bases(system, decomp, pu, modes, kind="harmonic"):
    """Spectral bases of every subdomain, modes[i] modes on subdomain i."""
    bases = []
    for i, m in zip(range(decomp.n_subdomains), modes, strict=True):
        if kind == "geneo":
            bases.append(spectral.geneo_eigenproblem(system, decomp, pu, i, m))
        else:
            S, P, H = spectral.reduce_to_harmonic(system, decomp, pu, i)
            bases.append(spectral.solve_local_eigenproblem(S, P, H, m, sub_id=i))
    return bases


def _failure(exc):
    """The typed failure recorded in reports: "<type>: <message>"."""
    return f"{type(exc).__name__}: {exc}"


class Pipeline:
    """The staged set-up every verb runs: problem, then decomposition and
    partition of unity, then local bases, then coarse space, then
    preconditioner and drive. Each stage's wall time accumulates in
    `timings`; the interior factors of the oversampling domains are built
    once per decomposition, before the harmonic eigensolves or the first
    preconditioner that needs them, and timed as local factorizations.
    The subdomain-local stages (bases, preconditioner) run on one BLAS
    thread; the coarse space and the drive keep the caller's setting."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.timings = dict.fromkeys(_TIMING_KEYS, 0.0)
        self.system = self._timed("assembly_s", build_problem, cfg)

    def _timed(self, key, fn, *args):
        t = time.perf_counter()
        out = fn(*args)
        self.timings[key] += time.perf_counter() - t
        return out

    def decompose(self, oversampling_layers):
        """(decomposition, partition of unity) at one oversampling depth."""
        cfg = self.cfg

        def build():
            decomp = build_decomposition(self.system, cfg.px, cfg.py, cfg.overlap_layers,
                                         oversampling_layers)
            return decomp, build_partition_of_unity(decomp)

        return self._timed("decomposition_s", build)

    def bases(self, decomp, pu, scheme, modes):
        """Local bases of the scheme's eigenproblem, modes[i] on subdomain i."""
        kind = basis_kind(scheme)
        with single_blas_thread():
            if kind == "harmonic":
                for i in range(decomp.n_subdomains):
                    self._timed("local_factorizations_s", spectral.interior_factor, decomp, i)
            return self._timed("eigensolves_s", compute_bases, self.system, decomp, pu, modes,
                               kind)

    def coarse_space(self, decomp, pu, scheme, modes, full=None):
        """(bases, coarse space) with modes[i] modes on subdomain i, or
        (None, None) when there is no coarse space: no mode requested, or a
        single subdomain. Larger bases in `full` are truncated instead of
        solving the local eigenproblems again."""
        if sum(modes) == 0 or decomp.n_subdomains == 1:
            return None, None
        if full is None:
            bases = self.bases(decomp, pu, scheme, modes)
        else:
            bases = [spectral.truncate_basis(b, m) for b, m in zip(full, modes, strict=True)]
        coarse = self._timed("coarse_setup_s", spectral.build_coarse_space, self.system,
                             decomp, pu, bases)
        return bases, coarse

    def preconditioner(self, decomp, pu, scheme, coarse):
        """The scheme's preconditioner; hybrid schemes fall back to their
        one-level part without a coarse space."""
        applied = scheme if coarse is not None else _ONE_LEVEL.get(scheme, scheme)
        with single_blas_thread():
            return self._timed("local_factorizations_s", schwarz.build_preconditioner,
                               self.system, decomp, pu, applied, coarse)

    def drive(self, state):
        """Run the configured driver. A typed failure is recorded as
        "<type>: <message>", not raised. Returns (solution, history,
        failure, seconds); solution and history are None on failure."""
        cfg = self.cfg
        driver = schwarz.richardson if cfg.driver == "richardson" else schwarz.gmres
        t = time.perf_counter()
        try:
            solution, history = driver(
                state, self.system, target_reduction=cfg.target_reduction, maxit=cfg.maxit
            )
            failure = None
        except MsrasError as exc:
            solution, history = None, None
            failure = _failure(exc)
        solve_s = time.perf_counter() - t
        self.timings["krylov_s"] += solve_s
        return solution, history, failure, solve_s


def _converged(cfg, history):
    """Convergence in the driver's own stopping quantity: Richardson stops on
    the Euclidean residual, GMRES on the preconditioned one."""
    if history is None:
        return False
    series = history.res_b if cfg.driver == "richardson" else history.res_precond
    return series[-1] <= cfg.target_reduction * series[0]


def run_single(cfg):
    """Full pipeline for one experiment. Returns (report, history, solution);
    writes the configured output files. A typed failure of any stage after
    assembly is recorded in the report, which is still written; history and
    solution are then None."""
    pipe = Pipeline(cfg)
    system = pipe.system
    decomp = coarse = state = solution = history = None
    try:
        decomp, pu = pipe.decompose(cfg.oversampling_layers)
        _, coarse = pipe.coarse_space(decomp, pu, cfg.scheme, cfg.modes_list())
        state = pipe.preconditioner(decomp, pu, cfg.scheme, coarse)
    except MsrasError as exc:
        failure = _failure(exc)  # recorded like a failure of the drive step
    else:
        solution, history, failure, _ = pipe.drive(state)

    report = {
        "config": cfg.to_dict(),
        "scheme_applied": state.scheme if state is not None else None,
        "n_free_dofs": system.n_free,
        "xi": decomp.xi if decomp is not None else None,
        "xi_star": decomp.xi_star if decomp is not None else None,
        "coarse_dim": coarse.m if coarse is not None else 0,
        "lambda_bound": coarse.lam if coarse is not None else None,
        "iterations": history.n_iterations if history is not None else None,
        "final_residual": history.res_b[-1] if history is not None else None,
        "converged": _converged(cfg, history),
        "failure": failure,
        "timings": dict(pipe.timings),
    }
    out = cfg.outputs
    if out.get("report"):
        with open(out["report"], "w") as fh:
            json.dump(report, fh, indent=2)
    if out.get("history") and history is not None:
        history.to_csv(out["history"])
    if out.get("solution") and solution is not None:
        export_solution_csv(out["solution"], system.grid, system.expand(solution))
    return report, history, solution


def run_comparison(cfg, schemes):
    """One history per scheme over a shared setup. Schemes on the same local
    eigenproblem share its bases and coarse space (AS2_geneo has its own),
    and the oversampled schemes share the interior factors. Per-scheme
    failures are recorded and the run continues."""
    pipe = Pipeline(cfg)
    decomp, pu = pipe.decompose(cfg.oversampling_layers)
    modes = cfg.modes_list()
    spaces = {}  # basis kind -> (bases, coarse space), or the failure of its set-up
    results = {}
    for scheme in schemes:
        if scheme not in schwarz.SCHEMES:
            results[scheme] = {"failure": f"unknown scheme {scheme!r}"}
            continue
        kind = basis_kind(scheme)
        if kind not in spaces:
            try:
                spaces[kind] = pipe.coarse_space(decomp, pu, scheme, modes)
            except MsrasError as exc:
                spaces[kind] = _failure(exc)  # recorded once, not retried per scheme
        if isinstance(spaces[kind], str):
            results[scheme] = {"failure": spaces[kind]}
            continue
        bases, coarse = spaces[kind]
        try:
            state = pipe.preconditioner(decomp, pu, scheme, coarse)
            solution, history, failure, solve_s = pipe.drive(state)
            results[scheme] = {
                "failure": failure,
                "iterations": history.n_iterations if history else None,
                "history": history,
                "solve_s": solve_s,
                "spectrum": bases,
            }
        except MsrasError as exc:
            results[scheme] = {"failure": _failure(exc)}
    out_prefix = cfg.outputs.get("history_prefix")
    if out_prefix:
        for scheme, res in results.items():
            if res.get("history") is not None:
                res["history"].to_csv(f"{out_prefix}{scheme}.csv")
    return results


@dataclass
class SweepReport:
    ovsp_list: list
    modes_list: list
    cells: dict  # (ovsp, modes) -> dict

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("ovsp,modes,iters,lambda,setup_ms,solve_ms\n")
            for s in self.ovsp_list:
                for m in self.modes_list:
                    c = self.cells[(s, m)]
                    if c.get("failure"):
                        fh.write(f"{s},{m},FAIL:{c['failure']},,,\n")
                        continue
                    lam = "" if c["lambda"] is None else f"{c['lambda']:.17g}"
                    fh.write(
                        f"{s},{m},{c['iterations']},{lam},"
                        f"{1e3 * c['setup_s']:.6g},{1e3 * c['solve_s']:.6g}\n"
                    )


def _spectrum_size(system, decomp, pu, i, kind):
    """Number of eigenpairs of subdomain i's local pencil: the size of the
    interface of omega_i^*, or of the GenEO coupling dofs of omega_i."""
    if kind == "geneo":
        return spectral.geneo_coupling(system, decomp, pu, i)[1].size
    return decomp.subdomains[i].boundary_star.size


def run_sweep(cfg, ovsp_list, modes_list):
    """Cartesian (oversampling x modes) sweep. Assembly is shared; per
    oversampling value the eigenproblems are solved once for the largest
    mode count (the solve also carries the next eigenvalue, for the error
    bound) and truncated per cell. Both axes must be free of repeats."""
    if not ovsp_list or not modes_list:
        raise ConfigError("sweep: oversampling and modes lists must be nonempty")
    if any(s < 1 for s in ovsp_list):
        raise ConfigError("sweep: oversampling layers must be >= 1")
    if any(m < 0 for m in modes_list):
        raise ConfigError("sweep: modes must be >= 0")
    for name, axis in (("oversampling", ovsp_list), ("modes", modes_list)):
        if len(set(axis)) < len(axis):
            raise ConfigError(f"sweep: repeated {name} value in {list(axis)}")
    pipe = Pipeline(cfg)
    kind = basis_kind(cfg.scheme)
    m_max = max(modes_list)
    cells = {}
    for s in ovsp_list:
        try:
            t = time.perf_counter()
            decomp, pu = pipe.decompose(s)
            clamped = [min(m_max, _spectrum_size(pipe.system, decomp, pu, i, kind))
                       for i in range(decomp.n_subdomains)]
            full = pipe.bases(decomp, pu, cfg.scheme, clamped)
            shared_s = time.perf_counter() - t
        except MsrasError as exc:
            for m in modes_list:
                cells[(s, m)] = {"failure": _failure(exc)}
            continue
        for m in modes_list:
            try:
                t = time.perf_counter()
                _, coarse = pipe.coarse_space(decomp, pu, cfg.scheme,
                                              [m] * decomp.n_subdomains, full)
                state = pipe.preconditioner(decomp, pu, cfg.scheme, coarse)
                setup_s = shared_s + (time.perf_counter() - t)
                solution, history, failure, solve_s = pipe.drive(state)
                if failure:
                    cells[(s, m)] = {"failure": failure}
                    continue
                cells[(s, m)] = {
                    "iterations": history.n_iterations,
                    "lambda": coarse.lam if coarse is not None else None,
                    "max_next_eigenvalue": coarse.max_next_eigenvalue
                    if coarse is not None
                    else None,
                    "setup_s": setup_s,
                    "solve_s": solve_s,
                    "converged": _converged(cfg, history),
                }
            except MsrasError as exc:
                cells[(s, m)] = {"failure": _failure(exc)}
    report = SweepReport(ovsp_list=list(ovsp_list), modes_list=list(modes_list), cells=cells)
    if cfg.outputs.get("sweep"):
        report.to_csv(cfg.outputs["sweep"])
    return report


def run_spectrum(cfg):
    """Eigenvalue decay export for the configured instance."""
    pipe = Pipeline(cfg)
    decomp, pu = pipe.decompose(cfg.oversampling_layers)
    bases = pipe.bases(decomp, pu, cfg.scheme, cfg.modes_list())
    path = cfg.outputs.get("spectrum", "spectrum.csv")
    spectral.export_spectrum_csv(path, bases)
    return bases
