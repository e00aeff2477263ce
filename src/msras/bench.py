"""Configuration-driven experiment runner: single solves, scheme comparisons,
and oversampling-by-modes sweeps, with machine-readable reports.

One JSON document describes one experiment (grid, coefficient, boundary
data, source, decomposition, coarse-space size, scheme, solver). Every verb
runs its schemes through `Pipeline.run`, which gives each scheme one record
with the same keys in every verb. Reports echo every input parameter, carry
per-stage wall times and peak memory, and are deterministic in the config
seed except for those two.
"""

import json
import math
import resource
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

# The keys a nested config object may hold besides the one naming its kind
# (its preset, or a boundary side's type), by that kind.
_COEFFICIENT_KEYS = {"constant": ("value",), "raster": ("path",),
                     "skyscraper": ("contrast", "blocks", "fraction", "seed")}
_SOURCE_KEYS = {"gaussian_bump": (), "constant": ("value",), "none": ()}
_PRESET_KEYS = {"mixed_flux_channel": (), "all_dirichlet": ("value",)}
_SIDE_KEYS = {"dirichlet": ("value",), "neumann": ("flux",)}
_OUTPUT_KEYS = ("report", "history", "solution", "history_prefix", "sweep", "spectrum")


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _known_keys(name, spec, allowed):
    unknown = sorted(set(spec) - set(allowed))
    if unknown:
        raise ConfigError(f"{name}: unknown keys {unknown}")


def _tagged(name, spec, tag, kinds, default=None):
    """The kind a nested config object names under `tag`, checked against
    `kinds`, after checking that the object holds no key its kind lacks."""
    kind = spec.get(tag, default)
    if kind not in kinds:
        raise ConfigError(f"{name}.{tag}: unknown {tag} {kind!r}")
    _known_keys(name, spec, (tag, *kinds[kind]))
    return kind


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
        _known_keys("outputs", self.outputs, _OUTPUT_KEYS)
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
        kind = _tagged("coefficient", self.coefficient, "kind", _COEFFICIENT_KEYS)
        _tagged("source", self.source, "kind", _SOURCE_KEYS, "none")
        specs = {"coefficient": self.coefficient, "source": self.source,
                 "boundary": self.boundary}
        if self.boundary.get("preset") is None:
            _known_keys("boundary", self.boundary, ("preset", *SIDES))
            for side in SIDES:
                spec = specs[f"boundary.{side}"] = self.boundary.get(side)
                if not isinstance(spec, dict):
                    raise ConfigError(f"boundary.{side}: must be an object, got {spec!r}")
                _tagged(f"boundary.{side}", spec, "type", _SIDE_KEYS)
            if not any(self.boundary[side]["type"] == "dirichlet" for side in SIDES):
                raise ConfigError("boundary: at least one side must be Dirichlet")
        else:
            _tagged("boundary", self.boundary, "preset", _PRESET_KEYS)
        for name, spec in specs.items():
            for key in ("value", "flux", "contrast", "fraction"):
                value = spec.get(key, 0.0)
                if not (_is_number(value) and math.isfinite(value)):
                    raise ConfigError(f"{name}.{key}: must be a finite number, got {value!r}")
        value = self.coefficient.get("value", 1.0)
        if kind == "constant" and value <= 0.0:
            raise ConfigError(f"coefficient.value: must be positive, got {value!r}")
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
        self.modes_list()  # raises on malformed modes

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
    sides = {}
    for side in SIDES:
        s = spec[side]
        if s["type"] == "dirichlet":
            sides[side] = ("dirichlet", float(s.get("value", 0.0)))
        else:
            sides[side] = ("neumann", float(s.get("flux", 0.0)))
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


# The stages a Pipeline times, each under "<stage>_s" in its `timings`.
_STAGES = ("assembly", "decomposition", "eigensolves", "coarse_setup", "local_factorizations",
           "krylov")

# The record of one scheme's run before any stage ran, the same for every
# verb. The last three fields hold objects (the bases, the iteration history
# and the solution), which a sweep cell drops.
_RECORD = {
    "scheme_applied": None, "coarse_dim": 0, "lambda_bound": None,
    "max_next_eigenvalue": None, "iterations": None, "final_residual": None,
    "converged": False, "failure": None, "setup_s": 0.0, "solve_s": 0.0,
    "spectrum": None, "history": None, "solution": None,
}
_OBJECTS = ("spectrum", "history", "solution")


def basis_kind(scheme):
    """The local eigenproblem behind a scheme's coarse space: the overlap-zone
    (GenEO) one for AS2_geneo, the oversampled harmonic one otherwise."""
    return "geneo" if scheme == "AS2_geneo" else "harmonic"


def compute_bases(system, decomp, pu, modes, kind="harmonic", at_most=False):
    """Spectral bases of every subdomain, modes[i] modes on subdomain i, or
    with `at_most` as many as its pencil has up to modes[i]."""
    bases = []
    for i, m in zip(range(decomp.n_subdomains), modes, strict=True):
        if kind == "geneo":
            bases.append(spectral.geneo_eigenproblem(system, decomp, pu, i, m, at_most))
        else:
            if at_most:
                m = min(m, decomp.subdomains[i].boundary_star.size)
            S, P, W = spectral.reduce_to_harmonic(system, decomp, pu, i)
            bases.append(spectral.solve_local_eigenproblem(S, P, W, m, sub_id=i))
    return bases


def _attempt(fn, *args, **kwargs):
    """(fn(...), None), or (None, "<type>: <message>") when fn raises a typed
    failure: the one place where a failure becomes a record field."""
    try:
        return fn(*args, **kwargs), None
    except MsrasError as exc:
        return None, f"{type(exc).__name__}: {exc}"


class Pipeline:
    """The staged set-up every verb runs: problem, then decomposition and
    partition of unity, then, per scheme in `run`, local bases, coarse
    space, preconditioner and the configured driver. Each stage's wall time
    accumulates in `timings`, and `memory_mb` holds the process's peak
    resident set (ru_maxrss) after the stage last ran, in MB, or None before
    it ran: a stage whose value exceeds every earlier one set a new peak.
    The interior factors of the oversampling domains are built once per
    decomposition, before the harmonic eigensolves or the first
    preconditioner that needs them, and timed as local factorizations. The
    subdomain-local stages (bases, preconditioner) run on one BLAS thread;
    the coarse space and the drive keep the caller's setting."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.timings = {f"{stage}_s": 0.0 for stage in _STAGES}
        self.memory_mb = dict.fromkeys(_STAGES)
        self.system = self._timed("assembly", build_problem, cfg)

    def _timed(self, stage, fn, *args):
        t = time.perf_counter()
        out = fn(*args)
        self._record(stage, time.perf_counter() - t)
        return out

    def _record(self, stage, seconds):
        self.timings[f"{stage}_s"] += seconds
        self.memory_mb[stage] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def decompose(self, oversampling_layers):
        """(decomposition, partition of unity) at one oversampling depth."""
        cfg = self.cfg

        def build():
            decomp = build_decomposition(self.system, cfg.px, cfg.py, cfg.overlap_layers,
                                         oversampling_layers)
            return decomp, build_partition_of_unity(decomp)

        return self._timed("decomposition", build)

    def bases(self, decomp, pu, scheme, modes, at_most=False):
        """Local bases of the scheme's eigenproblem, modes[i] on subdomain i
        (at most, with `at_most`; see `compute_bases`)."""
        kind = basis_kind(scheme)
        with single_blas_thread():
            if kind == "harmonic":
                for i in range(decomp.n_subdomains):
                    self._timed("local_factorizations", spectral.interior_factor, decomp, i)
            return self._timed("eigensolves", compute_bases, self.system, decomp, pu, modes,
                               kind, at_most)

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
        coarse = self._timed("coarse_setup", spectral.build_coarse_space, self.system,
                             decomp, bases)
        return bases, coarse

    def run(self, decomp, pu, schemes, modes, full=None):
        """One record per scheme (the keys of `_RECORD`), keyed by scheme, with
        modes[i] modes on subdomain i. The schemes on one local eigenproblem
        share its bases and coarse space, set up once (`full` as in
        `coarse_space`) and released after the last of them. A typed failure
        is recorded, not raised: a failed coarse set-up in the record of
        every scheme that shares it. A record keeps the fields of the stages
        that ran. setup_s is the scheme's preconditioner build plus, for the
        first scheme of its eigenproblem, the coarse set-up; solve_s is the
        drive."""
        cfg = self.cfg
        last = {basis_kind(scheme): scheme for scheme in schemes}
        spaces = {}  # basis kind -> ((bases, coarse space), failure) of its one set-up
        records = {}
        for scheme in schemes:
            # drop the last scheme's references first: a coarse space its
            # kind's last scheme popped is then released before the next set-up
            space = coarse = state = out = None
            rec = records[scheme] = dict(_RECORD)
            t = time.perf_counter()
            kind = basis_kind(scheme)
            if kind not in spaces:
                spaces[kind] = _attempt(self.coarse_space, decomp, pu, scheme, modes, full)
            space, rec["failure"] = spaces.pop(kind) if last[kind] == scheme else spaces[kind]
            if space is not None:
                rec["spectrum"], coarse = space
                if coarse is not None:
                    rec.update(coarse_dim=coarse.m, lambda_bound=coarse.lam,
                               max_next_eigenvalue=coarse.max_next_eigenvalue)
                with single_blas_thread():
                    state, rec["failure"] = _attempt(
                        self._timed, "local_factorizations", schwarz.build_preconditioner,
                        self.system, decomp, pu, scheme, coarse)
            rec["setup_s"] = time.perf_counter() - t
            if rec["failure"] is not None:
                continue
            rec["scheme_applied"] = state.scheme
            driver = schwarz.richardson if cfg.driver == "richardson" else schwarz.gmres
            t = time.perf_counter()
            out, rec["failure"] = _attempt(driver, state, self.system,
                                           target_reduction=cfg.target_reduction,
                                           maxit=cfg.maxit)
            rec["solve_s"] = time.perf_counter() - t
            self._record("krylov", rec["solve_s"])
            if out is not None:
                rec["solution"], history = out
                rec.update(history=history, iterations=history.n_iterations,
                           final_residual=history.res_b[-1], converged=history.converged)
        return records


def run_single(cfg):
    """Full pipeline for one experiment. Returns (report, history, solution);
    writes the configured output files. A typed failure of any stage after
    assembly is recorded in the report, which is still written; history and
    solution are then None."""
    pipe = Pipeline(cfg)
    parts, failure = _attempt(pipe.decompose, cfg.oversampling_layers)
    if parts is None:
        decomp, rec = None, dict(_RECORD, failure=failure)
    else:
        decomp, pu = parts
        rec = pipe.run(decomp, pu, [cfg.scheme], cfg.modes_list())[cfg.scheme]
    report = {
        "config": cfg.to_dict(),
        "scheme_applied": rec["scheme_applied"],
        "n_free_dofs": pipe.system.n_free,
        "xi": decomp.xi if decomp is not None else None,
        "xi_star": decomp.xi_star if decomp is not None else None,
        **{key: rec[key] for key in ("coarse_dim", "lambda_bound", "iterations",
                                     "final_residual", "converged", "failure")},
        "timings": dict(pipe.timings),
        "memory_mb": dict(pipe.memory_mb),
    }
    out = cfg.outputs
    if out.get("report"):
        with open(out["report"], "w") as fh:
            json.dump(report, fh, indent=2)
    if out.get("history") and rec["history"] is not None:
        rec["history"].to_csv(out["history"])
    if out.get("solution") and rec["solution"] is not None:
        export_solution_csv(out["solution"], pipe.system.grid,
                            pipe.system.expand(rec["solution"]))
    return report, rec["history"], rec["solution"]


def run_comparison(cfg, schemes):
    """One record per scheme over a shared setup (`Pipeline.run`). Schemes on
    the same local eigenproblem share its bases and coarse space (AS2_geneo
    has its own), and the oversampled schemes share the interior factors.
    Per-scheme failures are recorded and the run continues; an unknown or
    repeated scheme is a ConfigError, raised before any set-up."""
    unknown = [scheme for scheme in schemes if scheme not in schwarz.SCHEMES]
    if unknown:
        raise ConfigError(f"schemes: {unknown} not in {schwarz.SCHEMES}")
    if len(set(schemes)) < len(schemes):
        raise ConfigError(f"schemes: repeated scheme in {list(schemes)}")
    pipe = Pipeline(cfg)
    decomp, pu = pipe.decompose(cfg.oversampling_layers)
    records = pipe.run(decomp, pu, schemes, cfg.modes_list())
    prefix = cfg.outputs.get("history_prefix")
    if prefix:
        for scheme, rec in records.items():
            if rec["history"] is not None:
                rec["history"].to_csv(f"{prefix}{scheme}.csv")
    return records


@dataclass
class SweepReport:
    ovsp_list: list
    modes_list: list
    cells: dict  # (ovsp, modes) -> the record of that cell, without its objects

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("ovsp,modes,iters,lambda,setup_ms,solve_ms\n")
            for s in self.ovsp_list:
                for m in self.modes_list:
                    c = self.cells[(s, m)]
                    if c["failure"]:
                        fh.write(f"{s},{m},FAIL:{c['failure']},,,\n")
                        continue
                    lam = "" if c["lambda_bound"] is None else f"{c['lambda_bound']:.17g}"
                    fh.write(
                        f"{s},{m},{c['iterations']},{lam},"
                        f"{1e3 * c['setup_s']:.6g},{1e3 * c['solve_s']:.6g}\n"
                    )


def run_sweep(cfg, ovsp_list, modes_list):
    """Cartesian (oversampling x modes) sweep. Assembly is shared; per
    oversampling value the eigenproblems are solved once for the largest
    mode count (the solve also carries the next eigenvalue, for the error
    bound) and truncated per cell, whose setup_s includes that shared
    stage. Both axes must be free of repeats."""
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
    m_max = max(modes_list)

    def shared(s):
        decomp, pu = pipe.decompose(s)
        return decomp, pu, pipe.bases(decomp, pu, cfg.scheme, [m_max] * decomp.n_subdomains,
                                      at_most=True)

    cells = {}
    for s in ovsp_list:
        t = time.perf_counter()
        parts, failure = _attempt(shared, s)
        shared_s = time.perf_counter() - t
        for m in modes_list:
            if parts is None:
                rec = dict(_RECORD, failure=failure)
            else:
                decomp, pu, full = parts
                rec = pipe.run(decomp, pu, [cfg.scheme], [m] * decomp.n_subdomains,
                               full)[cfg.scheme]
                rec["setup_s"] += shared_s
            cells[(s, m)] = {key: v for key, v in rec.items() if key not in _OBJECTS}
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
