"""Configuration-driven experiment runner: single solves, scheme comparisons,
and oversampling-by-modes sweeps, with machine-readable reports.

One JSON document describes one experiment (grid, coefficient, boundary
data, source, decomposition, coarse-space size, scheme, solver). Every verb
runs its schemes through `Pipeline.run`, which gives each scheme one record
with the same keys in every verb. Reports echo every input parameter, carry
per-stage wall times and memory, and are deterministic in the config seed
except for those.
"""

import json
import math
import mmap
import multiprocessing
import resource
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field, replace
from functools import partial

import numpy as np

from . import schwarz, spectral
from .decomp import build_decomposition, build_partition_of_unity
from .errors import ConfigError, MsrasError, NonpositiveCoefficient, WorkerLost
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
from .linalg import SparseFactor

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
# verb. `workers`, `local_s`, `wait_s` and `workers_rss_upper_mb` are the
# stats of the bases behind the scheme's coarse space (`_Bases.collect`),
# None when there are none. The last three fields hold objects (the bases,
# the iteration history and the solution), which a sweep cell drops.
_RECORD = {
    "scheme_applied": None, "coarse_dim": 0, "lambda_bound": None,
    "max_next_eigenvalue": None, "iterations": None, "final_residual": None,
    "converged": False, "failure": None, "setup_s": 0.0, "solve_s": 0.0,
    "workers": None, "local_s": None, "wait_s": None, "workers_rss_upper_mb": None,
    "spectrum": None, "history": None, "solution": None,
}
_OBJECTS = ("spectrum", "history", "solution")


def basis_kind(scheme):
    """The local eigenproblem behind a scheme's coarse space: the overlap-zone
    (GenEO) one for AS2_geneo, the oversampled harmonic one otherwise."""
    return "geneo" if scheme == "AS2_geneo" else "harmonic"


# The free dofs from which a bases session is shared with worker processes.
# Measured on two cores, one BLAS thread per process, in alternated fresh
# processes (stage wall time, medians), the pool took the 256^2, 8x8
# harmonic stage from 1.25 to 0.66 s (5 of 5 pairs), the 128^2, 8x8 GenEO
# stage from 0.66 to 0.40 s (5 of 5) and the 128^2, 8x8 harmonic stage from
# 0.37 to 0.27 s (10 of 10). Smaller stages gain less than 0.1 s: the 64^2,
# 8x8 ones won 6 of 6 pairs, the 64^2, 4x4 ones 5 of 6, and the 32^2, 4x4
# harmonic stage lost 5 of 6. The gate sits between the 64^2 grids (4095
# free dofs) and the 128^2 ones (16383), whatever the subdomains, so small
# instances stay serial, the two kinds of a 64^2, 8x8 comparison included.
_POOL_DOFS = 8192


def _local_task(system, decomp, pu, kind, modes, i):
    """Subdomain i's task of one kind: (its basis, its interior factor
    for the harmonic kind or None for GenEO, the seconds of each step). The
    steps are the traced spectral calls: geneo, or reduce (which makes the
    interior factor) and eig."""
    t0 = time.perf_counter()
    if kind == "geneo":
        basis = spectral.geneo_eigenproblem(system, decomp, pu, i, modes[i])
        return basis, None, {"geneo": time.perf_counter() - t0}
    S, P, W = spectral.reduce_to_harmonic(system, decomp, pu, i)
    t1 = time.perf_counter()
    basis = spectral.solve_local_eigenproblem(S, P, W, modes[i], sub_id=i)
    seconds = {"reduce": t1 - t0, "eig": time.perf_counter() - t1}
    return basis, spectral.interior_factor(decomp, i), seconds  # cached by the reduction


_WORKER = None  # set only in a worker process: (jobs, claims) of the session that forked
# it, jobs as the session's table by kind at the fork


def _adopt(jobs, claims):
    global _WORKER
    _WORKER = jobs, claims


def _claim(claims, g):
    """Whether this process is the first to claim job g."""
    with claims.get_lock():
        first = not claims[g]
        claims[g] = True
    return first


def _worker_task(kind, g):
    jobs, claims = _WORKER
    if not _claim(claims, g):
        return None  # the caller runs it
    task, slots, i = jobs[kind][g]
    return slots.pack(i, task(i))


def _shared_slots(sizes):
    """One anonymous shared mapping, which the processes forked after it
    inherit, cut into one slot of sizes[i] doubles per index, each slot on a
    64-byte boundary: the slots as flat arrays. The mapping is unmapped once
    no slot is referenced; a page no process writes takes no memory."""
    starts = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(-(-np.asarray(sizes, dtype=np.int64) // 8) * 8, out=starts[1:])
    flat = np.frombuffer(mmap.mmap(-1, 8 * max(int(starts[-1]), 1)), dtype=float)
    return [flat[a:a + n] for a, n in zip(starts, sizes)]


class _ResultSlots:
    """Where the workers of a pooled bases session leave a task's arrays
    (`_local_task`), so that only its small fields cross the pool's pipe;
    one per basis kind. Subdomain i has one slot in each of two shared
    mappings (`_shared_slots`), made before the fork: its glued block,
    |dofs0(omega_i)| x modes[i] doubles in C order, and for the harmonic kind
    its interior factor band, at most (x1 - x0 + 3) x |dofs0(omega_i^*)| in F
    order for omega_i^*'s box columns x0..x1 (a row of the interior holds at
    most x1 - x0 + 1 dofs, so the lower bandwidth is at most x1 - x0 + 2).
    The blocks and the bands have a mapping each, so bases released with
    their coarse space free theirs while the decomposition keeps the
    factors."""

    def __init__(self, decomp, modes, kind):
        subs = decomp.subdomains
        self.shapes = [(sub.dofs0.size, m) for sub, m in zip(subs, modes, strict=True)]
        self.glued = _shared_slots([rows * m for rows, m in self.shapes])
        self.bands = _shared_slots([
            (sub.box_star[1] - sub.box_star[0] + 3) * sub.dofs0_star.size
            if kind == "harmonic" else 0 for sub in subs])

    def pack(self, i, result):
        """In a worker: task i's result with its basis's glued block and its
        factor's band copied to their slots, as (the basis without its block,
        the band's shape or None, the seconds)."""
        basis, factor, seconds = result
        self.glued[i][:] = basis.glued.ravel()
        shape = None
        if factor is not None:
            shape = factor.band.shape
            self.bands[i][:factor.band.size] = factor.band.ravel(order="F")
        return replace(basis, glued=None), shape, seconds

    def unpack(self, i, packed):
        """In the caller: the result `pack` sent, on views of the slots."""
        basis, shape, seconds = packed
        basis = replace(basis, glued=self.glued[i].reshape(self.shapes[i]))
        if shape is None:
            return basis, None, seconds
        band = self.bands[i][:shape[0] * shape[1]].reshape(shape, order="F")
        return basis, SparseFactor(band), seconds


class _Bases:
    """A bases session: the local bases of one or more basis kinds on one
    decomposition, one task per subdomain and kind (`_local_task`), where
    `needs` maps each kind to its modes in the order the caller will
    collect them (`collect`). Collecting a kind hands it over whole, whether
    the collection succeeds or fails: the session then holds nothing of it,
    neither its task, its jobs and the slots they carry, nor the futures
    that hold the caller's own results, so its slots go once no basis or
    factor views them. Each kind is one entry of `jobs` and of `futures`,
    which its collection pops; the pool's initializer and a worker's
    `_WORKER` reference that same `jobs` table, so nothing the session
    cannot clear pins an entry. Collecting its last kind closes it
    (`close`): every worker it forked has then ended. A caller that may
    leave kinds uncollected, on a failure, closes it itself.

    When the process may use more than one core (`schwarz.usable_cores`)
    and the problem has at least `_POOL_DOFS` free dofs, the session forks
    one worker per further core when it opens (`_width` sets the number of
    processes instead), and they start on the tasks at once: the kinds in
    the order of `needs`, within a kind the tasks on the largest
    dofs0(omega_i^*) at both ends and the smallest in the middle. Collecting
    a kind, the caller runs the kind's tasks no worker has started, from the
    back, and then waits for the ones the workers are running: a task runs
    in the process that claims it first (one shared flag per task), so the
    split follows the tasks' real costs, and the caller's wait is for the
    last tasks the workers are running, the small ones. Meanwhile the
    workers go on with the next kind, so its tasks run while the caller uses
    the first. A worker copies a task's arrays into the kind's slots of
    memory it shares with the caller (`_ResultSlots`) and sends back only
    the small fields.

    The workers are forked, not spawned, so they start with the caller's
    problem and decomposition in memory instead of a pickled copy of them;
    the pool forks them before it starts its own threads. A fork copies
    only the calling thread, so no other thread of the caller's may be busy
    then, holding a lock the tasks take. The one-level apply's helper
    threads (`schwarz.apply_one_level`) work only while an apply runs, and
    a session forks as it opens: before the first drive of a run, or
    between two depths of a sweep, when the helpers sit idle; a worker
    starts without them. Below the gate, or on one core, no process is
    forked and each kind's tasks run in a serial loop when it is collected."""

    def __init__(self, system, decomp, pu, needs, _width=None):
        n = decomp.n_subdomains
        for modes in needs.values():
            if len(modes) != n:
                raise ValueError(f"modes: {len(modes)} values for {n} subdomains")
        width = _width or schwarz.usable_cores()
        if _width is None and system.n_free < _POOL_DOFS:
            width = 1
        self.width = min(width, n)
        self.decomp = decomp
        self.tasks = {kind: partial(_local_task, system, decomp, pu, kind, modes)
                      for kind, modes in needs.items()}
        self.stats = {}  # basis kind -> the stats of its collection
        self.waiting = set(needs)  # the kinds not yet collected
        self.workers_rss_upper_mb = None  # set by `close` when pooled
        # when pooled, one entry per kind, which its collection pops: its jobs,
        # {g: (task, slots, subdomain)} with g the job's flag in claims, and
        # their futures, {g: future}
        self.jobs, self.futures, self.pool = {}, {}, None
        if self.width == 1:
            return
        by_size = np.argsort([-sub.dofs0_star.size for sub in decomp.subdomains],
                             kind="stable").tolist()
        order = by_size[0::2] + by_size[1::2][::-1]  # the largest at both ends
        for k, (kind, modes) in enumerate(needs.items()):
            slots = _ResultSlots(decomp, modes, kind)
            self.jobs[kind] = {k * n + j: (self.tasks[kind], slots, i)
                               for j, i in enumerate(order)}
        ctx = multiprocessing.get_context("fork")
        self.claims = ctx.Array("b", n * len(needs))
        self.pool = ProcessPoolExecutor(self.width - 1, mp_context=ctx, initializer=_adopt,
                                        initargs=(self.jobs, self.claims))
        try:
            for kind, jobs in self.jobs.items():
                self.futures[kind] = {g: self.pool.submit(_worker_task, kind, g) for g in jobs}
        except BaseException:
            self.close()
            raise

    def collect(self, kind):
        """(bases, stats) of one kind: its bases in subdomain order, bit for
        bit as a serial loop gives them. The interior factors the tasks made
        are installed in decomp.factors, so each matrix is still factored
        once. A typed failure raises as the serial loop would raise it: that
        of the failing subdomain with the lowest index, WorkerLost for a task
        whose worker ended without it (killed, out of memory). Either fails
        this kind only: a kind collected later runs on, in the caller if the
        workers are gone. Either way the kind leaves the session: its task,
        jobs, slots and futures are no longer held once this returns or
        raises.

        stats has `workers`, the session's processes; `local_s`, the tasks'
        own seconds summed per step (reduce, which includes the interior
        factorization, and eig, or geneo), wherever and whenever they ran;
        `wait_s`, the seconds the caller waited for the workers' last
        results of the kind after its own last task (0 for a serial
        session); and `workers_rss_upper_mb`, which `close` sets. The last
        kind's collection closes the session, whether it fails or not: no
        task is left for the workers then."""
        task = self.tasks.pop(kind)
        jobs, futures = self.jobs.pop(kind, {}), self.futures.pop(kind, {})
        try:
            if self.pool is None:
                results, wait_s = [task(i) for i in range(self.decomp.n_subdomains)], 0.0
            else:
                results, wait_s = self._gather(jobs, futures)
        finally:
            jobs.clear()  # emptied: a failure's traceback holds the frames that
            futures.clear()  # reference them, and a future holds the failure
            self.waiting.discard(kind)
            if not self.waiting:
                self.close()
        for i, (_, factor, _) in enumerate(results):
            if factor is not None:
                self.decomp.factors.setdefault(("dofs0_star", i), factor)
        local_s = {name: sum(seconds[name] for *_, seconds in results) for name in results[0][2]}
        self.stats[kind] = {"workers": self.width, "local_s": local_s, "wait_s": wait_s,
                            "workers_rss_upper_mb": self.workers_rss_upper_mb}
        return [basis for basis, _, _ in results], self.stats[kind]

    def _gather(self, jobs, futures):
        """(results, wait_s) of the pooled jobs of one kind and their futures,
        results in subdomain order: the caller runs the jobs no worker has
        claimed, from the back, then takes each result in subdomain order, a
        worker's through its slots. The first failure raises, as in a serial
        loop."""
        own = set()
        for g in reversed(jobs):
            if not _claim(self.claims, g):  # the workers have come this far
                break
            own.add(g)
            task, _, i = jobs[g]
            futures[g] = Future()  # not cancelled: a pool that breaks fails all it holds
            try:
                futures[g].set_result(task(i))
            except Exception as exc:  # raised in subdomain order below
                futures[g].set_exception(exc)
        t = time.perf_counter()
        results = [None] * len(jobs)
        for g, (_, slots, i) in sorted(jobs.items(), key=lambda item: item[1][2]):
            try:
                result = futures[g].result()
            except BrokenProcessPool as exc:
                raise WorkerLost(f"subdomain {i}: its worker ended without a result") from exc
            results[i] = result if g in own else slots.unpack(i, result)
        return results, time.perf_counter() - t

    def close(self):
        """End every worker, cancelling the tasks no process has started,
        and set `workers_rss_upper_mb` in the stats of every kind collected:
        the largest peak resident set (ru_maxrss of RUSAGE_CHILDREN) of any
        child process this process has waited for, which only reaped
        children count. A forked worker's count includes the pages it shares
        with its parent, the slots it wrote among them, so it bounds the
        memory a worker added from above. A serial session has nothing to
        end, and its stats keep None."""
        if self.pool is None:
            return
        with self.claims.get_lock():  # the workers skip the tasks still queued
            self.claims[:] = [True] * len(self.claims)
        self.pool.shutdown(cancel_futures=True)
        self.pool = None
        rss = self.workers_rss_upper_mb = (
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0)
        for stats in self.stats.values():
            stats["workers_rss_upper_mb"] = rss


def local_setup(system, decomp, pu, modes, kind="harmonic", _width=None):
    """(bases, stats) of a bases stage of one kind: a session of that kind
    alone (`_Bases`), collected at once, which closes it, so any workers
    live for the stage only. modes[i] modes are kept on subdomain i; more
    than the pencil has (`spectral.pencil_size`) raise TooManyModes, and a
    caller that wants at most that many caps modes[i] itself. Failures and
    stats are those of `_Bases.collect`, with `workers_rss_upper_mb` set
    when the stage was pooled."""
    return _Bases(system, decomp, pu, {kind: modes}, _width).collect(kind)


def _has_coarse(decomp, modes):
    """Whether modes[i] modes on subdomain i give a coarse space: some mode
    is requested and there is more than one subdomain."""
    return sum(modes) > 0 and decomp.n_subdomains > 1


def _shared_mb():
    """This process's resident shared pages (RssShmem in /proc/self/status)
    in MB, or None where that file or field is absent."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("RssShmem:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


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
    It is a high-water mark, so a stage after a release shows no drop.
    Beside it `shared_mb` holds the process's resident shared pages then
    (`_shared_mb`), which do drop: the slot pages of a pooled bases session
    (`_ResultSlots`) that this process has read and still maps.

    The local bases of a kind are one task per subdomain (`_Bases`). A
    harmonic task's reduction builds the interior factor of omega_i^*, which
    the decomposition caches for the oversampled preconditioners, so each is
    built once; without harmonic bases the first preconditioner that needs
    them builds them, timed as local factorizations. A `run` whose schemes
    need the bases of more than one kind opens one session for all of them
    before its first scheme and collects each kind when its first scheme
    needs it, so with more than one usable core and at least `_POOL_DOFS`
    free dofs, the forked workers solve the later kinds' pencils while this
    process sets up and drives the earlier schemes. The bases of one kind
    are a stage of their own (`local_setup`), at the first scheme that needs
    them, with workers that live for the stage only. eigensolves times this
    process's part: opening the session and collecting each kind (its own
    tasks and its waits for the workers), the close at the last collection
    included; the tasks a worker ran before their kind was collected count
    only in that kind's `local_s`. `local`
    keeps, per basis kind, the stats of its last collection (see
    `_Bases.collect`), and `run` puts them in the records. Every stage runs
    its BLAS on one thread, set for the process when `linalg` is imported."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.timings = {f"{stage}_s": 0.0 for stage in _STAGES}
        self.memory_mb = dict.fromkeys(_STAGES)
        self.shared_mb = dict.fromkeys(_STAGES)
        self.local = {}  # basis kind -> the stats of its last collection
        self.system = self._timed("assembly", build_problem, cfg)

    def _timed(self, stage, fn, *args):
        t = time.perf_counter()
        out = fn(*args)
        self._record(stage, time.perf_counter() - t)
        return out

    def _record(self, stage, seconds):
        self.timings[f"{stage}_s"] += seconds
        self.memory_mb[stage] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.shared_mb[stage] = _shared_mb()

    def decompose(self, oversampling_layers):
        """(decomposition, partition of unity) at one oversampling depth."""
        cfg = self.cfg

        def build():
            decomp = build_decomposition(self.system, cfg.px, cfg.py, cfg.overlap_layers,
                                         oversampling_layers)
            return decomp, build_partition_of_unity(decomp)

        return self._timed("decomposition", build)

    def bases(self, decomp, pu, scheme, modes, session=None):
        """Local bases of the scheme's eigenproblem, modes[i] on subdomain i:
        collected from `session`, opened with these modes, or else a stage
        of their own (`local_setup`)."""
        kind = basis_kind(scheme)
        if session is None:
            bases, self.local[kind] = self._timed("eigensolves", local_setup, self.system,
                                                  decomp, pu, modes, kind)
        else:
            bases, self.local[kind] = self._timed("eigensolves", session.collect, kind)
        return bases

    def coarse_space(self, decomp, pu, scheme, modes, full=None, session=None):
        """(bases, coarse space) with modes[i] modes on subdomain i, or
        (None, None) when there is no coarse space (`_has_coarse`). Larger
        bases in `full` are truncated instead of solving the local
        eigenproblems again; other bases come as `bases` gives them."""
        if not _has_coarse(decomp, modes):
            return None, None
        if full is None:
            bases = self.bases(decomp, pu, scheme, modes, session)
        else:
            bases = [spectral.truncate_basis(b, m) for b, m in zip(full, modes, strict=True)]
        coarse = self._timed("coarse_setup", spectral.build_coarse_space, self.system,
                             decomp, bases)
        return bases, coarse

    def run(self, decomp, pu, schemes, modes, full=None):
        """One record per scheme (the keys of `_RECORD`), keyed by scheme, with
        modes[i] modes on subdomain i. The run keeps only what its remaining
        schemes read. The schemes on one local eigenproblem share its bases
        and coarse space, set up once (`full` as in `coarse_space`) and
        released after the last of them. The local factors of each
        `schwarz.factor_family` leave decomp.factors after the drive of the
        last scheme that reads them, when later schemes follow; the last
        scheme's stay for the next run on this decomposition (a sweep's next
        cell). When the schemes need the bases of more than one kind, one
        session (`_Bases`) holds them all, opened before the first scheme.
        Each kind leaves it when collected, and its slots are then held only
        by the bases and factors that view them, so in a comparison the
        oversampled factors' slots go with those factors, before AS2_geneo's
        bases are collected. The collection of its last kind closes it,
        every worker ended, and the run drops it there, or closes it when
        this returns or raises if a failure left it open. A typed failure is
        recorded, not raised: a failed coarse set-up in the record of every
        scheme that shares it. A record keeps the fields of the stages that
        ran. setup_s is the scheme's preconditioner build plus, for the
        first scheme of its eigenproblem, the coarse set-up, its bases'
        collection included; solve_s is the drive."""
        cfg = self.cfg
        last = {basis_kind(scheme): scheme for scheme in schemes}
        last_read = {schwarz.factor_family(scheme): k for k, scheme in enumerate(schemes)}
        session = None
        if len(last) > 1 and full is None and _has_coarse(decomp, modes):
            session = self._timed("eigensolves", _Bases, self.system, decomp, pu,
                                  {basis_kind(scheme): modes for scheme in schemes})
        spaces = {}  # basis kind -> ((bases, coarse space), failure) of its one set-up
        records = {}
        try:
            for k, scheme in enumerate(schemes):
                # drop the last scheme's references first: a coarse space its
                # kind's last scheme popped, and the factors no scheme from
                # here on reads, are then released before the next set-up
                space = coarse = state = out = None
                for key in [key for key in decomp.factors if last_read.get(key[0]) == k - 1]:
                    del decomp.factors[key]
                rec = records[scheme] = dict(_RECORD)
                t = time.perf_counter()
                kind = basis_kind(scheme)
                if kind not in spaces:
                    spaces[kind] = _attempt(self.coarse_space, decomp, pu, scheme, modes, full,
                                            session)
                    if session is not None and not session.waiting:
                        session = None  # closed by the collection of its last kind
                space, rec["failure"] = spaces.pop(kind) if last[kind] == scheme else spaces[kind]
                if space is not None:
                    rec["spectrum"], coarse = space
                    if coarse is not None:
                        rec.update(coarse_dim=coarse.m, lambda_bound=coarse.lam,
                                   max_next_eigenvalue=coarse.max_next_eigenvalue)
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
        finally:
            if session is not None:
                self._timed("eigensolves", session.close)
        for scheme, rec in records.items():  # once closed: the workers' rss is known
            rec.update(self.local.get(basis_kind(scheme), {}))
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
                                     "final_residual", "converged", "failure", "workers",
                                     "local_s", "wait_s", "workers_rss_upper_mb")},
        "timings": dict(pipe.timings),
        "memory_mb": dict(pipe.memory_mb),
        "shared_mb": dict(pipe.shared_mb),
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
    mode count, capped per subdomain at the modes its pencil has
    (`spectral.pencil_size`; the solve also carries the next eigenvalue,
    for the error bound), and truncated per cell, whose setup_s includes
    that shared stage. When no cell can have a coarse space (every mode
    count 0, or one subdomain) no eigenproblem is solved. Both axes must be
    free of repeats."""
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
    kind = basis_kind(cfg.scheme)

    def shared(s):
        decomp, pu = pipe.decompose(s)
        n = decomp.n_subdomains
        if not _has_coarse(decomp, [m_max] * n):
            return decomp, pu, None
        modes = [min(m_max, spectral.pencil_size(decomp, pu, kind, i)) for i in range(n)]
        return decomp, pu, pipe.bases(decomp, pu, cfg.scheme, modes)

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
