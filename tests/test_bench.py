import concurrent.futures
import functools
import importlib
import json
import multiprocessing
import os
import pickle
import resource
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import msras.bench
import msras.errors
from msras import schwarz, spectral
from msras.bench import (
    ExperimentConfig,
    Pipeline,
    build_problem,
    local_setup,
    run_comparison,
    run_single,
    run_spectrum,
    run_sweep,
)
from msras.decomp import build_decomposition, build_partition_of_unity
from msras.cli import main as cli_main
from msras.errors import ConfigError, FactorizationFailure, UncoveredNode
from tests.conftest import openblas_threads


def small_cfg(**over):
    base = dict(
        nx=16,
        ny=16,
        coefficient={"kind": "skyscraper", "contrast": 1e3, "blocks": [8, 8],
                     "fraction": 0.3, "seed": 7},
        boundary={"preset": "mixed_flux_channel"},
        source={"kind": "gaussian_bump"},
        px=2,
        py=2,
        overlap_layers=1,
        oversampling_layers=2,
        modes=5,
        scheme="hybrid_RAS_msgfem",
        driver="gmres",
        target_reduction=1e-10,
        maxit=100,
        seed=7,
    )
    base.update(over)
    return ExperimentConfig.from_dict(base)


class TestConfig:
    def test_roundtrip(self, tmp_path):
        cfg = small_cfg()
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        back = ExperimentConfig.from_json(path)
        assert back.to_dict() == cfg.to_dict()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("nx", 1),
            ("px", 0),
            ("overlap_layers", 0),
            ("scheme", "nope"),
            ("driver", "cg"),
            ("target_reduction", 1.5),
            ("modes", -1),
            ("modes", [1, 2]),
            ("source", {"kind": "constant", "value": float("nan")}),
            ("coefficient", {"kind": "constant", "value": float("inf")}),
            ("coefficient", {"kind": "skyscraper", "contrast": float("nan"),
                             "blocks": [8, 8], "fraction": 0.3}),
            ("boundary", {"preset": "all_dirichlet", "value": float("-inf")}),
            ("boundary", {"left": {"type": "dirichlet", "value": 0.0},
                          "right": {"type": "dirichlet", "value": float("nan")},
                          "bottom": {"type": "neumann", "flux": 0.0},
                          "top": {"type": "neumann", "flux": 0.0}}),
            ("boundary", {"left": {"type": "dirichlet", "value": 0.0},
                          "right": {"type": "dirichlet", "value": 0.0},
                          "bottom": {"type": "neumann", "flux": float("inf")},
                          "top": {"type": "neumann", "flux": 0.0}}),
            # wrong types: a bool is not an integer
            ("modes", 10.0),
            ("modes", True),
            ("px", "4"),
            ("nx", 16.5),
            ("seed", True),
            ("lx", "1.0"),
            ("coefficient", 5),
            ("boundary", dict.fromkeys(["left", "right", "bottom", "top"], 1)),
            ("coefficient", {"kind": "skyscraper", "contrast": 1e3, "blocks": [8],
                             "fraction": 0.3}),
            ("source", {"kind": "constant", "value": "abc"}),
            ("coefficient", {"kind": "raster"}),
            ("outputs", {"report": 7}),
            ("coefficient", {"kind": "constant", "value": 0.0}),
            ("coefficient", {"kind": "constant", "value": -2.0}),
            ("coefficient", {"kind": "constant", "value": None}),
            ("boundary", dict.fromkeys(["left", "right", "bottom", "top"],
                                       {"type": "neumann", "flux": 0.0})),
            # null numbers
            ("source", {"kind": "constant", "value": None}),
            ("boundary", {"preset": "all_dirichlet", "value": None}),
            ("boundary", {"left": {"type": "dirichlet", "value": None},
                          "right": {"type": "dirichlet", "value": 0.0},
                          "bottom": {"type": "neumann", "flux": 0.0},
                          "top": {"type": "neumann", "flux": 0.0}}),
            ("boundary", {"left": {"type": "dirichlet", "value": 0.0},
                          "right": {"type": "dirichlet", "value": 0.0},
                          "bottom": {"type": "neumann", "flux": None},
                          "top": {"type": "neumann", "flux": 0.0}}),
            ("coefficient", {"kind": "skyscraper", "contrast": None, "blocks": [8, 8],
                             "fraction": 0.3}),
            ("coefficient", {"kind": "skyscraper", "contrast": 1e3, "blocks": [8, 8],
                             "fraction": None}),
            # keys the object's kind does not take, and unknown kinds
            ("coefficient", {"kind": "skyscraper", "contast": 10}),
            ("coefficient", {"kind": "constant", "value": 1.0, "contrast": 10}),
            ("source", {"kind": "gaussian_bump", "value": 1.0}),
            ("source", {"kind": "dirac"}),
            ("boundary", {"preset": "mixed_flux_channel", "value": 1.0}),
            ("boundary", {"preset": "open_channel"}),
            ("boundary", {"left": {"type": "dirichlet", "value": 0.0, "flux": 1.0},
                          "right": {"type": "dirichlet", "value": 0.0},
                          "bottom": {"type": "neumann", "flux": 0.0},
                          "top": {"type": "neumann", "flux": 0.0}}),
            ("boundary", {"left": {"type": "dirichlet", "value": 0.0},
                          "right": {"type": "robin", "value": 0.0},
                          "bottom": {"type": "neumann", "flux": 0.0},
                          "top": {"type": "neumann", "flux": 0.0}}),
            ("boundary", {"left": {"type": "dirichlet", "value": 0.0},
                          "right": {"type": "dirichlet", "value": 0.0},
                          "bottom": {"type": "neumann", "flux": 0.0}}),
            ("outputs", {"reprot": "r.json"}),
        ],
    )
    def test_validation(self, field, value):
        with pytest.raises(ConfigError):
            small_cfg(**{field: value})

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"grid_size": 3})

    def test_unknown_nested_key_named(self):
        # a misspelt key must not run silently at the default contrast
        with pytest.raises(ConfigError, match="coefficient: unknown keys \\['contast'\\]"):
            small_cfg(coefficient={"kind": "skyscraper", "contast": 10})

    @pytest.mark.parametrize("document", [[], 3, "nx"])
    def test_non_object_rejected(self, document):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(document)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json(tmp_path / "nope.json")

    def test_per_subdomain_modes(self):
        cfg = small_cfg(modes=[1, 2, 3, 4])
        assert cfg.modes_list() == [1, 2, 3, 4]


class TestRunSingle:
    def test_single_subdomain_richardson_one_iteration(self):
        cfg = small_cfg(px=1, py=1, driver="richardson")
        report, history, _ = run_single(cfg)
        assert report["iterations"] == 1
        assert report["converged"]
        assert report["scheme_applied"] == "RAS"

    def test_deterministic_reports(self):
        cfg = small_cfg()
        r1, h1, _ = run_single(cfg)
        r2, h2, _ = run_single(cfg)
        for report in (r1, r2):  # wall times and memory vary from run to run
            report.pop("timings")
            report.pop("memory_mb")
            report.pop("shared_mb")
            report.pop("local_s")
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
        assert h1.res_b == h2.res_b

    def test_memory_by_stage(self):
        # ru_maxrss after each stage, under the names of the timed stages;
        # the drive runs last, so its value is the run's peak so far
        report, _, _ = run_single(small_cfg())
        memory = report["memory_mb"]
        assert {f"{stage}_s" for stage in memory} == set(report["timings"])
        assert all(isinstance(mb, float) and mb > 0.0 for mb in memory.values())
        assert max(memory.values()) == memory["krylov"]
        assert memory["krylov"] <= resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def test_shared_pages_by_stage(self, monkeypatch):
        # a serial solve maps no slot: its shared pages stay under 1 MB at
        # every stage; a pooled one reads its factor bands from the slots in
        # the drive, so its Krylov mark is at least its eigensolves mark
        report, _, _ = run_single(small_cfg())
        assert report["shared_mb"].keys() == report["memory_mb"].keys()
        assert all(mb is None or mb < 1.0 for mb in report["shared_mb"].values())
        monkeypatch.setattr(msras.bench, "local_setup", functools.partial(local_setup, _width=2))
        report, _, _ = run_single(small_cfg())
        assert report["workers"] == 2
        shared = report["shared_mb"]
        assert shared.keys() == report["memory_mb"].keys()
        if shared["krylov"] is not None:
            assert shared["krylov"] >= shared["eigensolves"]

    def test_report_carries_all_inputs(self, tmp_path):
        out = {
            "report": str(tmp_path / "r.json"),
            "history": str(tmp_path / "h.csv"),
            "solution": str(tmp_path / "u.csv"),
        }
        cfg = small_cfg(outputs=out)
        report, _, _ = run_single(cfg)
        on_disk = json.loads((tmp_path / "r.json").read_text())
        assert on_disk["config"] == cfg.to_dict()
        assert (tmp_path / "h.csv").read_text().startswith("iter,res_b,res_precond,err_a,time_ms")
        assert (tmp_path / "u.csv").read_text().startswith("x,y,u")
        assert report["lambda_bound"] is not None
        assert not np.isnan(report["final_residual"])

    def test_solution_matches_direct(self):
        from msras.bench import build_problem

        cfg = small_cfg()
        report, history, sol = run_single(cfg)
        system = build_problem(cfg)
        u = system.solve_direct()
        assert system.a_norm(sol - u) <= 1e-8 * system.a_norm(u)

    def test_without_sched_getaffinity(self, monkeypatch):
        # where the platform has no affinity call, the core count falls
        # back to os.cpu_count()
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert schwarz.usable_cores() == 2
        report, _, _ = run_single(small_cfg())
        assert report["failure"] is None and report["converged"]
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert schwarz.usable_cores() == 1

    def test_direct_solver_loaded_only_for_a_direct_solve(self):
        # a solve never loads scipy.sparse.linalg; the reference solve loads
        # it on first use, in a fresh process, and gives this process's answer
        cfg = small_cfg()
        code = ("import json, sys\n"
                "import msras\n"
                "from msras.bench import ExperimentConfig, build_problem, run_single\n"
                f"cfg = ExperimentConfig.from_dict({cfg.to_dict()!r})\n"
                "report = run_single(cfg)[0]\n"
                "loaded = 'scipy.sparse.linalg' in sys.modules\n"
                "u = build_problem(cfg).solve_direct()\n"
                "print(json.dumps([report['converged'], loaded, u.tolist()]))\n")
        root = Path(__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True, cwd=root,
                              env={**os.environ, "PYTHONPATH": str(root / "src")})
        converged, loaded, u = json.loads(proc.stdout)
        assert converged and not loaded
        assert np.array_equal(u, build_problem(cfg).solve_direct())


class TestBlasWidthPerStage:
    """Every stage, the drive included, runs on one BLAS thread."""

    @pytest.mark.parametrize("module, name, width", [
        ("spectral", "reduce_to_harmonic", 1),
        ("spectral", "geneo_eigenproblem", 1),
        ("spectral", "build_coarse_space", 1),
        ("schwarz", "build_preconditioner", 1),
        ("schwarz", "gmres", 1),
    ])
    def test_probe_sees_stage_width(self, bundled_openblas, monkeypatch, module, name, width):
        target = importlib.import_module(f"msras.{module}")
        seen = []
        original = getattr(target, name)

        def probe(*args, **kwargs):
            seen.append(openblas_threads())
            return original(*args, **kwargs)

        monkeypatch.setattr(target, name, probe)
        scheme = "AS2_geneo" if name == "geneo_eigenproblem" else "hybrid_RAS_msgfem"
        report, _, _ = run_single(small_cfg(scheme=scheme))
        assert report["failure"] is None and report["converged"]
        assert seen and all(counts == [width] * len(counts) for counts in seen)
        assert openblas_threads() == [1] * len(seen[0])


# A pooled run_single in a fresh process, whose OpenBLAS starts with helper
# threads (OPENBLAS_NUM_THREADS=2): its report, the threads the process has
# after it, and the names of those Python started, by thread id.
_THREADS_AFTER_POOL = """
import functools, json, os, sys, threading
import msras.bench as bench

bench.local_setup = functools.partial(bench.local_setup, _width=2)
report, _, _ = bench.run_single(bench.ExperimentConfig.from_dict(json.loads(sys.argv[1])))
print(json.dumps({"workers": report["workers"], "converged": report["converged"],
                  "pid": os.getpid(), "threads": os.listdir("/proc/self/task"),
                  "python": {t.native_id: t.name for t in threading.enumerate()}}))
"""


def test_pooled_run_leaves_no_blas_helper(bundled_openblas):
    # the fork shuts down the helpers that OpenBLAS started at load, and at
    # one thread per process no later call starts one, in the caller or in
    # a worker: every thread left is the main thread or one of the one-level
    # apply's helpers, which Python started
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("no /proc/self/task to count the threads in")
    proc = subprocess.run(
        [sys.executable, "-c", _THREADS_AFTER_POOL, json.dumps(small_cfg().to_dict())],
        capture_output=True, text=True, check=True,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "2",
             "PYTHONPATH": str(Path(schwarz.__file__).parents[1])})
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["workers"] == 2 and out["converged"]
    assert sorted(out["threads"]) == sorted(out["python"])
    helpers = [name for tid, name in out["python"].items() if tid != str(out["pid"])]
    assert str(out["pid"]) in out["python"]
    assert len(helpers) < len(os.sched_getaffinity(0))
    assert all(name.startswith("msras-apply") for name in helpers)


class TestRunComparison:
    def test_single_scheme_matches_run_single(self):
        cfg = small_cfg()
        report, history, _ = run_single(cfg)
        res = run_comparison(cfg, ["hybrid_RAS_msgfem"])
        assert res["hybrid_RAS_msgfem"]["iterations"] == report["iterations"]

    def test_geneo_uses_its_own_spectra(self):
        cfg = small_cfg()
        res = run_comparison(cfg, ["hybrid_RAS_msgfem", "AS2_geneo"])
        ms = res["hybrid_RAS_msgfem"]["spectrum"]
        ge = res["AS2_geneo"]["spectrum"]
        assert ms[0].kind == "harmonic" and ge[0].kind == "geneo"
        assert not np.allclose(
            ms[0].eigenvalues[ms[0].kernel_dim :], ge[0].eigenvalues[ge[0].kernel_dim :]
        )

    def test_bad_scheme_raises_before_setup(self, monkeypatch):
        # an unknown name is bad input, like an unknown config scheme: it is
        # rejected before the problem is assembled
        import msras.bench

        monkeypatch.setattr(msras.bench, "build_problem", lambda cfg: pytest.fail("set up"))
        with pytest.raises(ConfigError, match="bogus"):
            run_comparison(small_cfg(), ["hybrid_RAS_msgfem", "bogus"])

    def test_repeated_scheme_raises_before_setup(self, monkeypatch):
        # a repeated scheme would be set up and solved twice, like a
        # repeated sweep axis value
        import msras.bench

        monkeypatch.setattr(msras.bench, "build_problem", lambda cfg: pytest.fail("set up"))
        with pytest.raises(ConfigError, match="repeated scheme"):
            run_comparison(small_cfg(), ["RAS", "RAS", "AS"])

    def test_setup_failure_recorded_once_per_basis_kind(self, monkeypatch):
        # more modes than any interface carries: the harmonic set-up fails on
        # its first subdomain, once, and both harmonic schemes record it
        from msras import spectral

        calls = []
        reduce = spectral.reduce_to_harmonic
        monkeypatch.setattr(spectral, "reduce_to_harmonic",
                            lambda *args: calls.append(args[-1]) or reduce(*args))
        res = run_comparison(small_cfg(modes=10_000), ["hybrid_RAS_msgfem", "RAS"])
        assert calls == [0]
        for scheme in ("hybrid_RAS_msgfem", "RAS"):
            assert res[scheme]["failure"].startswith("TooManyModes: ")

    def test_coarse_space_released_after_its_last_scheme(self, monkeypatch):
        # the harmonic coarse space serves the first two schemes only: nothing
        # holds it any more when AS2_geneo's drive starts
        refs = {}
        build = spectral.build_coarse_space

        def build_and_watch(system, decomp, bases):
            coarse = build(system, decomp, bases)
            refs[bases[0].kind] = weakref.ref(coarse)
            return coarse

        alive = {}
        gmres = schwarz.gmres

        def probe(state, *args, **kwargs):
            alive[state.scheme] = refs["harmonic"]() is not None
            return gmres(state, *args, **kwargs)

        monkeypatch.setattr(spectral, "build_coarse_space", build_and_watch)
        monkeypatch.setattr(schwarz, "gmres", probe)
        res = run_comparison(small_cfg(), ["hybrid_RAS_msgfem", "RAS", "AS2_geneo"])
        assert all(rec["converged"] for rec in res.values())
        assert alive == {"hybrid_RAS_msgfem": True, "RAS": True, "AS2_geneo": False}

    def test_history_prefix_export(self, tmp_path):
        cfg = small_cfg(outputs={"history_prefix": str(tmp_path / "cmp_")})
        run_comparison(cfg, ["hybrid_RAS_msgfem", "RAS"])
        for scheme in ("hybrid_RAS_msgfem", "RAS"):
            body = (tmp_path / f"cmp_{scheme}.csv").read_text()
            assert body.startswith("iter,res_b,res_precond,err_a,time_ms")


# The record every verb gets per scheme from Pipeline.run, and its objects
RECORD_KEYS = {"scheme_applied", "coarse_dim", "lambda_bound", "max_next_eigenvalue",
               "iterations", "final_residual", "converged", "failure", "setup_s", "solve_s",
               "workers", "local_s", "wait_s", "workers_rss_upper_mb"}
RECORD_OBJECTS = {"spectrum", "history", "solution"}


class TestOneRecord:
    def test_verbs_share_one_record(self, monkeypatch):
        # solve, compare and sweep take every scheme result, failed or not,
        # from Pipeline.run; a sweep cell drops the objects, and solve's
        # report keeps its own keys
        import msras.bench

        runs = []
        run = Pipeline.run
        monkeypatch.setattr(Pipeline, "run", lambda self, *args: runs.append(run(self, *args))
                            or runs[-1])
        cfg = small_cfg()
        report, _, _ = run_single(cfg)
        compared = run_comparison(cfg, ["hybrid_RAS_msgfem", "AS2_geneo"])
        sweep = run_sweep(cfg, [1], [0, 3, 10_000])
        assert len(runs) == 5
        assert all(set(rec) == RECORD_KEYS | RECORD_OBJECTS
                   for records in runs for rec in records.values())
        assert compared is runs[1]
        assert compared["AS2_geneo"]["converged"]
        assert sweep.cells[(1, 10_000)]["failure"] and sweep.cells[(1, 3)]["converged"]
        assert all(set(cell) == RECORD_KEYS for cell in sweep.cells.values())
        assert set(report) == {"config", "scheme_applied", "n_free_dofs", "xi", "xi_star",
                               "coarse_dim", "lambda_bound", "iterations", "final_residual",
                               "converged", "failure", "workers", "local_s", "wait_s",
                               "workers_rss_upper_mb", "timings", "memory_mb", "shared_mb"}
        assert report["workers"] == 1 and report["workers_rss_upper_mb"] is None
        assert report["wait_s"] == 0.0
        assert set(report["local_s"]) == {"reduce", "eig"}
        assert set(compared["AS2_geneo"]["local_s"]) == {"geneo"}

        # a failed decomposition (solve) or shared sweep stage fills the same record
        def uncovered(decomp):
            raise UncoveredNode("free dof 0 has zero weight in every subdomain")

        monkeypatch.setattr(msras.bench, "build_partition_of_unity", uncovered)
        report, history, solution = run_single(cfg)
        assert report["failure"].startswith("UncoveredNode: ") and history is solution is None
        assert report["xi"] is None and report["coarse_dim"] == 0
        cell = run_sweep(cfg, [1], [3]).cells[(1, 3)]
        assert set(cell) == RECORD_KEYS and cell["failure"].startswith("UncoveredNode: ")
        assert len(runs) == 5


class TestRunSweep:
    def test_geneo_coupling_formed_once_per_oversampling(self, monkeypatch):
        # the shared stage sizes each GenEO pencil by the coupling it solves,
        # not by a second coupling formed only to count Gamma
        calls = []
        coupling = spectral.geneo_coupling
        monkeypatch.setattr(spectral, "geneo_coupling",
                            lambda *args: calls.append(args[-1]) or coupling(*args))
        sweep = run_sweep(small_cfg(scheme="AS2_geneo"), [1, 2], [3, 10_000])
        assert calls == [0, 1, 2, 3] * 2
        for s in (1, 2):
            assert sweep.cells[(s, 3)]["converged"]
            assert sweep.cells[(s, 10_000)]["failure"].startswith("TooManyModes: ")

    def test_pooled_depth_after_a_threaded_drive_matches_serial(self, monkeypatch):
        # the second depth's bases session forks while the one-level apply's
        # helper thread, started by the first depth's drive, is alive and idle
        cfg = small_cfg()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        serial = run_sweep(cfg, [1, 2], [3])
        helpers = []

        def pooled_stage(*args, **kwargs):
            helpers.append([t for t in threading.enumerate() if t.name.startswith("msras-apply")])
            return local_setup(*args, _width=2, **kwargs)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(msras.bench, "local_setup", pooled_stage)
        pooled = run_sweep(cfg, [1, 2], [3])
        assert len(helpers) == 2 and helpers[1] and all(t.is_alive() for t in helpers[1])
        for key, cell in pooled.cells.items():
            ref = serial.cells[key]
            assert (cell["workers"], ref["workers"]) == (2, 1)
            assert cell["converged"] and cell["failure"] is None
            for field in ("iterations", "final_residual", "lambda_bound", "coarse_dim"):
                assert cell[field] == ref[field]

    def test_cells_of_a_depth_factor_each_interior_block_once(self, monkeypatch):
        # the cells of a depth share its decomposition, and a run keeps the
        # factors of its last scheme: the second cell factors nothing again
        calls = []
        for module in (spectral, schwarz):
            monkeypatch.setattr(module, "factorize",
                                lambda A, factorize=module.factorize:
                                calls.append(A.mat.shape) or factorize(A))
        sweep = run_sweep(small_cfg(), [1, 2], [3, 5])
        assert all(cell["converged"] for cell in sweep.cells.values())
        assert len(calls) == 8  # the 4 interior blocks of each depth

    def test_single_cell_matches_run_single(self):
        cfg = small_cfg()
        report, _, _ = run_single(cfg)
        sweep = run_sweep(cfg, [cfg.oversampling_layers], [5])
        cell = sweep.cells[(cfg.oversampling_layers, 5)]
        assert cell["iterations"] == report["iterations"]
        assert cell["lambda_bound"] == pytest.approx(report["lambda_bound"], rel=1e-12)

    def test_lambda_monotone_in_modes(self):
        cfg = small_cfg()
        sweep = run_sweep(cfg, [2], [2, 4, 6])
        lams = [sweep.cells[(2, m)]["lambda_bound"] for m in (2, 4, 6)]
        nexts = [sweep.cells[(2, m)]["max_next_eigenvalue"] for m in (2, 4, 6)]
        for a_l, b_l, a_n, b_n in zip(lams, lams[1:], nexts, nexts[1:]):
            if b_n < a_n:
                assert b_l < a_l

    def test_csv_export(self, tmp_path):
        cfg = small_cfg(outputs={"sweep": str(tmp_path / "s.csv")})
        run_sweep(cfg, [1, 2], [2, 4])
        lines = (tmp_path / "s.csv").read_text().splitlines()
        assert lines[0] == "ovsp,modes,iters,lambda,setup_ms,solve_ms"
        assert len(lines) == 5

    def test_failed_cell_marked(self, tmp_path):
        # requesting more modes than the interface can carry fails that cell
        # only, naming the first subdomain whose pencil is too small
        cfg = small_cfg(outputs={"sweep": str(tmp_path / "s.csv")})
        sweep = run_sweep(cfg, [1], [4, 10_000])
        assert sweep.cells[(1, 10_000)]["failure"].startswith("TooManyModes: subdomain 0: ")
        assert not sweep.cells[(1, 4)].get("failure")
        body = (tmp_path / "s.csv").read_text()
        assert "FAIL:" in body

    def test_geneo_sweep_factors_each_matrix_once(self, monkeypatch):
        # one dofs0 factor per subdomain, shared by every modes value
        calls = []
        factorize = schwarz.factorize
        monkeypatch.setattr(schwarz, "factorize", lambda A: calls.append(A) or factorize(A))
        sweep = run_sweep(small_cfg(scheme="AS2_geneo"), [2], [2, 3, 4])
        assert all(not cell.get("failure") for cell in sweep.cells.values())
        assert len(calls) == 4

    def test_geneo_sweep_clamps_to_coupling_dofs(self):
        # each 2x2 GenEO pencil lives on its 30 coupling dofs (of 90): the
        # 40-mode request fails its own cell, not the sweep's shared bases
        sweep = run_sweep(small_cfg(scheme="AS2_geneo"), [2], [2, 40])
        assert not sweep.cells[(2, 2)].get("failure")
        assert sweep.cells[(2, 40)]["failure"].startswith("TooManyModes: ")

    @pytest.mark.parametrize("scheme", ["hybrid_RAS_msgfem", "AS2_geneo"])
    @pytest.mark.parametrize("parts, modes", [(1, [0, 2]), (2, [0])])
    def test_no_coarse_space_solves_no_pencil(self, monkeypatch, scheme, parts, modes):
        # one subdomain, or no mode in any cell: no cell has a coarse space,
        # so the sweep solves no local pencil and runs each cell as the
        # one-level scheme run_single runs (one subdomain's omega^* has no
        # interface to solve a harmonic pencil on)
        pencils = []
        pencil = spectral.dense_generalized_sym_eig
        monkeypatch.setattr(spectral, "dense_generalized_sym_eig",
                            lambda *args, **kwargs: pencils.append(1) or pencil(*args, **kwargs))
        cfg = dict(scheme=scheme, px=parts, py=parts, modes=0)
        sweep = run_sweep(small_cfg(**cfg), [1, 2], modes)
        assert not pencils
        for (s, _), cell in sweep.cells.items():
            report, _, _ = run_single(small_cfg(**cfg, oversampling_layers=s))
            assert report["converged"] and report["coarse_dim"] == 0
            assert cell["converged"] and cell["failure"] is None and cell["coarse_dim"] == 0
            assert cell["iterations"] == report["iterations"]
            assert cell["workers"] is None

    def test_empty_axes_rejected(self):
        with pytest.raises(ConfigError):
            run_sweep(small_cfg(), [], [1])

    @pytest.mark.parametrize("ovsp, modes", [([0], [2]), ([1, 1], [2]), ([1], [2, 2])])
    def test_bad_axes_rejected(self, ovsp, modes):
        # validated like the config: no oversampling value below 1, and no
        # repeated value that would solve the same cell twice
        with pytest.raises(ConfigError):
            run_sweep(small_cfg(), ovsp, modes)

    @pytest.mark.parametrize("scheme", ["hybrid_RAS_msgfem", "AS2_geneo"])
    def test_truncated_bases_match_direct_solves(self, monkeypatch, scheme):
        # the sweep solves each pencil once for max(modes) + 1 pairs and
        # truncates; every cell must get the eigenvalues and next eigenvalue
        # of a direct m-mode solve, which asks the pencil for m + 1 pairs.
        # The shifted pencil resolves mu = lambda / (1 + lambda) to a few
        # ulps of 1, so lambda below 1e-3 agrees to 1e-15 absolute only
        cfg = small_cfg(scheme=scheme)
        swept = []
        build = spectral.build_coarse_space
        monkeypatch.setattr(spectral, "build_coarse_space",
                            lambda system, decomp, bases: swept.append(bases)
                            or build(system, decomp, bases))
        modes = [2, 4, 6]
        sweep = run_sweep(cfg, [2], modes)
        assert all(not cell.get("failure") for cell in sweep.cells.values())
        pipe = Pipeline(cfg)
        decomp, pu = pipe.decompose(2)
        for m, bases in zip(modes, swept, strict=True):
            direct = pipe.bases(decomp, pu, scheme, [m] * decomp.n_subdomains)
            for a, b in zip(bases, direct, strict=True):
                assert a.n_modes == b.n_modes == m and a.kernel_dim == b.kernel_dim
                np.testing.assert_allclose(a.eigenvalues, b.eigenvalues, rtol=1e-12, atol=1e-15)
                assert a.next_eigenvalue == pytest.approx(b.next_eigenvalue, rel=1e-12, abs=1e-15)


def _bases_stage(cfg, kind, modes, capped, width):
    """A fresh problem's decomposition and its bases stage at `width`
    processes, with `modes` modes per subdomain, capped at each pencil's
    order as a sweep caps them if `capped`: (system, decomposition, pu,
    bases, stats)."""
    system = build_problem(cfg)
    dec = build_decomposition(system, cfg.px, cfg.py, cfg.overlap_layers,
                              cfg.oversampling_layers)
    pu = build_partition_of_unity(dec)
    counts = [min(modes, spectral.pencil_size(dec, pu, kind, i)) if capped else modes
              for i in range(dec.n_subdomains)]
    bases, stats = local_setup(system, dec, pu, counts, kind, _width=width)
    return system, dec, pu, bases, stats


@pytest.fixture
def task_log(monkeypatch, tmp_path):
    """Each local task appends "pid width..." (the process and its OpenBLAS
    widths) to a file the forked workers inherit. The caller's own tasks
    wait 20 ms first, so the workers take tasks even in a four-task stage.
    Returns (the caller's pid, the reader of the (pid, widths) rows)."""
    path = tmp_path / "tasks.log"
    path.touch()
    caller = os.getpid()
    task = msras.bench._local_task

    def logged(*args):
        if os.getpid() == caller:
            time.sleep(0.02)
        with open(path, "a") as fh:
            fh.write(" ".join(map(str, [os.getpid(), *openblas_threads()])) + "\n")
        return task(*args)

    def rows():
        return [(int(pid), [int(w) for w in widths])
                for pid, *widths in map(str.split, path.read_text().splitlines())]

    monkeypatch.setattr(msras.bench, "_local_task", logged)
    return caller, rows


class TestPooledLocalSetup:
    """A bases stage shared with forked workers gives what the serial loop
    gives, bit for bit, fails as it fails, and leaves no process behind.
    The small config is far below the pool's gate, so `_width` forces it."""

    @pytest.mark.parametrize("kind, modes, capped", [
        ("harmonic", 5, False), ("geneo", 5, False), ("harmonic", 40, True),
        ("geneo", 80, True),
    ])
    def test_pool_matches_serial_bit_for_bit(self, task_log, kind, modes, capped):
        caller, rows = task_log
        cfg = small_cfg()
        runs = [_bases_stage(cfg, kind, modes, capped, width) for width in (1, 2)]
        assert {pid for pid, _ in rows()} - {caller}, "no task ran in a worker"
        assert [stats["workers"] for *_, stats in runs] == [1, 2]
        assert runs[0][-1]["wait_s"] == 0.0 and runs[1][-1]["wait_s"] >= 0.0
        (_, dec1, _, b1, _), (_, dec2, _, b2, _) = runs
        assert any(b.n_modes < modes for b in b1) == capped  # as a sweep caps them
        for a, b in zip(b1, b2, strict=True):
            assert (a.subdomain_id, a.kernel_dim, a.next_eigenvalue) == (
                b.subdomain_id, b.kernel_dim, b.next_eigenvalue)
            assert np.array_equal(a.eigenvalues, b.eigenvalues)
            assert np.array_equal(a.glued, b.glued)
        # the workers' interior factors are installed: each matrix is factored
        # once. Gamma_i stays in the process that ran its GenEO task, so the
        # caches are compared on the factors the drives read
        installed = {("dofs0_star", i) for i in range(4)} if kind == "harmonic" else set()
        for dec in (dec1, dec2):
            assert {key for key in dec.factors if key[0] != "gamma"} == installed

        scheme = "AS2_geneo" if kind == "geneo" else "hybrid_RAS_msgfem"
        family = schwarz.factor_family(scheme)
        solved = []
        for system, dec, pu, bases, _ in runs:
            if capped:  # a sweep cell truncates the shared bases
                bases = [spectral.truncate_basis(b, 3) for b in bases]
            coarse = spectral.build_coarse_space(system, dec, bases)
            state = schwarz.build_preconditioner(system, dec, pu, scheme, coarse)
            read = {key: f.band for key, f in dec.factors.items() if key[0] == family}
            solved.append((coarse, schwarz.gmres(state, system)[1], read))
        (c1, h1, read1), (c2, h2, read2) = solved
        assert np.array_equal(c1.keep, c2.keep) and np.array_equal(c1.scale, c2.scale)
        assert np.array_equal(c1.factor.band, c2.factor.band) and c1.lam == c2.lam
        assert h1.n_iterations == h2.n_iterations and h1.res_b == h2.res_b
        assert read1.keys() == read2.keys() == {(family, i) for i in range(4)}
        for key, band in read1.items():
            assert np.array_equal(band, read2[key])

    def test_failure_and_clean_up(self, monkeypatch, task_log):
        # more modes than any pencil has: every task fails, the caller's on
        # the last subdomains, and the record names subdomain 0 as the
        # serial loop does, on both harmonic schemes
        caller, rows = task_log
        schemes = ["hybrid_RAS_msgfem", "RAS"]
        serial = run_comparison(small_cfg(modes=10_000), schemes)
        monkeypatch.setattr(msras.bench, "local_setup", functools.partial(local_setup, _width=2))
        pooled = run_comparison(small_cfg(modes=10_000), schemes)
        assert {pid for pid, _ in rows()} - {caller}, "no task ran in a worker"
        assert not multiprocessing.active_children()
        for scheme in schemes:
            assert serial[scheme]["failure"].startswith("TooManyModes: subdomain 0: ")
            assert pooled[scheme]["failure"] == serial[scheme]["failure"]

        done = run_comparison(small_cfg(), schemes)
        assert not multiprocessing.active_children()
        for scheme in schemes:
            rec = done[scheme]
            assert rec["converged"] and rec["workers"] == 2
            assert rec["workers_rss_upper_mb"] > 0.0
            assert set(rec["local_s"]) == {"reduce", "eig"}

    def test_lost_worker_is_a_typed_failure(self, monkeypatch):
        # a worker that ends mid-task (killed, out of memory) fails the stage
        # with a typed failure that the report records, naming a subdomain
        # left without a result; the executor's thread raises nothing and no
        # child is left running
        caller = os.getpid()
        task = msras.bench._local_task

        def dying(*args):
            if os.getpid() != caller:
                os._exit(9)
            return task(*args)

        thread_errors = []
        monkeypatch.setattr(threading, "excepthook", thread_errors.append)
        monkeypatch.setattr(msras.bench, "_local_task", dying)
        monkeypatch.setattr(msras.bench, "local_setup", functools.partial(local_setup, _width=2))
        report, history, solution = run_single(small_cfg(nx=32, ny=32, px=4, py=4))
        assert report["failure"].startswith("WorkerLost: subdomain ")
        assert history is solution is None
        assert not thread_errors
        assert not multiprocessing.active_children()

    @pytest.mark.parametrize("kind", ["harmonic", "geneo"])
    def test_workers_run_on_one_blas_thread(self, bundled_openblas, task_log, kind):
        # called outside any Pipeline: the caller's tasks and every worker
        # task run at the one thread set at import
        caller, rows = task_log
        _bases_stage(small_cfg(), kind, 5, False, 2)
        assert {pid == caller for pid, _ in rows()} == {False, True}
        assert all(counts == [1] * len(counts) for _, counts in rows())

    @pytest.mark.parametrize("kind", ["harmonic", "geneo"])
    def test_worker_result_leaves_its_arrays_in_the_slots(self, monkeypatch, kind):
        # a worker's result carries the small fields only; the caller reads
        # the glued block and the factor band from the slots, bit for bit
        # as the task made them
        system = build_problem(small_cfg())

        def parts():  # a fresh decomposition, with no cached factor
            dec = build_decomposition(system, 2, 2, 1, 2)
            return dec, build_partition_of_unity(dec)

        (dec, pu), (fresh, fresh_pu) = parts(), parts()
        modes = [5] * dec.n_subdomains
        slots = msras.bench._ResultSlots(dec, modes, kind)
        task = functools.partial(msras.bench._local_task, system, dec, pu, kind, modes)
        claims = multiprocessing.Array("b", dec.n_subdomains)
        jobs = {kind: {i: (task, slots, i) for i in range(dec.n_subdomains)}}
        monkeypatch.setattr(msras.bench, "_WORKER", (jobs, claims))
        for i in range(dec.n_subdomains):
            sent = pickle.dumps(msras.bench._worker_task(kind, i))
            assert len(sent) <= 2048
            basis, factor, _ = slots.unpack(i, pickle.loads(sent))
            want, want_factor, _ = msras.bench._local_task(system, fresh, fresh_pu, kind,
                                                           modes, i)
            assert basis.glued.flags.c_contiguous and np.array_equal(basis.glued, want.glued)
            assert np.array_equal(basis.eigenvalues, want.eigenvalues)
            assert (basis.subdomain_id, basis.kind, basis.kernel_dim, basis.next_eigenvalue) == (
                want.subdomain_id, want.kind, want.kernel_dim, want.next_eigenvalue)
            if kind == "geneo":
                assert factor is want_factor is None
            else:
                assert factor.band.flags.f_contiguous
                assert np.array_equal(factor.band, want_factor.band)
        assert msras.bench._worker_task(kind, 0) is None  # claimed: the caller runs it

    def test_band_slot_holds_neumann_rows(self, task_log):
        # with Neumann sides across the rows, a row of omega_i^*'s interior
        # reaches its box's edge nodes and the lower bandwidth x1 - x0 + 2,
        # which the band slot still holds
        caller, rows = task_log
        sides = {side: {"type": "neumann"} for side in ("left", "right", "top")}
        cfg = small_cfg(nx=24, ny=24, px=1, py=3, boundary={**sides,
                        "bottom": {"type": "dirichlet"}})
        runs = [_bases_stage(cfg, "harmonic", 4, False, width) for width in (1, 2)]
        assert {pid for pid, _ in rows()} - {caller}, "no task ran in a worker"
        (_, dec1, _, b1, _), (_, dec2, _, b2, _) = runs
        boxes = [sub.box_star for sub in dec1.subdomains]
        assert max(f.band.shape[0] - 1 - (boxes[i][1] - boxes[i][0])
                   for (_, i), f in dec1.factors.items()) == 2
        for key, factor in dec1.factors.items():
            assert np.array_equal(factor.band, dec2.factors[key].band)
        for a, b in zip(b1, b2, strict=True):
            assert np.array_equal(a.glued, b.glued)

    def test_gate_pools_only_the_large_stages(self, monkeypatch):
        # on two usable cores a session forks from 8192 free dofs, whatever
        # its subdomains and kinds: the 128^2 grids (16383 free dofs) and
        # larger pool, the 64^2 (4095) and 32^2 ones stay serial, as under
        # the flop estimate the gate replaced; 96^2 (9215) now pools too
        monkeypatch.setattr(schwarz, "usable_cores", lambda: 2)
        both = ["harmonic", "geneo"]
        table = [(256, 8, ["harmonic"], 2), (128, 8, ["harmonic"], 2), (128, 8, ["geneo"], 2),
                 (128, 8, both, 2), (128, 2, ["harmonic"], 2), (128, 16, ["harmonic"], 2),
                 (512, 16, ["harmonic"], 2), (96, 8, ["harmonic"], 2), (64, 8, ["harmonic"], 1),
                 (64, 8, ["geneo"], 1), (64, 8, both, 1), (64, 4, ["harmonic"], 1),
                 (64, 4, ["geneo"], 1), (32, 4, ["harmonic"], 1), (32, 4, both, 1)]
        systems = {}
        for n, parts, kinds, width in table:
            if n not in systems:
                systems[n] = build_problem(small_cfg(nx=n, ny=n))
            dec = build_decomposition(systems[n], parts, parts, 2, 4)
            needs = {kind: [10] * parts * parts for kind in kinds}
            session = msras.bench._Bases(systems[n], dec, build_partition_of_unity(dec), needs)
            session.close()
            assert session.width == width, (n, parts, kinds)
        assert not multiprocessing.active_children()
        # tier-1's largest grid is 64^2: with one Dirichlet side, the most
        # free dofs a boundary leaves, it stays below the gate
        sides = {side: {"type": "neumann"} for side in ("left", "right", "top")}
        cfg = small_cfg(nx=64, ny=64, boundary={**sides, "bottom": {"type": "dirichlet"}})
        assert build_problem(cfg).n_free == 65 * 64 < msras.bench._POOL_DOFS

    def test_jobs_run_largest_first_at_both_ends(self):
        # a pooled session orders each kind's jobs by |dofs0(omega_i^*)|,
        # largest first, from the front for the workers and from the back
        # for the caller, the smallest in the middle
        cfg = small_cfg(nx=32, ny=32, px=3, py=3)
        system = build_problem(cfg)
        dec = build_decomposition(system, 3, 3, 1, 2)
        sizes = [sub.dofs0_star.size for sub in dec.subdomains]
        assert len(set(sizes)) > 2
        session = msras.bench._Bases(system, dec, build_partition_of_unity(dec),
                                     {"harmonic": [3] * 9, "geneo": [3] * 9}, _width=2)
        try:
            for k, kind in enumerate(["harmonic", "geneo"]):
                order = [i for *_, i in session.jobs[kind].values()]
                assert list(session.jobs[kind]) == list(range(9 * k, 9 * k + 9))
                assert sorted(order) == list(range(9))
                # the workers claim from the front and the caller from the
                # back, each end from the largest down
                front, back = order[:5], order[:4:-1]
                assert [sizes[i] for i in front] == sorted(sizes, reverse=True)[0::2]
                assert [sizes[i] for i in back] == sorted(sizes, reverse=True)[1::2]
        finally:
            session.close()
        assert not multiprocessing.active_children()


# The schemes of a two-kind comparison: two on the harmonic bases, then GenEO
TWO_KINDS = ["hybrid_RAS_msgfem", "RAS", "AS2_geneo"]


def _compare_and_keep(cfg, schemes):
    """run_comparison's records with, per scheme, what its drive used: the
    decomposition's cached factors once its preconditioner was built (the
    run releases some before later schemes) and its coarse space, as
    (records, {scheme: (factors, coarse)})."""
    used = {}
    precondition = schwarz.build_preconditioner

    def note(system, decomp, pu, scheme, coarse=None):
        state = precondition(system, decomp, pu, scheme, coarse)
        used[scheme] = dict(decomp.factors), coarse
        return state

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(schwarz, "build_preconditioner", note)
        records = run_comparison(cfg, TWO_KINDS)
    return records, used


def _pool_sessions(monkeypatch):
    """Force every later bases session of the test onto two processes;
    returns the list of the pids os.fork returns in this process from then."""
    forks = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    monkeypatch.setattr(msras.bench, "_Bases", functools.partial(msras.bench._Bases, _width=2))
    return forks


def _held_at_geneo_collection(monkeypatch):
    """Run a pooled comparison (`_pool_sessions`) of TWO_KINDS and note, when
    the session starts collecting the GenEO kind: whether the harmonic
    kind's slots are dead, the futures reachable from the session's
    attributes through dicts, lists and tuples (as the kinds of the bases
    their results carry, None for a future without one), and the factor
    families in decomp.factors. Returns (records, noted, n_subdomains)."""
    cls = msras.bench._Bases
    pooled = _pool_sessions(monkeypatch)
    slots, noted, collect = {}, {}, cls.collect
    made = msras.bench._ResultSlots

    def tracked(decomp, modes, kind):
        out = made(decomp, modes, kind)
        slots[kind] = weakref.ref(out)
        return out

    def collecting(session, kind):
        if kind == "geneo":
            futures, todo = [], list(vars(session).values())
            while todo:
                x = todo.pop()
                if isinstance(x, dict):
                    todo += x.values()
                elif isinstance(x, (list, tuple)):
                    todo += x
                elif isinstance(x, concurrent.futures.Future):
                    futures.append(x)
            noted.update(slots_dead=slots["harmonic"]() is None,
                         futures=[f.result()[0].kind if f.done() and f.exception() is None
                                  and f.result() is not None else None for f in futures],
                         families={key[0] for key in session.decomp.factors})
        return collect(session, kind)

    monkeypatch.setattr(msras.bench, "_ResultSlots", tracked)
    monkeypatch.setattr(cls, "collect", collecting)
    cfg = small_cfg()
    records = run_comparison(cfg, TWO_KINDS)
    assert len(pooled) == 1 and not multiprocessing.active_children()
    return records, noted, cfg.px * cfg.py


class TestBasesSession:
    """A run whose schemes need two basis kinds opens one bases session:
    forked once, its worker solving the GenEO pencils while the caller
    drives the oversampled schemes, with the serial run's numbers bit for
    bit and each kind's failures in that kind's records only."""

    def test_two_kinds_match_serial_bit_for_bit(self, monkeypatch, task_log):
        caller, rows = task_log
        serial, serial_used = _compare_and_keep(small_cfg(), TWO_KINDS)
        assert {pid for pid, _ in rows()} == {caller}
        pooled = _pool_sessions(monkeypatch)
        records, used = _compare_and_keep(small_cfg(), TWO_KINDS)
        assert len(pooled) == 1  # one fork for both kinds
        assert {pid for pid, _ in rows()} - {caller}, "no task ran in a worker"
        assert not multiprocessing.active_children()
        for scheme in TWO_KINDS:
            a, b = serial[scheme], records[scheme]
            assert a["converged"] and b["converged"] and b["workers"] == 2
            assert a["iterations"] == b["iterations"]
            assert np.array_equal(a["solution"], b["solution"])
            assert a["history"].res_b == b["history"].res_b
            for x, y in zip(a["spectrum"], b["spectrum"], strict=True):
                assert x.kind == y.kind and x.next_eigenvalue == y.next_eigenvalue
                assert np.array_equal(x.eigenvalues, y.eigenvalues)
                assert np.array_equal(x.glued, y.glued)
            (factors1, c1), (factors2, c2) = serial_used[scheme], used[scheme]
            assert np.array_equal(c1.keep, c2.keep) and np.array_equal(c1.scale, c2.scale)
            assert np.array_equal(c1.factor.band, c2.factor.band) and c1.lam == c2.lam
            # Gamma_i stays in the process that ran its GenEO task: compare
            # the factors this scheme's drive reads
            family = schwarz.factor_family(scheme)
            read1, read2 = ({key: f for key, f in factors.items() if key[0] == family}
                            for factors in (factors1, factors2))
            assert read1.keys() == read2.keys() == {(family, i) for i in range(4)}
            for key, value in read1.items():
                assert np.array_equal(value.band, read2[key].band)
        # the one reading of the reaped worker is in every pooled record
        assert len({rec["workers_rss_upper_mb"] for rec in records.values()}) == 1
        assert records["RAS"]["workers_rss_upper_mb"] > 0.0
        assert set(records["AS2_geneo"]["local_s"]) == {"geneo"}

    def test_worker_solves_geneo_while_caller_drives(self, monkeypatch, tmp_path):
        pooled = _pool_sessions(monkeypatch)
        # the worker takes the kinds in the order the schemes need them, and
        # the first drive waits until it has solved a GenEO pencil: it does,
        # so the later kind runs ahead of its collection. The caller's tasks
        # wait 20 ms first, so the worker takes harmonic tasks too
        caller = os.getpid()
        ahead = multiprocessing.get_context("fork").Event()
        path = tmp_path / "worker.log"
        path.touch()
        task = msras.bench._local_task

        def flagged(system, decomp, pu, kind, modes, i):
            if os.getpid() == caller:
                time.sleep(0.02)
            out = task(system, decomp, pu, kind, modes, i)
            if os.getpid() != caller:
                with open(path, "a") as fh:
                    fh.write(kind + "\n")
                if kind == "geneo":
                    ahead.set()
            return out

        waited = []
        gmres = schwarz.gmres

        def drive(state, *args, **kwargs):
            if not waited:
                waited.append(ahead.wait(timeout=30.0))
            return gmres(state, *args, **kwargs)

        monkeypatch.setattr(msras.bench, "_local_task", flagged)
        monkeypatch.setattr(schwarz, "gmres", drive)
        records = run_comparison(small_cfg(), TWO_KINDS)
        assert waited == [True]
        kinds = path.read_text().split()
        assert kinds == sorted(kinds, key=["harmonic", "geneo"].index) and "harmonic" in kinds
        assert all(rec["converged"] for rec in records.values())
        assert len(pooled) == 1 and not multiprocessing.active_children()

    def test_no_child_left_when_run_raises(self, monkeypatch):
        pooled = _pool_sessions(monkeypatch)
        # an untyped error in a drive propagates; the session still ends its worker
        def broken(*args, **kwargs):
            raise RuntimeError("drive broke")

        monkeypatch.setattr(schwarz, "gmres", broken)
        with pytest.raises(RuntimeError, match="drive broke"):
            run_comparison(small_cfg(), TWO_KINDS)
        assert len(pooled) == 1 and not multiprocessing.active_children()

    def test_geneo_failure_lands_in_its_record_only(self, monkeypatch):
        # GenEO pencils fail on subdomains 1 and 3, in whichever process
        # runs them: AS2_geneo records the lowest, as the serial loop does,
        # and the harmonic schemes run as if nothing failed
        geneo = spectral.geneo_eigenproblem

        def failing(system, decomp, pu, i, m):
            if i in (1, 3):
                raise FactorizationFailure(f"subdomain {i}: planted")
            return geneo(system, decomp, pu, i, m)

        monkeypatch.setattr(spectral, "geneo_eigenproblem", failing)
        serial = run_comparison(small_cfg(), TWO_KINDS)
        pooled = _pool_sessions(monkeypatch)
        records = run_comparison(small_cfg(), TWO_KINDS)
        assert len(pooled) == 1
        assert not multiprocessing.active_children()
        for run in (serial, records):
            assert run["AS2_geneo"]["failure"] == "FactorizationFailure: subdomain 1: planted"
            assert run["AS2_geneo"]["iterations"] is None
        for scheme in TWO_KINDS[:2]:
            assert records[scheme]["converged"] and records[scheme]["failure"] is None
            assert records[scheme]["iterations"] == serial[scheme]["iterations"]
            assert records[scheme]["workers"] == 2

    def test_collected_kind_leaves_the_session(self, monkeypatch):
        # once the harmonic kind is collected, the session holds none of its
        # jobs, slots or futures: when GenEO's collection starts, the
        # harmonic slots are dead, the futures held are GenEO's alone, and
        # the oversampled factors are gone with their last scheme
        records, noted, n = _held_at_geneo_collection(monkeypatch)
        assert all(rec["converged"] for rec in records.values())
        assert noted["slots_dead"]
        assert len(noted["futures"]) == n and "harmonic" not in noted["futures"]
        assert "dofs0_star" not in noted["families"]

    def test_failed_kind_leaves_the_session(self, monkeypatch):
        # a harmonic collection that fails leaves nothing of its kind in the
        # session either, and GenEO is still collected, its records those of
        # the serial run
        reduce = spectral.reduce_to_harmonic

        def failing(system, decomp, pu, i):
            if i in (1, 3):
                raise FactorizationFailure(f"subdomain {i}: planted")
            return reduce(system, decomp, pu, i)

        monkeypatch.setattr(spectral, "reduce_to_harmonic", failing)
        serial = run_comparison(small_cfg(), TWO_KINDS)
        records, noted, n = _held_at_geneo_collection(monkeypatch)
        for scheme in TWO_KINDS[:2]:
            assert records[scheme]["failure"] == "FactorizationFailure: subdomain 1: planted"
        assert noted["slots_dead"]
        assert len(noted["futures"]) == n and "harmonic" not in noted["futures"]
        a, b = serial["AS2_geneo"], records["AS2_geneo"]
        assert b["converged"] and b["failure"] is None and b["workers"] == 2
        assert (a["iterations"], a["final_residual"]) == (b["iterations"], b["final_residual"])
        assert np.array_equal(a["solution"], b["solution"])

    def test_lost_worker_fails_its_kind_only(self, monkeypatch, tmp_path):
        pooled = _pool_sessions(monkeypatch)
        # the worker dies on its first GenEO task, while the caller drives
        # the harmonic schemes: those records are complete, AS2_geneo's
        # names WorkerLost, and the histories are still written
        caller = os.getpid()
        died = multiprocessing.get_context("fork").Event()
        task = msras.bench._local_task

        def dying(system, decomp, pu, kind, modes, i):
            if kind == "geneo" and os.getpid() != caller:
                died.set()
                os._exit(9)
            return task(system, decomp, pu, kind, modes, i)

        waited = []
        gmres = schwarz.gmres

        def drive(state, *args, **kwargs):
            if not waited:
                waited.append(died.wait(timeout=30.0))
            return gmres(state, *args, **kwargs)

        thread_errors = []
        monkeypatch.setattr(threading, "excepthook", thread_errors.append)
        monkeypatch.setattr(msras.bench, "_local_task", dying)
        monkeypatch.setattr(schwarz, "gmres", drive)
        cfg = small_cfg(outputs={"history_prefix": str(tmp_path / "cmp_")})
        records = run_comparison(cfg, TWO_KINDS)
        assert waited == [True] and len(pooled) == 1
        assert records["AS2_geneo"]["failure"].startswith("WorkerLost: subdomain ")
        for scheme in TWO_KINDS[:2]:
            assert records[scheme]["converged"] and records[scheme]["workers"] == 2
            assert (tmp_path / f"cmp_{scheme}.csv").is_file()
        assert not (tmp_path / "cmp_AS2_geneo.csv").exists()
        assert not thread_errors
        assert not multiprocessing.active_children()

    def test_each_task_runs_once_with_more_workers_than_cores(self, monkeypatch, tmp_path):
        # three workers and the caller race for the 32 claims of a 4x4,
        # two-kind session, three times: every task runs in exactly one
        # process, and the records are the serial run's
        path = tmp_path / "tasks.log"
        path.touch()
        task = msras.bench._local_task

        def logged(system, decomp, pu, kind, modes, i):
            with open(path, "a") as fh:
                fh.write(f"{kind} {i}\n")
            return task(system, decomp, pu, kind, modes, i)

        cfg = small_cfg(nx=32, ny=32, px=4, py=4)
        serial = run_comparison(cfg, TWO_KINDS)
        monkeypatch.setattr(msras.bench, "_local_task", logged)
        monkeypatch.setattr(msras.bench, "_Bases", functools.partial(msras.bench._Bases, _width=4))
        start = time.monotonic()
        for _ in range(3):
            path.write_text("")
            records = run_comparison(cfg, TWO_KINDS)
            ran = sorted(path.read_text().split("\n")[:-1])
            assert ran == sorted(f"{kind} {i}" for kind in ("geneo", "harmonic")
                                 for i in range(16))
            for scheme in TWO_KINDS:
                assert records[scheme]["workers"] == 4
                assert records[scheme]["iterations"] == serial[scheme]["iterations"]
                assert np.array_equal(records[scheme]["solution"], serial[scheme]["solution"])
            assert not multiprocessing.active_children()
        assert time.monotonic() - start < 60.0

    def test_released_after_their_last_scheme(self, monkeypatch):
        # the oversampled factors and the session serve the four oversampled
        # schemes only: when AS2_geneo's preconditioner is built, neither is
        # held any more and the worker has ended. Every scheme's numbers are
        # those of the comparison with AS2_geneo first
        pooled = _pool_sessions(monkeypatch)
        sessions = []
        opened = msras.bench._Bases

        def watched(*args, **kwargs):
            session = opened(*args, **kwargs)
            sessions.append(weakref.ref(session))
            return session

        seen = {}
        build = schwarz.build_preconditioner

        def note(system, decomp, pu, scheme, coarse=None):
            # the factor families the drives read: Gamma_i stays in the
            # process that ran its GenEO task
            seen[scheme] = ({key[0] for key in decomp.factors} & {"dofs0_star", "dofs0"},
                            sessions[-1]() is None, bool(multiprocessing.active_children()))
            return build(system, decomp, pu, scheme, coarse)

        monkeypatch.setattr(msras.bench, "_Bases", watched)
        monkeypatch.setattr(schwarz, "build_preconditioner", note)
        schemes = list(schwarz.SCHEMES)
        assert schemes[-1] == "AS2_geneo"
        records = run_comparison(small_cfg(), schemes)
        assert seen["hybrid_AS"] == ({"dofs0_star"}, False, True)
        assert seen["AS2_geneo"] == (set(), True, False)
        first = run_comparison(small_cfg(), schemes[-1:] + schemes[:-1])
        assert len(pooled) == 2 and not multiprocessing.active_children()
        for scheme in schemes:
            a, b = records[scheme], first[scheme]
            assert a["converged"] and a["workers"] == b["workers"] == 2
            assert a["iterations"] == b["iterations"]
            assert a["final_residual"] == b["final_residual"]
            assert np.array_equal(a["solution"], b["solution"])

    def test_one_kind_keeps_its_own_stage(self, monkeypatch):
        # solve, spectrum and each sweep depth open no shared session: their
        # one kind is a stage of its own, at the first scheme that needs it
        opened = []
        session = msras.bench._Bases

        def watched(system, decomp, pu, needs, _width=None):
            opened.append(list(needs))
            return session(system, decomp, pu, needs, _width)

        monkeypatch.setattr(msras.bench, "_Bases", watched)
        run_single(small_cfg())
        run_sweep(small_cfg(scheme="AS2_geneo"), [1, 2], [3])
        run_comparison(small_cfg(), ["hybrid_RAS_msgfem", "RAS"])
        assert opened == [["harmonic"], ["geneo"], ["geneo"], ["harmonic"]]
        run_comparison(small_cfg(), TWO_KINDS)
        assert opened[-1] == ["harmonic", "geneo"]

    def test_coupling_rows_formed_once_per_decomposition(self, monkeypatch):
        # the work estimate, a sweep's cap and the GenEO pencils share one
        # Gamma_i per subdomain and decomposition
        calls = []
        rows = spectral.coupling_rows
        monkeypatch.setattr(spectral, "coupling_rows",
                            lambda dec, pu, i, zone: calls.append(i) or rows(dec, pu, i, zone))
        records = run_comparison(small_cfg(), TWO_KINDS)
        assert records["AS2_geneo"]["converged"] and calls == [0, 1, 2, 3]
        calls.clear()
        sweep = run_sweep(small_cfg(scheme="AS2_geneo"), [1, 2], [3])
        assert all(cell["converged"] for cell in sweep.cells.values())
        assert calls == [0, 1, 2, 3] * 2


class TestSpectrumVerb:
    def test_export(self, tmp_path):
        cfg = small_cfg(outputs={"spectrum": str(tmp_path / "spec.csv")})
        bases = run_spectrum(cfg)
        assert len(bases) == 4
        assert (tmp_path / "spec.csv").read_text().startswith("i,k,lambda")


def solve_in_process(tmp_path, over, verb=("solve",)):
    """`msras <verb>` on small_cfg() updated by `over`, run as a process;
    `verb` is the verb and the arguments that follow the config path."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**small_cfg().to_dict(), **over}))
    return subprocess.run(
        [sys.executable, "-m", "msras.cli", verb[0], str(path), *verb[1:]],
        capture_output=True, text=True, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(Path(schwarz.__file__).parents[1])},
    )


class TestCli:
    def test_solve_exit_codes(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(small_cfg().to_dict()))
        assert cli_main(["solve", str(path)]) == 0

    def test_huge_maxit_solves_exit_0(self, tmp_path):
        # GMRES reserves room for the steps it makes, not for maxit: 1e6 on
        # a 64^2 grid asked for 30.5 GiB up front
        proc = solve_in_process(tmp_path, {"nx": 64, "ny": 64, "px": 4, "py": 4,
                                           "maxit": 10**6})
        assert proc.returncode == 0, proc.stderr

    def test_config_error_exit_1(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"nx": 1}')
        assert cli_main(["solve", str(path)]) == 1

    @pytest.mark.parametrize("over", [
        {"coefficient": {"kind": "raster", "path": "no-such-raster.txt"}},
        {"modes": 10.0},
        {"coefficient": {"kind": "constant", "value": 0.0}},
        {"boundary": dict.fromkeys(["left", "right", "bottom", "top"],
                                   {"type": "neumann", "flux": 0.0})},
        {"source": {"kind": "constant", "value": None}},
        {"coefficient": {"kind": "skyscraper", "contrast": None}},
        {"boundary": {"preset": "all_dirichlet", "value": None}},
        {"coefficient": {"kind": "skyscraper", "contast": 10}},
    ])
    def test_malformed_config_exit_1(self, tmp_path, over):
        # run as a process: the message, not a traceback, must reach stderr
        out = solve_in_process(tmp_path, over)
        assert out.returncode == 1
        assert out.stderr.startswith("configuration error:")
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize("bad", ["nan", "inf", "-1"])
    def test_bad_raster_cell_exit_1(self, tmp_path, bad):
        # NaN passes a "values <= 0" check; each bad cell must end in a
        # message naming the raster and the cell, not in a failed factorization
        rows = [["1"] * 16 for _ in range(16)]
        rows[5][3] = bad
        raster = tmp_path / "coeff.txt"
        raster.write_text("16 16\n" + "\n".join(" ".join(r) for r in rows) + "\n")
        out = solve_in_process(tmp_path, {"coefficient": {"kind": "raster", "path": str(raster)}})
        assert out.returncode == 1
        assert out.stderr.startswith("configuration error:")
        assert str(raster) in out.stderr and "(cx, cy) = (3, 5)" in out.stderr
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize("axes", [
        ["--ovsp", "0", "--modes", "2"],
        ["--ovsp", "1", "1", "--modes", "2"],
        ["--ovsp", "1", "--modes", "2", "2"],
        ["--ovsp", "1", "--modes", "-1"],
    ])
    def test_bad_sweep_axes_exit_1(self, tmp_path, axes):
        out = solve_in_process(tmp_path, {}, ("sweep", *axes))
        assert out.returncode == 1
        assert out.stderr.startswith("configuration error:")
        assert "Traceback" not in out.stderr

    def test_unknown_compare_scheme_exit_1(self, tmp_path):
        out = solve_in_process(tmp_path, {}, ("compare", "--schemes", "RAS", "bogus"))
        assert out.returncode == 1
        assert out.stderr.startswith("configuration error:") and "bogus" in out.stderr
        assert "Traceback" not in out.stderr and out.stdout == ""

    def test_repeated_compare_scheme_exit_1(self, tmp_path):
        out = solve_in_process(tmp_path, {}, ("compare", "--schemes", "RAS", "RAS"))
        assert out.returncode == 1
        assert out.stderr.startswith("configuration error:") and "repeated" in out.stderr
        assert "Traceback" not in out.stderr and out.stdout == ""

    def test_nonconvergence_exit_2(self, tmp_path):
        # additive one-level scheme cannot reach 1e-10 in 3 iterations
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(small_cfg(scheme="AS", modes=0, maxit=3).to_dict()))
        assert cli_main(["solve", str(path)]) == 2

    def test_breakdown_reported_exit_2(self, tmp_path, monkeypatch):
        # a preconditioner that returns NaN makes GMRES break down; the
        # typed failure must still reach the written report
        monkeypatch.setattr(schwarz, "apply_preconditioner",
                            lambda state, r: np.full(np.shape(r), np.nan))
        path = tmp_path / "cfg.json"
        report_path = tmp_path / "r.json"
        cfg = small_cfg(scheme="RAS", modes=0, outputs={"report": str(report_path)})
        path.write_text(json.dumps(cfg.to_dict()))
        assert cli_main(["solve", str(path)]) == 2
        report = json.loads(report_path.read_text())
        assert report["failure"].startswith("Breakdown: ")
        assert report["converged"] is False and report["iterations"] is None

    def test_setup_failure_reported_exit_2(self, tmp_path, capsys):
        # the bases stage cannot supply 10000 modes; the typed failure must
        # reach the written report and the exit code
        path = tmp_path / "cfg.json"
        report_path = tmp_path / "r.json"
        cfg = small_cfg(modes=10000, outputs={"report": str(report_path)})
        path.write_text(json.dumps(cfg.to_dict()))
        assert cli_main(["solve", str(path)]) == 2
        assert "FAILED: TooManyModes: " in capsys.readouterr().out
        report = json.loads(report_path.read_text())
        assert report["failure"].startswith("TooManyModes: ")
        assert report["xi"] == 4 and report["n_free_dofs"] > 0
        assert report["converged"] is False and report["iterations"] is None

    def test_nonconvergence_exit_2_in_every_verb(self, tmp_path, capsys):
        # the scheme stops at maxit without converging: compare fails like
        # solve and sweep, and prints the flag
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(small_cfg(scheme="AS", modes=0, maxit=3).to_dict()))
        assert cli_main(["compare", str(path), "--schemes", "AS"]) == 2
        out = capsys.readouterr().out
        assert "AS: 3 iterations" in out and "converged=False" in out
        assert cli_main(["sweep", str(path), "--ovsp", "2", "--modes", "0"]) == 2
        assert cli_main(["solve", str(path)]) == 2

    def test_compare_and_sweep_and_spectrum(self, tmp_path):
        path = tmp_path / "cfg.json"
        cfg = small_cfg(outputs={"spectrum": str(tmp_path / "s.csv")})
        path.write_text(json.dumps(cfg.to_dict()))
        assert cli_main(["compare", str(path), "--schemes", "hybrid_RAS_msgfem", "RAS"]) == 0
        assert cli_main(["sweep", str(path), "--ovsp", "1", "2", "--modes", "3", "5"]) == 0
        assert cli_main(["spectrum", str(path)]) == 0


class TestBenchmarkTraceSites:
    """The benchmark's tracer hooks package functions by module attribute
    and binds their argument names, and its worker reads the verbs' records;
    a refactor that moves or renames one must fail here, not only in the
    benchmark run."""

    @pytest.fixture(autouse=True)
    def perfbench_path(self, monkeypatch):
        monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as found
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))

    @pytest.fixture
    def tracer(self):
        return importlib.import_module("tracer")

    @pytest.mark.parametrize("workload", ["msras_256", "compare_128"])
    def test_worker_smoke_operation_passes(self, workload):
        # one untraced 32^2 operation in process, checked as the benchmark checks it
        worker = importlib.import_module("worker")
        result = worker.run(workload, 7, False, True)
        assert result["error"] is None and result["failed"] == 0

    def test_sites_resolve(self, tracer):
        for sites in (tracer.TRACED_SITES, tracer.OBSERVED_SITES):
            tr = tracer.Tracer(sites, timed=True)
            try:
                tr.install()  # raises MissingTarget naming any absent site
            finally:
                tr.uninstall()

    @pytest.mark.parametrize("entry,factors", [("run_single", 4), ("run_comparison", 12)])
    def test_traced_run_factors_each_matrix_once(self, tracer, entry, factors):
        # 2x2 subdomains: one interior factor each, shared by the harmonic
        # reduction and every oversampled scheme; the GenEO pencils add the
        # four blocks off their overlap zones, and AS2_geneo its own four
        import msras.bench

        cfg = small_cfg()
        args = (cfg,) if entry == "run_single" else (cfg, list(schwarz.SCHEMES))
        tr = tracer.Tracer(tracer.TRACED_SITES, timed=True)
        tr.install()
        try:
            tr.call(f"bench.{entry}", getattr(msras.bench, entry), *args)
        finally:
            tr.uninstall()
        layers = tracer.layer_metrics(tr.spans)
        assert layers["linalg.factorize_calls"] == factors
        assert layers["linalg.factorize_distinct_ratio"] == 1.0
        assert layers["spectral.reduce_calls"] == 4


# The config on which a GenEO pencil's subset solve (LAPACK dsygvx) returned
# 14 of the 16 pairs asked for, without an error: subdomain 9's pencil has
# order 95 and a cluster at mu = 0.2 from its 16th pair on.
SHORT_PENCIL = dict(nx=34, ny=15, px=2, py=5, boundary={"preset": "all_dirichlet"},
                    coefficient={"kind": "constant", "value": 1.0}, source={"kind": "none"},
                    overlap_layers=3, oversampling_layers=4, modes=15)


def random_configs(count, seed):
    """`count` seeded small configs: 4 to 40 cells a side, 1 to 5 x 1 to 5
    subdomains, constant or skyscraper coefficients with contrast up to 1e8,
    presets or random sides, overlap 1-4, oversampling 1-6, 0-15 modes
    (uniform or per subdomain), every scheme, both drivers, maxit 1-60."""
    rng = np.random.default_rng(seed)
    configs = []
    for _ in range(count):
        nx, ny = (int(v) for v in rng.integers(4, 41, size=2))
        px, py = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        if rng.random() < 0.5:
            coefficient = {"kind": "constant", "value": float(10.0 ** rng.uniform(-2, 2))}
        else:
            coefficient = {"kind": "skyscraper", "contrast": float(10.0 ** rng.uniform(0, 8)),
                           "blocks": [int(rng.integers(1, nx + 1)), int(rng.integers(1, ny + 1))],
                           "fraction": float(rng.uniform()), "seed": int(rng.integers(100))}
        preset = rng.integers(3)
        if preset == 0:
            boundary = {"preset": "mixed_flux_channel"}
        elif preset == 1:
            boundary = {"preset": "all_dirichlet", "value": float(rng.uniform(-5, 5))}
        else:
            boundary = {side: {"type": "dirichlet", "value": float(rng.uniform(-5, 5))}
                        if rng.random() < 0.5 else
                        {"type": "neumann", "flux": float(rng.uniform(-2, 2))}
                        for side in ("left", "right", "bottom", "top")}
            if all(spec["type"] == "neumann" for spec in boundary.values()):
                boundary["left"] = {"type": "dirichlet", "value": 1.0}
        modes = int(rng.integers(0, 16))
        if rng.random() < 0.3:
            modes = [int(m) for m in rng.integers(0, 16, size=px * py)]
        configs.append(dict(
            nx=nx, ny=ny, px=px, py=py, coefficient=coefficient, boundary=boundary,
            source={"kind": ("gaussian_bump", "none")[rng.integers(2)]},
            overlap_layers=int(rng.integers(1, 5)), oversampling_layers=int(rng.integers(1, 7)),
            modes=modes, scheme=schwarz.SCHEMES[rng.integers(len(schwarz.SCHEMES))],
            driver=("richardson", "gmres")[rng.integers(2)], maxit=int(rng.integers(1, 61))))
    return configs


def _typed(failure):
    """Whether a record's failure is None or names a package error type."""
    if failure is None:
        return True
    error = getattr(msras.errors, failure.split(":", 1)[0], None)
    return isinstance(error, type) and issubclass(error, msras.errors.MsrasError)


class TestTypedEnds:
    """Every run ends in a report or a typed package error, never in a bare
    traceback or a NaN solution."""

    def test_short_pencil_return_ends_typed(self):
        records = run_comparison(ExperimentConfig.from_dict(SHORT_PENCIL), list(schwarz.SCHEMES))
        assert set(records) == set(schwarz.SCHEMES)
        for rec in records.values():
            assert rec["converged"] or _typed(rec["failure"]) and rec["failure"] is not None
        # the pencil that came back short is solved in full: GenEO has 15 modes
        assert records["AS2_geneo"]["converged"]
        assert {b.n_modes for b in records["AS2_geneo"]["spectrum"]} == {15}

    def test_failed_pencil_names_its_subdomain(self, monkeypatch):
        def failing(a, b, subset_by_index=None):
            raise scipy.linalg.LinAlgError("planted")

        monkeypatch.setattr(scipy.linalg, "eigh", failing)
        records = run_comparison(small_cfg(), TWO_KINDS)
        for rec in records.values():
            assert rec["failure"] == ("NonConvergence: subdomain 0: K + M not positive definite "
                                      "or eigensolve failed: planted")

    @pytest.mark.filterwarnings("ignore::msras.errors.RankDeficientCoarse")
    def test_random_configs_end_typed(self):
        specs = [SHORT_PENCIL] + random_configs(30, seed=2024)
        ends = set()
        for spec in specs:
            for verb in ("solve", "compare", "sweep"):
                solutions = []
                try:
                    cfg = ExperimentConfig.from_dict(spec)
                    if verb == "solve":
                        report, _, u = run_single(cfg)
                        failures, solutions = [report["failure"]], [u]
                    elif verb == "compare":
                        records = run_comparison(cfg, list(schwarz.SCHEMES))
                        failures = [rec["failure"] for rec in records.values()]
                        solutions = [rec["solution"] for rec in records.values()]
                    else:
                        sweep = run_sweep(cfg, sorted({1, cfg.oversampling_layers}),
                                          sorted({0, max(cfg.modes_list())}))
                        failures = [cell["failure"] for cell in sweep.cells.values()]
                except msras.errors.MsrasError as exc:
                    failures = [f"{type(exc).__name__}: {exc}"]
                assert all(map(_typed, failures)), (verb, spec, failures)
                for u in solutions:
                    assert u is None or np.all(np.isfinite(u)), (verb, spec)
                ends.update((f or "converged").split(":", 1)[0] for f in failures)
        assert {"converged", "TooManyModes"} <= ends
