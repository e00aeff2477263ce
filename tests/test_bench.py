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

import msras.bench
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
from msras.errors import ConfigError, UncoveredNode
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
        for report in (r1, r2):  # wall times and peak memory vary from run to run
            report.pop("timings")
            report.pop("memory_mb")
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
# threads (OPENBLAS_NUM_THREADS=2): its report, and the threads the process
# has after it.
_THREADS_AFTER_POOL = """
import functools, json, os, sys
import msras.bench as bench

bench.local_setup = functools.partial(bench.local_setup, _width=2)
report, _, _ = bench.run_single(bench.ExperimentConfig.from_dict(json.loads(sys.argv[1])))
print(json.dumps({"workers": report["workers"], "converged": report["converged"],
                  "pid": os.getpid(), "threads": os.listdir("/proc/self/task")}))
"""


def test_pooled_run_leaves_no_blas_helper(bundled_openblas):
    # the fork shuts down the helpers that OpenBLAS started at load, and at
    # one thread per process no later call starts one, in the caller or in
    # a worker
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("no /proc/self/task to count the threads in")
    proc = subprocess.run(
        [sys.executable, "-c", _THREADS_AFTER_POOL, json.dumps(small_cfg().to_dict())],
        capture_output=True, text=True, check=True,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "2",
             "PYTHONPATH": str(Path(schwarz.__file__).parents[1])})
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["workers"] == 2 and out["converged"]
    assert out["threads"] == [str(out["pid"])]  # the main thread alone


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
                               "workers_rss_upper_mb", "timings", "memory_mb"}
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
        # the workers' interior factors are installed: each matrix is factored once
        assert dec1.factors.keys() == dec2.factors.keys()
        assert len(dec1.factors) == (4 if kind == "harmonic" else 0)
        for key, factor in dec1.factors.items():
            assert np.array_equal(factor.band, dec2.factors[key].band)

        scheme = "AS2_geneo" if kind == "geneo" else "hybrid_RAS_msgfem"
        solved = []
        for system, dec, pu, bases, _ in runs:
            if capped:  # a sweep cell truncates the shared bases
                bases = [spectral.truncate_basis(b, 3) for b in bases]
            coarse = spectral.build_coarse_space(system, dec, bases)
            state = schwarz.build_preconditioner(system, dec, pu, scheme, coarse)
            solved.append((coarse, schwarz.gmres(state, system)[1]))
        (c1, h1), (c2, h2) = solved
        assert np.array_equal(c1.keep, c2.keep) and np.array_equal(c1.scale, c2.scale)
        assert np.array_equal(c1.factor.band, c2.factor.band) and c1.lam == c2.lam
        assert h1.n_iterations == h2.n_iterations and h1.res_b == h2.res_b

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
        monkeypatch.setattr(msras.bench, "_WORKER", (task, claims, slots))
        for i in range(dec.n_subdomains):
            sent = pickle.dumps(msras.bench._worker_task(i))
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
        assert msras.bench._worker_task(0) is None  # claimed: the caller runs it

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

    def test_gate_pools_only_the_large_stages(self):
        # the estimated work of the benchmark's stages against the gate:
        # the 256^2, 8x8 harmonic and the 128^2, 8x8 GenEO and harmonic
        # stages are shared, the 32^2, 4x4 stages of its smoke runs are not,
        # and the tier-1 configs stay far below it
        def flops(n, kind, parts=8):
            cfg = small_cfg(nx=n, ny=n, px=parts, py=parts, overlap_layers=2,
                            oversampling_layers=4)
            dec = build_decomposition(build_problem(cfg), parts, parts, 2, 4)
            return msras.bench._local_flops(dec, build_partition_of_unity(dec), kind).sum()

        gate = msras.bench._POOL_FLOPS
        assert flops(256, "harmonic") > gate and flops(128, "geneo") > gate
        assert flops(128, "harmonic") > gate
        assert max(flops(32, kind, 4) for kind in ("harmonic", "geneo")) < gate
        cfg = small_cfg()
        dec = build_decomposition(build_problem(cfg), 2, 2, 1, 2)
        pu = build_partition_of_unity(dec)
        assert max(msras.bench._local_flops(dec, pu, kind).sum()
                   for kind in ("harmonic", "geneo")) < 1e-3 * gate


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
