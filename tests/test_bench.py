import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from msras import schwarz, spectral
from msras.bench import (
    ExperimentConfig,
    Pipeline,
    run_comparison,
    run_single,
    run_spectrum,
    run_sweep,
)
from msras.cli import main as cli_main
from msras.errors import ConfigError
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
        cfg.to_json(path)
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
        ],
    )
    def test_validation(self, field, value):
        with pytest.raises(ConfigError):
            small_cfg(**{field: value})

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"grid_size": 3})

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
        r1.pop("timings")
        r2.pop("timings")
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
        assert h1.res_b == h2.res_b

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
    """The subdomain-local stages run on one BLAS thread; the drive keeps the
    caller's width."""

    @pytest.mark.parametrize("module, name, width", [
        ("spectral", "reduce_to_harmonic", 1),
        ("spectral", "geneo_eigenproblem", 1),
        ("schwarz", "build_preconditioner", 1),
        ("schwarz", "gmres", 2),
    ])
    def test_probe_sees_stage_width(self, blas_width_two, monkeypatch, module, name, width):
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
        assert openblas_threads() == [blas_width_two] * len(seen[0])


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

    def test_bad_scheme_recorded_not_raised(self):
        cfg = small_cfg()
        res = run_comparison(cfg, ["hybrid_RAS_msgfem", "bogus"])
        assert res["bogus"]["failure"]
        assert res["hybrid_RAS_msgfem"]["failure"] is None

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

    def test_history_prefix_export(self, tmp_path):
        cfg = small_cfg(outputs={"history_prefix": str(tmp_path / "cmp_")})
        run_comparison(cfg, ["hybrid_RAS_msgfem", "RAS"])
        for scheme in ("hybrid_RAS_msgfem", "RAS"):
            body = (tmp_path / f"cmp_{scheme}.csv").read_text()
            assert body.startswith("iter,res_b,res_precond,err_a,time_ms")


class TestRunSweep:
    def test_single_cell_matches_run_single(self):
        cfg = small_cfg()
        report, _, _ = run_single(cfg)
        sweep = run_sweep(cfg, [cfg.oversampling_layers], [5])
        cell = sweep.cells[(cfg.oversampling_layers, 5)]
        assert cell["iterations"] == report["iterations"]
        assert cell["lambda"] == pytest.approx(report["lambda_bound"], rel=1e-12)

    def test_lambda_monotone_in_modes(self):
        cfg = small_cfg()
        sweep = run_sweep(cfg, [2], [2, 4, 6])
        lams = [sweep.cells[(2, m)]["lambda"] for m in (2, 4, 6)]
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
        # requesting more modes than the interface can carry fails that cell only
        cfg = small_cfg(outputs={"sweep": str(tmp_path / "s.csv")})
        sweep = run_sweep(cfg, [1], [4, 10_000])
        assert sweep.cells[(1, 10_000)].get("failure")
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
                            lambda system, decomp, pu, bases: swept.append(bases)
                            or build(system, decomp, pu, bases))
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
        small_cfg().to_json(path)
        assert cli_main(["solve", str(path)]) == 0

    def test_config_error_exit_1(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"nx": 1}')
        assert cli_main(["solve", str(path)]) == 1

    @pytest.mark.parametrize("over", [
        {"coefficient": {"kind": "raster", "path": "no-such-raster.txt"}},
        {"modes": 10.0},
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

    def test_nonconvergence_exit_2(self, tmp_path):
        # additive one-level scheme cannot reach 1e-10 in 3 iterations
        path = tmp_path / "cfg.json"
        small_cfg(scheme="AS", modes=0, maxit=3).to_json(path)
        assert cli_main(["solve", str(path)]) == 2

    def test_breakdown_reported_exit_2(self, tmp_path, monkeypatch):
        # a preconditioner that returns NaN makes GMRES break down; the
        # typed failure must still reach the written report
        monkeypatch.setattr(schwarz, "apply_preconditioner",
                            lambda state, r: np.full(np.shape(r), np.nan))
        path = tmp_path / "cfg.json"
        report_path = tmp_path / "r.json"
        small_cfg(scheme="RAS", modes=0, outputs={"report": str(report_path)}).to_json(path)
        assert cli_main(["solve", str(path)]) == 2
        report = json.loads(report_path.read_text())
        assert report["failure"].startswith("Breakdown: ")
        assert report["converged"] is False and report["iterations"] is None

    def test_setup_failure_reported_exit_2(self, tmp_path, capsys):
        # the bases stage cannot supply 10000 modes; the typed failure must
        # reach the written report and the exit code
        path = tmp_path / "cfg.json"
        report_path = tmp_path / "r.json"
        small_cfg(modes=10000, outputs={"report": str(report_path)}).to_json(path)
        assert cli_main(["solve", str(path)]) == 2
        assert "FAILED: TooManyModes: " in capsys.readouterr().out
        report = json.loads(report_path.read_text())
        assert report["failure"].startswith("TooManyModes: ")
        assert report["xi"] == 4 and report["n_free_dofs"] > 0
        assert report["converged"] is False and report["iterations"] is None

    def test_compare_and_sweep_and_spectrum(self, tmp_path):
        path = tmp_path / "cfg.json"
        small_cfg(outputs={"spectrum": str(tmp_path / "s.csv")}).to_json(path)
        assert cli_main(["compare", str(path), "--schemes", "hybrid_RAS_msgfem", "RAS"]) == 0
        assert cli_main(["sweep", str(path), "--ovsp", "1", "2", "--modes", "3", "5"]) == 0
        assert cli_main(["spectrum", str(path)]) == 0


class TestBenchmarkTraceSites:
    """The benchmark's tracer hooks package functions by module attribute
    and binds their argument names; a refactor that moves or renames one
    must fail here, not only in the benchmark run."""

    @pytest.fixture
    def tracer(self, monkeypatch):
        monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as found
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        return importlib.import_module("tracer")

    def test_sites_resolve(self, tracer):
        for sites in (tracer.TRACED_SITES, tracer.OBSERVED_SITES):
            tr = tracer.Tracer(sites, timed=True)
            try:
                tr.install()  # raises MissingTarget naming any absent site
            finally:
                tr.uninstall()

    @pytest.mark.parametrize("entry,factors", [("run_single", 4), ("run_comparison", 8)])
    def test_traced_run_factors_each_matrix_once(self, tracer, entry, factors):
        # 2x2 subdomains: one interior factor each, shared by the harmonic
        # reduction and every oversampled scheme; AS2_geneo adds its own four
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
