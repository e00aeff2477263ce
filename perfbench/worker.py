"""One benchmark operation in a fresh process.

Calls a workload's public entry point once (``run_single`` or
``run_comparison``), untraced or traced, then checks every solve against the
direct solve outside the timed region. Prints one JSON object as its last
line. Run by run.py; by hand:

    PYTHONPATH=src python3 perfbench/worker.py --workload msras_256 --seed 7 --trace 0
"""

import argparse
import json
import math
import resource
import sys
import traceback
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
MAX_REL_ERROR_A = 1e-6


def _solve_records(observed):
    """Correctness and deterministic fields of each Krylov solve."""
    records = []
    refs = {}
    for name, info in observed:
        if name != "schwarz.krylov":
            continue
        system, u, hist = info["system"], info["solution"], info["history"]
        if id(system) not in refs:
            refs[id(system)] = system.solve_direct()
        u_ref = refs[id(system)]
        err = system.a_norm(u - u_ref) / system.a_norm(u_ref)
        # GMRES stops on the preconditioned residual: its own stopping quantity.
        converged = hist.res_precond[-1] <= info["target_reduction"] * hist.res_precond[0]
        coarse = info["coarse"]
        records.append({
            "scheme": info["scheme"],
            "iterations": int(hist.n_iterations),
            "converged": bool(converged),
            "rel_error_a": float(err),
            "coarse_dim": int(coarse.m) if coarse is not None else 0,
            "lambda_bound": float(coarse.lam) if coarse is not None else None,
            "n_free": int(system.n_free),
        })
    return records


def run(name, seed, trace, smoke):
    import msras.bench

    src = (ROOT / "src").resolve()
    if src not in Path(msras.bench.__file__).resolve().parents:
        raise SystemExit(f"msras imported from {msras.bench.__file__}, not from {src}")
    cfg = msras.bench.ExperimentConfig.from_dict(workloads.config(name, seed, smoke))
    entry_name, _ = workloads.WORKLOADS[name]
    entry = getattr(msras.bench, entry_name)
    call_args = (cfg,) if entry_name == "run_single" else (cfg, list(workloads.COMPARE_SCHEMES))

    tr = tracer.Tracer(tracer.TRACED_SITES if trace else tracer.OBSERVED_SITES, timed=trace)
    attempted = len(workloads.schemes(name))
    result = {"workload": name, "seed": seed, "trace": trace, "attempted": attempted,
              "failed": attempted, "error": None}
    try:
        tr.install()
    except tracer.MissingTarget as exc:
        result["error"] = f"wrapper targets missing: {exc}"
        return result
    try:
        out, total_s = tr.call(f"bench.{entry_name}", entry, *call_args)
    except Exception:  # the operation failed: report it, with its traceback
        result["error"] = traceback.format_exc()
        return result
    finally:
        tr.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if entry_name == "run_single":
        solve_s = out[0]["timings"]["krylov_s"]
        failures = [out[0]["failure"]]
    else:
        solve_s = sum(r.get("solve_s", 0.0) for r in out.values())
        failures = [r["failure"] for r in out.values()]

    solves = _solve_records(tr.observed)
    passed = sum(
        1 for s in solves
        if s["converged"] and math.isfinite(s["rel_error_a"]) and s["rel_error_a"] <= MAX_REL_ERROR_A
    )
    decomp = [info for n, info in tr.observed if n == "decomp.build"]
    result.update(
        failed=attempted - passed,
        failures=[f for f in failures if f],
        total_s=total_s,
        setup_s=total_s - solve_s,
        iterations=sum(s["iterations"] for s in solves),
        peak_rss_mb=peak_rss_mb,
        solves=solves,
        fields={
            "n_free": solves[0]["n_free"] if solves else None,
            "xi": decomp[0]["xi"] if decomp else None,
            "xi_star": decomp[0]["xi_star"] if decomp else None,
        },
    )
    if trace:
        layers = tracer.layer_metrics(tr.spans)
        iters = {s["scheme"]: s["iterations"] for s in solves}
        for scheme in workloads.COMPARE_SCHEMES:
            layers[f"schwarz.iterations.{scheme}"] = iters.get(scheme, 0)
        layers["schwarz.rel_error_a"] = max((s["rel_error_a"] for s in solves), default=0.0)
        result["layers"] = layers
        result["span_problems"] = tracer.check_spans(tr.spans)
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="32^2 grid, 4x4 subdomains")
    args = ap.parse_args(argv)
    result = run(args.workload, args.seed, bool(args.trace), args.smoke)
    if result["error"]:
        print(result["error"], file=sys.stderr)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
