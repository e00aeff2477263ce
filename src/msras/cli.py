"""Command-line entry point.

Verbs: solve, compare, sweep, spectrum. Exit codes: 0 on convergence, 2 on
non-convergence or a typed failure, 1 on configuration errors.
"""

import argparse
import sys

from .bench import ExperimentConfig, run_comparison, run_single, run_spectrum, run_sweep
from .errors import ConfigError, MsrasError
from .schwarz import SCHEMES


def _parser():
    p = argparse.ArgumentParser(prog="msras",
                                description="Two-level spectral Schwarz solver bench")
    sub = p.add_subparsers(dest="verb", required=True)

    s = sub.add_parser("solve", help="run one configured solve")
    s.add_argument("config")

    c = sub.add_parser("compare", help="run one setup under several schemes")
    c.add_argument("config")
    c.add_argument("--schemes", nargs="+", default=list(SCHEMES))

    w = sub.add_parser("sweep", help="oversampling x modes sweep")
    w.add_argument("config")
    w.add_argument("--ovsp", nargs="+", type=int, required=True)
    w.add_argument("--modes", nargs="+", type=int, required=True)

    e = sub.add_parser("spectrum", help="export local eigenvalue decay")
    e.add_argument("config")
    return p


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        cfg = ExperimentConfig.from_json(args.config)
        if args.verb == "solve":
            report, history, _ = run_single(cfg)
            print(f"scheme={report['scheme_applied']} dofs={report['n_free_dofs']} "
                  f"coarse_dim={report['coarse_dim']} lambda={report['lambda_bound']}")
            if report["failure"]:
                print(f"FAILED: {report['failure']}")
                return 2
            print(f"iterations={report['iterations']} "
                  f"final_residual={report['final_residual']:.3e} "
                  f"converged={report['converged']}")
            return 0 if report["converged"] else 2

        if args.verb == "compare":
            results = run_comparison(cfg, args.schemes)
            for scheme in args.schemes:
                res = results[scheme]
                if res["failure"]:
                    print(f"{scheme:>20}: FAILED ({res['failure']})")
                else:
                    print(f"{scheme:>20}: {res['iterations']} iterations "
                          f"({res['solve_s']:.3f} s) converged={res['converged']}")
            return 0 if all(res["converged"] for res in results.values()) else 2

        if args.verb == "sweep":
            report = run_sweep(cfg, args.ovsp, args.modes)
            for s in report.ovsp_list:
                cells = [report.cells[(s, m)] for m in report.modes_list]
                print(f"ovsp={s}: " + " ".join(
                    "FAIL" if c["failure"] else str(c["iterations"]) for c in cells))
            return 0 if all(cell["converged"] for cell in report.cells.values()) else 2

        bases = run_spectrum(cfg)
        print(f"exported spectra of {len(bases)} subdomains "
              f"to {cfg.outputs.get('spectrum', 'spectrum.csv')}")
        return 0
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except MsrasError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
