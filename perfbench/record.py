"""Write expected.json: the deterministic fields (n_free, xi, xi_star and,
per scheme, iterations, coarse_dim and lambda_bound) of one untraced
operation per workload and seed. The run compares every operation against
this record. Re-record only when a behaviour change is intended.

    python3 perfbench/record.py --seeds 7 23
"""

import argparse
import json
import sys

from run import HERE, WALL_LIMIT_S, HarnessError, deterministic_fields, run_worker
import workloads

HELD_OUT_SEED = 23


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+",
                    default=[workloads.DEFAULT_SEED, HELD_OUT_SEED])
    args = ap.parse_args(argv)
    record = {
        "note": f"seed {workloads.DEFAULT_SEED} is the desk config's seed; seed "
                f"{HELD_OUT_SEED} is held out for checking claims on a seed not used "
                "while writing them",
        "workloads": {},
    }
    for name in workloads.WORKLOADS:
        per_seed = record["workloads"][name] = {}
        for seed in args.seeds:
            op = run_worker(name, seed, False, False, WALL_LIMIT_S)
            if op["error"] or op["failed"]:
                raise HarnessError(f"{name} seed {seed}: {op['failed']} solves failed")
            per_seed[str(seed)] = deterministic_fields(op)
            print(name, seed, json.dumps(per_seed[str(seed)]), flush=True)
    with open(HERE / "expected.json", "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
