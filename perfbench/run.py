"""msras benchmark: time to solution on the desk instance, untraced or traced.

    python3 perfbench/run.py --workload msras_256 --seed 7 --seconds 50 --trace 0

Closed loop with one caller: each operation is one call of the workload's
public entry point in a fresh worker process (worker.py), started only after
the previous one ended, until the next would run past --seconds. BLAS gets
as many threads as the process may use cores. Metrics are medians over the
operations of the run.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
alternates untraced and traced operations and reports the per-layer metrics,
with the tracing overhead as the difference of the two median totals.

Every solve is checked (no exception, converged, energy-norm error against
the direct solve at most 1e-6), and the deterministic fields are compared
with expected.json where it has the seed; any difference is printed and
makes the run incorrect. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave the checkout as it was found
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Everything, including the slowest operation, ends inside this many seconds.
WALL_LIMIT_S = 170.0
LAMBDA_RTOL = 1e-9
E2E_KEYS = ("total_s", "setup_s", "iterations", "peak_rss_mb")


class HarnessError(Exception):
    """The benchmark cannot produce a result (as opposed to a failed operation)."""


def _worker_env():
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_worker(name, seed, trace, smoke, timeout):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
           "--seed", str(seed), "--trace", str(int(trace))]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_worker_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise HarnessError(f"{name}: worker did not finish within {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"{name}: worker exited with {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    if result["error"]:
        print(f"{name} seed {seed}: operation failed:\n{result['error']}", file=sys.stderr)
    return result


def field_differences(name, op, expected):
    """Deterministic fields of one operation that differ from the record."""
    diffs = []
    for key in ("n_free", "xi", "xi_star"):
        if op["fields"][key] != expected[key]:
            diffs.append(f"{key}: expected {expected[key]}, got {op['fields'][key]}")
    got = {s["scheme"]: s for s in op["solves"]}
    for scheme, want in expected["solves"].items():
        have = got.get(scheme)
        if have is None:
            diffs.append(f"{scheme}: no solve recorded")
            continue
        for key in ("iterations", "coarse_dim"):
            if have[key] != want[key]:
                diffs.append(f"{scheme}.{key}: expected {want[key]}, got {have[key]}")
        a, b = want["lambda_bound"], have["lambda_bound"]
        if (a is None) != (b is None) or (
            a is not None and not math.isclose(a, b, rel_tol=LAMBDA_RTOL)
        ):
            diffs.append(f"{scheme}.lambda_bound: expected {a!r}, got {b!r}")
    return [f"{name}: {d}" for d in diffs]


def deterministic_fields(op):
    """The record expected.json keeps for one operation."""
    return dict(
        op["fields"],
        solves={s["scheme"]: {k: s[k] for k in ("iterations", "coarse_dim", "lambda_bound")}
                for s in op["solves"]},
    )


def measure(name, seed, seconds, trace, smoke=False):
    """Run operations for `seconds`; returns (untraced ops, traced ops)."""
    start = time.monotonic()
    deadline = start + seconds
    untraced, traced, cycles = [], [], []
    while True:
        t = time.monotonic()
        for is_traced, ops in ((False, untraced), (True, traced))[: 1 + int(trace)]:
            timeout = WALL_LIMIT_S - (time.monotonic() - start)
            if timeout <= 0:
                raise HarnessError(f"{name}: out of time after {len(untraced)} operations")
            ops.append(run_worker(name, seed, is_traced, smoke, timeout))
        cycles.append(time.monotonic() - t)
        if time.monotonic() + statistics.median(cycles) > deadline:
            return untraced, traced


def summarize(name, seed, trace, untraced, traced, spec, smoke=False):
    """Result object of a run from its operations."""
    ops = untraced + traced
    problems = []
    expected = None
    if not smoke:
        with open(HERE / "expected.json") as fh:
            expected = json.load(fh)["workloads"][name].get(str(seed))
    for op in ops:
        if op["error"]:
            continue
        problems += [f"{name}: solve failure: {f}" for f in op["failures"]]
        problems += [f"{name}: {p}" for p in op.get("span_problems", [])]
        if expected is not None:
            problems += field_differences(name, op, expected)
    done_u = [op for op in untraced if not op["error"]]
    done_t = [op for op in traced if not op["error"]]
    if not done_u or (trace and not done_t):
        raise HarnessError(f"{name}: no operation completed")

    if trace:
        values = {k: statistics.median(op["layers"][k] for op in done_t)
                  for k in done_t[0]["layers"]}
        values["bench.trace_overhead_s"] = (
            statistics.median(op["total_s"] for op in done_t)
            - statistics.median(op["total_s"] for op in done_u)
        )
        wanted = spec["per_layer"]
    else:
        values = {k: statistics.median(op[k] for op in done_u) for k in E2E_KEYS}
        wanted = spec["end_to_end"]
    names = {m["name"] for m in wanted}
    if names != set(values):
        raise HarnessError(
            f"metrics differ from BENCHMARK.json: missing {sorted(names - set(values))}, "
            f"unlisted {sorted(set(values) - names)}"
        )
    for p in problems:
        print(p, file=sys.stderr)
    return {
        "correct": not problems and all(op["failed"] == 0 for op in ops),
        "attempted": sum(op["attempted"] for op in ops),
        "failed": sum(op["failed"] for op in ops),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="32^2 grid with 4x4 subdomains; skips the expected.json check")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "msras" / "__init__.py").is_file():
        print(f"no msras sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        with open(ROOT / "BENCHMARK.json") as fh:
            spec = json.load(fh)
        untraced, traced = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                                   args.smoke)
        result = summarize(args.workload, args.seed, bool(args.trace), untraced, traced, spec,
                           args.smoke)
    except (HarnessError, OSError) as exc:
        print(exc, file=sys.stderr)
        return 1
    n_ops = len(untraced) + len(traced)
    print(f"{args.workload} seed {args.seed}: medians over {n_ops} operation(s)")
    for key, m in result["metrics"].items():
        print(f"  {key:34s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
