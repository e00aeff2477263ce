"""Smoke test of the benchmark harness: every workload at 32^2, untraced and
traced, must pass its correctness checks and print every metric that
BENCHMARK.json names, with its unit. Takes well under a minute.

    python3 perfbench/smoke.py
"""

import json
import math
import subprocess
import sys

from run import HERE, ROOT
import workloads

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_spec(spec):
    """Shape checks on BENCHMARK.json that the harness relies on."""
    problems = []
    names = [m["name"] for kind in ("end_to_end", "per_layer") for m in spec[kind]]
    if len(names) != len(set(names)):
        problems.append("BENCHMARK.json: metric names repeat")
    unknown = {w["name"] for w in spec["workloads"]} - set(workloads.WORKLOADS)
    if unknown:
        problems.append(f"BENCHMARK.json: workloads {sorted(unknown)} not in workloads.py")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    if bounds.get("setup_s") != max(bounds.values(), default=None):
        problems.append("BENCHMARK.json: setup_s must carry the largest bound")
    return problems


def check_run(name, trace, spec):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seconds", "1",
           "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    sys.stdout.write(proc.stdout)
    label = f"{name} trace={trace}"
    if proc.returncode != 0:
        return [f"{label}: exit code {proc.returncode}\n{proc.stderr}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{label}: correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}\n{proc.stderr}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != units:
        problems.append(f"{label}: metric units {got} differ from BENCHMARK.json {units}")
    for key, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            problems.append(f"{label}: {key} = {m['value']!r} is not a finite number")
    return problems


def main():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    problems = check_spec(spec)
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            problems += check_run(name, trace, spec)
    for p in problems:
        print("FAIL", p, file=sys.stderr)
    print("smoke: FAIL" if problems else "smoke: OK")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
