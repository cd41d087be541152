#!/usr/bin/env python3
"""Self-test of the hostbench benchmark, at toy scale.

    python3 hostbench/selftest.py

Run it from the repository root. For every workload it checks that:
  1. the end-to-end run (--trace 0) prints exactly the end_to_end metrics of
     BENCHMARK.json, each with its unit, and the traced run (--trace 1)
     exactly the per_layer metrics;
  2. a corrupted reference digest is caught: the run reports a failed
     operation, success_rate below 1 and correct: false;
  3. the traced run's replay-fidelity check holds: the replayed trees match
     the operation's, and scenario.residual_s, the median over (serial
     operation, replay) pairs of each pair's residual, is >= 0 up to the
     serial runs' interquartile distance (see README.md).
Exits 0 when every check passes.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
RUN = ["python3", str(ROOT / "hostbench" / "run.py")]
REFERENCE = ROOT / "hostbench" / "reference.txt"
WORKDIR = ROOT / ".bench_build" / "selftest"


def run(workload, trace, extra=(), seed=1):
    cmd = RUN + ["--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--scale", "toy", *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def check_metrics(result, expected):
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    wanted = {m["name"]: m["unit"] for m in expected}
    problems = [f"missing {n}" for n in wanted if n not in printed]
    problems += [f"unexpected {n}" for n in printed if n not in wanted]
    problems += [f"{n}: unit {printed[n]} != {u}" for n, u in wanted.items()
                 if n in printed and printed[n] != u]
    return problems


def corrupted_reference(workload):
    """Copy of the reference with the toy default-seed digest(s) flipped."""
    WORKDIR.mkdir(parents=True, exist_ok=True)
    out = []
    flipped = 0
    for line in REFERENCE.read_text().splitlines():
        fields = line.split()
        if (len(fields) == 5 and fields[0] == "toy" and fields[1] == workload
                and fields[3] == "1"):
            digest = fields[4]
            fields[4] = ("0" if digest[0] != "0" else "1") + digest[1:]
            line = " ".join(fields)
            flipped += 1
        out.append(line)
    if flipped == 0:
        raise RuntimeError(f"no toy reference line for {workload}")
    path = WORKDIR / f"reference-{workload}.txt"
    path.write_text("\n".join(out) + "\n")
    return path


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        result, _ = run(workload, 0)
        if not result["correct"] or result["failed"] != 0:
            failures.append(f"{workload}: clean run not correct: {result}")
        failures += [f"{workload} e2e: {p}"
                     for p in check_metrics(result, spec["end_to_end"])]

        # The warm-up operation at the default seed meets the corrupted
        # digest; the measured ones run another seed and still succeed.
        bad, _ = run(workload, 0, ["--reference",
                                   str(corrupted_reference(workload))], seed=2)
        rate = bad["metrics"].get("success_rate", {}).get("value", 1.0)
        if bad["correct"] or bad["failed"] == 0 or rate >= 1.0:
            failures.append(f"{workload}: corrupted reference not caught: "
                            f"failed={bad['failed']} success_rate={rate}")

        traced, lines = run(workload, 1)
        if not traced["correct"] or any("fidelity failed" in l for l in lines):
            failures.append(f"{workload}: replay fidelity: {lines[-1:]}")
        failures += [f"{workload} per-layer: {p}"
                     for p in check_metrics(traced, spec["per_layer"])]
        print(f"{workload}: checked", flush=True)

    for failure in failures:
        print("FAIL", failure)
    print("selftest:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
