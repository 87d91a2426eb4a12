#!/usr/bin/env python3
"""The benchmark's own tests: exact counts repeat, a second seed changes the inputs.

    python3 perfbench/selftest.py [--workload NAME]

For each workload, in a short configuration:
  * the result line follows the contract: keys, metric names and units as
    BENCHMARK.json lists them;
  * two measured runs with one seed give the same ok_share,
    patch_cost_mean and patch_gates_mean;
  * two traced runs with one seed give the same value for every per-layer
    metric whose unit ends in ".exact" (SAT counts, QBF iterations,
    support calls, SAT_prune iterations, ladder retries, the simulation
    bank's answered share, the problem-cache hit share);
  * a run with a second seed reports a different inputs fingerprint.
Exits 1 on the first failed check. Run from the repository root; takes a
few minutes.
"""

import argparse
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SECONDS = 2
SEED, OTHER_SEED = 7, 8


def run(bench, workload, seed, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0:
        raise AssertionError("%s exited %d:\n%s" % (" ".join(cmd), proc.returncode, proc.stdout))
    result = json.loads(lines[-1])
    fingerprint = next(m.group(1) for m in map(re.compile(r"inputs fingerprint (\w+)").match, lines)
                       if m)
    return result, fingerprint


def check_contract(result, listed):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert [m for m in result["metrics"]] == [m["name"] for m in listed], list(result["metrics"])
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"], m["name"]


def test_workload(bench, workload):
    exact_e2e = ("ok_share", "patch_cost_mean", "patch_gates_mean")
    exact_layer = [m["name"] for m in bench["per_layer"] if m["unit"].endswith(".exact")]

    first, fp1 = run(bench, workload, SEED, 0)
    second, fp2 = run(bench, workload, SEED, 0)
    check_contract(first, bench["end_to_end"])
    assert fp1 == fp2, "one seed gave two inputs fingerprints"
    for name in exact_e2e:
        a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
        assert a == b, "%s: %r then %r" % (name, a, b)

    traced_a, _ = run(bench, workload, SEED, 1)
    traced_b, _ = run(bench, workload, SEED, 1)
    check_contract(traced_a, bench["per_layer"])
    for name in exact_layer:
        a, b = traced_a["metrics"][name]["value"], traced_b["metrics"][name]["value"]
        assert a == b, "%s: %r then %r" % (name, a, b)
    assert traced_a["metrics"]["eco.ladder_retries"]["value"] == 0

    _, fp_other = run(bench, workload, OTHER_SEED, 0)
    assert fp_other != fp1, "seeds %d and %d gave the same inputs" % (SEED, OTHER_SEED)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    # table1_sweep is runnable and guarded like the gated workloads.
    names = [w["name"] for w in bench["workloads"]] + ["table1_sweep"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names)
    args = parser.parse_args()
    for workload in [args.workload] if args.workload else names:
        try:
            test_workload(bench, workload)
        except AssertionError as e:
            print("FAIL %s: %s" % (workload, e))
            return 1
        print("ok   %s" % workload, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
