#!/usr/bin/env python3
"""Work-counter ratchet over the traced end-to-end legs.

The traced leg of bench_e2e (`run.py --trace 1`) caps its shot loops at
one thread, so its per-job work counters are exact functions of the
code and the seed. .github/e2e-work-counters.json holds them for every
workload at seed 7; git history of that file is the work trajectory.

Usage, from the root of a checkout, after saving each workload's
traced output as e2e-<workload>-trace.txt:

    python3 bench_e2e/run.py --workload W --seed 7 --seconds 2 \\
        --trace 1 > e2e-W-trace.txt
    python3 .github/e2e_ratchet.py            # check
    python3 .github/e2e_ratchet.py --update   # rewrite the file

A counter worse than the file by more than 1e-9 relative, in the
direction BENCHMARK.json's per_layer entry gives, fails the check. An
improved counter is printed with a reminder to update the file.
"""

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COUNTERS_FILE = os.path.join(ROOT, ".github", "e2e-work-counters.json")
WORKLOADS = ("frontdoor_1q", "circuits_2q", "fleet_faulted")
SEED = 7
# pulsesim.cache_hit_ratio is left out: removing redundant evolutions
# removes cache hits with them, so a better program can lower it.
COUNTERS = (
    "sim.evolutions_per_job",
    "sim.eig_calls_per_job",
    "linalg.madds_per_job",
    "executor.attempts_per_job",
    "executor.recalibrations_per_job",
    "ingest.bytes_per_job",
    "compile.cache_hit_ratio",
)
RELATIVE_TOLERANCE = 1e-9


def traced_leg(workload):
    """SIMD tier and counters from a saved `run.py --trace 1` output."""
    path = os.path.join(ROOT, "e2e-%s-trace.txt" % workload)
    with open(path) as f:
        lines = f.read().splitlines()
    host = next(json.loads(line[len("host: "):]) for line in lines
                if line.startswith("host: "))
    if host["seed"] != SEED or host["trace"] != 1:
        sys.exit("%s: expected the traced leg at seed %d" % (path, SEED))
    metrics = json.loads(lines[-1])["metrics"]
    leg = {"simd": host["simd"]}
    leg.update({name: metrics[name]["value"] for name in COUNTERS})
    return leg


def directions():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["better"] for m in spec["per_layer"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true",
                        help="rewrite the counters file from the legs")
    opts = parser.parse_args()

    legs = {w: traced_leg(w) for w in WORKLOADS}
    if opts.update:
        with open(COUNTERS_FILE, "w") as f:
            json.dump({"seed": SEED, "workloads": legs}, f, indent=2,
                      sort_keys=True)
            f.write("\n")
        print("wrote " + os.path.relpath(COUNTERS_FILE, ROOT))
        return 0

    with open(COUNTERS_FILE) as f:
        pinned = json.load(f)["workloads"]
    better = directions()
    worse, improved = [], []
    for workload, leg in legs.items():
        if leg["simd"] != pinned[workload]["simd"]:
            print("note: %s ran on SIMD tier %s, the file holds %s"
                  % (workload, leg["simd"], pinned[workload]["simd"]))
        for name in COUNTERS:
            old, new = pinned[workload][name], leg[name]
            # Positive gain means the counter got better.
            gain = old - new if better[name] == "lower" else new - old
            row = "%s %s: %r -> %r" % (workload, name, old, new)
            if gain < -RELATIVE_TOLERANCE * abs(old):
                worse.append(row)
            elif gain > RELATIVE_TOLERANCE * abs(old):
                improved.append(row)
    for row in improved:
        print("improved " + row)
    if improved:
        print("update the file: python3 .github/e2e_ratchet.py --update")
    for row in worse:
        print("WORSE " + row)
    if worse:
        return 1
    print("work counters no worse than %s"
          % os.path.relpath(COUNTERS_FILE, ROOT))
    return 0


if __name__ == "__main__":
    sys.exit(main())
