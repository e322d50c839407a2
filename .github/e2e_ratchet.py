#!/usr/bin/env python3
"""Work-counter ratchet and input and counts pins over the traced
end-to-end legs.

Shot loops run on one thread, so the per-job work counters of bench_e2e's
traced leg (`run.py --trace 1`) are exact functions of the code and the
seed. .github/e2e-work-counters.json holds them for every workload at
seed 7; git history of that file is the work trajectory. It also pins
each workload's counts_digest, the digest of the counts a fixed prefix
of its jobs returned, so a change that moves any job's counts fails,
and its input_digest, the digest of the generated input the counters
were measured on, so an input change cannot pass as a work change.

The 1q workloads' envelopes carry calibrated pulse samples as text, so
a change that moves the calibration moves their input_digest and their
ingest.bytes_per_job (the input's size) with it. Such a change re-pins
with --update, and its CHANGES.md entry gives old -> new for both and
why. Every other counter must stay no worse and every counts_digest
unchanged; the file's diff shows which values a change re-pinned.

Usage, from the root of a checkout, after saving each workload's
traced output as e2e-<workload>-trace.txt:

    python3 bench_e2e/run.py --workload W --seed 7 --seconds 2 \\
        --trace 1 > e2e-W-trace.txt
    python3 .github/e2e_ratchet.py            # check
    python3 .github/e2e_ratchet.py --update   # rewrite the file

A counter worse than the file by more than 1e-9 relative, in the
direction BENCHMARK.json's per_layer entry gives, fails the check, and
so does an input_digest or counts_digest other than the file's. An
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
    """SIMD tier, input and counts digests and counters from a saved
    `run.py --trace 1` output."""
    path = os.path.join(ROOT, "e2e-%s-trace.txt" % workload)
    with open(path) as f:
        lines = f.read().splitlines()
    host = next(json.loads(line[len("host: "):]) for line in lines
                if line.startswith("host: "))
    if host["seed"] != SEED or host["trace"] != 1:
        sys.exit("%s: expected the traced leg at seed %d" % (path, SEED))
    metrics = json.loads(lines[-1])["metrics"]
    leg = {"simd": host["simd"], "input_digest": host["input_digest"],
           "counts_digest": host["counts_digest"]}
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
    changed, worse, improved = [], [], []
    for workload, leg in legs.items():
        if leg["simd"] != pinned[workload]["simd"]:
            print("note: %s ran on SIMD tier %s, the file holds %s"
                  % (workload, leg["simd"], pinned[workload]["simd"]))
        for digest in ("input_digest", "counts_digest"):
            if leg[digest] != pinned[workload].get(digest):
                changed.append("%s %s: %s -> %s"
                               % (workload, digest,
                                  pinned[workload].get(digest), leg[digest]))
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
    for row in changed:
        print("CHANGED " + row)
    for row in worse:
        print("WORSE " + row)
    if changed or worse:
        return 1
    print("input and counts digests equal and work counters no worse "
          "than %s" % os.path.relpath(COUNTERS_FILE, ROOT))
    return 0


if __name__ == "__main__":
    sys.exit(main())
