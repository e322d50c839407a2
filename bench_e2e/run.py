#!/usr/bin/env python3
"""End-to-end benchmark: bytes (or circuits) in, counts out.

Usage, from the root of a checkout:

    python3 bench_e2e/run.py --workload frontdoor_1q --seed 1 \\
        --seconds 10 --trace 0

Builds bench_e2e/ (and the qpulse libraries under src/) into
.bench_build/e2e, runs the package's self-test, then one workload:

  --trace 0  the timed run (tracing off, QPULSE_THREADS=1) prints every
             end-to-end metric, then a rerun of the digest prefix on a
             pool of POOL_THREADS must reproduce the same counts digest;
  --trace 1  the traced run (a pool of POOL_THREADS, shot loops capped
             at one thread except in its pool leg) prints the per-layer
             ledger and metrics.

The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics, holding exactly the metrics that
BENCHMARK.json declares for the mode. A failed output check makes the
exit code 1; a missing source tree or a failed build exits 2 without a
result. See bench_e2e/NOTES.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("frontdoor_1q", "circuits_2q", "fleet_faulted")
# Timed runs use one thread. On a 4-vCPU host the shot loop's wake-ups
# spread fleet_faulted's jobs_per_s by 36 % between runs at 4 threads
# (8 % at 1), and every workload is faster on one thread; the traced
# run's threadpool.pool_speedup reports that inversion.
TIMED_THREADS = 1
POOL_THREADS = max(2, min(4, os.cpu_count() or 1))
# Wall-clock caps per child process, inside the 180 s a run may take.
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 150
CHECK_TIMEOUT_S = 60


def log(message):
    print(message, file=sys.stderr, flush=True)


def fail(message, code=2):
    log("bench_e2e: " + message)
    sys.exit(code)


def build_dir():
    # CARGO_TARGET_DIR, when set, names the build directory (relative
    # to the checkout root); otherwise it is .bench_build.
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "e2e")


def build(out):
    """Configure once, then build incrementally; output to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no qpulse source tree at %s/src" % ROOT)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", out, "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def pinned_env(threads):
    """Every QPULSE_* knob cleared (store, fault plan, virtual time,
    batch width, trace, SIMD override...), then the thread count fixed."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("QPULSE_")}
    env["QPULSE_THREADS"] = str(threads)
    return env


def run_bench(out, args, env, timeout):
    """Run e2e_bench; echo its report to stderr, return its JSON line."""
    cmd = [os.path.join(out, "e2e_bench")] + args
    done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True, timeout=timeout)
    lines = done.stdout.strip().splitlines()
    for line in lines[:-1]:
        log(line)
    if not lines or not lines[-1].startswith("{"):
        fail("e2e_bench %s produced no result (exit %d)"
             % (" ".join(args), done.returncode))
    return json.loads(lines[-1])


def git_describe():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "describe", "--always", "--dirty"],
                              cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def declared_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()

    names = declared_metrics(opts.trace == 1)
    out = build_dir()
    build(out)
    selftest = subprocess.run([os.path.join(out, "e2e_selftest")],
                              env=pinned_env(1), stdout=sys.stderr,
                              stderr=sys.stderr, timeout=CHECK_TIMEOUT_S)
    if selftest.returncode != 0:
        fail("e2e_selftest failed")

    common = ["--workload", opts.workload, "--seed", str(opts.seed),
              "--seconds", repr(opts.seconds)]
    checks = []
    if opts.trace:
        threads = POOL_THREADS
        result = run_bench(out, common + ["--mode", "trace"],
                           pinned_env(threads), RUN_TIMEOUT_S)
    else:
        threads = TIMED_THREADS
        result = run_bench(out, common + ["--mode", "timed"],
                           pinned_env(threads), RUN_TIMEOUT_S)
        # Counts are thread-invariant by contract: the digest prefix
        # rerun on a pool must reproduce them bit for bit.
        pooled = run_bench(out, common + ["--mode", "check"],
                           pinned_env(POOL_THREADS), CHECK_TIMEOUT_S)
        checks = pooled["checks_failed"]
        for key in ("input_digest", "counts_digest"):
            if pooled[key] != result[key]:
                checks.append("%s differs at QPULSE_THREADS=%d (%s) and %d "
                              "(%s)" % (key, threads, result[key],
                                        POOL_THREADS, pooled[key]))

    checks = result["checks_failed"] + checks
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        fail("e2e_bench did not report " + ", ".join(missing))
    correct = result["correct"] and not checks
    header = {
        "workload": opts.workload, "seed": opts.seed,
        "seconds": opts.seconds, "trace": opts.trace,
        "nproc": os.cpu_count(), "threads": threads,
        "pool_threads": POOL_THREADS,
        "simd": result["simd"], "git_describe": git_describe(),
        "input_digest": result["input_digest"],
        "counts_digest": result["counts_digest"],
    }
    print("host: " + json.dumps(header))
    # Every metric e2e_bench reported, counts_tvd_max included; the
    # final line keeps the declared ones.
    for name, m in result["metrics"].items():
        print("%-38s %18.6f %s" % (name, m["value"], m["unit"]))
    for check in checks:
        print("CHECK FAILED: " + check)
    line = {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: result["metrics"][n] for n in names},
    }
    with open(os.path.join(out, "BENCH_e2e_%s_%s.json"
                           % (opts.workload, "trace" if opts.trace
                              else "timed")), "w") as f:
        json.dump(dict(header, checks_failed=checks, **line), f, indent=2)
    print(json.dumps(line), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except subprocess.TimeoutExpired as e:
        fail("timed out: %s" % " ".join(map(str, e.cmd)))
