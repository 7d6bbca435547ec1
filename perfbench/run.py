#!/usr/bin/env python3
"""The repository benchmark: one command per workload run.

    python3 perfbench/run.py --workload covtype-ingest --seed 1 \\
        --seconds 30 --trace 0

Run from the root of a checkout. Builds the library and the perfbench
binary from source into $CARGO_TARGET_DIR (default .bench_build), runs one
workload, checks its outputs, and prints as the last line of stdout one JSON
object: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics of an untraced run; --trace 1 reports the per-layer
metrics of a traced run. Exits non-zero when a correctness check fails.
Workloads, metrics and exclusions are described in perfbench/README.md.
"""

import argparse
import ctypes
import json
import os
import statistics
import subprocess
import sys

import stats

WORKLOADS = ("covtype-ingest", "tenant-fleet")
RUN_TIMEOUT_S = 170
ADDR_NO_RANDOMIZE = 0x0040000


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir(root):
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(root, target, "perfbench")


def build(root):
    """Configures (once) and builds the binary; returns its path."""
    out = build_dir(root)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                      out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target",
                  "perfbench"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              check=False)
        if done.returncode != 0:
            raise RuntimeError(f"build step failed: {' '.join(step)}")
    return os.path.join(out, "perfbench")


def disable_aslr():
    """Runs in the child before exec: address-space randomisation makes
    some timings bimodal from run to run. Best effort."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        current = libc.personality(0xFFFFFFFF)
        if current != -1:
            libc.personality(current | ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass


def run_binary(binary, root, workload, seed, seconds, trace):
    """Runs one workload; returns (raw result dict, spans or None)."""
    runs = os.path.join(build_dir(root), "runs")
    os.makedirs(runs, exist_ok=True)
    stem = os.path.join(runs, f"{workload}-{seed}-{trace}")
    out, spans = stem + ".json", stem + ".spans.tsv"
    for path in (out, spans):
        if os.path.exists(path):
            os.remove(path)
    env = dict(os.environ)
    # Always the simulators: a prepared real CSV would change the inputs.
    env["FKC_DATA_DIR"] = os.path.join(runs, "no-real-data")
    env.pop("FKC_REQUIRE_REAL_DATA", None)
    command = [binary, f"--workload={workload}", f"--seed={seed}",
               f"--seconds={seconds}", f"--trace={trace}", f"--out={out}"]
    if trace:
        command.append(f"--spans={spans}")
    done = subprocess.run(command, cwd=root, env=env, stdout=sys.stderr,
                          stderr=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S, preexec_fn=disable_aslr,
                          check=False)
    for line in done.stderr.splitlines():
        if "falling back to the statistical simulator" not in line:
            log(line)
    if done.returncode != 0 or not os.path.exists(out):
        raise RuntimeError(f"perfbench exited with {done.returncode}")
    with open(out, encoding="utf-8") as f:
        raw = json.load(f)
    return raw, stats.read_spans(spans) if trace else None


def measure(root, workload, seed, seconds, trace):
    """Builds and runs one workload; returns (result line dict, raw)."""
    binary = build(root)
    raw, spans = run_binary(binary, root, workload, seed, seconds, trace)
    metrics = stats.per_layer(raw, spans) if trace else stats.end_to_end(raw)
    checks = raw["checks"]
    for message in checks["messages"]:
        log(f"check failed: {message}")
    result = {
        "correct": checks["failed"] == 0,
        "attempted": checks["attempted"],
        "failed": checks["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, raw


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    root = os.getcwd()
    if not all(os.path.exists(os.path.join(root, p))
               for p in ("CMakeLists.txt", "src", "bench", "perfbench")):
        log("run from the root of a checkout of the repository: "
            "the library sources are missing")
        return 2
    try:
        result, raw = measure(root, args.workload, args.seed, args.seconds,
                              args.trace)
    except (RuntimeError, OSError, subprocess.TimeoutExpired,
            stats.SampleError) as error:
        log(f"perfbench failed: {error}")
        return 1
    log(f"calibration loop ms: {raw['calib_ms']}")
    log(f"host factor: {stats.host_factor(raw['untraced']):.4f}")
    measured = {} if args.trace else stats.wall_clock(raw["untraced"])
    if not args.trace:
        measured["setup_s"] = (statistics.median(raw["setup_s"]), "s")
    for name, metric in result["metrics"].items():
        line = f"{name:42s} {metric['value']:.6g} {metric['unit']}"
        if name in measured:
            line += f"  (wall clock: {measured[name][0]:.6g})"
        log(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
