#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S \
        --trace 0|1

Run from the root of a checkout.  The first run configures and builds
the simulator and the benchmark binary with CMake under .bench_build/
(or $CARGO_TARGET_DIR when set); later runs only re-check the build.
Every file a run writes stays under that directory.  Build output and
progress go to stderr; the last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.  A traced run (1)
also writes a Chrome trace per workload under
<build dir>/perfbench-traces/ and checks that it parses and holds a
span for every measured layer.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("table4-sweep", "table4-pooled")
# One span name per layer the traced run measures.
LAYER_SPANS = (
    "bench.kernels", "bench.cpu", "bench.session", "bench.cache",
    "bench.disk_cache", "bench.job_io", "bench.wire", "bench.server",
    "bench.client", "bench.pool", "bench.analytical",
)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_threads():
    return max(1, min(3, (os.cpu_count() or 2) - 1))


def build(build_root):
    """Configure once, then (re)build the benchmark binary."""
    build_dir = os.path.join(build_root, "perfbench")
    commands = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        commands.append(["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"])
    commands.append(["cmake", "--build", build_dir, "--target",
                     "vegeta_perfbench", "-j", str(build_threads())])
    for command in commands:
        done = subprocess.run(command, stdout=sys.stderr,
                              stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            return None
    return os.path.join(build_dir, "vegeta_perfbench")


def check_trace(path):
    """Parse the Chrome trace; return the layer spans it lacks."""
    try:
        with open(path, encoding="utf-8") as f:
            events = json.load(f)["traceEvents"]
        names = {e["name"] for e in events}
    except (OSError, ValueError, KeyError, TypeError) as err:
        log(f"unreadable trace {path}: {err}")
        return list(LAYER_SPANS)
    return [s for s in LAYER_SPANS if s not in names]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int,
                        choices=(0, 1))
    args = parser.parse_args()

    build_root = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_root)
    if binary is None:
        log("build failed")
        return 1

    run_dir = os.path.join(build_root, "perfbench-run",
                           f"{args.workload}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    trace_path = os.path.join(build_root, "perfbench-traces",
                              f"{args.workload}.trace.json")
    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    if os.path.exists(trace_path):
        os.remove(trace_path)
    env = dict(os.environ, TMPDIR=run_dir)
    command = [binary, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--reference", os.path.join(HERE, "reference_digest.txt"),
               "--trace-out", trace_path]
    # The binary's own process group, so a timeout stops every worker
    # process it started too.
    proc = subprocess.Popen(command, cwd=run_dir, env=env,
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"timed out after {RUN_TIMEOUT_S} s")
        return 1
    finally:
        # Nothing the run started may outlive it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        shutil.rmtree(run_dir, ignore_errors=True)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"benchmark exited with code {proc.returncode}")
        return 1
    result = json.loads(lines[-1])

    if args.trace == 1:
        missing = check_trace(trace_path)
        result["attempted"] += 1
        if missing:
            log(f"trace lacks layer spans: {', '.join(missing)}")
            result["failed"] += 1
            result["correct"] = False
        else:
            log(f"trace with every layer span: {trace_path}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
