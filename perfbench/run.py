#!/usr/bin/env python3
"""Build and run the end-to-end serving benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The harness is the cargo package next to this file, a workspace of its
own that depends on the repository's crates by path. This script builds
it in release mode into $CARGO_TARGET_DIR (default: .bench_build under
the current directory), runs it, and relays its output: the last line on
stdout is the JSON result. Build output goes to stderr. With --trace 1 the
span log is written to <target dir>/perfbench-spans/<workload>-seed<n>.jsonl.

Workloads: frt_scale, churn_failover (see BENCHMARK.json).
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run_group(cmd, timeout, **kwargs):
    """Run cmd in its own process group; on timeout kill the whole group
    (cargo's rustc children included) and wait for it. Returns the exit
    code, or None on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    except BaseException:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        if isinstance(sys.exc_info()[1], subprocess.TimeoutExpired):
            return None
        raise


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    a = p.parse_args()

    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    env["CARGO_NET_OFFLINE"] = "true"
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    code = run_group(build, BUILD_TIMEOUT_S, env=env, stdout=sys.stderr)
    if code != 0:
        print(f"error: benchmark build failed (exit {code})", file=sys.stderr)
        return 1

    exe = os.path.join(target, "release", "sor-perfbench")
    cmd = [
        exe,
        "--workload", a.workload,
        "--seed", str(a.seed),
        "--seconds", str(a.seconds),
        "--trace", a.trace,
    ]
    if a.trace == "1":
        spans = os.path.join(target, "perfbench-spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--trace-out", os.path.join(spans, f"{a.workload}-seed{a.seed}.jsonl")]
    sys.stdout.flush()
    code = run_group(cmd, RUN_TIMEOUT_S)
    if code != 0:
        print(f"error: benchmark run failed (exit {code})", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
