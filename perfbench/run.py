#!/usr/bin/env python3
"""Builds flbench from the repository sources and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload cln-hard --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all      # every workload, as a table

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
and is reused by later runs. The program's stdout is passed through; its last
line is the result JSON. Every result carries an environment record (nproc,
SIMD level, compiler, build type); when it differs from the previous run of
the same workload, a warning says the two results must not be compared.
Exit code: the program's (0 only when every op passed its correctness gate),
or 1 when the build fails or the run overruns its time limit.

Seeds: 1 is the default; 1009 is held out for confirming a claimed gain on
inputs the change was not tuned on.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("cln-hard", "cln-share", "synth-large", "served-mix")
DEFAULT_SEED = 1
# A hung run is killed; normal runs end within a minute.
RUN_LIMIT_S = 170
ENV_KEYS = ("nproc", "simd_level", "compiler", "build_type")

HERE = os.path.dirname(os.path.abspath(__file__))


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures once, then builds flbench; returns its path or None."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return None
    jobs = str(os.cpu_count() or 1)
    compile_ = ["cmake", "--build", build_dir, "--target", "flbench",
                "-j", jobs]
    if subprocess.run(compile_, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(build_dir, "flbench")


def check_env(build_root, workload, line):
    """Flags a result whose environment record differs from the last one."""
    try:
        env = json.loads(line)["env"]
    except (ValueError, KeyError, TypeError):
        return
    record = {k: env.get(k) for k in ENV_KEYS}
    path = os.path.join(build_root, f"env-{workload}.json")
    if os.path.exists(path):
        with open(path) as f:
            previous = json.load(f)
        if previous != record:
            log(f"WARNING: environment {record} differs from the previous "
                f"{workload} result's {previous}; do not compare them")
    with open(path, "w") as f:
        json.dump(record, f)


def run_workload(exe, build_root, workload, args):
    """Runs one workload; returns (exit code, its stdout)."""
    # Relative, so the daemon's AF_UNIX socket path stays short.
    work_dir = os.path.relpath(
        os.path.join(build_root, f"work-{workload}-{os.getpid()}"))
    cmd = [exe, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: run exceeded {RUN_LIMIT_S} s")
        return 1, ""
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for line in proc.stdout.splitlines():
        if line.startswith('{"env"'):
            check_env(build_root, workload, line)
    return proc.returncode, proc.stdout


def print_table(results):
    """Every metric by name and unit, one column per workload."""
    parsed = {}
    for workload, out in results.items():
        try:
            parsed[workload] = json.loads(out.splitlines()[-1])
        except (IndexError, ValueError):
            parsed[workload] = None
    names = []
    for result in parsed.values():
        for name, metric in (result or {}).get("metrics", {}).items():
            if (name, metric["unit"]) not in names:
                names.append((name, metric["unit"]))
    header = f"{'metric':28s}{'unit':>14s}" + "".join(
        f"{w:>14s}" for w in parsed)
    print(header)
    for key in ("attempted", "failed"):
        print(f"{key:28s}{'count':>14s}" + "".join(
            f"{(r or {}).get(key, '-'):>14}" for r in parsed.values()))
    print(f"{'fail_ratio':28s}{'ratio':>14s}" + "".join(
        f"{r['failed'] / r['attempted']:>14.6g}" if r else f"{'-':>14s}"
        for r in parsed.values()))
    for name, unit in names:
        cells = []
        for result in parsed.values():
            metric = (result or {}).get("metrics", {}).get(name)
            cells.append(f"{metric['value']:>14.6g}" if metric else f"{'-':>14s}")
        print(f"{name:28s}{unit:>14s}" + "".join(cells))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    exe = build(os.path.join(build_root, "perfbench"))
    if exe is None:
        log("build failed")
        return 1

    if args.workload != "all":
        code, out = run_workload(exe, build_root, args.workload, args)
        sys.stdout.write(out)
        sys.stdout.flush()
        return code

    codes, results = [], {}
    for workload in WORKLOADS:
        code, results[workload] = run_workload(exe, build_root, workload, args)
        codes.append(code)
    print_table(results)
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
