#!/usr/bin/env python3
"""Build the rekey-interval benchmark from source and run one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload interval_e2e --seed 1 --seconds 35 --trace 0

The harness (a Rust package of its own under perfbench/) is built in
release mode into $CARGO_TARGET_DIR (default .bench_build) and run with
taskpool at its shipped default worker count. Everything it prints goes
to standard output; the last line is the result as one JSON object.
With --trace 1 the traced replay's spans are also written, as Chrome
trace-event JSON, to $CARGO_TARGET_DIR/perfbench-traces/<workload>.json.
"""

import argparse
import os
import pathlib
import re
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("interval_e2e", "server_batch", "figure_sim")
# A run must end within 180 s; the harness itself measures --seconds plus
# set-up, so this only stops a wedged run.
RUN_TIMEOUT_S = 170


def rustflags():
    """The rustflags the build picks up, and where they come from."""
    if os.environ.get("RUSTFLAGS"):
        return "RUSTFLAGS=" + os.environ["RUSTFLAGS"]
    config = ROOT / ".cargo" / "config.toml"
    if config.is_file():
        m = re.search(r"^rustflags\s*=\s*(.+)$", config.read_text(), re.M)
        if m:
            return ".cargo/config.toml rustflags = " + m.group(1).strip()
    return "none (target-cpu is the toolchain default)"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", default=0, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    env = dict(os.environ)
    # taskpool must run at its shipped default worker count.
    env.pop("REKEY_THREADS", None)
    target = pathlib.Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
        env["CARGO_TARGET_DIR"] = str(target)

    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    print(f"# env nproc (affinity) {len(os.sched_getaffinity(0))}")
    print(f"# env rustflags {rustflags()}")
    sys.stdout.flush()
    cmd = [str(target / "release" / "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        # One file per workload, overwritten by the next traced run, so
        # repeated runs do not pile up traces.
        cmd += ["--trace-out",
                str(target / "perfbench-traces" / f"{args.workload}.json")]
    try:
        run = subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
