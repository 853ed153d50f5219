#!/usr/bin/env python3
"""Builds and runs the DR-STRaNGe benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of the repository. The benchmark is the Rust package in
this directory; it is built with `cargo build --release` into
`$CARGO_TARGET_DIR` (default `.bench_build`). Each run starts two
processes of it: `check`, which runs the output checks at reduced scale,
and then `measure` (`--trace 0`, end-to-end metrics) or `trace`
(`--trace 1`, per-layer metrics and tracing overhead), each in a process
of its own so that peak memory covers the measured phase alone.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. It holds every end-to-end
metric of `BENCHMARK.json` (`--trace 0`) or every per-layer one
(`--trace 1`). A per-layer metric of a layer the workload does not run
(see `metrics.json`) reads 0. A failed check exits with
code 1 after printing that line with `"correct": false`; a failed build
exits with code 1 and prints nothing.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("pair_idle", "mix_busy", "svc_saturated", "fleet_flash")
# A run must end within 180 s; the first one may also build for 900 s.
RUN_BUDGET_S = 170.0
BUILD_BUDGET_S = 850.0


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_BUDGET_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return None
    if done.returncode != 0:
        log("build failed")
        return None
    return os.path.join(env["CARGO_TARGET_DIR"], "release", "strange-perfbench")


def phase(binary, name, workload, seed, seconds, deadline):
    """Runs one phase; returns its parsed result, or None if it failed."""
    cmd = [binary, name, workload, str(seed), str(seconds)]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log(f"{name} phase timed out")
        return None
    if done.returncode != 0:
        log(f"{name} phase failed (exit {done.returncode}):\n{done.stderr[-4000:]}")
        return None
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    with open(os.path.join(HERE, "metrics.json")) as f:
        declared = json.load(f)
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench[kind]}
    if args.trace:
        expected = {k for k, v in declared["per_layer"].items() if args.workload in v["on"]}
    else:
        expected = set(declared["end_to_end"])

    binary = build()
    if binary is None:
        sys.exit(1)

    deadline = time.monotonic() + RUN_BUDGET_S
    check = phase(binary, "check", args.workload, args.seed, args.seconds, deadline)
    measured = None
    if check is not None:
        measured = phase(binary, "trace" if args.trace else "measure",
                         args.workload, args.seed, args.seconds, deadline)
    correct = measured is not None
    metrics = {}
    attempted = 1
    if correct:
        attempted = max(1, measured["attempted"])
        got = set(measured["metrics"])
        if got != expected or not got <= set(units):
            log(f"metrics mismatch: missing {sorted(expected - got)}, "
                f"unexpected {sorted(got - expected)}, undeclared {sorted(got - set(units))}")
            correct = False
        for name in sorted(units):
            metrics[name] = {"value": measured["metrics"].get(name, 0.0), "unit": units[name]}
        for label, digest in sorted({**check["digests"], **measured["digests"]}.items()):
            print(f"digest {label} {digest}")
        for name, m in metrics.items():
            print(f"{name:32} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": 0 if correct else 1, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
