#!/usr/bin/env python3
"""Runs one tmsperf benchmark workload from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (which builds ../src unchanged) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, on first use;
later runs only check the build is current. Then runs the workload and
prints its metric table followed, as the last line of standard output, by
one JSON object with the keys correct, attempted, failed and metrics.
With --trace 0 the metrics are exactly BENCHMARK.json's end_to_end list;
with --trace 1 they are its per_layer list, and per-layer metrics of
layers the workload does not exercise read 0.

Exit status: 0 when the run finished and every output check passed,
1 otherwise (no result line is printed when the build or the run fails).
"""
import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def die(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return (base if base.is_absolute() else ROOT / base) / "perfbench"


def build(bdir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"{ROOT / 'src'} is missing; run from a full checkout")
    cache = bdir / "CMakeCache.txt"
    if cache.exists() and f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in cache.read_text():
        shutil.rmtree(bdir)  # a build tree of another checkout
    steps = []
    if not cache.exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "--target", "tmsperf", "-j", "4"])
    for cmd in steps:
        # Build output goes to stderr so the result stays the last stdout line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            die("build failed: " + " ".join(cmd))
    return bdir / "tmsperf"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        die(f"unknown workload {args.workload}")
    bdir = build_dir()
    binary = build(bdir)

    # tmsperf runs inside the work directory (sockets, trace file); the path
    # is relative to the checkout root, where it starts.
    work = os.path.relpath(bdir / "work", ROOT)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace, "--work-dir", work]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(proc.stdout)
        die(f"{args.workload} exited {proc.returncode} without a result")

    listed = spec["per_layer"] if args.trace == "1" else spec["end_to_end"]
    got = result["metrics"]
    unlisted = sorted(set(got) - {m["name"] for m in listed})
    if unlisted:
        die(f"metrics missing from BENCHMARK.json: {unlisted}")
    metrics = {}
    for m in listed:
        if m["name"] in got:
            if got[m["name"]]["unit"] != m["unit"]:
                die(f"{m['name']}: unit {got[m['name']]['unit']} != {m['unit']}")
            metrics[m["name"]] = got[m["name"]]
        elif args.trace == "1":
            metrics[m["name"]] = {"value": 0, "unit": m["unit"]}
        else:
            die(f"{args.workload} did not report end-to-end metric {m['name']}")

    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps({"correct": bool(result["correct"]) and proc.returncode == 0,
                      "attempted": result["attempted"], "failed": result["failed"],
                      "metrics": metrics}))
    sys.exit(0 if proc.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
