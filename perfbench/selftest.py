#!/usr/bin/env python3
"""Determinism self-test for tmsperf, at reduced size (--small).

    python3 perfbench/selftest.py

Builds tmsperf the way run.py does, then checks, for every workload, in
both the untraced and the traced run:
  - two runs with the same seed print identical WORK lines (the
    deterministic metrics and the work counts);
  - a different seed changes the inputs (the input digest);
and for compile_suite, that seed 0 reproduces the canonical
spec_fp2000_suite() text. Exit status 0 when every check holds.
"""
import json
import os
import pathlib
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import run  # noqa: E402  (the build helpers)

WORKLOADS = ["compile_suite", "serve_mix", "simulate_doacross"]


def work_line(binary, work_dir, workload, seed, trace):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--small", "--work-dir", work_dir]
    out = subprocess.run(cmd, cwd=run.ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
    lines = out.splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        raise AssertionError(f"{workload} seed {seed}: output checks failed")
    work = [l for l in lines if l.startswith("WORK ")]
    return {k: v["value"] for k, v in json.loads(work[0][5:]).items()}


def main():
    bdir = run.build_dir()
    binary = run.build(bdir)
    work_dir = os.path.relpath(bdir / "selftest", run.ROOT)
    failures = []

    def expect(cond, what):
        print(("ok   " if cond else "FAIL ") + what)
        if not cond:
            failures.append(what)

    for wl in WORKLOADS:
        for trace in (0, 1):
            a = work_line(binary, work_dir, wl, 7, trace)
            b = work_line(binary, work_dir, wl, 7, trace)
            expect(a == b, f"{wl} trace={trace}: same seed, identical work counts")
        c = work_line(binary, work_dir, wl, 8, 0)
        expect(a["input_digest"] != c["input_digest"], f"{wl}: another seed changes the inputs")
    s0 = work_line(binary, work_dir, "compile_suite", 0, 0)
    s7 = work_line(binary, work_dir, "compile_suite", 7, 0)
    expect(s0["input_digest"] == s0["canonical_digest"],
           "compile_suite: seed 0 is the canonical spec_fp2000_suite()")
    expect(s7["input_digest"] != s7["canonical_digest"],
           "compile_suite: seed 7 is not the canonical suite")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
