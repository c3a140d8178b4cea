#!/usr/bin/env python3
"""Quick self-test of the benchmark. Run from the repository root:

    python3 emmbench/selftest.py

Checks that
  1. every metric BENCHMARK.json names is printed with its unit, end-to-end
     metrics with --trace 0 and per-layer metrics with --trace 1, on every
     workload;
  2. two runs with the same seed draw the same stream (the printed stream
     hash) and give identical exact counts (artifact_bytes, and
     gen_global_elems / gen_bank_excess_cycles on cold_mix);
  3. a planted wrong artifact makes the run fail: failed > 0, correct is
     false and the exit code is not 0.
Takes about four minutes on 4 cores. Exits 1 on the first failed check.
"""
import json
import os
import re
import subprocess
import sys

RUN = [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")]
# Long enough that each of the 5 rounds completes the blocks the exact counts
# average over (50 compiles, 400 requests).
EXACT_SECONDS = {"cold_mix": 15, "daemon_repeat": 5, "daemon_new_sizes": 10}


def run(workload, seed, seconds, trace, *extra):
    cmd = RUN + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace), *extra]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    m = re.search(r"stream hash ([0-9a-f]+)", done.stderr)
    return done.returncode, result, m.group(1) if m else None, done.stderr


def check(ok, what):
    print(("PASS " if ok else "FAIL ") + what, flush=True)
    if not ok:
        sys.exit(1)


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}

    for workload in workloads:
        for trace in (0, 1):
            code, result, _, err = run(workload, 11, EXACT_SECONDS[workload], trace)
            if code != 0:
                print(err[-2000:], file=sys.stderr)
            check(code == 0 and result is not None and result["correct"],
                  f"{workload} --trace {trace} runs correctly")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == expected[trace],
                  f"{workload} --trace {trace} prints every metric with its unit")

    seed5 = {}
    for workload in workloads:
        runs = [run(workload, 5, EXACT_SECONDS[workload], trace) for trace in (0, 0, 1, 1)]
        seed5[workload] = runs[0][2]
        # An untraced run hashes its 5 rounds' streams, a traced run its one.
        check(None not in {r[2] for r in runs} and runs[0][2] == runs[1][2] and
              runs[2][2] == runs[3][2], f"{workload} same seed, same stream")
        exact = [runs[0][1]["metrics"]["artifact_bytes"]["value"],
                 runs[1][1]["metrics"]["artifact_bytes"]["value"]]
        check(exact[0] == exact[1], f"{workload} same seed, same artifact_bytes ({exact[0]})")
        if workload == "cold_mix":
            for name in ("gen_global_elems", "gen_bank_excess_cycles"):
                values = [r[1]["metrics"][name]["value"] for r in runs[2:]]
                check(values[0] == values[1], f"cold_mix same seed, same {name} ({values[0]})")
    check(run("daemon_repeat", 6, 2, 0)[2] != seed5["daemon_repeat"],
          "another seed draws another stream")

    code, result, _, _ = run("daemon_repeat", 5, 2, 0, "--plant-wrong-artifact")
    check(code != 0 and result is not None and result["failed"] > 0 and not result["correct"],
          "a planted wrong artifact makes fail_ratio non-zero "
          f"({result['failed'] if result else '?'} / {result['attempted'] if result else '?'})")


if __name__ == "__main__":
    main()
