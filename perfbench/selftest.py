#!/usr/bin/env python3
"""Self-test of the benchmark, at tiny sizes.

Usage (from the repository root): python3 perfbench/selftest.py

For every workload it runs one tiny round untraced and one traced, and
checks that
  * the last line has exactly the keys correct/attempted/failed/metrics,
  * every metric named in BENCHMARK.json is printed, with its unit, and no other,
  * every job passes its oracle and the reference (pass_ratio is 1),
  * the traced run produces the same leafcoh outputs as the untraced one.
It also checks that the benchmark refuses to run without the leafcoh sources.
Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def last_two(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for wl in (w["name"] for w in spec["workloads"]):
        digests = {}
        for trace in (0, 1):
            proc = run(["--workload", wl, "--seed", "0", "--seconds", "1", "--trace", str(trace), "--tiny"])
            label = f"{wl} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
                continue
            info, result = last_two(proc)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got.items()) ^ set(want[trace].items()))}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: failures {info['run']['failures']}")
            if trace == 0 and result["metrics"]["pass_ratio"]["value"] != 1.0:
                problems.append(f"{label}: pass_ratio {result['metrics']['pass_ratio']['value']}")
            digests[trace] = info["run"]["outputs_sha256"]
            print(f"ok {label}: {result['attempted']} jobs", flush=True)
        if len(digests) == 2 and digests[0] != digests[1]:
            problems.append(f"{wl}: traced outputs differ from untraced outputs")

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(["--workload", "float-lane", "--seed", "0", "--seconds", "1", "--trace", "0"], cwd=bare)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("without leafcoh sources the benchmark did not fail cleanly")
        else:
            print("ok refuses to run without sources", flush=True)
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
