"""Self-test of the benchmark, and its tracing overhead.

    python3 perfbench/selftest.py            # tiny inputs, about a minute
    python3 perfbench/selftest.py --full     # the real sizes, a few minutes

For each workload it runs perfbench/run.py once untraced and twice traced
on seed 1, then checks that:

* the last line has exactly the keys correct/attempted/failed/metrics, no
  check failed, and every metric of BENCHMARK.json is printed with its unit;
* the traced runs saw no span outside its parent and no negative self time
  (run.py counts both as failed checks);
* every count (calls, computed FLOPs, cells, samples) is identical across
  the two traced runs;
* the predictions hold: no backward or Adam calls on monitor and analyze,
  no evaluate or checkpoint calls traced on train.

It then prints the tracing overhead: traced minus untraced value of every
end-to-end metric.  Exits 1 if any check fails.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("train", "monitor", "analyze")
SEED = 1
COUNT_UNITS = ("count", "flop_computed")
NOT_CALLED = {
    "train": ("evaluate.", "checkpoint."),
    "monitor": ("tensor.backward.", "optim.adam_step."),
    "analyze": ("tensor.backward.", "optim.adam_step."),
}


def run(workload: str, seconds: int, trace: int, smoke: bool) -> tuple[dict, dict]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--full", action="store_true", help="real sizes instead of tiny ones")
    args = p.parse_args()
    with open("BENCHMARK.json") as fh:
        table = json.load(fh)
    problems: list[str] = []

    def expect(ok: bool, what: str) -> None:
        if not ok:
            problems.append(what)

    for w in WORKLOADS:
        runs = [run(w, table["run_seconds"], t, not args.full) for t in (0, 1, 1)]
        for (record, result), trace in zip(runs, (0, 1, 1)):
            wanted = table["per_layer" if trace else "end_to_end"]
            tag = f"{w} trace {trace}"
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{tag}: result keys {sorted(result)}")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{tag}: failures {record['failures']}")
            expect(list(result["metrics"]) == [m["name"] for m in wanted],
                   f"{tag}: metric names differ from BENCHMARK.json")
            for m in wanted:
                got = result["metrics"].get(m["name"], {})
                expect(got.get("unit") == m["unit"] and isinstance(got.get("value"), (int, float)),
                       f"{tag}: {m['name']} printed as {got}")
        first, second = runs[1][1]["metrics"], runs[2][1]["metrics"]
        for m in table["per_layer"]:
            name = m["name"]
            if m["unit"] in COUNT_UNITS:
                expect(first[name]["value"] == second[name]["value"],
                       f"{w}: {name} {first[name]['value']} then {second[name]['value']}")
            if name.endswith(".calls") and name.startswith(NOT_CALLED[w]):
                expect(first[name]["value"] == 0, f"{w}: {name} = {first[name]['value']}, predicted 0")

        untraced, traced = runs[0][0]["end_to_end"], runs[1][0]["end_to_end"]
        print(f"{w}: tracing overhead (traced - untraced), {runs[1][0]['spans']} spans")
        for m in table["end_to_end"]:
            a, b = untraced[m["name"]], traced[m["name"]]
            print(f"  {m['name']:28s} {a:12.5g} -> {b:12.5g}  {b - a:+.4g} {m['unit']}"
                  f" ({(b - a) / a:+.1%})")

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
