#!/usr/bin/env python3
"""Run the whole benchmark set: every workload of BENCHMARK.json, one process
each, untraced and then traced. `run.sh` builds the binary and calls this.

  suite.py <binary> [--seed N] [--seconds S]   the set, once
  suite.py <binary> --selfcheck                the set twice, compared

Both exit non-zero when a run fails an output check, reports a metric
BENCHMARK.json does not list (or omits one it does), or, for --selfcheck,
when the two sets disagree beyond a metric's bound.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

OUT = Path("benchmark/out")


def run_one(binary, workload, seed, seconds, trace, echo):
    """One process, one workload. Returns (result line, record file) parsed."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.splitlines()
    if echo:
        print("\n".join(lines[:-1]), flush=True)
    if not lines or not lines[-1].startswith("{"):
        sys.exit(f"{workload}: no result line (exit code {proc.returncode})")
    result = json.loads(lines[-1])
    record = json.loads((OUT / (f"trace_{workload}.json" if trace else f"{workload}.json")).read_text())
    if proc.returncode != 0 or not result["correct"]:
        for failure in record["check_failures"]:
            print(f"{workload}: CHECK FAILED: {failure}")
        sys.exit(f"{workload}: run failed (exit code {proc.returncode})")
    return result, record


def check_names(manifest, workload, trace, result):
    """The result line must carry exactly the metrics BENCHMARK.json lists."""
    listed = {m["name"]: m["unit"] for m in manifest["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != listed:
        odd = sorted(set(got.items()) ^ set(listed.items()))
        sys.exit(f"{workload} --trace {trace}: metrics differ from BENCHMARK.json: {odd}")


def run_set(binary, manifest, seed, seconds, echo, traces=(0, 1)):
    """Every workload untraced, then traced. Returns {workload: [record, traced record]}."""
    records = {}
    for w in manifest["workloads"]:
        name = w["name"]
        records[name] = []
        for trace in traces:
            result, record = run_one(binary, name, seed, seconds, trace, echo)
            check_names(manifest, name, trace, result)
            records[name].append(record)
    return records


def summary(records, path):
    """One file for the set, in the schema of the records it is made of."""
    first = next(iter(records.values()))[0]
    doc = {key: first[key] for key in ("seed", "commit", "profile", "host.cores")}
    doc["workloads"] = {
        name: {
            "threads": plain["threads"],
            "shards": plain["shards"],
            "reps": plain["reps"],
            "unsettled": plain["unsettled"],
            "metrics": plain["metrics"],
            "layers": traced["layers"],
        }
        for name, (plain, traced) in records.items()
    }
    doc["claim"] = None
    path.write_text(json.dumps(doc, indent=2) + "\n")


def selfcheck(binary, manifest, seed, seconds):
    """Two sets on one build must agree within the bound each metric of a
    record carries: a tenth for wall-clock metrics, a twentieth for peak
    memory, nothing for simulated time, counts, accuracy and failures."""
    # End-to-end metrics come from untraced runs; those are what is compared.
    sets = [run_set(binary, manifest, seed, seconds, echo=False, traces=(0,)) for _ in range(2)]
    bad = 0
    print(f"{'workload':<14} {'metric':<22} {'first':>16} {'second':>16} {'diff':>8} {'bound':>7}")
    for name in sets[0]:
        (a,), (b,) = sets[0][name], sets[1][name]
        for metric, ma in a["metrics"].items():
            va, vb, bound = ma["value"], b["metrics"][metric]["value"], ma["bound"]
            diff = 0.0 if va == vb else abs(va - vb) / abs(va)
            # A pass-to-pass range wider than the bound means the machine
            # moved more inside one run than the bound allows between two:
            # then neither agreement nor disagreement is evidence.
            loose = max((m["max"] - m["min"]) / m["value"] if m["value"] else 0.0 for m in (ma, b["metrics"][metric]))
            verdict = ""
            if diff > bound:
                bad += 1
                verdict = "  DISAGREES" + (" (unresolved: passes range wider than the bound)" if loose > bound else "")
            label = f"{bound:.2f}" if bound else "exact"
            print(f"{name:<14} {metric:<22} {va:>16.6g} {vb:>16.6g} {diff:>8.2%} {label:>7}{verdict}")
    print("selfcheck:", "FAILED" if bad else "passed")
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("binary")
    ap.add_argument("--seed", type=int, default=4242)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args()
    manifest = json.loads(Path("BENCHMARK.json").read_text())
    seconds = args.seconds or manifest["run_seconds"]
    if args.selfcheck:
        return selfcheck(args.binary, manifest, args.seed, seconds)
    records = run_set(args.binary, manifest, args.seed, seconds, echo=True)
    summary(records, OUT / "summary.json")
    print(f"all {len(records)} workloads correct; records and traces are under {OUT}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
