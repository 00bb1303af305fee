#!/usr/bin/env python3
"""Steadiness check of the benchmark.

    python3 perfbench/steady.py [--workloads a,b] [--seeds 101,102,...]
                                [--save set.json] [--baseline set.json]

Runs perfbench/run.py once per (workload, seed) with --trace 0 and
reports, per end-to-end metric, the median and the spread: the distance
between the first and third quartile (statistics.quantiles, n=4) as a
share of the median. A spread above the metric's bound in
BENCHMARK.json fails (setup_s is exempt); one above a third of it is
flagged. With --baseline, each median is also compared with a saved
set's and fails when it is worse by more than the bound.

Exact work counts are checked too: the first seed of each workload runs
again with --trace 1, and its untraced and traced work counts must equal
those of the first run. Every run must report correct and zero failures.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    work = {}
    for line in done.stderr.splitlines():
        if line.startswith("perfbench: work "):
            kind, counts = line[len("perfbench: work "):].split(" ", 1)
            work[kind] = json.loads(counts)
        elif "WARNING" in line or "CHECK FAILED" in line:
            print(f"    {line}", file=sys.stderr)
    if done.returncode != 0:
        print(done.stderr, file=sys.stderr)
        raise SystemExit(f"{workload} seed {seed} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1]), work


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf"), statistics.median(values)


def worse_by(metric, old, new):
    """How much worse `new` is than `old`, as a share of `old`."""
    if old == 0:
        return 0.0 if new == old else float("inf")
    change = (new - old) / abs(old)
    return -change if metric["better"] == "higher" else change


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default=",".join(str(s) for s in range(101, 111)))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--save", help="write the raw results here")
    parser.add_argument("--baseline", help="compare medians with a saved set")
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    baseline = json.loads(pathlib.Path(args.baseline).read_text()) if args.baseline else {}

    ok = True
    raw = {}
    for workload in args.workloads.split(","):
        results = []
        first_work = None
        for seed in seeds:
            result, work = run(workload, seed, args.seconds, 0)
            print(f"  {workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), file=sys.stderr)
            if not result["correct"] or result["failed"]:
                print(f"FAIL {workload} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}")
                ok = False
            first_work = first_work or work.get("untraced")
            results.append(result)
        traced, work = run(workload, seeds[0], args.seconds, 1)
        if not traced["correct"] or traced["failed"]:
            print(f"FAIL {workload} traced run: failed={traced['failed']}")
            ok = False
        for kind in ("untraced", "traced"):
            if work.get(kind) != first_work:
                print(f"FAIL {workload}: {kind} work counts {work.get(kind)} != {first_work}")
                ok = False
        raw[workload] = {"seeds": seeds, "runs": results, "traced": traced}

        print(f"\n{workload} ({len(seeds)} seeds, {args.seconds} s)")
        print(f"  {'metric':<18} {'median':>12} {'spread':>8} {'bound':>6}  verdict")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in results]
            s, med = spread(values)
            verdict = "ok"
            if name == "setup_s":
                verdict = "exempt"
            elif s > metric["bound"]:
                verdict, ok = "FAIL", False
            elif s > metric["bound"] / 3:
                verdict = "above bound/3"
            if workload in baseline:
                old = statistics.median(r["metrics"][name]["value"]
                                        for r in baseline[workload]["runs"])
                drift = worse_by(metric, old, med)
                verdict += f"; vs baseline {drift:+.3f}"
                if drift > metric["bound"]:
                    verdict += " FAIL"
                    ok = False
            print(f"  {name:<18} {med:>12.5g} {s:>8.4f} {metric['bound']:>6}  {verdict}")
        print(f"  work counts: {first_work}")
        sys.stdout.flush()

    if args.save:
        pathlib.Path(args.save).write_text(json.dumps(raw))
    print("\nsteady" if ok else "\nNOT steady")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
