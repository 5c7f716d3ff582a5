"""Ten runs of one workload and one traced run, summarised in one file.

    python3 bench/baseline.py WORKLOAD [--seeds 1,...,10] [--seconds S] [--out DIR]

Runs ``bench/run.py`` once per seed with ``--trace 0`` and once with
``--trace 1`` on the first seed, each as its own process, as a driver
would.  Writes ``DIR/WORKLOAD.json`` (default ``bench/baseline``): per
end-to-end metric the values, median, quartiles
(``statistics.quantiles(values, n=4)``) and spread (Q3 - Q1) / median;
the raw seconds of a pass and the median seconds of each step; the
checks; the provenance of every run; and the traced run's metrics.
Prints one line per run and the spreads.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med, "values": values}


def one_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    path = next(line.split(": ", 1)[1] for line in proc.stdout.splitlines()
                if line.startswith("results: "))
    with open(os.path.join(ROOT, path)) as fh:
        record = json.load(fh)
    print(f"{workload} seed {seed} trace {trace}: {proc.stdout.splitlines()[-1]}",
          flush=True)
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workload")
    ap.add_argument("--seeds", default=",".join(str(s) for s in range(1, 11)))
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--out", default=os.path.join(BENCH, "baseline"))
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        seconds = args.seconds or json.load(fh)["run_seconds"]
    seeds = [int(s) for s in args.seeds.split(",")]
    runs = [one_run(args.workload, seed, seconds, 0) for seed in seeds]
    traced = one_run(args.workload, seeds[0], seconds, 1)

    steps: dict[str, list[float]] = {}
    for rec in runs:
        for sample in rec["samples"]:
            for name, val in sample["timings"].items():
                steps.setdefault(name, []).append(val)
    out = {
        "workload": args.workload, "seeds": seeds, "seconds": seconds,
        "correct": all(r["correct"] for r in runs + [traced]),
        "attempted": [r["attempted"] for r in runs],
        "failed": [r["failed"] for r in runs],
        "findings": sorted({f for r in runs for f in r["findings"]}),
        "end_to_end": {name: summary([r["metrics"][name] for r in runs])
                       for name in runs[0]["metrics"]},
        "raw_pass_s": summary([
            statistics.median(sum(v for k, v in s["timings"].items() if k != "search_s")
                              for s in r["samples"] if s["timings"])
            for r in runs]),
        "step_seconds": {name: {"median": statistics.median(v), "passes": len(v)}
                         for name, v in steps.items()},
        "provenance": [r["provenance"] for r in runs],
        "traced_run": {"seed": traced["seed"], "correct": traced["correct"],
                       "passes": traced["passes"], "metrics": traced["metrics"],
                       "absent": traced["absent"], "levels": traced.get("levels", [])},
    }
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, f"{args.workload}.json"), "w") as fh:
        json.dump(out, fh, indent=1)
    for name, s in out["end_to_end"].items():
        print(f"{args.workload} {name}: median {s['median']:.6g} "
              f"[{s['q1']:.6g}, {s['q3']:.6g}] spread {s['spread']:.4f}")
    print(f"{args.workload} raw pass seconds: spread {out['raw_pass_s']['spread']:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
