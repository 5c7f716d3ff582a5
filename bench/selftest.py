"""Self-test of the benchmark harness on tiny inputs (about a minute).

    python3 bench/selftest.py

For a tiny version of each workload it checks that a run whose answers
match its golden has no failed check and emits every metric that
BENCHMARK.json names, in both modes (a per-layer metric may be marked
absent).  It checks that a tampered golden digest, a wrong expected
count and a wrong matrix check count are each reported as a failed
check, not as a pass, and that the benchmark refuses to run, without
printing a result, where the program's sources are missing.  Exits 0
when every check holds.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile

import run
from worker import import_lcdlab

N14 = {"kind": "classify", "name": "n14k4d7", "n": 14, "k": 4, "d": 7}
TINY = {
    "ladder-dim4": {"name": "dim4", "steps": [
        N14, {"kind": "extend", "name": "n15k4d8", "n": 15, "k": 4, "d": 8, "pick": [0]},
    ]},
    "ladder-dim5": {"name": "dim5", "steps": [
        {"kind": "extend", "name": "n15k5d7", "n": 15, "k": 5, "d": 7,
         "seed_dir": os.path.join(run.WORK, "selftest-seeds")},
    ]},
    "verify": {"name": "verify", "prepare": {"name": "ladder", "steps": [N14]},
               "steps": [{"kind": "verify", "name": "verify", "census_reps": 2}]},
    "witness-search": {"name": "search", "steps": [
        {"kind": "sweep", "name": "sweep", "budget": 40, "targets": [[22, 4, 11]]},
        {"kind": "witness", "name": "witness", "iterations": 5000, "once": True,
         "targets": [[17, 4, 8], [18, 4, 8]]},
    ]},
}

failures: list[str] = []


def expect(ok: bool, what: str):
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)


def measure(workload: str, golden: dict, trace: bool = False) -> dict:
    return run.run_workload(workload, TINY[workload], seed=1, seconds=0.1,
                            trace=trace, golden=golden)


def failed_names(record: dict) -> list[str]:
    return [c[0] for c in record["failed_checks"]]


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    e2e = sorted(m["name"] for m in bench["end_to_end"])
    layers = sorted(m["name"] for m in bench["per_layer"])
    matrix_checks = run.load_golden()["matrix_checks"]
    seed_dir = TINY["ladder-dim5"]["steps"][0]["seed_dir"]
    shutil.rmtree(seed_dir, ignore_errors=True)
    import_lcdlab().classify.classify(14, 4, 7, db_dir=seed_dir)  # the stored seed level
    expect(sorted(run.WORKLOADS) == sorted(w["name"] for w in bench["workloads"]),
           "BENCHMARK.json lists the harness's workloads")

    for workload in TINY:
        empty = {"files": {}, "ladders": {}, "census": {}, "matrix_checks": matrix_checks}
        first = measure(workload, empty)
        answers = first["answers"]
        steps = TINY[workload]["steps"] + TINY[workload].get("prepare", {}).get("steps", [])
        golden = {"files": answers["files"], "census": answers["census"],
                  "matrix_checks": matrix_checks,
                  "ladders": {st["name"]: answers["written"][st["name"]]
                              for st in steps if st["kind"] == "classify"}}
        plain = measure(workload, golden)
        expect(plain["correct"] and plain["failed"] == 0 and plain["attempted"] > 0,
               f"{workload}: answers equal to the golden pass {failed_names(plain)}")
        expect(sorted(plain["metrics"]) == e2e,
               f"{workload}: --trace 0 emits every end-to-end metric")
        expect(all(v > 0 for v in plain["metrics"].values()),
               f"{workload}: end-to-end metrics are nonzero")
        line = json.loads(run.summary_line(plain))
        expect(sorted(line) == ["attempted", "correct", "failed", "metrics"]
               and all(set(v) == {"value", "unit"} for v in line["metrics"].values()),
               f"{workload}: the result line has the contract's shape")
        traced = measure(workload, golden, trace=True)
        expect(traced["failed"] == 0, f"{workload}: traced run passes")
        expect(sorted(traced["metrics"]) == layers
               and set(traced["absent"]) <= set(layers),
               f"{workload}: --trace 1 emits every per-layer metric or marks it absent")

        if golden["files"]:
            name = sorted(golden["files"])[0]
            bad = copy.deepcopy(golden)
            bad["files"][name] = "0" * 64
            rec = measure(workload, bad)
            expect(not rec["correct"] and any(c.startswith("bytes") and c.endswith(name)
                                              for c in failed_names(rec)),
                   f"{workload}: a tampered digest of {name} fails")
        if golden["census"]:
            name = sorted(golden["census"])[0]
            bad = copy.deepcopy(golden)
            bad["census"][name][0] += 1
            rec = measure(workload, bad)
            expect(not rec["correct"] and f"census {name}" in failed_names(rec),
                   f"{workload}: a wrong expected count for {name} fails")
        if workload == "verify":
            bad = dict(golden, matrix_checks=matrix_checks + 1)
            rec = measure(workload, bad)
            expect(not rec["correct"] and "reproduce check count" in failed_names(rec),
                   f"{workload}: a wrong matrix check count fails")

    os.makedirs(run.WORK, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as bare:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.BENCH, os.path.join(bare, "bench"))
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "verify",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
        expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
               "without the program's sources the benchmark fails and prints no result")

    shutil.rmtree(seed_dir, ignore_errors=True)
    print(f"{len(failures)} failed" if failures else "all self-checks hold")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
