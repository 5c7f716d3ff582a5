"""The lcdlab benchmark: cold classification ladders, the verification
matrix and witness search, timed end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every job runs in a fresh worker process (``worker.py``) that imports
lcdlab from this checkout's ``src`` and calls its modules' functions,
single-process (``jobs=1``).  A run repeats passes over its workload's
jobs for about S seconds and reports medians.  Every answer is checked:
the sha256 of every ``.codedb`` written against ``golden.json``, census
counts, class keys against the decoded fixture matrices, the
verification matrix, and each search witness.  The last line of stdout
is one JSON object: ``correct``, ``attempted``, ``failed`` (checks) and
``metrics``, the end-to-end metrics with ``--trace 0`` and the per-layer
metrics with ``--trace 1``.  A traced run first repeats the untraced
measurement for half of S, then measures with spans for the other half;
the difference is ``trace.overhead_s``.  Each run also writes a results
file with a provenance block under ``.bench_results/``, and a traced run
writes its spans beside it.

End-to-end metrics: ``setup_s``, the time from spawning a worker to the
worker being ready to make its first timed call (interpreter, numpy and
lcdlab imports), median over the run's workers; ``wall_ref``, one pass
of the workload's timed steps, median over the run's passes, in units of
a reference; ``peak_rss_mb``, the largest resident set of any worker.

References are fixed computations that use no lcdlab code, so no change
to the program moves them: ``worker.reference``, interpreter and
small-array work like imports, the verification matrix and the hill
climber (about 3 ms), and, on the ladders, ``worker.reference_kernel``,
a frozen small copy of the extension kernel's coset BFS (about 16 ms);
each probe is the median of a few calls.
On a shared two-core machine the speed of such code moves by a third
within seconds and drifts over minutes; a probe timed in the same
process on the same core moves with it, and the ratio moves far less
than seconds do.  Each timed step is divided into stretches between
probes: at its ends and, in untraced workers, every
``worker.PROBE_EVERY_S`` within it, from a timer signal.  Each stretch
counts its seconds over the mean of its two probes, and probe time is
left out of every timing.  ``setup_s`` divides each worker's set-up time
by an interpreter probe taken as soon as it is ready, and reports the
median in seconds at the probe's nominal speed (``REFERENCE_S``, its
time on a quiet core of the baseline machine).  The raw seconds
``setup_raw_s``, ``wall_s`` and ``cpu_s`` are per-layer metrics and are
in every results file.  A run and all its workers are pinned to one
core, so that probes and the work they measure share it.

Workloads (the seed drives only the search inputs; the ladders are fixed):

* ladder-dim4: cold ``classify`` + ``lcd_census`` of [22,4,11] and
  [23,4,12], and the extension of one [26,3,14] seed, the one whose
  extensions hold the single [27,4,14] class, after cold direct
  enumeration of [26,3,14].  The extension kernel dominates, on a few
  large seeds, with the GL(4) table and orbit-closure dedupe paid per
  process.  A whole [27,4,14] ladder (seven seeds, about a minute) does
  not fit one run.
* ladder-dim5: the top rung of the [25,5,12] ladder, all eleven stored
  [24,4,12] seeds extended to [25,5,12], then the k=5 backtracking
  dedupe.  Same kernel on many small seeds instead of a few large ones.
* verify: ``lcdlab reproduce --suite all`` (families, bounds, fixtures,
  direct enumeration at k <= 3), then a warm census of every level of a
  [22,4,11] ladder database built before timing.  It bypasses the
  extension kernel: a kernel change should not move it.
* witness-search: the hill climber.  A sweep one above each ledger
  value (k = 4, 5, 6) with a fixed step budget gives work that does not
  depend on luck; it is the timed part.  A round at the exact ledger
  values, once per run (and once more in a traced run), gives the hit
  rate and ``search_s``, whose time varies too much with the seed to
  bound.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import spans

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK = os.path.join(ROOT, ".bench_work")
RESULTS = os.path.join(ROOT, ".bench_results")
SETUP_PROBES = 15
# the interpreter probe's time on a quiet core of the baseline machine:
# setup_s is in seconds at this speed
REFERENCE_S = 0.0022
RUN_LIMIT_S = 170  # no worker may outlive this, counted from the run's start

N22 = {"kind": "classify", "name": "n22k4d11", "n": 22, "k": 4, "d": 11,
       "fixture": True}
# One job per workload: its steps run in order in one fresh worker process.
WORKLOADS = {
    "ladder-dim4": {"name": "dim4", "reference": "kernel", "steps": [
        N22,
        {"kind": "classify", "name": "n23k4d12", "n": 23, "k": 4, "d": 12,
         "fixture": True},
        # the 7th of the seven [26,3,14] seeds (key order) is the one whose
        # extensions hold the single [27,4,14] class; all seven take a minute
        {"kind": "extend", "name": "n27k4d14", "n": 27, "k": 4, "d": 14,
         "pick": [6], "fixture": True},
    ]},
    "ladder-dim5": {"name": "dim5", "reference": "kernel", "steps": [
        {"kind": "extend", "name": "n25k5d12", "n": 25, "k": 5, "d": 12,
         "seed_dir": os.path.join(BENCH, "data"), "fixture": True},
    ]},
    "verify": {"name": "verify",
               "prepare": {"name": "ladder", "steps": [N22]},
               # a census pass takes under a millisecond: report the median of 20
               "steps": [{"kind": "verify", "name": "verify", "census_reps": 20}]},
    "witness-search": {"name": "search", "steps": [
        {"kind": "sweep", "name": "sweep", "budget": 600},
        # its time is not bounded, so it needs no probes, and it runs once a
        # phase, which leaves the rest of the run to passes of the sweep
        {"kind": "witness", "name": "witness", "iterations": 200_000,
         "reference": None, "once": True},
    ]},
}
# Step metrics left out of a pass's time: their work depends on luck.
UNBOUNDED = {"search_s"}

END_TO_END = {"setup_s": "s", "wall_ref": "ref", "peak_rss_mb": "MB"}
JOB_METRICS = {
    "wall_s": "s", "cpu_s": "s", "setup_raw_s": "s",
    "classify_s.n22k4d11": "s", "classify_s.n23k4d12": "s",
    "extend_s.n27k4d14": "s", "extend_s.n25k5d12": "s",
    "matrix_s": "s", "census_s": "s", "sweep_s": "s", "search_s": "s",
    "witness_hit_frac": "frac",
}
# per-layer metric -> (unit, key in spans.summarize output)
LAYER_METRICS = {
    "classify.extend.s": ("s", "classify.extend.s"),
    "classify.extend.seeds": ("count", "classify.extend.calls"),
    "classify.extend.candidates": ("count", "classify.extend.candidates"),
    "classify.coset_bfs.s": ("s", "classify.coset_bfs.s"),
    "classify.dedupe.s": ("s", "classify.dedupe.s"),
    "classify.dedupe.candidates_in": ("count", "classify.dedupe.in"),
    "classify.dedupe.classes_out": ("count", "classify.dedupe.out"),
    "canonical.backtrack.s": ("s", "canonical.backtrack.s"),
    "canonical.backtrack.calls": ("count", "canonical.backtrack.calls"),
    "canonical.gl_table.s": ("s", "canonical.gl_table.s"),
    "classify.direct.s": ("s", "classify.direct.s"),
    "classify.direct.levels": ("count", "classify.direct.calls"),
    "classify.direct.classes": ("count", "classify.direct.classes"),
    "classify.verify_reps.s": ("s", "classify.verify_reps.s"),
    "classify.verify_reps.count": ("count", "classify.verify_reps.count"),
    "code.min_weight.s": ("s", "code.min_weight.s"),
    "code.min_weight.calls": ("count", "code.min_weight.calls"),
    "code.is_lcd.s": ("s", "code.is_lcd.s"),
    "code.is_lcd.calls": ("count", "code.is_lcd.calls"),
    "families.family_code.s": ("s", "families.family_code.s"),
    "families.symbolic_we.s": ("s", "families.symbolic_we.s"),
    "families.gram_det.s": ("s", "families.gram_det.s"),
    "bounds.s": ("s", "bounds.s"),
    "formats.save.s": ("s", "formats.save.s"),
    "formats.save.files": ("count", "formats.save.calls"),
    "formats.save.bytes": ("bytes", "formats.save.bytes"),
    "formats.load.s": ("s", "formats.load.s"),
    "formats.load.files": ("count", "formats.load.calls"),
    "search.search_lcd.s": ("s", "search.search_lcd.s"),
}


class HarnessError(Exception):
    """The benchmark could not run the program at all."""


class Run:
    """The workers, checks and answers of one benchmark run."""

    def __init__(self, run_id: str, seed: int, golden: dict):
        self.run_id, self.seed, self.golden = run_id, seed, golden
        self.started = time.perf_counter()
        os.makedirs(WORK, exist_ok=True)
        self.work = tempfile.mkdtemp(dir=WORK, prefix=f"{self.run_id}-")
        self.spawned = 0
        self.checks: list[list] = []
        self.findings: set[str] = set()
        self.info: dict = {}
        self.answers: dict[str, dict] = {"files": {}, "written": {}, "census": {}}

    def job(self, spec: dict, traced: bool = False, rnd: int = 0) -> dict:
        """Run one job in a fresh worker and return its result."""
        self.spawned += 1
        tag = f"{self.spawned:04d}-{spec['name']}"
        full = dict(spec, trace=traced, run_id=self.run_id, seed=self.seed, round=rnd,
                    db_dir=os.path.join(self.work, tag),
                    golden_files=self.golden["files"], ladders=self.golden["ladders"],
                    census=self.golden["census"],
                    matrix_checks=self.golden["matrix_checks"])
        spec_path = os.path.join(self.work, f"{tag}.spec.json")
        result_path = os.path.join(self.work, f"{tag}.result.json")
        remaining = RUN_LIMIT_S - (time.perf_counter() - self.started)
        full["spawned_at"] = time.time()
        with open(spec_path, "w") as fh:
            json.dump(full, fh)
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH, "worker.py"), spec_path, result_path],
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                timeout=max(1.0, remaining))
            err = proc.stderr[-2000:]
        except subprocess.TimeoutExpired:
            err = f"worker timed out: the run passed {RUN_LIMIT_S} s"
        if not os.path.exists(result_path):
            if not spec["steps"]:
                raise HarnessError(f"the program does not start:\n{err}")
            result = {"checks": [[f"job {spec['name']} worker", False, err]],
                      "timings": {}, "cpu": {}, "norm": {}, "spans": [], "absent": [],
                      "files": {},
                      "written": {}, "census": {}, "findings": [],
                      "search": {"targets": 0, "hits": 0}}
        else:
            with open(result_path) as fh:
                result = json.load(fh)
            self.info = {"python": result["python"], "numpy": result["numpy"]}
        result["db_dir"] = full["db_dir"]
        self.checks += result["checks"]
        self.findings.update(result["findings"])
        for key in self.answers:
            self.answers[key].update(result[key])
        return result

    def phase(self, job: dict, seconds: float, traced: bool, first_round: int) -> list[dict]:
        """Passes over the job until another pass would end after the budget.
        Steps marked ``once`` run in the first pass only."""
        passes = []
        begin = time.perf_counter()
        later = dict(job, steps=[st for st in job["steps"] if not st.get("once")])
        while True:
            t0 = time.perf_counter()
            passes.append(self.job(later if passes else job, traced,
                                   first_round + len(passes)))
            now = time.perf_counter()
            if now + (now - t0) > begin + seconds:
                return passes

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


def _medians(passes: list[dict], field: str) -> dict[str, float]:
    values: dict[str, list[float]] = {}
    for res in passes:
        for name, val in res[field].items():
            values.setdefault(name, []).append(val)
    return {name: statistics.median(v) for name, v in values.items()}


def _pass_total(passes: list[dict], field: str) -> float:
    """One pass of the workload: the sum of its steps' median times."""
    return sum(v for name, v in _medians(passes, field).items() if name not in UNBOUNDED)


def _pass_ref(res: dict) -> float:
    """A pass's time in units of the reference probe."""
    return sum(v for name, v in res["norm"].items() if name not in UNBOUNDED)


def _setups(results: list[dict]) -> tuple[float, float]:
    """Median set-up seconds at the reference's nominal speed, and raw."""
    ready = [r for r in results if "ready_s" in r]
    return (statistics.median(r["ready_s"] / r["ready_ref"] for r in ready) * REFERENCE_S,
            statistics.median(r["ready_s"] for r in ready))


def _hit_frac(passes: list[dict]) -> tuple[float, float, float]:
    """Targets and hits per search round, and the hit rate."""
    rounds = [r["search"] for r in passes if r["search"]["targets"]] or [{}]
    targets = sum(r.get("targets", 0) for r in rounds)
    hits = sum(r.get("hits", 0) for r in rounds)
    return targets / len(rounds), hits / len(rounds), hits / targets if targets else 0.0


def end_to_end(passes: list[dict], probes: list[dict]) -> dict[str, float]:
    ratios = [_pass_ref(r) for r in passes if r["norm"]]
    return {
        "setup_s": _setups(probes + passes)[0],
        "wall_ref": statistics.median(ratios) if ratios else 0.0,
        "peak_rss_mb": max(r.get("rss_mb", 0.0) for r in passes),
    }


def per_layer(untraced, traced, probes) -> tuple[dict[str, float], list[str]]:
    span_lists = [r["spans"] for r in traced]
    summary = spans.summarize(span_lists, len(traced))
    out = {name: summary.get(key, 0.0) for name, (_, key) in LAYER_METRICS.items()}
    dedupe_in = out["classify.dedupe.candidates_in"]
    out["classify.dedupe.yield"] = (out["classify.dedupe.classes_out"] / dedupe_in
                                    if dedupe_in else 0.0)
    targets, hits, frac = _hit_frac(untraced + traced)
    out["search.targets"], out["search.hits"] = targets, hits
    out["trace.overhead_s"] = (_pass_total(traced, "timings")
                               - _pass_total(untraced, "timings"))
    jobs = _medians(untraced, "timings")
    jobs["wall_s"] = _pass_total(untraced, "timings")
    jobs["cpu_s"] = _pass_total(untraced, "cpu")
    jobs["setup_raw_s"] = _setups(probes + untraced)[1]
    absent = sorted({name for r in traced for name in r["absent"]})
    absent = [m for m in LAYER_METRICS if any(m.startswith(a + ".") for a in absent)]
    for name in JOB_METRICS:
        if name == "witness_hit_frac":
            out[name] = frac
            if not targets:
                absent.append(name)
        elif name in jobs:
            out[name] = jobs[name]
        else:
            out[name] = 0.0
            absent.append(name)
    return out, absent


def units() -> dict[str, str]:
    out = dict(END_TO_END)
    out.update(JOB_METRICS)
    out.update({name: unit for name, (unit, _) in LAYER_METRICS.items()})
    out.update({"classify.dedupe.yield": "frac", "search.targets": "count",
                "search.hits": "count", "trace.overhead_s": "s"})
    return out


def _git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unknown ({exc})"
    return proc.stdout.strip() or f"unknown ({proc.stderr.strip()})"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_workload(workload: str, job: dict, seed: int, seconds: float,
                 trace: bool, golden: dict) -> dict:
    """Measure one workload; return the results record (see module doc)."""
    load_before = os.getloadavg()
    run = Run(f"{workload}-s{seed}-t{int(trace)}-p{os.getpid()}", seed, golden)
    try:
        probes = [run.job({"name": "probe", "steps": []}) for _ in range(SETUP_PROBES)]
        job = dict(job)
        prepare = job.pop("prepare", None)
        if prepare:  # built once per run, outside all timing
            db_dir = run.job(prepare)["db_dir"]
            job["ladder_dir"] = os.path.join(db_dir, prepare["steps"][0]["name"])
        untraced = run.phase(job, seconds / 2 if trace else seconds, False, 0)
        traced = run.phase(job, seconds / 2, True, len(untraced)) if trace else []
    finally:
        run.close()
    if trace:
        metrics, absent = per_layer(untraced, traced, probes)
    else:
        metrics, absent = end_to_end(untraced, probes), []
    failed = [c for c in run.checks if not c[1]]
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "provenance": {
            "nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(), "git_commit": _git_commit(), "seed": seed,
            "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
            **run.info},
        "correct": not failed, "attempted": len(run.checks), "failed": len(failed),
        "failed_checks": failed, "findings": sorted(run.findings),
        "answers": run.answers,
        "metrics": metrics, "absent": absent,
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "setup_samples": [[r["ready_s"], r["ready_ref"]] for r in probes if "ready_s" in r],
        "samples": [{"timings": r["timings"], "cpu": r["cpu"], "traced": i >= len(untraced),
                     "norm": r.get("norm"),
                     "ready_s": r.get("ready_s"), "ready_ref": r.get("ready_ref"),
                     "rss_mb": r.get("rss_mb")}
                    for i, r in enumerate(untraced + traced)],
    }
    if trace:
        record["levels"] = spans.levels([r["spans"] for r in traced])
        record["spans"] = [s for r in traced for s in r["spans"]]
    return record


def write_record(record: dict) -> str:
    os.makedirs(RESULTS, exist_ok=True)
    base = os.path.join(RESULTS, f"{record['workload']}-seed{record['seed']}"
                                 f"-trace{record['trace']}")
    spans_list = record.pop("spans", None)
    if spans_list is not None:
        with open(base + ".spans.jsonl", "w") as fh:
            for s in spans_list:
                fh.write(json.dumps(s) + "\n")
        record["spans_file"] = os.path.relpath(base + ".spans.jsonl", ROOT)
    with open(base + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
    return base + ".json"


def summary_line(record: dict) -> str:
    unit = units()
    return json.dumps({
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": val, "unit": unit[name]}
                    for name, val in record["metrics"].items()}})


def load_golden() -> dict:
    with open(os.path.join(BENCH, "golden.json")) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "lcdlab", "__init__.py")):
        print(f"bench: no lcdlab sources under {ROOT}/src", file=sys.stderr)
        return 2
    # one core for the run and every worker it starts: the probes and the
    # work they measure then always share it, and no worker migrates
    # between cores within a timed step
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        record = run_workload(args.workload, WORKLOADS[args.workload], args.seed,
                              args.seconds, bool(args.trace), load_golden())
    except HarnessError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    path = write_record(record)
    for c in record["failed_checks"]:
        print(f"FAILED {c[0]}: {c[2]}", file=sys.stderr)
    for f in record["findings"]:
        print(f"finding: {f}", file=sys.stderr)
    print(f"results: {os.path.relpath(path, ROOT)}")
    if record["absent"]:
        print("absent: " + ", ".join(record["absent"]))
    print(summary_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
