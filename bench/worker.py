"""Run one benchmark job in a fresh interpreter.

    python3 bench/worker.py SPEC.json RESULT.json

SPEC names the job and carries the golden answers its checks compare
against; RESULT receives the job's timings, checks, peak memory and,
when traced, its spans.  ``run.py`` starts one worker per job, so every
job pays interpreter start, imports and first-use table builds, as a
command-line user does.  The worker reaches lcdlab only through its
modules' functions and never edits the sources; tracing patches module
attributes in memory (see ``spans.py``).
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
import traceback
from types import SimpleNamespace

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
MODULES = ("bounds", "canonical", "classify", "cli", "code", "families",
           "formats", "search", "tables")
LEDGER_KS = (4, 5, 6)
PROBE_EVERY_S = 1.0  # reference probes inside an untraced timed region


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def import_lcdlab() -> SimpleNamespace:
    """The lcdlab modules, imported from this checkout's ``src``.

    ``lcdlab/__init__`` re-exports the function ``classify`` over the
    submodule attribute, so modules are reached through importlib.
    """
    if not os.path.isfile(os.path.join(SRC, "lcdlab", "__init__.py")):
        raise SystemExit(f"no lcdlab sources under {SRC}")
    sys.path.insert(0, SRC)
    mods = {m: importlib.import_module(f"lcdlab.{m}") for m in MODULES}
    if not mods["classify"].__file__.startswith(SRC + os.sep):
        raise SystemExit(f"lcdlab imported from {mods['classify'].__file__}, not {SRC}")
    return SimpleNamespace(**mods)


def rng_seed(seed: int, rnd: int, index: int, salt: str) -> int:
    """A search seed derived from the workload seed, stable across Pythons."""
    digest = hashlib.sha256(f"{seed}:{rnd}:{index}:{salt}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


class Job:
    """The steps of one job, run in order in this process; ``spec`` holds
    the current step merged over the job-level fields."""

    def __init__(self, lcd, tracer):
        self.lcd = lcd
        self.spec: dict = {}
        self.tracer = tracer
        self.timings: dict[str, float] = {}
        self.cpu: dict[str, float] = {}
        self.norm: dict[str, float] = {}
        self.checks: list[list] = []
        self.files: dict[str, str] = {}
        self.written: dict[str, list[str]] = {}
        self.census: dict[str, list[int]] = {}
        self.findings: list[str] = []
        self.search = {"targets": 0, "hits": 0}
        self._region: dict | None = None

    def check(self, name: str, ok: bool, detail: str = ""):
        self.checks.append([name, bool(ok), "" if ok else detail])

    @contextlib.contextmanager
    def timed(self, metric: str):
        """Add the region's seconds to ``metric``.  With a reference, also
        add its time in units of the reference: each stretch between two
        reference probes, at the region's ends and, untraced, every
        ``PROBE_EVERY_S`` within it, counts its seconds over the mean of
        those two probes.  Probe time is left out."""
        probe = REFERENCES.get(self.spec.get("reference", "interpreter"))
        span = (self.tracer.span(f"job.{metric}") if self.tracer
                else contextlib.nullcontext())
        region = {"wall": 0.0, "cpu": 0.0, "norm": 0.0, "probe": probe,
                  "ref": probe() if probe else None, "timer": probe and not self.tracer}
        wall, cpu = time.perf_counter(), time.process_time()
        region["mark"], self._region = wall, region
        if region["timer"]:
            signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S)
        try:
            with span:
                yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            region["timer"] = False
        self.checkpoint()
        self._region = None
        wall = time.perf_counter() - wall - region["wall"]
        cpu = time.process_time() - cpu - region["cpu"]
        self.timings[metric] = self.timings.get(metric, 0.0) + wall
        self.cpu[metric] = self.cpu.get(metric, 0.0) + cpu
        if probe:
            self.norm[metric] = self.norm.get(metric, 0.0) + region["norm"]

    def checkpoint(self, *_signal):
        """Probe the reference inside a timed region (SIGALRM handler):
        a long region is then measured against the machine's speed along
        the way and not only at its ends.  The timer is one-shot and
        re-armed after the probe, so probes never nest."""
        region = self._region
        if region is None or region["ref"] is None:
            return
        now, cpu = time.perf_counter(), time.process_time()
        ref = region["probe"]()
        region["norm"] += (now - region["mark"]) / ((region["ref"] + ref) / 2)
        region["ref"] = ref
        region["mark"] = time.perf_counter()
        region["wall"] += region["mark"] - now
        region["cpu"] += time.process_time() - cpu
        if region["timer"]:
            signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S)

    # -- checks shared by the ladder jobs -----------------------------------

    def check_written(self, db_dir: str, expected: list[str] | None):
        golden = self.spec["golden_files"]
        written = sorted(f for f in os.listdir(db_dir) if f.endswith(".codedb"))
        self.written[self.spec["name"]] = written
        for f in written:
            digest = sha256_file(os.path.join(db_dir, f))
            self.files[f] = digest
            self.check(f"bytes {f}", golden.get(f) == digest,
                       f"sha256 {digest} != golden {golden.get(f)}")
        if expected is not None:
            self.check(f"levels written by {self.spec['name']}",
                       written == expected, f"{written} != {expected}")

    def check_census(self, db, census):
        name = self.spec["name"]
        self.census[name] = [census.count, census.lcd_count]
        want = self.spec["census"].get(name)
        self.check(f"census {name}", [census.count, census.lcd_count] == want,
                   f"(count, lcd_count) = {(census.count, census.lcd_count)}, want {want}")
        if self.spec.get("fixture"):
            n, k, d = db.n, db.k, db.d
            groups = dict(self.lcd.tables.DIM4_GENERATORS if k == 4
                          else self.lcd.tables.DIM5_GENERATORS)
            keys = sorted(self.lcd.formats.code_from_octal(s, n, k).canonical_key()
                          for s in groups[(n, d)])
            self.check(f"class keys {name} = fixtures", list(db.keys()) == keys,
                       f"{len(db.keys())} keys against {len(keys)} fixtures")

    # -- the job kinds ------------------------------------------------------

    def run_classify(self):
        s, lcd = self.spec, self.lcd
        with self.timed(f"classify_s.{s['name']}"):
            db = lcd.classify.classify(s["n"], s["k"], s["d"], db_dir=s["db_dir"],
                                       jobs=1)
            census = lcd.classify.lcd_census(db)
        self.check_census(db, census)
        self.check_written(s["db_dir"], s["ladders"].get(s["name"]))

    def run_extend(self):
        """Extend complete (or picked) seed levels one dimension up.

        Seeds come from stored level files under ``seed_dir`` or, without
        one, from cold direct enumeration saved as the ladder would."""
        s, lcd = self.spec, self.lcd
        n1, k1, d = s["n"] - 1, s["k"] - 1, s["d"]
        stored = {}
        with self.timed(f"extend_s.{s['name']}"):
            seed_dbs = []
            for dd in range(d, lcd.bounds.griesmer_dmax(n1, k1) + 1):
                fname = f"n{n1}k{k1}d{dd}.codedb"
                if s.get("seed_dir"):
                    path = os.path.join(s["seed_dir"], fname)
                    stored[fname] = path
                    db = lcd.formats.load_codedb(path)
                else:
                    db = lcd.classify.classify_by_columns(n1, k1, dd)
                    lcd.formats.save_codedb(db, os.path.join(s["db_dir"], fname))
                seed_dbs.append(db)
            if s.get("pick") is not None:
                seed_dbs = _pick_seeds(seed_dbs, set(s["pick"]))
            db = lcd.classify.extend_by_inverse_shortening(seed_dbs, d, jobs=1)
            lcd.formats.save_codedb(
                db, os.path.join(s["db_dir"], f"n{s['n']}k{s['k']}d{d}.codedb"))
            census = lcd.classify.lcd_census(db)
        golden = s["golden_files"]
        for fname, path in stored.items():
            self.files[fname] = sha256_file(path)
            self.check(f"bytes stored {fname}", golden.get(fname) == self.files[fname],
                       f"stored seed level {fname} differs from golden")
        self.check_census(db, census)
        self.check_written(s["db_dir"], None)

    def run_verify(self):
        s, lcd = self.spec, self.lcd
        out = io.StringIO()
        with self.timed("matrix_s"), contextlib.redirect_stdout(out):
            rc = lcd.cli.main(["reproduce", "--suite", "all"])
        lines = out.getvalue().splitlines()
        self.check("reproduce exit code", rc == 0, f"exit code {rc}")
        failing = [ln for ln in lines if not ln.startswith("PASS")]
        self.check("reproduce checks pass", not failing, "; ".join(failing))
        self.check("reproduce check count", len(lines) == s["matrix_checks"],
                   f"{len(lines)} checks, want {s['matrix_checks']}")
        paths = sorted(os.path.join(s["ladder_dir"], f)
                       for f in os.listdir(s["ladder_dir"]) if f.endswith(".codedb"))
        reps = s["census_reps"]
        with self.timed("census_s"):
            for _ in range(reps):
                got = {}
                for path in paths:
                    census = lcd.classify.lcd_census(lcd.formats.load_codedb(path))
                    got[os.path.basename(path)[:-len(".codedb")]] = [
                        census.count, census.lcd_count]
        for field in (self.timings, self.cpu, self.norm):
            if "census_s" in field:
                field["census_s"] /= reps
        self.check("census levels", len(got) > 0, "ladder database is empty")
        self.census.update(got)
        for level, counts in sorted(got.items()):
            want = s["census"].get(level)
            self.check(f"census {level}", counts == want, f"{counts} != {want}")

    def _targets(self, offset: int) -> list[tuple[int, int, int]]:
        """Ledger targets: exact values (offset 0) or one above (offset 1),
        kept only where the Griesmer bound admits them."""
        s, lcd = self.spec, self.lcd
        if s.get("targets") is not None:
            return [tuple(t) for t in s["targets"]]
        out = []
        for (n, k), d in sorted(lcd.tables.KNOWN_LCD_D.items()):
            if k in LEDGER_KS and d + offset <= lcd.bounds.griesmer_dmax(n, k):
                out.append((n, k, d + offset))
        return out

    def _search(self, targets, budget_of, metric: str) -> list:
        """Search each target, timed one by one so that each is measured
        against a reference probe taken at its own start and end."""
        found = []
        for i, (n, k, d) in enumerate(targets):
            with self.timed(metric):
                found.append(self.lcd.search.search_lcd(n, k, d, budget_of(i)))
        for (n, k, d), code in zip(targets, found):
            if code is not None:
                ok = (code.n, code.k) == (n, k) and code.min_weight() >= d \
                    and code.is_lcd()
                self.check(f"witness [{n},{k},{d}]", ok,
                           f"search returned a code that is not an LCD [{n},{k},>={d}]")
        return found

    def run_sweep(self):
        """Fixed-work search one above each ledger value: every search
        runs its full step budget unless it beats the ledger.  Its seeds
        are fixed, so every pass of every run sweeps the same paths."""
        s = self.spec
        budget = s["budget"]
        targets = self._targets(1)
        found = self._search(
            targets, lambda i: self.lcd.search.SearchBudget(
                max_iterations=budget, restarts=budget,
                rng_seed=rng_seed(0, 0, i, "sweep")),
            "sweep_s")
        self.findings += [f"LCD [{n},{k},{d}] found, above the ledger value {d - 1}"
                          for (n, k, d), code in zip(targets, found) if code is not None]

    def run_witness(self):
        """Search at the exact ledger value; a miss proves nothing."""
        s = self.spec
        targets = self._targets(0)
        found = self._search(
            targets, lambda i: self.lcd.search.SearchBudget(
                max_iterations=s["iterations"],
                rng_seed=rng_seed(s["seed"], s["round"], i, "witness")),
            "search_s")
        self.search = {"targets": len(targets),
                       "hits": sum(code is not None for code in found)}


_SMALL = np.arange(64)


def _median_time(fn, reps: int = 5) -> float:
    """Median seconds of ``reps`` calls: it ignores a call hit by an interrupt."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _interpreter_work():
    acc, seen = 0, {}
    for i in range(12_000):
        acc += (i * i) % 7
        seen[i & 255] = acc
    for _ in range(120):
        (_SMALL[:, None] & _SMALL[None, :]).sum()


def reference() -> float:
    """Seconds of a fixed mix of interpreter and small-array numpy work,
    the kind of code imports, the verification matrix and the hill
    climber spend their time in.

    The references use no lcdlab code, so no change to the program can
    move them; they measure how fast the machine runs this kind of code
    at the moment of the probe."""
    return _median_time(_interpreter_work)


_COLUMNS = np.unique(np.random.default_rng(0).integers(1, 1 << 15, 20, dtype=np.uint32))


def _bfs_work():
    """A frozen copy of the extension kernel's coset BFS (XOR broadcast,
    gather, scatter and ``np.unique`` over frontier chunks) on a fixed
    random instance with 2**15 syndromes.  Chunks of 2048 frontier rows
    keep its arrays under 1 MiB, so that a probe taken while the program
    holds its largest arrays barely moves the peak memory."""
    dist = np.full(1 << 15, 255, dtype=np.uint8)
    dist[0] = 0
    frontier = np.zeros(1, dtype=np.uint32)
    w = 0
    while frontier.size:
        w += 1
        parts = []
        for lo in range(0, frontier.size, 2048):
            cand = (frontier[lo:lo + 2048, None] ^ _COLUMNS[None, :]).ravel()
            cand = cand[dist[cand] == 255]
            if cand.size:
                dist[cand] = w
                parts.append(np.unique(cand))
        frontier = np.concatenate(parts) if parts else np.empty(0, dtype=np.uint32)


def reference_kernel() -> float:
    """Seconds of ``_bfs_work``: the ladders spend nearly all their time
    in this kind of array code, whose speed the interpreter probe does
    not track."""
    return _median_time(_bfs_work, 3)


REFERENCES = {"interpreter": reference, "kernel": reference_kernel}


def _pick_seeds(seed_dbs, pick: set[int]):
    """Keep the seeds whose position in level order is in ``pick``."""
    out, index = [], 0
    for db in seed_dbs:
        keep = tuple(r for i, r in enumerate(db.records, start=index) if i in pick)
        index += len(db.records)
        out.append(dataclasses.replace(db, records=keep))
    return out


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    lcd = import_lcdlab()
    tracer, absent = None, []
    if spec["trace"]:
        import spans
        tracer = spans.Tracer(spec["run_id"])
        absent = spans.install(tracer)
    ready = time.time() - spec["spawned_at"]
    ready_ref = reference()
    job = Job(lcd, tracer)
    signal.signal(signal.SIGALRM, job.checkpoint)
    for step in spec["steps"]:
        job.spec = dict(spec, **step, db_dir=os.path.join(spec["db_dir"], step["name"]))
        os.makedirs(job.spec["db_dir"])
        try:
            getattr(job, f"run_{step['kind']}")()
        except Exception:  # a crash is a failed check, reported with its traceback
            job.check(f"{step['kind']} {step['name']} ran", False,
                      traceback.format_exc())
    result = {
        "ready_s": ready, "ready_ref": ready_ref,
        "timings": job.timings, "cpu": job.cpu, "norm": job.norm, "checks": job.checks,
        "files": job.files, "written": job.written, "census": job.census,
        "findings": job.findings,
        "search": job.search,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "python": platform.python_version(), "numpy": np.__version__,
        "absent": absent,
        "spans": tracer.spans if tracer else [],
    }
    tmp = result_path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(result, fh)
    os.replace(tmp, result_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
