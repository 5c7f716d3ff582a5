"""Spans around lcdlab's layer functions, and per-layer summaries.

``install`` replaces each layer function named in ``LAYERS`` by a
wrapper that records a span (name, start, end, parent, run id, counts)
in memory.  The wrapper is bound wherever the original was, in every
loaded lcdlab module, so calls through ``from .x import f`` bindings
are traced too.  Nothing under ``src/`` changes.  ``summarize`` turns
the spans of one phase into the per-layer metrics: self time (span time
minus the time its child spans cover) and counts, per pass of the
workload.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from collections import defaultdict


def _direct(args, db):
    return {"n": args[0], "k": args[1], "d": args[2], "classes": db.count}


def _level(args, dbs):
    seed_dbs, d = args[0], args[1]
    return {"n": seed_dbs[0].n + 1, "k": seed_dbs[0].k + 1, "d": d,
            "classes": {str(dd): db.count for dd, db in dbs.items()}}


# (span name, module, attribute, counts from (args, result) or None)
LAYERS = (
    ("classify.direct", "classify", "classify_by_columns", _direct),
    ("classify.level", "classify", "_extend_all", _level),
    ("classify.extend", "classify", "_extend_seed",
     lambda args, res: {"candidates": len(res[1])}),
    ("classify.coset_bfs", "classify", "_coset_leader_weights", None),
    ("classify.dedupe", "classify", "_dedupe_canonical",
     lambda args, res: {"in": sum(len(a) for a in args[0]), "out": len(res)}),
    ("classify.verify_reps", "classify", "_build_db",
     lambda args, res: {"count": res.count}),
    ("canonical.backtrack", "canonical", "_canonical_counts_backtrack", None),
    ("canonical.gl_table", "canonical", "gl2_type_permutations", None),
    ("code.min_weight", "code", "LinearCode.min_weight", None),
    ("code.is_lcd", "code", "LinearCode.is_lcd", None),
    ("families.family_code", "families", "family_code", None),
    ("families.symbolic_we", "families", "symbolic_weight_enumerator", None),
    ("families.gram_det", "families", "symbolic_gram_det", None),
    ("bounds", "bounds", "griesmer_dmax", None),
    ("bounds", "bounds", "closed_form_bound", None),
    ("bounds", "bounds", "known_lcd_d", None),
    ("formats.save", "formats", "save_codedb",
     lambda args, res: {"bytes": os.path.getsize(args[1])}),
    ("formats.load", "formats", "load_codedb", None),
    ("search.search_lcd", "search", "search_lcd",
     lambda args, res: {"hit": res is not None}),
)


class Tracer:
    """Spans of one worker, kept in memory until the job ends."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name, "run": self.run_id,
               "parent": self._open[-1] if self._open else None,
               "start": time.perf_counter(), "end": None, "attrs": {}}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            self._open.pop()
            rec["end"] = time.perf_counter()

    def wrap(self, name: str, fn, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if counts is not None:
                try:
                    rec["attrs"].update(counts(args, result))
                except Exception as exc:  # a counter must not break the job
                    rec["attrs"]["count_error"] = repr(exc)
            return result
        return traced


def install(tracer: Tracer) -> list[str]:
    """Wrap every layer function; return the span names not found."""
    modules = [m for name, m in list(sys.modules.items())
               if name == "lcdlab" or name.startswith("lcdlab.")]
    absent = []
    for name, mod_name, attr, counts in LAYERS:
        mod = sys.modules[f"lcdlab.{mod_name}"]
        owner_name, _, member = attr.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        orig = getattr(owner, member, None)
        if orig is None:
            absent.append(name)
            continue
        wrapper = tracer.wrap(name, orig, counts)
        if owner_name:
            setattr(owner, member, wrapper)
            continue
        for m in modules:
            for key, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, key, wrapper)
    return sorted(set(absent))


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, child)]


def summarize(span_lists: list[list[dict]], passes: int) -> dict[str, float]:
    """Per-layer self seconds, calls and counts per pass of the workload."""
    tot: dict[str, float] = defaultdict(float)
    for spans in span_lists:
        for s, own in zip(spans, self_times(spans)):
            name, attrs = s["name"], s["attrs"]
            tot[f"{name}.s"] += own
            tot[f"{name}.calls"] += 1
            for key in ("candidates", "in", "out", "count", "bytes", "classes"):
                if isinstance(attrs.get(key), (int, float)):
                    tot[f"{name}.{key}"] += attrs[key]
    return {k: v / passes for k, v in tot.items()}


def levels(span_lists: list[list[dict]]) -> list[dict]:
    """Per-level detail: seeds, candidates, classes and seconds per (n, k, d')."""
    out = []
    for spans in span_lists:
        for s in spans:
            a = s["attrs"]
            if s["name"] == "classify.direct" and "classes" in a:
                out.append({"n": a["n"], "k": a["k"], "d": a["d"], "method": "columns",
                            "classes": {str(a["d"]): a["classes"]},
                            "seconds": s["end"] - s["start"]})
            elif s["name"] == "classify.level" and "classes" in a:
                kids = [c for c in spans
                        if c["parent"] == s["id"] and c["name"] == "classify.extend"]
                out.append({"n": a["n"], "k": a["k"], "d": a["d"], "method": "extension",
                            "classes": a["classes"], "seeds": len(kids),
                            "candidates": sum(c["attrs"].get("candidates", 0)
                                              for c in kids),
                            "seconds": s["end"] - s["start"]})
    return out
