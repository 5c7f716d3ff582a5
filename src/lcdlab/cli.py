"""Command-line front end.

Subcommands: family, bounds, classify, census, search, verify-octal,
reproduce.  Exit codes: 0 success, 1 verification mismatch or nothing
found, 2 usage (bad options or parameters, or a database directory that
cannot be used; one line on stderr).  The database directory comes from
--db, overridden by LCDLAB_DB, and is created before any work; a --jobs
outside 1..os.cpu_count() is refused before that.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time

from . import bounds, families, formats, tables
from .classify import check_jobs, classify, lcd_census, levels_by_columns
from .code import profile_codes
from .gf2 import BitMatrix
from .search import SearchBudget, search_lcd


def _db_dir(args) -> str | None:
    """The database directory, created before any work is done."""
    db_dir = os.environ.get("LCDLAB_DB") or args.db
    if db_dir:
        os.makedirs(db_dir, exist_ok=True)
    return db_dir


def _emit(args, report: dict):
    if args.json:
        print(formats.to_json(report))
    else:
        for key, val in report.items():
            print(f"{key}: {json.dumps(val, sort_keys=True)}")


def _write_manifest(db_dir: str | None, command: str, params: dict,
                    seed, started: float, digest_src: str):
    if not db_dir:
        return
    manifest = {
        "command": command,
        "parameters": params,
        "seed": seed,
        "started": started,
        "finished": time.time(),
        "digest": hashlib.sha256(digest_src.encode()).hexdigest(),
    }
    formats.write_atomic(os.path.join(db_dir, f"manifest-{command}.json"),
                         json.dumps(manifest, indent=2, sort_keys=True))


def cmd_family(args) -> int:
    verdict = families.family_code(args.k, args.s, args.t)
    av = families.family_affine_vector(args.k, args.s)
    report = formats.code_report(
        verdict.code,
        claimed={"n": verdict.claimed_n, "d": verdict.claimed_d, "is_lcd": True},
        params={"k": args.k, "s": args.s, "t": args.t})
    if args.emit in ("we", "all"):
        swe = families.symbolic_weight_enumerator(args.k, av)
        report["symbolic_weight_enumerator"] = [
            {"multiplicity": m, "exponent": str(e)} for m, e in swe.terms]
    if args.emit in ("det", "all"):
        report["gram_det_coefficients"] = list(
            families.symbolic_gram_det(args.k, av))
    if args.emit in ("code", "all"):
        code = verdict.code
        report["generator_rows"] = str(code.generator).splitlines()
        block = BitMatrix(code.k, code.n - code.k,
                          tuple(r >> code.k for r in code.generator.data))
        report["octal"] = formats.encode_octal(block)
    _emit(args, report)
    return 0 if report["match"] else 1


def cmd_bounds(args) -> int:
    entry = bounds.known_lcd_d(args.n, args.k)
    closed = (bounds.closed_form_bound(args.n, args.k)
              if args.k in (4, 5) else None)
    report = formats.bounds_report(args.n, args.k, entry,
                                   bounds.griesmer_dmax(args.n, args.k), closed)
    _emit(args, report)
    return 0


def cmd_classify(args) -> int:
    started = time.time()
    db_dir = _db_dir(args)
    db = classify(args.n, args.k, args.d, db_dir=db_dir, jobs=args.jobs)
    census = lcd_census(db)
    report = formats.census_report(census)
    report["method"] = db.method
    _emit(args, report)
    _write_manifest(db_dir, "classify",
                    {"n": args.n, "k": args.k, "d": args.d}, None, started,
                    formats.codedb_dumps(db))
    return 0


def cmd_census(args) -> int:
    db = classify(args.n, args.k, args.d, db_dir=_db_dir(args), jobs=args.jobs)
    _emit(args, formats.census_report(lcd_census(db)))
    return 0


def cmd_search(args) -> int:
    budget = SearchBudget(max_iterations=args.iters, rng_seed=args.seed,
                          restarts=args.restarts)
    started = time.time()
    db_dir = _db_dir(args)
    code = search_lcd(args.n, args.k, args.d, budget)
    if code is None:
        _emit(args, {"params": {"n": args.n, "k": args.k, "d": args.d},
                     "found": False})
        return 1
    report = formats.code_report(code, claimed={"is_lcd": True},
                                 params={"n": args.n, "k": args.k, "d": args.d})
    report["found"] = True
    _emit(args, report)
    _write_manifest(db_dir, "search",
                    {"n": args.n, "k": args.k, "d": args.d}, args.seed,
                    started, str(code.generator.data))
    return 0


def _verify_octal_table(groups, k: int, out: list[str]) -> bool:
    """Check each fixture generator: its [n, k, d], that it is not LCD,
    and a lossless octal round trip; the table's weights and hulls come
    from one profile_codes call: one type_counts pass and one
    message_weights transform, whose weights also give the hulls."""
    fixtures = [(n, d, idx, s, formats.code_from_octal(s, n, k))
                for (n, d), strings in groups
                for idx, s in enumerate(strings, start=1)]
    profile_codes([code for *_, code in fixtures])
    ok = True
    for n, d, idx, s, code in fixtures:
        good = (code.n == n and code.k == k and code.min_weight() == d
                and not code.is_lcd()
                and formats.encode_octal(formats.decode_octal(s, n, k)) == s)
        ok &= good
        out.append(f"{'PASS' if good else 'FAIL'} [{n},{k},{d}] #{idx}")
    return ok


def _is_lcd_witness(n: int, k: int, d: int, rows) -> bool:
    code = formats.systematic_code(formats.parse_binary_rows(rows, k))
    return code.n == n and code.min_weight() == d and code.is_lcd()


def _verify_lcd_witnesses(k: int, out: list[str]) -> bool:
    ok = True
    for n, (d, rows) in sorted(families.DIMENSIONS[k].lcd_witnesses.items()):
        good = _is_lcd_witness(n, k, d, rows)
        ok &= good
        out.append(f"{'PASS' if good else 'FAIL'} lcd witness [{n},{k},{d}]")
    return ok


def cmd_verify_octal(args) -> int:
    out: list[str] = []
    ok = True
    for k, dim in families.DIMENSIONS.items():
        if args.table in (f"dim{k}", "all"):
            ok &= _verify_octal_table(dim.generators, k, out)
    if args.table in ("m-table", "all"):
        ok &= _verify_lcd_witnesses(5, out)
    print("\n".join(out))
    return 0 if ok else 1


def _reproduce_checks(suite: str, full: bool, db_dir: str | None, jobs: int):
    # Default arguments bind each check's k and tables when it is made, so
    # the checks stay right when collected before any of them runs.
    dims = {k: dim for k, dim in families.DIMENSIONS.items()
            if suite in (f"dim{k}", "all")}
    count_levels = _count_levels(dims)
    for k, dim in dims.items():
        res = range((1 << k) - 1)
        yield (f"families dim{k} (t<={dim.t_checked})",
               lambda k=k, dim=dim, res=res: all(
                   v.match for v in families.family_codes(k, [
                       (s, t) for s in res
                       for t in range(families.family_t_min(k, s),
                                      dim.t_checked + 1)])))
        yield (f"weight enumerators dim{k}", lambda k=k, res=res:
               families.symbolic_weight_enumerators(k, [
                   families.family_affine_vector(k, s) for s in res])
               == [families.expected_symbolic_we(k, s) for s in res])
        yield (f"gram determinants dim{k}", lambda k=k, dim=dim, res=res:
               families.symbolic_gram_dets(k, [
                   families.family_affine_vector(k, s) for s in res])
               == [dim.det[s] for s in res]
               and all(families.det_is_odd_everywhere(dim.det[s]) for s in res))
        yield (f"generator fixtures dim{k}",
               lambda k=k, dim=dim: _verify_octal_table(dim.generators, k, []))
        if dim.lcd_witnesses:
            yield (f"lcd witnesses dim{k}",
                   lambda k=k: _verify_lcd_witnesses(k, []))
        yield (f"counts dim{k} (k<=3)", lambda k=k, dim=dim: all(
            _counts_are(k, kk, dim.counts, count_levels(kk)) for kk in (3, 2)))
    if suite in ("bounds", "all"):
        yield ("griesmer case formulas", lambda: all(
            bounds.closed_form_bound(n, k) == bounds.griesmer_dmax(n, k)
            for k in (4, 5) for n in range(k, k + 466)))
        yield ("largest-minimum-weight ledger", lambda: all(
            bounds.known_lcd_d(n, k).exact == v
            for (n, k), v in tables.KNOWN_LCD_D.items()))
    for k, dim in dims.items():
        if full:
            for (n, d), strings in dim.generators:
                yield (f"classification [{n},{k},{d}]",
                       lambda n=n, k=k, d=d, strings=strings: _census_is(
                           n, k, d, strings, db_dir, jobs))
    if full and suite in ("bounds", "all"):
        yield ("ledger values below the family range",
               lambda: _below_range_certified(db_dir, jobs))


def _count_levels(dims):
    """For the counts tables of dims, a function of kk = 3, 2 that gives
    levels_by_columns(kk, ...) over the lengths n - k + kk of every
    table's rows (n, d), each enumerated once from its least d: one call
    per kk, made at first use and kept for the run, so a length that
    several tables share is built once."""
    lengths: dict[int, dict[int, int]] = {3: {}, 2: {}}
    for k, dim in dims.items():
        for n, d in dim.counts:
            for kk, by_length in lengths.items():
                nn = n - k + kk
                by_length[nn] = min(d, by_length.get(nn, d))
    return functools.cache(lambda kk: levels_by_columns(kk, lengths[kk]))


def _counts_are(k, kk, counts, levels) -> bool:
    """For each row (n, d) of a DIMENSIONS counts table, the
    [n - k + kk, kk, d + j] levels hold row[f"k{kk}"][j] classes, read from
    levels, which holds every level from the least d of each length up to
    its Griesmer maximum; a level above that maximum holds none."""
    return all((levels[n - k + kk, d + j].count
                if (n - k + kk, d + j) in levels else 0) == v
               for (n, d), row in counts.items()
               for j, v in enumerate(row[f"k{kk}"]))


def _census_is(n, k, d, strings, db_dir, jobs) -> bool:
    """The classes of [n, k, d] are exactly the fixtures, and none is LCD."""
    db = classify(n, k, d, db_dir=db_dir, jobs=jobs)
    fixtures = sorted(formats.code_from_octal(s, n, k).canonical_key()
                      for s in strings)
    return list(db.keys()) == fixtures and lcd_census(db).lcd_count == 0


def _below_range_certified(db_dir, jobs) -> bool:
    """Every exact k = 4, 5 value that names a witness or a census, not a
    family member, is the Griesmer maximum, and an LCD code attains it:
    the verified witness, or an LCD class in the level's census."""
    checks = []
    for k, dim in families.DIMENSIONS.items():
        q = (1 << k) - 1
        top = q * max(families.family_t_min(k, s) for s in range(q))
        for n in range(k, top + q):
            entry = bounds.known_lcd_d(n, k)
            d = entry.exact
            if entry.provenance == f"dimension-{k}-witness":
                lcd = _is_lcd_witness(n, k, d, dim.lcd_witnesses[n][1])
            elif entry.provenance == f"dimension-{k}-census":
                db = classify(n, k, d, db_dir=db_dir, jobs=jobs)
                lcd = lcd_census(db).lcd_count >= 1
            else:
                continue
            checks.append(lcd and d == bounds.griesmer_dmax(n, k))
    return bool(checks) and all(checks)


def cmd_reproduce(args) -> int:
    started = time.time()
    db_dir = _db_dir(args)
    all_ok = True
    results = []
    for name, check in _reproduce_checks(args.suite, args.full, db_dir,
                                         args.jobs):
        t0 = time.time()
        try:
            ok = bool(check())
        except Exception as exc:  # a crash is a failure, not an abort
            ok = False
            name = f"{name} ({type(exc).__name__}: {exc})"
        all_ok &= ok
        results.append(f"{'PASS' if ok else 'FAIL'}  {name}")
        print(f"{results[-1]}  [{time.time() - t0:.1f}s]", flush=True)
    _write_manifest(db_dir, "reproduce", {"suite": args.suite,
                                          "full": args.full}, None, started,
                    "\n".join(results))
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lcdlab",
        description="Binary LCD codes: families, bounds, search, classification")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, json_flag=True, db=True, jobs=True):
        if json_flag:
            p.add_argument("--json", action="store_true", help="machine output")
        if db:
            p.add_argument("--db", default=None,
                           help="database directory (env LCDLAB_DB overrides)")
        if db and jobs:
            p.add_argument("--jobs", type=int, default=1,
                           help="parallel workers for classification")

    p = sub.add_parser("family", help="build and verify a family member")
    p.add_argument("--k", type=int, required=True, choices=(4, 5))
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--emit", choices=("we", "det", "code", "all"), default="all")
    common(p, db=False)
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("bounds", help="bound and known-value report")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    common(p, db=False)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("classify", help="classify [n,k,d] codes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("census", help="LCD census of a classification")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("search", help="heuristic LCD witness search")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--iters", type=int, default=1_000_000)
    p.add_argument("--restarts", type=int, default=64)
    common(p, jobs=False)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("verify-octal", help="verify fixture generator tables")
    p.add_argument("--table", choices=("dim4", "dim5", "m-table", "all"),
                   default="all")
    p.set_defaults(func=cmd_verify_octal)

    p = sub.add_parser("reproduce", help="run the verification matrix")
    p.add_argument("--suite", choices=("dim4", "dim5", "bounds", "all"),
                   default="all")
    p.add_argument("--full", action="store_true",
                   help="also census every fixture level and check the "
                        "ledger's short lengths")
    common(p, json_flag=False)
    p.set_defaults(func=cmd_reproduce)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "jobs", None) is not None:
            check_jobs(args.jobs)  # before the database directory is made
        return args.func(args)
    except (ValueError, OSError) as exc:  # outside a domain; unusable --db
        print(f"lcdlab: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
