"""Record the benchmark's golden answers from the current code.

Runs the four criterion-6 classifications cold, each into a fresh
database directory, and writes ``bench/golden.json``: the sha256 of every
``.codedb`` file at every ladder level, the census of each final level
and of every level of the ``[22,4,11]`` ladder, and the number of checks
in ``lcdlab reproduce --suite all``.  It also stores the ``[24,4,12]``
level in ``bench/data/``, the seed level the ``ladder-dim5`` workload
extends.  Takes about two minutes on one core.

    python3 bench/record_golden.py

The committed golden.json was recorded from the code the benchmark was
written against; regenerate it only when a change to the answers is
intended and reviewed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile

from worker import ROOT, import_lcdlab, sha256_file

LADDERS = ((22, 4, 11), (23, 4, 12), (27, 4, 14), (25, 5, 12))
STORED_LEVEL = "n24k4d12.codedb"


def main() -> int:
    lcd = import_lcdlab()
    work = os.path.join(ROOT, ".bench_work")
    os.makedirs(work, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=work, prefix="golden-")
    golden: dict = {"files": {}, "ladders": {}, "census": {}}
    try:
        for n, k, d in LADDERS:
            name = f"n{n}k{k}d{d}"
            db_dir = os.path.join(tmp, name)
            census = lcd.classify.lcd_census(
                lcd.classify.classify(n, k, d, db_dir=db_dir))
            golden["census"][name] = [census.count, census.lcd_count]
            files = sorted(f for f in os.listdir(db_dir) if f.endswith(".codedb"))
            golden["ladders"][name] = files
            for f in files:
                digest = sha256_file(os.path.join(db_dir, f))
                if golden["files"].setdefault(f, digest) != digest:
                    raise SystemExit(f"{f} differs between ladders")
            if name == "n22k4d11":
                for f in files:
                    db = lcd.formats.load_codedb(os.path.join(db_dir, f))
                    c = lcd.classify.lcd_census(db)
                    golden["census"][f[:-len(".codedb")]] = [c.count, c.lcd_count]
            if STORED_LEVEL in files:
                shutil.copyfile(os.path.join(db_dir, STORED_LEVEL),
                                os.path.join(ROOT, "bench", "data", STORED_LEVEL))
            print(name, census.count, census.lcd_count, len(files), "files",
                  file=sys.stderr, flush=True)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = lcd.cli.main(["reproduce", "--suite", "all"])
        lines = out.getvalue().splitlines()
        if rc != 0 or not all(ln.startswith("PASS") for ln in lines):
            raise SystemExit("reproduce --suite all did not pass:\n" + out.getvalue())
        golden["matrix_checks"] = len(lines)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(os.path.join(ROOT, "bench", "golden.json"), "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
