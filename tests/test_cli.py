import gc
import importlib
import json
import os
import re
import weakref
from types import SimpleNamespace

import pytest

from lcdlab import cli, families
from lcdlab.bounds import griesmer_dmax
from lcdlab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_family_json(capsys):
    code, out = run(capsys, "family", "--k", "4", "--s", "4", "--t", "2", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["measured"]["n"] == 34 and rep["measured"]["d"] == 17
    assert rep["measured"]["is_lcd"] is True and rep["match"] is True


def test_family_emits_symbolic_parts(capsys):
    code, out = run(capsys, "family", "--k", "4", "--s", "2", "--t", "1",
                    "--emit", "all", "--json")
    rep = json.loads(out)
    assert rep["gram_det_coefficients"] == [1, -32, -96, 512, 1280]
    assert {"multiplicity": 8, "exponent": "8t"} in rep["symbolic_weight_enumerator"]
    assert len(rep["generator_rows"]) == 4


def test_bounds_json(capsys):
    code, out = run(capsys, "bounds", "--n", "24", "--k", "12", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["lcd_known"] == 6
    code, out = run(capsys, "bounds", "--n", "22", "--k", "4", "--json")
    rep = json.loads(out)
    assert rep["griesmer"] == 11 and rep["closed_form"] == 11
    assert rep["lcd_known"] == 10


def test_verify_octal(capsys):
    code, out = run(capsys, "verify-octal", "--table", "m-table")
    assert code == 0
    assert out.count("PASS") == 4 and "FAIL" not in out


def test_verify_octal_all(capsys):
    code, out = run(capsys, "verify-octal", "--table", "all")
    assert code == 0
    assert out.count("PASS") == 45 and "FAIL" not in out


def test_search_cli(capsys):
    code, out = run(capsys, "search", "--n", "17", "--k", "4", "--d", "8",
                    "--seed", "1", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["found"] is True and rep["measured"]["is_lcd"] is True
    code, out = run(capsys, "search", "--n", "22", "--k", "4", "--d", "11",
                    "--seed", "1", "--iters", "2000", "--restarts", "20",
                    "--json")
    assert code == 1
    assert json.loads(out)["found"] is False


def test_classify_and_census_cli(capsys, tmp_path):
    db = str(tmp_path / "db")
    code, out = run(capsys, "classify", "--n", "21", "--k", "3", "--d", "12",
                    "--db", db, "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["count"] == 1 and rep["lcd_count"] == 0
    assert os.path.exists(os.path.join(db, "n21k3d12.codedb"))
    assert os.path.exists(os.path.join(db, "manifest-classify.json"))
    code, out = run(capsys, "census", "--n", "21", "--k", "3", "--d", "12",
                    "--db", db, "--json")
    assert code == 0
    assert json.loads(out)["count"] == 1


def test_env_overrides_db(capsys, tmp_path, monkeypatch):
    env_db = str(tmp_path / "env")
    monkeypatch.setenv("LCDLAB_DB", env_db)
    code, _ = run(capsys, "classify", "--n", "8", "--k", "3", "--d", "3",
                  "--db", str(tmp_path / "flag"), "--json")
    assert code == 0
    assert os.path.exists(os.path.join(env_db, "n8k3d3.codedb"))
    assert not os.path.exists(str(tmp_path / "flag"))


def test_reproduce_bounds_suite(capsys):
    code, out = run(capsys, "reproduce", "--suite", "bounds")
    assert code == 0
    assert "FAIL" not in out and out.count("PASS") == 2


DIM4_CHECKS = ["families dim4 (t<=4)", "weight enumerators dim4",
               "gram determinants dim4", "generator fixtures dim4",
               "counts dim4 (k<=3)"]
DIM5_CHECKS = ["families dim5 (t<=3)", "weight enumerators dim5",
               "gram determinants dim5", "generator fixtures dim5",
               "lcd witnesses dim5", "counts dim5 (k<=3)"]
BOUNDS_CHECKS = ["griesmer case formulas", "largest-minimum-weight ledger"]
BELOW_RANGE = "ledger values below the family range"
DIM4_CENSUSES = ["classification [22,4,11]", "classification [23,4,12]",
                 "classification [26,4,13]", "classification [27,4,14]",
                 "classification [30,4,16]", "classification [30,4,15]",
                 "classification [31,4,16]"]
DIM5_CENSUSES = ["classification [25,5,12]", "classification [27,5,13]",
                 "classification [28,5,14]", "classification [29,5,14]",
                 "classification [30,5,15]"]


@pytest.mark.parametrize("suite, full, names", [
    ("all", False, DIM4_CHECKS + DIM5_CHECKS + BOUNDS_CHECKS),
    ("dim4", False, DIM4_CHECKS),
    ("dim5", False, DIM5_CHECKS),
    ("all", True, DIM4_CHECKS + DIM5_CHECKS + BOUNDS_CHECKS
     + DIM4_CENSUSES + DIM5_CENSUSES + [BELOW_RANGE]),
    ("dim5", True, DIM5_CHECKS + DIM5_CENSUSES),
    ("bounds", True, BOUNDS_CHECKS + [BELOW_RANGE]),
])
def test_reproduce_check_names_pinned(suite, full, names):
    got = [name for name, _ in cli._reproduce_checks(suite, full, None, 1)]
    assert got == names


def test_full_censuses_compare_classes_with_fixtures(capsys, tmp_path):
    db = str(tmp_path / "db")
    code, out = run(capsys, "reproduce", "--suite", "all", "--full", "--db", db)
    assert code == 0
    assert "FAIL" not in out and out.count("PASS") == 26
    # one fixture short of the level's classes is a failed check
    (n, d), strings = families.DIMENSIONS[4].generators[0]
    assert len(strings) == 2
    assert not cli._census_is(n, 4, d, strings[:1], db, 1)


@pytest.mark.parametrize("witness_ok, census_lcd", [
    (True, 1), (False, 1), (True, 0)])
def test_below_range_check_needs_every_lcd_code(monkeypatch, witness_ok,
                                                census_lcd):
    # the ledger values below the family range name a witness or a census;
    # the check fails as soon as one of them shows no LCD code
    seen = []
    monkeypatch.setattr(cli, "_is_lcd_witness", lambda n, k, d, rows:
                        seen.append((n, k, d)) or witness_ok)
    monkeypatch.setattr(cli, "classify",
                        lambda n, k, d, **kw: seen.append((n, k, d)))
    monkeypatch.setattr(cli, "lcd_census",
                        lambda db: SimpleNamespace(lcd_count=census_lcd))
    ok = cli._below_range_certified(None, 1)
    assert ok == (witness_ok and census_lcd == 1)
    assert sorted(seen) == [(9, 4, 4), (10, 4, 4), (11, 5, 4), (13, 4, 6),
                            (19, 5, 8), (20, 5, 9), (22, 5, 10), (26, 5, 12)]


def test_reproduce_checks_keep_their_dimension(monkeypatch):
    """Every dimK check, collected before any runs, works on k = K only."""
    checks = list(cli._reproduce_checks("all", False, None, 1))
    seen = []

    def spy(module, name, pos):
        """Record argument pos of each call, or (args, result) for None."""
        real = getattr(module, name)

        def wrapped(*args):
            result = real(*args)
            seen.append(args[pos] if pos is not None else (args, result))
            return result
        monkeypatch.setattr(module, name, wrapped)

    for name in ("family_codes", "family_t_min", "family_affine_vector",
                 "symbolic_weight_enumerator", "expected_symbolic_we",
                 "symbolic_gram_det"):
        spy(families, name, 0)
    spy(cli, "_verify_octal_table", 1)
    spy(cli, "_verify_lcd_witnesses", 0)
    spy(cli, "levels_by_columns", None)
    calls = []  # the levels_by_columns calls of the counts checks
    above = 0
    for name, check in checks:
        seen.clear()
        assert check(), name
        dim = re.search(r"dim(\d)", name)
        if dim is None:
            continue
        k = int(dim.group(1))
        if name.startswith("counts"):
            # the suite's first counts check makes the calls, the next
            # reuses them
            assert len(seen) == (0 if calls else 2), name
            calls += seen
            # a table entry above the Griesmer maximum must read 0
            for (n, d), row in families.DIMENSIONS[k].counts.items():
                for kk in (3, 2):
                    top = griesmer_dmax(n - k + kk, kk)
                    for j, v in enumerate(row[f"k{kk}"]):
                        if d + j > top:
                            above += 1
                            assert v == 0, (name, n, d, kk, j)
        else:
            assert seen and set(seen) == {k}, (name, set(seen))
    assert above
    # one call per kk = 3, 2 for the suite, over the union of every table's
    # lengths n-k+kk, each from its least d, holding every level up to the
    # Griesmer maximum
    want = {kk: {} for kk in (3, 2)}
    for k, dim in families.DIMENSIONS.items():
        for n, d in dim.counts:
            for kk, lengths in want.items():
                nn = n - k + kk
                lengths[nn] = min(d, lengths.get(nn, d))
    assert [args for args, _ in calls] == list(want.items())
    for (kk, lengths), levels in calls:
        assert list(levels) == [
            (nn, dd) for nn, d in lengths.items()
            for dd in range(d, griesmer_dmax(nn, kk) + 1)], kk


@pytest.mark.parametrize("entry, kk, j", [
    ((27, 13), "k3", 0),  # [25,3,13], a level the dim4 table also reads
    ((29, 14), "k2", 1),  # [26,2,15], a length only the dim5 table has
])
def test_shared_count_levels_still_check_each_table(capsys, monkeypatch,
                                                   entry, kk, j):
    """A dim5 count raised by one fails counts dim5 alone, also where its
    level is built once for both tables."""
    row = families.DIMENSIONS[5].counts[entry]
    wrong = list(row[kk])
    wrong[j] += 1
    monkeypatch.setitem(row, kk, tuple(wrong))
    code, out = run(capsys, "reproduce", "--suite", "all")
    assert code == 1
    failed = [line.split("  ")[1] for line in out.splitlines()
              if line.startswith("FAIL")]
    assert failed == ["counts dim5 (k<=3)"]
    assert out.count("PASS") == 12


def test_reproduce_builds_each_composition_table_once_per_call(capsys, monkeypatch):
    # the Walsh-Hadamard steps of the count checks ask for 84 tables, of
    # which 61 are distinct within their levels_by_columns call; none may
    # outlive the call that built it
    module = importlib.import_module("lcdlab.classify")
    real = module._ordered_compositions
    built = []

    def counted(*args):
        table = real(*args)
        built.append(weakref.ref(table))
        return table

    monkeypatch.setattr(module, "_ordered_compositions", counted)
    code, out = run(capsys, "reproduce", "--suite", "all")
    assert code == 0, out
    assert 0 < len(built) <= 61
    gc.collect()
    assert all(ref() is None for ref in built)


def test_manifest_digest_reproducible(capsys, tmp_path):
    digests = []
    for sub in ("a", "b"):
        db = str(tmp_path / sub)
        code, _ = run(capsys, "reproduce", "--suite", "bounds", "--db", db)
        assert code == 0
        manifest = json.loads(
            (tmp_path / sub / "manifest-reproduce.json").read_text())
        digests.append(manifest["digest"])
        assert manifest["parameters"] == {"suite": "bounds", "full": False}
    assert digests[0] == digests[1]


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    "classify --n 10 --k 1 --d 3",   # below the ladder's dimension
    "classify --n 5 --k 3 --d 9",    # above the Griesmer maximum
    "census --n 5 --k 3 --d 9",
    "family --k 4 --s 3 --t 0",      # below the family's range of t
    "bounds --n 3 --k 5",            # k > n
    "search --n 40 --k 11 --d 5",    # above the search's k cap
    "search --n 100000 --k 3 --d 2 --iters 5",  # above gf2.MAX_DIM columns
    "classify --n 10 --k 7 --d 2",   # above the canonical form's k cap
    "classify --n 70000 --k 2 --d 46666",    # above the int16 length cap
    "classify --n 100000 --k 2 --d 66666",
])
def test_domain_error_exit_2_one_line(capsys, argv):
    code = main(argv.split())
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("lcdlab: error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("t", [
    "99999999999999999999",  # beyond int64
    "4370",  # n = 65,552 > gf2.MAX_DIM
    "-99999999999999999999",  # below range, beyond int64
])
def test_family_too_long_exit_2_before_any_build(capsys, monkeypatch, t):
    """A family member longer than a generator holds, or with a t beyond
    int64, is rejected on Python ints: no generator is built."""
    gf2 = importlib.import_module("lcdlab.gf2")
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return gf2.pack_runs(*args, **kwargs)

    monkeypatch.setattr(families, "pack_runs", counted)
    code = main(["family", "--k", "4", "--s", "2", "--t", t])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("lcdlab: error: ") and err.count("\n") == 1, err
    assert calls == []


@pytest.mark.parametrize("command", ["classify", "census"])
@pytest.mark.parametrize("where", ["a file", "under a file", "codedb is a dir"])
def test_unusable_db_dir_exit_2_one_line(capsys, tmp_path, command, where):
    plain = tmp_path / "plain"
    plain.write_text("not a directory\n")
    db = {"a file": plain, "under a file": plain / "db",
          "codedb is a dir": tmp_path / "db"}[where]
    blocked = db
    if where == "codedb is a dir":
        blocked = db / "n21k3d12.codedb"
        blocked.mkdir(parents=True)
    code = main([command, "--n", "21", "--k", "3", "--d", "12", "--db", str(db)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("lcdlab: error: ") and err.count("\n") == 1, err
    assert str(blocked) in err, err


@pytest.mark.parametrize("command", ["classify", "census", "reproduce"])
@pytest.mark.parametrize("jobs", [0, -3, "cpus + 1"])
def test_jobs_outside_cpu_count_exit_2_before_any_work(capsys, tmp_path, monkeypatch,
                                                       command, jobs):
    """--jobs outside 1..os.cpu_count() is one error line and exit 2,
    before the database directory is made or a check is run."""
    monkeypatch.delenv("LCDLAB_DB", raising=False)
    monkeypatch.setattr(cli, "classify", None)  # any work would raise TypeError
    monkeypatch.setattr(cli, "_reproduce_checks", None)
    jobs = os.cpu_count() + 1 if jobs == "cpus + 1" else jobs
    db = tmp_path / "db"
    argv = {"classify": "classify --n 21 --k 3 --d 12", "census": "census --n 21 --k 3 --d 12",
            "reproduce": "reproduce --suite bounds --full"}[command].split()
    code = main([*argv, "--db", str(db), "--jobs", str(jobs)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("lcdlab: error: jobs must be in 1..") and err.count("\n") == 1, err
    assert not db.exists()


@pytest.mark.parametrize("command", ["classify", "census"])
def test_jobs_at_cpu_count_accepted(capsys, tmp_path, monkeypatch, command):
    monkeypatch.delenv("LCDLAB_DB", raising=False)
    code, out = run(capsys, command, "--n", "21", "--k", "3", "--d", "12", "--json",
                    "--db", str(tmp_path), "--jobs", str(os.cpu_count()))
    assert code == 0 and json.loads(out)["count"] >= 1


@pytest.mark.parametrize("argv", [
    "verify-octal --all",
    "search --n 17 --k 4 --d 8 --jobs 2",
    "classify --n 22 --k 4 --d 11 --bottom-k 4",
    "reproduce --json",
    "verify-octal --json",
])
def test_removed_options_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2


def test_db_dir_holds_no_temp_files(capsys, tmp_path):
    db = tmp_path / "db"
    code, _ = run(capsys, "classify", "--n", "21", "--k", "3", "--d", "11",
                  "--db", str(db), "--json")
    assert code == 0
    assert sorted(os.listdir(db)) == ["manifest-classify.json",
                                      "n21k3d11.codedb", "n21k3d12.codedb"]
    manifest = json.loads((db / "manifest-classify.json").read_text())
    assert manifest["parameters"] == {"n": 21, "k": 3, "d": 11}


def _flip_row_bit(line: str) -> str:
    """Flip the last column of a record's first row; the rows are reduced
    with their pivots in front, so the rank is kept."""
    key, _, rows = line.partition(":")
    first, *rest = rows.split()
    row = int.from_bytes(bytes.fromhex(first), "little") ^ (1 << 20)
    return key + ":" + " ".join([row.to_bytes(3, "little").hex()] + rest)


@pytest.mark.parametrize("tamper, level, why", [
    ("renamed file", (22, 4, 11), "does not hold"),
    ("edited header", (21, 3, 11), "does not hold"),
    ("edited key", (21, 3, 12), "not one canonical representative"),
    ("edited row", (21, 3, 12), "does not hold"),
    ("duplicated row", (21, 3, 12), "rank deficient"),
    ("malformed hex", (21, 3, 12), "non-hexadecimal"),
])
def test_census_rejects_unverified_level(capsys, tmp_path, tamper, level, why):
    db = tmp_path / "db"
    code, _ = run(capsys, "classify", "--n", "22", "--k", "4", "--d", "11",
                  "--db", str(db), "--json")
    assert code == 0
    n, k, d = level
    path = db / f"n{n}k{k}d{d}.codedb"
    # [21,3,12] has one class, so any edit of its record stays key-sorted
    head, record = (db / "n21k3d12.codedb").read_text().splitlines()
    if tamper == "edited header":
        head = head.replace(" 12 ", " 11 ")
    elif tamper == "edited key":
        i = record.index(":") - 1  # the last multiplicity's low bits
        record = record[:i] + "%x" % (int(record[i], 16) ^ 1) + record[i + 1:]
    elif tamper == "edited row":
        record = _flip_row_bit(record)
    elif tamper == "duplicated row":
        key, _, rows = record.partition(":")
        first, _, third = rows.split()
        record = key + ":" + " ".join([first, first, third])
    elif tamper == "malformed hex":
        record = record.replace(":", ":zz", 1)
    path.write_text(head + "\n" + record + "\n")
    code = main(["census", "--n", str(n), "--k", str(k), "--d", str(d),
                 "--db", str(db)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("lcdlab: error: ") and err.count("\n") == 1, err
    assert path.name in err and why in err, err
