"""Acceptance suite: one test per criterion, each printing a pass/fail
line with its runtime against the stated budget."""

import os
import random
import time

from brute import perm_equivalent, subspace_class_counts
from lcdlab import tables
from lcdlab.bounds import closed_form_bound, griesmer_dmax, known_lcd_d
from lcdlab.classify import classify, classify_by_columns, lcd_census
from lcdlab.code import make_code
from lcdlab.families import (DIMENSIONS, det_is_odd_everywhere,
                             expected_symbolic_we, family_affine_vector,
                             family_code, family_t_min, symbolic_gram_det,
                             symbolic_weight_enumerator)
from lcdlab.formats import (code_from_octal, decode_octal, encode_octal,
                            parse_binary_rows, systematic_code)
from lcdlab.gf2 import BitMatrix, rref
from lcdlab.search import SearchBudget, search_lcd


class Timer:
    def __init__(self, name, budget_s):
        self.name = name
        self.budget = budget_s

    def __enter__(self):
        self.t0 = time.time()
        return self

    def __exit__(self, exc_type, exc, tb):
        took = time.time() - self.t0
        status = "PASS" if exc_type is None and took < self.budget else "FAIL"
        print(f"{status} {self.name}  [{took:.2f}s / {self.budget:.0f}s]")
        if exc_type is None:
            assert took < self.budget, f"{self.name} exceeded {self.budget}s"


def test_criterion_1_family_dim4():
    with Timer("criterion 1: dimension-4 families, all rows, t <= 4", 5):
        for s in range(15):
            for t in range(family_t_min(4, s), 5):
                v = family_code(4, s, t)
                assert v.code.n == v.claimed_n == 15 * t + s
                assert v.measured_d == v.claimed_d
                assert v.is_lcd
                assert v.match


def test_criterion_2_family_dim5():
    with Timer("criterion 2: dimension-5 families, all rows, t <= 3", 30):
        for s in range(31):
            for t in range(family_t_min(5, s), 4):
                v = family_code(5, s, t)
                assert v.code.n == v.claimed_n == 31 * t + s
                assert v.measured_d == v.claimed_d
                assert v.is_lcd
                assert v.match


def test_criterion_3_symbolic_tables():
    with Timer("criterion 3: symbolic weight enumerators and determinants", 5):
        for k, we_table, det_table in ((4, tables.DIM4_WE, tables.DIM4_DET),
                                       (5, tables.DIM5_WE, tables.DIM5_DET)):
            for s in we_table:
                av = family_affine_vector(k, s)
                assert symbolic_weight_enumerator(k, av) == \
                    expected_symbolic_we(k, s)
                poly = symbolic_gram_det(k, av)
                assert poly == det_table[s]
                assert det_is_odd_everywhere(poly)
        assert tables.DIM4_DET[2] == (1, -32, -96, 512, 1280)
        assert tables.DIM5_DET[30] == (129085, 709760, 1552448, 1688576,
                                       913408, 196608)


def test_criterion_4_fixture_matrices():
    with Timer("criterion 4: octal and binary fixture matrices", 5):
        seen = 0
        for groups, k in ((tables.DIM4_GENERATORS, 4),
                          (tables.DIM5_GENERATORS, 5)):
            for (n, d), strings in groups:
                for s in strings:
                    code = code_from_octal(s, n, k)
                    assert (code.n, code.k, code.min_weight()) == (n, k, d)
                    assert not code.is_lcd()
                    assert encode_octal(decode_octal(s, n, k)) == s
                    seen += 1
        assert seen == 41
        split = {d: len(ss) for (n, d), ss in tables.DIM4_GENERATORS if n == 30}
        assert split == {16: 1, 15: 9}
        for n, (d, rows) in sorted(tables.DIM5_LCD_WITNESSES.items()):
            code = systematic_code(parse_binary_rows(rows, 5))
            assert (code.n, code.k, code.min_weight()) == (n, 5, d)
            assert code.is_lcd()


def test_criterion_5_counts_dims_2_3():
    with Timer("criterion 5: classification counts at dimensions 2 and 3", 120):
        for (n, d), row in tables.DIM4_COUNTS.items():
            for j, want in enumerate(row["k3"]):
                assert classify_by_columns(n - 1, 3, d + j).count == want
            for j, want in enumerate(row["k2"]):
                assert classify_by_columns(n - 2, 2, d + j).count == want
        for (n, d), row in tables.DIM5_COUNTS.items():
            for j, want in enumerate(row["k3"]):
                assert classify_by_columns(n - 2, 3, d + j).count == want
            for j, want in enumerate(row["k2"]):
                assert classify_by_columns(n - 3, 2, d + j).count == want


def test_criterion_6_classification_dims_4_5(tmp_path):
    db_dir = os.environ.get("LCDLAB_DB") or str(tmp_path)  # resume when set
    with Timer("criterion 6: every fixture level classified, dimensions 4, 5",
               120):
        for k, dim in DIMENSIONS.items():
            for (n, d), strings in dim.generators:
                db = classify(n, k, d, db_dir=db_dir)
                census = lcd_census(db)
                assert census.count == len(strings), (n, k, d, census.count)
                assert census.lcd_count == 0, (n, k, d)
                # class-for-class agreement with the decoded fixture matrices
                fixture_keys = sorted(code_from_octal(s, n, k).canonical_key()
                                      for s in strings)
                assert list(db.keys()) == fixture_keys, (n, k, d)
        # the [n-1, 4, d] rungs of the dimension-5 ladders
        for (n, d), row in tables.DIM5_COUNTS.items():
            assert classify(n - 1, 4, d, db_dir=db_dir).count == row["k4"][0]


def test_criterion_7_bound_equivalence():
    with Timer("criterion 7: case formulas equal the Griesmer maximum", 1):
        for k in (4, 5):
            for n in range(k, k + 466):
                assert closed_form_bound(n, k) == griesmer_dmax(n, k)


def test_criterion_8_oracle_equivalence():
    with Timer("criterion 8: oracle agreement (subspaces and permutations)",
               120):
        for n in range(1, 11):
            for k in range(1, min(3, n) + 1):
                oracle = subspace_class_counts(n, k)
                for d in range(1, griesmer_dmax(n, k) + 1):
                    assert classify_by_columns(n, k, d).count == \
                        oracle.get(d, 0), (n, k, d)
        rng = random.Random(99)
        outcomes = set()
        for _ in range(10):
            n, k = rng.randint(4, 8), rng.randint(2, 3)
            while True:
                rows = tuple(rng.getrandbits(n) for _ in range(k))
                if rref(BitMatrix(k, n, rows)).rank == k:
                    break
            c1 = make_code(BitMatrix(k, n, rows))
            if rng.random() < 0.5:
                perm = list(range(n))
                rng.shuffle(perm)
                prows = tuple(sum(((r >> j) & 1) << perm[j] for j in range(n))
                              for r in rows)
                c2 = make_code(BitMatrix(k, n, prows))
            else:
                while True:
                    rows2 = tuple(rng.getrandbits(n) for _ in range(k))
                    if rref(BitMatrix(k, n, rows2)).rank == k:
                        break
                c2 = make_code(BitMatrix(k, n, rows2))
            want = perm_equivalent(c1, c2)
            assert (c1.canonical_key() == c2.canonical_key()) == want
            outcomes.add(want)
        assert outcomes == {True, False}


def test_criterion_9_ledger_and_witnesses():
    with Timer("criterion 9: known-value ledger and search witnesses", 600):
        for (n, k), want in tables.KNOWN_LCD_D.items():
            entry = known_lcd_d(n, k)
            assert entry.status == "exact" and entry.exact == want, (n, k)
        for n in range(2, 31):
            d2 = 2 * n // 3
            assert known_lcd_d(n, 2).exact == \
                (d2 if n % 6 in (1, 2, 3, 4) else d2 - 1)
            if n >= 3:
                d3 = 4 * n // 7
                assert known_lcd_d(n, 3).exact == \
                    (d3 if n % 7 in (3, 5) else d3 - 1)
            assert known_lcd_d(n, 1).exact == (n if n % 2 else n - 1)
        budget = SearchBudget(max_iterations=1_000_000, rng_seed=2024)
        for n, k, d in ((17, 4, 8), (18, 4, 8), (19, 5, 8), (20, 5, 9)):
            code = search_lcd(n, k, d, budget)
            assert code is not None, (n, k, d)
            assert code.min_weight() >= d and code.is_lcd()
