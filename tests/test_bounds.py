import pytest

from brute import griesmer_dmax_bisect
from lcdlab import tables
from lcdlab.bounds import closed_form_bound, griesmer_dmax, known_lcd_d
from lcdlab.classify import classify, classify_by_columns, lcd_census
from lcdlab.code import make_code
from lcdlab.families import family_code, family_t_min, family_weight
from lcdlab.formats import parse_binary_rows, systematic_code
from lcdlab.gf2 import BitMatrix
from lcdlab.search import SearchBudget, search_lcd


def test_griesmer_examples():
    assert griesmer_dmax(22, 4) == 11
    assert griesmer_dmax(4, 4) == 1
    assert griesmer_dmax(35, 5) == 16
    with pytest.raises(ValueError):
        griesmer_dmax(3, 4)


def test_griesmer_scan_equals_bisection():
    for k in range(1, 12):
        for n in range(k, 700):
            assert griesmer_dmax(n, k) == griesmer_dmax_bisect(n, k), (n, k)


def test_closed_form_examples():
    assert closed_form_bound(31, 5) == 16
    assert closed_form_bound(35, 5) == 16
    assert closed_form_bound(17, 4) == 8
    with pytest.raises(ValueError):
        closed_form_bound(10, 3)


def test_closed_form_equals_griesmer_full_cycle():
    for k in (4, 5):
        for n in range(k, k + 466):
            assert closed_form_bound(n, k) == griesmer_dmax(n, k), (n, k)


def test_families_respect_griesmer():
    for k, smax, tmax in ((4, 15, 5), (5, 31, 4)):
        for s in range(smax):
            for t in range(family_t_min(k, s), tmax):
                v = family_code(k, s, t)
                assert v.measured_d <= griesmer_dmax(v.code.n, k)


def test_known_lcd_d_examples():
    assert known_lcd_d(10, 2).exact == 6
    assert known_lcd_d(19, 4).exact == 9
    assert known_lcd_d(16, 12).exact == 2
    assert known_lcd_d(15, 11).status == "unknown"  # codim 4 needs n >= 16
    assert known_lcd_d(9, 9).exact == 1
    assert known_lcd_d(9, 8).exact == 2
    assert known_lcd_d(8, 7).exact == 1


def test_known_lcd_d_table_cells():
    for (n, k), want in tables.KNOWN_LCD_D.items():
        entry = known_lcd_d(n, k)
        assert entry.status == "exact" and entry.exact == want, (n, k, entry)


def test_ledger_witness_23_6_10():
    # found by search_lcd(23, 6, 10, SearchBudget(200_000, rng_seed=1))
    rows = (6064873, 7410378, 3840140, 4398320, 8134400, 8380416)
    code = make_code(BitMatrix(6, 23, rows))
    assert (code.n, code.k, code.min_weight()) == (23, 6, 10)
    assert code.is_lcd()
    assert known_lcd_d(23, 6).exact == 10 == griesmer_dmax(23, 6)


def test_ledger_nondecreasing_in_n():
    # appending a zero column keeps a code LCD with the same d
    for (n, k), d in tables.KNOWN_LCD_D.items():
        if (n + 1, k) in tables.KNOWN_LCD_D:
            assert tables.KNOWN_LCD_D[(n + 1, k)] >= d, (n, k)
    for n in range(1, 60):
        for k in range(1, n + 1):
            here, longer = known_lcd_d(n, k), known_lcd_d(n + 1, k)
            if here.status == longer.status == "exact":
                assert longer.exact >= here.exact, (n, k)


def test_known_le_griesmer():
    for n in range(1, 40):
        for k in range(1, n + 1):
            entry = known_lcd_d(n, k)
            if entry.status == "exact":
                assert entry.exact <= griesmer_dmax(n, k), (n, k)
            elif entry.status == "range":
                assert max(entry.values) <= griesmer_dmax(n, k)


def test_nonexistence_narrows_ranges():
    assert known_lcd_d(30, 4).exact == 14
    assert known_lcd_d(31, 4).exact == 15
    assert known_lcd_d(26, 4).exact == 12
    assert known_lcd_d(25, 5).exact == 11
    assert known_lcd_d(29, 5).exact == 13


def test_exact_residues_are_the_papers():
    # past every t_min, the family weight meets the Griesmer maximum at
    # exactly the residues the paper settles
    papers = {4: {2, 3, 4, 5, 6, 9, 10, 13},
              5: {3, 4, 5, 7, 11, 19, 20, 22, 26}}
    for k, want in papers.items():
        q = (1 << k) - 1
        t0 = max(family_t_min(k, s) for s in range(q))
        for t in (t0, t0 + 1, t0 + 6, 1000):
            got = {s for s in range(q) if known_lcd_d(q * t + s, k).provenance
                   == f"dimension-{k}-residue"}
            assert got == want, (k, t)


def test_exact_values_below_family_range_have_lcd_codes():
    # below a row's t_min there is no family member, so an exact value
    # there names the census or the stored witness that shows its LCD code
    named = {"residue": set(), "census": set(), "witness": set()}
    for k in (4, 5):
        for n in range(k, 3 * ((1 << k) - 1)):
            s, t, _ = family_weight(k, n)
            entry = known_lcd_d(n, k)
            how = entry.provenance.removeprefix(f"dimension-{k}-")
            if how in named:
                assert (how == "residue") == (t >= family_t_min(k, s)), (n, k)
                named[how].add((n, k, entry.exact))
    censused = {(9, 4, 4), (10, 4, 4), (13, 4, 6), (11, 5, 4)}
    witnessed = {(n, 5, d) for n, (d, _) in tables.DIM5_LCD_WITNESSES.items()}
    assert witnessed == {(19, 5, 8), (20, 5, 9), (22, 5, 10), (26, 5, 12)}
    assert (named["census"], named["witness"]) == (censused, witnessed)
    for n, k, d in sorted(censused):
        assert lcd_census(classify(n, k, d)).lcd_count >= 1, (n, k, d)
    for n, k, d in sorted(witnessed):
        code = systematic_code(parse_binary_rows(tables.DIM5_LCD_WITNESSES[n][1], k))
        assert (code.n, code.min_weight()) == (n, d) and code.is_lcd()


def test_range_lower_ends_below_family_range_have_lcd_codes():
    # below a row's t_min there is no family member, so the lower end of a
    # range there is backed by an LCD code of its own: a census holding an
    # LCD class at k = 4, a search witness at k = 5 (whose census is slow)
    lower = {}
    for k in (4, 5):
        for n in range(k, 3 * ((1 << k) - 1)):
            s, t, _ = family_weight(k, n)
            entry = known_lcd_d(n, k)
            if entry.status == "range" and t < family_t_min(k, s):
                assert entry.provenance == f"dimension-{k}-range", (n, k)
                lower[(n, k)] = min(entry.values)
    assert lower == {(11, 4): 4, (12, 4): 5, (14, 4): 6, (10, 5): 3, (12, 5): 4}
    for (n, k), d in sorted(lower.items()):
        if k == 4:
            assert lcd_census(classify(n, k, d)).lcd_count >= 1, (n, k, d)
        else:
            code = search_lcd(n, k, d, SearchBudget(rng_seed=1))
            assert code is not None and (code.n, code.k) == (n, k), (n, k, d)
            assert code.is_lcd() and code.min_weight() >= d, (n, k, d)


def test_d_all_anchors():
    # the largest d of any [n, k] code: here the Griesmer maximum is attained
    for n, k, d in ((21, 3, 12), (20, 2, 13)):
        assert griesmer_dmax(n, k) == d
        assert classify_by_columns(n, k, d).count > 0
