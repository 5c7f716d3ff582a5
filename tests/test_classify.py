import hashlib
import importlib
import os
import tracemalloc
from math import comb

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from brute import (aut_order, box_scan, canonical_rows, codes, compositions_oracle,
                   counts_key, extension_classes, from_runs, gl2_matrices,
                   labelled_vectors, min_weight, ordered_compositions, rref,
                   shorten, subspace_class_counts)
from lcdlab.bounds import griesmer_dmax
from lcdlab.canonical import canonical_classes
from lcdlab import formats
from lcdlab.classify import (MAX_LENGTH, _build_db, _column_candidates,
                             _extend_all, _extend_seed, _ladder, _ordered_compositions,
                             _verified_classes, classify, classify_by_columns,
                             composition_blocks, compositions,
                             extend_by_inverse_shortening, lcd_census,
                             levels_by_columns)
from lcdlab.code import make_code, message_weight_matrix
from lcdlab.families import DIMENSIONS
from lcdlab.formats import save_codedb
from lcdlab.gf2 import BitMatrix

# sha256 of the level files written by cold ladders (bench/golden.json)
LADDER_DIGESTS = {
    (22, 4, 11): {
        "n21k3d11.codedb": "d122b6cbe313a7591d006af751fc60cf76bd755e52c1cb983fce32a5c8b3cdd6",
        "n21k3d12.codedb": "9fbb730049a62c7e2fb82bd049e5a658733d5a13ed173510cd61db598c008c2b",
        "n22k4d11.codedb": "06b10aefdd928a94783335665f02c78b6c0054ede5a5e5b4c27d9d6b1aad77c1",
    },
    (23, 4, 12): {
        "n22k3d12.codedb": "689e40fbb9a2c86603b665739b9476c40c6430d54628ca627f1a463ff3d872a3",
        "n23k4d12.codedb": "e80b686f7f763f30a1db284ef7a773b2af13ee25c186293d1282eb81cc86dbb5",
    },
}
# sha256 of saved classify_by_columns levels: [10,4,3] takes the plain
# branch at z = 0..3 (and the Walsh-Hadamard one at z = 4), [16,4,8] the
# Walsh-Hadamard branch at both its zero-column counts
DIRECT_DIGESTS = {
    (10, 4, 3): "7e90b74677d9dff7edecc95b6d0c500f15713a3610618028bc62037fc6bdfbe3",
    (16, 4, 8): "ddfd51ab773ef16a9fd2b46d0b975912c24e8871f7d67b4a4979d3b0630323c7",
}


def test_compositions_shape_and_order():
    c = compositions(3, 2)
    assert c.tolist() == [[0, 3], [1, 2], [2, 1], [3, 0]]
    c = compositions(4, 3)
    assert len(c) == 15 and c.sum(axis=1).tolist() == [4] * 15
    assert compositions(0, 4).tolist() == [[0, 0, 0, 0]]
    assert compositions(5, 1).tolist() == [[5]]


@given(st.integers(0, 12), st.integers(1, 7))
@settings(max_examples=60, deadline=None)
def test_compositions_match_stars_and_bars(total, parts):
    c = compositions(total, parts)
    assert c.dtype == np.int16
    assert c.shape == (comb(total + parts - 1, parts - 1), parts)
    assert [tuple(row) for row in c.tolist()] == compositions_oracle(total, parts)
    # an array of totals gives the compositions of each total in turn
    totals = [total, total // 2, 0, total]
    c = compositions(np.array(totals), parts)
    assert c.dtype == np.int16
    assert [tuple(row) for row in c.tolist()] == [
        row for t in totals for row in compositions_oracle(t, parts)]


@given(st.integers(0, 12), st.integers(1, 7), st.integers(1, 40))
@settings(max_examples=60, deadline=None)
def test_composition_blocks_split_compositions_in_order(total, parts, rows):
    blocks = list(composition_blocks(total, parts, rows))
    assert all(b.dtype == np.int16 and 1 <= len(b) <= rows for b in blocks)
    assert [tuple(row) for row in np.concatenate(blocks).tolist()] == \
        compositions_oracle(total, parts)


def test_composition_blocks_bound_memory():
    # compositions(10, 15) is 59 MB; its blocks of 4096 rows are 123 kB
    tracemalloc.start()
    try:
        rows = sum(len(b) for b in composition_blocks(10, 15, 4096))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows == comb(24, 14)
    assert peak < 2 << 20


@pytest.mark.parametrize("q, below", [(3, 40), (7, 24), (15, 10)])
def test_ordered_compositions_match_per_pair_oracle(q, below):
    # the oracle's table for most = 5 holds every smaller most's rows, as
    # those with u[0] <= most, in the same order; q = 15 stays small, as
    # compositions(29, 13) alone would not fit in memory
    for total in range(below):
        full = ordered_compositions(total, q, 5)
        for most in range(6):
            got = _ordered_compositions(total, q, most)
            want = full[full[:, 0] <= most]
            assert got.dtype == want.dtype == np.int16
            assert np.array_equal(got, want), (q, total, most)


def test_compositions_domain_errors():
    with pytest.raises(ValueError, match="need at least one part"):
        compositions(3, 0)
    for parts in (1, 3):
        with pytest.raises(ValueError, match=r"need total >= 0"):
            compositions(-1, parts)
        with pytest.raises(ValueError, match=r"need total >= 0"):
            compositions(np.array([2, -1]), parts)


def test_classify_by_columns_examples():
    assert classify_by_columns(20, 2, 13).count == 1
    assert classify_by_columns(21, 3, 11).count == 6
    db = classify_by_columns(8, 2, 4)
    assert db.count == 6
    # the six classes as (zero columns, multiset of type multiplicities)
    classes = set()
    for code in codes(db):
        tm = code.column_types()
        classes.add((tm.counts[0], tuple(sorted(tm.counts[1:]))))
    assert classes == {
        (0, (0, 4, 4)), (1, (1, 3, 3)), (0, (1, 3, 4)),
        (2, (2, 2, 2)), (1, (2, 2, 3)), (0, (2, 2, 4))}


def test_classify_by_columns_infeasible_reports_estimate():
    with pytest.raises(ValueError, match="candidate"):
        classify_by_columns(60, 5, 10)


def test_length_above_int16_rejected_before_any_work(monkeypatch):
    assert MAX_LENGTH == 32767
    # the longest length allowed: [32767,2,21844] at the Griesmer maximum
    assert classify_by_columns(MAX_LENGTH, 2, 21844).count == 3
    module = importlib.import_module("lcdlab.classify")

    def built(*args, **kwargs):
        raise AssertionError("a level was built")

    monkeypatch.setattr(module, "_column_candidates", built)
    for n, d in ((MAX_LENGTH + 1, 2), (70000, 46666), (100000, 66666)):
        for run in (classify, classify_by_columns):
            with pytest.raises(ValueError, match="n <= 32767"):
                run(n, 2, d)


def test_representatives_have_exact_parameters():
    for db in (classify_by_columns(10, 3, 4), classify_by_columns(12, 2, 7)):
        for code in codes(db):
            assert code.n == db.n and code.k == db.k
            assert code.min_weight() == db.d


@pytest.mark.parametrize("n, k, d, counts", [
    (3, 2, 1, (0, 1, 1, 1)),  # a [3,2,2] class filed at d = 1
    (4, 2, 2, (0, 1, 1, 1)),  # at the wrong length
    (3, 2, 2, (1, 2, 0, 0)),  # its types span only a line: rank 1
    (6, 3, 2, (0, 2, 2, 2, 0, 0, 0, 0)),  # types 1, 2, 3: rank 2
])
def test_build_db_rejects_a_class_off_its_level(n, k, d, counts):
    def build(n, k, d, counts):
        canon = np.array([counts], dtype=np.int64)
        return _build_db(n, k, d, "columns", canon, _verified_classes(k, canon))

    assert build(3, 2, 2, (0, 1, 1, 1)).count == 1
    with pytest.raises(AssertionError, match="representative verification"):
        build(n, k, d, counts)


def test_verified_classes_weigh_the_built_rows(monkeypatch):
    """A fault in building a class's generator shows in the weights read
    back from the rows that would be stored: here row 0 loses its first
    column, which leaves the rank 2 but gives a codeword of weight 1."""
    module = importlib.import_module("lcdlab.classify")
    real = module.pack_runs

    def faulty(*args):
        stack = real(*args)
        stack[:, 0, 0] &= ~np.uint64(1)
        return stack

    monkeypatch.setattr(module, "pack_runs", faulty)
    canon = np.array([[0, 1, 1, 1]], dtype=np.int64)  # the [3,2,2] class
    with pytest.raises(AssertionError, match=r"\[3,2,1\] != \[3,2,2\]"):
        _build_db(3, 2, 2, "columns", canon, _verified_classes(2, canon))


@pytest.mark.parametrize("case, levels", [
    ("three lengths", 10), ("one length", 6), ("one level", 1),
    ("extension", 2), ("no level", 0)])
def test_file_levels_profiles_every_level_in_one_call(monkeypatch, case, levels):
    seeds = [classify_by_columns(11, 2, dd) for dd in range(5, 8)]
    file = {
        "three lengths": lambda: levels_by_columns(3, {10: 3, 12: 4, 14: 5}),
        "one length": lambda: levels_by_columns(2, {9: 1}),
        "one level": lambda: {6: classify_by_columns(12, 3, 6)},
        "extension": lambda: _extend_all(seeds, 5),  # [12,3,5] and [12,3,6]
        "no level": lambda: _extend_all(seeds[2:], 7),  # [12,3,7] is above Griesmer
    }[case]
    module = importlib.import_module("lcdlab.classify")
    calls = []

    def counted(name):
        real = getattr(module, name)

        def call(*args):
            out = real(*args)
            calls.append((name, len(out)))
            return out
        monkeypatch.setattr(module, name, call)

    counted("type_counts")
    counted("message_weights")
    filed = file()
    assert len(filed) == levels
    total = sum(db.count for db in filed.values())
    # one transform files the classes, and one weighs their built stack
    assert [c for c in calls if c[0] == "message_weights"] == [("message_weights", total)] * 2
    assert calls[-2:] == [("type_counts", total), ("message_weights", total)]


def test_oracle_settlement_small():
    # full agreement with subspace enumeration, every d at once
    for n, k in ((5, 2), (6, 3), (7, 2), (7, 3)):
        oracle = subspace_class_counts(n, k)
        for d in range(1, griesmer_dmax(n, k) + 1):
            assert classify_by_columns(n, k, d).count == oracle.get(d, 0), (n, k, d)


def assert_same_level(tmp_path, db, single, where):
    """Equal databases that also save to the same bytes."""
    assert db == single, where
    save_codedb(db, str(tmp_path / "batch.codedb"))
    save_codedb(single, str(tmp_path / "single.codedb"))
    assert (tmp_path / "batch.codedb").read_bytes() == \
        (tmp_path / "single.codedb").read_bytes(), where


@pytest.mark.parametrize("n, k, d", [
    (14, 3, 5),   # plain compositions at z <= 2, the WHT branch at z = 3..5
    (20, 2, 11),  # the WHT branch only
    (9, 3, 1),    # plain compositions only, d = 1
    (12, 2, 1),   # d = 1, eight levels, both branches
    (21, 3, 12),  # d at the Griesmer maximum
])
def test_levels_by_columns_equal_single_levels(tmp_path, n, k, d):
    top = griesmer_dmax(n, k)
    levels = levels_by_columns(k, {n: d})
    assert list(levels) == [(n, dd) for dd in range(d, top + 1)]
    for (_, dd), db in levels.items():
        assert_same_level(tmp_path, db, classify_by_columns(n, k, dd), dd)
    # classes with zero columns are filed too, except at the maximum
    zeros = sum(code.column_types().counts[0] > 0
                for db in levels.values() for code in codes(db))
    assert zeros or d == top
    assert levels_by_columns(k, {n: top + 1}) == {}


@pytest.mark.parametrize("k", sorted(DIMENSIONS))
def test_batched_levels_equal_single_levels(tmp_path, k):
    # one call per kk over the lengths of a counts table, as reproduce
    # makes them: every level equals its own direct classification
    for kk in (3, 2):
        lengths = {}
        for n, d in DIMENSIONS[k].counts:
            lengths[n - k + kk] = min(d, lengths.get(n - k + kk, d))
        levels = levels_by_columns(kk, lengths)
        assert list(levels) == [(nn, dd) for nn, d in lengths.items()
                                for dd in range(d, griesmer_dmax(nn, kk) + 1)]
        for (nn, dd), db in levels.items():
            assert_same_level(tmp_path, db, classify_by_columns(nn, kk, dd),
                              (nn, kk, dd))


def test_batched_length_above_griesmer_gives_no_level():
    alone = levels_by_columns(3, {21: 11})
    batch = levels_by_columns(3, {14: griesmer_dmax(14, 3) + 1, 21: 11})
    assert list(batch) == list(alone) == [(21, 11), (21, 12)]
    assert batch == alone


def test_extension_degenerate_322():
    seeds = [classify_by_columns(2, 1, 2)]
    db = extend_by_inverse_shortening(seeds, 2)
    direct = classify_by_columns(3, 2, 2)
    assert db.count == direct.count == 1
    assert db.keys() == direct.keys()


def test_extension_21_3_11():
    seeds = [classify_by_columns(20, 2, dd) for dd in (11, 12, 13)]
    levels = _extend_all(seeds, 11)
    assert levels[11].count == 6
    assert levels[12].count == 1
    assert levels[11].keys() == classify_by_columns(21, 3, 11).keys()
    assert levels[12].keys() == classify_by_columns(21, 3, 12).keys()


@st.composite
def seeds(draw):
    n1 = draw(st.integers(1, 10))
    k1 = draw(st.integers(1, min(3, n1)))
    rows = tuple(draw(st.integers(0, (1 << n1) - 1)) for _ in range(k1))
    assume(rref(BitMatrix(k1, n1, rows)).rank == k1)
    seed_d = min_weight(rows)
    return rows, n1, k1, seed_d, draw(st.integers(1, seed_d))


def extensions(seeds, n1: int, k1: int, d: int):
    """_extend_seed's rows as one array, each row's least weight (the
    minimum weight of its code, read from the rows) and their owners."""
    hist, owner = _extend_seed(seeds, n1, k1, d)
    assert all(h.dtype == np.int16 for h in hist)
    hist = np.concatenate(hist) if hist else np.empty((0, 2 << k1), dtype=np.int16)
    assert owner.shape == (len(hist),)
    least = (hist[:, 1:].astype(np.int64) @ message_weight_matrix(k1 + 1).T).min(axis=1)
    return hist, least, owner


@given(seeds())
@settings(max_examples=60, deadline=None)
def test_extend_seed_matches_brute(seed):
    rows, n1, k1, seed_d, d = seed
    hist, minw, owner = extensions([rows], n1, k1, d)
    k = k1 + 1
    assert hist.shape == (len(minw), 1 << k)
    assert (hist.sum(axis=1) == n1 + 1).all() and not owner.any()
    got = {(counts_key(n1 + 1, k, tuple(int(x) for x in c)), int(w))
           for c, w in zip(canonical_rows(hist, k), minw)}
    assert got == extension_classes(rows, n1, d)


def assert_same_arrays(got, want):
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def assert_matches_box_scan(seeds, n1: int, k1: int, d: int) -> int:
    """One _extend_seed call over seeds, (rows, seed_d) pairs, keeps for
    each seed, as its owner, the rows and least weights of box_scan of
    that seed (as sets: the walk's order is not the box's).  Returns
    the number of rows."""
    hist, least, owner = extensions([rows for rows, _ in seeds], n1, k1, d)
    for i, (rows, seed_d) in enumerate(seeds):
        want, want_least = box_scan(rows, n1, k1, seed_d, d)
        mine = owner == i
        assert sorted(zip(map(tuple, hist[mine].tolist()), least[mine].tolist())) == \
            sorted(zip(map(tuple, want.tolist()), want_least.tolist()))
    return len(hist)


def full_rank_rows(n1: int, k1: int):
    return st.tuples(*[st.integers(0, (1 << n1) - 1)] * k1).filter(
        lambda rows: rref(BitMatrix(k1, n1, rows)).rank == k1)


@st.composite
def wide_seeds(draw):
    # k1 = 5 is the 32-message layout of a k = 6 rung; n1 <= 12 keeps its
    # box small enough for box_scan
    k1 = draw(st.integers(1, 5))
    n1 = draw(st.integers(k1, 12 if k1 == 5 else 14))
    rows = draw(full_rank_rows(n1, k1))
    seed_d = min_weight(rows)
    return rows, n1, k1, seed_d, draw(st.integers(1, seed_d + 1))


@given(wide_seeds())
@settings(max_examples=80, deadline=None)
def test_extend_seed_matches_box_scan(seed):
    # the pruned walk keeps exactly the rows a scan of the whole box keeps
    rows, n1, k1, seed_d, d = seed
    assert_matches_box_scan([(rows, seed_d)], n1, k1, d)


@st.composite
def mixed_rungs(draw):
    # 2-6 seeds of one (n1, k1), of different minimum weights and numbers
    # of occupied types, walked as one frontier
    k1 = draw(st.integers(1, 5))
    n1 = draw(st.integers(k1, 12 if k1 == 5 else 14))
    rows = draw(st.lists(full_rank_rows(n1, k1), min_size=2, max_size=6))
    seeds = [(r, min_weight(r)) for r in rows]
    return seeds, n1, k1, draw(st.integers(1, max(w for _, w in seeds) + 1))


@given(mixed_rungs(), st.sampled_from([None, 1, 3, 40]))
@settings(max_examples=80, deadline=None)
def test_extend_seed_walks_many_seeds_as_one(rung, chunk):
    # a small BOX_CHUNK splits the frontier down to single parents
    module = importlib.import_module("lcdlab.classify")
    saved = module.BOX_CHUNK
    module.BOX_CHUNK = chunk or saved
    try:
        assert_matches_box_scan(*rung)
    finally:
        module.BOX_CHUNK = saved


@pytest.mark.parametrize("k1, runs, ds", [
    # the [32766, 1] repetition code: at d = 16379 and 16383 a few rows
    # survive, and near the top none does; at this length the slack is int32
    (1, ((1, MAX_LENGTH - 1),), (16379, 16383, 32765, 32766, 32767)),
    # a [20007, 2, 3] code, almost all of it one type
    (2, ((0, 4), (1, 2), (2, 1), (3, 20000)), (1, 2, 3, 4)),
])
def test_extend_seed_matches_box_scan_on_long_seeds(k1, runs, ds):
    seed = from_runs(k1, runs)
    rows, seed_d = seed.data, min_weight(seed.data)
    assert sum(assert_matches_box_scan([(rows, seed_d)], seed.cols, k1, d)
               for d in ds)


def rung_seeds(n: int, k: int, d: int):
    """(rows, seed_d) of every seed of the [n, k, d] rung."""
    return [(rows, dd) for dd in range(d, griesmer_dmax(n - 1, k - 1) + 1)
            for _, rows in classify(n - 1, k - 1, dd).records]


@pytest.mark.parametrize("chunk", [None, 16])
def test_extend_seed_matches_box_scan_on_rungs(monkeypatch, chunk):
    # with BOX_CHUNK at 16 the frontier is walked a few rows at a time
    module = importlib.import_module("lcdlab.classify")
    if chunk:
        monkeypatch.setattr(module, "BOX_CHUNK", chunk)
    for n, k, d in ((25, 5, 12), (27, 4, 14)):
        assert assert_matches_box_scan(rung_seeds(n, k, d), n - 1, k - 1, d)
    # [25,5,12] has 242 rows: at BOX_CHUNK 16 the walk finishes them in
    # several pieces, split by parents
    pieces = _extend_seed([rows for rows, _ in rung_seeds(25, 5, 12)], 24, 4, 12)[0]
    assert len(pieces) > 1 if chunk else len(pieces) == 1


def test_extend_seed_refuses_a_box_past_int64():
    # every nonzero type of F2^5 five times: the box has 3^5 * 6^26 rows
    simplex = [sum(((t >> i) & 1) << j for j, t in enumerate(range(1, 32)))
               for i in range(5)]
    rows = tuple(sum(r << (31 * rep) for rep in range(5)) for r in simplex)
    with pytest.raises(ValueError, match="2\\^63"):
        _extend_seed([rows], 155, 5, 80)


def test_extend_seed_rejects_rank_deficient():
    with pytest.raises(ValueError, match="seed 1 has rank 1"):
        _extend_seed([(0b0011, 0b0101), (0b0111, 0b0111)], 4, 2, 2)


def test_extend_seed_rejects_a_row_past_n1():
    with pytest.raises(ValueError, match="column range"):
        _extend_seed([(0b0011, 0b0101), (0b10011, 0b0101)], 4, 2, 2)


def test_k_above_canonical_cap_rejected_before_any_rung(monkeypatch):
    module = importlib.import_module("lcdlab.classify")

    def built(*args, **kwargs):
        raise AssertionError("a rung was built")

    monkeypatch.setattr(module, "_extend_all", built)
    monkeypatch.setattr(module, "_column_candidates", built)
    for n, d in ((8, 2), (10, 2)):
        with pytest.raises(ValueError, match="k <= 6"):
            classify(n, 7, d)
        with pytest.raises(ValueError, match="6"):
            classify_by_columns(n, 7, d)


def test_extension_validates_seed_completeness():
    seeds = [classify_by_columns(20, 2, 11)]  # missing 12, 13
    with pytest.raises(ValueError, match="missing"):
        extend_by_inverse_shortening(seeds, 11)


def ladder_from_k2(n: int, k: int, d: int):
    """The [n, k, d] level extended rung by rung from every [n-k+2, 2, d']
    level, d' >= d, enumerated directly."""
    n2 = n - k + 2
    levels = {dd: classify_by_columns(n2, 2, dd)
              for dd in range(d, griesmer_dmax(n2, 2) + 1)}
    for _ in range(k - 2):
        levels = _extend_all(list(levels.values()), d)
    return levels[d]


def test_worked_ladder_22_4_11():
    db = classify(22, 4, 11)
    assert db.count == 2
    census = lcd_census(db)
    assert (census.count, census.lcd_count) == (2, 0)
    # dedupe path independent of the ladder base
    assert ladder_from_k2(22, 4, 11) == db


def test_pipeline_matches_direct_for_k3():
    for n, k, d in ((8, 3, 3), (10, 3, 4), (21, 3, 12)):
        chain = ladder_from_k2(n, k, d)
        direct = classify_by_columns(n, k, d)
        assert chain.keys() == direct.keys(), (n, k, d)


def test_closure_under_shortening():
    # every dimension-dropping shortening of a classified code reappears
    # one level down in the persisted ladder
    seeds = {dd: classify_by_columns(21, 3, dd) for dd in (11, 12)}
    db = extend_by_inverse_shortening(list(seeds.values()), 11)
    seed_keys = {key for s in seeds.values() for key in s.keys()}
    for code in codes(db):
        drops = 0
        for i in range(code.n):
            s = shorten(code, i)
            if s.k == code.k - 1:
                drops += 1
                assert s.min_weight() >= 11
                assert s.canonical_key() in seed_keys
        assert drops >= code.k


def test_lcd_census_trivial():
    full = make_code(BitMatrix.identity(4))
    tm = full.column_types()
    db = classify_by_columns(4, 4, 1)
    census = lcd_census(db)
    assert census.count == db.count >= 1
    # the full space itself is LCD
    assert any(key == full.canonical_key() for key in census.lcd_keys)


def test_determinism_and_file_roundtrip(tmp_path):
    from lcdlab.formats import codedb_dumps, load_codedb
    db1 = classify(22, 4, 11, db_dir=str(tmp_path / "a"))
    db2 = classify(22, 4, 11, db_dir=str(tmp_path / "b"))
    a = (tmp_path / "a" / "n22k4d11.codedb").read_bytes()
    b = (tmp_path / "b" / "n22k4d11.codedb").read_bytes()
    assert a == b
    loaded = load_codedb(str(tmp_path / "a" / "n22k4d11.codedb"))
    assert loaded == db1 == db2
    assert codedb_dumps(loaded).encode() == a


def test_ladder_bytes_pinned(tmp_path):
    for (n, k, d), digests in LADDER_DIGESTS.items():
        db_dir = tmp_path / f"n{n}k{k}d{d}"
        classify(n, k, d, db_dir=str(db_dir))
        got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
               for f in db_dir.iterdir()}
        assert got == digests, (n, k, d)


def test_resume_from_partial_rung_matches_cold(tmp_path):
    cold = tmp_path / "cold"
    classify(27, 5, 13, db_dir=str(cold))
    names = sorted(f.name for f in cold.iterdir())
    assert names == ["n25k3d13.codedb", "n25k3d14.codedb",
                     "n26k4d13.codedb", "n27k5d13.codedb"]
    # runs killed while storing the [25,3,d'] rung and right after it: the
    # levels stored by then are on disk, next to a part of the next one in
    # a temp file
    for kept in (1, 2):
        warm = tmp_path / f"warm{kept}"
        warm.mkdir()
        for name in names[:kept]:
            (warm / name).write_bytes((cold / name).read_bytes())
        (warm / ".lcdlab-killed").write_bytes((cold / names[kept]).read_bytes()[:20])
        classify(27, 5, 13, db_dir=str(warm))
        for name in names:
            assert (warm / name).read_bytes() == (cold / name).read_bytes(), (kept, name)
        assert sorted(f.name for f in warm.glob("*.codedb")) == names


# each ladder's rungs, bottom-up, with the levels each one writes
LADDERS = {
    (22, 4, 11): [(21, 3, [11, 12]), (22, 4, [11])],
    (23, 4, 12): [(22, 3, [12]), (23, 4, [12])],
    (27, 5, 13): [(25, 3, [13, 14]), (26, 4, [13]), (27, 5, [13])],
    (7, 4, 1): [(7, 4, [1])],  # d = 1: one direct level
}


@pytest.mark.parametrize("target, plan", LADDERS.items())
def test_ladder_reads_and_writes_its_plan(monkeypatch, tmp_path, target, plan):
    calls = []

    def recorded(name):
        fn = getattr(formats, name)

        def call(*args):
            calls.append((name, os.path.basename(args[-1])))
            return fn(*args)
        return call

    for name in ("load_codedb", "save_codedb"):
        monkeypatch.setattr(formats, name, recorded(name))

    def run():
        """The files one classify run reads and writes, in order."""
        calls.clear()
        classify(*target, db_dir=str(tmp_path))
        return ([f for op, f in calls if op == "load_codedb"],
                [f for op, f in calls if op == "save_codedb"])

    def files(rungs):
        return [f"n{n}k{k}d{d}.codedb" for n, k, ds in rungs for d in ds]

    assert [(n, k, list(ds)) for n, k, ds in _ladder(*target)] == plan
    assert run() == ([], files(plan))  # cold: every level of the plan, bottom-up
    cold = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
    assert sorted(cold) == sorted(files(plan))
    top = "n{}k{}d{}.codedb".format(*target)
    assert run() == ([top], [])  # warm: the target alone
    (tmp_path / top).unlink()
    # the rung below is read whole, and the top rung is built again
    assert run() == (files(plan[-2:-1]), files(plan[-1:]))
    assert {f.name: f.read_bytes() for f in tmp_path.iterdir()} == cold


def test_jobs_parallel_determinism():
    seeds = [classify_by_columns(20, 2, dd) for dd in (11, 12, 13)]
    serial = _extend_all(seeds, 11, jobs=1)
    parallel = _extend_all(seeds, 11, jobs=2)
    assert {d: db.keys() for d, db in serial.items()} == \
           {d: db.keys() for d, db in parallel.items()}


@pytest.mark.parametrize("jobs", [0, -3, "cpus + 1"])
def test_extend_all_refuses_jobs_outside_cpu_count(monkeypatch, jobs):
    """A worker count outside 1..os.cpu_count() is refused before a pool
    is made; os.cpu_count() itself gives the serial levels."""
    import concurrent.futures

    seeds = [classify_by_columns(20, 2, dd) for dd in (11, 12, 13)]
    cpus = os.cpu_count()
    jobs = cpus + 1 if jobs == "cpus + 1" else jobs
    with monkeypatch.context() as m:
        m.setattr(concurrent.futures, "ProcessPoolExecutor", None)  # never made
        with pytest.raises(ValueError, match=r"jobs must be in 1\.\."):
            _extend_all(seeds, 11, jobs=jobs)
        with pytest.raises(ValueError, match=r"jobs must be in 1\.\."):
            classify(22, 4, 11, jobs=jobs)
    assert _extend_all(seeds, 11, jobs=cpus) == _extend_all(seeds, 11, jobs=1)


def test_stretch_counts_near_griesmer():
    # direct enumeration settles the tight length-30/31 columns quickly
    db = classify_by_columns(30, 4, 16)
    assert db.count == 1 and lcd_census(db).lcd_count == 0
    assert classify_by_columns(31, 4, 16).count == 5


def _labelled_count(classes, k: int) -> int:
    """Sum over classes of |GL(k,2)| / |Aut|: the vectors their orbits hold."""
    group = len(gl2_matrices(k))
    return sum(group // aut_order(counts, k) for counts in classes)


def distinct_rows(arrays) -> set[tuple[int, ...]]:
    return {tuple(row) for vecs in arrays for row in vecs.tolist()}


def class_list(arrays, k: int) -> list[tuple[int, ...]]:
    return sorted(tuple(int(x) for x in row) for row in canonical_classes(arrays, k))


@pytest.mark.parametrize("n, k, d, classes, labelled",
                         [(10, 4, 4, 24, 31_636), (12, 4, 5, 13, 48_300)])
def test_classes_account_for_every_labelled_candidate(n, k, d, classes, labelled):
    # orbit-stabilizer: the oracle's vectors are every vector of the
    # level, so the orbits of the classes must cover them exactly
    vectors = labelled_vectors(n, k, d)
    assert len(vectors) == len(distinct_rows([vectors])) == labelled
    found = class_list([vectors], k)
    assert len(found) == classes
    assert _labelled_count(found, k) == labelled
    # a census that missed a class would break the identity
    for i in range(len(found)):
        assert _labelled_count(found[:i] + found[i + 1:], k) < labelled
    # the direct candidates are some of those vectors, with every class
    arrays = [vecs for _, vecs in _column_candidates(n, k, d)]
    assert distinct_rows(arrays) <= distinct_rows([vectors])
    assert class_list(arrays, k) == found


def message_weights(vecs: np.ndarray, k: int) -> np.ndarray:
    """(R, 2^k - 1) weights of messages 1 .. 2^k - 1, from the parity of
    each message against each type."""
    types = np.arange(1 << k)
    covers = np.bitwise_count(types[1:, None] & types) & 1
    return vecs.astype(np.int64) @ covers.T


@pytest.mark.parametrize("n, k, d", [
    (6, 1, 3),    # a single message: no rule
    (60, 2, 8),   # plain compositions to z = 36, the WHT branch from z = 37
    (20, 2, 11),  # the WHT branch only
    (7, 3, 2),    # plain compositions, the WHT branch at z = 3
    (14, 3, 6),   # plain compositions at z = 0, the WHT branch from z = 1
    (21, 3, 11),  # the WHT branch only
    (10, 4, 4),   # plain compositions, the WHT branch at z = 2
    (5, 5, 1),    # plain compositions: 83,328 vectors of one class
])
def test_direct_candidates_meet_the_orbit_rule(n, k, d):
    # every level d..dmax at once: each candidate has its least weight at
    # message e1 and the least of the rest at e2, and the candidates are
    # some of the level's labelled vectors with every class among them
    top = griesmer_dmax(n, k)
    arrays = [vecs for _, vecs in _column_candidates(n, k, d, top)]
    w = message_weights(np.concatenate(arrays), k)
    if k > 1:
        assert (w[:, 0] == w.min(axis=1)).all()
        assert (w[:, 1] == w[:, 1:].min(axis=1)).all()
    vectors = [labelled_vectors(n, k, dd) for dd in range(d, top + 1)]
    assert distinct_rows(arrays) <= distinct_rows(vectors)
    assert class_list(arrays, k) == class_list(vectors, k)
    if k > 1:  # the rule keeps fewer vectors than the levels hold
        assert sum(map(len, arrays)) < sum(map(len, vectors))


def test_direct_level_bytes_pinned(tmp_path):
    for (n, k, d), digest in DIRECT_DIGESTS.items():
        path = tmp_path / f"n{n}k{k}d{d}.codedb"
        save_codedb(classify_by_columns(n, k, d), str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, (n, k, d)


@pytest.mark.parametrize("n, k, d, chunk", [(10, 4, 4, 3000), (14, 3, 6, 7), (60, 2, 8, 7)])
def test_direct_candidates_do_not_depend_on_block_size(monkeypatch, n, k, d, chunk):
    # compositions are scored BOX_CHUNK rows at a time; the blocks here
    # split every zero-column count's compositions.  The levels d..dmax of
    # a rung are kept from the same blocks.
    tops = sorted({d, griesmer_dmax(n, k)})
    whole = [list(_column_candidates(n, k, d, top)) for top in tops]
    module = importlib.import_module("lcdlab.classify")
    monkeypatch.setattr(module, "BOX_CHUNK", chunk)
    assert_same_candidates(list(_column_candidates(n, k, d)), whole[0])
    if len(tops) > 1:
        assert sum(len(v) for _, v in whole[1]) > sum(len(v) for _, v in whole[0])
        assert_same_candidates(list(_column_candidates(n, k, d, tops[1])), whole[1])


def assert_same_candidates(got, want):
    assert [z for z, _ in got] == [z for z, _ in want]
    assert_same_arrays([vecs for _, vecs in got], [vecs for _, vecs in want])
