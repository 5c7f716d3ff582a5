import random
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute import (canonical_rows, counts_key, gl2_matrices, gl2_type_permutations,
                   orbit_minimum, perm_equivalent, rref, tied_search,
                   type_permutation)
from lcdlab import canonical
from lcdlab.canonical import (canonical_classes, canonical_counts, canonical_key,
                              counts_keys)
from lcdlab.code import TypeMultiplicity, make_code
from lcdlab.formats import code_from_octal
from lcdlab.gf2 import BitMatrix
from lcdlab.tables import DIM4_GENERATORS


# Canonical forms at k = 5 and 6, computed independently by a recursive
# depth-first search over basis images: random vectors, then vectors with
# large automorphism groups (the punctured simplex, parity- and
# weight-class patterns), whose ties the search must carry level by level.
PINNED = [
    (5, (3, 1, 2, 1, 3, 2, 1, 3, 2, 3, 1, 2, 2, 0, 1, 3, 1, 1, 3, 0, 2, 3, 3, 0,
         1, 2, 3, 2, 2, 1, 2, 3),
     (3, 0, 0, 2, 0, 3, 3, 3, 1, 1, 1, 1, 1, 2, 3, 2, 1, 2, 2, 3, 1, 3, 2, 1,
      2, 3, 1, 3, 2, 2, 3, 2)),
    (5, (1, 1, 0, 1, 0, 0, 0, 0, 0, 1, 1, 1, 0, 1, 0, 0, 1, 1, 0, 0, 1, 1, 0, 1,
         1, 1, 1, 1, 0, 0, 1, 0),
     (1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 1, 1, 1, 1, 0, 0, 1, 1, 0, 1, 1, 1,
      1, 1, 0, 1, 1, 0, 1, 0)),
    (6, (2, 2, 0, 0, 0, 0, 0, 1, 2, 0, 1, 0, 0, 0, 1, 0, 2, 1, 2, 1, 1, 2, 1, 2,
         1, 0, 0, 1, 1, 1, 0, 2, 2, 2, 1, 2, 0, 1, 0, 0, 1, 0, 2, 0, 1, 1, 2, 0,
         2, 2, 2, 1, 2, 2, 2, 0, 0, 0, 0, 2, 0, 0, 2, 2),
     (2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 2, 0, 0, 0, 2, 0, 1, 1, 1,
      2, 0, 1, 2, 2, 1, 2, 0, 0, 1, 1, 1, 0, 2, 2, 2, 2, 2, 2, 1, 2, 2, 2, 0,
      2, 2, 2, 1, 1, 1, 0, 2, 1, 1, 2, 0, 0, 2, 1, 0)),
    (6, (0, 4, 1, 1, 3, 4, 1, 1, 0, 1, 4, 0, 4, 4, 4, 0, 4, 0, 4, 1, 4, 2, 0, 0,
         2, 0, 1, 0, 0, 4, 4, 1, 4, 1, 1, 3, 1, 3, 2, 2, 3, 3, 1, 3, 4, 3, 3, 4,
         1, 1, 1, 2, 3, 1, 1, 2, 3, 0, 0, 2, 0, 1, 4, 3),
     (0, 0, 0, 0, 0, 0, 1, 4, 0, 1, 1, 4, 4, 4, 0, 4, 0, 3, 1, 3, 1, 4, 1, 1,
      1, 3, 3, 1, 3, 2, 2, 3, 0, 3, 3, 3, 2, 1, 2, 1, 2, 4, 4, 1, 3, 1, 4, 0,
      1, 1, 4, 0, 1, 4, 4, 2, 4, 3, 2, 4, 4, 0, 1, 1)),
    (5, (0, 0) + (1,) * 30, (0, 0) + (1,) * 30),
    (5, tuple(0 if x == 0 else 1 + x.bit_count() % 2 for x in range(32)),
     (0,) + (1,) * 15 + (2,) * 16),
    (6, tuple(x.bit_count() % 3 for x in range(64)),
     (0, 0, 0, 0, 0, 0, 1, 2, 0, 0, 1, 2, 1, 2, 0, 0, 0, 0, 1, 2, 1, 2, 0, 0,
      2, 1, 1, 2, 2, 1, 2, 1, 0, 0, 1, 2, 2, 1, 1, 2, 1, 2, 0, 0, 2, 1, 2, 1,
      2, 1, 2, 1, 0, 0, 1, 2, 0, 0, 1, 2, 2, 1, 1, 2)),
]


# The 11 distinct greedy forms of the 242 [25,5,12] candidates (the
# ladder-dim5 dedupe) with their canonical forms, one digit per count.
# Their automorphism groups have orders 336, 2688, 120, 144, 384, 9216,
# 144, 1152, 120, 384 and 64512 (the last row): the search must find the
# same least serialization however many bases tie.
PINNED_25_5_12 = [
    ("00000000011111111111111211111112", "00000000011111111111111211111112"),
    ("00000000111111111111111111111112", "00000000111111111111111111111112"),
    ("00000001000101110111111211121222", "00000001000101110111111211121222"),
    ("00000001011111120111111201111112", "00000001011111120111111201111112"),
    ("00000001011111121111111111111111", "00000001011111121111111111111111"),
    ("00000001111111111111111111111111", "00000001111111111111111111111111"),
    ("00000111011101110111011101111222", "00000001011111120111111201111112"),
    ("00000111011101111111111111111111", "00000111011101111111111111111111"),
    ("00010101010101120101011201121212", "00000001000101110111111211121222"),
    ("00010101010101121111111111111111", "00000001011111121111111111111111"),
    ("10000000111111111111111111111111", "10000000111111111111111111111111"),
]


def test_group_sizes():
    assert len(gl2_matrices(2)) == 6
    assert len(gl2_matrices(3)) == 168
    assert len(gl2_matrices(4)) == 20160


def test_type_permutation_is_permutation():
    for rows in gl2_matrices(3)[::17]:
        perm = type_permutation(rows, 3)
        assert perm[0] == 0
        assert sorted(perm) == list(range(8))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_backtracking_matches_table_minimum(k):
    rng = random.Random(100 + k)
    for _ in range(40 if k < 4 else 15):
        counts = tuple(rng.randint(0, 4) for _ in range(1 << k))
        assert canonical_counts(counts, k) == orbit_minimum(counts, k)


@pytest.mark.parametrize("k, counts, canon", PINNED)
def test_pinned_canonical_forms(k, counts, canon):
    assert canonical_counts(counts, k) == canon


@pytest.mark.parametrize("counts, canon", PINNED_25_5_12)
def test_pinned_25_5_12_forms(counts, canon):
    assert canonical_counts(tuple(map(int, counts)), 5) == tuple(map(int, canon))


def _same_as_tied_search(k, rows):
    got = canonical_rows(rows, k)
    want = tied_search(np.array(rows, dtype=np.int32), k)
    assert np.array_equal(got, want), (k, rows)


@st.composite
def random_rows(draw):
    k = draw(st.integers(2, 5))
    return k, draw(st.lists(st.lists(st.integers(0, 3), min_size=1 << k,
                                     max_size=1 << k), min_size=1, max_size=6))


@st.composite
def sparse_rows(draw, low_k=2, high_k=4, fewest=1, most_rows=6):
    # fewest to 4 occupied types: every basis of an all-empty flat ties
    k = draw(st.integers(low_k, high_k))
    rows = []
    for _ in range(draw(st.integers(1, most_rows))):
        row = [draw(st.integers(0, 2))] + [0] * ((1 << k) - 1)
        for t in draw(st.lists(st.integers(1, (1 << k) - 1), min_size=fewest, max_size=4,
                               unique=True)):
            row[t] = draw(st.integers(1, 3))
        rows.append(row)
    return k, rows


@st.composite
def symmetric_rows(draw):
    # multiples of the simplex and weight-class patterns (the count of x
    # depends only on its weight), with an extra count on one subspace;
    # at k = 5 the nonzero weights get distinct counts, so that the
    # oracle's tied bases (all of GL(5,2) for the simplex) stay few
    k = draw(st.integers(2, 5))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        if k == 5:
            w = [draw(st.integers(0, 3))] + draw(st.permutations(range(1, 6)))
            sub = 0
        else:
            w = draw(st.lists(st.integers(0, 3), min_size=k + 1, max_size=k + 1))
            if draw(st.booleans()):
                w[1:] = [w[1]] * k  # a multiple of the simplex
            sub = draw(st.integers(0, (1 << k) - 1))
        rows.append([w[x.bit_count()] + (x & sub == x) for x in range(1 << k)])
    return k, rows


@settings(max_examples=60, deadline=None)
@given(random_rows())
def test_search_matches_tied_search_on_random_rows(case):
    _same_as_tied_search(*case)


@settings(max_examples=60, deadline=None)
@given(sparse_rows())
def test_search_matches_tied_search_on_sparse_rows(case):
    _same_as_tied_search(*case)


# at k = 5 the search probes the tied bases and prunes them by the
# automorphisms it finds; the oracle takes about 0.2 s a row there
@settings(max_examples=12, deadline=None)
@given(sparse_rows(low_k=5, high_k=5, fewest=2, most_rows=2))
def test_search_matches_tied_search_on_sparse_rows_k5(case):
    _same_as_tied_search(*case)


@settings(max_examples=60, deadline=None)
@given(symmetric_rows())
def test_search_matches_tied_search_on_symmetric_rows(case):
    _same_as_tied_search(*case)


def test_batch_equals_row_at_a_time(monkeypatch):
    rng = random.Random(7)
    batches = {k: [tuple(rng.randint(0, 2) for _ in range(1 << k)) for _ in range(30)]
               + [counts for kk, counts, _ in PINNED if kk == k] for k in (3, 4, 5, 6)}
    one = {k: [canonical_counts(counts, k) for counts in batch]
           for k, batch in batches.items()}

    def batched(k):
        return [tuple(int(x) for x in r) for r in canonical_rows(batches[k], k)]

    assert all(batched(k) == one[k] for k in batches)
    # slices far smaller than a level: every level is scored in many
    # steps, and ties and lower blocks are merged across them
    monkeypatch.setattr(canonical, "PAIR_SLICE", 256)
    assert all(batched(k) == one[k] for k in batches)



@pytest.mark.parametrize("block", [None, 1, 7])
def test_classes_are_the_distinct_canonical_rows(monkeypatch, block):
    # each row next to its canonical form, in arrays of uneven length: the
    # classes are the distinct forms, whichever blocks the greedy pass sees;
    # each block is one slice of the stacked arrays, across their boundaries,
    # and the classes are those of one stacked call
    rng = random.Random(11)
    for k in (3, 4, 5):
        rows = [tuple(rng.randint(0, 3) for _ in range(1 << k)) for _ in range(40)]
        rows += [canonical_counts(r, k) for r in rows]
        rng.shuffle(rows)
        arrays = [np.array(rows[:5], dtype=np.int16), np.empty((0, 1 << k), np.int16),
                  np.array(rows[5:], dtype=np.int16)]
        stacked = canonical_classes([np.vstack(arrays)], k)
        if block:
            monkeypatch.setattr(canonical, "GREEDY_BLOCK", block)
        size = canonical.GREEDY_BLOCK
        assert [b.tolist() for b in canonical._blocks(arrays, size)] == \
               [list(map(list, rows[lo:lo + size])) for lo in range(0, len(rows), size)]
        got = canonical_classes(arrays, k)
        assert np.array_equal(got, stacked)
        got = [tuple(int(x) for x in r) for r in got]
        assert len(got) == len(set(got))
        assert set(got) == {canonical_counts(r, k) for r in rows}
        monkeypatch.undo()
    assert canonical_classes([], 4).shape == (0, 16)


def test_classes_hold_one_block_of_the_input(monkeypatch):
    # 3.2 MB of rows in 20 arrays: the rows are never stacked whole
    rng = np.random.default_rng(3)
    arrays = [rng.integers(0, 4, (20000, 4)).astype(np.int16) for _ in range(20)]
    monkeypatch.setattr(canonical, "GREEDY_BLOCK", 4096)
    tracemalloc.start()
    try:
        got = canonical_classes(arrays, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, canonical_classes([np.vstack(arrays)], 2))
    assert peak < sum(a.nbytes for a in arrays) // 2


@pytest.mark.parametrize("k", range(1, 7))
def test_counts_keys_match_struct_keys(k):
    rng = np.random.default_rng(20 + k)
    vecs = rng.integers(0, 300, (25, 1 << k))
    assert counts_keys(k, vecs) == [counts_key(int(v.sum()), k, tuple(v.tolist()))
                                    for v in vecs]
    assert counts_keys(k, vecs[:0]) == []
    with pytest.raises(ValueError, match="2\\^16"):
        counts_keys(k, [[0] * ((1 << k) - 1) + [1 << 16]])


def test_canonical_counts_match_canonical_rows():
    rng = random.Random(13)
    for k in range(1, 7):
        rows = [tuple(rng.randint(0, 3) for _ in range(1 << k)) for _ in range(12)]
        rows += [counts for kk, counts, _ in PINNED if kk == k]
        assert [canonical_counts(r, k) for r in rows] == \
               [tuple(r) for r in canonical_rows(rows, k).tolist()]


def test_canonical_counts_invariant_on_orbit():
    rng = random.Random(9)
    counts = tuple(rng.randint(0, 3) for _ in range(32))
    canon = canonical_counts(counts, 5)
    perms = [type_permutation(rows, 5) for rows in
             (tuple(rng.getrandbits(5) for _ in range(5)) for _ in range(200))
             if rref(BitMatrix(5, 5, rows)).rank == 5]
    for perm in perms[:20]:
        image = tuple(counts[perm[x]] for x in range(32))
        assert canonical_counts(image, 5) == canon


def test_key_roundtrip():
    tm = TypeMultiplicity(3, (1, 2, 0, 1, 3, 0, 0, 1))
    key = canonical_key(tm)
    k, n = struct.unpack(">BH", key[:3])
    canon = struct.unpack(f">{(len(key) - 3) // 2}H", key[3:])
    assert (n, k) == (tm.n, 3)
    assert canon == canonical_counts(tm.counts, 3)
    assert counts_key(n, k, canon) == key


def test_orbit_contains_identity_image():
    counts = (0, 3, 1, 1, 2, 0, 0, 1)
    orb = np.asarray(counts)[gl2_type_permutations(3)]
    assert any(tuple(int(x) for x in row) == counts for row in orb)


def test_inequivalent_table_codes_get_distinct_keys():
    (n, d), strings = DIM4_GENERATORS[0]
    c1 = code_from_octal(strings[0], n, 4)
    c2 = code_from_octal(strings[1], n, 4)
    assert c1.canonical_key() != c2.canonical_key()


def test_equivalence_against_permutation_brute_force():
    rng = random.Random(41)
    agree = disagree = 0
    for _ in range(12):
        n = rng.randint(4, 7)
        k = rng.randint(2, 3)
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
        got = c1.canonical_key() == c2.canonical_key()
        assert got == want, (c1.generator.data, c2.generator.data)
        agree += want
        disagree += not want
    assert agree and disagree  # both outcomes exercised


def test_canonical_cap():
    tm = TypeMultiplicity(7, tuple([1] * 128))
    with pytest.raises(ValueError):
        canonical_key(tm)
