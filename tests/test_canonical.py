import random
import struct

import numpy as np
import pytest

from brute import perm_equivalent, type_permutation
from lcdlab.canonical import (canonical_counts, canonical_key, counts_key,
                              gl2_matrices, gl2_type_permutations)
from lcdlab.code import TypeMultiplicity, make_code
from lcdlab.formats import code_from_octal
from lcdlab.gf2 import BitMatrix, rref
from lcdlab.tables import DIM4_GENERATORS


def brute_min(counts, k):
    arr = np.asarray(counts, dtype=np.int64)
    images = arr[gl2_type_permutations(k)]
    return tuple(int(x) for x in np.unique(images, axis=0)[0])


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
        assert canonical_counts(counts, k) == brute_min(counts, k)


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
    assert not c1.equivalent(c2)


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
        got = c1.equivalent(c2)
        assert got == want, (c1.generator.data, c2.generator.data)
        agree += want
        disagree += not want
    assert agree and disagree  # both outcomes exercised


def test_canonical_cap():
    tm = TypeMultiplicity(7, tuple([1] * 128))
    with pytest.raises(ValueError):
        canonical_key(tm)
