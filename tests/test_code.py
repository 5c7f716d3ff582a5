import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import brute
from brute import codewords, from_columns, gram, matmul, parity_gram
from lcdlab import code as code_module
from lcdlab.code import LinearCode, TypeMultiplicity, code_profiles, make_code
from lcdlab.families import build_generator, family_a_vector
from lcdlab.gf2 import BitMatrix, rref


def bitmat(rows):
    return BitMatrix.from_rows(rows)


def random_code(rng, n=None, k=None) -> LinearCode:
    n = n or rng.randint(2, 10)
    k = k or rng.randint(1, min(n, 5))
    while True:
        rows = [rng.getrandbits(n) for _ in range(k)]
        m = BitMatrix(k, n, tuple(rows))
        if rref(m).rank == k:
            return make_code(m)


def test_make_code_full_space():
    c = make_code(BitMatrix.identity(5))
    assert (c.n, c.k, c.min_weight()) == (5, 5, 1)


def test_make_code_322():
    c = make_code(bitmat([[1, 0, 1], [0, 1, 1]]))
    assert (c.n, c.k, c.min_weight()) == (3, 2, 2)
    assert sorted(codewords(c.generator.data)) == [0b000, 0b011, 0b101, 0b110]


def test_make_code_rejects_rank_deficient():
    with pytest.raises(ValueError):
        make_code(bitmat([[1, 1], [1, 1]]))


def test_dual_of_322():
    d = make_code(bitmat([[1, 0, 1], [0, 1, 1]])).dual()
    assert (d.n, d.k, d.min_weight()) == (3, 1, 3)
    assert d.generator.data == (0b111,)


def test_dual_self_dual_repetition():
    c = make_code(bitmat([[1, 1]]))
    assert c.dual() == c


def test_biduality_random():
    rng = random.Random(11)
    for _ in range(25):
        c = random_code(rng)
        assert c.dual().dual() == c
        assert c.k + c.dual().k == c.n


def test_lcd_status_examples():
    assert make_code(BitMatrix.identity(4)).lcd_status() == (0, True)
    assert make_code(bitmat([[1, 1]])).lcd_status() == (1, False)
    assert make_code(bitmat([[1, 0, 1], [0, 1, 1]])).lcd_status() == (0, True)


def test_lcd_status_generator_invariant():
    rng = random.Random(5)
    for _ in range(25):
        c = random_code(rng)
        status = c.lcd_status()
        # random invertible row transform
        while True:
            t = BitMatrix(c.k, c.k,
                          tuple(rng.getrandbits(c.k) for _ in range(c.k)))
            if rref(t).rank == c.k:
                break
        c2 = LinearCode(matmul(t, c.generator))
        assert c2 == c and c2.lcd_status() == status
        # random column permutation
        perm = list(range(c.n))
        rng.shuffle(perm)
        rows = tuple(sum(((r >> j) & 1) << perm[j] for j in range(c.n))
                     for r in c.generator.data)
        c3 = make_code(BitMatrix(c.k, c.n, rows))
        assert c3.lcd_status() == status


def test_hull_symmetry():
    rng = random.Random(7)
    for _ in range(25):
        c = random_code(rng)
        if c.k == c.n:
            continue
        assert c.hull_dim() == c.dual().hull_dim()


def test_weight_enumerator_examples():
    # identity block only: binomial counts
    c = make_code(build_generator(4, [0] * 15))
    assert dict(c.weight_enumerator().coeffs) == {0: 1, 1: 4, 2: 6, 3: 4, 4: 1}
    c19 = make_code(build_generator(4, family_a_vector(4, 4, 1)))
    assert c19.min_weight() == 9
    assert make_code(bitmat([[1, 1]])).weight_enumerator().coeffs == ((0, 1), (2, 1))


def test_weight_enumerator_mass():
    rng = random.Random(3)
    for _ in range(25):
        c = random_code(rng)
        we = c.weight_enumerator()
        assert sum(count for _, count in we.coeffs) == 1 << c.k
        assert we.coeffs[0] == (0, 1)
        assert c.min_weight() == min(w for w, _ in we.coeffs if w > 0)


@st.composite
def generator_stacks(draw):
    """(k, n, stack): up to four generators of k = 0..10 rows of n <= 200
    bits, several words.  A row may be random, zero, a repeat of an
    earlier row or the XOR of two earlier rows, so stacks hold rank
    deficient generators."""
    k = draw(st.integers(0, 10))
    n = draw(st.integers(0, 200))
    stack = []
    for _ in range(draw(st.integers(0, 4))):
        rows = []
        for _ in range(k):
            kind = draw(st.sampled_from(("random", "zero", "repeat", "sum")))
            if kind == "zero" or not n:
                rows.append(0)
            elif kind == "random" or not rows:
                rows.append(draw(st.integers(0, (1 << n) - 1)))
            elif kind == "repeat":
                rows.append(draw(st.sampled_from(rows)))
            else:
                rows.append(draw(st.sampled_from(rows)) ^ draw(st.sampled_from(rows)))
        stack.append(tuple(rows))
    return k, n, stack


@settings(max_examples=300, deadline=None)
@given(generator_stacks(), st.sampled_from((None, 1, 8, 64)))
@example((3, 5, []), None)  # an empty stack
@example((0, 7, [(), ()]), None)  # k = 0: only the zero message
@example((10, 200, [(1 << 199,) * 10]), 8)  # one repeated row, four words
def test_code_profiles_match_gray_walk_and_rref(case, block):
    """Every generator's weight distribution is the multiset of its Gray
    walk's codeword weights, and its hull is k - rank(G G^T) by rref, also
    with blocks small enough to split the XOR table and the stack."""
    k, n, stack = case
    with mock.patch.object(code_module, "KERNEL_BLOCK",
                           block or code_module.KERNEL_BLOCK):
        counts, hull = code_profiles(k, n, stack)
    assert len(counts) == len(hull) == len(stack)
    for rows, by_weight, h in zip(stack, counts, hull):
        assert len(by_weight) == n + 1
        walk = Counter(cw.bit_count() for cw in codewords(rows))
        assert {w: c for w, c in enumerate(by_weight) if c} == walk
        assert h == k - rref(gram(BitMatrix(k, n, rows))).rank
        assert all(type(x) is int for x in by_weight + [h])
    assert code_profiles(k, n, stack, weights=False)[0] is None
    assert code_profiles(k, n, stack, hulls=False)[1] is None


@st.composite
def codes_with_zero_columns(draw):
    """Full-rank codes of k = 1..7 and n <= 150 whose generators have
    columns cleared at random, so that some are zero."""
    k = draw(st.integers(1, 7))
    n = draw(st.integers(k, 150))
    keep = draw(st.integers(0, (1 << n) - 1))
    rows = [draw(st.integers(0, (1 << n) - 1)) & keep for _ in range(k)]
    red = rref(BitMatrix(k, n, tuple(rows)))
    return LinearCode(BitMatrix(red.rank, n, red.matrix.data[:red.rank]),
                      _reduced=True)


@settings(max_examples=200, deadline=None)
@given(codes_with_zero_columns())
@example(LinearCode(BitMatrix(2, 70, (1, 1 << 69)), _reduced=True))
def test_column_types_match_per_column_form(code):
    assert code.column_types() == brute.column_types(code)


def test_enumeration_cap():
    c = make_code(BitMatrix.identity(29))
    with pytest.raises(ValueError, match="enumeration cap"):
        c.weight_enumerator()


def test_shorten_examples():
    c = make_code(bitmat([[1, 0, 1], [0, 1, 1]]))
    s = c.shorten(2)
    assert (s.n, s.k, s.min_weight()) == (2, 1, 2)
    full = make_code(BitMatrix.identity(6))
    assert (full.shorten(3).n, full.shorten(3).k) == (5, 5)
    # shortening at a zero coordinate keeps the dimension
    z = make_code(bitmat([[1, 0, 0], [0, 1, 0]]))
    assert (z.shorten(2).n, z.shorten(2).k) == (2, 2)


def test_shorten_weight_property():
    rng = random.Random(13)
    for _ in range(30):
        c = random_code(rng)
        if c.min_weight() < 2:
            continue
        for i in range(c.n):
            s = c.shorten(i)
            if s.k == c.k - 1 and s.k >= 1:
                assert s.min_weight() >= c.min_weight()


def test_column_types():
    c = make_code(BitMatrix.identity(2))
    tm = c.column_types()
    assert tm.counts == (0, 1, 1, 0)
    # permuting columns leaves the multiset alone
    c2 = make_code(bitmat([[0, 1], [1, 0]]))
    assert c2.column_types() == tm


def test_column_types_recover_family_vector():
    vec = family_a_vector(4, 3, 1)
    c = make_code(build_generator(4, vec))
    tm = c.column_types()
    assert tm.counts[0] == 0 and tm.n == c.n
    # identity columns contribute one of each unit type on top of vec
    from lcdlab.tables import DIM4_COLUMN_TYPES
    expect = [0] * 16
    for t in (1, 2, 4, 8):
        expect[t] += 1
    for mult, t in zip(vec, DIM4_COLUMN_TYPES):
        expect[t] += mult
    assert tm.counts == tuple(expect)


def test_type_multiplicity_generator_roundtrip():
    rng = random.Random(17)
    for _ in range(20):
        c = random_code(rng)
        tm = c.column_types()
        rebuilt = make_code(tm.generator())
        assert rebuilt.column_types() == tm
        assert rebuilt.weight_enumerator() == c.weight_enumerator()


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 7).flatmap(
    lambda k: st.lists(st.integers(0, 5), min_size=1 << k, max_size=1 << k).map(
        lambda counts: TypeMultiplicity(k, tuple(counts)))))
def test_type_multiplicity_generator_matches_column_list(tm):
    """The generator built from runs equals the one built column by column:
    types ascending, each repeated by its multiplicity, zeros last."""
    cols = [t for t, c in enumerate(tm.counts) if t for _ in range(c)]
    assert tm.generator() == from_columns(tm.k, cols + [0] * tm.counts[0])


@st.composite
def full_rank_multiplicities(draw):
    """Multiplicities at k <= 7 that hold every unit type, so that the
    generator has rank k; a full-rank multiset is GL(k,2)-equivalent to
    one of these, and GL(k,2) keeps the rank of G G^T."""
    k = draw(st.integers(1, 7))
    counts = draw(st.lists(st.integers(0, 4), min_size=1 << k, max_size=1 << k))
    for i in range(k):
        counts[1 << i] = draw(st.integers(1, 4))
    return TypeMultiplicity(k, tuple(counts))


@settings(max_examples=300, deadline=None)
@given(full_rank_multiplicities())
@example(TypeMultiplicity(3, (0, 2, 2, 4, 2, 0, 2, 2)))  # all even: G G^T = 0
@example(TypeMultiplicity(3, (1, 1, 1, 0, 1, 0, 0, 0)))  # the identity and a zero column
@example(TypeMultiplicity(1, (0, 1)))  # [1,1]: LCD
@example(TypeMultiplicity(1, (3, 2)))  # [5,1] of weight 2: self-orthogonal
def test_parity_gram_decides_lcd(tm):
    """The Gram of the odd types is G G^T of the built generator, and it
    has rank k exactly when the code is LCD."""
    g = tm.generator()
    assert parity_gram(tm) == gram(g)
    assert (rref(parity_gram(tm)).rank == tm.k) == LinearCode(g).is_lcd()


def test_equivalence_basics():
    c1 = make_code(bitmat([[1, 0, 1], [0, 1, 1]]))
    c2 = make_code(bitmat([[1, 1, 0], [0, 1, 1]]))
    assert c1.canonical_key() == c2.canonical_key()
    rng = random.Random(23)
    c = random_code(rng, n=8, k=3)
    while True:
        t = BitMatrix(3, 3, tuple(rng.getrandbits(3) for _ in range(3)))
        if rref(t).rank == 3:
            break
    assert LinearCode(matmul(t, c.generator)).canonical_key() == c.canonical_key()


def test_zero_dimensional_dual():
    c = make_code(BitMatrix.identity(4))
    d = c.dual()
    assert (d.n, d.k) == (4, 0)
    assert d.weight_enumerator().coeffs == ((0, 1),)
    with pytest.raises(ValueError):
        d.min_weight()
    assert d.dual() == c


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 8), st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
def test_dim_sum_property(n, k, seed):
    rng = random.Random(seed)
    k = min(k, n)
    c = random_code(rng, n=n, k=k)
    assert c.k + c.dual().k == n
