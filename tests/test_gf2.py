from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brute import (IntMatrix, column, det_int, from_columns, from_runs, gram,
                   int_gram, matmul, mod2, nullspace, rref, rref_lists, to_lists,
                   transpose)
from lcdlab import gf2
from lcdlab.code import message_weights, type_counts
from lcdlab.families import build_generator
from lcdlab.gf2 import BitMatrix, pack_rows, pack_runs, rref_stack, stack_rows


def bitmat(rows):
    return BitMatrix.from_rows(rows)


matrices = st.integers(1, 6).flatmap(
    lambda r: st.integers(1, 8).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(0, 1), min_size=c, max_size=c),
            min_size=r, max_size=r).map(bitmat)))


def test_rref_identity():
    m = BitMatrix.identity(4)
    red = rref(m)
    assert red.matrix == m
    assert red.rank == 4
    assert red.pivots == (0, 1, 2, 3)


def test_rref_duplicate_row():
    red = rref(bitmat([[1, 1], [1, 1]]))
    assert red.rank == 1
    assert red.pivots == (0,)


def test_constructor_rejects_bits_outside_columns():
    for rows, cols, data in ((2, 3, (1, 8)), (1, 0, (1,)), (2, 2, (1, -1))):
        with pytest.raises(ValueError, match="outside the column range"):
            BitMatrix(rows, cols, data)
    assert BitMatrix(2, 3, (7, 0)).data == (7, 0)


def test_rref_family_generator_full_rank():
    g = build_generator(4, [1] * 15)
    assert (g.rows, g.cols) == (4, 19)
    assert rref(g).rank == 4


def test_gram_examples():
    assert gram(BitMatrix.identity(4)) == BitMatrix.identity(4)
    assert int_gram(BitMatrix.identity(4)).entries == tuple(
        tuple(1 if i == j else 0 for j in range(4)) for i in range(4))
    # single all-ones column appended to I_4
    g = build_generator(4, [1] + [0] * 14)
    gi = int_gram(g).entries
    assert all(gi[i][i] == 2 for i in range(4))
    assert all(gi[i][j] == 1 for i in range(4) for j in range(4) if i != j)
    assert gram(g).data == (0b1110, 0b1101, 0b1011, 0b0111)
    g = bitmat([[1, 1]])
    assert int_gram(g).entries == ((2,),)
    assert gram(g).data == (0,)


def test_matmul_examples():
    a = bitmat([[1, 0, 1], [0, 1, 1]])
    assert matmul(a, BitMatrix.identity(3)) == a
    perm = bitmat([[0, 1, 0], [0, 0, 1], [1, 0, 0]])  # col j -> row order
    prod = matmul(a, perm)
    assert to_lists(prod) == [[1, 1, 0], [1, 0, 1]]
    with pytest.raises(ValueError):
        matmul(a, a)


def test_row_space_invariance_under_invertible_transform():
    g = bitmat([[1, 0, 1, 1], [0, 1, 1, 0]])
    t = bitmat([[1, 1], [0, 1]])
    assert rref(matmul(t, g)).matrix == rref(g).matrix


def test_padding_enforced():
    with pytest.raises(ValueError):
        BitMatrix(1, 2, (4,))


def test_det_int_bareiss():
    m = IntMatrix(3, 3, ((2, 0, 1), (1, 1, 0), (0, 3, 4)))
    assert det_int(m) == 2 * (1 * 4 - 0 * 3) - 0 + 1 * (3 - 0)
    assert det_int(IntMatrix(2, 2, ((0, 1), (1, 0)))) == -1
    assert det_int(IntMatrix(2, 2, ((1, 2), (2, 4)))) == 0


@st.composite
def rref_cases(draw):
    """Random rows, then rows that are sums of some of them (so the rank
    falls short of the rows), shuffled; no rows at all is a case too."""
    cols = draw(st.integers(0, 12))
    rows = draw(st.lists(st.integers(0, (1 << cols) - 1), max_size=7))
    for mask in draw(st.lists(st.integers(0, (1 << len(rows)) - 1),
                              max_size=4 if rows else 0)):
        acc = 0
        for i, r in enumerate(rows):
            if mask >> i & 1:
                acc ^= r
        rows.append(acc)
    rows = draw(st.permutations(rows))
    return BitMatrix(len(rows), cols, tuple(rows))


@settings(max_examples=300, deadline=None)
@given(rref_cases())
@example(BitMatrix(0, 5, ()))  # no rows
@example(BitMatrix(3, 0, (0, 0, 0)))  # no columns
@example(BitMatrix(3, 4, (0, 0, 0)))  # all zero
@example(BitMatrix(3, 4, (0b0110, 0b0110, 0b1010)))  # a repeated row
def test_rref_matches_elimination_oracle(m):
    """rref equals an elimination on lists of bits, zero rows last."""
    red = rref(m)
    want, rank, pivots = rref_lists(m)
    assert (red.rank, red.pivots) == (rank, pivots)
    assert to_lists(red.matrix) == want
    assert (red.matrix.rows, red.matrix.cols) == (m.rows, m.cols)


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_rank_equals_transpose_rank(m):
    assert rref(m).rank == rref(transpose(m)).rank


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_gram_integer_reduces_to_gf2(m):
    assert mod2(int_gram(m)) == gram(m)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_matmul_associative(data):
    dims = [data.draw(st.integers(1, 5), label=f"d{i}") for i in range(4)]
    mats = []
    for r, c in zip(dims, dims[1:]):
        rows = data.draw(st.lists(
            st.lists(st.integers(0, 1), min_size=c, max_size=c),
            min_size=r, max_size=r))
        mats.append(bitmat(rows))
    a, b, c = mats
    assert matmul(matmul(a, b), c) == matmul(a, matmul(b, c))


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_nullspace_is_orthogonal_complement(m):
    ns = nullspace(m)
    assert ns.rows == m.cols - rref(m).rank
    for v in ns.data:
        for r in m.data:
            assert (v & r).bit_count() % 2 == 0


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 10).flatmap(lambda k: st.tuples(
    st.just(k), st.lists(st.integers(0, (1 << (k + 2)) - 1), max_size=120))))
def test_from_columns_matches_row_by_row(case):
    # the k-pass construction: row i gathers bit i of every column, and
    # column bits at i >= k are dropped
    k, cols = case
    rows = tuple(sum(((c >> i) & 1) << j for j, c in enumerate(cols))
                 for i in range(k))
    m = from_columns(k, cols)
    assert m == BitMatrix(k, len(cols), rows)
    assert [column(m, j) for j in range(len(cols))] == \
        [c & ((1 << k) - 1) for c in cols]


@st.composite
def run_stacks(draw):
    """(k, types, mult): up to four generators of k = 1..8 rows over one
    ordered tuple of column types, each of a length drawn around the
    word boundaries (0, 63, 64, 65, 130) or below 130, split into runs at
    random.  The types may hold type 0 (zero columns), and a row may be
    cleared or copied from another in every type, so generators hold
    zero and repeated rows and are rank deficient."""
    k = draw(st.integers(1, 8))
    types = draw(st.lists(st.integers(0, (1 << k) - 1), min_size=1, max_size=12))
    for i in range(k):
        kind = draw(st.sampled_from(("keep", "keep", "zero", "copy")))
        j = draw(st.integers(0, k - 1))
        for x, t in enumerate(types):
            if kind == "zero" or (kind == "copy" and not t >> j & 1):
                types[x] = t & ~(1 << i)
            elif kind == "copy":
                types[x] = t | 1 << i
    mult = []
    for _ in range(draw(st.integers(0, 4))):
        n = draw(st.sampled_from((0, 63, 64, 65, 130)) | st.integers(0, 130))
        cuts = sorted(draw(st.lists(st.integers(0, n), min_size=len(types) - 1,
                                    max_size=len(types) - 1)))
        mult.append([b - a for a, b in zip([0] + cuts, cuts + [n])])
    return k, types, mult


@settings(max_examples=300, deadline=None)
@given(run_stacks(), st.sampled_from((None, 1, 100)))
@example((3, [1, 2, 4], []), None)  # an empty stack
@example((2, [0, 1, 3], [[5, 60, 0], [64, 1, 0], [0, 0, 130]]), 1)
def test_run_stack_reduces_like_rref(case, block):
    """pack_runs builds the rows brute.from_runs builds, and rref_stack
    gives the reduced rows and rank of brute.rref, generator for
    generator (the same ranks when only they are asked for), also with
    blocks small enough to split the stack; the kernel weighs the stack
    as it weighs its rows packed again by pack_rows."""
    k, types, mult = case
    with mock.patch.object(gf2, "STACK_BLOCK", block or gf2.STACK_BLOCK):
        stack = pack_runs(k, types, mult)
        built = stack_rows(stack)
        reduced, rank = rref_stack(stack.copy())
        assert (rref_stack(stack.copy(), rows=False)[1] == rank).all()
    width = max((sum(row) for row in mult), default=0)
    assert stack.shape == (len(mult), k, max(1, -(-width // 64)))
    assert len(built) == len(rank) == len(mult)
    for rows, red, r, row in zip(built, stack_rows(reduced), rank.tolist(), mult):
        m = from_runs(k, list(zip(types, row)))
        assert rows == m.data
        oracle = rref(m)
        assert (red, r) == (oracle.matrix.data, oracle.rank)
    weights = message_weights(k, type_counts(k, width, stack))
    assert (weights == message_weights(k, type_counts(k, width, pack_rows(k, width, built)))).all()
