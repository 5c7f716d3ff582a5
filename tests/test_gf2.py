import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute import mod2, to_lists, transpose
from lcdlab.families import build_generator
from lcdlab.gf2 import (BitMatrix, IntMatrix, det_f2, det_int, gram, matmul,
                        nullspace, rank, rref)


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


def test_rref_family_generator_full_rank():
    g = build_generator(4, [1] * 15)
    assert (g.rows, g.cols) == (4, 19)
    assert rref(g).rank == 4


def test_det_examples():
    assert det_f2(BitMatrix.identity(5)) == 1
    assert det_f2(bitmat([[1, 1], [1, 1]])) == 0
    g = bitmat([[1, 1]])
    assert det_f2(gram(g, "gf2")) == 0
    with pytest.raises(ValueError):
        det_f2(bitmat([[1, 0]]))


def test_gram_examples():
    assert gram(BitMatrix.identity(4), "integer").entries == tuple(
        tuple(1 if i == j else 0 for j in range(4)) for i in range(4))
    # single all-ones column appended to I_4
    g = build_generator(4, [1] + [0] * 14)
    gi = gram(g, "integer")
    assert all(gi.get(i, i) == 2 for i in range(4))
    assert all(gi.get(i, j) == 1 for i in range(4) for j in range(4) if i != j)
    g = bitmat([[1, 1]])
    assert gram(g, "integer").entries == ((2,),)
    assert gram(g, "gf2").data == (0,)


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


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_rank_equals_transpose_rank(m):
    assert rank(m) == rank(transpose(m))


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_gram_integer_reduces_to_gf2(m):
    gi = gram(m, "integer")
    g2 = gram(m, "gf2")
    assert mod2(gi) == g2


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_det_iff_full_rank(m):
    if m.rows != m.cols:
        return
    assert det_f2(m) == (1 if rref(m).rank == m.rows else 0)


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
    assert ns.rows == m.cols - rank(m)
    for v in ns.data:
        for r in m.data:
            assert (v & r).bit_count() % 2 == 0
