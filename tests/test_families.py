import random
from math import factorial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brute import IntMatrix, det_int, from_columns, instantiate, int_gram, poly_eval
from lcdlab import families, tables
from lcdlab.code import make_code
from lcdlab.families import (AffineForm, AffineVec, build_generator,
                             det_is_odd_everywhere, expected_symbolic_we,
                             family_a_vector, family_affine_vector,
                             family_code, family_t_min, symbolic_gram_det,
                             symbolic_weight_enumerator)
from lcdlab.gf2 import BitMatrix


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((4, 5)).flatmap(lambda k: st.tuples(
    st.just(k), st.lists(st.integers(0, 6), min_size=(1 << k) - 1,
                         max_size=(1 << k) - 1))))
@example((4, [0] * 15))
@example((5, [0] * 30 + [3]))
def test_build_generator_matches_column_list(case):
    """The generator built from runs equals the one built column by column:
    the unit columns, then each block's type repeated a[j] times."""
    k, a = case
    cols = [1 << i for i in range(k)]
    for t, mult in zip(families.column_order(k), a):
        cols += [t] * mult
    assert build_generator(k, a) == from_columns(k, cols)


def test_column_orders_complete():
    assert sorted(tables.DIM4_COLUMN_TYPES) == list(range(1, 16))
    assert sorted(tables.DIM5_COLUMN_TYPES) == list(range(1, 32))


def test_build_generator_examples():
    assert build_generator(4, [0] * 15) == BitMatrix.identity(4)
    g = build_generator(4, [1] * 15)
    assert (g.rows, g.cols) == (4, 19)
    g = build_generator(5, [1] * 31)
    assert (g.rows, g.cols) == (5, 36)
    with pytest.raises(ValueError):
        build_generator(4, [1] * 14 + [-1])
    with pytest.raises(ValueError):
        build_generator(6, [1] * 63)


def test_family_a_vector_examples():
    assert family_a_vector(4, 3, 1) == (1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 1, 1, 1, 1)
    with pytest.raises(ValueError, match="a_8"):
        family_a_vector(4, 2, 0)
    vec = family_a_vector(5, 4, 1)
    assert vec == tuple(1 if i != 28 else 0 for i in range(31))


def test_family_t_min_agrees_with_published_range():
    for k, rows in ((4, tables.DIM4_FAMILY), (5, tables.DIM5_FAMILY)):
        for s in rows:
            assert family_t_min(k, s) == rows[s][2]


def test_family_code_examples():
    v = family_code(4, 2, 1)
    assert (v.code.n, v.code.k, v.measured_d, v.is_lcd) == (17, 4, 8, True)
    v = family_code(4, 0, 1)
    assert (v.code.n, v.measured_d) == (15, 6) and v.match
    v = family_code(5, 20, 1)
    assert (v.code.n, v.measured_d) == (51, 25) and v.match


def test_all_rows_all_small_t():
    for s in range(15):
        for t in range(family_t_min(4, s), 5):
            assert family_code(4, s, t).match, (4, s, t)
    for s in range(31):
        for t in range(family_t_min(5, s), 4):
            assert family_code(5, s, t).match, (5, s, t)


def test_symbolic_we_matches_tables_term_for_term():
    for k, count in ((4, 15), (5, 31)):
        for s in range(count):
            got = symbolic_weight_enumerator(k, family_affine_vector(k, s))
            assert got == expected_symbolic_we(k, s), (k, s)
            assert sum(m for m, _ in got.terms) == (1 << k) - 1


def test_symbolic_we_instantiation_equals_exhaustive():
    for k in (4, 5):
        for s in range(15 if k == 4 else 31):
            swe = symbolic_weight_enumerator(k, family_affine_vector(k, s))
            for t in range(family_t_min(k, s), 5):
                code = make_code(build_generator(k, family_a_vector(k, s, t)))
                assert instantiate(swe, t) == dict(code.weight_enumerator().coeffs)


def test_trivial_symbolic_we():
    av = AffineVec(tuple(AffineForm(0, 0) for _ in range(15)))
    swe = symbolic_weight_enumerator(4, av)
    assert instantiate(swe, 0) == {0: 1, 1: 4, 2: 6, 3: 4, 4: 1}


def test_symbolic_gram_det_matches_tables():
    for k, table in ((4, tables.DIM4_DET), (5, tables.DIM5_DET)):
        for s, want in table.items():
            got = symbolic_gram_det(k, family_affine_vector(k, s))
            assert got == want, (k, s)
            assert det_is_odd_everywhere(got)


@pytest.mark.parametrize("k, s", [(4, 2), (5, 30)])
@pytest.mark.parametrize("vanishing, why", [
    (True, "degree above"),         # + t(t-1)...(t-k): agrees at t = 0..k
    (False, "not det_int at t=0"),  # + 1
])
def test_gram_det_check_rejects_a_wrong_polynomial(monkeypatch, k, s,
                                                   vanishing, why):
    true_interpolate = families._interpolate
    extra = (1,)
    for x in range(k + 1) if vanishing else ():
        extra = tuple(a - x * b for a, b in zip((0,) + extra, extra + (0,)))

    def wrong(values):
        got = true_interpolate(values)
        width = max(len(got), len(extra))
        return tuple(sum(p[i] for p in (got, extra) if i < len(p))
                     for i in range(width))
    monkeypatch.setattr(families, "_interpolate", wrong)
    with pytest.raises(AssertionError, match=why):
        symbolic_gram_det(k, family_affine_vector(k, s))


@pytest.mark.parametrize("k, s", [(4, 2), (5, 30)])
def test_gram_det_check_rejects_a_wrong_value(monkeypatch, k, s):
    # a determinant one too high at t = k for residue s moves its k-th
    # difference by 1, which k! does not divide: no integer polynomial
    # takes these values
    real = families._dets
    calls = []

    def off_by_one_at_k(m):
        calls.append(len(m))
        dets = real(m)
        dets[s * (k + 1) + k] += 1
        return dets
    monkeypatch.setattr(families, "_dets", off_by_one_at_k)
    avs = [family_affine_vector(k, r) for r in range((1 << k) - 1)]
    with pytest.raises(AssertionError, match=f"difference {k} .* of {k}!"):
        families.symbolic_gram_dets(k, avs)
    assert calls == [len(avs) * (k + 1)]


def int_stacks(draw_entries):
    """(N, k, k) int64 stacks, k = 1..5, N = 1..4."""
    return st.tuples(st.integers(1, 5), st.integers(1, 4)).flatmap(
        lambda kn: st.lists(draw_entries, min_size=kn[1] * kn[0] ** 2,
                            max_size=kn[1] * kn[0] ** 2).map(
            lambda e: np.array(e, dtype=np.int64).reshape(kn[1], kn[0], kn[0])))


@settings(max_examples=300, deadline=None)
@given(int_stacks(st.one_of(st.integers(-2, 2),
                            st.integers(-(1 << 63), (1 << 63) - 1))))
@example(np.array([[[0, 1], [1, 0]], [[0, 0], [0, 5]]]))  # zero pivots
@example(np.array([[[1, 2, 3], [-2, -4, -6], [0, 5, -7]]]))  # singular
@example(np.array([[[-3, 1], [4, -2]]]))  # negative determinant
@example(np.full((2, 5, 5), -(1 << 63)))  # Python ints; |min| overflows int64
@example(np.diag([1 << 21, 1 << 21, 1 << 20])[None])  # Python ints; det 2^62 fits
def test_batched_determinants_match_bareiss(m):
    """_dets equals Bareiss elimination matrix by matrix, on int64 while
    k! M^k < 2^63 and on Python ints past it."""
    k = m.shape[1]
    got = families._dets(m)
    assert got.tolist() == [det_int(IntMatrix(k, k, tuple(map(tuple, g))))
                            for g in m.tolist()]
    top = max(int(m.max()), -int(m.min()))
    assert (got.dtype == object) == (factorial(k) * top ** k >= 1 << 63)


def test_symbolic_gram_det_trivial():
    av = AffineVec(tuple(AffineForm(0, 0) for _ in range(15)))
    assert symbolic_gram_det(4, av) == (1,)


def test_gram_det_evaluations_match_construction():
    # t = k + 1, k + 2 lie past the interpolation points t = 0..k
    for k, table in ((4, tables.DIM4_FAMILY), (5, tables.DIM5_FAMILY)):
        for s in table:
            av = family_affine_vector(k, s)
            poly = symbolic_gram_det(k, av)
            for t in range(family_t_min(k, s), k + 3):
                g = build_generator(k, family_a_vector(k, s, t))
                assert poly_eval(poly, t) == det_int(int_gram(g))


def random_affine_vec(rng, top: int, size: int = 15) -> AffineVec:
    return AffineVec(tuple(AffineForm(rng.randint(0, top), rng.randint(0, 2))
                           for _ in range(size)))


@pytest.mark.parametrize("k", [4, 5])
def test_batched_symbolic_parts_equal_stacks_of_one(k):
    # a row of large offsets sends the whole batch's determinants through
    # Python ints, while its small rows alone stay in int64
    rng = random.Random(k)
    for _ in range(12):
        avs = [random_affine_vec(rng, rng.choice((5, 10 ** 6)), (1 << k) - 1)
               for _ in range(rng.randint(1, 8))]
        assert families.symbolic_gram_dets(k, avs) == [
            symbolic_gram_det(k, av) for av in avs]
        assert families.symbolic_weight_enumerators(k, avs) == [
            symbolic_weight_enumerator(k, av) for av in avs]


def test_gram_entry_formulas_random_vectors():
    # the Gram of the column-type counts at t against the integer Gram of
    # the built matrix
    rng = random.Random(2)
    for _ in range(100):
        av, t = random_affine_vec(rng, 5), rng.randint(0, 3)
        off, slope = families._type_counts(4, [av])
        gram = families._gram(4, off[0] + t * slope[0])
        assert (IntMatrix(4, 4, tuple(map(tuple, gram.tolist())))
                == int_gram(build_generator(4, av(t))))


def test_we_exponents_random_vectors():
    rng = random.Random(4)
    for _ in range(60):
        av, t = random_affine_vec(rng, 4), rng.randint(0, 3)
        swe = symbolic_weight_enumerator(4, av)
        code = make_code(build_generator(4, av(t)))
        assert instantiate(swe, t) == dict(code.weight_enumerator().coeffs)


def test_family_codes_reject_a_member_below_range_mid_batch():
    with pytest.raises(ValueError) as single:
        family_a_vector(4, 2, 0)
    with pytest.raises(ValueError) as batch:
        families.family_codes(4, [(0, 1), (2, 0), (3, 1)])
    assert str(batch.value) == str(single.value)


def test_unknown_row_rejected():
    with pytest.raises(ValueError):
        family_a_vector(4, 15, 1)
    with pytest.raises(ValueError):
        family_a_vector(6, 0, 1)
