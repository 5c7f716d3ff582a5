import random

import pytest

from brute import instantiate, int_gram
from lcdlab import families, tables
from lcdlab.code import make_code
from lcdlab.families import (AffineForm, AffineVec, build_generator,
                             det_is_odd_everywhere, expected_symbolic_we,
                             family_a_vector, family_affine_vector,
                             family_code, family_t_min, poly_add,
                             poly_divexact, poly_eval, poly_mul,
                             symbolic_gram_det, symbolic_weight_enumerator)
from lcdlab.gf2 import BitMatrix, det_int


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
    true_det = families._poly_matrix_det
    extra = (1,)
    for x in range(k + 1) if vanishing else ():
        extra = poly_mul(extra, (-x, 1))
    monkeypatch.setattr(families, "_poly_matrix_det",
                        lambda mat: poly_add(true_det(mat), extra))
    with pytest.raises(AssertionError, match=why):
        symbolic_gram_det(k, family_affine_vector(k, s))


def test_symbolic_gram_det_trivial():
    av = AffineVec(tuple(AffineForm(0, 0) for _ in range(15)))
    assert symbolic_gram_det(4, av) == (1,)


def test_gram_det_evaluations_match_construction():
    for k, table in ((4, tables.DIM4_FAMILY), (5, tables.DIM5_FAMILY)):
        for s in table:
            av = family_affine_vector(k, s)
            poly = symbolic_gram_det(k, av)
            for t in range(family_t_min(k, s), 5):
                g = build_generator(k, family_a_vector(k, s, t))
                assert poly_eval(poly, t) == det_int(int_gram(g))


def test_gram_entry_formulas_random_vectors():
    # closed-form entries against the integer Gram of the built matrix
    rng = random.Random(2)
    for _ in range(100):
        a = [rng.randint(0, 5) for _ in range(15)]
        av = AffineVec(tuple(AffineForm(x, 0) for x in a))
        entries = families._matrix_at(families._gram_entry_polys(4, av), 0)
        assert entries == int_gram(build_generator(4, a))


def test_we_exponents_random_vectors():
    rng = random.Random(4)
    for _ in range(60):
        a = [rng.randint(0, 4) for _ in range(15)]
        av = AffineVec(tuple(AffineForm(x, 0) for x in a))
        swe = symbolic_weight_enumerator(4, av)
        code = make_code(build_generator(4, a))
        assert instantiate(swe, 0) == dict(code.weight_enumerator().coeffs)


def test_poly_helpers():
    assert poly_mul((1, 1), (1, 1)) == (1, 2, 1)
    assert poly_divexact((1, 2, 1), (1, 1)) == (1, 1)
    with pytest.raises(ValueError):
        poly_divexact((1, 1, 1), (1, 1))


def test_unknown_row_rejected():
    with pytest.raises(ValueError):
        family_a_vector(4, 15, 1)
    with pytest.raises(ValueError):
        family_a_vector(6, 0, 1)
