import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import brute
from lcdlab import tables
from lcdlab.classify import classify_by_columns
from lcdlab.code import make_code
from lcdlab.formats import (CodeDB, bounds_report, census_report, code_from_octal,
                            code_report, codedb_dumps, codedb_loads,
                            decode_octal, encode_octal, load_codedb,
                            parse_binary_rows, systematic_code, to_json)
from lcdlab.gf2 import BitMatrix


def test_decode_octal_m23():
    s = "7066743767400003777533415b"
    code = code_from_octal(s, 23, 4)
    assert (code.n, code.k, code.min_weight()) == (23, 4, 12)
    assert not code.is_lcd()
    assert encode_octal(decode_octal(s, 23, 4)) == s


def test_decode_octal_dim5():
    s = "263663176303615761714000037776375746aa"
    code = code_from_octal(s, 27, 5)
    assert (code.n, code.k, code.min_weight()) == (27, 5, 13)


def test_octal_roundtrip_all_fixtures():
    for groups, k in ((tables.DIM4_GENERATORS, 4), (tables.DIM5_GENERATORS, 5)):
        for (n, d), strings in groups:
            for s in strings:
                assert encode_octal(decode_octal(s, n, k)) == s


def test_all_fixture_parameters_and_non_lcd():
    seen = 0
    for groups, k in ((tables.DIM4_GENERATORS, 4), (tables.DIM5_GENERATORS, 5)):
        for (n, d), strings in groups:
            for s in strings:
                code = code_from_octal(s, n, k)
                assert (code.n, code.k, code.min_weight()) == (n, k, d)
                assert not code.is_lcd()
                seen += 1
    assert seen == 41


def test_fixture_30_split():
    by_d = {d: len(ss) for (n, d), ss in tables.DIM4_GENERATORS if n == 30}
    assert by_d == {16: 1, 15: 9}


def test_octal_errors():
    with pytest.raises(ValueError, match="bad symbol"):
        decode_octal("78", 4, 2)
    with pytest.raises(ValueError, match="bits"):
        decode_octal("77", 4, 2)
    with pytest.raises(ValueError, match="after remainder"):
        decode_octal("7a7", 4, 2)
    with pytest.raises(ValueError, match="letters"):
        decode_octal("a" * 3, 3, 2)


@st.composite
def octal_blocks(draw):
    """(s, n, k): a valid octal string of a k x w block, w = 0 included,
    with the 0-, 1- and 2-bit remainders as k w mod 3 falls."""
    k = draw(st.integers(1, 6))
    w = draw(st.integers(0, 14))
    bits = k * w
    s = draw(st.text("01234567", min_size=bits // 3, max_size=bits // 3))
    s += draw(st.text("ab", min_size=bits % 3, max_size=bits % 3))
    return s, k + w, k


def decoded(decode, s, n, k):
    """The decoded block, or the message of the ValueError raised."""
    try:
        return decode(s, n, k)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(octal_blocks())
@example(("", 3, 3))       # zero-width block
@example(("7", 4, 1))      # no remainder
@example(("5a", 5, 1))     # one remainder bit
@example(("3ba", 6, 1))    # two remainder bits
def test_octal_codec_matches_bitwise_oracle(case):
    s, n, k = case
    m = decode_octal(s, n, k)
    assert m == brute.decode_octal(s, n, k)
    assert encode_octal(m) == s
    rows = [format(r | 1 << m.cols, "b")[:0:-1] for r in m.data]
    assert parse_binary_rows(rows, k) == m


@settings(max_examples=300, deadline=None)
@given(st.text("0123456789abcz ", max_size=12), st.integers(1, 6),
       st.integers(0, 8))
@example("78", 2, 2)
@example("7a7", 2, 2)
@example("aaa", 2, 1)
@example("77", 2, 2)
def test_octal_decoder_errors_match_oracle(s, k, w):
    """Any string, valid or not, decodes as the oracle decodes it, or
    raises the same message."""
    n = k + w
    assert decoded(decode_octal, s, n, k) == decoded(brute.decode_octal, s, n, k)


def test_parse_binary_rows_witnesses():
    for n, (d, rows) in tables.DIM5_LCD_WITNESSES.items():
        code = systematic_code(parse_binary_rows(rows, 5))
        assert (code.n, code.k, code.min_weight(), code.is_lcd()) == (n, 5, d, True)


def test_parse_binary_rows_zero_block():
    code = systematic_code(parse_binary_rows(["000", "000"], 2))
    assert (code.n, code.k, code.min_weight()) == (5, 2, 1)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10).flatmap(lambda k: st.tuples(
    st.just(k), st.sampled_from((0, 63, 64, 65, 130)).flatmap(lambda w: st.tuples(
        st.just(w), st.lists(st.integers(0, (1 << w) - 1), min_size=k, max_size=k))))))
def test_systematic_generator_is_reduced(case):
    """[I_k | M] is already in reduced row-echelon form, so systematic_code
    keeps it as it is: it equals the oracle's reduction, of rank k."""
    k, (width, rows) = case
    m = BitMatrix(k, width, tuple(rows))
    red = brute.rref(BitMatrix.identity(k).hstack(m))
    assert red.rank == k
    assert systematic_code(m).generator == red.matrix


def test_parse_binary_rows_errors():
    with pytest.raises(ValueError, match="ragged"):
        parse_binary_rows(["01", "0"])
    with pytest.raises(ValueError, match="binary"):
        parse_binary_rows(["01", "0x"])
    with pytest.raises(ValueError, match="expected 3"):
        parse_binary_rows(["01"], 3)


def test_codedb_roundtrip(tmp_path):
    db = classify_by_columns(8, 2, 4)
    text = codedb_dumps(db)
    assert codedb_loads(text) == db
    assert codedb_dumps(codedb_loads(text)) == text
    with pytest.raises(ValueError):
        codedb_loads("")
    # load_codedb names the file in its errors, also when it is not text
    bad = tmp_path / "bad.codedb"
    bad.write_bytes(b"\xff\n")
    with pytest.raises(ValueError, match="bad.codedb: 'utf-8' codec"):
        load_codedb(str(bad))
    # the one rank check of a file, on rows of one, two and three words:
    # records with the rows of good ones load, and a dependent record, a
    # record with a zero row, one bad record after good ones and a row
    # with a bit past n do not
    for n in (8, 65, 130):
        a, b = 1 | 1 << (n - 1), 2 | 1 << (n // 2)
        good = [(a, b, 4 << i) for i in range(4)]
        assert codedb_loads(_db_text(n, good)).records[-1][1] == good[-1]
        for bad in ([(a, b, a ^ b)], [(a, 0, b)], good + [(a, b, a ^ b)]):
            with pytest.raises(ValueError, match="rank deficient"):
                codedb_loads(_db_text(n, bad))
        if n % 8:  # a bit past n fits in the row's last byte
            with pytest.raises(ValueError, match="outside the column range"):
                codedb_loads(_db_text(n, [(a, b, 1 << n)]))


def _db_text(n: int, records) -> str:
    """A file's text of [n, 3] records with the given rows, its keys
    sorted and its count right, so that only a rank can be wrong."""
    return codedb_dumps(CodeDB(n, 3, 1, "test", tuple(
        (bytes([i]), rows) for i, rows in enumerate(records))))


def test_code_report_schema():
    code = make_code(BitMatrix.identity(3))
    rep = code_report(code)
    assert rep["measured"] == {
        "n": 3, "k": 3, "d": 1, "hull_dim": 0, "is_lcd": True,
        "weight_enumerator": {"0": 1, "1": 3, "2": 3, "3": 1}}
    assert rep["claimed"] is None and rep["match"] is None
    rep = code_report(code, claimed={"d": 1, "is_lcd": True})
    assert rep["match"] is True
    rep = code_report(code, claimed={"d": 2})
    assert rep["match"] is False
    json.loads(to_json(rep))


def test_family_and_fixture_reports():
    from lcdlab.families import family_code
    v = family_code(4, 2, 1)
    rep = code_report(v.code, claimed={"n": 17, "d": 8, "is_lcd": True})
    assert rep["match"] is True
    m22 = code_from_octal(tables.DIM4_GENERATORS[0][1][0], 22, 4)
    rep = code_report(m22, claimed={"is_lcd": True})
    assert rep["match"] is False and rep["measured"]["is_lcd"] is False


def test_census_and_bounds_reports():
    from lcdlab.bounds import griesmer_dmax, known_lcd_d
    from lcdlab.classify import lcd_census
    census = lcd_census(classify_by_columns(4, 4, 1))
    rep = census_report(census)
    assert rep["count"] == census.count and rep["lcd_count"] == census.lcd_count
    rep = bounds_report(24, 12, known_lcd_d(24, 12), griesmer_dmax(24, 12), None)
    assert rep["lcd_known"] == 6 and rep["griesmer"] == 8
    json.loads(to_json(rep))
