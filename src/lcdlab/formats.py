"""Bit-exact codecs: octal-packed generator matrices, plain binary row
lists, classification databases (CodeDB) and their files, and JSON reports.

Octal convention: the k rows of the non-identity block M of a generator
[I_k | M] are concatenated m_1 || ... || m_k, chunked into octal digits
of 3 bits each read most-significant-first (0=000 .. 7=111); a final
remainder of 1 or 2 bits is written as the letters a=0, b=1.  The codec
works by rows: decoding checks the symbols, expands them to one bit
string and reads each row from its slice, column 0 as the low bit;
encoding formats each row once, and writes the bits as one octal
number and the remainder letters.  Binary row lists are read the same
way.  Row ints
in database files are serialized as little-endian bytes in hex, so byte
0 carries columns 0..7 (column 0 in its lowest bit).
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass

from .code import LinearCode
from .gf2 import BitMatrix, pack_rows, row_bits, rref_stack

OCTAL_DIGITS = "01234567"
LETTER_BITS = {"a": "0", "b": "1"}
BITS_LETTER = {v: k for k, v in LETTER_BITS.items()}


def decode_octal(s: str, n: int, k: int) -> BitMatrix:
    """Decode the k x (n-k) block M from its octal string."""
    want = k * (n - k)
    letters = 0
    for ch in s:
        if ch in OCTAL_DIGITS:
            if letters:
                raise ValueError(f"octal digit after remainder letter in {s!r}")
        elif ch in LETTER_BITS:
            letters += 1
            if letters > 2:
                raise ValueError(f"more than two remainder letters in {s!r}")
        else:
            raise ValueError(f"bad symbol {ch!r} in octal string")
    digits = s[:len(s) - letters]
    # a leading 1 keeps the leading zeros: 3 bits per octal digit follow it
    flat = bin(int("1" + digits, 8))[3:]
    flat += "".join(LETTER_BITS[c] for c in s[len(digits):])
    if len(flat) != want:
        raise ValueError(
            f"octal string yields {len(flat)} bits, need {want} for k={k}, n={n}")
    width = n - k
    return BitMatrix(k, width, tuple(_row_int(flat[i * width:(i + 1) * width])
                                     for i in range(k)))


def encode_octal(m: BitMatrix) -> str:
    """Inverse of decode_octal for a k x (n-k) block."""
    flat = "".join(row_bits(r, m.cols) for r in m.data)
    whole = len(flat) - len(flat) % 3  # bits written as octal digits
    # as in decode_octal, a leading 1 keeps the leading zeros
    digits = oct(int("1" + flat[:whole], 2))[3:]
    return digits + "".join(BITS_LETTER[c] for c in flat[whole:])


def _row_int(bits: str) -> int:
    """A row written column 0 first, as a row int (column 0 the low bit)."""
    return int(bits[::-1] or "0", 2)


def parse_binary_rows(rows, k: int | None = None) -> BitMatrix:
    """Rows of 0/1 characters into a BitMatrix (row i, char j -> bit (i,j))."""
    rows = list(rows)
    if k is not None and len(rows) != k:
        raise ValueError(f"expected {k} rows, got {len(rows)}")
    if not rows:
        raise ValueError("no rows")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError("ragged rows")
    if any(r.strip("01") for r in rows):
        raise ValueError("rows must be binary strings")
    return BitMatrix(len(rows), width, tuple(map(_row_int, rows)))


def systematic_code(m: BitMatrix) -> LinearCode:
    """The code generated by [I_k | M].  That generator is already in
    reduced row-echelon form: its pivots are columns 0 .. k-1, and each
    pivot column is clear in every other row."""
    if m.rows == 0:
        raise ValueError("a code needs at least one generator row")
    return LinearCode(BitMatrix.identity(m.rows).hstack(m), _reduced=True)


def code_from_octal(s: str, n: int, k: int) -> LinearCode:
    return systematic_code(decode_octal(s, n, k))


# -- classification database files ----------------------------------------------


@dataclass(frozen=True)
class CodeDB:
    """Deduplicated classification result: one representative per class."""

    n: int
    k: int
    d: int
    method: str
    records: tuple[tuple[bytes, tuple[int, ...]], ...]  # (key, RREF rows), key-sorted

    @property
    def count(self) -> int:
        return len(self.records)

    def keys(self) -> tuple[bytes, ...]:
        return tuple(key for key, _ in self.records)


def _row_hex(row: int, cols: int) -> str:
    return row.to_bytes((cols + 7) // 8, "little").hex()


def _row_unhex(h: str) -> int:
    return int.from_bytes(bytes.fromhex(h), "little")


def codedb_dumps(db: CodeDB) -> str:
    lines = [f"{db.n} {db.k} {db.d} {db.count} {db.method}"]
    for key, rows in db.records:
        lines.append(key.hex() + ":" + " ".join(_row_hex(r, db.n) for r in rows))
    return "\n".join(lines) + "\n"


def codedb_loads(text: str) -> CodeDB:
    """The database a file's text writes, its records' ranks checked by
    one gf2.rref_stack call."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty database file")
    head = lines[0].split()
    if len(head) != 5:
        raise ValueError(f"bad header {lines[0]!r}")
    n, k, d, count = (int(x) for x in head[:4])
    method = head[4]
    records = []
    for ln in lines[1:]:
        key_hex, _, rows_part = ln.partition(":")
        rows = tuple(_row_unhex(h) for h in rows_part.split())
        if len(rows) != k:
            raise ValueError(f"record with {len(rows)} rows, expected {k}")
        if any(r >> n for r in rows):
            raise ValueError("record row has bits outside the column range")
        records.append((bytes.fromhex(key_hex), rows))
    stack = pack_rows(k, n, [rows for _, rows in records]).copy()
    if (rref_stack(stack, rows=False)[1] != k).any():
        raise ValueError("record generator is rank deficient")
    if len(records) != count:
        raise ValueError(f"header count {count} != {len(records)} records")
    keys = [r[0] for r in records]
    if keys != sorted(keys):
        raise ValueError("records are not key-sorted")
    return CodeDB(n, k, d, method, tuple(records))


def write_atomic(path: str, text: str):
    """Single-writer atomic write (tempfile + rename): path holds the old
    text or the new text, never a part of either."""
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".lcdlab-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_codedb(db: CodeDB, path: str):
    write_atomic(path, codedb_dumps(db))


def load_codedb(path: str) -> CodeDB:
    """codedb_loads of the file at path; its errors name the file."""
    try:
        with open(path) as fh:
            return codedb_loads(fh.read())
    except ValueError as e:  # a UnicodeDecodeError too
        raise ValueError(f"{path}: {e}") from None


# -- JSON reports ------------------------------------------------------------------
#
# Field names are frozen; see docs/report_schema.md.


def measured_block(code: LinearCode) -> dict:
    hull, lcd = code.lcd_status()
    return {
        "n": code.n,
        "k": code.k,
        "d": code.min_weight(),
        "hull_dim": hull,
        "is_lcd": lcd,
        "weight_enumerator": {str(w): c for w, c in code.weight_enumerator().coeffs},
    }


def code_report(code: LinearCode, claimed: dict | None = None,
                params: dict | None = None) -> dict:
    measured = measured_block(code)
    report = {
        "params": params or {"n": code.n, "k": code.k},
        "measured": measured,
        "claimed": claimed,
        "match": None,
    }
    if claimed is not None:
        report["match"] = all(measured.get(key) == val
                              for key, val in claimed.items())
    return report


def census_report(census) -> dict:
    return {
        "params": {"n": census.n, "k": census.k, "d": census.d},
        "count": census.count,
        "lcd_count": census.lcd_count,
        "lcd_keys": [key.hex() for key in census.lcd_keys],
    }


def bounds_report(n: int, k: int, entry, griesmer: int,
                  closed_form: int | None) -> dict:
    return {
        "params": {"n": n, "k": k},
        "griesmer": griesmer,
        "closed_form": closed_form,
        "lcd_known": entry.exact if entry.status == "exact" else list(entry.values),
        "lcd_known_status": entry.status,
        "provenance": entry.provenance,
    }


def to_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True)
