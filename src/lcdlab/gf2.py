"""Dense exact linear algebra over GF(2), plus small exact integer matrices.

A matrix row is a single Python int with bit j holding the entry in
column j (LSB-first).  Row operations are therefore word-parallel XORs,
and popcounts give inner products.  All values are immutable; every
operation is a pure function.  A BitMatrix checks its rows against the
column range when built, except the results of rref and gram, whose
rows cannot leave it.
"""

from __future__ import annotations

from dataclasses import dataclass

MAX_DIM = 1 << 16


@dataclass(frozen=True)
class BitMatrix:
    """Bit-packed matrix over GF(2).

    data[i] is row i; bit j of data[i] is entry (i, j).  Bits at
    positions >= cols must be zero.
    """

    rows: int
    cols: int
    data: tuple[int, ...]

    def __post_init__(self):
        if not (0 <= self.rows <= MAX_DIM and 0 <= self.cols <= MAX_DIM):
            raise ValueError(f"dimensions out of range: {self.rows}x{self.cols}")
        if len(self.data) != self.rows:
            raise ValueError("data length does not match row count")
        mask = (1 << self.cols) - 1
        for r in self.data:
            if r < 0 or r & ~mask:
                raise ValueError("row has bits outside the column range")

    @classmethod
    def from_rows(cls, rows, cols: int | None = None) -> BitMatrix:
        """Build from an iterable of 0/1 sequences (row-major)."""
        packed = []
        for row in rows:
            bits = list(row)
            if cols is None:
                cols = len(bits)
            elif len(bits) != cols:
                raise ValueError("ragged rows")
            packed.append(sum((1 << j) for j, b in enumerate(bits) if b & 1))
        return cls(len(packed), 0 if cols is None else cols, tuple(packed))

    @classmethod
    def from_runs(cls, rows: int, runs) -> BitMatrix:
        """Build from runs of equal columns: for each (t, c) of runs, in
        order, c consecutive columns of type t, which set those c bits in
        row i when bit i of t is set (t < 2^rows)."""
        data = [0] * rows
        start = 0  # column of the next run
        for t, c in runs:
            run = ((1 << c) - 1) << start
            start += c
            while t:
                low = t & -t
                data[low.bit_length() - 1] |= run
                t ^= low
        return cls(rows, start, tuple(data))

    @classmethod
    def identity(cls, k: int) -> BitMatrix:
        return cls(k, k, tuple(1 << i for i in range(k)))

    def hstack(self, other: BitMatrix) -> BitMatrix:
        if self.rows != other.rows:
            raise ValueError("row count mismatch in hstack")
        data = tuple(a | (b << self.cols) for a, b in zip(self.data, other.data))
        return BitMatrix(self.rows, self.cols + other.cols, data)

    def __str__(self):
        return "\n".join(row_bits(r, self.cols) for r in self.data)


def row_bits(row: int, cols: int) -> str:
    """Row as cols characters 0/1, column 0 first."""
    return bin(row | 1 << cols)[:2:-1]


def _unchecked(rows: int, cols: int, data: tuple[int, ...]) -> BitMatrix:
    """A BitMatrix built without the range check of __post_init__, for
    rows known to lie in the column range."""
    m = object.__new__(BitMatrix)
    vars(m).update(rows=rows, cols=cols, data=data)
    return m


@dataclass(frozen=True)
class IntMatrix:
    """Small dense matrix with exact (64-bit range) integer entries."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.entries) != self.rows or any(len(r) != self.cols for r in self.entries):
            raise ValueError("entry shape mismatch")


@dataclass(frozen=True)
class RrefResult:
    matrix: BitMatrix
    rank: int
    pivots: tuple[int, ...]


def rref(m: BitMatrix) -> RrefResult:
    """Reduced row-echelon form over GF(2).

    Returns the reduced matrix (same shape, zero rows kept at the
    bottom), the rank, and the pivot column indices.  Row space is
    preserved; no column pivoting.
    """
    rows = list(m.data)
    height = m.rows
    pivots = []
    r = 0
    for c in range(m.cols):
        if r == height:
            break
        bit = 1 << c
        for p in range(r, height):
            if rows[p] & bit:
                break
        else:
            continue
        piv = rows[p]
        rows[p] = rows[r]
        rows[r] = piv
        for i in range(height):
            if i != r and rows[i] & bit:
                rows[i] ^= piv
        pivots.append(c)
        r += 1
    # row operations cannot set a bit outside m's columns
    return RrefResult(_unchecked(m.rows, m.cols, tuple(rows)), r, tuple(pivots))


def gram(g: BitMatrix) -> BitMatrix:
    """G * G^T over GF(2)."""
    data = []
    for ri in g.data:
        row = 0
        for j, rj in enumerate(g.data):
            row |= ((ri & rj).bit_count() & 1) << j
        data.append(row)
    return _unchecked(g.rows, g.rows, tuple(data))


def nullspace(m: BitMatrix) -> BitMatrix:
    """Basis of the right kernel, one vector per row ((cols - rank) rows)."""
    red = rref(m)
    pivots = red.pivots
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    basis = []
    for f in free:
        v = 1 << f
        for i, p in enumerate(pivots):
            if (red.matrix.data[i] >> f) & 1:
                v |= 1 << p
        basis.append(v)
    return BitMatrix(len(basis), m.cols, tuple(basis))


def det_int(m: IntMatrix) -> int:
    """Exact integer determinant by fraction-free (Bareiss) elimination."""
    if m.rows != m.cols:
        raise ValueError("determinant needs a square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = [list(row) for row in m.entries]
    sign = 1
    prev = 1
    for r in range(n - 1):
        if a[r][r] == 0:
            p = next((i for i in range(r + 1, n) if a[i][r] != 0), None)
            if p is None:
                return 0
            a[r], a[p] = a[p], a[r]
            sign = -sign
        for i in range(r + 1, n):
            for j in range(r + 1, n):
                a[i][j] = (a[r][r] * a[i][j] - a[i][r] * a[r][j]) // prev
            a[i][r] = 0
        prev = a[r][r]
    return sign * a[n - 1][n - 1]
