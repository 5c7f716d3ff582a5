"""Dense exact linear algebra over GF(2).

A matrix row is a single Python int with bit j holding the entry in
column j (LSB-first).  Row operations are therefore word-parallel XORs,
and popcounts give inner products.  All values are immutable; every
operation is a pure function.  A BitMatrix checks its rows against the
column range when built, except the results of rref, whose rows cannot
leave it.

Many generators at once are held as a stack: an (R, k, words) uint64
array, row i of generator r in stack[r, i], its columns 64w .. 64w + 63
in word w, column 64w the low bit.  pack_runs builds a whole stack from
rows of multiplicities over an ordered tuple of column types, and
rref_stack reduces one: it returns each generator's reduced row-echelon
form and rank.  The reduced row-echelon form of a row space is unique
(pivots at the lowest set column of each row, rows in pivot order, zero
rows last), so rref_stack gives, generator for generator, the rows and
rank rref gives.  code.hull_dims reduces its Gram stacks with it too,
so the package has one batched elimination.  Both work in groups
of generators, so that one step holds at most about STACK_BLOCK bytes
besides the stack itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_DIM = 1 << 16
STACK_BLOCK = 1 << 22  # bytes of work arrays one step of a stack holds


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


def pack_runs(k: int, types, mult) -> np.ndarray:
    """The stack of generators with k rows whose columns are runs of
    equal columns: generator r has mult[r][j] consecutive columns of
    type types[j], for each j in turn, and a column of type t has bit i
    of t in row i.  Each generator is padded with zero columns to the
    stack's words = max(1, ceil(width / 64)), width the largest row sum
    of mult.  Zero columns set no bit, so trailing ones need no run:
    they are padding.

    A group of generators is spread into one array of column types, a
    row of 64 words entries each (the run values repeated by mult, then
    type 0 up to the end), and bit i of every column is packed into row
    i.  A group holds at most STACK_BLOCK bytes of column bits."""
    mult = np.asarray(mult, dtype=np.int64).reshape(-1, len(types))
    width = mult.sum(axis=1)
    words = max(1, -(-int(width.max(initial=0)) // 64))
    size = 64 * words  # columns of a padded generator
    value = np.zeros(len(types) + 1, dtype=np.min_scalar_type(max(1, (1 << k) - 1)))
    value[:-1] = types  # then type 0, the padding
    bit = (1 << np.arange(k)).astype(value.dtype)[:, None]
    out = np.empty((len(mult), k, words), dtype=np.uint64)
    group = max(1, STACK_BLOCK // (max(1, k) * size))
    for lo in range(0, len(mult), group):
        part = mult[lo:lo + group]
        reps = np.empty((len(part), len(value)), dtype=np.int64)
        reps[:, :-1] = part
        reps[:, -1] = size - width[lo:lo + group]
        cols = value[None].repeat(len(part), axis=0).ravel().repeat(reps.ravel())
        bits = cols.reshape(-1, 1, size) & bit  # (generators, k, size), 0 or not
        out[lo:lo + group] = np.packbits(bits.reshape(-1), bitorder="little").view(
            "<u8").reshape(len(part), k, words)
    return out


def pack_rows(k: int, n: int, stack) -> np.ndarray:
    """The stack of a sequence of generators, each k row ints of at most
    n bits."""
    words = max(1, -(-n // 64))
    raw = b"".join(r.to_bytes(8 * words, "little") for rows in stack for r in rows)
    return np.frombuffer(raw, dtype="<u8").reshape(len(stack), k, words)


def stack_rows(g: np.ndarray) -> list[tuple[int, ...]]:
    """Each generator of a stack as its tuple of row ints."""
    m, k, words = g.shape
    if words == 1:
        return list(map(tuple, g[:, :, 0].tolist()))
    raw = g.astype("<u8").tobytes()
    size = 8 * words
    rows = [int.from_bytes(raw[i:i + size], "little")
            for i in range(0, len(raw), size)]
    return [tuple(rows[r * k:(r + 1) * k]) for r in range(m)]


def rref_stack(g: np.ndarray, rows: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """(reduced, rank) of a stack: the reduced row-echelon form of every
    generator, as a stack of the same shape, and its GF(2) rank.  g is
    reduced in place and returned.  Its words may be of any unsigned
    dtype (the bit order within a word is the same).  With rows=False
    only the ranks are asked for, and the last row's step and the sort,
    which do not change them, are skipped, so g is left part-reduced.

    Row i in turn takes its lowest set column as its pivot and is XORed
    into every other row that has that column set.  Row i has the pivots
    of the rows before it clear, so its pivot is new, and the XORs keep
    each earlier pivot clear in every row but its own.  An earlier row
    with row i's pivot set has its own pivot, its lowest set column,
    below that one, and row i has no set column below its pivot, so the
    XOR leaves the earlier row's pivot its lowest set column.  A zero
    row takes in nothing and stays zero.  So at the end every nonzero
    row has a distinct pivot, its lowest set column, which every other
    row has clear: sorting the rows by pivot, zero rows last, gives the
    reduced row-echelon form, and the rank is the number of nonzero
    rows (after the first k - 1 steps already: the last row then has
    every earlier pivot clear).  Rows sort by pivot as their words'
    lowest set bits minus 1 do, word 0 first: a zero word wraps to the
    largest value, above every value of a nonzero word, and a zero row
    sorts last.  Groups of generators are reduced in turn, each step
    holding at most about STACK_BLOCK bytes."""
    m, k, words = g.shape
    rank = np.zeros(m, dtype=np.int64)
    group = max(1, STACK_BLOCK // (8 * max(1, k * words)))
    for lo in range(0, m, group):
        a = g[lo:lo + group]
        for i in range(k if rows else k - 1):
            if words > 1:  # the word of row i's lowest set column, in every row
                first = (a[:, i] != 0).argmax(axis=1)[:, None, None]
                col = np.take_along_axis(a, first, axis=2)
            else:
                col = a
            low = col[:, i:i + 1] & -col[:, i:i + 1]  # row i's lowest set bit
            hit = (col & low).astype(bool)
            hit[:, i] = False
            a ^= hit * a[:, i:i + 1]
        if rows:
            key = (a & -a) - a.dtype.type(1)
            order = np.lexsort(key.transpose(2, 0, 1)[::-1], axis=-1)
            a[:] = a[np.arange(len(a))[:, None], order]
        rank[lo:lo + group] = a.any(axis=2).sum(axis=1)
    return g, rank


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
