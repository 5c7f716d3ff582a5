"""The [n, k] binary linear code abstraction.

A code is stored through the reduced row-echelon form of a generator
matrix, which is unique per row space, so structural equality means
equality of codes; a generator not yet reduced is reduced as a
gf2.rref_stack stack of one.  Weights come from one array kernel,
code_profiles, which takes a whole stack of generators (see gf2): each
generator's 2^k codewords are built by an XOR table over its rows,
packed in uint64 words, and counted by weight with np.bitwise_count.  Hulls come from
another, hull_dims, which reads only column-type multiplicities: over
GF(2), G G^T is the sum of t t^T over the column types t of odd
multiplicity, one product of the parities with outer_table, whose ranks
gf2.rref_stack gives.  type_counts reads the multiplicities of a whole
stack in one array pass.  A LinearCode asks for a stack of one and
caches both answers; profile_codes fills the caches of many codes with
one call of each kernel per dimension, and stack_codes makes the codes
of a built stack.  Caches are filled idempotently and are safe to race.
The sign, message-weight and outer-product tables over the 2^k column
types, which families, classify and search share, live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .canonical import canonical_key
from .gf2 import BitMatrix, pack_rows, pack_runs, rref_stack, stack_rows

ENUMERATION_CAP = 28  # 2^k codewords are enumerated exhaustively
KERNEL_BLOCK = 1 << 18  # codeword words one step of code_profiles holds


@dataclass(frozen=True)
class WeightEnumerator:
    """Codeword counts by weight: coeffs is ((weight, count), ...) ascending."""

    coeffs: tuple[tuple[int, int], ...]

    def min_nonzero(self) -> int:
        for w, _ in self.coeffs:
            if w > 0:
                return w
        raise ValueError("no nonzero-weight codewords")

    def __str__(self):
        parts = []
        for w, c in self.coeffs:
            if w == 0:
                parts.append(str(c))
            else:
                coef = "" if c == 1 else str(c)
                parts.append(f"{coef}y^{w}" if w != 1 else f"{coef}y")
        return "+".join(parts)


@dataclass(frozen=True)
class TypeMultiplicity:
    """Multiset of generator columns viewed as vectors of F2^k.

    counts has length 2^k indexed by the column read as an int (bit i =
    row i); counts[0] is the number of zero columns.
    """

    k: int
    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.counts) != 1 << self.k:
            raise ValueError("counts length must be 2^k")
        if any(c < 0 for c in self.counts):
            raise ValueError("negative multiplicity")

    @property
    def n(self) -> int:
        return sum(self.counts)

    def generator(self) -> BitMatrix:
        """A generator whose columns realize the multiset (types ascending,
        zeros last): a stack of one of gf2.pack_runs, one run per nonzero
        type, the zero columns its padding."""
        rows = stack_rows(pack_runs(self.k, range(1, 1 << self.k), [self.counts[1:]]))
        return BitMatrix(self.k, self.n, rows[0])


@lru_cache(maxsize=None)
def sign_matrix(k: int) -> np.ndarray:
    """(2^k, 2^k) matrix of (-1)^(m . v)."""
    idx = np.arange(1 << k, dtype=np.uint32)
    par = np.bitwise_count(idx[:, None] & idx[None, :]) & 1
    return (1 - 2 * par.astype(np.int64))


@lru_cache(maxsize=None)
def message_weight_matrix(k: int) -> np.ndarray:
    """(2^k - 1, 2^k - 1) 0/1 matrix: row m-1, column v-1 is [m . v = 1].

    Row m-1 times the nonzero-type multiplicities is the weight of the
    codeword of message m."""
    return ((1 - sign_matrix(k)[1:, 1:]) >> 1).astype(np.int16)


@lru_cache(maxsize=None)
def outer_table(k: int) -> np.ndarray:
    """(2^k, k^2) float64 0/1 table: row t is t t^T, flattened row-major,
    so entry i k + j is [bits i and j of t are set].  The counts of the
    column types times this table are the integer G G^T."""
    bits = ((np.arange(1 << k)[:, None] >> np.arange(k)) & 1).astype(np.float64)
    return (bits[:, :, None] * bits[:, None, :]).reshape(1 << k, k * k)


def type_counts(k: int, n: int, stack: np.ndarray) -> np.ndarray:
    """(R, 2^k) int64 column-type multiplicities of the first n columns of
    each generator of a gf2 stack: column j read as the int with bit i
    from row i, so entry 0 counts the zero columns.  The padding past n
    is not counted.  The types are summed in the least unsigned dtype
    that holds 2^k - 1, so the unpacked bits are not widened."""
    raw = np.ascontiguousarray(stack, dtype="<u8").view(np.uint8)
    bits = np.unpackbits(raw, axis=2, count=n, bitorder="little")
    types = (1 << np.arange(k)).astype(np.min_scalar_type((1 << k) - 1)) @ bits
    types = types + (np.arange(len(stack)) << k)[:, None]  # (R, n), row r at r 2^k
    return np.bincount(types.ravel(), minlength=len(stack) << k).reshape(-1, 1 << k)


def hull_dims(k: int, counts: np.ndarray) -> np.ndarray:
    """k - rank_GF(2)(G G^T) for each row of counts, an (R, 2^k) array of
    column-type multiplicities.  Each column of type t adds t t^T to
    G G^T, so over GF(2) it is the sum over the types of odd count: the
    parities times outer_table(k), mod 2.  The product is taken in
    float64, exactly, as its entries are 0/1 and its sums at most 2^k;
    the Grams are packed in bytes and their ranks come from one
    gf2.rref_stack."""
    odd = (counts & 1).astype(np.float64)
    gram = (odd @ outer_table(k)).astype(np.intp).reshape(len(odd), k, k) & 1
    return k - rref_stack(np.packbits(gram, axis=2, bitorder="little"), rows=False)[1]


def code_profiles(k: int, n: int, g: np.ndarray) -> np.ndarray:
    """The weight distributions of a gf2 stack of generators of k rows and
    at most n columns (the rows need not be independent).

    Returns an (R, n + 1) int64 array: entry (i, w) is the number of
    messages whose codeword under generator i has weight w, so 2^(k -
    rank) messages give weight 0.  Each message's codeword is read from
    an XOR table over the rows, and weighed by np.bitwise_count: the
    table of the low rows is XORed with each entry of the table of the
    high rows, which it has only when 2^k words exceed KERNEL_BLOCK, and
    the generators are taken in groups, so that one step holds at most
    KERNEL_BLOCK words (or one low table).  Needs k <= ENUMERATION_CAP.
    """
    if k > ENUMERATION_CAP:
        raise ValueError(f"enumeration cap: k={k} > {ENUMERATION_CAP}")
    words = g.shape[2]
    # rows in the low table, and generators in one group
    low = min(k, max(0, (KERNEL_BLOCK // words).bit_length() - 1))
    group = max(1, KERNEL_BLOCK // (words << low))
    counts = np.zeros((len(g), n + 1), dtype=np.int64)
    for lo in range(0, len(g), group):
        part = g[lo:lo + group]
        base = np.arange(len(part))[:, None] * (n + 1)
        table = _xor_table(part[:, :low])
        for high in _xor_table(part[:, low:]).transpose(1, 0, 2):
            wt = np.bitwise_count(table ^ high[:, None]).sum(axis=2, dtype=np.intp)
            counts[lo:lo + len(part)] += np.bincount(
                (wt + base).ravel(), minlength=len(part) * (n + 1)
            ).reshape(len(part), n + 1)
    return counts


def _xor_table(rows: np.ndarray) -> np.ndarray:
    """(m, j, words) rows -> (m, 2^j, words): entry x of generator i is
    the XOR of its rows r with bit r of x set."""
    m, j, words = rows.shape
    table = np.zeros((m, 1 << j, words), dtype=np.uint64)
    for r in range(j):
        table[:, 1 << r:2 << r] = table[:, :1 << r] ^ rows[:, r:r + 1]
    return table


class LinearCode:
    """An [n, k] binary linear code, k >= 1 (k = 0 arises only as a dual)."""

    __slots__ = ("n", "k", "generator", "_we", "_hull")

    def __init__(self, generator: BitMatrix, _reduced: bool = False):
        if not _reduced:
            k, n = generator.rows, generator.cols
            red, rank = rref_stack(pack_rows(k, n, [generator.data]).copy())
            if rank[0] != k:
                raise ValueError(f"generator has rank {rank[0]} < {k}; "
                                 "drop dependent rows first")
            generator = BitMatrix(k, n, stack_rows(red)[0])
        self.n = generator.cols
        self.k = generator.rows
        self.generator = generator
        self._we: WeightEnumerator | None = None
        self._hull: int | None = None

    def __eq__(self, other):
        return (isinstance(other, LinearCode)
                and self.generator == other.generator)

    def __hash__(self):
        return hash(self.generator)

    def __repr__(self):
        return f"LinearCode[{self.n},{self.k}]"

    def weight_enumerator(self) -> WeightEnumerator:
        if self._we is None:
            profile_codes([self])
        return self._we

    def min_weight(self) -> int:
        if self.k == 0:
            raise ValueError("zero-dimensional code has no nonzero codeword")
        return self.weight_enumerator().min_nonzero()

    def hull_dim(self) -> int:
        if self._hull is None:
            profile_codes([self])
        return self._hull

    def is_lcd(self) -> bool:
        return self.hull_dim() == 0

    def lcd_status(self) -> tuple[int, bool]:
        h = self.hull_dim()
        return h, h == 0

    def column_types(self) -> TypeMultiplicity:
        """The multiset of columns: a stack of one of type_counts."""
        stack = pack_rows(self.k, self.n, [self.generator.data])
        counts = type_counts(self.k, self.n, stack)[0]
        return TypeMultiplicity(self.k, tuple(counts.tolist()))

    def canonical_key(self) -> bytes:
        return canonical_key(self.column_types())


def profile_codes(codes):
    """Fill the weight enumerators and hull dimensions that the codes have
    not cached, with one _fill_caches per dimension among them."""
    todo: dict[int, list[LinearCode]] = {}
    for c in codes:
        if c._we is None:  # _fill_caches sets _we last
            todo.setdefault(c.k, []).append(c)
    for k, group in todo.items():
        n = max(c.n for c in group)
        _fill_caches(group, k, n, pack_rows(k, n, [c.generator.data for c in group]))


def stack_codes(stack: np.ndarray, lengths) -> list[LinearCode]:
    """The codes of a gf2 stack of full-rank generators in reduced
    row-echelon form, of the given lengths, their weights and hulls
    cached from the stack."""
    k = stack.shape[1]
    codes = [LinearCode(BitMatrix(k, n, rows), _reduced=True)
             for rows, n in zip(stack_rows(stack), lengths)]
    _fill_caches(codes, k, max(lengths, default=0), stack)
    return codes


def _fill_caches(codes, k: int, n: int, stack: np.ndarray):
    """Cache the weight enumerators, from one code_profiles call, and the
    hulls, from one hull_dims call on the column types, of the codes of
    the stack, whose generators have at most n columns (a shorter one's
    padding columns are zero, which add nothing to its Gram).  Each
    enumerator is read from the nonzero entries of its counts row."""
    counts = code_profiles(k, n, stack)
    hulls = hull_dims(k, type_counts(k, n, stack)).tolist()
    for c, row, h in zip(codes, counts, hulls):
        c._hull = h  # first: profile_codes tests _we, so a set _we means both are set
        w = row.nonzero()[0]
        c._we = WeightEnumerator(tuple(zip(w.tolist(), row[w].tolist())))


def make_code(g: BitMatrix) -> LinearCode:
    """Validate a full-rank generator matrix and build its code."""
    if g.rows == 0:
        raise ValueError("a code needs at least one generator row")
    return LinearCode(g)
