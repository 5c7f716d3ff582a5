"""The [n, k] binary linear code abstraction.

A code is stored through the reduced row-echelon form of a generator
matrix, which is unique per row space, so structural equality means
equality of codes.  Weights and hull dimensions come from one array
kernel, code_profiles, which takes a whole stack of generators (see
gf2): each generator's 2^k codewords are built by an XOR table over its
rows, packed in uint64 words, and counted by weight with
np.bitwise_count, and its Gram matrix G G^T, from popcount parities, is
packed the same way, in bytes, and reduced by gf2.rref_stack, the
elimination that also reduces generators.  A LinearCode asks it for a
stack of one and caches the answer; profile_codes fills the caches of
many codes with one call per dimension, and stack_codes makes the codes
of a built stack.  Caches are filled idempotently and are safe to
race.  The sign and message-weight tables over the 2^k column types,
which families, classify and search share, live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .canonical import canonical_key
from .gf2 import (BitMatrix, nullspace, pack_rows, pack_runs, rref, rref_stack,
                  stack_rows)

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


def code_profiles(k: int, n: int, stack, *, weights: bool = True,
                  hulls: bool = True):
    """The weight distributions and hull dimensions of a stack of
    generators of k rows and at most n columns: a gf2 stack, or a
    sequence of generators, each k row ints (the rows need not be
    independent).

    Returns (counts, hull), lists of Python ints, or None for what is not
    asked: counts[i][w] is the number of messages whose codeword under
    generator i has weight w, for w = 0..n, so 2^(k - rank) messages
    give weight 0; hull[i] = k - rank_GF(2)(G G^T).  Each message's
    codeword is read from an XOR table over the rows, and weighed by
    np.bitwise_count: the table of the low rows is XORed with each entry
    of the table of the high rows, which it has only when 2^k words
    exceed KERNEL_BLOCK, and the generators are taken in groups, so that
    one step holds at most KERNEL_BLOCK words (or one low table).  Entry
    (i, j) of G G^T is the parity of the popcount of rows i and j ANDed;
    the Grams of a group are packed as a stack of byte words, and their
    ranks come from gf2.rref_stack.  Asking for weights needs
    k <= ENUMERATION_CAP.
    """
    if weights and k > ENUMERATION_CAP:
        raise ValueError(f"enumeration cap: k={k} > {ENUMERATION_CAP}")
    g = stack if isinstance(stack, np.ndarray) else pack_rows(k, n, stack)
    words = g.shape[2]
    # rows in the low table, and generators in one group
    low = min(k, max(0, (KERNEL_BLOCK // words).bit_length() - 1))
    group = max(1, KERNEL_BLOCK // (words << low))
    counts = np.zeros((len(g), n + 1), dtype=np.int64) if weights else None
    hull = np.zeros(len(g), dtype=np.int64) if hulls else None
    for lo in range(0, len(g), group):
        part = g[lo:lo + group]
        if weights:
            base = np.arange(len(part))[:, None] * (n + 1)
            table = _xor_table(part[:, :low])
            for high in _xor_table(part[:, low:]).transpose(1, 0, 2):
                wt = np.bitwise_count(table ^ high[:, None]).sum(axis=2, dtype=np.intp)
                counts[lo:lo + len(part)] += np.bincount(
                    (wt + base).ravel(), minlength=len(part) * (n + 1)
                ).reshape(len(part), n + 1)
        if hulls:
            # the parity of a popcount is that of the XOR of its words
            gram = np.zeros((len(part), k, k), dtype=np.uint64)
            for w in range(words):
                gram ^= part[:, :, None, w] & part[:, None, :, w]
            odd = np.bitwise_count(gram) & 1
            hull[lo:lo + len(part)] = k - rref_stack(  # Gram rows in bytes
                np.packbits(odd, axis=2, bitorder="little"), rows=False)[1]
    return (None if counts is None else counts.tolist(),
            None if hull is None else hull.tolist())


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
            red = rref(generator)
            if red.rank != generator.rows:
                raise ValueError(
                    f"generator has rank {red.rank} < {generator.rows}; "
                    "drop dependent rows first")
            generator = red.matrix
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
            profile_codes([self], hulls=False)
        return self._we

    def min_weight(self) -> int:
        if self.k == 0:
            raise ValueError("zero-dimensional code has no nonzero codeword")
        return self.weight_enumerator().min_nonzero()

    def dual(self) -> LinearCode:
        """The orthogonal complement under the standard mod-2 inner product."""
        basis = nullspace(self.generator)
        return LinearCode(rref(basis).matrix, _reduced=True)

    def hull_dim(self) -> int:
        if self._hull is None:
            profile_codes([self], weights=False)
        return self._hull

    def is_lcd(self) -> bool:
        return self.hull_dim() == 0

    def lcd_status(self) -> tuple[int, bool]:
        h = self.hull_dim()
        return h, h == 0

    def shorten(self, i: int) -> LinearCode:
        """Codewords that are 0 in coordinate i, with that coordinate deleted."""
        if not 0 <= i < self.n:
            raise ValueError(f"coordinate {i} out of range")
        bit = 1 << i
        rows = list(self.generator.data)
        p = next((j for j in range(self.k) if rows[j] & bit), None)
        if p is not None:
            piv = rows[p]
            rows = [r ^ piv if r & bit else r for j, r in enumerate(rows) if j != p]
        low = bit - 1
        rows = [(r & low) | ((r >> 1) & ~low) for r in rows]
        return LinearCode(BitMatrix(len(rows), self.n - 1, tuple(rows)))

    def column_types(self) -> TypeMultiplicity:
        """The multiset of columns: the rows' bits are unpacked once, each
        column read as its type (bit i = row i) and the types counted by
        one bincount."""
        size = (self.n + 7) // 8
        raw = b"".join(r.to_bytes(size, "little") for r in self.generator.data)
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8).reshape(self.k, size),
                             axis=1, count=self.n, bitorder="little")
        types = (1 << np.arange(self.k, dtype=np.int64)) @ bits
        return TypeMultiplicity(self.k, tuple(
            np.bincount(types, minlength=1 << self.k).tolist()))

    def canonical_key(self) -> bytes:
        return canonical_key(self.column_types())


def profile_codes(codes, *, weights: bool = True, hulls: bool = True):
    """Fill the weight enumerators (weights) and hull dimensions (hulls)
    that the codes have not cached, with one code_profiles call per
    dimension among them."""
    todo: dict[int, list[LinearCode]] = {}
    for c in codes:
        if (weights and c._we is None) or (hulls and c._hull is None):
            todo.setdefault(c.k, []).append(c)
    for k, group in todo.items():
        _fill_caches(group, *code_profiles(k, max(c.n for c in group),
                                           [c.generator.data for c in group],
                                           weights=weights, hulls=hulls))


def stack_codes(stack: np.ndarray, lengths) -> list[LinearCode]:
    """The codes of a gf2 stack of full-rank generators in reduced
    row-echelon form, of the given lengths, their weights and hulls
    cached from one code_profiles call on the stack."""
    k = stack.shape[1]
    codes = [LinearCode(BitMatrix(k, n, rows), _reduced=True)
             for rows, n in zip(stack_rows(stack), lengths)]
    _fill_caches(codes, *code_profiles(k, max(lengths, default=0), stack))
    return codes


def _fill_caches(codes, counts, hull):
    for i, c in enumerate(codes):
        if counts is not None:
            c._we = WeightEnumerator(
                tuple((w, x) for w, x in enumerate(counts[i]) if x))
        if hull is not None:
            c._hull = hull[i]


def make_code(g: BitMatrix) -> LinearCode:
    """Validate a full-rank generator matrix and build its code."""
    if g.rows == 0:
        raise ValueError("a code needs at least one generator row")
    return LinearCode(g)
