"""The [n, k] binary linear code abstraction.

A code is stored through the reduced row-echelon form of a generator
matrix, which is unique per row space, so structural equality means
equality of codes.  Weight data is computed once by a Gray-code walk
over all 2^k codewords and cached; caches are filled idempotently and
are safe to race.  The sign and message-weight tables over the 2^k
column types, which families, classify and search share, live here.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .canonical import canonical_key
from .gf2 import BitMatrix, gram, nullspace, rref

ENUMERATION_CAP = 28  # 2^k codewords are walked exhaustively


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
        """A generator whose columns realize the multiset (types ascending, zeros last).

        The c columns of type t are one run of c bits, set in row i when
        bit i of t is set."""
        runs = [(t, c) for t, c in enumerate(self.counts) if t and c]
        runs.append((0, self.counts[0]))
        return BitMatrix.from_runs(self.k, runs)


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

    def codewords(self):
        """All 2^k codewords as ints (Gray order, starting at 0)."""
        if self.k > ENUMERATION_CAP:
            raise ValueError(f"enumeration cap: k={self.k} > {ENUMERATION_CAP}")
        cw = 0
        prev = 0
        yield 0
        for m in range(1, 1 << self.k):
            g = m ^ (m >> 1)
            cw ^= self.generator.data[(g ^ prev).bit_length() - 1]
            prev = g
            yield cw

    def weight_enumerator(self) -> WeightEnumerator:
        if self._we is None:
            counts = Counter(cw.bit_count() for cw in self.codewords())
            self._we = WeightEnumerator(tuple(sorted(counts.items())))
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
            g = gram(self.generator)
            self._hull = self.k - rref(g).rank
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
        counts = [0] * (1 << self.k)
        for j in range(self.n):
            counts[self.generator.column(j)] += 1
        return TypeMultiplicity(self.k, tuple(counts))

    def canonical_key(self) -> bytes:
        return canonical_key(self.column_types())


def make_code(g: BitMatrix) -> LinearCode:
    """Validate a full-rank generator matrix and build its code."""
    if g.rows == 0:
        raise ValueError("a code needs at least one generator row")
    return LinearCode(g)
