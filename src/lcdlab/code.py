"""The [n, k] binary linear code abstraction.

A code is stored through the reduced row-echelon form of a generator
matrix, which is unique per row space, so structural equality means
equality of codes; a generator not yet reduced is reduced as a
gf2.rref_stack stack of one.  Every weight, Gram and hull comes from
column-type multiplicities through one exact transform: type_counts
reads the multiplicities of a whole stack of generators (see gf2) in
one array pass, and message_weights maps them to the weight of every
message's codeword by one Walsh-Hadamard transform, two float64
products with cached +-1 factors.  grams reads the integer
G G^T off the weights of the unit messages and their sums, and
hull_dims takes k minus the GF(2) ranks of those Grams from one
gf2.rref_stack.  A LinearCode asks for a stack of one and caches its
weight enumerator and hull; profile_codes fills the caches of many
codes with one transform per dimension, and stack_codes makes the codes
of a built stack.  Caches are filled idempotently and are safe to race.
ENUMERATION_CAP bounds k before any array of 2^k entries is made.  The
sign and message-weight tables over the 2^k column types, which
classify and search share, live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .canonical import canonical_key
from .gf2 import BitMatrix, pack_rows, pack_runs, rref_stack, stack_rows

ENUMERATION_CAP = 20  # 2^k messages are weighed; one row of them is 8 MB


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


def type_counts(k: int, n: int, stack: np.ndarray) -> np.ndarray:
    """(R, 2^k) int64 column-type multiplicities of the first n columns of
    each generator of a gf2 stack: column j read as the int with bit i
    from row i, so entry 0 counts the zero columns.  The padding past n
    is not counted.  The types are summed in the least unsigned dtype
    that holds 2^k - 1, so the unpacked bits are not widened.  Needs
    k <= ENUMERATION_CAP, checked before any 2^k array is made: every
    weight and hull of a LinearCode starts here."""
    if k > ENUMERATION_CAP:
        raise ValueError(f"enumeration cap: k={k} > {ENUMERATION_CAP}")
    raw = np.ascontiguousarray(stack, dtype="<u8").view(np.uint8)
    bits = np.unpackbits(raw, axis=2, count=n, bitorder="little")
    types = (1 << np.arange(k)).astype(np.min_scalar_type((1 << k) - 1)) @ bits
    types = types + (np.arange(len(stack)) << k)[:, None]  # (R, n), row r at r 2^k
    return np.bincount(types.ravel(), minlength=len(stack) << k).reshape(-1, 1 << k)


@lru_cache(maxsize=None)
def _hadamard_factors(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The float64 +-1 factors of H_k = H_hi (x) H_lo: sign_matrix of
    the high k // 2 bits of a type, and of its low k - k // 2 bits."""
    return tuple(sign_matrix(j).astype(np.float64) for j in (k // 2, k - k // 2))


def message_weights(k: int, counts: np.ndarray) -> np.ndarray:
    """The weight of every message's codeword, in int64, from column-type
    multiplicities: counts has 2^k entries on its last axis, any leading
    axes and any integers (negative ones too, as the map is linear).
    Entry m is the sum of counts[v] over the types v with m . v = 1,
    which is (W[0] - W[m]) / 2 for the Walsh-Hadamard transform
    W[m] = sum_v (-1)^(m . v) counts[v].  Since
    (-1)^(m . v) = (-1)^(m_hi . v_hi) (-1)^(m_lo . v_lo), W is two
    float64 products with the cached factors of _hadamard_factors, exact
    while the absolute counts of a row sum below 2^53."""
    hi, lo = _hadamard_factors(k)
    low = np.asarray(counts, dtype=np.float64).reshape(-1, len(lo)) @ lo  # one BLAS call
    w = (hi @ low.reshape(-1, len(hi), len(lo))).astype(np.int64).reshape(np.shape(counts))
    return (w[..., :1] - w) >> 1


def grams(k: int, weights: np.ndarray) -> np.ndarray:
    """The integer G G^T, (..., k, k), of each generator whose message
    weights (of message_weights) are the last axis of weights: entry
    (i, j) counts the columns with ones in rows i and j, which is
    (w[e_i] + w[e_j] - w[e_i + e_j]) / 2, so the diagonal is w[e_i]."""
    unit = 1 << np.arange(k)
    wu = weights[..., unit]
    return (wu[..., :, None] + wu[..., None, :] - weights[..., unit[:, None] ^ unit]) >> 1


def hull_dims(k: int, weights: np.ndarray) -> np.ndarray:
    """k - rank_GF(2)(G G^T) for each row of weights, an (R, 2^k) array of
    message weights (of message_weights): the parities of the grams are
    packed in bytes and their ranks come from one gf2.rref_stack."""
    odd = grams(k, weights) & 1
    return k - rref_stack(np.packbits(odd, axis=2, bitorder="little"), rows=False)[1]


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
    """Cache the weight enumerators and the hulls of the codes of the
    stack, whose generators have at most n columns (a shorter one's
    padding columns are zero, of no weight): the message weights of all
    of them come from one type_counts pass and one message_weights
    transform, the enumerators from one bincount of those weights, and
    the hulls from one hull_dims call on the same weights.  Each
    enumerator is read from the nonzero entries of its row."""
    w = message_weights(k, type_counts(k, n, stack))
    counts = np.bincount((w + np.arange(len(w))[:, None] * (n + 1)).ravel(),
                         minlength=len(w) * (n + 1)).reshape(-1, n + 1)
    hulls = hull_dims(k, w).tolist()
    for c, row, h in zip(codes, counts, hulls):
        c._hull = h  # first: profile_codes tests _we, so a set _we means both are set
        nz = row.nonzero()[0]
        c._we = WeightEnumerator(tuple(zip(nz.tolist(), row[nz].tolist())))


def make_code(g: BitMatrix) -> LinearCode:
    """Validate a full-rank generator matrix and build its code."""
    if g.rows == 0:
        raise ValueError("a code needs at least one generator row")
    return LinearCode(g)
