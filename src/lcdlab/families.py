"""Parametric LCD code families of dimension 4 and 5.

A family row fixes, per length residue s mod 2^k - 1, a vector of
affine forms a_j(t) = t + c_j; the code of parameter t is generated by
[I_k | M] where block j of M repeats a fixed nonzero column a_j(t)
times, and has length (2^k - 1) t + s and minimum weight 2^(k-1) t plus
the row's weight offset.  A row's affine forms are built once per
(k, s), and each dimension's tables sit in one k-keyed lookup,
DIMENSIONS.

Each check takes a dimension's rows, or its members, as one stack; a
single one is a stack of one.  family_codes evaluates its members'
multiplicity vectors as one array, builds their generators from runs
(each unit column and each block j is one run of equal columns) with
one gf2.pack_runs call, and takes their weights and hulls from one
code.message_weights transform of their column types; a member longer
than gf2.MAX_DIM is rejected on Python ints, before any array is made.
The column types of [I_k | M] have multiplicities affine in t, held for
all rows as (S, 2^k) offset and slope arrays: one transform of both
gives every row's weight enumerator exponents, and one of the counts at
t = 0..k gives the integer Grams there (code.grams).
det(G G^T), of degree <= k in t, is interpolated
from its values at t = 0..k: the Grams of every row at every such t
form one (S (k+1), k, k) stack, whose determinants one Leibniz
expansion over the k! permutations gives, built one matrix row at a
time.  With M the stack's largest entry in absolute value, k! M^k
bounds every partial product and sum, so the expansion runs in int64
below 2^63 and on Python ints, through the same steps, above it.  Both
must match the shipped reference rows.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache
from itertools import permutations
from math import factorial

import numpy as np

from . import tables
from .code import LinearCode, grams, message_weights, stack_codes
from .gf2 import MAX_DIM, BitMatrix, pack_runs, stack_rows

# -- affine forms ------------------------------------------------------------


@dataclass(frozen=True, order=True)
class AffineForm:
    """c0 + c1 * t with integer coefficients."""

    offset: int
    slope: int = 0

    def __call__(self, t: int) -> int:
        return self.offset + self.slope * t

    def __str__(self):
        if self.slope == 0:
            return str(self.offset)
        head = "t" if self.slope == 1 else f"{self.slope}t"
        if self.offset == 0:
            return head
        return f"{head}{self.offset:+d}"


# -- column orders and construction ------------------------------------------

@dataclass(frozen=True)
class Dimension:
    """The shipped tables of one family dimension, and the largest t at
    which the verification matrix builds every family member."""

    column_types: tuple[int, ...]
    rows: dict          # family rows by residue s
    we: dict            # reference weight enumerators by s
    det: dict           # reference Gram determinant polynomials by s
    generators: tuple   # fixture groups ((n, d), octal strings): all classes
    counts: dict        # class counts of lower rungs, keyed by fixture level
    lcd_witnesses: dict  # LCD generators by n, as (d, binary rows)
    t_checked: int


DIMENSIONS = {
    4: Dimension(tables.DIM4_COLUMN_TYPES, tables.DIM4_FAMILY, tables.DIM4_WE,
                 tables.DIM4_DET, tables.DIM4_GENERATORS, tables.DIM4_COUNTS,
                 {}, 4),
    5: Dimension(tables.DIM5_COLUMN_TYPES, tables.DIM5_FAMILY, tables.DIM5_WE,
                 tables.DIM5_DET, tables.DIM5_GENERATORS, tables.DIM5_COUNTS,
                 tables.DIM5_LCD_WITNESSES, 3),
}


def column_order(k: int) -> tuple[int, ...]:
    if k not in DIMENSIONS:
        raise ValueError(f"no column order shipped for k={k}")
    return DIMENSIONS[k].column_types


def build_generator(k: int, a) -> BitMatrix:
    """[I_k | M(a)]: block j of M repeats column_order(k)[j] a[j] times,
    one run of a[j] columns, after the k unit columns; a stack of one
    of _build_stack."""
    a = list(a)
    order = column_order(k)
    if len(a) != len(order):
        raise ValueError(f"need {len(order)} multiplicities, got {len(a)}")
    if any(x < 0 for x in a):
        raise ValueError(f"negative multiplicity in {a}")
    return BitMatrix(k, k + sum(a), stack_rows(_build_stack(k, np.array([a])))[0])


def _build_stack(k: int, vectors: np.ndarray) -> np.ndarray:
    """The gf2 stack of [I_k | M(a)] for each row a of vectors, an
    (N, 2^k - 1) array of nonnegative multiplicities: runs of the k unit
    types, one column each, then of column_order(k)."""
    runs = np.ones((len(vectors), k + vectors.shape[1]), dtype=np.int64)
    runs[:, k:] = vectors
    return pack_runs(k, [1 << i for i in range(k)] + list(column_order(k)), runs)


@dataclass(frozen=True)
class AffineVec:
    """Per-block multiplicities as affine forms of the family parameter t."""

    entries: tuple[AffineForm, ...]

    def __call__(self, t: int) -> tuple[int, ...]:
        return tuple(e(t) for e in self.entries)

    def t_min(self) -> int:
        """Least t making every entry nonnegative."""
        return max((-e.offset for e in self.entries if e.slope == 1), default=0)


@cache
def family_affine_vector(k: int, s: int) -> AffineVec:
    """Row s of dimension k as affine forms, built once per shipped row
    (AffineVec is frozen, so one instance serves every caller)."""
    if k not in DIMENSIONS or s not in DIMENSIONS[k].rows:
        raise ValueError(f"no family row for k={k}, s={s}")
    offsets = DIMENSIONS[k].rows[s][0]
    return AffineVec(tuple(AffineForm(c, 1) for c in offsets))


def family_t_min(k: int, s: int) -> int:
    derived = family_affine_vector(k, s).t_min()
    published = DIMENSIONS[k].rows[s][2]
    if derived != published:
        raise AssertionError(
            f"t_min mismatch for (k={k}, s={s}): derived {derived}, "
            f"published {published}")
    return derived


def family_a_vector(k: int, s: int, t: int) -> tuple[int, ...]:
    """The evaluated multiplicity vector; rejects t below the admissible
    range.  A stack of one of _member_vectors."""
    return tuple(_member_vectors(k, [(s, t)])[0].tolist())


def _member_vectors(k: int, members: list) -> np.ndarray:
    """The multiplicity vectors of the members (s, t) of dimension k as
    one (N, 2^k - 1) array.  Any member longer than MAX_DIM is rejected,
    then the first member, in order, with t below its row's range,
    naming its first negative entry."""
    if any(((1 << k) - 1) * t + s > MAX_DIM for s, t in members):
        raise ValueError(f"need n <= {MAX_DIM}, the most columns a generator holds")
    off, slope = _coefficients(k, [family_affine_vector(k, s) for s, _ in members])
    # no offset reaches MAX_DIM, so t and -MAX_DIM make the same entries negative
    ts = np.array([max(t, -MAX_DIM) for _, t in members], dtype=np.int64)
    vecs = off + ts[:, None] * slope
    rows, cols = (vecs < 0).nonzero()
    if rows.size:
        (s, t), j = members[rows[0]], cols[0]
        a = family_affine_vector(k, s).entries[j](t)
        raise ValueError(f"t={t} below range for (k={k}, s={s}): entry a_{j + 1} = {a}")
    return vecs


@dataclass(frozen=True)
class FamilyVerdict:
    code: LinearCode
    claimed_n: int
    claimed_d: int
    measured_d: int
    hull_dim: int
    is_lcd: bool

    @property
    def match(self) -> bool:
        return (self.code.n == self.claimed_n
                and self.measured_d == self.claimed_d
                and self.is_lcd)


def family_weight(k: int, n: int) -> tuple[int, int, int]:
    """(s, t, d) with n = (2^k - 1) t + s and d = 2^(k-1) t plus row s's
    weight offset: the minimum weight of the family member of length n,
    which exists when t >= family_t_min(k, s)."""
    t, s = divmod(n, (1 << k) - 1)
    return s, t, (1 << (k - 1)) * t + DIMENSIONS[k].rows[s][1]


def family_codes(k: int, members) -> list[FamilyVerdict]:
    """Build the family members (s, t) of dimension k as one stack and
    compare each with its claimed parameters, their weights and hulls
    from one stack_codes call.  [I_k | M] is already in reduced
    row-echelon form, so it is not reduced again."""
    members = list(members)
    lengths = [((1 << k) - 1) * t + s for s, t in members]
    codes = stack_codes(_build_stack(k, _member_vectors(k, members)), lengths)
    return [FamilyVerdict(code, n, family_weight(k, n)[2], code.min_weight(),
                          *code.lcd_status())
            for code, n in zip(codes, lengths)]


def family_code(k: int, s: int, t: int) -> FamilyVerdict:
    """Build the family member and compare it with its claimed parameters."""
    return family_codes(k, [(s, t)])[0]


# -- column-type multiplicities in t -----------------------------------------


def _coefficients(k: int, avs: list) -> np.ndarray:
    """The offsets and the slopes of the entries of each AffineVec in
    avs, as one (2, S, 2^k - 1) array."""
    return np.array([[e.offset for av in avs for e in av.entries],
                     [e.slope for av in avs for e in av.entries]],
                    dtype=np.int64).reshape(2, len(avs), len(column_order(k)))


def _type_counts(k: int, avs: list) -> np.ndarray:
    """Offset and slope multiplicities of the 2^k column types of
    [I_k | M(av)] for each av in avs, as one (2, S, 2^k) array, offsets
    first; the identity's unit columns count among the offsets."""
    counts = np.zeros((2, len(avs), 1 << k), dtype=np.int64)
    counts[:, :, list(column_order(k))] = _coefficients(k, avs)
    counts[0, :, 1 << np.arange(k)] += 1
    return counts


def _gram(k: int, counts: np.ndarray) -> np.ndarray:
    """The integer G G^T of a generator with these column-type
    multiplicities, the last axis of counts: code.grams of their
    code.message_weights."""
    return grams(k, message_weights(k, counts))


# -- symbolic weight enumerator ----------------------------------------------


@dataclass(frozen=True)
class SymbolicWE:
    """Terms (multiplicity, exponent) of the weight enumerator, constant 1
    implicit; exponents are affine in t, sorted by (slope, offset)."""

    k: int
    terms: tuple[tuple[int, AffineForm], ...]


def symbolic_weight_enumerators(k: int, avs) -> list[SymbolicWE]:
    """The SymbolicWE of each av in avs.  The exponent for message m is
    the weight code.message_weights gives m from the offset and from
    the slope multiplicities of [I_k | M(av)]; one transform gives every
    av's."""
    off, slope = message_weights(k, _type_counts(k, list(avs)))[..., 1:]
    return [SymbolicWE(k, tuple((mult, AffineForm(o, sl)) for (sl, o), mult
                                in sorted(Counter(zip(sls, offs)).items())))
            for sls, offs in zip(slope.tolist(), off.tolist())]


def symbolic_weight_enumerator(k: int, av: AffineVec) -> SymbolicWE:
    """The SymbolicWE of av: a stack of one of symbolic_weight_enumerators."""
    return symbolic_weight_enumerators(k, [av])[0]


def expected_symbolic_we(k: int, s: int) -> SymbolicWE:
    """The shipped reference row as a SymbolicWE."""
    terms = tuple((mult, AffineForm(off, 1 << (k - 1)))
                  for mult, off in sorted(DIMENSIONS[k].we[s], key=lambda p: p[1]))
    return SymbolicWE(k, terms)


# -- symbolic Gram determinant ------------------------------------------------


def symbolic_gram_dets(k: int, avs) -> list[tuple[int, ...]]:
    """det(G G^T) of each av in avs as an integer polynomial in t
    (coefficients ascending).

    G G^T is its offset part plus t times its slope part, so the
    determinant has degree <= k and is fixed by its values at t = 0..k,
    which _dets takes for every av at once.  _interpolate builds each
    polynomial from them; the result is then checked to have degree
    <= k and to equal those values, so a faulty interpolation raises
    AssertionError.
    """
    off, slope = _type_counts(k, list(avs))
    at_t = _gram(k, off[:, None] + np.arange(k + 1)[:, None] * slope[:, None])
    dets = []
    for values in _dets(at_t.reshape(-1, k, k)).reshape(-1, k + 1).tolist():
        det = _interpolate(values)
        if len(det) > k + 1:
            raise AssertionError(f"determinant {det} has degree above {k}")
        for t, v in enumerate(values):
            if sum(c * t ** i for i, c in enumerate(det)) != v:
                raise AssertionError(f"determinant {det} is not det_int at t={t}")
        dets.append(det)
    return dets


def symbolic_gram_det(k: int, av: AffineVec) -> tuple[int, ...]:
    """det(G G^T) of av as an integer polynomial in t (coefficients
    ascending): a stack of one of symbolic_gram_dets."""
    return symbolic_gram_dets(k, [av])[0]


@cache
def _permutations(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k! permutations of range(k), one a row, and their signs."""
    p = np.array(list(permutations(range(k))), dtype=np.intp)
    sign = 1 - 2 * (np.triu(p[:, :, None] > p[:, None, :], 1).sum(axis=(1, 2)) & 1)
    p.flags.writeable = sign.flags.writeable = False
    return p, sign


def _dets(m: np.ndarray) -> np.ndarray:
    """The determinants of an (N, k, k) stack of integer matrices, k >= 1,
    by Leibniz's formula, each term sign(p) m[0, p(0)] ... m[k-1, p(k-1)]
    built one row at a time, never as an (N, k!, k) gather.  Exact in
    int64 when k! M^k < 2^63, M the largest entry in absolute value,
    and on Python ints otherwise."""
    k = m.shape[1]
    p, sign = _permutations(k)
    top = max(int(m.max(initial=0)), -int(m.min(initial=0)))
    m = m.astype(np.int64 if factorial(k) * top ** k < 1 << 63 else object)
    terms = m[:, 0].take(p[:, 0], axis=1)
    for i in range(1, k):
        terms *= m[:, i].take(p[:, i], axis=1)
    return terms @ sign


def _interpolate(values: list[int]) -> tuple[int, ...]:
    """The integer polynomial taking values[t] at t = 0, 1, ...

    Newton's forward differences give it: p(t) = sum_j (D^j v_0 / j!)
    t(t-1)...(t-j+1).  For an integer polynomial each D^j v_0 is a
    multiple of j!; a remainder means the values are wrong, and raises
    AssertionError.
    """
    coeffs = [0] * len(values)
    falling = [1]  # t(t-1)...(t-j+1), coefficients ascending
    diffs = list(values)
    for j in range(len(values)):
        q, r = divmod(diffs[0], factorial(j))
        if r:
            raise AssertionError(
                f"difference {j} of the determinants at t=0..{len(values) - 1}"
                f" is {diffs[0]}, not a multiple of {j}!")
        for i, c in enumerate(falling):
            coeffs[i] += q * c
        falling = [a - j * b for a, b in zip([0] + falling, falling + [0])]
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def det_is_odd_everywhere(p: tuple[int, ...]) -> bool:
    """True when p(t) is odd for every integer t: odd constant, even rest."""
    if not p or p[0] % 2 == 0:
        return False
    return all(c % 2 == 0 for c in p[1:])
