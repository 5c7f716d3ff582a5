"""Parametric LCD code families of dimension 4 and 5.

A family row fixes, per length residue s mod 2^k - 1, a vector of
affine forms a_j(t) = t + c_j; the code of parameter t is generated by
[I_k | M] where block j of M repeats a fixed nonzero column a_j(t)
times, and has length (2^k - 1) t + s and minimum weight 2^(k-1) t plus
the row's weight offset.  The generators are built from runs, as
TypeMultiplicity.generator builds its own: each unit column and each
block j is one run of equal columns, and gf2.pack_runs builds a whole
batch of members as one stack.  A row's affine forms are built once
per (k, s).  So the column types of [I_k | M] have
multiplicities affine in t.  The weight enumerator's exponents are the
message-weight matrix times those multiplicities, and the determinant
of G G^T, of degree <= k in t, is interpolated from its integer values
at t = 0..k; both must match the shipped reference rows.  Each
dimension's tables sit in one k-keyed lookup, DIMENSIONS.  The built
members are checked in batches: family_codes takes the weights and
hulls of a whole batch from one code_profiles call on that stack.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache
from math import factorial

import numpy as np

from . import tables
from .code import LinearCode, message_weight_matrix, stack_codes
from .gf2 import BitMatrix, IntMatrix, det_int, pack_runs, stack_rows

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
    return BitMatrix(k, k + sum(a), stack_rows(_build_stack(k, [a]))[0])


def _build_stack(k: int, vectors) -> np.ndarray:
    """The gf2 stack of [I_k | M(a)] for each multiplicity vector a:
    runs of the k unit types, one column each, then of column_order(k)."""
    order = column_order(k)
    runs = []
    for a in vectors:
        a = list(a)
        if len(a) != len(order):
            raise ValueError(f"need {len(order)} multiplicities, got {len(a)}")
        if any(x < 0 for x in a):
            raise ValueError(f"negative multiplicity in {a}")
        runs.append([1] * k + a)
    return pack_runs(k, [1 << i for i in range(k)] + list(order), runs)


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
    """The evaluated multiplicity vector; rejects t below the admissible range."""
    av = family_affine_vector(k, s)
    vec = av(t)
    for j, x in enumerate(vec):
        if x < 0:
            raise ValueError(
                f"t={t} below range for (k={k}, s={s}): entry a_{j + 1} = {x}")
    return vec


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
    from one code_profiles call.  [I_k | M] is already in reduced
    row-echelon form, so it is not reduced again."""
    members = list(members)
    lengths = [((1 << k) - 1) * t + s for s, t in members]
    codes = stack_codes(_build_stack(k, [family_a_vector(k, s, t)
                                         for s, t in members]), lengths)
    return [FamilyVerdict(code, n, family_weight(k, n)[2], code.min_weight(),
                          *code.lcd_status())
            for code, n in zip(codes, lengths)]


def family_code(k: int, s: int, t: int) -> FamilyVerdict:
    """Build the family member and compare it with its claimed parameters."""
    return family_codes(k, [(s, t)])[0]


# -- column-type multiplicities in t -----------------------------------------


def _type_counts(k: int, av: AffineVec) -> tuple[np.ndarray, np.ndarray]:
    """Offset and slope multiplicities of the 2^k column types of
    [I_k | M(av)]; the identity's unit columns count among the offsets."""
    off = np.zeros(1 << k, dtype=np.int64)
    slope = np.zeros(1 << k, dtype=np.int64)
    off[1 << np.arange(k)] = 1
    order = list(column_order(k))
    off[order] += [e.offset for e in av.entries]
    slope[order] = [e.slope for e in av.entries]
    return off, slope


def _gram(k: int, counts: np.ndarray) -> np.ndarray:
    """The integer G G^T of a generator with these column-type
    multiplicities: entry (i, j) counts the columns with ones in rows i, j."""
    bits = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1
    return bits.T @ (counts[:, None] * bits)


# -- symbolic weight enumerator ----------------------------------------------


@dataclass(frozen=True)
class SymbolicWE:
    """Terms (multiplicity, exponent) of the weight enumerator, constant 1
    implicit; exponents are affine in t, sorted by (slope, offset)."""

    k: int
    terms: tuple[tuple[int, AffineForm], ...]


def symbolic_weight_enumerator(k: int, av: AffineVec) -> SymbolicWE:
    """Exponent for message m: row m-1 of message_weight_matrix(k) times
    the offset and the slope multiplicities of [I_k | M(av)]."""
    w = message_weight_matrix(k)
    off, slope = _type_counts(k, av)
    acc = Counter(zip((w @ slope[1:]).tolist(), (w @ off[1:]).tolist()))
    return SymbolicWE(k, tuple((mult, AffineForm(o, sl))
                               for (sl, o), mult in sorted(acc.items())))


def expected_symbolic_we(k: int, s: int) -> SymbolicWE:
    """The shipped reference row as a SymbolicWE."""
    terms = tuple((mult, AffineForm(off, 1 << (k - 1)))
                  for mult, off in sorted(DIMENSIONS[k].we[s], key=lambda p: p[1]))
    return SymbolicWE(k, terms)


# -- symbolic Gram determinant ------------------------------------------------


def symbolic_gram_det(k: int, av: AffineVec) -> tuple[int, ...]:
    """det(G G^T) as an integer polynomial in t (coefficients ascending).

    G G^T is its offset part plus t times its slope part, so the
    determinant has degree <= k and is fixed by its values, det_int of
    the integer Gram matrix at t = 0..k.  _interpolate builds it from
    them; the result is then checked to have degree <= k and to equal
    those values, so a faulty interpolation raises AssertionError.
    """
    base, step = (_gram(k, c) for c in _type_counts(k, av))
    values = [det_int(IntMatrix(k, k, tuple(map(tuple, g.tolist()))))
              for g in (base + t * step for t in range(k + 1))]
    det = _interpolate(values)
    if len(det) > k + 1:
        raise AssertionError(f"determinant {det} has degree above {k}")
    for t, v in enumerate(values):
        if sum(c * t ** i for i, c in enumerate(det)) != v:
            raise AssertionError(f"determinant {det} is not det_int at t={t}")
    return det


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
