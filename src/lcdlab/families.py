"""Parametric LCD code families of dimension 4 and 5.

A family row fixes, per length residue s mod 2^k - 1, a vector of
affine forms a_j(t) = t + c_j; the code of parameter t is generated by
[I_k | M] where block j of M repeats a fixed nonzero column a_j(t)
times, and has length (2^k - 1) t + s and minimum weight 2^(k-1) t plus
the row's weight offset.  The weight enumerator and the integer
determinant of G G^T are computed symbolically in t and must match the
shipped reference rows.  Each dimension's tables sit in one k-keyed
lookup, DIMENSIONS.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import tables
from .code import LinearCode, make_code
from .gf2 import BitMatrix, IntMatrix, det_int

# -- affine forms and integer polynomials (coefficients ascending) ----------


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


def poly_trim(p: list[int]) -> tuple[int, ...]:
    n = len(p)
    while n and p[n - 1] == 0:
        n -= 1
    return tuple(p[:n])


def poly_add(a, b) -> tuple[int, ...]:
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return poly_trim(out)


def poly_sub(a, b) -> tuple[int, ...]:
    return poly_add(a, tuple(-c for c in b))


def poly_mul(a, b) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return poly_trim(out)


def poly_divexact(a, b) -> tuple[int, ...]:
    """Exact quotient in Z[t]; raises if the division leaves a remainder."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    out = [0] * max(len(a) - len(b) + 1, 0)
    lead = b[-1]
    for i in range(len(rem) - len(b), -1, -1):
        c = rem[i + len(b) - 1]
        if c % lead:
            raise ValueError("inexact polynomial division")
        q = c // lead
        out[i] = q
        if q:
            for j, cb in enumerate(b):
                rem[i + j] -= q * cb
    if any(rem):
        raise ValueError("inexact polynomial division")
    return poly_trim(out)


def poly_eval(p, t: int) -> int:
    acc = 0
    for c in reversed(p):
        acc = acc * t + c
    return acc


def _poly_matrix_det(mat: list[list[tuple[int, ...]]]) -> tuple[int, ...]:
    """Determinant of a polynomial matrix by fraction-free elimination."""
    n = len(mat)
    if n == 0:
        return (1,)
    m = [row[:] for row in mat]
    sign = 1
    prev: tuple[int, ...] = (1,)
    for r in range(n - 1):
        if not m[r][r]:
            p = next((i for i in range(r + 1, n) if m[i][r]), None)
            if p is None:
                return ()
            m[r], m[p] = m[p], m[r]
            sign = -sign
        for i in range(r + 1, n):
            for j in range(r + 1, n):
                num = poly_sub(poly_mul(m[r][r], m[i][j]),
                               poly_mul(m[i][r], m[r][j]))
                m[i][j] = poly_divexact(num, prev)
            m[i][r] = ()
        prev = m[r][r]
    det = m[n - 1][n - 1]
    return det if sign == 1 else tuple(-c for c in det)


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
    """[I_k | M(a)]: block j of M repeats column_order(k)[j] a[j] times."""
    order = column_order(k)
    a = list(a)
    if len(a) != len(order):
        raise ValueError(f"need {len(order)} multiplicities, got {len(a)}")
    if any(x < 0 for x in a):
        raise ValueError(f"negative multiplicity in {a}")
    rows = [1 << i for i in range(k)]
    pos = k
    for mult, t in zip(a, order):
        for _ in range(mult):
            for i in range(k):
                if (t >> i) & 1:
                    rows[i] |= 1 << pos
            pos += 1
    return BitMatrix(k, pos, tuple(rows))


@dataclass(frozen=True)
class AffineVec:
    """Per-block multiplicities as affine forms of the family parameter t."""

    entries: tuple[AffineForm, ...]

    def __call__(self, t: int) -> tuple[int, ...]:
        return tuple(e(t) for e in self.entries)

    def t_min(self) -> int:
        """Least t making every entry nonnegative."""
        return max((-e.offset for e in self.entries if e.slope == 1), default=0)


def family_affine_vector(k: int, s: int) -> AffineVec:
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


def family_code(k: int, s: int, t: int) -> FamilyVerdict:
    """Build the family member and compare it with its claimed parameters."""
    vec = family_a_vector(k, s, t)
    code = make_code(build_generator(k, vec))
    claimed_n = ((1 << k) - 1) * t + s
    claimed_d = (1 << (k - 1)) * t + DIMENSIONS[k].rows[s][1]
    hull, lcd = code.lcd_status()
    return FamilyVerdict(code, claimed_n, claimed_d, code.min_weight(), hull, lcd)


# -- symbolic weight enumerator ----------------------------------------------


@dataclass(frozen=True)
class SymbolicWE:
    """Terms (multiplicity, exponent) of the weight enumerator, constant 1
    implicit; exponents are affine in t, sorted by (slope, offset)."""

    k: int
    terms: tuple[tuple[int, AffineForm], ...]


def symbolic_weight_enumerator(k: int, av: AffineVec) -> SymbolicWE:
    """Exponent for message m: wt(m) plus every block with m . v_j = 1."""
    order = column_order(k)
    acc: dict[tuple[int, int], int] = {}
    for m in range(1, 1 << k):
        off = m.bit_count()
        slope = 0
        for e, v in zip(av.entries, order):
            if (m & v).bit_count() & 1:
                off += e.offset
                slope += e.slope
        key = (slope, off)
        acc[key] = acc.get(key, 0) + 1
    terms = tuple((mult, AffineForm(off, slope))
                  for (slope, off), mult in sorted(acc.items()))
    return SymbolicWE(k, terms)


def expected_symbolic_we(k: int, s: int) -> SymbolicWE:
    """The shipped reference row as a SymbolicWE."""
    terms = tuple((mult, AffineForm(off, 1 << (k - 1)))
                  for mult, off in sorted(DIMENSIONS[k].we[s], key=lambda p: p[1]))
    return SymbolicWE(k, terms)


# -- symbolic Gram determinant ------------------------------------------------


def _gram_entry_polys(k: int, av: AffineVec) -> list[list[tuple[int, ...]]]:
    # (i, j) entry: delta_ij from the identity block, plus every column
    # type with ones in both rows i and j.
    order = column_order(k)
    mat = []
    for i in range(k):
        row = []
        for j in range(k):
            off = 1 if i == j else 0
            slope = 0
            for e, v in zip(av.entries, order):
                if (v >> i) & 1 and (v >> j) & 1:
                    off += e.offset
                    slope += e.slope
            row.append(poly_trim([off, slope]))
        mat.append(row)
    return mat


def _matrix_at(mat: list[list[tuple[int, ...]]], t: int) -> IntMatrix:
    return IntMatrix(len(mat), len(mat),
                     tuple(tuple(poly_eval(p, t) for p in row) for row in mat))


def symbolic_gram_det(k: int, av: AffineVec) -> tuple[int, ...]:
    """det(G G^T) as an integer polynomial in t (coefficients ascending).

    Computed by fraction-free elimination over Z[t], then checked by
    evaluation: its entries are affine in t, so the true determinant has
    degree <= k; the result must too, and must equal det_int of the
    integer Gram matrix at t = 0..k.  Two polynomials of degree <= k that
    agree at k + 1 points are equal, so only the true determinant passes.
    """
    mat = _gram_entry_polys(k, av)
    det = _poly_matrix_det(mat)
    if len(det) > k + 1:
        raise AssertionError(f"determinant {det} has degree above {k}")
    for t in range(k + 1):
        if poly_eval(det, t) != det_int(_matrix_at(mat, t)):
            raise AssertionError(f"determinant {det} is not det_int at t={t}")
    return det


def det_is_odd_everywhere(p: tuple[int, ...]) -> bool:
    """True when p(t) is odd for every integer t: odd constant, even rest."""
    if not p or p[0] % 2 == 0:
        return False
    return all(c % 2 == 0 for c in p[1:])
