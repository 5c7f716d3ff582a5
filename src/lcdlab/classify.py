"""Isomorph-free classification of [n, k, d] binary codes.

Two engines share one deduplication layer:

* direct enumeration over column-type multiplicity vectors, either as
  plain compositions or, when d is large, through the bijection between
  multiplicity vectors and message-weight vectors (inverted exactly by
  a Walsh-Hadamard transform);
* length/dimension extension: every [n, k, d] code with d >= 2 arises
  by adjoining a new coordinate and a generator row (1|v) to some
  [n-1, k-1, d' >= d] code, with v of coset weight >= d-1.  Up to
  equivalence v only matters through how many ones it puts on the seed
  columns of each type, and every coset weight is linear in those
  counts, so the extensions are the rows of the seed's type-multiplicity
  box whose least coset weight is >= d-1; the extended code has minimum
  weight min(d_seed, 1 + coset weight).  The boxes of all the seeds of
  a rung are walked as one frontier, one type at a time, widest type
  first, and a prefix is pruned as soon as some message's partial coset
  weight, plus the most the remaining types can add to it, falls below
  d-1.  Each prefix carries that margin, its slack, for every message,
  so the values of the next type that keep it form one interval, and
  only the children in it are built.  That bound is exact (it is d-1
  itself once every type is placed), so the walk keeps exactly the
  rows a scan of each whole box keeps.  It returns them in walk order,
  each with the seed it extends; the dedupe sorts canonical forms, so
  no level file depends on that order.

Direct enumeration keeps, for k >= 2, only the vectors that meet the
orbit rule: message e1 has the least weight, and message e2 the least
weight of the others (ties allowed on both sides).  No class is lost.
A basis change T maps each column type x to Tx, so the new vector
gives message m the weight the old one gave T^t m.  For k >= 2 any two
distinct nonzero messages a and b are independent, so they extend to a
basis, and some invertible T has T^t e1 = a and T^t e2 = b: GL(k,2) is
2-transitive on the nonzero messages.  Taking a of least weight and b
of least weight among the others, the image of any vector meets the
rule, so every class keeps at least one candidate.  The other tests a
candidate passes (its length, zero columns, least and largest message
weight, and the integrality of the Walsh-Hadamard inverse) are the
same for every vector of a class, so the dedupe, which keeps the
canonical vector of each class it meets, returns the same classes and
every level file is unchanged.  For k = 1 there is one message and no
rule.  The group is not 3-transitive (a T^t that maps e1, e2 to a, b
maps e1 + e2 to a + b), so the rule cannot ask the same of message
3 = e1 + e2.

Both engines build a whole rung, every level d' >= d of an [n, k]
pair, at once, and direct enumeration may build the rungs of several
lengths of one dimension in one call.  Every call files its candidates
through one path, _file_levels.  Equivalence classes are orbits of
multiplicity vectors under basis change; deduplication puts all the
candidates of the call into canonical form in one batch, for every k,
so one dedupe may span several lengths, and returns the classes as one
array in lexicographic order.  Each class is filed at (length, least
weight): the sum and the least message weight of its canonical vector,
both invariants of the class, so classes of different lengths never
merge.  The generators of every class of the call are then built as
one gf2 stack, reduced by one rref_stack and weighed by one
code_profiles call, and their keys written by one canonical.counts_keys
call; _build_db checks each level's classes against its own [n, k, d'].

classify runs the ladder as a plan, _ladder, made before any work: the
rungs bottom-up, each an (n', k') pair with the levels d' its build
writes.  It reads the highest rung stored whole and builds every rung
above it in order, each from the one below, with no recursion.  A
stored level is trusted only through the path that files it: the
column types of its rows, read by one type_counts pass, must all have
least message weight d, and _file_levels must file them into exactly
the stored records, so only that check compares a key with its rows.
lcd_census reads the rows' column types the same way and takes every
class's hull from one hull_dims call, building no LinearCode.

In the Walsh-Hadamard branch the lengths and zero-column counts of one
direct call often ask for the same ordered compositions.  Each table
is built once per call, from arrays of its (j, l) pairs, and kept in a
dict that the call drops when it returns, so no array outlives it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import repeat
from math import comb, prod

import numpy as np

from . import formats
from .bounds import griesmer_dmax
from .canonical import CANONICAL_CAP, canonical_classes, counts_keys
from .code import (code_profiles, hull_dims, message_weight_matrix, sign_matrix,
                   type_counts)
from .formats import CodeDB
from .gf2 import pack_rows, pack_runs, rref_stack, stack_rows

DEFAULT_LIMIT = 20_000_000  # candidate vectors one direct enumeration may make
MAX_LENGTH = np.iinfo(np.int16).max  # multiplicity arrays are int16
# rows one block of work makes: compositions scored by one message-weight
# product, or prefixes of one step of the extension walk; bounds memory
BOX_CHUNK = 1 << 16


@dataclass(frozen=True)
class CensusResult:
    n: int
    k: int
    d: int
    count: int
    lcd_count: int
    lcd_keys: tuple[bytes, ...]


def compositions(total: int | np.ndarray, parts: int) -> np.ndarray:
    """All vectors in Z_{>=0}^parts with the given sum, lexicographic
    order, as int16; for a 1-d array of totals, those of each total in
    turn.

    Built one column at a time over all prefixes at once: a prefix with
    r left to place has the children 0..r in its next column, and a child
    that leaves r' covers the comb(r' + left - 1, left - 1) final rows of
    its left remaining columns, so each column is written straight into
    the preallocated int16 output by one repeat of the child values.  The
    last two columns are the children of the final prefixes and what they
    leave.  The output is column-major, so each column is one contiguous
    write and a scorer reads the columns in place.  Besides the output,
    the work arrays are a few vectors no longer than the output has
    rows, so the peak stays a small multiple of the output (1.5x for
    compositions(30, 7)).
    """
    if parts < 1:
        raise ValueError("need at least one part")
    totals = np.atleast_1d(total).astype(np.int64)
    if (totals < 0).any():
        raise ValueError("need total >= 0")
    top = int(totals.max(initial=0))
    out = np.empty((int(_cover(parts, top)[totals].sum()), parts),
                   dtype=np.int16, order="F")
    _fill_compositions(out, totals, top)
    return out


def _cover(left: int, top: int) -> np.ndarray:
    """comb(r + left - 1, left - 1), the number of compositions of r
    into left parts, for r = 0..top."""
    return np.array([comb(r + left - 1, left - 1) for r in range(top + 1)],
                    dtype=np.int64)


def _spread(value: np.ndarray, rest: np.ndarray, left: int, top: int):
    """Each prefix's value repeated over the rows it covers: the
    compositions of what it leaves, r <= top, into left parts."""
    return value if left == 1 else value.repeat(_cover(left, top)[rest])


def _fill_compositions(out: np.ndarray, rest: np.ndarray, top: int):
    """Write into the columns of out the compositions into that many
    parts of each r <= top of rest in turn."""
    parts = out.shape[1]
    for j in range(parts - 1):
        size = rest.astype(np.int64) + 1  # children per prefix
        # child value 0..r within each prefix: ones, reset at each prefix start
        value = np.ones(int(size.sum()), dtype=np.int16)
        value[0] = 0
        value[size[:-1].cumsum()] = 1 - size[:-1]
        value.cumsum(dtype=np.int16, out=value)
        rest = rest.repeat(size)
        rest -= value
        out[:, j] = _spread(value, rest, parts - 1 - j, top)
    out[:, -1] = rest


def _compositions(total: int, parts: int, low: int, high: int, prefix: tuple):
    """The rows of compositions(total, parts) whose first part lies in
    low .. high (consecutive rows of it), each after the fixed prefix."""
    m = len(prefix)
    if parts == 1:
        return np.array([prefix + (total,)], dtype=np.int16)
    n = comb(total - low + parts - 1, parts - 1) - comb(total - high + parts - 2, parts - 1)
    out = np.empty((n, m + parts), dtype=np.int16, order="F")
    out[:, :m] = prefix
    value = np.arange(low, high + 1, dtype=np.int16)  # the first parts
    rest = total - value  # what each prefix leaves
    out[:, m] = _spread(value, rest, parts - 1, total)
    _fill_compositions(out[:, m + 1:], rest, total)
    return out


def composition_blocks(total: int, parts: int, rows: int, prefix: tuple = ()):
    """compositions(total, parts) in order, each row after the fixed
    prefix, as consecutive blocks of at most rows rows.

    A run of first parts whose compositions fit in rows makes one block;
    a first part with more is split the same way by its second part, and
    so on, so memory follows rows, not the number of compositions."""
    if parts == 1 or comb(total + parts - 1, parts - 1) <= rows:
        yield _compositions(total, parts, 0, total, prefix)
        return
    low = 0
    while low <= total:
        size = comb(total - low + parts - 2, parts - 2)  # rows with first part low
        if size > rows:
            yield from composition_blocks(total - low, parts - 1, rows, prefix + (low,))
            low += 1
            continue
        high = low
        while high < total and size + comb(total - high - 1 + parts - 2, parts - 2) <= rows:
            high += 1
            size += comb(total - high + parts - 2, parts - 2)
        yield _compositions(total, parts, low, high, prefix)
        low = high + 1


# -- deduplication -------------------------------------------------------------


def _dedupe_canonical(vec_arrays: list[np.ndarray], k: int) -> np.ndarray:
    """Distinct canonical multiplicity vectors among the candidates, as
    one int64 array in lexicographic order."""
    canon = canonical_classes(vec_arrays, k).astype(np.int64)
    return canon[np.lexsort(canon.T[::-1])]


def _verified_classes(k: int, canon: np.ndarray) -> list[tuple]:
    """(key, rows, (length, rank, least weight)) of each canonical
    vector's class: the generators of all of them built as one stack,
    reduced by one rref_stack and weighed by one code_profiles call, and
    the class keys written by one counts_keys call."""
    # TypeMultiplicity.generator's columns: the zero columns are padding
    reduced, rank = rref_stack(pack_runs(k, range(1, 1 << k), canon[:, 1:]))
    lengths = canon.sum(axis=1)
    weights = code_profiles(k, int(lengths.max(initial=0)), reduced)
    weights[:, 0] = 0  # least is 0 when no nonzero weight occurs
    least = weights.astype(bool).argmax(axis=1).tolist()
    return list(zip(counts_keys(k, canon), stack_rows(reduced),
                    zip(lengths.tolist(), rank.tolist(), least)))


def _build_db(n: int, k: int, d: int, method: str, canon: np.ndarray,
              classes: list[tuple]) -> CodeDB:
    """The level's database from its canonical vectors and their
    _verified_classes: each class's length, rank and least weight checked
    against [n, k, d]."""
    records = []
    for counts, (key, rows, shape) in zip(canon.tolist(), classes):
        if shape != (n, k, d):
            raise AssertionError(
                f"representative verification failed for {tuple(counts)}: "
                f"[{shape[0]},{shape[1]},{shape[2]}] != [{n},{k},{d}]")
        records.append((key, rows))
    records.sort(key=lambda r: r[0])
    return CodeDB(n, k, d, method, tuple(records))


def _file_levels(k: int, ranges: dict[int, tuple[int, int]], method: str,
                 vec_arrays: list[np.ndarray]) -> dict[tuple[int, int], CodeDB]:
    """The [n, k, d'] databases, keyed by (n, d'), for every length n of
    ranges and every d <= d' <= top with (d, top) = ranges[n], from
    candidates whose lengths and least message weights lie in those
    ranges: one dedupe for all of them, each class filed at the sum of
    its canonical vector and its least message weight (both invariants
    of the class, so classes of different lengths never merge).  The
    classes of every level are built, reduced and weighed as one stack
    by _verified_classes, and each level is then checked against its
    own (n, d') by _build_db."""
    canon = _dedupe_canonical(vec_arrays, k)
    levels: dict[tuple[int, int], list[int]] = {
        (n, dd): [] for n, (d, top) in ranges.items() for dd in range(d, top + 1)}
    weights = (canon[:, 1:] @ message_weight_matrix(k).T).min(axis=1)
    for i, (n, w) in enumerate(zip(canon.sum(axis=1).tolist(), weights.tolist())):
        if (n, w) not in levels:
            raise AssertionError(f"class {tuple(canon[i].tolist())} has length {n} "
                                 f"and minimum weight {w}, outside every range")
        levels[n, w].append(i)
    classes = _verified_classes(k, canon)
    return {(n, dd): _build_db(n, k, dd, method, canon[found],
                               [classes[i] for i in found])
            for (n, dd), found in levels.items()}


# -- direct classification over column multisets -------------------------------


def _least_weight(block: np.ndarray, cover: list[np.ndarray]) -> np.ndarray:
    """The least message weight of each row of a block of compositions
    that meets the orbit rule (k >= 2: message e1 has the least weight,
    and message e2 the least of the rest), and -1, below every d, for
    each row that does not.  Every message's weight is summed from the
    block's columns for the types it covers (numpy has no BLAS path for
    an integer matrix product), read in place from a column-major block;
    the messages after e1 and e2 only lower one running least."""
    cols = np.ascontiguousarray(block.T)
    w = []  # e1, e2, the least of the rest
    for i, types in enumerate(cover):
        wt = cols[types[0]].copy()
        for t in types[1:]:
            wt += cols[t]
        if i < 3:
            w.append(wt)
        else:
            np.minimum(w[2], wt, out=w[2])
    if len(w) == 1:  # k = 1: a single message, no rule
        return w[0]
    e1, e2, rest = w
    e1[(e1 > e2) | (e2 > rest)] = -1
    return e1


def _ordered_compositions(total: int, parts: int, most: int) -> np.ndarray:
    """The compositions u of total into parts >= 3 parts with
    u[0] <= most that meet the orbit rule, u[0] <= u[1] <= u[i] for
    every i >= 2, in lexicographic order: u = (j, j + l, j + l + r) for
    each composition r of rest = total - parts j - (parts - 1) l into
    parts - 2 parts.  The (j, l) pairs are built as arrays, and one call
    of compositions makes the r of every pair."""
    j = np.arange(min(most, total // parts) + 1)
    per_j = (total - parts * j) // (parts - 1) + 1  # l = 0 .. per_j - 1
    j = np.repeat(j, per_j)
    l = np.arange(len(j)) - np.repeat(np.cumsum(per_j) - per_j, per_j)
    rest = total - parts * j - (parts - 1) * l
    size = _cover(parts - 2, total)[rest]  # rows of each pair
    u = np.empty((int(size.sum()), parts), dtype=np.int16)
    u[:, 0] = j.repeat(size)
    u[:, 1] = (j + l).repeat(size)
    u[:, 2:] = compositions(rest, parts - 2) + u[:, 1:2]
    return u


def _column_candidates(n: int, k: int, d: int, top: int | None = None,
                       tables: dict | None = None):
    """Yield (z, vecs) arrays of full multiplicity vectors with min weight
    in d..top (top defaults to d), z zero columns among n, that meet the
    orbit rule of the module docstring, so at least one vector of every
    class.  As d >= 1, the supported types span F2^k (a message
    orthogonal to all of them would have weight 0), so every vector is
    the column multiset of an [n, k, d'] code.

    In the Walsh-Hadamard branch a vector is its excess message weights
    u = wt - d, a composition of u_total(d); those with min(u) = j are
    exactly the level d + j ones.  Under the rule min(u) = u[0], so
    building only the ordered compositions with u[0] <= top - d
    enumerates every level of the range at once.  Those compositions
    are read from tables, keyed by _ordered_compositions' arguments, and
    built there when missing: the caller may share one tables dict among
    its calls (a new one is made by default)."""
    top = d if top is None else top
    tables = {} if tables is None else tables
    q = (1 << k) - 1
    half = 1 << (k - 1)
    # the types each message covers (m . v = 1): its weight is the sum of
    # their multiplicities, exact in int16, as it is at most s
    cover = [row.nonzero()[0] for row in message_weight_matrix(k)]
    sign = sign_matrix(k)
    for z in range(0, n - k + 1):
        s = n - z
        if s < k or half * s < q * d:
            break
        n_direct = comb(s + q - 1, q - 1)
        u_total = half * s - q * d
        n_wht = comb(u_total + q - 1, q - 1)
        if min(n_direct, n_wht) > DEFAULT_LIMIT:
            raise ValueError(
                f"enumeration infeasible for [{n},{k},{d}] at z={z}: "
                f"~{min(n_direct, n_wht):.3e} candidate vectors "
                f"(limit {DEFAULT_LIMIT})")
        if n_direct <= n_wht:
            sel = []
            for block in composition_blocks(s, q, BOX_CHUNK):
                least = _least_weight(block, cover)
                sel.append(block[(least >= d) & (least <= top)])
            sel = np.concatenate(sel)
        else:  # k >= 2: at k = 1 both counts are 1
            key = (u_total, q, top - d)
            if key not in tables:
                tables[key] = _ordered_compositions(*key)
            ups = tables[key]
            ups = ups[ups.max(axis=1) <= s - d]
            if not len(ups):
                continue
            t = np.empty((len(ups), 1 << k), dtype=np.int64)
            t[:, 0] = s
            t[:, 1:] = s - 2 * (d + ups.astype(np.int64))
            prod = t @ sign
            good = (np.remainder(prod, 1 << k) == 0).all(axis=1)
            a = prod >> k
            good &= (a >= 0).all(axis=1) & (a[:, 0] == 0)
            sel = a[good][:, 1:].astype(np.int16)
        if not len(sel):
            continue
        vecs = np.empty((len(sel), q + 1), dtype=np.int16)
        vecs[:, 0] = z
        vecs[:, 1:] = sel
        yield z, vecs


def _check_length(n: int):
    if n > MAX_LENGTH:
        raise ValueError(f"need n <= {MAX_LENGTH} (int16 multiplicities), got n={n}")


def _check_direct(n: int, k: int, d: int):
    _check_length(n)
    if d < 1:
        raise ValueError("need d >= 1")
    if not 1 <= k <= min(n, CANONICAL_CAP):
        raise ValueError(
            f"need 1 <= k <= min(n, {CANONICAL_CAP}), got n={n}, k={k}")


def _direct_levels(k: int, ranges: dict[int, tuple[int, int]]
                   ) -> dict[tuple[int, int], CodeDB]:
    """Every [n, k, d'] level for n in ranges and d <= d' <= top with
    (d, top) = ranges[n]: one direct enumeration per length, one dedupe.
    The lengths share one table of ordered compositions, dropped when
    the call returns."""
    tables: dict = {}
    arrays = [vecs for n, (d, top) in ranges.items()
              for _, vecs in _column_candidates(n, k, d, top, tables)]
    return _file_levels(k, ranges, "columns", arrays)


def classify_by_columns(n: int, k: int, d: int) -> CodeDB:
    """All inequivalent [n, k, d] codes by direct multiset enumeration.

    Practical for k <= 4 (and k = 5 when d is near the Griesmer maximum).
    Zero columns are allowed and tracked.  Needs n <= MAX_LENGTH; a
    level whose enumeration would make more than DEFAULT_LIMIT candidate
    vectors is refused with an estimate of their number.
    """
    _check_direct(n, k, d)
    return _direct_levels(k, {n: (d, d)})[n, d]


def levels_by_columns(k: int, lengths: dict[int, int]
                      ) -> dict[tuple[int, int], CodeDB]:
    """classify_by_columns(n, k, d') for every length n of lengths and
    every lengths[n] <= d' <= griesmer_dmax(n, k), keyed by (n, d'), from
    one enumeration per length and one dedupe over all of them: the
    direct counterpart of whole extension rungs of one dimension.  A
    length whose d is above its Griesmer maximum gives no level; the
    limits are those of classify_by_columns(n, k, lengths[n]).
    """
    ranges = {}
    for n, d in lengths.items():
        _check_direct(n, k, d)
        top = griesmer_dmax(n, k)
        if d <= top:
            ranges[n] = (d, top)
    return _direct_levels(k, ranges) if ranges else {}


# -- extension over the seed's column-type box -----------------------------------


def _extend_seed(seeds, n1: int, k1: int, d: int):
    """Candidate extensions of every seed of a rung, in one walk: the
    multiplicity vectors of span((1|v), 0-prefixed seed rows) whose
    minimum weight is >= d.  seeds are [n1, k1] generators, each a tuple
    of k1 row ints; a row with bits past n1, or a seed of rank < k1, is
    refused.  Returns (hist, owner): hist a list of int16 arrays of
    rows, in walk order, and owner one array over those rows in turn,
    the index in seeds of the seed each row extends.  (bench/spans.py
    traces this name as classify.extend, once per call.)

    Up to equivalence, (1|v) depends only on x_st, the number of ones v
    has among the c_st seed columns of type st, and
    wt((1|v) + c_m) = 1 + const_m + sum_st sign[m, st] x_st with
    const_m = sum_{m.st=1} c_st.  Translating v by the codeword c_m
    complements x_st on the types with m.st = 1, so capping x at c/2 on
    the k1 unit types of the reduced seed keeps at least one translate
    of every coset.  A translate spans the same code, so deduplication
    merges the translates the cap keeps.

    Each seed's box 0 <= x < radix is walked one occupied type at a
    time, widest type first, so the frontier stays narrow while it is
    pruned hardest.  All seeds walk together, one numpy pass per step
    for all of them: a seed with fewer occupied types first takes steps
    over empty ones (a single value, 0), while its frontier is one row.
    The types still to come can raise the partial coset weight w[m] by
    at most the sum of radix - 1 over those with sign[m, st] = +1, so no
    box row under a prefix reaches coset weight d - 1 unless
    w[m] >= need[m], d - 1 minus that gain, for every m.  A prefix
    carries its slack u[m] = w[m] - need[m] >= 0, so the values v of the
    next type st (radix r) that keep it form one interval:
    r - 1 - u[m] <= v where sign[m, st] = +1, and v <= u[m] where it is
    -1.  Only the children in those intervals are built.  After the last
    type need is d - 1 itself, so the survivors are exactly the rows a
    scan of the whole box keeps.  The slack lies in [1 - d, 2 n1 + 1 - d]
    and is held in the least signed dtype that holds 2 n1 + |d| + 2
    (int8 on every rung of length n1 + 1 <= 42), so it is exact.  Its
    least value over the messages of each sign is read from one
    message-major copy, where numpy reduces fast, with the other
    messages masked to the dtype's largest value.  Each prefix also
    carries its owner and its index in its seed's box, lexicographic in
    the type, in int64: a box of more than 2^63 rows is refused.

    The walk goes depth first over pieces of the frontier, and builds at
    most BOX_CHUNK children at a time (a piece whose children would be
    more is split by parents first), so memory follows BOX_CHUNK times
    the number of types, not the widest frontier.  A finished piece is
    decoded from its box indices to rows.
    """
    q = 1 << k1
    if any(r < 0 or r >> n1 for rows in seeds for r in rows):
        raise ValueError("row has bits outside the column range")
    reduced, rank = rref_stack(pack_rows(k1, n1, seeds).copy())
    if (rank < k1).any():
        i = int(np.argmax(rank < k1))
        raise ValueError(f"seed {i} has rank {rank[i]} < {k1}")
    c = type_counts(k1, n1, reduced)  # (S, q)
    radix = c + 1
    unit = 1 << np.arange(k1)  # the pivot columns' types
    radix[:, unit] = c[:, unit] // 2 + 1
    if any(prod(row) > np.iinfo(np.int64).max for row in radix.tolist()):
        raise ValueError(f"the type box of an [{n1},{k1}] seed has more "
                         "than 2^63 rows")
    # place value of each type in its seed's box
    stride = np.ones_like(radix)
    stride[:, :-1] = np.cumprod(radix[:, :0:-1], axis=1)[:, ::-1]
    wide = int(radix.max(initial=1))
    steps = int((radix > 1).sum(axis=1).max(initial=0))
    order = np.argsort(np.where(radix > 1, -radix, -1 - wide), axis=1,
                       kind="stable")[:, q - steps:]  # empty types first
    slack = np.min_scalar_type(-(2 * n1 + abs(d) + 2))
    most = np.iinfo(slack).max  # all ones: u | most == most for 0 <= u <= most
    sign = sign_matrix(k1)  # symmetric
    pos = sign > 0
    # row st * wide + v: what value v of type st adds to each message's
    # slack (gain), and what a range r - 1 = v takes off it (cost)
    vals = np.arange(wide)[:, None]
    gain = (sign[:, None, :] * vals).reshape(-1, q).astype(slack)
    cost = (pos[:, None, :] * -vals).reshape(-1, q).astype(slack)
    msg = np.arange(q, dtype=np.min_scalar_type(q - 1))[:, None]
    # the slack before any type is placed: const_m + all gains - (d - 1)
    u = c @ ~pos + (radix - 1) @ pos - (d - 1)  # (S, messages)
    live = np.flatnonzero((u >= 0).all(axis=1))
    stack = [(0, u[live].astype(slack), np.zeros(len(live), dtype=np.int64), live)]
    radix_t, counts_t = radix.T.copy(), c.T.astype(np.int16)
    small = np.min_scalar_type(len(seeds))
    hists, owners = [], [np.empty(0, dtype=small)]
    while stack:
        j, u, idx, owner = stack.pop()
        if j == steps:
            hist = np.empty((2 * q, len(idx)), dtype=np.int16)  # transposed
            for t in range(q - 1, 0, -1):  # the digits of idx, last type first
                r = radix_t[t].take(owner)
                rest = idx // r
                hist[2 * t + 1] = idx - rest * r
                idx = rest
            hist[1] = idx
            hist[0::2] = counts_t.take(owner, axis=1) - hist[1::2]
            hist[1] += 1  # the adjoined coordinate
            hists.append(np.ascontiguousarray(hist.T))
            owners.append(owner.astype(small))
            continue
        st = order[:, j].take(owner)
        at = owner * q + st
        r1 = radix.ravel().take(at) - 1
        ut = np.ascontiguousarray(u.T)
        mask = (np.bitwise_count(msg & st.astype(msg.dtype)) & 1).astype(slack) * most
        low = np.maximum(r1 - (ut | mask).min(axis=0), 0)
        mask ^= most
        size = np.maximum(np.minimum(r1, (ut | mask).min(axis=0)) - low + 1, 0)
        total = int(size.sum())
        if total > BOX_CHUNK and len(size) > 1:  # split by parents, in order
            cuts = np.searchsorted(size.cumsum(), range(BOX_CHUNK, total, BOX_CHUNK))
            cuts = [0, *np.unique(cuts.clip(1, len(size) - 1)).tolist(), len(size)]
            stack += [(j, u[lo:hi], idx[lo:hi], owner[lo:hi])
                      for lo, hi in reversed(list(zip(cuts, cuts[1:])))]
            continue
        if not total:
            continue
        key = st * wide
        u = u + cost.take(key + r1, axis=0)
        parent = np.repeat(np.arange(len(size)), size)
        v = np.arange(total) - np.repeat(size.cumsum() - size - low, size)
        u = u.take(parent, axis=0)
        u += gain.take(key.take(parent) + v, axis=0)
        idx = idx.take(parent) + v * stride.ravel().take(at.take(parent))
        stack.append((j + 1, u, idx, owner.take(parent)))
    return hists, np.concatenate(owners)


def _validate_seeds(dbs, d: int):
    if not dbs:
        raise ValueError("no seed databases given")
    n1 = dbs[0].n
    k1 = dbs[0].k
    if any(db.n != n1 or db.k != k1 for db in dbs):
        raise ValueError("seed databases disagree on (n, k)")
    have = {db.d for db in dbs}
    need = set(range(d, griesmer_dmax(n1, k1) + 1))
    missing = sorted(need - have)
    if missing:
        raise ValueError(
            f"incomplete seed set for [{n1 + 1},{k1 + 1},{d}]: "
            f"missing [{n1},{k1},d'] levels d' in {missing}")
    return n1, k1


def _extend_all(dbs, d: int, jobs: int = 1) -> dict[int, CodeDB]:
    """All [n, k, d''] classes for every d'' >= d from complete seed
    levels: one kernel call for every seed, or one for each of jobs
    contiguous groups of seeds, each in its own worker process."""
    if d < 2:
        raise ValueError("extension needs d >= 2")
    n1, k1 = _validate_seeds(dbs, d)
    n, k = n1 + 1, k1 + 1
    seeds = [rows for db in dbs for _, rows in db.records]
    if jobs > 1 and len(seeds) > 1:
        from concurrent.futures import ProcessPoolExecutor
        size = -(-len(seeds) // jobs)
        groups = [seeds[lo:lo + size] for lo in range(0, len(seeds), size)]
        with ProcessPoolExecutor(max_workers=jobs) as ex:
            results = list(ex.map(_extend_seed, groups, repeat(n1), repeat(k1), repeat(d)))
    else:
        results = [_extend_seed(seeds, n1, k1, d)]
    levels = _file_levels(k, {n: (d, griesmer_dmax(n, k))}, "extension",
                          [hist for hists, _ in results for hist in hists])
    return {dd: db for (_, dd), db in levels.items()}


def extend_by_inverse_shortening(seed_dbs, d: int, *, jobs: int = 1) -> CodeDB:
    """All inequivalent [n, k, d] codes from the complete set of
    [n-1, k-1, d' >= d] databases."""
    return _extend_all(seed_dbs, d, jobs=jobs)[d]


# -- the full pipeline -----------------------------------------------------------


def _db_path(db_dir: str, n: int, k: int, d: int) -> str:
    return os.path.join(db_dir, f"n{n}k{k}d{d}.codedb")


def _load_checked(path: str, n: int, k: int, d: int) -> CodeDB:
    """A stored level, trusted only once filing the classes of its rows
    gives it back: the column types of its rows, read by one type_counts
    pass, must each have least message weight d (so rank k), and
    _file_levels, the path every built level takes, must file them at
    [n, k, d] as exactly the stored records."""
    db = formats.load_codedb(path)
    if (db.n, db.k, db.d) == (n, k, d):
        counts = type_counts(k, n, pack_rows(k, n, [rows for _, rows in db.records]))
        least = (counts[:, 1:] @ message_weight_matrix(k).T).min(axis=1)
    if (db.n, db.k, db.d) != (n, k, d) or (least != d).any():
        raise ValueError(f"{path} does not hold [{n},{k},{d}] codes")
    if _file_levels(k, {n: (d, d)}, db.method, [counts])[n, d] != db:
        raise ValueError(f"{path}: records are not one canonical "
                         "representative per class")
    return db


def _ladder(n: int, k: int, d: int) -> list[tuple[int, int, range]]:
    """The rungs of classify(n, k, d), bottom-up, each as (n', k', the d'
    its build writes).  A d = 1 target is one direct level.  Otherwise
    the bottom rung, k' = min(3, k), is enumerated directly and each rung
    above it is extended from the whole rung below, so each writes every
    level d <= d' <= griesmer_dmax(n', k')."""
    if d == 1:
        return [(n, k, range(1, 2))]
    return [(n - k + kk, kk, range(d, griesmer_dmax(n - k + kk, kk) + 1))
            for kk in range(min(3, k), k + 1)]


def classify(n: int, k: int, d: int, *, db_dir: str | None = None,
             jobs: int = 1) -> CodeDB:
    """Classify [n, k, d] codes through the shortening ladder.

    The rungs of _ladder run bottom-up: levels with k <= 3 are
    enumerated directly over column multisets, and each higher rung is
    built by inverse shortening from the complete d' >= d rung one
    dimension below.  So every stored level's bytes depend only on its
    (n, k, d).  Every level built is persisted into db_dir.  A run
    starts above the highest rung stored there whole, read once
    verified: the top rung counts as stored once [n, k, d] is, a lower
    one once all its levels are.  Needs 2 <= k <= CANONICAL_CAP and
    n <= MAX_LENGTH.
    """
    _check_length(n)
    if d < 1:
        raise ValueError("need d >= 1")
    if not 2 <= k <= CANONICAL_CAP:
        raise ValueError(
            f"classification pipeline needs 2 <= k <= {CANONICAL_CAP}, got k={k}")
    top = griesmer_dmax(n, k)
    if d > top:
        raise ValueError(
            f"d={d} exceeds the Griesmer maximum {top} for [{n},{k}]")
    plan = _ladder(n, k, d)
    done, stored = 0, []
    for i, (nn, kk, ds) in enumerate(plan if db_dir else []):
        ds = ds if i + 1 < len(plan) else [d]  # the top rung needs only [n, k, d]
        if all(os.path.exists(_db_path(db_dir, nn, kk, dd)) for dd in ds):
            done, stored = i + 1, [(nn, kk, dd) for dd in ds]
    # read the highest rung stored whole, then build each rung above it
    levels = {level[2]: _load_checked(_db_path(db_dir, *level), *level) for level in stored}
    for i, (nn, kk, ds) in enumerate(plan[done:], done):
        if i:
            levels = _extend_all(list(levels.values()), d, jobs=jobs)
        else:
            direct = _direct_levels(kk, {nn: (ds[0], ds[-1])})
            levels = {dd: db for (_, dd), db in direct.items()}
        if db_dir:
            for dd, db in levels.items():
                formats.save_codedb(db, _db_path(db_dir, nn, kk, dd))
    return levels[d]


def lcd_census(db: CodeDB) -> CensusResult:
    """Count classes and LCD classes in a classification: the column types
    of every stored generator are read in one type_counts pass, and
    their hulls come from one hull_dims call."""
    stack = pack_rows(db.k, db.n, [rows for _, rows in db.records])
    hulls = hull_dims(db.k, type_counts(db.k, db.n, stack))
    lcd_keys = [db.records[i][0] for i in np.flatnonzero(hulls == 0).tolist()]
    return CensusResult(db.n, db.k, db.d, db.count, len(lcd_keys),
                        tuple(lcd_keys))
