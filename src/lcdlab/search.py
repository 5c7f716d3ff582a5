"""Heuristic discovery of LCD [n, k, d] codes to witness lower bounds.

The state space is the column-type multiplicity vector; a move shifts
one column between types.  Steepest ascent on the minimum weight with
deterministic tie-breaking, LCD enforced as a hard constraint on
acceptance, random restarts under a fixed seed.  Targets need d >= 1,
which makes every state with minimum weight >= d a full-rank code.  Not
finding a code proves nothing.

A move is ranked by its new minimum weight, then by the number of
messages at it.  A move i -> j changes the weight of message m by
a[m, j] - a[m, i], one of -1, 0 or 1, so with c the current minimum the
new minimum is c - 1, c or c + 1, and messages of weight above c + 2
can neither set it nor reach it.  The moves of a step are valued at once
as base B = 2^k digit counts: with u_m = B^(c + 2 - w_m) for
w_m <= c + 2 and 0 otherwise (a 4-entry table indexed by
min(w_m - c, 3)),

    f[i, j] = sum_m B^a[m, i] * u_m * B^(1 - a[m, j]),

whose digit p counts the messages of new weight c + 3 - p.  A count is
at most 2^k - 1 < B, so digits never carry.  f is one float64 matrix
product of two fixed tables; it stays below B^5 = 2^(5k), exact in
float64 for k <= SEARCH_CAP = 10.

The best move is then read off f without scoring each move.  Every
message of weight c moves to c - 1, c or c + 1, so the top nonzero digit
of a move's f is digit 4, 3 or 2: a higher new minimum puts it lower,
and at the same minimum fewer messages make it smaller.  So the best moves are
those whose f shares the top digit of the least f.  With p the position
of that digit in bits (2k, 3k or 4k, by comparing the least f with B^3
and B^4), best = least with its lower p bits cleared, and a move ties
with it exactly when f < best + 2^p: its top digit is the same, and a
digit below 2^k keeps best + 2^p <= B^(p/k + 1), so the lower digits
never change the rank.  The state itself has minimum c with
#{w = c} messages at it, which is the value #{w = c} * B^3 in the same
digits: a step improves if best is below it, and ties if equal.

Only a type that holds a column can give one up, so only the rows i of
the occupied types are built: at most n of the 2^k - 1, in ascending
order, so that the first tied move is the first in row-major order over
all moves.  The no-op moves i -> i are set to inf, so they are never
tied (for k = 1 every move is a no-op, and the step is stuck); row r of
f starts at flat offset r (2^k - 1), so they are set through one flat
index per row.  The message weights are kept across the steps of a
restart as their excess e = w - c over the minimum, whose least entry is
0, so that e indexes u's table directly: a move i -> j adds
a[m, j] - a[m, i] to e_m, and a step that changes c shifts e back by the
change.

So are c and #{w = c}, which a restart computes once.  Every move the
step may take ties with best, so its f has best's top digit: digit p/k,
which counts the messages of new weight c + 3 - p/k, and whose value is
best >> p.  As that digit is the move's top one, no message falls below
c + 3 - p/k: the new minimum is exactly c + 3 - p/k, held by best >> p
messages.  (A sideways step has p = 3k and keeps both.)

A state is checked for LCD only once its minimum reaches d.  By Massey
(1992) a full-rank code is LCD exactly when G G^T is nonsingular, and
each column of type t adds t t^T to G G^T, so over GF(2) G G^T = sum of
t t^T over the types t of odd count.  The search carries that k x k
matrix as one int, row i in bits ik .. ik + k - 1: a move i -> j flips
the parity of both types, so it XORs in the packed t t^T of each, read
from the outer-product table that code.hull_dims uses.  A state whose
minimum reaches d has that Gram unpacked and its rank taken by
_full_rank, the search's own k x k forward elimination, and only one
whose Gram has rank k becomes a LinearCode, which is checked
again, LCD and weight, before it is returned.

The step data of a state, its occupied types, its tied moves, best and
bound, and its LCD verdict, depends on the multiplicities alone: so do
the excess weights, the carried minimum and its count, and the parity
Gram.  So each restart keeps a record of the states it has valued, keyed
by counts.tobytes(), and values a state, and reduces its Gram, only the
first time it meets it; the plateau walk returns to the same states
often.  The record keeps the tied moves in row-major order, so the
improving move is the first of them and a sideways draw picks from the
same list as before: the record changes no path, draw or result.  It
holds at most one entry per step of its restart: at most 8n sideways
steps, and fewer than (n + 1) 2^k improving ones, since each raises the
minimum (at most n) or lowers the count at it (at most 2^k - 1).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bounds import griesmer_dmax
from .code import LinearCode, TypeMultiplicity, message_weight_matrix, outer_table
from .gf2 import MAX_DIM

SEARCH_CAP = 10  # 2^(5k) <= 2^53: move values exact in float64


@dataclass(frozen=True)
class SearchBudget:
    max_iterations: int = 1_000_000
    rng_seed: int = 0
    restarts: int = 64

    def __post_init__(self):
        if self.max_iterations < 1 or self.restarts < 1:
            raise ValueError("budget fields must be positive")


@lru_cache(maxsize=None)
def _digit_tables(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray,
                                   np.ndarray, tuple[int, ...]]:
    """The message-weight matrix a (symmetric; intp, so that the excess
    weights it gives index u's table without a cast), the float64 tables
    x[i, m] = B^a[m, i] and y[m, j] = B^(1 - a[m, j]), u's values
    (B^2, B, 1, 0) indexed by min(e_m, 3), the flat offsets r (2^k - 1)
    of the rows of f, and the packed t t^T of each nonzero type t (row i
    in bits ik .. ik + k - 1: t where bit i of t is set), read from
    code.outer_table."""
    a = message_weight_matrix(k).astype(np.intp)
    q = len(a)
    packed = np.packbits(outer_table(k)[1:].astype(np.uint8), axis=1, bitorder="little")
    outer = tuple(int.from_bytes(row.tobytes(), "little") for row in packed)
    # a is symmetric, so x = B^(a^T) is B^a, whose rows C order keeps contiguous
    return (a, np.exp2(k * a), np.exp2(k * (1 - a)),
            np.array([1 << 2 * k, 1 << k, 1, 0], dtype=np.float64),
            np.arange(q) * q, outer)


def move_scores(counts: np.ndarray, e: np.ndarray,
                k: int) -> tuple[np.ndarray, np.ndarray]:
    """(occupied types occ, digit counts f of every move occ[r] -> j at
    [r, j]) for nonzero-type multiplicities counts whose message weights
    exceed their minimum by e; the no-op moves occ[r] -> occ[r] are inf."""
    _, x, y, level, rows, _ = _digit_tables(k)
    occ = counts.nonzero()[0]
    f = (x.take(occ, axis=0) * level.take(e, mode="clip")) @ y
    f.ravel()[rows[:len(occ)] + occ] = np.inf
    return occ, f


def _parity_gram(counts: np.ndarray, k: int) -> int:
    """G G^T over GF(2) for nonzero-type multiplicities counts, packed:
    the XOR of the packed t t^T of the types t of odd count."""
    outer = _digit_tables(k)[-1]
    gram = 0
    for t in np.flatnonzero(counts & 1).tolist():
        gram ^= outer[t]
    return gram


def _full_rank(gram: int, k: int) -> bool:
    """Whether the packed k x k Gram has rank k, by forward elimination
    on its row ints: row i in turn takes its lowest set column as its
    pivot and is XORed into each later row with that column set.  Row i
    has every earlier pivot clear, so its pivot is new, and the rank is
    k exactly when no row is zero when its turn comes."""
    rows = [gram >> b & ((1 << k) - 1) for b in range(0, k * k, k)]
    for i, row in enumerate(rows):
        if not row:
            return False
        low = row & -row
        for j in range(i + 1, k):
            if rows[j] & low:
                rows[j] ^= row
    return True


def tie_range(least: int, k: int) -> tuple[int, int]:
    """(best, bound) for the least digit count of a step: best keeps only
    the top base-2^k digit of least, and a move ties with it exactly when
    its f is below bound."""
    p = k * (2 + (least >= 1 << 3 * k) + (least >= 1 << 4 * k))
    best = least >> p << p
    return best, best + (1 << p)


def _step_data(record: dict, counts: np.ndarray, e: np.ndarray, k: int,
               gram: int | None) -> tuple:
    """(occupied types occ, the tied moves as flat indices into f in
    row-major order, best, bound, LCD verdict) of the state counts, whose
    message weights exceed their minimum by e; gram is its packed parity
    Gram when that minimum reaches d, else None.  Taken from record, the
    restart's valued states, or valued now and recorded.  With no real
    move (k = 1) best and bound are inf, so the step neither improves nor
    ties."""
    key = counts.tobytes()
    data = record.get(key)
    if data is None:
        occ, f = move_scores(counts, e, k)
        least = f.min()
        best, bound = tie_range(int(least), k) if least < np.inf else (least, least)
        lcd = gram is not None and _full_rank(gram, k)
        data = record[key] = (occ, (f < bound).ravel().nonzero()[0], best, bound, lcd)
    return data


def search_lcd(n: int, k: int, d: int,
               budget: SearchBudget | None = None) -> LinearCode | None:
    """Look for an LCD [n, k, >= d] code; None when the budget runs out.

    Every success is re-verified through the code object before return,
    and identical budgets give identical outcomes.
    """
    budget = budget or SearchBudget()
    if d < 1:
        raise ValueError("need d >= 1")
    if k > SEARCH_CAP:
        raise ValueError(f"search capped at k={SEARCH_CAP}")
    if n > MAX_DIM:
        raise ValueError(f"need n <= {MAX_DIM}, the most columns a generator holds")
    if d > griesmer_dmax(n, k):
        raise ValueError(
            f"d={d} exceeds the Griesmer maximum {griesmer_dmax(n, k)} for [{n},{k}]")
    q = (1 << k) - 1
    a, *_, outer = _digit_tables(k)
    rng = random.Random(budget.rng_seed)
    steps = 0
    for _restart in range(budget.restarts):
        if steps >= budget.max_iterations:
            break
        counts = np.bincount([rng.randrange(q) for _ in range(n)],
                             minlength=q).astype(np.int32)
        e = a @ counts
        cur_min = int(e.min())
        e -= cur_min
        at_min = int(np.count_nonzero(e == 0))
        gram = _parity_gram(counts, k)
        plateau = 8 * n
        record: dict[bytes, tuple] = {}  # step data, by this restart's states
        while steps < budget.max_iterations:
            steps += 1
            occ, ties, best, bound, lcd = _step_data(
                record, counts, e, k, gram if cur_min >= d else None)
            if lcd:
                types = TypeMultiplicity(k, (0, *counts.tolist()))
                code = LinearCode(types.generator())
                if code.is_lcd() and code.min_weight() >= d:
                    return code
            now = at_min << 3 * k
            if best < now:  # improve: the first best move, row-major
                move = int(ties[0])
            elif best == now and plateau > 0:  # sideways: a random tie
                plateau -= 1
                move = int(ties[rng.randrange(len(ties))])
            else:
                break  # stuck (or no real move, k = 1): restart
            r, j = divmod(move, q)
            i = int(occ[r])
            counts[i] -= 1
            counts[j] += 1
            gram ^= outer[i] ^ outer[j]  # both types change parity
            e += a[j] - a[i]  # a is symmetric: row t is column t
            p = (bound - best).bit_length() - 1  # bound = best + 2^p
            if shift := 3 - p // k:  # digit p / k counts weight c + 3 - p / k
                cur_min += shift
                e -= shift
            at_min = best >> p
    return None
