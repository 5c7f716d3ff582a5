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
tied (for k = 1 every move is a no-op, and the step is stuck).  The
message weights w are kept across the steps of a restart: a move
i -> j adds a[m, j] - a[m, i] to w_m.

So are c and #{w = c}, which a restart computes once.  Every move the
step may take ties with best, so its f has best's top digit: digit p/k,
which counts the messages of new weight c + 3 - p/k, and whose value is
best >> p.  As that digit is the move's top one, no message falls below
c + 3 - p/k: the new minimum is exactly c + 3 - p/k, held by best >> p
messages.  (A sideways step has p = 3k and keeps both.)

A state is checked for LCD only once its minimum reaches d.  By Massey
(1992) a full-rank code is LCD exactly when G G^T is nonsingular, and
each column of type t adds t t^T to G G^T, so over GF(2)
G G^T = sum of t t^T over the types t of odd count: the k x k
TypeMultiplicity.gram, whose rank gf2.rref gives without building a
code.  Only a state of rank k becomes a LinearCode, which is checked
again, LCD and weight, before it is returned.  The check depends on the
state alone, so each restart keeps the states it has rejected and checks
none of them twice: the plateau walk returns to the same states often.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bounds import griesmer_dmax
from .code import LinearCode, TypeMultiplicity, message_weight_matrix
from .gf2 import MAX_DIM, rref

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
def _digit_tables(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The message-weight matrix a (symmetric), the float64 tables
    x[i, m] = B^a[m, i] and y[m, j] = B^(1 - a[m, j]), and u's values
    (B^2, B, 1, 0) indexed by min(w_m - c, 3)."""
    a = message_weight_matrix(k).astype(np.int32)
    return (a, np.exp2(k * a.T), np.exp2(k * (1 - a)),
            np.array([1 << 2 * k, 1 << k, 1, 0], dtype=np.float64))


def move_scores(counts: np.ndarray, w: np.ndarray, k: int,
                c: int) -> tuple[np.ndarray, np.ndarray]:
    """(occupied types occ, digit counts f of every move occ[r] -> j at
    [r, j]) for nonzero-type multiplicities counts with message weights w
    of minimum c; the no-op moves occ[r] -> occ[r] are inf."""
    _, x, y, level = _digit_tables(k)
    occ = counts.nonzero()[0]
    f = (x[occ] * level.take(w - c, mode="clip")) @ y
    f[np.arange(len(occ)), occ] = np.inf
    return occ, f


def tie_range(least: int, k: int) -> tuple[int, int]:
    """(best, bound) for the least digit count of a step: best keeps only
    the top base-2^k digit of least, and a move ties with it exactly when
    its f is below bound."""
    p = k * (2 + (least >= 1 << 3 * k) + (least >= 1 << 4 * k))
    best = least >> p << p
    return best, best + (1 << p)


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
    a = _digit_tables(k)[0]
    rng = random.Random(budget.rng_seed)
    steps = 0
    for _restart in range(budget.restarts):
        if steps >= budget.max_iterations:
            break
        counts = np.zeros(q, dtype=np.int32)
        for _ in range(n):
            counts[rng.randrange(q)] += 1
        w = a @ counts
        cur_min = int(w.min())
        at_min = int(np.count_nonzero(w == cur_min))
        plateau = 8 * n
        rejected: set[bytes] = set()  # states of this restart that are not LCD
        while steps < budget.max_iterations:
            steps += 1
            occ, f = move_scores(counts, w, k, cur_min)
            if cur_min >= d and (state := counts.tobytes()) not in rejected:
                types = TypeMultiplicity(k, (0, *counts.tolist()))
                if rref(types.gram()).rank == k:
                    code = LinearCode(types.generator())
                    if code.is_lcd() and code.min_weight() >= d:
                        return code
                rejected.add(state)
            least = f.min()
            if least == np.inf:
                break  # no real move (k = 1): stuck
            best, bound = tie_range(int(least), k)
            now = at_min << 3 * k
            if best < now:  # improve: the first best move, row-major
                move = int((f < bound).argmax())
            elif best == now and plateau > 0:  # sideways: a random tie
                plateau -= 1
                ties = (f < bound).ravel().nonzero()[0]  # row-major
                move = int(ties[rng.randrange(len(ties))])
            else:
                break  # stuck: restart
            r, j = divmod(move, q)
            i = occ[r]
            counts[i] -= 1
            counts[j] += 1
            w += a[j] - a[i]  # a is symmetric: row t is column t
            p = (bound - best).bit_length() - 1  # bound = best + 2^p
            cur_min += 3 - p // k  # digit p / k counts weight c + 3 - p / k
            at_min = best >> p
    return None
