"""Heuristic discovery of LCD [n, k, d] codes to witness lower bounds.

The state space is the column-type multiplicity vector; a move shifts
one column between types.  Steepest ascent on the minimum weight with
deterministic tie-breaking, LCD enforced as a hard constraint on
acceptance, random restarts under a fixed seed.  Targets need d >= 1,
which makes every state with minimum weight >= d a full-rank code.  Not
finding a code proves nothing.

A move's score is its new minimum weight, less the number of messages
at it.  A move i -> j changes the weight of message m by
a[m, j] - a[m, i], one of -1, 0 or 1, so with c the current minimum the
new minimum is c - 1, c or c + 1, and messages of weight above c + 2
can neither set it nor reach it.  The moves of a step are scored at once
as base B = 2^k digit counts: with u_m = B^(c + 2 - w_m) for
w_m <= c + 2 and 0 otherwise (a 4-entry table indexed by
min(w_m - c, 3)),

    f[i, j] = sum_m B^a[m, i] * u_m * B^(1 - a[m, j]),

whose digit p counts the messages of new weight c + 3 - p.  A count is
at most 2^k - 1 < B, so digits never carry, and the top nonzero digit
gives the new minimum and the number of messages at it.  f is one
float64 matrix product of two fixed tables; it stays below
B^5 = 2^(5k), exact in float64 for k <= SEARCH_CAP = 10.  The score
weight 2^10 also needs fewer than 2^10 messages at the minimum.

Only a type that holds a column can give one up, so only the rows i of
the occupied types are built: at most n of the 2^k - 1, in ascending
order, so that ties still fall in row-major order over all moves.  The
no-op moves i -> i score BIG * (c - 2), below every real move (those
score more than BIG * (c - 1) - BIG), so even at c = 0, where real moves
can score below 0, a step never stands still.  The message weights w
are kept across the steps of a restart: a move i -> j adds
a[m, j] - a[m, i] to w_m.

A state's LCD check depends on the state alone, so each restart keeps
the states it has rejected and checks none of them twice: the plateau
walk returns to the same states often.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bounds import griesmer_dmax
from .code import LinearCode, TypeMultiplicity, message_weight_matrix

SEARCH_CAP = 10  # 2^(5k) <= 2^53: move scores exact in float64
BIG = 1 << 10  # score = BIG * minimum weight - messages at it


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


def move_scores(counts: np.ndarray, w: np.ndarray,
                k: int) -> tuple[int, int, np.ndarray, np.ndarray]:
    """(minimum weight c, score of the state, occupied types occ, score of
    every move occ[r] -> j at [r, j]) for nonzero-type multiplicities
    counts with message weights w; the no-op moves occ[r] -> occ[r] score
    BIG * (c - 2), below every real move."""
    _, x, y, level = _digit_tables(k)
    c = int(w.min())
    now = BIG * c - int(np.count_nonzero(w == c))
    occ = counts.nonzero()[0]
    f = ((x[occ] * level[np.minimum(w - c, 3)]) @ y).astype(np.int64)
    drop = (f >= 1 << 3 * k).astype(np.int64) + (f >= 1 << 4 * k)
    score = BIG * (c + 1 - drop) - (f >> k * (2 + drop))
    score[np.arange(len(occ)), occ] = BIG * (c - 2)
    return c, now, occ, score


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
        plateau = 8 * n
        rejected: set[bytes] = set()  # states of this restart that are not LCD
        while steps < budget.max_iterations:
            steps += 1
            cur_min, cur_score, occ, score = move_scores(counts, w, k)
            if cur_min >= d and (state := counts.tobytes()) not in rejected:
                code = LinearCode(TypeMultiplicity(k, (0, *counts.tolist())).generator())
                if code.is_lcd() and code.min_weight() >= d:
                    return code
                rejected.add(state)
            move = int(score.argmax())  # the first best move, row-major
            best = int(score.flat[move])
            if best == cur_score and plateau > 0:  # sideways: a random tie
                plateau -= 1
                ties = (score == best).ravel().nonzero()[0]  # row-major
                move = int(ties[rng.randrange(len(ties))])
            elif best <= cur_score:
                break  # stuck: restart
            r, j = divmod(move, q)
            i = occ[r]
            counts[i] -= 1
            counts[j] += 1
            w += a[j] - a[i]  # a is symmetric: row t is column t
    return None
