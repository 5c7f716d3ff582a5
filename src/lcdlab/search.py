"""Heuristic discovery of LCD [n, k, d] codes to witness lower bounds.

The state space is the column-type multiplicity vector; a move shifts
one column between types.  Steepest ascent on the minimum weight with
deterministic tie-breaking, LCD enforced as a hard constraint on
acceptance, random restarts under a fixed seed.  Targets need d >= 1,
which makes every state with minimum weight >= d a full-rank code.  Not
finding a code proves nothing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .bounds import griesmer_dmax
from .classify import message_weight_matrix
from .code import LinearCode, TypeMultiplicity


@dataclass(frozen=True)
class SearchBudget:
    max_iterations: int = 1_000_000
    rng_seed: int = 0
    restarts: int = 64

    def __post_init__(self):
        if self.max_iterations < 1 or self.restarts < 1:
            raise ValueError("budget fields must be positive")


def search_lcd(n: int, k: int, d: int,
               budget: SearchBudget | None = None) -> LinearCode | None:
    """Look for an LCD [n, k, >= d] code; None when the budget runs out.

    Every success is re-verified through the code object before return,
    and identical budgets give identical outcomes.
    """
    budget = budget or SearchBudget()
    if d < 1:
        raise ValueError("need d >= 1")
    if d > griesmer_dmax(n, k):
        raise ValueError(
            f"d={d} exceeds the Griesmer maximum {griesmer_dmax(n, k)} for [{n},{k}]")
    q = (1 << k) - 1
    a_mat = message_weight_matrix(k).astype(np.int32)  # (messages, types)
    # delta[i, j] = weight change per message when a column moves i -> j
    delta = a_mat.T[None, :, :] - a_mat.T[:, None, :]
    big = 1 << 10
    rng = random.Random(budget.rng_seed)
    steps = 0
    for _restart in range(budget.restarts):
        if steps >= budget.max_iterations:
            break
        counts = np.zeros(q, dtype=np.int32)
        for _ in range(n):
            counts[rng.randrange(q)] += 1
        plateau = 8 * n
        while steps < budget.max_iterations:
            steps += 1
            w = a_mat @ counts
            cur_min = int(w.min())
            # score: raise the minimum weight, then thin out the codewords at it
            cur_score = big * cur_min - int((w == cur_min).sum())
            if cur_min >= d:
                code = LinearCode(TypeMultiplicity(k, (0, *counts.tolist())).generator())
                if code.is_lcd() and code.min_weight() >= d:
                    return code
            neigh = w[None, None, :] + delta  # (from, to, messages)
            minw = neigh.min(axis=2)
            at_min = (neigh == minw[:, :, None]).sum(axis=2)
            score = big * minw - at_min
            score[counts == 0, :] = -1
            np.fill_diagonal(score, -1)
            best = int(score.max())
            if best > cur_score:
                i, j = np.unravel_index(int(score.argmax()), score.shape)
                counts[i] -= 1
                counts[j] += 1
                continue
            if best == cur_score and plateau > 0:
                plateau -= 1
                ties = np.argwhere(score == best)
                i, j = ties[rng.randrange(len(ties))]
                counts[i] -= 1
                counts[j] += 1
                continue
            break  # stuck: restart
    return None
