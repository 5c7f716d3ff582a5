import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brute import neighbour_scores
from lcdlab import search
from lcdlab.search import SearchBudget, move_scores, search_lcd

# generator rows of the codes found under each budget, one per
# (n, k, d, budget); any change in move scoring, tie-breaking or RNG use
# moves them
PINNED = {
    (20, 5, 9, SearchBudget(rng_seed=7)): (845209, 611538, 634060, 1032672, 1048064),
    (17, 4, 8, SearchBudget(rng_seed=2024)): (16877, 100750, 127472, 130560),
    (17, 6, 6, SearchBudget(rng_seed=3)): (114849, 25506, 123844, 6952, 104656, 130048),
    (18, 6, 7, SearchBudget(rng_seed=3)): (23761, 170578, 146052, 111128, 258272, 261888),
    (21, 6, 8, SearchBudget(rng_seed=3)):
        (1740873, 864458, 1204556, 1041104, 1967072, 2096128),
    (21, 8, 7, SearchBudget(3000, 1, 64)):
        (1462017, 1658178, 904004, 1528648, 153936, 1857632, 2072448, 2088960),
    (20, 10, 6, SearchBudget(3000, 1, 64)):
        (909569, 358658, 677892, 643080, 886800, 418080, 364864, 209280, 832000, 1047552),
}


def test_witnesses_found():
    for n, k, d in ((17, 4, 8), (18, 4, 8), (19, 5, 8), (20, 5, 9)):
        code = search_lcd(n, k, d, SearchBudget(rng_seed=2024))
        assert code is not None, (n, k, d)
        assert code.n == n and code.k == k
        assert code.min_weight() >= d and code.is_lcd()


def test_deterministic_under_seed():
    for (n, k, d, budget), rows in PINNED.items():
        code = search_lcd(n, k, d, budget)
        assert code is not None and tuple(code.generator.data) == rows, (n, k, d, budget)


def test_rank_deficient_state_keeps_moving(monkeypatch):
    """At minimum weight 0 every real move may score below 0; the no-op
    moves must still lose to them, or the search repeats one state until
    its budget of 1,000,000 steps runs out."""
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return move_scores(*args)

    monkeypatch.setattr(search, "move_scores", counting)
    search_lcd(4, 3, 2, SearchBudget(rng_seed=7))
    assert calls < 10_000


@st.composite
def states(draw):
    """Multiplicities over the nonzero types, some of them empty; small n
    gives minimum weight 0."""
    k = draw(st.integers(1, 7))
    q = (1 << k) - 1
    used = draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=q, unique=True))
    counts = np.zeros(q, dtype=np.int32)
    for t in used:
        counts[t] = draw(st.integers(0, 4))
    return counts, k


@settings(max_examples=300, deadline=None)
@given(states())
@example((np.array([1, 0, 0], dtype=np.int32), 2))  # c = 0: moves that score -1
@example((np.array([1, 0, 4], dtype=np.int32), 2))  # 0 -> 2: one message drops, alone
@example((np.array([3, 0, 0, 0, 0, 0, 0], dtype=np.int32), 3))  # rank 1: all moves -1
def test_move_scores_match_brute(state):
    counts, k = state
    nonzero = np.arange(1, 1 << k)
    w = ((np.bitwise_count(nonzero[:, None] & nonzero) & 1) @ counts).astype(np.int32)
    c, now, occ, score = move_scores(counts, w, k)
    assert occ.tolist() == np.flatnonzero(counts).tolist()
    real = np.ones(score.shape, dtype=bool)
    real[np.arange(len(occ)), occ] = False  # the no-op moves occ[r] -> occ[r]
    assert score[real].tolist() == neighbour_scores(counts, k)[occ][real].tolist()
    if real.any():
        assert score[~real].max() < score[real].min()
    assert (c, now) == (w.min(), (1 << 10) * w.min() - (w == w.min()).sum())


def test_above_griesmer_rejected():
    with pytest.raises(ValueError, match="Griesmer"):
        search_lcd(22, 4, 12)


def test_k_above_cap_rejected():
    with pytest.raises(ValueError, match="k=10"):
        search_lcd(40, 11, 5)


def test_d_below_one_rejected():
    with pytest.raises(ValueError, match="d >= 1"):
        search_lcd(10, 3, 0)


def test_nonexistent_not_found():
    budget = SearchBudget(max_iterations=3000, rng_seed=5, restarts=40)
    assert search_lcd(22, 4, 11, budget) is None


def test_budget_caps_work():
    budget = SearchBudget(max_iterations=1, rng_seed=0, restarts=1)
    # may or may not find in one step, but must terminate and verify
    code = search_lcd(17, 4, 2, budget)
    if code is not None:
        assert code.min_weight() >= 2 and code.is_lcd()
    with pytest.raises(ValueError):
        SearchBudget(max_iterations=0)
