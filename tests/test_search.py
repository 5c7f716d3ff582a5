import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brute import neighbour_scores, parity_gram
from lcdlab import search
from lcdlab.code import LinearCode, TypeMultiplicity
from lcdlab.gf2 import rref
from lcdlab.search import SearchBudget, move_scores, search_lcd, tie_range

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


# sha256 of every state the search steps from in a 2,000-step miss; any
# change in move ranking, tie-breaking, plateau use, restarts or RNG use
# moves them
PINNED_PATHS = {
    (22, 4, 11): "3ec419e782762b2020731a81bd2c3e6a9d31771e5e559625b46f23704fa90fe6",
    (21, 5, 10): "9287142f63665af0936d0665da6ee34393628a7227e8f3bcd983c718aca94063",
    (21, 6, 9): "5667792c1c7365e773e93473456d62189f2fcdfc961eb94e8f4203bc2ac298f9",
    # 475 of its states reach d = 8 without being LCD: a wrong LCD "yes"
    # builds a code, which this test forbids
    (18, 5, 8): "7dcb8ff6603c82a3080710cd8e0c37b0123a2c9448346556b18a226c2beb590c",
}
# move_scores calls in those misses: the distinct states of each restart,
# valued once each as the plateau walk returns to them
VALUED_STATES = {(22, 4, 11): 155, (18, 5, 8): 566}


def record_states(monkeypatch):
    """Route the search's step through a wrapper that hashes and counts
    every state it steps from, and checks that the minimum the search
    carries from step to step is the least message weight: the weights it
    passes are their excess over it, so their least is 0; returns the
    running (hash, [count])."""
    digest, calls = hashlib.sha256(), [0]
    step_data = search._step_data

    def recording(record, counts, e, k, gram):
        assert int(e.min()) == 0
        calls[0] += 1
        digest.update(counts.tobytes())
        return step_data(record, counts, e, k, gram)

    monkeypatch.setattr(search, "_step_data", recording)
    return digest, calls


def count_valued(monkeypatch):
    """Route move_scores through a wrapper that counts its calls."""
    calls = [0]

    def counting(counts, e, k):
        calls[0] += 1
        return move_scores(counts, e, k)

    monkeypatch.setattr(search, "move_scores", counting)
    return calls


@pytest.mark.parametrize("target", list(PINNED_PATHS))
def test_search_paths_pinned(monkeypatch, target):
    """Each pinned miss also builds no code: its states at weight d are
    all rejected by their parity Gram."""
    digest, calls = record_states(monkeypatch)
    valued = count_valued(monkeypatch)
    monkeypatch.setattr(search, "LinearCode", None)  # building one raises
    n, k, d = target
    assert search_lcd(n, k, d, SearchBudget(2000, rng_seed=1, restarts=2000)) is None
    assert calls[0] == 2000
    assert digest.hexdigest() == PINNED_PATHS[target]
    if target in VALUED_STATES:
        assert valued[0] == VALUED_STATES[target]


def test_rank_checked_once_per_gram(monkeypatch):
    """The pinned (18,5,8) miss is at weight d = 8 on 1,909 of its 2,000
    steps, on 475 states that are not LCD, as the plateau walk returns to
    them; each restart values a state, and reduces its Gram, only the
    first time it meets it, and its distinct states at weight d have
    distinct Grams, so no more than 475 eliminations run."""
    calls = [0]

    def counting(m):
        calls[0] += 1
        return rref(m)

    monkeypatch.setattr(search, "rref", counting)
    monkeypatch.setattr(search, "LinearCode", None)  # building one raises
    assert search_lcd(18, 5, 8, SearchBudget(2000, rng_seed=1, restarts=2000)) is None
    assert 0 < calls[0] <= 475


# short searches at k = 2..7, hits and misses; all but (12,2,8) step from
# some state more than once
RECOMPUTED = [(13, 2, 8), (12, 2, 8), (14, 3, 8), (15, 3, 8), (17, 4, 8), (18, 4, 8),
              (19, 5, 8), (18, 5, 8), (21, 6, 8), (22, 6, 9), (17, 7, 6), (20, 7, 8)]


@pytest.mark.parametrize("target", RECOMPUTED)
def test_record_matches_recompute(monkeypatch, target):
    """A search whose step values every state afresh, its record defeated
    by an empty one each step, steps from the same states and returns the
    same code or None as the search that serves revisits from its record."""
    n, k, d = target
    budget = SearchBudget(1500, rng_seed=11, restarts=300)
    with monkeypatch.context() as m:
        digest, calls = record_states(m)
        code = search_lcd(n, k, d, budget)
        recorded = digest.hexdigest(), calls[0]
    step_data = search._step_data
    monkeypatch.setattr(search, "_step_data",
                        lambda record, *state: step_data({}, *state))
    digest, calls = record_states(monkeypatch)
    valued = count_valued(monkeypatch)
    fresh = search_lcd(n, k, d, budget)
    assert (digest.hexdigest(), calls[0]) == recorded
    assert valued[0] == calls[0]  # every step valued its state
    assert (None if code is None else code.generator.data) == \
        (None if fresh is None else fresh.generator.data)


@st.composite
def walks(draw):
    """Multiplicities at k <= 7 and moves i -> j between nonzero types."""
    k = draw(st.integers(1, 7))
    q = (1 << k) - 1
    counts = draw(st.lists(st.integers(0, 3), min_size=q, max_size=q))
    moves = draw(st.lists(st.tuples(st.integers(0, q - 1), st.integers(0, q - 1)),
                          max_size=20))
    return k, np.array(counts, dtype=np.int32), moves


@settings(max_examples=200, deadline=None)
@given(walks())
@example((1, np.array([2], dtype=np.int32), [(0, 0)]))  # [2,1]: Gram 0
# I_3 and 111 (not LCD), then I_3 and 011 (LCD), and back
@example((3, np.array([1, 1, 0, 1, 0, 0, 1], dtype=np.int32), [(6, 2), (2, 6)]))
def test_carried_gram_matches_brute(walk):
    """The packed Gram the search carries, XORed with the packed t t^T of
    both types of each move, unpacks to the oracle's parity Gram after
    every move, and on states of full rank its verdict is is_lcd's."""
    k, counts, moves = walk
    outer = search._digit_tables(k)[-1]
    gram = search._parity_gram(counts, k)

    def check():
        types = TypeMultiplicity(k, (0, *counts.tolist()))
        rows = tuple(gram >> b & ((1 << k) - 1) for b in range(0, k * k, k))
        assert rows == parity_gram(types).data
        g = types.generator()
        if rref(g).rank == k:
            assert search._full_rank(gram, k) == LinearCode(g).is_lcd()

    check()
    for i, j in moves:
        if counts[i]:  # only an occupied type gives up a column
            counts[i] -= 1
            counts[j] += 1
            gram ^= outer[i] ^ outer[j]
            check()


def test_rank_deficient_state_keeps_moving(monkeypatch):
    """At minimum weight 0 every real move may leave the minimum at 0 or
    lower the messages at it only a little; the no-op moves must never tie
    with them, or the search repeats one state until its budget of
    1,000,000 steps runs out."""
    _, calls = record_states(monkeypatch)
    search_lcd(4, 3, 2, SearchBudget(rng_seed=7))
    assert calls[0] < 10_000


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
    """The moves tied under the least digit count are exactly the oracle's
    best real moves, the step's verdict matches the oracle's, and the
    no-op moves are inf."""
    counts, k = state
    nonzero = np.arange(1, 1 << k)
    w = ((np.bitwise_count(nonzero[:, None] & nonzero) & 1) @ counts).astype(np.int32)
    c = int(w.min())
    occ, f = move_scores(counts, w - c, k)
    assert occ.tolist() == np.flatnonzero(counts).tolist()
    real = np.ones(f.shape, dtype=bool)
    real[np.arange(len(occ)), occ] = False  # the no-op moves occ[r] -> occ[r]
    assert (f[~real] == np.inf).all()
    if not real.any():  # no real move (k = 1 or no column): nothing to rank
        return
    oracle = neighbour_scores(counts, k)[occ]
    top = oracle[real].max()
    best, bound = tie_range(int(f.min()), k)
    assert ((f < bound) == (real & (oracle == top))).all()
    at_min = int((w == c).sum())
    # improve / sideways / stuck, as the search decides and as the oracle does
    assert np.sign((at_min << 3 * k) - best) == np.sign(top - ((1 << 10) * c - at_min))


def test_above_griesmer_rejected():
    with pytest.raises(ValueError, match="Griesmer"):
        search_lcd(22, 4, 12)


def test_k_above_cap_rejected():
    with pytest.raises(ValueError, match="k=10"):
        search_lcd(40, 11, 5)


def test_n_above_max_dim_rejected(monkeypatch):
    """A generator holds at most gf2.MAX_DIM columns: a longer code is
    rejected before the first step, not after the budget is spent."""
    _, calls = record_states(monkeypatch)
    with pytest.raises(ValueError, match="need n <= 65536"):
        search_lcd((1 << 16) + 1, 3, 2, SearchBudget(max_iterations=5))
    assert calls[0] == 0
    search_lcd(1 << 16, 1, 1 << 16, SearchBudget(max_iterations=1))  # the largest n
    assert calls[0] == 1


def test_d_below_one_rejected():
    with pytest.raises(ValueError, match="d >= 1"):
        search_lcd(10, 3, 0)


def test_nonexistent_not_found():
    budget = SearchBudget(max_iterations=3000, rng_seed=5, restarts=40)
    assert search_lcd(22, 4, 11, budget) is None
    # k = 1: every move is a no-op, so each restart is stuck at once
    assert search_lcd(6, 1, 6, budget) is None


def test_budget_caps_work():
    budget = SearchBudget(max_iterations=1, rng_seed=0, restarts=1)
    # may or may not find in one step, but must terminate and verify
    code = search_lcd(17, 4, 2, budget)
    if code is not None:
        assert code.min_weight() >= 2 and code.is_lcd()
    with pytest.raises(ValueError):
        SearchBudget(max_iterations=0)
